//! Reference full-resimulation fault engine.
//!
//! This is the pre-compiled-core engine: per fault it walks the whole
//! levelized order, rebuilding a pin buffer per gate, and allocates a
//! fresh value vector per evaluation. It is deliberately kept verbatim
//! (serial paths only) as
//!
//! * the **oracle** for the equivalence property tests — the incremental
//!   cone engine in [`crate::simulate::FaultSimulator`] must produce
//!   bit-identical `first_detection` vectors; and
//! * the **baseline** for the `e12_fault_sim_engine` benchmark.
//!
//! Do not use it in production flows; it exists to keep the fast engine
//! honest.

use crate::model::{BridgingFault, Fault, FaultKind, FaultSite};
use crate::simulate::CampaignReport;
use rescue_netlist::{GateId, GateKind, Netlist};
use rescue_sim::logic::{eval_gate_bool, eval_gate_word};
use rescue_sim::parallel::pack_patterns;

/// Full-resimulation fault simulator (see module docs).
#[derive(Debug, Clone)]
pub struct ReferenceFaultSimulator {
    order: Vec<GateId>,
}

impl ReferenceFaultSimulator {
    /// Prepares a simulator for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        ReferenceFaultSimulator {
            order: netlist.levelize().order().to_vec(),
        }
    }

    /// Golden (fault-free) 64-way evaluation. `words[i]` is input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the primary-input count.
    pub fn golden(&self, netlist: &Netlist, words: &[u64]) -> Vec<u64> {
        self.eval_with(netlist, words, None, None)
    }

    /// Evaluates 64 packed patterns with `fault` active; returns all gate
    /// values.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or a non-stuck-at fault kind.
    pub fn with_stuck(&self, netlist: &Netlist, words: &[u64], fault: Fault) -> Vec<u64> {
        let value = fault
            .kind()
            .stuck_value()
            .expect("with_stuck requires a stuck-at fault");
        self.eval_with(netlist, words, Some((fault.site(), value)), None)
    }

    /// Evaluates with a wired-AND/OR bridge active (two-pass resolution).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn with_bridge(&self, netlist: &Netlist, words: &[u64], bridge: BridgingFault) -> Vec<u64> {
        let golden = self.golden(netlist, words);
        let va = golden[bridge.a.index()];
        let vb = golden[bridge.b.index()];
        let v = if bridge.wired_and { va & vb } else { va | vb };
        self.eval_with(netlist, words, None, Some((bridge, v)))
    }

    fn eval_with(
        &self,
        netlist: &Netlist,
        words: &[u64],
        stuck: Option<(FaultSite, bool)>,
        bridge: Option<(BridgingFault, u64)>,
    ) -> Vec<u64> {
        let pis = netlist.primary_inputs();
        assert_eq!(words.len(), pis.len(), "input word count mismatch");
        let mut values = vec![0u64; netlist.len()];
        for (i, &pi) in pis.iter().enumerate() {
            values[pi.index()] = words[i];
        }
        let (stuck_out, stuck_pin, stuck_word) = match stuck {
            Some((FaultSite::Output(g), v)) => (Some(g), None, if v { u64::MAX } else { 0 }),
            Some((FaultSite::Pin { gate, pin }, v)) => {
                (None, Some((gate, pin)), if v { u64::MAX } else { 0 })
            }
            None => (None, None, 0),
        };
        let mut buf: Vec<u64> = Vec::with_capacity(4);
        for &id in &self.order {
            let g = netlist.gate(id);
            match g.kind() {
                GateKind::Input => {}
                GateKind::Dff => values[id.index()] = 0,
                kind => {
                    buf.clear();
                    buf.extend(g.inputs().iter().map(|&p| values[p.index()]));
                    // A pin past the arity forces nothing.
                    if let Some((fg, fp)) = stuck_pin {
                        if let Some(pin) = buf.get_mut(fp).filter(|_| fg == id) {
                            *pin = stuck_word;
                        }
                    }
                    values[id.index()] = eval_gate_word(kind, &buf);
                }
            }
            if stuck_out == Some(id) {
                values[id.index()] = stuck_word;
            }
            if let Some((br, v)) = bridge {
                if br.a == id || br.b == id {
                    values[id.index()] = v;
                }
            }
        }
        values
    }

    /// Bitmask of patterns (bit `p`) on which `fault` is detected at a
    /// primary output, given the golden values for the same words.
    pub fn detection_mask(
        &self,
        netlist: &Netlist,
        words: &[u64],
        golden: &[u64],
        fault: Fault,
    ) -> u64 {
        let faulty = self.with_stuck(netlist, words, fault);
        netlist.primary_outputs().iter().fold(0u64, |m, (_, g)| {
            m | (golden[g.index()] ^ faulty[g.index()])
        })
    }

    /// Serial stuck-at campaign with fault dropping, by full
    /// resimulation per (fault, chunk).
    ///
    /// # Panics
    ///
    /// Panics if any pattern width differs from the primary-input count.
    pub fn campaign(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
    ) -> CampaignReport {
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
            let words = pack_patterns(chunk);
            let golden = self.golden(netlist, &words);
            for (fi, &fault) in faults.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue; // fault dropping
                }
                let mask = self.detection_mask(netlist, &words, &golden, fault);
                let mask = if chunk.len() < 64 {
                    mask & ((1u64 << chunk.len()) - 1)
                } else {
                    mask
                };
                if mask != 0 {
                    first_detection[fi] = Some(chunk_idx * 64 + mask.trailing_zeros() as usize);
                }
            }
        }
        CampaignReport::from_parts(faults.to_vec(), first_detection, patterns.len())
    }

    /// Transition-delay campaign over consecutive pattern pairs; see
    /// [`crate::simulate::FaultSimulator::transition_campaign`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or a non-transition fault in `faults`.
    pub fn transition_campaign(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
    ) -> CampaignReport {
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        for (i, pats) in patterns.windows(2).enumerate() {
            let words_capture = pack_patterns(&pats[1..]);
            let g_launch = self.golden(netlist, &pack_patterns(&pats[..1]));
            let g_capture = self.golden(netlist, &words_capture);
            for (fi, &fault) in faults.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue;
                }
                let site_gate = match fault.site() {
                    FaultSite::Output(g) => g,
                    FaultSite::Pin { .. } => panic!("transition faults sit on outputs"),
                };
                let (from, to, stuck) = match fault.kind() {
                    FaultKind::SlowToRise => (0u64, 1u64, false),
                    FaultKind::SlowToFall => (1, 0, true),
                    _ => panic!("transition_campaign requires transition faults"),
                };
                let launch_v = g_launch[site_gate.index()] & 1;
                let capture_v = g_capture[site_gate.index()] & 1;
                if launch_v != from || capture_v != to {
                    continue; // no launching transition
                }
                let eq = Fault::stuck_at(FaultSite::Output(site_gate), stuck);
                let mask = self.detection_mask(netlist, &words_capture, &g_capture, eq);
                if mask & 1 != 0 {
                    first_detection[fi] = Some(i + 1);
                }
            }
        }
        CampaignReport::from_parts(faults.to_vec(), first_detection, patterns.len())
    }

    /// Sequential stuck-at campaign from the all-zero state; see
    /// [`crate::simulate::FaultSimulator::campaign_seq`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or non-stuck-at faults.
    pub fn campaign_seq(
        &self,
        netlist: &Netlist,
        faults: &[Fault],
        stimuli: &[Vec<bool>],
    ) -> CampaignReport {
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        let golden_trace = self.seq_trace(netlist, stimuli, None);
        for (fi, &fault) in faults.iter().enumerate() {
            let value = fault
                .kind()
                .stuck_value()
                .expect("campaign_seq requires stuck-at faults");
            let faulty_trace = self.seq_trace(netlist, stimuli, Some((fault.site(), value)));
            for (cycle, (g, f)) in golden_trace.iter().zip(&faulty_trace).enumerate() {
                if g != f {
                    first_detection[fi] = Some(cycle);
                    break;
                }
            }
        }
        CampaignReport::from_parts(faults.to_vec(), first_detection, stimuli.len())
    }

    fn seq_trace(
        &self,
        netlist: &Netlist,
        stimuli: &[Vec<bool>],
        stuck: Option<(FaultSite, bool)>,
    ) -> Vec<Vec<bool>> {
        let pis = netlist.primary_inputs();
        let mut state = vec![false; netlist.dffs().len()];
        let mut trace = Vec::with_capacity(stimuli.len());
        for inputs in stimuli {
            assert_eq!(inputs.len(), pis.len(), "stimulus width mismatch");
            let mut values = vec![false; netlist.len()];
            for (i, &pi) in pis.iter().enumerate() {
                values[pi.index()] = inputs[i];
            }
            for (i, &dff) in netlist.dffs().iter().enumerate() {
                values[dff.index()] = state[i];
            }
            let mut buf: Vec<bool> = Vec::with_capacity(4);
            for &id in &self.order {
                let g = netlist.gate(id);
                match g.kind() {
                    GateKind::Input | GateKind::Dff => {}
                    kind => {
                        buf.clear();
                        buf.extend(g.inputs().iter().map(|&p| values[p.index()]));
                        if let Some((FaultSite::Pin { gate, pin }, v)) = stuck {
                            if gate == id {
                                buf[pin] = v;
                            }
                        }
                        values[id.index()] = eval_gate_bool(kind, &buf);
                    }
                }
                if let Some((FaultSite::Output(g), v)) = stuck {
                    if g == id {
                        values[id.index()] = v;
                    }
                }
            }
            for (i, &dff) in netlist.dffs().iter().enumerate() {
                state[i] = values[netlist.gate(dff).inputs()[0].index()];
            }
            trace.push(rescue_sim::comb::outputs_of(netlist, &values));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use rescue_netlist::generate;

    #[test]
    fn reference_covers_c17_exhaustively() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let sim = ReferenceFaultSimulator::new(&c);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let report = sim.campaign(&c, &faults, &patterns);
        assert_eq!(report.coverage(), 1.0);
    }
}
