//! Event-driven timed simulation with inertial delays and SET injection.
//!
//! Models single-event-transient (SET) pulses: a particle strike forces a
//! gate output to its complement for a given width; the pulse then races
//! through the combinational logic where it may be *logically masked*
//! (blocked by controlling values) or *electrically masked* (filtered by
//! inertial delays when narrower than a downstream gate delay). This is
//! the substrate of paper Section III.B and the CDN-SET study \[54\].

use crate::error::SimError;
use crate::logic::eval_gate_bool;
use rescue_netlist::{GateId, GateKind, Netlist};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A single-event-transient pulse forced onto one gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetPulse {
    /// The struck gate (its output is inverted).
    pub gate: GateId,
    /// Strike time.
    pub start: u64,
    /// Pulse width in time units; must be > 0.
    pub width: u64,
}

impl SetPulse {
    /// Creates a pulse at `gate` starting at `start` lasting `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(gate: GateId, start: u64, width: u64) -> Self {
        assert!(width > 0, "SET pulse width must be positive");
        SetPulse { gate, start, width }
    }
}

/// A recorded signal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Simulation time of the change.
    pub time: u64,
    /// Signal that changed.
    pub gate: GateId,
    /// New value after the change.
    pub value: bool,
}

/// Result of a timed run: the settled initial values plus every transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waveform {
    initial: Vec<bool>,
    transitions: Vec<Transition>,
}

impl Waveform {
    /// The steady-state value of every gate before injection.
    pub fn initial(&self) -> &[bool] {
        &self.initial
    }

    /// All transitions in time order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions of one signal, in time order.
    pub fn transitions_of(&self, gate: GateId) -> Vec<Transition> {
        self.transitions
            .iter()
            .copied()
            .filter(|t| t.gate == gate)
            .collect()
    }

    /// Value of `gate` at time `t` (after applying all transitions `<= t`).
    pub fn value_at(&self, gate: GateId, t: u64) -> bool {
        let mut v = self.initial[gate.index()];
        for tr in &self.transitions {
            if tr.time > t {
                break;
            }
            if tr.gate == gate {
                v = tr.value;
            }
        }
        v
    }

    /// Returns `(start, width)` of every pulse observed on `gate`
    /// (pairs of opposite transitions; a trailing unclosed transition is
    /// reported with width 0 meaning "still deviated at end of run").
    pub fn pulses_of(&self, gate: GateId) -> Vec<(u64, u64)> {
        let trs = self.transitions_of(gate);
        let mut pulses = Vec::new();
        let mut open: Option<u64> = None;
        for tr in trs {
            match open {
                None => open = Some(tr.time),
                Some(start) => {
                    pulses.push((start, tr.time - start));
                    open = None;
                }
            }
        }
        if let Some(start) = open {
            pulses.push((start, 0));
        }
        pulses
    }
}

/// Event-driven timed simulator with per-gate inertial delays.
///
/// # Examples
///
/// Propagate a SET through a buffer chain:
///
/// ```
/// use rescue_netlist::NetlistBuilder;
/// use rescue_sim::timed::{SetPulse, TimedSimulator};
///
/// let mut b = NetlistBuilder::new("chain");
/// let a = b.input("a");
/// let x = b.buf(a);
/// let y = b.buf(x);
/// b.output("y", y);
/// let net = b.finish();
///
/// let sim = TimedSimulator::new(&net);
/// let wave = sim.run(&net, &[false], &[SetPulse::new(x, 10, 5)], 100)?;
/// let pulses = wave.pulses_of(y);
/// assert_eq!(pulses, vec![(11, 5)]); // arrives 1 delay later, same width
/// # Ok::<(), rescue_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimedSimulator {
    delays: Vec<u64>,
    order: Vec<GateId>,
}

impl TimedSimulator {
    /// Creates a simulator with unit delay on every combinational gate.
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_delays(netlist, vec![1; netlist.len()])
    }

    /// Creates a simulator with explicit per-gate delays (time units).
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != netlist.len()` or any delay is 0.
    pub fn with_delays(netlist: &Netlist, delays: Vec<u64>) -> Self {
        assert_eq!(delays.len(), netlist.len(), "one delay per gate");
        assert!(delays.iter().all(|&d| d > 0), "delays must be positive");
        TimedSimulator {
            delays,
            order: netlist.levelize().order().to_vec(),
        }
    }

    /// The inertial delay of `gate`.
    pub fn delay(&self, gate: GateId) -> u64 {
        self.delays[gate.index()]
    }

    /// Runs until `t_end`: settles the circuit at the given `inputs`,
    /// injects every pulse in `pulses`, and records all transitions.
    ///
    /// DFF outputs are frozen at 0 (single-cycle combinational analysis);
    /// latching-window analysis is layered on top by `rescue-radiation`.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
    pub fn run(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        pulses: &[SetPulse],
        t_end: u64,
    ) -> Result<Waveform, SimError> {
        let pis = netlist.primary_inputs();
        if inputs.len() != pis.len() {
            return Err(SimError::InputWidthMismatch {
                expected: pis.len(),
                found: inputs.len(),
            });
        }
        // Steady state via levelized evaluation.
        let mut values = vec![false; netlist.len()];
        for (i, &pi) in pis.iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for &id in &self.order {
            let g = netlist.gate(id);
            match g.kind() {
                GateKind::Input | GateKind::Dff => {}
                kind => {
                    let ins: Vec<bool> = g.inputs().iter().map(|&p| values[p.index()]).collect();
                    values[id.index()] = eval_gate_bool(kind, &ins);
                }
            }
        }
        let initial = values.clone();
        let fanout = netlist.fanout();

        // Classic one-pending-event inertial-delay algorithm: gates are
        // evaluated the moment an input changes and the resulting value is
        // scheduled `delay` later; a contradictory re-evaluation inside
        // that window cancels the pending event (pulse filtering).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            ForceStart,
            ForceEnd,
            /// Apply a previously scheduled output value.
            Update(bool),
        }
        // Queue keys are (time, class, seq, gate): scheduled updates
        // (class 0) apply before force-window edges (class 1) at the same
        // instant, so a pulse exactly as wide as a downstream delay still
        // passes — inertial filtering drops only *narrower* pulses.
        type QueueKey = (u64, u8, u64, GateId, Ev);
        let mut queue: BinaryHeap<Reverse<QueueKey>> = BinaryHeap::new();
        let mut seq = 0u64;
        // pending[g] = (seq, scheduled value) of the one outstanding event.
        let mut pending: Vec<Option<(u64, bool)>> = vec![None; netlist.len()];
        let mut force: Vec<Option<bool>> = vec![None; netlist.len()];

        for p in pulses {
            queue.push(Reverse((p.start, 1, seq, p.gate, Ev::ForceStart)));
            seq += 1;
            queue.push(Reverse((p.start + p.width, 1, seq, p.gate, Ev::ForceEnd)));
            seq += 1;
        }

        let mut transitions: Vec<Transition> = Vec::new();
        // `initial` keeps the unforced steady-state values; Input/Dff gates
        // revert to it when a force window closes.
        let eval_now = |g: GateId, values: &[bool], force: &[Option<bool>], initial: &[bool]| {
            if let Some(f) = force[g.index()] {
                return f;
            }
            let gate = netlist.gate(g);
            match gate.kind() {
                GateKind::Input | GateKind::Dff => initial[g.index()],
                kind => {
                    let ins: Vec<bool> = gate.inputs().iter().map(|&p| values[p.index()]).collect();
                    eval_gate_bool(kind, &ins)
                }
            }
        };

        while let Some(Reverse((t, _, s, g, ev))) = queue.pop() {
            if t > t_end {
                break;
            }
            let mut changed = false;
            match ev {
                Ev::ForceStart => {
                    force[g.index()] = Some(!values[g.index()]);
                }
                Ev::ForceEnd => {
                    force[g.index()] = None;
                }
                Ev::Update(v) => {
                    match pending[g.index()] {
                        Some((ps, _)) if ps == s => pending[g.index()] = None,
                        _ => continue, // cancelled / superseded event
                    }
                    if values[g.index()] != v {
                        values[g.index()] = v;
                        transitions.push(Transition {
                            time: t,
                            gate: g,
                            value: v,
                        });
                        changed = true;
                    }
                }
            }
            if matches!(ev, Ev::ForceStart | Ev::ForceEnd) {
                // Forced transitions apply immediately (the strike itself
                // has no gate delay).
                pending[g.index()] = None;
                let nv = eval_now(g, &values, &force, &initial);
                if values[g.index()] != nv {
                    values[g.index()] = nv;
                    transitions.push(Transition {
                        time: t,
                        gate: g,
                        value: nv,
                    });
                    changed = true;
                }
            }
            if !changed {
                continue;
            }
            for f in fanout.of(g) {
                if netlist.gate(f).kind().is_sequential() {
                    continue;
                }
                let v_new = eval_now(f, &values, &force, &initial);
                let projected = pending[f.index()]
                    .map(|(_, v)| v)
                    .unwrap_or(values[f.index()]);
                if v_new == projected {
                    continue; // already heading to that value
                }
                if pending[f.index()].is_some() {
                    // Contradicts the in-flight event: cancel it (inertial
                    // pulse filtering).
                    pending[f.index()] = None;
                    if v_new == values[f.index()] {
                        continue; // cancellation alone restores consistency
                    }
                }
                let due = t + self.delays[f.index()];
                queue.push(Reverse((due, 0, seq, f, Ev::Update(v_new))));
                pending[f.index()] = Some((seq, v_new));
                seq += 1;
            }
        }
        transitions.sort_by_key(|t| (t.time, t.gate));
        Ok(Waveform {
            initial,
            transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::NetlistBuilder;

    fn chain(n: usize) -> (rescue_netlist::Netlist, Vec<GateId>) {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let mut ids = vec![a];
        let mut prev = a;
        for _ in 0..n {
            prev = b.buf(prev);
            ids.push(prev);
        }
        b.output("y", prev);
        (b.finish(), ids)
    }

    #[test]
    fn pulse_propagates_down_chain() {
        let (net, ids) = chain(4);
        let sim = TimedSimulator::new(&net);
        let wave = sim
            .run(&net, &[false], &[SetPulse::new(ids[1], 10, 6)], 100)
            .unwrap();
        // Pulse on ids[1] at t=10 width 6 -> arrives at output (3 more bufs)
        // at t=13 with the same width.
        assert_eq!(wave.pulses_of(ids[4]), vec![(13, 6)]);
    }

    #[test]
    fn narrow_pulse_is_electrically_masked() {
        let (net, ids) = chain(3);
        // Give the second buffer a large inertial delay.
        let mut delays = vec![1u64; net.len()];
        delays[ids[2].index()] = 10;
        let sim = TimedSimulator::with_delays(&net, delays);
        let wave = sim
            .run(&net, &[false], &[SetPulse::new(ids[1], 10, 3)], 200)
            .unwrap();
        // Width-3 pulse cannot pass a 10-unit inertial stage.
        assert!(
            wave.pulses_of(ids[3]).is_empty(),
            "pulse must be filtered: {:?}",
            wave.transitions()
        );
    }

    #[test]
    fn logical_masking_blocks_pulse() {
        let mut b = NetlistBuilder::new("mask");
        let a = b.input("a");
        let en = b.input("en");
        let x = b.buf(a);
        let y = b.and(x, en);
        b.output("y", y);
        let net = b.finish();
        let sim = TimedSimulator::new(&net);
        // en=0 -> AND output is controlled; SET on x cannot pass.
        let wave = sim
            .run(&net, &[false, false], &[SetPulse::new(x, 5, 4)], 50)
            .unwrap();
        assert!(wave.pulses_of(y).is_empty());
        // en=1 -> pulse passes.
        let wave = sim
            .run(&net, &[false, true], &[SetPulse::new(x, 5, 4)], 50)
            .unwrap();
        assert_eq!(wave.pulses_of(y).len(), 1);
    }

    #[test]
    fn steady_state_matches_comb_eval() {
        let net = rescue_netlist::generate::random_logic(6, 40, 3, 5);
        let sim = TimedSimulator::new(&net);
        let ins = vec![true, false, true, true, false, true];
        let wave = sim.run(&net, &ins, &[], 10).unwrap();
        let serial = crate::comb::eval_bool(&net, &ins).unwrap();
        assert_eq!(wave.initial(), &serial[..]);
        assert!(wave.transitions().is_empty(), "no events without pulses");
    }

    #[test]
    fn value_at_follows_transitions() {
        let (net, ids) = chain(1);
        let sim = TimedSimulator::new(&net);
        let wave = sim
            .run(&net, &[false], &[SetPulse::new(ids[0], 10, 5)], 50)
            .unwrap();
        assert!(!wave.value_at(ids[0], 9));
        assert!(wave.value_at(ids[0], 10));
        assert!(wave.value_at(ids[0], 14));
        assert!(!wave.value_at(ids[0], 15));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_pulse_rejected() {
        SetPulse::new(GateId(0), 0, 0);
    }

    #[test]
    fn reconvergent_pulse_handling() {
        // x fans out to two paths of different length reconverging at XOR:
        // the pulse arrives twice, producing two output pulses.
        let mut b = NetlistBuilder::new("reconv");
        let a = b.input("a");
        let x = b.buf(a);
        let p1 = b.buf(x);
        let mut long = x;
        for _ in 0..5 {
            long = b.buf(long);
        }
        let y = b.xor(p1, long);
        b.output("y", y);
        let net = b.finish();
        let sim = TimedSimulator::new(&net);
        // Path skew (4) exceeds the pulse width (2): the pulse arrives at
        // the XOR twice with a gap and produces two output pulses.
        let wave = sim
            .run(&net, &[false], &[SetPulse::new(x, 10, 2)], 100)
            .unwrap();
        let pulses = wave.pulses_of(y);
        assert_eq!(pulses.len(), 2, "unequal path lengths split the pulse");
    }
}
