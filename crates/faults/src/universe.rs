//! Fault-universe generation.

use crate::model::{BridgingFault, Fault, FaultSite};
use rescue_netlist::{GateKind, Netlist};

/// The complete single-stuck-at universe: `sa0`/`sa1` on every gate output
/// plus every input pin of multi-input gates.
///
/// Constants are excluded (a stuck constant is either redundant or the
/// same constant), as are output faults on primary-input gates' pins
/// (inputs have no pins). Runs under a `faults.universe` span.
///
/// # Examples
///
/// ```
/// use rescue_faults::universe::stuck_at_universe;
/// use rescue_netlist::generate;
///
/// let c17 = generate::c17();
/// let faults = stuck_at_universe(&c17);
/// // 11 gates: 5 PIs + 6 NANDs; outputs: 11*2 = 22, pins: 6 gates * 2 pins * 2 = 24.
/// assert_eq!(faults.len(), 46);
/// ```
pub fn stuck_at_universe(netlist: &Netlist) -> Vec<Fault> {
    let _span = rescue_telemetry::span!("faults.universe", gates = netlist.len());
    let is_const = |k: GateKind| matches!(k, GateKind::Const0 | GateKind::Const1);
    // Sized exactly up front: at a million gates the list is millions of
    // faults, and growing it by doubling would copy it and overshoot.
    let len: usize = netlist
        .iter()
        .filter(|(_, g)| !is_const(g.kind()))
        .map(|(_, g)| {
            2 + if g.inputs().len() >= 2 {
                2 * g.inputs().len()
            } else {
                0
            }
        })
        .sum();
    let mut faults = Vec::with_capacity(len);
    for (id, g) in netlist.iter() {
        if is_const(g.kind()) {
            continue;
        }
        faults.push(Fault::stuck_at(FaultSite::Output(id), false));
        faults.push(Fault::stuck_at(FaultSite::Output(id), true));
        // Pin faults only where they can differ from the driver's output
        // fault, i.e. gates with >= 2 inputs (branches of fanout stems are
        // captured by pins of the sink gates).
        if g.inputs().len() >= 2 {
            for pin in 0..g.inputs().len() {
                faults.push(Fault::stuck_at(FaultSite::Pin { gate: id, pin }, false));
                faults.push(Fault::stuck_at(FaultSite::Pin { gate: id, pin }, true));
            }
        }
    }
    debug_assert_eq!(faults.len(), len);
    faults
}

/// [`stuck_at_universe`] restricted to sites whose combinational fanout
/// cone reaches a primary output.
///
/// The packed campaign front-ends prune unobservable sites on their own,
/// but on big-circuit workloads with few outputs the full universe can be
/// 50x the relevant one (e.g. the 50k-gate e17 rung: 300k faults, ~6k
/// observable) — generating the observable universe up front keeps fault
/// lists, collapse maps and reports proportional to the faults that can
/// ever be detected. Coverage figures over this universe follow the
/// standard testability convention of excluding structurally undetectable
/// faults.
pub fn stuck_at_universe_observable(netlist: &Netlist) -> Vec<Fault> {
    let observable: std::collections::HashSet<usize> =
        rescue_netlist::cone::observable_set(netlist)
            .into_iter()
            .map(|g| g.index())
            .collect();
    stuck_at_universe(netlist)
        .into_iter()
        .filter(|f| observable.contains(&f.site().gate().index()))
        .collect()
}

/// Transition-delay universe: slow-to-rise / slow-to-fall on every gate
/// output (pins omitted; transition tests target nets).
pub fn transition_universe(netlist: &Netlist) -> Vec<Fault> {
    use crate::model::FaultKind;
    let mut faults = Vec::new();
    for (id, g) in netlist.iter() {
        match g.kind() {
            GateKind::Const0 | GateKind::Const1 => continue,
            _ => {}
        }
        faults.push(Fault::new(FaultSite::Output(id), FaultKind::SlowToRise));
        faults.push(Fault::new(FaultSite::Output(id), FaultKind::SlowToFall));
    }
    faults
}

/// Enumerates candidate bridging faults between nets that are physically
/// plausible neighbours. Without layout data we use the standard academic
/// proxy: nets whose driving gates are within `window` positions of each
/// other in the levelized order (same neighbourhood of the design).
pub fn bridging_universe(netlist: &Netlist, window: usize) -> Vec<BridgingFault> {
    let order = netlist.levelize().order().to_vec();
    let mut faults = Vec::new();
    for (i, &a) in order.iter().enumerate() {
        for &b in order.iter().skip(i + 1).take(window) {
            if netlist.gate(a).kind() == GateKind::Dff || netlist.gate(b).kind() == GateKind::Dff {
                continue;
            }
            faults.push(BridgingFault {
                a,
                b,
                wired_and: true,
            });
            faults.push(BridgingFault {
                a,
                b,
                wired_and: false,
            });
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn universe_counts() {
        let c = generate::c17();
        assert_eq!(stuck_at_universe(&c).len(), 46);
        assert_eq!(transition_universe(&c).len(), 22);
    }

    #[test]
    fn constants_excluded() {
        let mut b = rescue_netlist::NetlistBuilder::new("k");
        let a = b.input("a");
        let k = b.const1();
        let y = b.and(a, k);
        b.output("y", y);
        let n = b.finish();
        let fs = stuck_at_universe(&n);
        assert!(fs
            .iter()
            .all(|f| f.site().gate() != k || matches!(f.site(), FaultSite::Pin { .. })));
    }

    #[test]
    fn observable_universe_drops_only_undetectable_faults() {
        // c17: every gate reaches an output, nothing to drop.
        let c = generate::c17();
        assert_eq!(
            stuck_at_universe_observable(&c).len(),
            stuck_at_universe(&c).len()
        );
        // Random logic with few outputs has large dead regions; the
        // observable universe must be a strict subset that still covers
        // every detectable fault.
        let net = generate::random_logic(8, 200, 2, 7);
        let full = stuck_at_universe(&net);
        let obs = stuck_at_universe_observable(&net);
        assert!(obs.len() < full.len(), "dead regions should be dropped");
        let patterns: Vec<Vec<bool>> = (0..64u32)
            .map(|p| (0..8).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let sim = crate::simulate::FaultSimulator::new(&net);
        let detected_full: Vec<Fault> = {
            let r = sim.campaign(&full, &patterns);
            full.iter()
                .zip(r.first_detection())
                .filter(|(_, d)| d.is_some())
                .map(|(&f, _)| f)
                .collect()
        };
        let r = sim.campaign(&obs, &patterns);
        let detected_obs: Vec<Fault> = obs
            .iter()
            .zip(r.first_detection())
            .filter(|(_, d)| d.is_some())
            .map(|(&f, _)| f)
            .collect();
        assert_eq!(detected_full, detected_obs);
    }

    #[test]
    fn bridging_window() {
        let c = generate::c17();
        let bf = bridging_universe(&c, 2);
        assert!(!bf.is_empty());
        // Each (ordered) neighbour pair gets an AND and an OR bridge.
        assert_eq!(bf.len() % 2, 0);
    }
}
