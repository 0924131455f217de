//! Parallel collapse must be invisible: the sharded rule pass yields the
//! same representatives and the same per-fault mapping as the serial
//! one.
//!
//! These properties are the correctness argument for sharding the
//! million-gate collapse — the benchmarks only measure speed because
//! this suite pins equivalence.

use proptest::prelude::*;
use rescue_faults::{collapse, universe, Fault, FaultSite};
use rescue_netlist::{generate, GateId, Netlist};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded collapse produces the same representatives and the same
    /// per-fault representative mapping as the serial rule pass, and the
    /// representative list is exactly the faults that represent
    /// themselves, sorted and deduplicated. The universe mixes in
    /// duplicates, transition faults and faults outside the design.
    #[test]
    fn parallel_collapse_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let faults = mixed_universe(&net, seed);
        let serial = collapse::collapse(&net, &faults);
        let parallel = collapse::collapse_with(&net, &faults, workers);
        prop_assert_eq!(serial.representatives(), parallel.representatives());
        for &f in &faults {
            prop_assert_eq!(serial.representative(f), parallel.representative(f));
        }
        let mut spec: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| serial.representative(f) == f)
            .collect();
        spec.sort();
        spec.dedup();
        prop_assert_eq!(serial.representatives(), &spec[..]);
    }
}

/// The stuck-at universe of `net`, then its transition universe, then a
/// seeded third of the stuck-at faults again, then faults outside the
/// design: an output past the last gate, a pin past the last gate's
/// arity and a pin on a primary input.
fn mixed_universe(net: &Netlist, seed: u64) -> Vec<Fault> {
    let stuck = universe::stuck_at_universe(net);
    let mut faults = stuck.clone();
    faults.extend(universe::transition_universe(net));
    faults.extend(stuck.iter().skip(seed as usize % 3).step_by(3));
    let last = GateId(net.len() - 1);
    let pin = |gate, pin| FaultSite::Pin { gate, pin };
    let outside = [
        FaultSite::Output(GateId(net.len() + 2)),
        pin(last, net.gate(last).inputs().len()),
        pin(GateId(0), 0),
    ];
    for site in outside {
        faults.extend([false, true].map(|value| Fault::stuck_at(site, value)));
    }
    faults
}

/// The small-design proptest above stays under the collapse's
/// serial-fallback threshold; this one design is big enough to force
/// the sharded rule pass.
#[test]
fn parallel_paths_engage_above_thresholds() {
    let net = generate::random_logic(24, 40_000, 8, 11);
    let faults = universe::stuck_at_universe(&net);
    assert!(
        faults.len() > 1 << 14,
        "universe must cross the collapse threshold"
    );
    let serial = collapse::collapse(&net, &faults);
    let parallel = collapse::collapse_with(&net, &faults, 4);
    assert_eq!(serial.representatives(), parallel.representatives());
    let mixed = mixed_universe(&net, 11);
    assert_eq!(
        collapse::collapse(&net, &mixed).representatives(),
        collapse::collapse_with(&net, &mixed, 4).representatives()
    );
}
