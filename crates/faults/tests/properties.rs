//! Property-based tests for fault simulation invariants.

mod common;

use common::random_patterns_unmixed;
use proptest::prelude::*;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::{collapse, sample, simulate::FaultSimulator, universe, Fault, FaultSite};
use rescue_netlist::generate;
use rescue_sim::parallel::pack_patterns;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A faulty simulation with the fault site forced to the golden value
    /// is identical to the golden simulation (fault activation required).
    #[test]
    fn inactive_fault_is_invisible(seed in 1u64..300) {
        let net = generate::random_logic(6, 40, 3, seed);
        let sim = FaultSimulator::new(&net);
        let pats = random_patterns_unmixed(6, 16, seed);
        let words = pack_patterns(&pats);
        let golden = sim.golden(&words);
        for id in net.ids().take(20) {
            if net.gate(id).kind() == rescue_netlist::GateKind::Dff { continue; }
            let gval = golden[id.index()];
            // stuck-at the value the gate already has on pattern 0
            let v = gval & 1 == 1;
            let f = Fault::stuck_at(FaultSite::Output(id), v);
            let faulty = sim.with_stuck(&words, f);
            // pattern 0: no difference anywhere can originate at the site
            for (_, g) in net.primary_outputs() {
                let diff = (golden[g.index()] ^ faulty[g.index()]) & 1;
                // The fault forces the site to its own value on pattern 0,
                // so outputs must match on that pattern.
                prop_assert_eq!(diff, 0);
            }
        }
    }

    /// Detection is monotone in the pattern set: adding patterns never
    /// lowers coverage.
    #[test]
    fn coverage_monotone(seed in 1u64..200) {
        let net = generate::random_logic(5, 30, 2, seed);
        let faults = universe::stuck_at_universe(&net);
        let sim = FaultSimulator::new(&net);
        let pats = random_patterns_unmixed(5, 48, seed);
        let r_small = sim.campaign(&faults, &pats[..16]);
        let r_large = sim.campaign(&faults, &pats);
        prop_assert!(r_large.coverage() >= r_small.coverage());
    }

    /// Collapsing never changes total detectability: the representative
    /// set achieves the same coverage as the full set on the same patterns.
    #[test]
    fn collapse_preserves_coverage(seed in 1u64..150) {
        let net = generate::random_logic(5, 25, 2, seed);
        let faults = universe::stuck_at_universe(&net);
        let coll = collapse::collapse(&net, &faults);
        let sim = FaultSimulator::new(&net);
        let pats: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let r_full = sim.campaign(&faults, &pats);
        let r_coll = sim.campaign(coll.representatives(), &pats);
        // Coverage over representatives equals coverage over all faults
        // (every original fault is detected iff its representative is).
        let full_undetected: std::collections::HashSet<_> = r_full
            .undetected()
            .into_iter()
            .map(|f| coll.representative(f))
            .collect();
        let coll_undetected: std::collections::HashSet<_> =
            r_coll.undetected().into_iter().collect();
        prop_assert_eq!(full_undetected, coll_undetected);
    }

    /// Sample size is monotone: bigger populations, tighter margins and
    /// higher confidence all demand more samples.
    #[test]
    fn sample_size_monotone(pop in 1000usize..2_000_000, e in 0.005f64..0.2) {
        use sample::{sample_size, Confidence};
        let n = sample_size(pop, e, Confidence::C95, 0.5).unwrap();
        let n_tighter = sample_size(pop, e / 2.0, Confidence::C95, 0.5).unwrap();
        prop_assert!(n_tighter >= n);
        let n_bigger = sample_size(pop * 2, e, Confidence::C95, 0.5).unwrap();
        prop_assert!(n_bigger >= n);
        prop_assert!(n <= pop);
    }
}

#[test]
fn campaign_first_detection_is_minimal() {
    // The reported first-detection index must truly be the first pattern
    // that detects the fault.
    let net = generate::c17();
    let faults = universe::stuck_at_universe(&net);
    let sim = FaultSimulator::new(&net);
    let pats: Vec<Vec<bool>> = (0..32u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let oracle = ReferenceFaultSimulator::new(&net);
    let report = sim.campaign(&faults, &pats);
    for (fi, det) in report.first_detection().iter().enumerate() {
        if let Some(first) = det {
            for (pi, pat) in pats.iter().enumerate().take(*first + 1) {
                let words = pack_patterns(std::slice::from_ref(pat));
                let golden = oracle.golden(&net, &words);
                let mask = oracle.detection_mask(&net, &words, &golden, faults[fi]) & 1;
                if pi < *first {
                    assert_eq!(mask, 0, "fault {fi} detected earlier than reported");
                } else {
                    assert_eq!(mask, 1, "fault {fi} not detected at reported index");
                }
            }
        }
    }
}
