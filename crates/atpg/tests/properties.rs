//! Property-based tests for ATPG: every PODEM test really detects its
//! fault, and untestable claims agree with exhaustive simulation.

use proptest::prelude::*;
use rescue_atpg::podem::{Podem, PodemOutcome};
use rescue_atpg::scoap::{Cop, Scoap};
use rescue_faults::{simulate::FaultSimulator, universe};
use rescue_netlist::generate;
use rescue_sim::parallel::pack_patterns;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PODEM soundness: generated cubes detect their faults; untestable
    /// verdicts agree with exhaustive fault simulation (small circuits).
    #[test]
    fn podem_sound_and_complete(seed in 1u64..120) {
        let net = generate::random_logic(6, 30, 3, seed);
        let podem = Podem::new(&net);
        let sim = FaultSimulator::new(&net);
        let exhaustive: Vec<Vec<bool>> = (0..64u32)
            .map(|p| (0..6).map(|i| p >> i & 1 == 1).collect())
            .collect();
        for f in universe::stuck_at_universe(&net) {
            match podem.generate(&net, f) {
                PodemOutcome::Test(cube) => {
                    let pattern = cube.fill_with(false);
                    let words = pack_patterns(std::slice::from_ref(&pattern));
                    let golden = sim.golden(&words);
                    prop_assert_eq!(
                        sim.detection_mask(&golden, f) & 1, 1,
                        "cube misses fault {}", f
                    );
                }
                PodemOutcome::Untestable => {
                    let report = sim.campaign(&[f], &exhaustive);
                    prop_assert_eq!(
                        report.detected_count(), 0,
                        "PODEM called {} untestable but a pattern detects it", f
                    );
                }
                PodemOutcome::Aborted => {} // allowed, not a soundness issue
            }
        }
    }

    /// SCOAP costs are finite exactly for lines that reach an output.
    #[test]
    fn scoap_finiteness_matches_observability(seed in 1u64..120) {
        let net = generate::random_logic(6, 40, 2, seed);
        let scoap = Scoap::analyze(&net);
        let obs = rescue_netlist::cone::observable_set(&net);
        for id in net.ids() {
            let observable = obs.contains(&id);
            let finite = scoap.co(id) < rescue_atpg::scoap::SCOAP_INF;
            prop_assert_eq!(observable, finite, "gate {}", id);
        }
    }

    /// COP probabilities stay in [0,1] and match exact signal probability
    /// on small circuits with independent (fanout-free) paths.
    #[test]
    fn cop_bounds(seed in 1u64..120) {
        let net = generate::random_logic(5, 25, 2, seed);
        let cop = Cop::analyze(&net);
        for id in net.ids() {
            let p = cop.p_one(id);
            prop_assert!((0.0..=1.0).contains(&p));
            let po = cop.p_observe(id);
            prop_assert!((0.0..=1.0).contains(&po));
        }
    }
}

#[test]
fn cop_exact_on_tree() {
    // A fanout-free tree: COP signal probabilities are exact. Verify by
    // exhaustive enumeration.
    let net = generate::parity(8);
    let cop = Cop::analyze(&net);
    let out = net.output_ids()[0];
    let mut ones = 0usize;
    for p in 0u32..256 {
        let ins: Vec<bool> = (0..8).map(|i| p >> i & 1 == 1).collect();
        let v = rescue_sim::comb::eval_bool(&net, &ins).unwrap();
        if v[out.index()] {
            ones += 1;
        }
    }
    let exact = ones as f64 / 256.0;
    assert!((cop.p_one(out) - exact).abs() < 1e-9);
}
