//! Equivalence of the compiled fault simulator against the
//! full-resimulation reference oracle.
//!
//! The compiled fault simulator ([`FaultSimulator`]) must produce
//! **bit-identical** verdicts to [`ReferenceFaultSimulator`] — same
//! `first_detection` vector, same detection masks, same faulty values —
//! for every campaign kind: output stuck-at, pin stuck-at, bridging,
//! transition pairs (packed 64 per word) and sequential stuck-at. The
//! parallel campaign must match the oracle for any worker count.

use proptest::prelude::*;
use rescue_campaign::{Campaign, MemStore};
use rescue_faults::model::BridgingFault;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::{collapse, universe, Fault, FaultSite};
use rescue_netlist::{generate, GateId};
use rescue_sim::parallel::pack_patterns;

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1) ^ 0x5851_f42d_4c95_7f2d;
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s & 1 == 1
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full stuck-at universes (output + pin faults) over random logic:
    /// identical first-detection vectors, serial new vs serial reference.
    #[test]
    fn stuck_at_campaign_matches_reference(seed in 1u64..500) {
        let net = generate::random_logic(7, 90, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(7, 150, seed);
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        let a = fast.campaign(&faults, &patterns);
        let b = slow.campaign(&net, &faults, &patterns);
        prop_assert_eq!(a.first_detection(), b.first_detection());
        prop_assert_eq!(a.patterns(), b.patterns());
    }

    /// Per-fault detection masks agree on every chunk, including partial
    /// last chunks, for both output and pin sites.
    #[test]
    fn detection_masks_match_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 60, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        // 37 patterns: exercises the partial-chunk path downstream.
        let patterns = random_patterns(6, 37, seed);
        let words = pack_patterns(&patterns);
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        let golden = fast.golden(&words);
        prop_assert_eq!(&golden, &slow.golden(&net, &words));
        for &fault in &faults {
            prop_assert_eq!(
                fast.detection_mask(&golden, fault),
                slow.detection_mask(&net, &words, &golden, fault),
                "{}", fault
            );
        }
    }

    /// Faulty value vectors agree gate-for-gate (not just at outputs) for
    /// stuck-at faults on outputs and pins.
    #[test]
    fn with_stuck_matches_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let words = pack_patterns(&random_patterns(6, 64, seed));
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        for &fault in faults.iter().take(60) {
            prop_assert_eq!(
                fast.with_stuck(&words, fault),
                slow.with_stuck(&net, &words, fault),
                "{}", fault
            );
        }
    }

    /// Bridging-fault evaluation agrees gate-for-gate.
    #[test]
    fn bridging_matches_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 50, 3, seed);
        let bridges = universe::bridging_universe(&net, 4);
        let words = pack_patterns(&random_patterns(6, 64, seed));
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        for &bridge in bridges.iter().take(40) {
            prop_assert_eq!(
                fast.with_bridge(&words, bridge),
                slow.with_bridge(&net, &words, bridge)
            );
        }
        // Both wired-AND and wired-OR polarities on a fixed pair.
        if let (Some(a), Some(b)) = (net.ids().nth(6), net.ids().nth(9)) {
            for wired_and in [true, false] {
                let br = BridgingFault { a, b, wired_and };
                prop_assert_eq!(
                    fast.with_bridge(&words, br),
                    slow.with_bridge(&net, &words, br)
                );
            }
        }
    }

    /// Transition-delay campaigns over pattern pairs agree, for pattern
    /// counts on both sides of a 64-pair word (ragged last word included).
    #[test]
    fn transition_campaign_matches_reference(seed in 1u64..500, n_patterns in 1usize..200) {
        let net = generate::random_logic(6, 70, 3, seed);
        let faults = universe::transition_universe(&net);
        let patterns = random_patterns(6, n_patterns, seed);
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        let a = fast.transition_campaign(&faults, &patterns);
        let b = slow.transition_campaign(&net, &faults, &patterns);
        prop_assert_eq!(a.first_detection(), b.first_detection());
    }

    /// Sequential campaigns agree on state-holding designs (LFSR) and on
    /// purely combinational ones.
    #[test]
    fn sequential_campaign_matches_reference(seed in 1u64..200) {
        let lfsr = generate::lfsr(5, &[4, 2]);
        let faults = universe::stuck_at_universe(&lfsr);
        let stimuli: Vec<Vec<bool>> = (0..12).map(|_| vec![]).collect();
        let fast = FaultSimulator::new(&lfsr);
        let slow = ReferenceFaultSimulator::new(&lfsr);
        let a = fast.campaign_seq(&faults, &stimuli);
        let b = slow.campaign_seq(&lfsr, &faults, &stimuli);
        prop_assert_eq!(a.first_detection(), b.first_detection());

        let comb = generate::random_logic(5, 40, 2, seed);
        let cf = universe::stuck_at_universe(&comb);
        let stim = random_patterns(5, 10, seed);
        let a = FaultSimulator::new(&comb).campaign_seq(&cf, &stim);
        let b = ReferenceFaultSimulator::new(&comb).campaign_seq(&comb, &cf, &stim);
        prop_assert_eq!(a.first_detection(), b.first_detection());
    }

    /// The parallel campaign is verdict-identical to the oracle's serial
    /// campaign for 1, 2, 4 and 8 workers.
    #[test]
    fn parallel_matches_serial_any_thread_count(seed in 1u64..300) {
        let net = generate::random_logic(8, 110, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(8, 180, seed);
        let sim = FaultSimulator::new(&net);
        let serial = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        for threads in [1usize, 2, 4, 8] {
            let par = sim.campaign_packed(
                &faults,
                &patterns,
                &Campaign::new(0, threads),
                PackedOptions::default(),
            );
            prop_assert_eq!(
                par.report.first_detection(),
                serial.first_detection(),
                "threads = {}", threads
            );
        }
    }
}

/// Shift-register fault visible only through several cycles of state:
/// both engines agree on the exact detection cycle.
#[test]
fn shift_register_seq_equivalence() {
    let s = generate::shift_register(4);
    let sin = s.primary_inputs()[0];
    let faults = vec![
        Fault::stuck_at(FaultSite::Output(sin), false),
        Fault::stuck_at(FaultSite::Output(sin), true),
    ];
    let stim: Vec<Vec<bool>> = (0..10).map(|c| vec![c % 2 == 0]).collect();
    let a = FaultSimulator::new(&s).campaign_seq(&faults, &stim);
    let b = ReferenceFaultSimulator::new(&s).campaign_seq(&s, &faults, &stim);
    assert_eq!(a.first_detection(), b.first_detection());
}

/// Exhaustive c17 agreement — every fault, every pattern, no sampling.
#[test]
fn c17_exhaustive_equivalence() {
    let c = generate::c17();
    let faults = universe::stuck_at_universe(&c);
    let patterns: Vec<Vec<bool>> = (0..32u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let a = FaultSimulator::new(&c).campaign(&faults, &patterns);
    let b = ReferenceFaultSimulator::new(&c).campaign(&c, &faults, &patterns);
    assert_eq!(a.first_detection(), b.first_detection());
    assert_eq!(a.coverage(), 1.0);
}

/// Faults outside the design — a gate past the end, a pin past its
/// gate's arity — are graded, not panicked on: the oracle and the packed
/// engine read them as never detected at W ∈ {1, 4}, with and without
/// collapsing and tracing, on the plain and the durable path (cold and
/// resubmitted), and every other verdict stays the oracle's.
#[test]
fn faults_outside_the_design_are_never_detected() {
    let designs = [
        (generate::c17(), 5),
        (generate::random_logic(7, 90, 4, 3), 7),
    ];
    for (net, n_inputs) in designs {
        let n = net.len();
        let wide = net
            .ids()
            .find(|&g| net.gate(g).inputs().len() >= 2)
            .expect("a multi-input gate");
        let arity = net.gate(wide).inputs().len();
        let pin = |gate, pin, value| Fault::stuck_at(FaultSite::Pin { gate, pin }, value);
        let outside = [
            Fault::stuck_at(FaultSite::Output(GateId(n)), false),
            Fault::stuck_at(FaultSite::Output(GateId(n + 7)), true),
            pin(GateId(n), 0, true),
            pin(wide, arity, false),
            pin(wide, arity + 3, true),
        ];
        // Outside faults at the front, in the middle and at the end.
        let mut faults = universe::stuck_at_universe(&net);
        for (k, &f) in outside.iter().enumerate() {
            faults.insert(k * faults.len() / (outside.len() - 1), f);
        }
        let at: Vec<usize> = outside
            .iter()
            .map(|o| faults.iter().position(|f| f == o).unwrap())
            .collect();
        let patterns = random_patterns(n_inputs, 150, n as u64);
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        assert!(oracle.detected_count() > 0, "{}", net.name());
        for &k in &at {
            assert_eq!(oracle.first_detection()[k], None, "oracle: {}", faults[k]);
        }
        let sim = FaultSimulator::new(&net);
        let collapsed = collapse::collapse(&net, &faults);
        let campaign = Campaign::new(0, 2);
        for lane_width in [1, 4] {
            for collapse in [false, true] {
                for tracing in [false, true] {
                    let mut opts = PackedOptions::wide(lane_width);
                    if collapse {
                        opts = opts.with_collapsed(&collapsed);
                    }
                    if tracing {
                        opts = opts.traced();
                    }
                    let cell = format!("{} W={lane_width} {collapse} {tracing}", net.name());
                    let store = MemStore::new();
                    let reports = [
                        sim.campaign_packed(&faults, &patterns, &campaign, opts),
                        sim.campaign_packed_durable(
                            &faults, &patterns, &campaign, opts, &store, 16,
                        ),
                        sim.campaign_packed_durable(
                            &faults, &patterns, &campaign, opts, &store, 16,
                        ),
                    ]
                    .map(|run| run.report);
                    for (path, report) in ["plain", "durable", "resumed"].iter().zip(&reports) {
                        assert_eq!(report, &oracle, "{cell} {path}");
                        for &k in &at {
                            assert_eq!(report.first_detection()[k], None, "{cell} {path}");
                        }
                    }
                }
            }
        }
    }
}
