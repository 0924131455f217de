//! The critical-path-tracing / cone-walk hybrid is bit-identical to the
//! full-resimulation oracle.
//!
//! [`TracePlan::detect_traced`] replaces the per-site event-driven walk
//! with backward sensitization ANDs over fanout-free regions, keeping the
//! walk only at reconvergent stems. These tests pin down that the hybrid
//! is **exact**: detection words equal the [`ReferenceFaultSimulator`]
//! masks lane-for-lane at every supported width (including ragged
//! tails), and a full `campaign_packed` with tracing enabled reproduces
//! the oracle campaign's `first_detection` vector for every schedule,
//! worker count and collapse setting. A hand-built reconvergent circuit
//! asserts the stem fallback actually fires, and an unplanned site
//! surfaces the typed [`FaultError::UnplannedSite`] instead of a panic.

use proptest::prelude::*;
use rescue_campaign::{Campaign, Schedule};
use rescue_faults::collapse::collapse;
use rescue_faults::engine::{CampaignPlan, FaultScratch};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::trace::{NetClass, TracePlan, TraceScratch};
use rescue_faults::{universe, Fault, FaultError, FaultSite};
use rescue_netlist::{generate, Netlist, NetlistBuilder};
use rescue_sim::wide::{pack_patterns_wide, PackedWord, SimWord};

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

/// The oracle's verdict for `fault` on every pattern of `chunk`, by full
/// resimulation of each 64-pattern sub-word.
fn oracle_lanes(
    oracle: &ReferenceFaultSimulator,
    net: &Netlist,
    chunk: &[Vec<bool>],
    fault: Fault,
) -> Vec<bool> {
    chunk
        .chunks(64)
        .flat_map(|sub| {
            let words = pack_patterns_wide::<u64>(sub);
            let golden = oracle.golden(net, &words);
            let mask = oracle.detection_mask(net, &words, &golden, fault);
            (0..sub.len()).map(move |bit| mask >> bit & 1 == 1)
        })
        .collect()
}

/// Per-word hybrid detection masks agree lane-for-lane with the oracle
/// run on the matching 64-pattern sub-chunks, including the ragged tail
/// (the 300-pattern workload is 1×256 + 44 at W=4).
fn traced_masks_match_scalar<Wd: SimWord>(seed: u64) {
    let net = generate::random_logic(7, 90, 4, seed);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(7, 300, seed);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let tplan = TracePlan::build(c, &faults);
    let oracle = ReferenceFaultSimulator::new(&net);
    let mut traced = TraceScratch::<Wd>::new(c.len());
    for chunk in patterns.chunks(Wd::LANES) {
        let words = pack_patterns_wide::<Wd>(chunk);
        let mut golden = Vec::new();
        c.eval_words_into(&words, &mut golden).unwrap();
        traced.load_golden(&golden);
        let live = Wd::live_mask(chunk.len());
        for &fault in &faults {
            let mask = tplan.detect_traced(c, &golden, &mut traced, fault).unwrap() & live;
            for (lane, want) in oracle_lanes(&oracle, &net, chunk, fault)
                .into_iter()
                .enumerate()
            {
                assert_eq!(mask.lane(lane), want, "{fault}, lane {lane}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn traced_masks_match_scalar_w1(seed in 1u64..200) {
        traced_masks_match_scalar::<u64>(seed);
    }

    #[test]
    fn traced_masks_match_scalar_w2(seed in 1u64..200) {
        traced_masks_match_scalar::<PackedWord<2>>(seed);
    }

    #[test]
    fn traced_masks_match_scalar_w4(seed in 1u64..200) {
        traced_masks_match_scalar::<PackedWord<4>>(seed);
    }

    #[test]
    fn traced_masks_match_scalar_w8(seed in 1u64..200) {
        traced_masks_match_scalar::<PackedWord<8>>(seed);
    }

    /// The full tracing campaign — fault dropping, any width, any
    /// schedule and worker count, collapse on or off — produces the same
    /// `first_detection` vector as the oracle's dropping campaign.
    #[test]
    fn traced_campaign_matches_scalar_any_schedule(seed in 1u64..200) {
        let net = generate::random_logic(8, 110, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(8, 180, seed);
        let sim = FaultSimulator::new(&net);
        let scalar = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        let collapsed = collapse(&net, &faults);
        for lane_width in [1usize, 2, 4, 8] {
            for workers in [1usize, 3] {
                for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 7 }] {
                    for collapse_on in [false, true] {
                        let mut opts = PackedOptions::wide(lane_width).traced();
                        if collapse_on {
                            opts = opts.with_collapsed(&collapsed);
                        }
                        let run = sim.campaign_packed(
                            &faults,
                            &patterns,
                            &Campaign::new(0, workers).with_schedule(schedule),
                            opts,
                        );
                        prop_assert_eq!(
                            run.report.first_detection(),
                            scalar.first_detection(),
                            "W = {}, workers = {}, schedule = {:?}, collapse = {}",
                            lane_width, workers, schedule, collapse_on
                        );
                        prop_assert!(run.stats.traced_fraction().is_finite());
                    }
                }
            }
        }
    }
}

/// A hand-built reconvergent region: `g2` fans out to two branches that
/// re-meet at the XOR, so tracing through it would be inexact — the
/// hybrid must classify it as a stem and take the event-driven fallback,
/// and still match the oracle exactly.
#[test]
fn reconvergent_stem_takes_fallback_walk() {
    let mut b = NetlistBuilder::new("reconv");
    let a = b.input("a");
    let bb = b.input("b");
    let g1 = b.not(a); // single fanout: a chain net below the stem
    let g2 = b.and(g1, bb); // stem: two combinational consumers
    let g3 = b.not(g2);
    let g4 = b.and(g2, bb);
    let g5 = b.xor(g3, g4); // reconvergence
    b.output("y", g5);
    let net = b.finish();
    let faults = universe::stuck_at_universe(&net);
    let patterns: Vec<Vec<bool>> = (0..4u32)
        .map(|p| (0..2).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let tplan = TracePlan::build(c, &faults);
    assert_eq!(tplan.class_of(g2.index()), NetClass::Stem);
    assert_eq!(
        tplan.class_of(g1.index()),
        NetClass::Chain {
            consumer: g2.index() as u32,
            pin: 0
        }
    );
    assert!(tplan.stems() >= 1, "the fault list must reach the stem");

    let oracle = ReferenceFaultSimulator::new(&net);
    let mut traced = TraceScratch::<u64>::new(c.len());
    let words = pack_patterns_wide::<u64>(&patterns);
    let mut golden = Vec::new();
    c.eval_words_into(&words, &mut golden).unwrap();
    traced.load_golden(&golden);
    let live = u64::live_mask(patterns.len());
    for &fault in &faults {
        assert_eq!(
            tplan.detect_traced(c, &golden, &mut traced, fault).unwrap() & live,
            oracle.detection_mask(&net, &words, &golden, fault) & live,
            "{fault}"
        );
    }
    assert!(
        traced.inner.counters.stem_fallbacks > 0,
        "reconvergent stem must be resolved by the fallback walk"
    );
    assert!(
        traced.inner.counters.traced_nets > 0,
        "chain nets below the stem must be resolved by tracing"
    );
}

/// A fault outside the plan's build list surfaces the typed error — for
/// both the tracing front-end and the walking engine — instead of the
/// old `unwrap` panic.
#[test]
fn unplanned_site_is_a_typed_error() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let planned = vec![universe::stuck_at_universe(&net)[0]];
    let tplan = TracePlan::build(c, &planned);
    let plan = CampaignPlan::build(c, &planned);
    // A site that is not a fault root of the singleton plan.
    let unplanned = *universe::stuck_at_universe(&net)
        .iter()
        .find(|f| !tplan.planned(f.site().gate().index()))
        .expect("c17 has more sites than the singleton plan");
    let gate = unplanned.site().gate().index();
    let patterns: Vec<Vec<bool>> = (0..8u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let words = pack_patterns_wide::<u64>(&patterns);
    let mut golden = Vec::new();
    c.eval_words_into(&words, &mut golden).unwrap();
    let mut traced = TraceScratch::<u64>::new(c.len());
    traced.load_golden(&golden);
    assert_eq!(
        tplan.detect_traced(c, &golden, &mut traced, unplanned),
        Err(FaultError::UnplannedSite { gate })
    );
    let mut scratch = FaultScratch::new(c.len());
    scratch.load_golden(&golden);
    assert_eq!(
        plan.detect_packed(c, &golden, &mut scratch, unplanned),
        Err(FaultError::UnplannedSite { gate })
    );
}

/// An empty fault universe through the tracing campaign keeps every
/// stats accessor finite (the NaN guard the throughput table and BENCH
/// JSONs rely on).
#[test]
fn empty_universe_stats_stay_finite() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    let patterns: Vec<Vec<bool>> = (0..8u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let run = sim.campaign_packed(
        &[],
        &patterns,
        &Campaign::serial(),
        PackedOptions::wide(4).traced(),
    );
    assert_eq!(run.report.detected_count(), 0);
    for v in [
        run.stats.traced_fraction(),
        run.stats.collapse_ratio(),
        run.stats.injections_per_sec(),
        run.stats.lane_occupancy(),
        run.stats.worker_utilization(),
    ] {
        assert!(v.is_finite(), "stats must never leak NaN/inf");
    }
}

/// `detect_traced` also rejects pin faults whose owning gate is
/// unplanned, and handles pin faults identically to the oracle when
/// planned (excitation at the owning gate's output).
#[test]
fn pin_faults_trace_like_the_oracle() {
    let net = generate::c17();
    let faults: Vec<Fault> = universe::stuck_at_universe(&net)
        .into_iter()
        .filter(|f| matches!(f.site(), FaultSite::Pin { .. }))
        .collect();
    assert!(!faults.is_empty(), "c17 has multi-input gates");
    let patterns = random_patterns(5, 32, 3);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let tplan = TracePlan::build(c, &faults);
    let oracle = ReferenceFaultSimulator::new(&net);
    let mut traced = TraceScratch::<PackedWord<2>>::new(c.len());
    for chunk in patterns.chunks(128) {
        let words = pack_patterns_wide::<PackedWord<2>>(chunk);
        let mut golden = Vec::new();
        c.eval_words_into(&words, &mut golden).unwrap();
        traced.load_golden(&golden);
        let live = PackedWord::<2>::live_mask(chunk.len());
        for &fault in &faults {
            let mask = tplan.detect_traced(c, &golden, &mut traced, fault).unwrap() & live;
            for (lane, want) in oracle_lanes(&oracle, &net, chunk, fault)
                .into_iter()
                .enumerate()
            {
                assert_eq!(mask.lane(lane), want, "{fault}");
            }
        }
    }
}
