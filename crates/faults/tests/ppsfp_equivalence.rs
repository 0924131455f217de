//! Equivalence of the PPSFP packed observability path against the
//! full-resimulation oracle, and of the work-stealing scheduler against
//! the static sharded driver.
//!
//! [`CampaignPlan::detect_packed`] factors detection into one
//! observability walk per (site, 64-pattern word) shared by every fault
//! at that site; these tests pin down that the factoring is **exact** —
//! identical detection masks per word, identical `first_detection`
//! vectors with and without fault dropping, for every worker count,
//! schedule and chunk grain — and that `Campaign::run_dynamic` is
//! verdict- and order-identical to `run_sharded` no matter which worker
//! claims which chunk.

use proptest::prelude::*;
use rescue_campaign::{Campaign, Schedule};
use rescue_faults::engine::{CampaignPlan, FaultScratch};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::cone::comb_fanout_cone;
use rescue_netlist::generate;
use rescue_sim::parallel::{live_mask, pack_patterns};

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

    /// Per-word detection masks from the packed observability path equal
    /// the oracle's full-resimulation masks for every fault on every
    /// chunk, including partial last chunks (73 patterns = 64 + 9).
    #[test]
    fn detect_packed_masks_match_scalar(seed in 1u64..500) {
        let net = generate::random_logic(7, 90, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(7, 73, seed);
        let sim = FaultSimulator::new(&net);
        let oracle = ReferenceFaultSimulator::new(&net);
        let c = sim.compiled();
        let plan = CampaignPlan::build(c, &faults);
        let mut packed = FaultScratch::new(c.len());
        for chunk in patterns.chunks(64) {
            let words = pack_patterns(chunk);
            let golden = sim.golden(&words);
            let live = live_mask(chunk.len());
            packed.load_golden(&golden);
            for &fault in &faults {
                prop_assert_eq!(
                    plan.detect_packed(c, &golden, &mut packed, fault).unwrap() & live,
                    oracle.detection_mask(&net, &words, &golden, fault) & live,
                    "{}", fault
                );
            }
        }
    }

    /// The full packed campaign — with fault dropping — produces the
    /// same `first_detection` vector as the oracle's dropping campaign,
    /// for every worker count under both schedules and several explicit
    /// chunk grains.
    #[test]
    fn packed_campaign_matches_scalar_any_schedule(seed in 1u64..300) {
        let net = generate::random_logic(8, 110, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(8, 180, seed);
        let sim = FaultSimulator::new(&net);
        let scalar = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        for workers in [1usize, 2, 4, 8] {
            for schedule in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 0 },
                Schedule::Dynamic { chunk: 1 },
                Schedule::Dynamic { chunk: 17 },
            ] {
                let run = sim.campaign_packed(
                    &faults,
                    &patterns,
                    &Campaign::new(0, workers).with_schedule(schedule),
                    PackedOptions::default(),
                );
                prop_assert_eq!(
                    run.report.first_detection(),
                    scalar.first_detection(),
                    "workers = {}, schedule = {:?}", workers, schedule
                );
            }
        }
    }

    /// Without dropping — every fault probed on every word — the packed
    /// path still reproduces the oracle's masks fault-for-fault, so the
    /// shared observability word is exact even for faults the dropping
    /// campaign would have retired long ago.
    #[test]
    fn packed_without_dropping_matches_scalar(seed in 1u64..300) {
        let net = generate::random_logic(6, 70, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 100, seed);
        let sim = FaultSimulator::new(&net);
        let oracle = ReferenceFaultSimulator::new(&net);
        let c = sim.compiled();
        let plan = CampaignPlan::build(c, &faults);
        let mut packed = FaultScratch::new(c.len());
        let mut first_scalar = vec![None; faults.len()];
        let mut first_packed = vec![None; faults.len()];
        for (ci, chunk) in patterns.chunks(64).enumerate() {
            let words = pack_patterns(chunk);
            let golden = sim.golden(&words);
            let live = live_mask(chunk.len());
            packed.load_golden(&golden);
            // No `continue` on prior detection: both paths keep probing.
            for (fi, &fault) in faults.iter().enumerate() {
                let ms = oracle.detection_mask(&net, &words, &golden, fault) & live;
                let mp = plan.detect_packed(c, &golden, &mut packed, fault).unwrap() & live;
                prop_assert_eq!(ms, mp, "{}", fault);
                for (first, mask) in [(&mut first_scalar, ms), (&mut first_packed, mp)] {
                    if first[fi].is_none() && mask != 0 {
                        first[fi] = Some(ci * 64 + mask.trailing_zeros() as usize);
                    }
                }
            }
        }
        prop_assert_eq!(first_scalar, first_packed);
    }

    /// `run_dynamic` is result- and order-identical to `run_sharded`
    /// across worker counts and chunk grains (reshard stability), with
    /// chunk/steal accounting that adds up.
    #[test]
    fn run_dynamic_matches_run_sharded(len in 0usize..400, seed in 0u64..100) {
        let items: Vec<u64> = (0..len as u64).collect();
        let baseline = Campaign::new(seed, 1)
            .run_sharded(&items, |_| (), |_, i, &x| (i, x.wrapping_mul(seed | 1)));
        for workers in [1usize, 2, 3, 4, 8] {
            for chunk in [0usize, 1, 7, 64] {
                let campaign = Campaign::new(seed, workers)
                    .with_schedule(Schedule::Dynamic { chunk });
                let run = campaign.run_dynamic(
                    &items,
                    |_| (),
                    |_, offset, shard| {
                        shard
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| (offset + i, x.wrapping_mul(seed | 1)))
                            .collect()
                    },
                );
                prop_assert_eq!(&baseline.results, &run.results,
                    "workers = {}, chunk = {}", workers, chunk);
                if len > 0 {
                    let grain = campaign.chunk_size(len);
                    // Serial runs (and single-chunk queues) take the
                    // inline fast path: one whole-range chunk.
                    let expect = if workers == 1 || len.div_ceil(grain) == 1 {
                        1
                    } else {
                        len.div_ceil(grain)
                    };
                    prop_assert_eq!(run.chunks, expect);
                }
            }
        }
    }
}

/// Sites whose fanout cone reaches no primary output are statically
/// unobservable: the packed path must report 0 for every fault there,
/// and `CampaignPlan::observable` must agree with a scan of the
/// netlist's combinational fanout cone.
#[test]
fn unobservable_sites_detect_nothing() {
    let net = generate::random_logic(10, 400, 2, 99);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(10, 64, 99);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, &faults);
    let words = pack_patterns(&patterns);
    let golden = sim.golden(&words);
    let mut scratch = FaultScratch::new(c.len());
    scratch.load_golden(&golden);
    let is_po = {
        let mut v = vec![false; c.len()];
        for &g in c.po_drivers() {
            v[g as usize] = true;
        }
        v
    };
    let mut unobservable = 0;
    for &fault in &faults {
        let root = fault.site().gate().index();
        let cone = comb_fanout_cone(&net, &[fault.site().gate()]);
        let reachable = is_po[root] || cone.iter().any(|g| is_po[g.index()]);
        assert_eq!(plan.observable(root), reachable);
        if !reachable {
            unobservable += 1;
            assert_eq!(plan.detect_packed(c, &golden, &mut scratch, fault), Ok(0));
        }
    }
    assert!(
        unobservable > 0,
        "workload should exercise the pruning path"
    );
}
