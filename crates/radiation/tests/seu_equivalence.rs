//! Bit-parallel SEU engine ≡ scalar reference, property-tested.
//!
//! The acceptance bar for the campaign-engine refactor: the lane-packed
//! engine behind [`SeuCampaign::run_exhaustive`] / [`run_sampled`] must
//! produce **outcome-identical** `SeuReport`s (same order, same
//! outcomes, same detection latencies) to the retained scalar path in
//! [`seu_analysis::reference`] — over random sequential designs,
//! multiple seeds and every worker count.

use proptest::prelude::*;
use rescue_campaign::Campaign;
use rescue_netlist::{generate, Netlist};
use rescue_radiation::seu_analysis::{reference, SeuCampaign};

/// A small zoo of state-holding designs driven by one seed.
fn design(seed: u64) -> (Netlist, Vec<bool>) {
    match seed % 3 {
        0 => {
            let width = 4 + (seed % 9) as usize; // 4..=12 flops
            let tap = 1 + (seed as usize % (width - 1));
            (generate::lfsr(width, &[width - 1, tap]), vec![])
        }
        1 => {
            let stages = 3 + (seed % 6) as usize;
            (
                generate::shift_register(stages),
                vec![seed.is_multiple_of(2)],
            )
        }
        _ => {
            let width = 5 + (seed % 7) as usize;
            (generate::lfsr(width, &[width - 1, 2, 1]), vec![])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exhaustive campaigns: bit-identical reports for every design,
    /// warmup/horizon shape and worker count, and the same outcome tally
    /// and lane figures as the 1-worker run.
    #[test]
    fn exhaustive_matches_reference(seed in 0u64..400, warmup in 0usize..9, horizon in 0usize..11) {
        let (net, inputs) = design(seed);
        let campaign = SeuCampaign::new(warmup, horizon);
        let oracle = reference::run_exhaustive(&campaign, &net, &inputs);
        let serial = campaign.run_exhaustive_on(&net, &inputs, &Campaign::new(seed, 1));
        prop_assert_eq!(&serial.report, &oracle);
        for workers in [2usize, 3, 4] {
            let run = campaign.run_exhaustive_on(&net, &inputs, &Campaign::new(seed, workers));
            prop_assert_eq!(&run.report, &oracle, "workers = {}", workers);
            prop_assert_eq!(run.stats.tally.total(), oracle.injections().len());
            prop_assert_eq!(run.stats.tally, serial.stats.tally, "workers = {}", workers);
            prop_assert_eq!(run.stats.lanes_used, serial.stats.lanes_used, "workers = {}", workers);
            prop_assert_eq!(
                run.stats.lanes_capacity,
                serial.stats.lanes_capacity,
                "workers = {}",
                workers
            );
        }
    }

    /// Wide machine words: every supported lane width packs 64×W faulty
    /// machines per batch and must reproduce the scalar oracle
    /// record-for-record, for every worker count.
    #[test]
    fn wide_words_match_reference(seed in 0u64..400, warmup in 0usize..7, horizon in 0usize..9) {
        let (net, inputs) = design(seed);
        let oracle = reference::run_exhaustive(&SeuCampaign::new(warmup, horizon), &net, &inputs);
        for lane_width in [2usize, 4, 8] {
            let campaign = SeuCampaign::new(warmup, horizon).with_lane_width(lane_width);
            prop_assert_eq!(
                &campaign.run_exhaustive(&net, &inputs),
                &oracle,
                "lane_width = {}",
                lane_width
            );
            let run = campaign.run_exhaustive_on(&net, &inputs, &Campaign::new(seed, 3));
            prop_assert_eq!(&run.report, &oracle, "lane_width = {} sharded", lane_width);
            prop_assert_eq!(run.stats.tally.total(), oracle.injections().len());
        }
    }

    /// Sampled campaigns: the engine draws the identical `(dff, cycle)`
    /// sequence, so reports match record-for-record across seeds and
    /// worker counts.
    #[test]
    fn sampled_matches_reference(seed in 0u64..400, rng_seed in 0u64..1000, count in 1usize..150) {
        let (net, inputs) = design(seed);
        let campaign = SeuCampaign::new(5, 6);
        let oracle = reference::run_sampled(&campaign, &net, &inputs, count, rng_seed);
        prop_assert_eq!(&campaign.run_sampled(&net, &inputs, count, rng_seed), &oracle);
        for workers in [2usize, 4] {
            let run = campaign.run_sampled_on(
                &net, &inputs, count, rng_seed, &Campaign::new(rng_seed, workers),
            );
            prop_assert_eq!(&run.report, &oracle, "workers = {}", workers);
        }
    }
}

/// Lane-boundary shapes: exactly 64 flops fills a word; 65 spills into a
/// second batch; both must still match the scalar oracle.
#[test]
fn lane_boundary_designs_match_reference() {
    for width in [63usize, 64, 65, 130] {
        let net = generate::lfsr(width, &[width - 1, 3]);
        let campaign = SeuCampaign::new(2, 5);
        let oracle = reference::run_exhaustive(&campaign, &net, &[]);
        let run = campaign.run_exhaustive_on(&net, &[], &Campaign::new(9, 3));
        assert_eq!(run.report, oracle, "width = {width}");
        assert_eq!(run.stats.lanes_capacity % 64, 0);
        assert_eq!(run.stats.lanes_used as usize, oracle.injections().len());
        // Wide words at the same boundaries: 130 flops is a ragged tail
        // for W=1 (3 words) yet a single word at W=4 (256 lanes).
        for lane_width in [2usize, 4, 8] {
            let wide = campaign.with_lane_width(lane_width);
            let run = wide.run_exhaustive_on(&net, &[], &Campaign::new(9, 3));
            assert_eq!(run.report, oracle, "width = {width}, lanes = {lane_width}");
            assert_eq!(run.stats.lanes_capacity % (64 * lane_width as u64), 0);
            assert_eq!(run.stats.lanes_used as usize, oracle.injections().len());
        }
    }
}
