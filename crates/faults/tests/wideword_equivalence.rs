//! Wide-word packed engine ≡ 64-lane engine ≡ full-resimulation oracle,
//! and collapsed-universe campaigns ≡ uncollapsed.
//!
//! The acceptance bar for the multi-`u64` lane generalization: a
//! [`PackedWord`] campaign at any supported width must produce the same
//! `first_detection` vector as the `u64` engine, and its masks must
//! match the [`ReferenceFaultSimulator`] lane for lane — across
//! schedules, worker counts and ragged pattern counts —
//! and a campaign over a collapsed universe must expand back to the
//! identical per-fault verdicts while walking measurably fewer faults.

use proptest::prelude::*;
use rescue_campaign::{Campaign, Schedule};
use rescue_faults::collapse::collapse;
use rescue_faults::engine::{CampaignPlan, WideScratch};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::generate;
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

/// Per-word wide detection masks agree lane-for-lane with the oracle
/// run on the matching 64-pattern sub-chunks, including the ragged tail
/// (the 300-pattern workload is 1×256 + 44 at W=4).
fn masks_match_scalar<Wd: SimWord>(seed: u64) {
    let net = generate::random_logic(7, 90, 4, seed);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(7, 300, seed);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, &faults);
    let oracle = ReferenceFaultSimulator::new(&net);
    let mut wide = WideScratch::<Wd>::new(c.len());
    for chunk in patterns.chunks(Wd::LANES) {
        let words = pack_patterns_wide::<Wd>(chunk);
        let mut golden = Vec::new();
        c.eval_words_into(&words, &mut golden).unwrap();
        wide.load_golden(&golden);
        let live = Wd::live_mask(chunk.len());
        for &fault in &faults {
            let mask = plan.detect_packed(c, &golden, &mut wide, fault).unwrap() & live;
            // The oracle on each 64-pattern slice of the wide chunk.
            for (sub_i, sub) in chunk.chunks(64).enumerate() {
                let sub_words = pack_patterns_wide::<u64>(sub);
                let sub_golden = oracle.golden(&net, &sub_words);
                let sub_mask = oracle.detection_mask(&net, &sub_words, &sub_golden, fault)
                    & u64::live_mask(sub.len());
                for bit in 0..sub.len() {
                    assert_eq!(
                        mask.lane(sub_i * 64 + bit),
                        sub_mask >> bit & 1 == 1,
                        "{fault}, lane {}",
                        sub_i * 64 + bit
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// W=4 per-word masks equal the oracle lane-for-lane.
    #[test]
    fn wide_masks_match_scalar_w4(seed in 1u64..500) {
        masks_match_scalar::<PackedWord<4>>(seed);
    }

    /// W=2 and W=8 at the lane boundaries (ragged tails land mid-limb).
    #[test]
    fn wide_masks_match_scalar_w2_w8(seed in 1u64..250) {
        masks_match_scalar::<PackedWord<2>>(seed);
        masks_match_scalar::<PackedWord<8>>(seed);
    }

    /// The full wide campaign — fault dropping, every schedule, several
    /// worker counts, ragged pattern counts that are not multiples of any
    /// lane count — reproduces the W=1 `first_detection` vector exactly.
    #[test]
    fn wide_campaign_matches_w1_any_schedule(
        seed in 1u64..300,
        n_patterns in 1usize..400,
    ) {
        let net = generate::random_logic(8, 110, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(8, n_patterns, seed);
        let sim = FaultSimulator::new(&net);
        let base =
            sim.campaign_packed(&faults, &patterns, &Campaign::serial(), PackedOptions::default());
        for lane_width in [2usize, 4, 8] {
            for workers in [1usize, 4] {
                for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 17 }] {
                    let run = sim.campaign_packed(
                        &faults,
                        &patterns,
                        &Campaign::new(0, workers).with_schedule(schedule),
                        PackedOptions::wide(lane_width),
                    );
                    prop_assert_eq!(
                        run.report.first_detection(),
                        base.report.first_detection(),
                        "lanes = {}, workers = {}, schedule = {:?}",
                        lane_width, workers, schedule
                    );
                    prop_assert_eq!(run.stats.tally.detected, base.stats.tally.detected);
                    // No collapse requested: every fault is walked.
                    prop_assert_eq!(run.stats.faults_walked, faults.len());
                    prop_assert_eq!(run.stats.collapse_ratio(), 1.0);
                }
            }
        }
    }

    /// Collapsed-universe campaigns expand to the identical verdicts at
    /// every width, while walking only the representatives.
    #[test]
    fn collapsed_campaign_expands_identically(seed in 1u64..300) {
        let net = generate::random_logic(8, 120, 4, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(8, 150, seed);
        let sim = FaultSimulator::new(&net);
        let base =
            sim.campaign_packed(&faults, &patterns, &Campaign::serial(), PackedOptions::default());
        let cu = collapse(&net, &faults);
        for lane_width in [1usize, 4] {
            let run = sim.campaign_packed(
                &faults,
                &patterns,
                &Campaign::new(0, 4),
                PackedOptions::wide(lane_width).with_collapsed(&cu),
            );
            prop_assert_eq!(
                run.report.first_detection(),
                base.report.first_detection(),
                "lanes = {}", lane_width
            );
            prop_assert!(run.stats.faults_walked <= faults.len());
            prop_assert_eq!(run.stats.faults_saved(),
                faults.len() - run.stats.faults_walked);
            prop_assert_eq!(run.stats.injections, faults.len());
        }
    }
}

/// The E12 workload (16-input, 2000-gate netlist): collapsing must save
/// at least 40 % of the fault walks while the expanded coverage — the
/// whole `first_detection` vector, not just the total — stays identical
/// to the uncollapsed campaign.
#[test]
fn collapsed_walks_at_least_forty_percent_fewer_on_e12() {
    let net = generate::random_logic(16, 2000, 4, 12);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(16, 128, 12);
    let sim = FaultSimulator::new(&net);
    let campaign = Campaign::new(0, 4);
    let base = sim.campaign_packed(&faults, &patterns, &campaign, PackedOptions::wide(4));
    let cu = collapse(&net, &faults);
    let run = sim.campaign_packed(
        &faults,
        &patterns,
        &campaign,
        PackedOptions::wide(4).with_collapsed(&cu),
    );
    assert_eq!(run.report.first_detection(), base.report.first_detection());
    assert_eq!(run.report.coverage(), base.report.coverage());
    assert_eq!(run.stats.injections, faults.len());
    // The walk list is the observable representatives: equivalence
    // classes plus the PO-reachability sweep (unobservable classes share
    // the all-zero mask, so they expand for free too).
    assert!(run.stats.faults_walked <= cu.representatives().len());
    assert!(
        run.stats.collapse_ratio() <= 0.6,
        "collapse ratio {:.3} should save >= 40 % of walks",
        run.stats.collapse_ratio()
    );
    assert_eq!(
        run.stats.faults_saved(),
        faults.len() - run.stats.faults_walked
    );
}

/// Unsupported widths fail loudly instead of silently falling back.
#[test]
#[should_panic(expected = "unsupported lane width")]
fn unsupported_width_panics() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    sim.campaign_packed(
        &[],
        &[vec![false; 5]],
        &Campaign::serial(),
        PackedOptions::wide(3),
    );
}
