//! Random and weighted-random test generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_faults::engine::{CampaignPlan, WideScratch};
use rescue_faults::simulate::FaultSimulator;
use rescue_faults::trace::{TracePlan, TraceScratch};
use rescue_faults::Fault;
use rescue_netlist::Netlist;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::{pack_patterns_wide, PackedWord, SimWord, SUPPORTED_LANE_WIDTHS};

/// Result of a random test-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomTpgReport {
    /// Generated patterns in application order.
    pub patterns: Vec<Vec<bool>>,
    /// Coverage after each batch of 64 patterns (a coverage curve).
    pub coverage_curve: Vec<f64>,
    /// Final coverage.
    pub coverage: f64,
}

/// Generates unbiased random patterns until `target_coverage` is reached
/// or `max_patterns` have been tried; coverage is measured on `faults`.
///
/// The coverage curve (one point per 64-pattern batch) reproduces the
/// classic random-TPG saturation shape: steep start, long tail — the
/// reason deterministic ATPG exists.
///
/// # Examples
///
/// ```
/// use rescue_atpg::random::random_tpg;
/// use rescue_faults::universe;
/// use rescue_netlist::generate;
///
/// let c = generate::c17();
/// let faults = universe::stuck_at_universe(&c);
/// let report = random_tpg(&c, &faults, 0.95, 512, 7);
/// assert!(report.coverage >= 0.95);
/// ```
pub fn random_tpg(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
) -> RandomTpgReport {
    weighted_random_tpg(netlist, faults, target_coverage, max_patterns, seed, 0.5)
}

/// Weighted random generation: each input bit is 1 with probability
/// `weight` (weighted random patterns help circuits with deep AND/OR
/// structures).
///
/// # Panics
///
/// Panics if `weight` is outside `[0, 1]` or `target_coverage` outside
/// `[0, 1]`.
pub fn weighted_random_tpg(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
    weight: f64,
) -> RandomTpgReport {
    weighted_tpg_w::<u64>(netlist, faults, target_coverage, max_patterns, seed, weight)
}

/// [`weighted_random_tpg`] on a wide machine word of `lane_width` 64-bit
/// limbs: each coverage batch simulates `64 * lane_width` patterns in one
/// set of cone walks. The pattern stream is drawn identically for every
/// width; only the batch granularity changes (the run stops and the
/// coverage curve samples at batch boundaries), so wider words may
/// overshoot the target by at most one batch.
///
/// # Panics
///
/// Panics if `weight` or `target_coverage` is outside `[0, 1]`, or on an
/// unsupported lane width ([`SUPPORTED_LANE_WIDTHS`]).
pub fn weighted_random_tpg_wide(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
    weight: f64,
    lane_width: usize,
) -> RandomTpgReport {
    match lane_width {
        1 => weighted_tpg_w::<u64>(netlist, faults, target_coverage, max_patterns, seed, weight),
        2 => weighted_tpg_w::<PackedWord<2>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
        ),
        4 => weighted_tpg_w::<PackedWord<4>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
        ),
        8 => weighted_tpg_w::<PackedWord<8>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
        ),
        w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
    }
}

/// [`weighted_random_tpg_wide`] with detection routed through the
/// critical-path-tracing / cone-walk hybrid
/// ([`rescue_faults::trace::TracePlan`]) instead of the pure PPSFP cone
/// walk. The pattern stream, batching and stopping rule are identical, and
/// the hybrid's masks are bit-identical to the walking engine's, so the
/// generated pattern set and coverage curve match
/// [`weighted_random_tpg_wide`] exactly — only the per-batch cost changes.
///
/// # Panics
///
/// Panics if `weight` or `target_coverage` is outside `[0, 1]`, or on an
/// unsupported lane width ([`SUPPORTED_LANE_WIDTHS`]).
pub fn weighted_random_tpg_traced(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
    weight: f64,
    lane_width: usize,
) -> RandomTpgReport {
    match lane_width {
        1 => weighted_tpg_engine::<u64>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
            true,
        ),
        2 => weighted_tpg_engine::<PackedWord<2>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
            true,
        ),
        4 => weighted_tpg_engine::<PackedWord<4>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
            true,
        ),
        8 => weighted_tpg_engine::<PackedWord<8>>(
            netlist,
            faults,
            target_coverage,
            max_patterns,
            seed,
            weight,
            true,
        ),
        w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
    }
}

/// Either detection engine behind the width-generic TPG loop, so tracing
/// and walking share one batching/stopping implementation.
enum TpgEngine<Wd: SimWord> {
    /// Pure PPSFP: one event-driven cone walk per (site, batch).
    Walk(CampaignPlan, WideScratch<Wd>),
    /// CPT hybrid: backward tracing, cone walks only at stems.
    Trace(TracePlan, TraceScratch<Wd>),
}

impl<Wd: SimWord> TpgEngine<Wd> {
    fn load_golden(&mut self, golden: &[Wd]) {
        match self {
            TpgEngine::Walk(_, s) => s.load_golden(golden),
            TpgEngine::Trace(_, s) => s.load_golden(golden),
        }
    }

    fn detect(&mut self, c: &CompiledNetlist, golden: &[Wd], fault: Fault) -> Wd {
        match self {
            TpgEngine::Walk(plan, s) => plan.detect_packed(c, golden, s, fault),
            TpgEngine::Trace(plan, s) => plan.detect_traced(c, golden, s, fault),
        }
        .expect("fault root missing from campaign plan")
    }
}

/// The width-generic TPG loop behind [`weighted_random_tpg`] and
/// [`weighted_random_tpg_wide`].
fn weighted_tpg_w<Wd: SimWord>(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
    weight: f64,
) -> RandomTpgReport {
    weighted_tpg_engine::<Wd>(
        netlist,
        faults,
        target_coverage,
        max_patterns,
        seed,
        weight,
        false,
    )
}

/// The width- and engine-generic TPG loop.
fn weighted_tpg_engine<Wd: SimWord>(
    netlist: &Netlist,
    faults: &[Fault],
    target_coverage: f64,
    max_patterns: usize,
    seed: u64,
    weight: f64,
    tracing: bool,
) -> RandomTpgReport {
    assert!((0.0..=1.0).contains(&weight), "weight in [0,1]");
    assert!(
        (0.0..=1.0).contains(&target_coverage),
        "target coverage in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n_in = netlist.primary_inputs().len();
    let sim = FaultSimulator::new(netlist);
    // Plan and scratch amortized over the whole run: the coverage loop is
    // the PPSFP dropping path, one observability walk per (site, batch)
    // shared by every undetected fault at that site — or, with tracing,
    // per reconvergent stem only.
    let c = sim.compiled();
    let mut engine = if tracing {
        TpgEngine::Trace(
            TracePlan::build(c, faults),
            TraceScratch::<Wd>::new(c.len()),
        )
    } else {
        TpgEngine::Walk(
            CampaignPlan::build(c, faults),
            WideScratch::<Wd>::new(c.len()),
        )
    };
    let mut patterns: Vec<Vec<bool>> = Vec::new();
    let mut curve = Vec::new();
    let mut detected = vec![false; faults.len()];
    let mut coverage = if faults.is_empty() { 1.0 } else { 0.0 };

    while patterns.len() < max_patterns && coverage < target_coverage {
        let batch: Vec<Vec<bool>> = (0..Wd::LANES.min(max_patterns - patterns.len()))
            .map(|_| (0..n_in).map(|_| rng.gen_bool(weight)).collect())
            .collect();
        let words = pack_patterns_wide::<Wd>(&batch);
        let mut golden = Vec::new();
        c.eval_words_into(&words, &mut golden)
            .expect("input word count matches primary inputs");
        engine.load_golden(&golden);
        // Shared ragged-tail guard: dead lanes of a short final batch
        // must not count as detections.
        let live = Wd::live_mask(batch.len());
        for (fi, &fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue; // fault dropping
            }
            if !(engine.detect(c, &golden, fault) & live).is_zero() {
                detected[fi] = true;
            }
        }
        patterns.extend(batch);
        coverage = if faults.is_empty() {
            1.0
        } else {
            detected.iter().filter(|&&d| d).count() as f64 / faults.len() as f64
        };
        curve.push(coverage);
    }
    RandomTpgReport {
        patterns,
        coverage_curve: curve,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_faults::universe;
    use rescue_netlist::generate;

    #[test]
    fn coverage_curve_is_monotone() {
        let net = generate::random_logic(10, 150, 5, 11);
        // Restrict to structurally observable faults — random logic has
        // large dead regions behind the arbitrary output selection.
        let obs: std::collections::HashSet<usize> = rescue_netlist::cone::observable_set(&net)
            .into_iter()
            .map(|g| g.index())
            .collect();
        let faults: Vec<_> = universe::stuck_at_universe(&net)
            .into_iter()
            .filter(|f| obs.contains(&f.site().gate().index()))
            .collect();
        let r = random_tpg(&net, &faults, 1.0, 1024, 3);
        for w in r.coverage_curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(r.coverage > 0.5, "observable faults are mostly testable");
    }

    #[test]
    fn stops_at_target() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let r = random_tpg(&c, &faults, 0.5, 10_000, 1);
        assert!(r.coverage >= 0.5);
        assert!(r.patterns.len() <= 128, "should stop quickly");
    }

    #[test]
    fn weighted_helps_deep_and_trees() {
        // A 12-input AND tree: unbiased random almost never sets all ones;
        // weight 0.9 finds the sa0 test much sooner.
        let mut b = rescue_netlist::NetlistBuilder::new("and12");
        let ins = b.inputs("i", 12);
        let g = b.and_n(&ins);
        b.output("y", g);
        let n = b.finish();
        let f = vec![rescue_faults::Fault::stuck_at(
            rescue_faults::FaultSite::Output(g),
            false,
        )];
        let unbiased = random_tpg(&n, &f, 1.0, 256, 5);
        let weighted = weighted_random_tpg(&n, &f, 1.0, 256, 5, 0.9);
        assert!(weighted.coverage >= unbiased.coverage);
        assert_eq!(weighted.coverage, 1.0);
    }

    #[test]
    fn wide_words_reach_identical_coverage() {
        // Same seed, same pattern budget, target 1.0: every width draws
        // the same pattern stream and must classify it identically, so
        // the final pattern set and coverage agree bit for bit. Batch
        // count (curve length) shrinks with width.
        let net = generate::random_logic(9, 120, 4, 21);
        let faults = universe::stuck_at_universe(&net);
        let base = weighted_random_tpg(&net, &faults, 1.0, 200, 9, 0.5);
        for lw in [2usize, 4, 8] {
            let wide = weighted_random_tpg_wide(&net, &faults, 1.0, 200, 9, 0.5, lw);
            assert_eq!(wide.patterns, base.patterns, "lane_width {lw}");
            assert_eq!(wide.coverage, base.coverage, "lane_width {lw}");
            assert!(wide.coverage_curve.len() <= base.coverage_curve.len());
        }
    }

    #[test]
    fn traced_tpg_matches_walking_tpg() {
        // The hybrid's detection masks are bit-identical to the walking
        // engine's, so the whole TPG run — pattern set, curve, coverage —
        // must agree exactly at every width.
        let net = generate::random_logic(9, 120, 4, 21);
        let faults = universe::stuck_at_universe(&net);
        for lw in [1usize, 2, 4, 8] {
            let walk = weighted_random_tpg_wide(&net, &faults, 1.0, 200, 9, 0.5, lw);
            let traced = weighted_random_tpg_traced(&net, &faults, 1.0, 200, 9, 0.5, lw);
            assert_eq!(traced.patterns, walk.patterns, "lane_width {lw}");
            assert_eq!(
                traced.coverage_curve, walk.coverage_curve,
                "lane_width {lw}"
            );
            assert_eq!(traced.coverage, walk.coverage, "lane_width {lw}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn rejects_unsupported_width() {
        let c = generate::c17();
        weighted_random_tpg_wide(&c, &[], 1.0, 10, 1, 0.5, 3);
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn traced_rejects_unsupported_width() {
        let c = generate::c17();
        weighted_random_tpg_traced(&c, &[], 1.0, 10, 1, 0.5, 5);
    }

    #[test]
    fn empty_fault_list() {
        let c = generate::c17();
        let r = random_tpg(&c, &[], 1.0, 100, 1);
        assert_eq!(r.coverage, 1.0);
        assert!(r.patterns.is_empty());
    }
}
