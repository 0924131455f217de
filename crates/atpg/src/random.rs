//! Random and weighted-random test generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_faults::engine::{CampaignPlan, FaultScratch};
use rescue_faults::simulate::FaultSimulator;
use rescue_faults::Fault;
use rescue_netlist::Netlist;
use rescue_sim::parallel::{live_mask, pack_patterns};

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
/// Patterns are drawn and graded 64 at a time: one golden evaluation per
/// batch, then the PPSFP dropping path ([`CampaignPlan::detect_packed`]),
/// one observability walk per (site, batch) shared by every undetected
/// fault at that site. The coverage curve samples at batch boundaries.
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
    assert!((0.0..=1.0).contains(&weight), "weight in [0,1]");
    assert!(
        (0.0..=1.0).contains(&target_coverage),
        "target coverage in [0,1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n_in = netlist.primary_inputs().len();
    let sim = FaultSimulator::new(netlist);
    // Plan and scratch amortized over the whole run.
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, faults);
    let mut scratch = FaultScratch::new(c.len());
    let mut patterns: Vec<Vec<bool>> = Vec::new();
    let mut curve = Vec::new();
    let mut golden = Vec::new();
    let mut detected = vec![false; faults.len()];
    let mut coverage = if faults.is_empty() { 1.0 } else { 0.0 };

    while patterns.len() < max_patterns && coverage < target_coverage {
        let batch: Vec<Vec<bool>> = (0..64.min(max_patterns - patterns.len()))
            .map(|_| (0..n_in).map(|_| rng.gen_bool(weight)).collect())
            .collect();
        c.eval_words_into(&pack_patterns(&batch), &mut golden)
            .expect("input word count matches primary inputs");
        scratch.load_golden(&golden);
        // Dead lanes of a short final batch must not count as
        // detections.
        let live = live_mask(batch.len());
        for (fi, &fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue; // fault dropping
            }
            let mask = plan
                .detect_packed(c, &golden, &mut scratch, fault)
                .expect("fault root missing from campaign plan");
            if mask & live != 0 {
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
    fn empty_fault_list() {
        let c = generate::c17();
        let r = random_tpg(&c, &[], 1.0, 100, 1);
        assert_eq!(r.coverage, 1.0);
        assert!(r.patterns.is_empty());
    }
}
