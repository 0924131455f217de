//! ISO 26262 fault classification.
//!
//! Classification campaigns run on the shared [`rescue_campaign`] driver
//! and the packed levelized walk: instead of fully resimulating the
//! design per fault, each fault's effect is walked forward from its site
//! once per 64-pattern word and observed at the functional/checker
//! output groups ([`rescue_faults::engine::CampaignPlan::detect_observed`]).

use rescue_campaign::{Campaign, CampaignStats};
use rescue_faults::engine::{CampaignPlan, FaultScratch, ObserverGroups};
use rescue_faults::{simulate::FaultSimulator, Fault};
use rescue_netlist::Netlist;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::parallel::{live_mask, pack_patterns};

/// ISO 26262 class of a fault with respect to a safety goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Never corrupts a functional output under the stimulus (and thus
    /// cannot violate the safety goal).
    Safe,
    /// Corrupts a functional output but every such corruption is
    /// simultaneously flagged by a checker output.
    Detected,
    /// Corrupts a functional output with no alarm on at least one
    /// pattern — a dangerous undetected (residual) fault.
    Residual,
    /// Never corrupts a functional output but trips the checker —
    /// a latent corruption inside the safety mechanism itself.
    Latent,
}

/// Per-fault classification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationReport {
    faults: Vec<Fault>,
    classes: Vec<FaultClass>,
}

impl ClassificationReport {
    /// The classified faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The class of each fault, parallel to [`Self::faults`].
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Count of a class.
    pub fn count(&self, class: FaultClass) -> usize {
        self.classes.iter().filter(|&&c| c == class).count()
    }

    /// Fraction of a class.
    pub fn fraction(&self, class: FaultClass) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        self.count(class) as f64 / self.classes.len() as f64
    }

    /// Iterates `(fault, class)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Fault, FaultClass)> + '_ {
        self.faults
            .iter()
            .copied()
            .zip(self.classes.iter().copied())
    }
}

/// A classification verdict plus its campaign observability record.
#[derive(Debug, Clone)]
pub struct ClassificationRun {
    /// The (deterministic) classification verdicts.
    pub report: ClassificationReport,
    /// Throughput, worker timing and lane-occupancy figures.
    pub stats: CampaignStats,
}

/// Classifies `faults` by simulating `patterns` and comparing the
/// behaviour of `functional` outputs (safety-goal relevant) and
/// `checkers` outputs (safety mechanisms). Serial convenience wrapper
/// over [`classify_with_stats`].
///
/// Classification is stimulus-relative — exactly like a real FI
/// campaign: a richer stimulus can move faults from `Safe` to another
/// class, never the other way.
///
/// # Panics
///
/// Panics if an output name is unknown or a pattern width mismatches.
pub fn classify(
    netlist: &Netlist,
    faults: &[Fault],
    functional: &[String],
    checkers: &[String],
    patterns: &[Vec<bool>],
) -> ClassificationReport {
    classify_with_stats(
        netlist,
        faults,
        functional,
        checkers,
        patterns,
        &Campaign::serial(),
    )
    .report
}

/// [`classify`] on the shared [`Campaign`] driver: faults are handed out
/// to scoped workers through the work-stealing queue, each walking fault
/// effects forward with the packed engine and observing the two output
/// groups. Verdicts are identical for every worker count.
///
/// # Panics
///
/// Panics if an output name is unknown or a pattern width mismatches.
pub fn classify_with_stats(
    netlist: &Netlist,
    faults: &[Fault],
    functional: &[String],
    checkers: &[String],
    patterns: &[Vec<bool>],
    campaign: &Campaign,
) -> ClassificationRun {
    let _campaign_span = rescue_telemetry::span!("safety.classify", faults = faults.len());
    let sim = FaultSimulator::new(netlist);
    let c = sim.compiled();
    let observers = output_groups(netlist, c, functional, checkers);
    let plan = CampaignPlan::build(c, faults);
    // Per-chunk golden values and live mask, shared read-only.
    let chunks: Vec<(Vec<u64>, u64)> = patterns
        .chunks(64)
        .map(|chunk| {
            let words = pack_patterns(chunk);
            (sim.golden(&words), live_mask(chunk.len()))
        })
        .collect();
    let run = campaign.run_dynamic(
        faults,
        |_| FaultScratch::new(c.len()),
        |scratch, _, range| {
            let mut evidence = vec![Evidence::default(); range.len()];
            for (golden, live) in &chunks {
                scratch.load_golden(golden);
                for (e, &fault) in evidence.iter_mut().zip(range) {
                    if e.settled() {
                        continue;
                    }
                    let (func, chk) = plan
                        .detect_observed(c, golden, scratch, fault, &observers)
                        .expect("the plan holds every fault site");
                    e.record(func & live, chk & live);
                }
            }
            evidence.iter().map(|e| e.class()).collect()
        },
    );
    let mut stats = CampaignStats::from_run(faults.len(), &run);
    for (_, live) in &chunks {
        stats.record_lanes(live.count_ones() as u64, 64);
    }
    let report = ClassificationReport {
        faults: faults.to_vec(),
        classes: run.results,
    };
    stats.tally.masked = report.count(FaultClass::Safe);
    stats.tally.detected = report.count(FaultClass::Detected);
    stats.tally.latent = report.count(FaultClass::Latent);
    stats.tally.undetected = report.count(FaultClass::Residual);
    ClassificationRun { report, stats }
}

/// The functional and checker output groups of a classification, by
/// output name.
///
/// # Panics
///
/// Panics on an unknown output name.
pub(crate) fn output_groups(
    netlist: &Netlist,
    compiled: &CompiledNetlist,
    functional: &[String],
    checkers: &[String],
) -> ObserverGroups {
    let drivers = |names: &[String]| -> Vec<u32> {
        names
            .iter()
            .map(|name| {
                netlist
                    .primary_outputs()
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, d)| d.index() as u32)
                    .unwrap_or_else(|| panic!("unknown output `{name}`"))
            })
            .collect()
    };
    ObserverGroups::new(compiled, &drivers(functional), &drivers(checkers))
}

/// What the stimulus has shown about one fault so far.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Evidence {
    corrupts: bool,
    undetected: bool,
    alarms: bool,
}

impl Evidence {
    /// Folds in one word's functional and checker masks, dead or
    /// unlaunched lanes already cleared.
    pub(crate) fn record(&mut self, func: u64, chk: u64) {
        self.corrupts |= func != 0;
        self.undetected |= func & !chk != 0;
        self.alarms |= chk != 0;
    }

    /// Whether the class is locked in: a fault that once corrupted a
    /// functional output without an alarm stays Residual.
    pub(crate) fn settled(&self) -> bool {
        self.undetected
    }

    pub(crate) fn class(&self) -> FaultClass {
        match (self.corrupts, self.undetected, self.alarms) {
            (true, true, _) => FaultClass::Residual,
            (true, false, _) => FaultClass::Detected,
            (false, _, true) => FaultClass::Latent,
            (false, _, false) => FaultClass::Safe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplication::duplicate_with_comparator;
    use rescue_faults::universe;
    use rescue_netlist::generate;

    fn exhaustive(n: usize) -> Vec<Vec<bool>> {
        (0..(1u32 << n))
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn unprotected_design_is_mostly_residual() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let functional: Vec<String> = c.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let r = classify(&c, &faults, &functional, &[], &exhaustive(5));
        assert_eq!(r.count(FaultClass::Detected), 0, "no checker, no detection");
        assert!(r.fraction(FaultClass::Residual) > 0.9);
    }

    #[test]
    fn duplication_detects_single_copy_faults() {
        let inner = generate::adder(2);
        let p = duplicate_with_comparator(&inner);
        let faults = universe::stuck_at_universe(&p.netlist);
        let r = classify(
            &p.netlist,
            &faults,
            &p.functional_outputs,
            &p.checker_outputs,
            &exhaustive(p.netlist.primary_inputs().len()),
        );
        // Faults inside either copy corrupt exactly one copy -> alarm.
        // Only common-cause faults on the shared primary inputs escape
        // (both copies compute the same wrong answer).
        use rescue_netlist::GateKind;
        for (f, c) in r.iter() {
            if c == FaultClass::Residual {
                assert_eq!(
                    p.netlist.gate(f.site().gate()).kind(),
                    GateKind::Input,
                    "only shared-input faults may be residual, got {f}"
                );
            }
        }
        // Copy-A faults corrupt mission outputs with an alarm (Detected);
        // copy-B and comparator faults corrupt only the alarm (Latent).
        assert!(r.fraction(FaultClass::Detected) > 0.2);
        assert!(r.fraction(FaultClass::Latent) > 0.2);
    }

    #[test]
    fn stimulus_relative_monotonicity() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let functional: Vec<String> = c.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let few = classify(&c, &faults, &functional, &[], &exhaustive(5)[..2]);
        let all = classify(&c, &faults, &functional, &[], &exhaustive(5));
        // Safe count can only shrink with more stimulus.
        assert!(all.count(FaultClass::Safe) <= few.count(FaultClass::Safe));
    }

    #[test]
    #[should_panic(expected = "unknown output")]
    fn unknown_output_panics() {
        let c = generate::c17();
        classify(&c, &[], &["nope".into()], &[], &exhaustive(5));
    }

    #[test]
    fn verdicts_stable_across_worker_counts() {
        let inner = generate::adder(2);
        let p = duplicate_with_comparator(&inner);
        let faults = universe::stuck_at_universe(&p.netlist);
        let pats = exhaustive(p.netlist.primary_inputs().len());
        let serial = classify(
            &p.netlist,
            &faults,
            &p.functional_outputs,
            &p.checker_outputs,
            &pats,
        );
        for workers in [2usize, 3, 8] {
            let run = classify_with_stats(
                &p.netlist,
                &faults,
                &p.functional_outputs,
                &p.checker_outputs,
                &pats,
                &Campaign::new(0, workers),
            );
            assert_eq!(run.report, serial, "workers = {workers}");
            assert_eq!(run.stats.injections, faults.len());
            assert!(!run.stats.worker_ns.is_empty() && run.stats.worker_ns.len() <= workers);
            assert_eq!(run.stats.tally.total(), faults.len());
        }
    }
}
