//! FuSa classification for transition-delay faults.
//!
//! "How to extend FuSa verification in terms of its fault models … are
//! also active areas of research in the RESCUE project" (paper Section
//! III.D). This module extends the ISO 26262 classification from the
//! stuck-at model to transition-delay faults: a slow-to-rise/fall fault
//! violates the safety goal when a *pattern pair* in the mission
//! stimulus launches the failing transition into a functional output
//! with no simultaneous checker alarm.

use crate::classify::{output_groups, Evidence, FaultClass};
use rescue_campaign::{Campaign, CampaignStats};
use rescue_faults::engine::{CampaignPlan, FaultScratch};
use rescue_faults::{simulate::FaultSimulator, Fault, FaultKind, FaultSite};
use rescue_netlist::Netlist;
use rescue_sim::parallel::{live_mask, pack_patterns};

/// Classification of transition faults against consecutive-pair stimuli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionClassification {
    faults: Vec<Fault>,
    classes: Vec<FaultClass>,
}

impl TransitionClassification {
    /// The classified faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The class of each fault.
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Count of one class.
    pub fn count(&self, class: FaultClass) -> usize {
        self.classes.iter().filter(|&&c| c == class).count()
    }

    /// Fraction of one class.
    pub fn fraction(&self, class: FaultClass) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        self.count(class) as f64 / self.classes.len() as f64
    }
}

/// A transition classification plus its campaign observability record.
#[derive(Debug, Clone)]
pub struct TransitionRun {
    /// The (deterministic) classification verdicts.
    pub report: TransitionClassification,
    /// Throughput, worker timing and lane-occupancy figures.
    pub stats: CampaignStats,
}

/// Classifies transition-delay `faults` over consecutive pattern pairs
/// of `patterns` (launch `i`, capture `i+1`), against `functional` and
/// `checkers` output groups. Serial convenience wrapper over
/// [`classify_transitions_with_stats`].
///
/// The capture-cycle behaviour of a launched slow-to-rise fault is its
/// stuck-at-0 equivalent (and dual for slow-to-fall), so each pair
/// reduces to a conditional stuck-at classification — the standard
/// launch-on-shift reduction.
///
/// # Panics
///
/// Panics on unknown output names, non-transition fault kinds, pin
/// fault sites or width mismatches.
pub fn classify_transitions(
    netlist: &Netlist,
    faults: &[Fault],
    functional: &[String],
    checkers: &[String],
    patterns: &[Vec<bool>],
) -> TransitionClassification {
    classify_transitions_with_stats(
        netlist,
        faults,
        functional,
        checkers,
        patterns,
        &Campaign::serial(),
    )
    .report
}

/// [`classify_transitions`] on the shared [`Campaign`] driver: pattern
/// pairs are simulated once, 64 pairs per word (launch patterns and the
/// capture patterns one further), then faults are handed out to scoped
/// workers through the work-stealing queue, each applying the
/// launch-on-shift reduction through the packed walk: the launch
/// condition at the site gates the observed masks of the stuck-at
/// equivalent on the capture word. Verdicts are identical for every
/// worker count.
///
/// # Panics
///
/// Panics on unknown output names, non-transition fault kinds, pin
/// fault sites or width mismatches.
pub fn classify_transitions_with_stats(
    netlist: &Netlist,
    faults: &[Fault],
    functional: &[String],
    checkers: &[String],
    patterns: &[Vec<bool>],
    campaign: &Campaign,
) -> TransitionRun {
    let sim = FaultSimulator::new(netlist);
    let c = sim.compiled();
    let observers = output_groups(netlist, c, functional, checkers);

    // Validate fault kinds and reduce each transition fault to its site,
    // its direction and its stuck-at equivalent — on the caller thread,
    // so malformed inputs panic before any worker spawns.
    let specs: Vec<(usize, bool, Fault)> = faults
        .iter()
        .map(|fault| {
            let FaultSite::Output(site) = fault.site() else {
                panic!("transition faults sit on outputs");
            };
            let rising = match fault.kind() {
                FaultKind::SlowToRise => true,
                FaultKind::SlowToFall => false,
                other => panic!("classify_transitions requires transition faults, got {other}"),
            };
            let eq = Fault::stuck_at(FaultSite::Output(site), !rising);
            (site.index(), rising, eq)
        })
        .collect();
    let plan = CampaignPlan::build(c, &specs.iter().map(|s| s.2).collect::<Vec<_>>());
    // Launch/capture golden values and live mask per word of 64
    // consecutive pairs, shared read-only.
    let n_pairs = patterns.len().saturating_sub(1);
    let words: Vec<(Vec<u64>, Vec<u64>, u64)> = (0..n_pairs)
        .step_by(64)
        .map(|start| {
            let end = (start + 64).min(n_pairs);
            (
                sim.golden(&pack_patterns(&patterns[start..end])),
                sim.golden(&pack_patterns(&patterns[start + 1..end + 1])),
                live_mask(end - start),
            )
        })
        .collect();

    let run = campaign.run_dynamic(
        &specs,
        |_| FaultScratch::new(c.len()),
        |scratch, _, range| {
            let mut evidence = vec![Evidence::default(); range.len()];
            for (g_launch, g_capture, live) in &words {
                scratch.load_golden(g_capture);
                for (e, &(site, rising, eq)) in evidence.iter_mut().zip(range) {
                    if e.settled() {
                        continue;
                    }
                    let (from, to) = (g_launch[site], g_capture[site]);
                    let launched = live & if rising { !from & to } else { from & !to };
                    if launched == 0 {
                        continue; // no pair of this word launches the transition
                    }
                    let (func, chk) = plan
                        .detect_observed(c, g_capture, scratch, eq, &observers)
                        .expect("the plan holds every fault site");
                    e.record(func & launched, chk & launched);
                }
            }
            evidence.iter().map(|e| e.class()).collect()
        },
    );
    let mut stats = CampaignStats::from_run(faults.len(), &run);
    for (_, _, live) in &words {
        stats.record_lanes(live.count_ones() as u64, 64);
    }
    let report = TransitionClassification {
        faults: faults.to_vec(),
        classes: run.results,
    };
    stats.tally.masked = report.count(FaultClass::Safe);
    stats.tally.detected = report.count(FaultClass::Detected);
    stats.tally.latent = report.count(FaultClass::Latent);
    stats.tally.undetected = report.count(FaultClass::Residual);
    TransitionRun { report, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplication::duplicate_with_comparator;
    use rescue_faults::universe;
    use rescue_netlist::generate;

    fn walking_patterns(n: usize) -> Vec<Vec<bool>> {
        // Pairs launching plenty of transitions: alternating all-0/all-1
        // plus walking ones.
        let mut v = vec![vec![false; n], vec![true; n]];
        for i in 0..n {
            let mut p = vec![false; n];
            p[i] = true;
            v.push(p);
            v.push(vec![false; n]);
        }
        v
    }

    #[test]
    fn unprotected_design_has_residual_transitions() {
        let net = generate::adder(3);
        let faults = universe::transition_universe(&net);
        let functional: Vec<String> = net
            .primary_outputs()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let r = classify_transitions(&net, &faults, &functional, &[], &walking_patterns(7));
        assert!(r.fraction(FaultClass::Residual) > 0.5, "{:?}", r.classes());
        assert_eq!(r.count(FaultClass::Detected), 0);
    }

    #[test]
    fn duplication_detects_transition_faults_too() {
        let inner = generate::adder(2);
        let p = duplicate_with_comparator(&inner);
        let faults = universe::transition_universe(&p.netlist);
        let r = classify_transitions(
            &p.netlist,
            &faults,
            &p.functional_outputs,
            &p.checker_outputs,
            &walking_patterns(p.netlist.primary_inputs().len()),
        );
        // Only shared-input transitions can be residual.
        use rescue_netlist::GateKind;
        for (f, c) in r.faults().iter().zip(r.classes()) {
            if *c == FaultClass::Residual {
                assert_eq!(
                    p.netlist.gate(f.site().gate()).kind(),
                    GateKind::Input,
                    "{f} residual outside the shared inputs"
                );
            }
        }
        assert!(r.count(FaultClass::Detected) > 0);
    }

    #[test]
    fn transition_verdicts_stable_across_worker_counts() {
        let inner = generate::adder(2);
        let p = duplicate_with_comparator(&inner);
        let faults = universe::transition_universe(&p.netlist);
        let pats = walking_patterns(p.netlist.primary_inputs().len());
        let serial = classify_transitions(
            &p.netlist,
            &faults,
            &p.functional_outputs,
            &p.checker_outputs,
            &pats,
        );
        for workers in [2usize, 5] {
            let run = classify_transitions_with_stats(
                &p.netlist,
                &faults,
                &p.functional_outputs,
                &p.checker_outputs,
                &pats,
                &Campaign::new(0, workers),
            );
            assert_eq!(run.report, serial, "workers = {workers}");
            assert_eq!(run.stats.injections, faults.len());
        }
    }

    #[test]
    fn unlaunched_faults_are_safe() {
        let net = generate::adder(3);
        let faults = universe::transition_universe(&net);
        // A constant stimulus launches no transitions at all.
        let r = classify_transitions(
            &net,
            &faults,
            &net.primary_outputs()
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            &[],
            &[vec![false; 7], vec![false; 7]],
        );
        assert_eq!(r.count(FaultClass::Safe), faults.len());
    }
}
