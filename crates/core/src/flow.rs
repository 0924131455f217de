//! The end-to-end holistic campaign (Fig. 2 as executable code).

use rescue_atpg::compact::static_compaction;
use rescue_atpg::podem::{Podem, PodemOutcome};
use rescue_atpg::untestable;
use rescue_campaign::fleet;
use rescue_campaign::{Campaign, CampaignStats};
use rescue_faults::collapse;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::Netlist;
use rescue_radiation::set_analysis::SetCampaign;
use rescue_radiation::Fit;
use rescue_riif::{ComponentRecord, FailureMode, RiifDatabase};
use rescue_safety::classify::{classify_with_stats, FaultClass};
use rescue_safety::metrics::SafetyMetrics;
use rescue_safety::pruning::prune;
use rescue_telemetry::{journal, span};

/// Configuration of the holistic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HolisticFlow {
    /// Raw per-gate stuck-at event rate assumed for PMHF math (FIT).
    pub raw_fit_per_gate: f64,
    /// SET strikes simulated for the vulnerability stage.
    pub set_injections: usize,
}

impl HolisticFlow {
    /// A flow with representative defaults.
    pub fn new() -> Self {
        HolisticFlow {
            raw_fit_per_gate: 0.02,
            set_injections: 300,
        }
    }
}

impl Default for HolisticFlow {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything the flow produces for one design.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Total stuck-at universe size.
    pub fault_universe: usize,
    /// Faults removed before simulation (untestable + pruned).
    pub pruned: usize,
    /// Generated (compacted) test patterns.
    pub test_patterns: usize,
    /// Stuck-at coverage of the generated test set over the remaining
    /// universe.
    pub fault_coverage: f64,
    /// ISO 26262 metrics of the (unprotected) design.
    pub safety: SafetyMetrics,
    /// SET derating factor (fraction of strikes that propagate).
    pub set_derating: f64,
    /// The RIIF export carrying the derived rates.
    pub riif: RiifDatabase,
    /// Per-stage campaign observability `(stage, stats)` for every
    /// injection stage of the flow: `"fault-sim"`, `"classification"`,
    /// `"set"`.
    pub stage_stats: Vec<(&'static str, CampaignStats)>,
    /// Wall-clock per Fig. 2 pipeline stage `(span name, nanoseconds)`,
    /// sourced from the telemetry journal's `flow.*` spans in pipeline
    /// order. Empty when telemetry is disabled.
    pub stage_spans: Vec<(&'static str, u64)>,
    /// Per-phase execution breakdown `(histogram, samples, mean µs)`
    /// from the packed engine's `exec.golden_us` / `exec.walk_us` /
    /// `exec.trace_us` telemetry histograms. The metrics registry is
    /// process-cumulative, so the figures cover every campaign this
    /// process ran with telemetry on, not only this flow. Empty when
    /// telemetry is disabled.
    pub exec_phases: Vec<(&'static str, u64, f64)>,
}

impl FlowReport {
    /// The stats of one named stage, if the flow ran it.
    pub fn stage(&self, name: &str) -> Option<&CampaignStats> {
        self.stage_stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Wall-clock of one `flow.*` pipeline span, if telemetry recorded
    /// it.
    pub fn stage_span_ns(&self, name: &str) -> Option<u64> {
        self.stage_spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
    }
}

impl HolisticFlow {
    /// Runs the whole flow on a combinational `design` with
    /// `n_random_patterns` classification patterns.
    ///
    /// # Panics
    ///
    /// Panics on sequential designs (block-level flow) or an internal
    /// inconsistency between stages (which would be a tool bug — the
    /// cross-checking of stages is the point of the holistic flow).
    pub fn run(&self, design: &Netlist, n_random_patterns: usize, seed: u64) -> FlowReport {
        self.run_with_store(design, n_random_patterns, seed, None)
    }

    /// [`HolisticFlow::run`] with a durable fault-simulation stage: when
    /// `store` is given, the stuck-at campaign runs through
    /// [`FaultSimulator::campaign_packed_durable`], so its verdicts
    /// persist as content-addressed units. A re-run of the same design
    /// and configuration answers the whole stage from the store (the
    /// `fault-sim` stage stats then report
    /// `units_cached == units_total`), and a killed flow resumes the
    /// stage where it stopped. Verdicts — and therefore every
    /// downstream stage — are bit-identical with and without a store.
    ///
    /// # Panics
    ///
    /// As [`HolisticFlow::run`].
    pub fn run_with_store(
        &self,
        design: &Netlist,
        n_random_patterns: usize,
        seed: u64,
        store: Option<&dyn rescue_campaign::ResultStore>,
    ) -> FlowReport {
        assert!(
            !design.is_sequential(),
            "block-level flow expects combinational designs"
        );
        // The stage breakdown is reconstructed from the journal at the
        // end of the run, so everything from here on is scoped by a
        // `flow.*` span per Fig. 2 stage.
        let mark = journal::mark();
        // 1. Fault universe.
        let all_faults = {
            fleet::set_stage("flow.universe");
            let _stage = span!("flow.universe");
            universe::stuck_at_universe(design)
        };
        // 2. Untestable identification (formal) + COI pruning.
        let outputs: Vec<String> = design
            .primary_outputs()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let (workable, pruned_count) = {
            fleet::set_stage("flow.untestable_prune");
            let _stage = span!("flow.untestable_prune");
            let report = untestable::identify(design, &all_faults, true);
            let pruned = prune(design, report.testable(), &outputs);
            let workable = pruned.remaining.clone();
            let pruned_count = all_faults.len() - workable.len();
            (workable, pruned_count)
        };
        // 3. ATPG on the workable set, with static compaction.
        let patterns: Vec<Vec<bool>> = {
            fleet::set_stage("flow.atpg");
            let _stage = span!("flow.atpg", faults = workable.len());
            let podem = Podem::new(design);
            let mut cubes = Vec::new();
            for &f in &workable {
                if let PodemOutcome::Test(cube) = podem.generate(design, f) {
                    cubes.push(cube);
                }
            }
            let compacted = static_compaction(&cubes);
            compacted.iter().map(|c| c.fill_with(false)).collect()
        };
        // 4. Fault simulation (verifies the ATPG stage end to end), on
        // the shared campaign driver so the report carries throughput.
        // Wide-word front-end (4 limbs = 256 patterns per cone walk) over
        // the collapsed universe with critical-path tracing: only
        // equivalence-class representatives are evaluated, most by
        // backward sensitization chains, cone walks only at reconvergent
        // stems. All three choices leave the verdicts bit-identical to
        // the default walking engine.
        let driver = Campaign::new(seed, 1);
        let sim = FaultSimulator::new(design);
        let campaign_run = {
            fleet::set_stage("flow.fault_sim");
            let _stage = span!("flow.fault_sim");
            let collapsed = collapse::collapse(design, &workable);
            let opts = PackedOptions::wide(4).with_collapsed(&collapsed).traced();
            match store {
                None => sim.campaign_packed(&workable, &patterns, &driver, opts),
                Some(store) => {
                    sim.campaign_packed_durable(&workable, &patterns, &driver, opts, store, 0)
                }
            }
        };
        let campaign = campaign_run.report;
        // 5. ISO 26262 classification under a random mission stimulus.
        let (classification_run, safety, total_rate) = {
            fleet::set_stage("flow.classify");
            let _stage = span!("flow.classify");
            let mission: Vec<Vec<bool>> = {
                let mut state = seed.max(1);
                (0..n_random_patterns)
                    .map(|_| {
                        (0..design.primary_inputs().len())
                            .map(|_| {
                                state ^= state << 13;
                                state ^= state >> 7;
                                state ^= state << 17;
                                state & 1 == 1
                            })
                            .collect()
                    })
                    .collect()
            };
            let run = classify_with_stats(design, &all_faults, &outputs, &[], &mission, &driver);
            let total_rate = Fit::new(self.raw_fit_per_gate * design.len() as f64);
            let safety = SafetyMetrics::from_classification(&run.report, total_rate);
            (run, safety, total_rate)
        };
        let classification = classification_run.report;
        // 6. SET vulnerability.
        let set_run = {
            fleet::set_stage("flow.set");
            let _stage = span!("flow.set");
            SetCampaign::new(design).run_campaign(
                design,
                self.set_injections,
                seed,
                |_| true,
                &driver,
            )
        };
        let set = set_run.report;
        // 7. RIIF export.
        let riif = {
            fleet::set_stage("flow.riif");
            let _stage = span!("flow.riif");
            let mut riif = RiifDatabase::new(design.name());
            riif.add_component(ComponentRecord {
                name: design.name().to_string(),
                technology: "generic".into(),
                modes: vec![
                    FailureMode {
                        mechanism: "stuck-at".into(),
                        raw_fit: total_rate.value(),
                        derating: classification.fraction(FaultClass::Residual),
                    },
                    FailureMode {
                        mechanism: "set".into(),
                        raw_fit: 10.0 * design.len() as f64 / 1000.0,
                        derating: set.derating(),
                    },
                ],
            });
            riif
        };
        fleet::set_stage("");
        // Stage breakdown from the journal: completed `flow.*` spans of
        // this thread, in pipeline (completion) order. Non-destructive
        // snapshot so concurrent exporters still see the events.
        let stage_spans: Vec<(&'static str, u64)> = journal::Journal::snapshot_since(mark)
            .current_thread()
            .with_prefix("flow.")
            .spans()
            .iter()
            .map(|s| (s.name, s.dur_ns))
            .collect();
        let exec_phases: Vec<(&'static str, u64, f64)> = {
            let m = rescue_telemetry::metrics::snapshot();
            ["exec.golden_us", "exec.walk_us", "exec.trace_us"]
                .into_iter()
                .filter_map(|name| {
                    let h = m.histogram(name)?;
                    (h.total > 0).then(|| (name, h.total, h.mean()))
                })
                .collect()
        };
        FlowReport {
            design: design.name().to_string(),
            fault_universe: all_faults.len(),
            pruned: pruned_count,
            test_patterns: patterns.len(),
            fault_coverage: campaign.coverage(),
            safety,
            set_derating: set.derating(),
            riif,
            stage_stats: vec![
                ("fault-sim", campaign_run.stats),
                ("classification", classification_run.stats),
                ("set", set_run.stats),
            ],
            stage_spans,
            exec_phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn flow_on_c17_is_complete() {
        let c = generate::c17();
        let r = HolisticFlow::new().run(&c, 64, 1);
        assert_eq!(r.fault_universe, 46);
        assert_eq!(r.pruned, 0, "c17 has no redundancy");
        assert_eq!(r.fault_coverage, 1.0, "ATPG must close c17");
        assert!(r.test_patterns < 20, "compaction works");
        assert!(r.set_derating > 0.0 && r.set_derating < 1.0);
        assert_eq!(r.design, "c17");
        assert!(r.riif.chip_fit() > 0.0);
        let text = r.riif.to_text();
        assert!(RiifDatabase::from_text(&text).is_ok());
        // Every injection stage reports throughput.
        for stage in ["fault-sim", "classification", "set"] {
            let stats = r.stage(stage).expect(stage);
            assert!(stats.injections > 0, "{stage}");
            assert!(stats.injections_per_sec() > 0.0, "{stage}");
        }
        assert_eq!(r.stage("set").unwrap().injections, 300);
    }

    #[test]
    fn flow_prunes_redundant_logic() {
        let net = generate::random_logic(8, 100, 3, 17);
        let r = HolisticFlow::new().run(&net, 64, 2);
        assert!(r.pruned > 0, "random logic has dead/redundant regions");
        assert!(r.fault_coverage > 0.95, "{}", r.fault_coverage);
    }

    #[test]
    fn stage_spans_cover_the_pipeline_when_telemetry_is_on() {
        let _serial = rescue_telemetry::exclusive();
        rescue_telemetry::TelemetryConfig::on().install();
        let r = HolisticFlow::new().run(&generate::c17(), 32, 3);
        rescue_telemetry::TelemetryConfig::off().install();
        for stage in [
            "flow.universe",
            "flow.untestable_prune",
            "flow.atpg",
            "flow.fault_sim",
            "flow.classify",
            "flow.set",
            "flow.riif",
        ] {
            assert!(r.stage_span_ns(stage).is_some(), "{stage} missing");
        }
        // Pipeline order is preserved: ATPG completes before fault-sim.
        let names: Vec<_> = r.stage_spans.iter().map(|(n, _)| *n).collect();
        let atpg = names.iter().position(|&n| n == "flow.atpg").unwrap();
        let fsim = names.iter().position(|&n| n == "flow.fault_sim").unwrap();
        assert!(atpg < fsim);
    }

    #[test]
    fn flow_with_store_caches_the_fault_sim_stage() {
        let net = generate::random_logic(8, 120, 3, 5);
        let plain = HolisticFlow::new().run(&net, 48, 7);
        let store = rescue_campaign::MemStore::new();
        let cold = HolisticFlow::new().run_with_store(&net, 48, 7, Some(&store));
        assert_eq!(cold.fault_coverage, plain.fault_coverage, "bit-identical");
        let fsim = cold.stage("fault-sim").unwrap();
        assert!(fsim.units_total > 0, "durable stage planned units");
        assert_eq!(fsim.units_executed, fsim.units_total, "cold store");
        // Re-submission: the whole stage answers from the store.
        let warm = HolisticFlow::new().run_with_store(&net, 48, 7, Some(&store));
        assert_eq!(warm.fault_coverage, plain.fault_coverage);
        let fsim = warm.stage("fault-sim").unwrap();
        assert_eq!(fsim.units_executed, 0, "warm store executes nothing");
        assert_eq!(fsim.units_cached, fsim.units_total);
        assert_eq!(fsim.cache_hit_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "combinational")]
    fn sequential_rejected() {
        let l = generate::lfsr(4, &[3, 1]);
        HolisticFlow::new().run(&l, 16, 1);
    }
}
