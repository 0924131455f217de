//! Markdown sign-off report generation for flow results.
//!
//! The holistic flow's last mile: render a [`crate::flow::FlowReport`]
//! (or a set of them) into the human-readable sign-off document a
//! safety assessor would review alongside the RIIF data.

use crate::flow::FlowReport;
use rescue_safety::metrics::AsilTarget;
use rescue_telemetry::sinks::human_ns;
use std::fmt::Write as _;

/// Renders one flow report as a markdown section.
pub fn render_report(report: &FlowReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "## Design `{}`", report.design);
    let _ = writeln!(s);
    let _ = writeln!(s, "| metric | value |");
    let _ = writeln!(s, "|---|---|");
    let _ = writeln!(s, "| stuck-at fault universe | {} |", report.fault_universe);
    let _ = writeln!(
        s,
        "| removed before simulation | {} ({:.1} %) |",
        report.pruned,
        100.0 * report.pruned as f64 / report.fault_universe.max(1) as f64
    );
    let _ = writeln!(s, "| compacted test patterns | {} |", report.test_patterns);
    let _ = writeln!(
        s,
        "| fault coverage | {:.2} % |",
        report.fault_coverage * 100.0
    );
    let _ = writeln!(s, "| SPFM | {:.2} % |", report.safety.spfm * 100.0);
    let _ = writeln!(s, "| LFM | {:.2} % |", report.safety.lfm * 100.0);
    let _ = writeln!(s, "| PMHF | {} |", report.safety.pmhf);
    let _ = writeln!(s, "| SET derating | {:.3} |", report.set_derating);
    for asil in [AsilTarget::B, AsilTarget::C, AsilTarget::D] {
        let _ = writeln!(
            s,
            "| meets ASIL-{asil:?} | {} |",
            if report.safety.meets(asil) {
                "yes"
            } else {
                "no"
            }
        );
    }
    let _ = writeln!(s);
    if !report.stage_stats.is_empty() {
        let _ = writeln!(s, "### Campaign throughput");
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| stage | injections | walked | traced | walked / injections | inj/s | lane occupancy | dropped | stolen chunks | cached units |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|---|---|---|---|");
        for (stage, stats) in &report.stage_stats {
            // Durable stages report how much of the plan the result
            // store answered; non-durable stages have no units at all.
            let cached = if stats.units_total == 0 {
                "-".to_string()
            } else {
                format!("{}/{}", stats.units_cached, stats.units_total)
            };
            let _ = writeln!(
                s,
                "| {stage} | {} | {} | {} | {:.1} % | {:.0} | {:.1} % | {} | {} | {cached} |",
                stats.injections,
                stats.faults_walked,
                stats.faults_traced,
                stats.collapse_ratio() * 100.0,
                stats.injections_per_sec(),
                stats.lane_occupancy() * 100.0,
                stats.dropped,
                stats.chunks_stolen
            );
        }
        let _ = writeln!(s);
        // Per-phase execution breakdown from the `exec.*` telemetry
        // histograms (golden simulation / cone walks / trace ascent).
        // Present only when telemetry recorded the packed engine.
        if !report.exec_phases.is_empty() {
            let _ = writeln!(s, "#### Execution phases (telemetry histograms)");
            let _ = writeln!(s);
            let _ = writeln!(s, "| phase | samples | mean |");
            let _ = writeln!(s, "|---|---|---|");
            for (phase, samples, mean_us) in &report.exec_phases {
                let _ = writeln!(s, "| {phase} | {samples} | {mean_us:.1} µs |");
            }
            let _ = writeln!(s);
        }
    }
    if !report.stage_spans.is_empty() {
        let _ = writeln!(s, "### Stage timing (telemetry journal)");
        let _ = writeln!(s);
        let _ = writeln!(s, "| stage | wall-clock | share |");
        let _ = writeln!(s, "|---|---|---|");
        let total: u64 = report.stage_spans.iter().map(|(_, ns)| ns).sum();
        for (stage, ns) in &report.stage_spans {
            let _ = writeln!(
                s,
                "| {stage} | {} | {:.1} % |",
                human_ns(*ns),
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "### RIIF export");
    let _ = writeln!(s);
    let _ = writeln!(s, "```riif");
    s.push_str(&report.riif.to_text());
    let _ = writeln!(s, "```");
    s
}

/// Renders a multi-design sign-off document.
pub fn render_signoff(title: &str, reports: &[FlowReport]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "{} designs analysed; aggregate chip-level rate {:.3} FIT.",
        reports.len(),
        reports.iter().map(|r| r.riif.chip_fit()).sum::<f64>()
    );
    let _ = writeln!(s);
    for r in reports {
        s.push_str(&render_report(r));
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::HolisticFlow;
    use rescue_netlist::generate;

    #[test]
    fn report_contains_all_metrics() {
        let r = HolisticFlow::new().run(&generate::c17(), 32, 1);
        let md = render_report(&r);
        assert!(md.contains("## Design `c17`"));
        assert!(md.contains("| fault coverage | 100.00 % |"));
        assert!(md.contains("```riif"));
        assert!(md.contains("meets ASIL-D"));
        assert!(md.contains("### Campaign throughput"));
        assert!(md.contains("| classification |"));
    }

    #[test]
    fn report_renders_stage_timing_when_telemetry_is_on() {
        let _serial = rescue_telemetry::exclusive();
        rescue_telemetry::TelemetryConfig::on().install();
        let r = HolisticFlow::new().run(&generate::c17(), 32, 1);
        rescue_telemetry::TelemetryConfig::off().install();
        let md = render_report(&r);
        assert!(md.contains("### Stage timing (telemetry journal)"));
        assert!(md.contains("| flow.atpg |"));
        assert!(md.contains("| flow.fault_sim |"));
        assert!(md.contains("#### Execution phases (telemetry histograms)"));
        assert!(md.contains("| exec.golden_us |"));
        assert!(md.contains("| dropped | stolen chunks | cached units |"));
    }

    #[test]
    fn signoff_aggregates() {
        let reports = vec![
            HolisticFlow::new().run(&generate::c17(), 32, 1),
            HolisticFlow::new().run(&generate::adder(4), 32, 1),
        ];
        let md = render_signoff("SoC sign-off", &reports);
        assert!(md.starts_with("# SoC sign-off"));
        assert!(md.contains("2 designs analysed"));
        assert!(md.contains("c17"));
        assert!(md.contains("adder4"));
    }
}
