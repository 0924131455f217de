//! Cross-crate integration tests: the holistic flow and the consistency
//! of verdicts between independently implemented engines.

use rescue_core::atpg::podem::{Podem, PodemOutcome};
use rescue_core::faults::reference::ReferenceFaultSimulator;
use rescue_core::faults::{simulate::FaultSimulator, universe};
use rescue_core::flow::HolisticFlow;
use rescue_core::netlist::generate;
use rescue_core::riif::RiifDatabase;
use rescue_core::safety::confidence::cross_check;
use rescue_core::safety::slicing::sliced_campaign;

#[test]
fn holistic_flow_over_the_circuit_zoo() {
    for design in [
        generate::c17(),
        generate::adder(6),
        generate::alu(4),
        generate::parity(12),
        generate::comparator(6),
        generate::mux_tree(3),
    ] {
        let report = HolisticFlow::new().run(&design, 64, 9);
        assert!(
            report.fault_coverage > 0.99,
            "{}: coverage {}",
            report.design,
            report.fault_coverage
        );
        // RIIF round-trips through the text format.
        let back = RiifDatabase::from_text(&report.riif.to_text()).expect("riif parses");
        assert_eq!(back, report.riif);
    }
}

#[test]
fn three_engines_agree_on_random_designs() {
    for seed in [1u64, 2, 3, 4, 5] {
        let net = generate::random_logic(7, 60, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns: Vec<Vec<bool>> = (0..128u32)
            .map(|p| (0..7).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let check = cross_check(&net, &faults, &patterns);
        assert!(
            check.inconsistencies().is_empty(),
            "seed {seed}: {:?}",
            check.inconsistencies()
        );
    }
}

#[test]
fn slicing_never_changes_campaign_verdicts() {
    for seed in [11u64, 12, 13] {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns: Vec<Vec<bool>> = (0..64u32)
            .map(|p| (0..6).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let sliced = sliced_campaign(&net, &faults, &patterns);
        let naive = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        assert_eq!(sliced.report.first_detection(), naive.first_detection());
        assert!(sliced.speedup() >= 1.0);
    }
}

#[test]
fn atpg_closes_what_fault_simulation_confirms() {
    // End-to-end: PODEM's claimed tests, once filled, must be confirmed
    // by the independent fault simulator.
    let net = generate::multiplier(3);
    let faults = universe::stuck_at_universe(&net);
    let podem = Podem::new(&net);
    let sim = FaultSimulator::new(&net);
    let mut patterns = Vec::new();
    let mut untestable = 0;
    for &f in &faults {
        match podem.generate(&net, f) {
            PodemOutcome::Test(cube) => patterns.push(cube.fill_with(true)),
            PodemOutcome::Untestable => untestable += 1,
            PodemOutcome::Aborted => {}
        }
    }
    let report = sim.campaign(&faults, &patterns);
    assert!(
        report.detected_count() + untestable >= faults.len(),
        "detected {} + untestable {untestable} < {}",
        report.detected_count(),
        faults.len()
    );
}

#[test]
fn flow_journal_exports_validate_end_to_end() {
    // Observability end-to-end: run the flow with telemetry on, export
    // the journal through every sink, and hold the exports to the same
    // bar CI holds the quickstart artifact to.
    use rescue_core::telemetry::sinks::validate_jsonl;
    use rescue_core::telemetry::{journal, TelemetryConfig};
    let _serial = rescue_core::telemetry::exclusive();
    TelemetryConfig::on().install();
    let mark = journal::mark();
    let report = HolisticFlow::new().run(&generate::adder(6), 64, 9);
    let j = journal::Journal::take_since(mark).current_thread();
    TelemetryConfig::off().install();
    // The journal round-trips through the JSONL validator...
    let check = validate_jsonl(&j.to_jsonl()).expect("flow journal is well-formed");
    assert_eq!(check.events, j.len());
    assert_eq!(check.begins, check.ends, "every span closed");
    // ...the Chrome trace and markdown sinks render the same stream...
    assert!(j.to_chrome_trace().contains("\"name\":\"flow.atpg\""));
    assert!(j.to_markdown_summary().contains("| flow.fault_sim |"));
    // ...and the report's stage breakdown agrees with the raw journal.
    let journaled: u64 = j
        .with_prefix("flow.")
        .spans()
        .iter()
        .map(|s| s.dur_ns)
        .sum();
    let reported: u64 = report.stage_spans.iter().map(|(_, ns)| ns).sum();
    assert_eq!(reported, journaled);
}

#[test]
fn tmr_reduces_set_derating() {
    use rescue_core::radiation::set_analysis::SetCampaign;
    let inner = generate::parity(8);
    let protected = generate::tmr(&inner);
    let raw = SetCampaign::new(&inner).run(&inner, 300, 5);
    let tmr = SetCampaign::new(&protected).run(&protected, 300, 5);
    assert!(
        tmr.derating() < raw.derating(),
        "TMR {} vs raw {}",
        tmr.derating(),
        raw.derating()
    );
}
