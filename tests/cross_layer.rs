//! Cross-layer scenarios: interactions *between* the reliability,
//! security and quality tools — the paper's core thesis that these
//! aspects are interdependent.

use rescue_core::aging::bti::BtiModel;
use rescue_core::aging::delay::{aged_timing, OperatingPoint};
use rescue_core::aging::rejuvenation;
use rescue_core::atpg::scoap::Cop;
use rescue_core::cpu::autosoc::{run_campaign, AutoSocConfig};
use rescue_core::cpu::programs;
use rescue_core::fault_mgmt::{evaluate, event_mix, Policy};
use rescue_core::mem::march::{classic_universe, march_cm, march_coverage};
use rescue_core::mem::sensor::{compare_dft, CurrentSensor};
use rescue_core::mem::FinfetDefect;
use rescue_core::netlist::generate;

#[test]
fn aging_uses_quality_tools_signal_probabilities() {
    // Quality → reliability: COP signal probabilities (an ATPG-side
    // measure) drive the NBTI duty model.
    let net = generate::alu(4);
    let cop = Cop::analyze(&net);
    let p_one: Vec<f64> = net.ids().map(|id| cop.p_one(id)).collect();
    let timing = aged_timing(
        &net,
        &p_one,
        &BtiModel::bulk_28nm(),
        OperatingPoint::nominal(),
        10.0,
        380.0,
    );
    assert!(timing.slowdown() > 1.0);
    // Rejuvenation patterns reduce the imbalance the COP profile showed.
    let r = rejuvenation::evolve(&net, 12, 80, 5);
    assert!(r.evolved.mean_imbalance <= r.baseline.mean_imbalance);
}

#[test]
fn finfet_defects_split_between_march_and_sensor() {
    // Quality (March tests) and reliability (weak cells) need different
    // detectors; only the combination closes the FinFET defect list.
    let mut faults = Vec::new();
    for c in 0..12 {
        faults.push(
            FinfetDefect::ChannelCrack {
                cell: c,
                severity: 3,
            }
            .to_cell_fault(),
        );
        faults.push(
            FinfetDefect::GateOxideShort {
                cell: c,
                severity: 0,
            }
            .to_cell_fault(),
        );
    }
    let cmp = compare_dft(&march_cm(), CurrentSensor::new(0.15), 12, &faults);
    assert!(cmp.march_only < 0.6);
    assert_eq!(cmp.combined, 1.0);
    // ...while the classic universe alone is fully covered by March C-.
    let classic = classic_universe(12);
    assert_eq!(march_coverage(&march_cm(), 12, &classic), 1.0);
}

#[test]
fn safety_mechanisms_trade_area_for_sdc() {
    let w = programs::matmul().expect("assembles");
    let base = run_campaign(AutoSocConfig::Baseline, &w, 20, 3);
    let full = run_campaign(AutoSocConfig::LockstepEcc, &w, 20, 3);
    assert!(full.sdc <= base.sdc);
    assert!(AutoSocConfig::LockstepEcc.area_overhead() > AutoSocConfig::Baseline.area_overhead());
}

#[test]
fn cross_layer_management_beats_single_layer() {
    let events = event_mix(400, 0.2, 13);
    let mitm = evaluate(Policy::MeetInTheMiddle, &events);
    let high = evaluate(Policy::HighLevelOnly, &events);
    let low = evaluate(Policy::LowLevelOnly, &events);
    assert!(mitm.mean_latency < high.mean_latency);
    assert!(mitm.mean_latency <= low.mean_latency);
    // The middle ground keeps the high-level manager's adaptivity…
    assert!(mitm.recurrences_prevented > 0);
    // …while handling the simple majority locally.
    assert!(mitm.local_handled > mitm.escalations);
}

#[test]
fn security_blocks_scan_access_story() {
    // Quality infrastructure (RSN) is a security liability: the same
    // access plan that calibrates an instrument reads out a key register.
    use rescue_core::rsn::access::access_sequence;
    use rescue_core::rsn::network::{RsnNode, ScanNetwork};
    let mut net = ScanNetwork::new(RsnNode::chain(vec![
        RsnNode::sib("dbg", RsnNode::tdr("debug_reg", 8)),
        RsnNode::sib("sec", RsnNode::tdr("key_reg", 16)),
    ]));
    let plan = access_sequence(&mut net, "key_reg", &[true; 16]).expect("plan found");
    assert!(
        plan.csu_count() >= 2,
        "an attacker reaches the key register through the test network"
    );
    // The RESCUE answer: keys should live in PUFs, not scan-accessible
    // registers (Section III.F).
    use rescue_core::mem::puf::{Environment, SramPuf};
    use rescue_core::security::keystore::PufKeyStore;
    let puf = SramPuf::manufacture(160, 1);
    let store = PufKeyStore::new(5);
    let (key, helper) = store.enroll(&puf);
    let clone = SramPuf::manufacture(160, 2);
    assert_ne!(
        store.reconstruct(&clone, &helper, Environment::nominal(), 4),
        key,
        "helper data without the physical device yields nothing"
    );
}

#[test]
fn one_journal_captures_every_layer_of_a_mixed_run() {
    // Observability is itself cross-layer: quality (fault sim), safety
    // (classification) and reliability (SEU) campaigns all report into
    // the same journal and metrics registry, so one export shows where
    // a mixed analysis spent its time.
    use rescue_core::campaign::Campaign;
    use rescue_core::faults::simulate::{FaultSimulator, PackedOptions};
    use rescue_core::faults::universe;
    use rescue_core::radiation::seu_analysis::SeuCampaign;
    use rescue_core::safety::classify::classify_with_stats;
    use rescue_core::telemetry::{journal, metrics, TelemetryConfig};
    let _serial = rescue_core::telemetry::exclusive();
    TelemetryConfig::on().install();
    metrics::reset();
    let mark = journal::mark();
    let driver = Campaign::serial();

    let comb = generate::random_logic(6, 60, 3, 21);
    let faults = universe::stuck_at_universe(&comb);
    let patterns: Vec<Vec<bool>> = (0..32u32)
        .map(|p| (0..6).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let outputs: Vec<String> = comb
        .primary_outputs()
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    FaultSimulator::new(&comb).campaign_packed(
        &faults,
        &patterns,
        &driver,
        PackedOptions::default(),
    );
    classify_with_stats(&comb, &faults, &outputs, &[], &patterns, &driver);
    let seq = generate::lfsr(6, &[5, 1]);
    SeuCampaign::new(4, 6).run_exhaustive_on(&seq, &[], &driver);

    let j = journal::Journal::take_since(mark).current_thread();
    let snap = metrics::snapshot();
    TelemetryConfig::off().install();
    metrics::reset();

    let names: Vec<&str> = j.spans().iter().map(|s| s.name).collect();
    for span in ["fault.campaign", "safety.classify", "seu.campaign"] {
        assert!(names.contains(&span), "{span} missing from {names:?}");
    }
    assert_eq!(j.unmatched_begins(), 0);
    // Each layer also left its engine-level metrics behind.
    assert!(snap.counter("fault.faults_evaluated").unwrap_or(0) > 0);
    assert!(snap.counter("sim.seq_steps").unwrap_or(0) > 0);
    assert!(
        snap.histogram("fault.packed_lanes")
            .map(|h| h.total)
            .unwrap_or(0)
            > 0
    );
}
