//! A durable campaign computes nothing it does not read.
//!
//! A re-submission whose units are all in the store must build neither
//! golden values nor a detection engine: no `exec.golden` and no
//! `plan.build` span on any thread. A resume with units missing builds
//! them exactly once, on the calling thread, outside every
//! `campaign.run` / `campaign.chunk` span, and its timing figures leave
//! that preparation out.
//!
//! Every test here records telemetry and asserts over spans from all
//! threads, so each one holds [`rescue_telemetry::exclusive`] for its
//! whole body.

use rescue_campaign::{Campaign, MemStore, ResultStore};
use rescue_faults::collapse::collapse;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::generate;
use rescue_telemetry::journal::{self, Journal, SpanRecord};
use rescue_telemetry::TelemetryConfig;

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

fn named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// True when a `campaign.run` or `campaign.chunk` span on `s`'s thread
/// encloses `s`.
fn inside_campaign_run(spans: &[SpanRecord], s: &SpanRecord) -> bool {
    spans.iter().any(|r| {
        matches!(r.name, "campaign.run" | "campaign.chunk")
            && r.tid == s.tid
            && r.start_ns <= s.start_ns
            && s.start_ns + s.dur_ns <= r.start_ns + r.dur_ns
    })
}

#[test]
fn a_resubmission_reads_the_store_and_builds_nothing() {
    let _exclusive = rescue_telemetry::exclusive();
    let net = generate::random_logic(8, 160, 4, 23);
    let patterns = random_patterns(8, 700, 23);
    let faults = universe::stuck_at_universe(&net);
    let cu = collapse(&net, &faults);
    let sim = FaultSimulator::new(&net);
    let grain = 16;
    for lane_width in [1, 4] {
        for tracing in [false, true] {
            let mut opts = PackedOptions::wide(lane_width).with_collapsed(&cu);
            if tracing {
                opts = opts.traced();
            }
            let config = format!("W={lane_width} tracing={tracing}");
            let campaign = Campaign::new(23, 2);
            let plain = sim.campaign_packed(&faults, &patterns, &campaign, opts);
            let store = MemStore::new();
            sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &store, grain);
            let manifest = sim.durable_plan(&faults, &patterns, &opts, grain);
            assert!(manifest.units.len() > 2, "{config}");

            // Warm: every unit in the store.
            TelemetryConfig::on().install();
            let mark = journal::mark();
            let warm =
                sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &store, grain);
            let spans = Journal::snapshot_since(mark).spans();
            TelemetryConfig::off().install();
            assert_eq!(named(&spans, "fault.campaign_durable").len(), 1, "{config}");
            assert!(named(&spans, "exec.golden").is_empty(), "{config}: golden");
            assert!(named(&spans, "plan.build").is_empty(), "{config}: plan");
            assert_eq!(warm.report, plain.report, "{config}");
            assert_eq!(warm.stats.units_executed, 0, "{config}");
            assert_eq!(
                warm.stats.faults_traced, 0,
                "{config}: no plan, none traced"
            );
            assert_eq!(warm.stats.tally, plain.stats.tally, "{config}");
            assert_eq!(warm.stats.dropped, plain.stats.dropped, "{config}");
            assert_eq!(
                warm.stats.faults_walked, plain.stats.faults_walked,
                "{config}"
            );
            assert!(warm.stats.worker_ns.is_empty(), "{config}");

            // Half the units missing: one preparation, on this thread.
            let partial = MemStore::new();
            for unit in manifest.units.iter().step_by(2) {
                partial.put(
                    unit.id,
                    &store.get(unit.id).expect("the cold run stored it"),
                );
            }
            TelemetryConfig::on().install();
            let mark = journal::mark();
            let resumed =
                sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &partial, grain);
            let spans = Journal::snapshot_since(mark).spans();
            TelemetryConfig::off().install();
            let golden = named(&spans, "exec.golden");
            assert_eq!(golden.len(), 1, "{config}: one golden fill");
            assert_eq!(
                golden[0].tid,
                rescue_telemetry::event::current_tid(),
                "{config}"
            );
            for s in golden.iter().chain(&named(&spans, "plan.build")) {
                assert!(
                    !inside_campaign_run(&spans, s),
                    "{config}: {} nested",
                    s.name
                );
            }
            // The fill stays out of the run's timing figures.
            let outer = named(&spans, "fault.campaign_durable");
            assert!(
                resumed.stats.elapsed_ns + golden[0].dur_ns <= outer[0].dur_ns,
                "{config}: elapsed includes the golden fill"
            );
            assert_eq!(resumed.report, plain.report, "{config}");
            assert_eq!(
                resumed.stats.units_executed,
                manifest.units.len() / 2,
                "{config}"
            );
            assert_eq!(
                resumed.stats.faults_traced, plain.stats.faults_traced,
                "{config}"
            );
        }
    }
}

/// The plain path fills the arena once, on the calling thread, before
/// the schedule starts.
#[test]
fn the_plain_path_fills_once_outside_the_schedule() {
    let _exclusive = rescue_telemetry::exclusive();
    let net = generate::random_logic(8, 160, 4, 29);
    let patterns = random_patterns(8, 300, 29);
    let faults = universe::stuck_at_universe(&net);
    let sim = FaultSimulator::new(&net);
    for opts in [PackedOptions::wide(1), PackedOptions::wide(4)] {
        TelemetryConfig::on().install();
        let mark = journal::mark();
        sim.campaign_packed(&faults, &patterns, &Campaign::new(29, 2), opts);
        let spans = Journal::snapshot_since(mark).spans();
        TelemetryConfig::off().install();
        let golden = named(&spans, "exec.golden");
        assert_eq!(golden.len(), 1);
        assert_eq!(golden[0].tid, rescue_telemetry::event::current_tid());
        for s in golden.iter().chain(&named(&spans, "plan.build")) {
            assert!(!inside_campaign_run(&spans, s), "{} nested", s.name);
        }
    }
}

/// The gate table is derived state: compiling builds it once, under a
/// `sim.gate_table` span inside `sim.compile`.
#[test]
fn the_gate_table_builds_inside_sim_compile() {
    let _exclusive = rescue_telemetry::exclusive();
    let net = generate::random_logic(6, 80, 3, 3);
    TelemetryConfig::on().install();
    let mark = journal::mark();
    FaultSimulator::new(&net);
    let spans = Journal::snapshot_since(mark).spans();
    TelemetryConfig::off().install();
    let [compile] = named(&spans, "sim.compile")[..] else {
        panic!("one sim.compile span");
    };
    let [table] = named(&spans, "sim.gate_table")[..] else {
        panic!("one table build");
    };
    assert!(
        table.tid == compile.tid
            && compile.start_ns <= table.start_ns
            && table.start_ns + table.dur_ns <= compile.start_ns + compile.dur_ns,
        "the table build sits inside sim.compile"
    );
}
