//! E15 — PPSFP bit-parallel fault simulation: the packed observability
//! path with fault dropping and the work-stealing campaign scheduler.
//!
//! Workload fixed by the acceptance criterion — the same as E12: the
//! complete stuck-at universe of `random_logic(16, 2000, 4, 12)` under
//! 1000 random patterns. The run first checks every variant is
//! verdict-identical to the full-resimulation oracle's dropping
//! campaign, then times the ablation ladder:
//!
//! * `ppsfp_nodrop` — packed observability path, **no** dropping
//!   (isolates the one-walk-per-site factoring);
//! * `ppsfp_serial` — packed + dropping, one worker;
//! * `ppsfp_dynamic4` — packed + dropping over 4 workers through the
//!   work-stealing chunk queue.
//!
//! Measurements land in `BENCH_ppsfp.json` with the execution
//! environment (workers, lane width, host CPUs) recorded, because the
//! 4-worker figure is only interpretable next to the host CPU count.
//! The 4-worker speedup assertion is gated on
//! `host_cpus() >= 4`: thread parallelism physically cannot help on the
//! 1-CPU runners.
//!
//! Set `E15_SMOKE=1` for a seconds-scale CI smoke run: a small workload
//! through the packed engine with telemetry enabled, exporting the run
//! journal to `e15_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, host_cpus, random_patterns};
use rescue_core::campaign::Campaign;
use rescue_core::faults::engine::{CampaignPlan, FaultScratch};
use rescue_core::faults::reference::ReferenceFaultSimulator;
use rescue_core::faults::simulate::{CampaignRun, FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate;
use rescue_core::sim::parallel::{live_mask, pack_patterns};
use rescue_core::telemetry::{journal, TelemetryConfig};
use std::time::Instant;

const N_INPUTS: usize = 16;
const N_GATES: usize = 2000;
const N_OUTPUTS: usize = 4;
const N_PATTERNS: usize = 1000;
const SEED: u64 = 12;
const WORKERS: usize = 4;

/// Median wall-clock seconds of `f` over `runs` executions.
fn median_secs<F: FnMut()>(mut f: F, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Packed campaign with dropping disabled: every fault is probed on
/// every word through the public engine API. Isolates the
/// one-observability-walk-per-site factoring from the dropping win.
/// Builds its own plan so every ladder rung pays the same setup cost.
fn ppsfp_no_dropping(
    sim: &FaultSimulator,
    faults: &[rescue_core::faults::Fault],
    patterns: &[Vec<bool>],
) -> Vec<Option<usize>> {
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, faults);
    let mut scratch = FaultScratch::new(c.len());
    let mut first: Vec<Option<usize>> = vec![None; faults.len()];
    for (ci, chunk) in patterns.chunks(64).enumerate() {
        let words = pack_patterns(chunk);
        let golden = sim.golden(&words);
        scratch.load_golden(&golden);
        let live = live_mask(chunk.len());
        for (fi, &fault) in faults.iter().enumerate() {
            let mask = plan.detect_packed(c, &golden, &mut scratch, fault).unwrap() & live;
            if first[fi].is_none() && mask != 0 {
                first[fi] = Some(ci * 64 + mask.trailing_zeros() as usize);
            }
        }
    }
    first
}

/// The default packed dropping campaign over `campaign`'s workers.
fn ppsfp(
    sim: &FaultSimulator,
    faults: &[rescue_core::faults::Fault],
    patterns: &[Vec<bool>],
    campaign: &Campaign,
) -> CampaignRun {
    sim.campaign_packed(faults, patterns, campaign, PackedOptions::default())
}

fn bench(c: &mut Criterion) {
    banner(
        "E15",
        "PPSFP packed fault simulation + work-stealing scheduler",
    );
    let smoke = std::env::var("E15_SMOKE").is_ok_and(|v| v == "1");
    let (n_gates, n_patterns) = if smoke {
        (200, 100)
    } else {
        (N_GATES, N_PATTERNS)
    };
    let net = generate::random_logic(N_INPUTS, n_gates, N_OUTPUTS, SEED);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(N_INPUTS, n_patterns, SEED ^ 0x9e37);
    let sim = FaultSimulator::new(&net);
    let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);

    if smoke {
        // CI smoke: packed engine on the small workload with telemetry
        // on, journal exported for journal_check. Equivalence gate only.
        TelemetryConfig::on().install();
        let mark = journal::mark();
        let dynamic = ppsfp(&sim, &faults, &patterns, &Campaign::new(0, 2));
        assert_eq!(
            dynamic.report.first_detection(),
            oracle.first_detection(),
            "packed engine disagrees with the oracle; refusing smoke pass"
        );
        let j = journal::Journal::take_since(mark);
        TelemetryConfig::off().install();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e15_smoke.jsonl");
        j.export_jsonl(std::path::Path::new(path))
            .expect("write smoke journal");
        blog!(
            "  smoke: {} faults, {} patterns, coverage {:.1}%, {} journal events -> {path}",
            faults.len(),
            patterns.len(),
            dynamic.report.coverage() * 100.0,
            j.len()
        );
        return;
    }

    // Equivalence gate before any timing: every variant must reproduce
    // the oracle's dropping campaign bit-for-bit.
    assert_eq!(
        ppsfp_no_dropping(&sim, &faults, &patterns),
        oracle.first_detection(),
        "packed no-drop path disagrees; refusing to benchmark"
    );
    let serial_campaign = Campaign::new(0, 1);
    let dynamic4 = Campaign::new(0, WORKERS);
    for campaign in [&serial_campaign, &dynamic4] {
        let run = ppsfp(&sim, &faults, &patterns, campaign);
        assert_eq!(
            run.report.first_detection(),
            oracle.first_detection(),
            "packed engine disagrees at {} workers; refusing to benchmark",
            campaign.workers
        );
    }
    let coverage = oracle.coverage();
    let sample = ppsfp(&sim, &faults, &patterns, &dynamic4);
    let (dropped, steals) = (sample.stats.dropped, sample.stats.chunks_stolen);

    let t_nodrop = median_secs(
        || {
            std::hint::black_box(ppsfp_no_dropping(&sim, &faults, &patterns));
        },
        5,
    );
    let time = |campaign: &Campaign| {
        median_secs(
            || {
                std::hint::black_box(ppsfp(&sim, &faults, &patterns, campaign));
            },
            7,
        )
    };
    let t_serial = time(&serial_campaign);
    let t_dynamic4 = time(&dynamic4);

    let work = faults.len() as f64 * patterns.len() as f64;
    let speedup_dyn = t_serial / t_dynamic4;
    blog!(
        "\n  workload: {} gates, {} faults, {} patterns (coverage {:.1}%, {} dropped, {} chunks stolen)",
        net.len(),
        faults.len(),
        patterns.len(),
        coverage * 100.0,
        dropped,
        steals
    );
    blog!("  engine                          time        Mfault*pat/s   vs ppsfp_serial");
    for (name, t) in [
        ("ppsfp packed, no dropping  ", t_nodrop),
        ("ppsfp packed+drop, serial  ", t_serial),
        ("ppsfp packed+drop, dynamic4", t_dynamic4),
    ] {
        blog!(
            "  {name}  {:>9.1} ms   {:>10.1}   {:>7.2}x",
            t * 1e3,
            work / t / 1e6,
            t_serial / t
        );
    }
    if host_cpus() >= WORKERS {
        assert!(
            speedup_dyn >= 2.5,
            "acceptance criterion: run_dynamic at {WORKERS} workers must be \
             >= 2.5x over its own serial on a >= {WORKERS}-CPU host \
             (got {speedup_dyn:.2}x on {} CPUs)",
            host_cpus()
        );
    } else {
        blog!(
            "  (skipping {WORKERS}-worker speedup assertion: host has {} CPU(s))",
            host_cpus()
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e15_ppsfp\",\n  {},\n  \"workload\": {{\n    \
         \"netlist\": \"random_logic({N_INPUTS}, {N_GATES}, {N_OUTPUTS}, {SEED})\",\n    \
         \"gates\": {},\n    \"faults\": {},\n    \"patterns\": {},\n    \
         \"coverage\": {:.4},\n    \"dropped_faults\": {},\n    \
         \"chunks_stolen\": {}\n  }},\n  \"seconds\": {{\n    \
         \"ppsfp_nodrop\": {:.6},\n    \"ppsfp_serial\": {:.6},\n    \
         \"ppsfp_dynamic_4\": {:.6}\n  }},\n  \
         \"dropping_speedup\": {:.2},\n  \
         \"dynamic_4_over_ppsfp_serial\": {:.2}\n}}\n",
        env_json(WORKERS, 64),
        net.len(),
        faults.len(),
        patterns.len(),
        coverage,
        dropped,
        steals,
        t_nodrop,
        t_serial,
        t_dynamic4,
        t_nodrop / t_serial,
        speedup_dyn,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ppsfp.json");
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    c.bench_function("e15_ppsfp_serial", |b| {
        b.iter(|| std::hint::black_box(ppsfp(&sim, &faults, &patterns, &serial_campaign)))
    });
    c.bench_function("e15_ppsfp_dynamic4", |b| {
        b.iter(|| std::hint::black_box(ppsfp(&sim, &faults, &patterns, &dynamic4)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
