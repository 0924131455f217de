//! E17 — critical-path tracing / cone-walk hybrid fault simulation.
//!
//! Two workload rungs on the big-circuit ladder:
//!
//! * **small** — `random_logic(16, 2000, 4, 12)` under 1000 random
//!   patterns (the E15/E16 workload, kept as the smoke-sized rung and
//!   for cross-experiment comparability);
//! * **big** — `random_logic(32, 50000, 8, 17)` under 512 random
//!   patterns (~50k gates, the rung the acceptance criterion is measured
//!   on).
//!
//! On each rung the ablation ladder isolates where the tracing win comes
//! from, all serial (one worker) so the engine is measured, not the
//! scheduler:
//!
//! * `walk` — the E16 baseline: W=4 packed cone walks over the collapsed
//!   universe (one event-driven walk per live site per 256-pattern word);
//! * `trace` — W=4 with critical-path tracing, collapse off (observability
//!   by backward sensitization, walks only at reconvergent stems);
//! * `hybrid` — W=4 with tracing *and* the collapsed universe — the full
//!   CPT stack.
//!
//! The small rung is equivalence-gated against the full-resimulation
//! oracle before any timing; the big rung gates hybrid against walk (the
//! walking engine itself is checked against the oracle by
//! `crates/faults/tests/differential.rs`).
//! Measurements land in `BENCH_cpt.json` with the execution environment
//! (workers, lane width, host CPUs) recorded. The hybrid-over-walk >= 2x
//! acceptance assertion on the big rung is gated on `host_cpus() >= 4`,
//! like E15/E16: 1-CPU runners measure the machine, not the engine.
//!
//! Set `E17_SMOKE=1` for a seconds-scale CI smoke run: a small workload
//! through the hybrid engine with telemetry enabled, exporting the run
//! journal to `e17_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, host_cpus, random_patterns, warn_env_drift};
use rescue_core::campaign::Campaign;
use rescue_core::faults::collapse::collapse;
use rescue_core::faults::reference::ReferenceFaultSimulator;
use rescue_core::faults::simulate::{FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate;
use rescue_core::telemetry::{journal, TelemetryConfig};
use std::time::Instant;

const SMALL_INPUTS: usize = 16;
const SMALL_GATES: usize = 2000;
const SMALL_OUTPUTS: usize = 4;
const SMALL_PATTERNS: usize = 1000;
const SMALL_SEED: u64 = 12;
const BIG_INPUTS: usize = 32;
const BIG_GATES: usize = 50_000;
const BIG_OUTPUTS: usize = 8;
const BIG_PATTERNS: usize = 512;
const BIG_SEED: u64 = 17;
const WORKERS: usize = 1;

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

/// One rung of the ablation ladder: `(walk, trace, hybrid)` median
/// seconds plus the hybrid run's tracing stats.
struct Rung {
    gates: usize,
    faults: usize,
    walked: usize,
    traced: usize,
    traced_fraction: f64,
    coverage: f64,
    t_walk: f64,
    t_trace: f64,
    t_hybrid: f64,
}

fn run_rung(
    n_inputs: usize,
    n_gates: usize,
    n_outputs: usize,
    n_patterns: usize,
    seed: u64,
    runs: usize,
    oracle_gate: bool,
) -> Rung {
    let net = generate::random_logic(n_inputs, n_gates, n_outputs, seed);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(n_inputs, n_patterns, seed ^ 0x9e37);
    let sim = FaultSimulator::new(&net);
    let collapsed = collapse(&net, &faults);
    let serial = Campaign::new(0, 1);
    let walk_opts = PackedOptions::wide(4).with_collapsed(&collapsed);
    let trace_opts = PackedOptions::wide(4).traced();
    let hybrid_opts = PackedOptions::wide(4).with_collapsed(&collapsed).traced();

    // Equivalence gate before any timing. The small rung checks every
    // engine against the oracle; the big rung checks trace and hybrid
    // against walk (whose oracle equivalence is E16's gate and
    // the differential matrix).
    let walk_run = sim.campaign_packed(&faults, &patterns, &serial, walk_opts);
    let reference = if oracle_gate {
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        assert_eq!(
            walk_run.report.first_detection(),
            oracle.first_detection(),
            "walking engine disagrees with the oracle; refusing to benchmark"
        );
        oracle
    } else {
        walk_run.report.clone()
    };
    for (name, opts) in [("trace", trace_opts), ("hybrid", hybrid_opts)] {
        let run = sim.campaign_packed(&faults, &patterns, &serial, opts);
        assert_eq!(
            run.report.first_detection(),
            reference.first_detection(),
            "{name} engine disagrees on {n_gates}-gate rung; refusing to benchmark"
        );
    }
    let hybrid_run = sim.campaign_packed(&faults, &patterns, &serial, hybrid_opts);

    let time = |opts: PackedOptions| {
        median_secs(
            || {
                std::hint::black_box(sim.campaign_packed(&faults, &patterns, &serial, opts));
            },
            runs,
        )
    };
    Rung {
        gates: net.len(),
        faults: faults.len(),
        walked: hybrid_run.stats.faults_walked,
        traced: hybrid_run.stats.faults_traced,
        traced_fraction: hybrid_run.stats.traced_fraction(),
        coverage: reference.coverage(),
        t_walk: time(walk_opts),
        t_trace: time(trace_opts),
        t_hybrid: time(hybrid_opts),
    }
}

fn bench(c: &mut Criterion) {
    banner("E17", "critical-path tracing / cone-walk hybrid");
    let smoke = std::env::var("E17_SMOKE").is_ok_and(|v| v == "1");

    if smoke {
        // CI smoke: hybrid engine on a small workload with telemetry on,
        // journal exported for journal_check. Equivalence gate only.
        let net = generate::random_logic(SMALL_INPUTS, 200, SMALL_OUTPUTS, SMALL_SEED);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(SMALL_INPUTS, 100, SMALL_SEED ^ 0x9e37);
        let sim = FaultSimulator::new(&net);
        let collapsed = collapse(&net, &faults);
        TelemetryConfig::on().install();
        let mark = journal::mark();
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        let hybrid = sim.campaign_packed(
            &faults,
            &patterns,
            &Campaign::new(0, 2),
            PackedOptions::wide(4).with_collapsed(&collapsed).traced(),
        );
        assert_eq!(
            hybrid.report.first_detection(),
            oracle.first_detection(),
            "hybrid engine disagrees with the oracle; refusing smoke pass"
        );
        let j = journal::Journal::take_since(mark);
        TelemetryConfig::off().install();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e17_smoke.jsonl");
        j.export_jsonl(std::path::Path::new(path))
            .expect("write smoke journal");
        blog!(
            "  smoke: {} faults, {} walked, {} statically traced ({:.0}%), \
             coverage {:.1}%, {} journal events -> {path}",
            faults.len(),
            hybrid.stats.faults_walked,
            hybrid.stats.faults_traced,
            hybrid.stats.traced_fraction() * 100.0,
            hybrid.report.coverage() * 100.0,
            j.len()
        );
        return;
    }

    let small = run_rung(
        SMALL_INPUTS,
        SMALL_GATES,
        SMALL_OUTPUTS,
        SMALL_PATTERNS,
        SMALL_SEED,
        7,
        true,
    );
    let big = run_rung(
        BIG_INPUTS,
        BIG_GATES,
        BIG_OUTPUTS,
        BIG_PATTERNS,
        BIG_SEED,
        3,
        false,
    );

    for (name, r) in [("small", &small), ("big", &big)] {
        blog!(
            "\n  {name} rung: {} gates, {} faults ({} walked, {} statically traced = {:.0}%), \
             coverage {:.1}%",
            r.gates,
            r.faults,
            r.walked,
            r.traced,
            r.traced_fraction * 100.0,
            r.coverage * 100.0
        );
        blog!("  engine                time        vs walk");
        for (engine, t) in [
            ("walk (w4+collapse) ", r.t_walk),
            ("trace (w4)         ", r.t_trace),
            ("hybrid (w4+c+trace)", r.t_hybrid),
        ] {
            blog!("  {engine}  {:>9.1} ms   {:>6.2}x", t * 1e3, r.t_walk / t);
        }
    }
    let hybrid_over_walk = big.t_walk / big.t_hybrid;
    if host_cpus() >= 4 {
        assert!(
            hybrid_over_walk >= 2.0,
            "acceptance criterion: hybrid must be >= 2x over the walking \
             W=4 collapsed engine on the {BIG_GATES}-gate rung on a >= 4-CPU \
             host (got {hybrid_over_walk:.2}x on {} CPUs)",
            host_cpus()
        );
    } else {
        blog!(
            "  (skipping hybrid >= 2x acceptance assertion: host has {} CPU(s))",
            host_cpus()
        );
    }

    let rung_json = |r: &Rung| {
        format!(
            "{{\n      \"gates\": {},\n      \"faults\": {},\n      \"faults_walked\": {},\n      \
             \"faults_traced\": {},\n      \"traced_fraction\": {:.4},\n      \
             \"coverage\": {:.4},\n      \"seconds\": {{\n        \"walk_w4_collapsed\": {:.6},\n        \
             \"trace_w4\": {:.6},\n        \"hybrid_w4_collapsed\": {:.6}\n      }},\n      \
             \"speedup_over_walk\": {{\n        \"trace\": {:.2},\n        \"hybrid\": {:.2}\n      }}\n    }}",
            r.gates,
            r.faults,
            r.walked,
            r.traced,
            r.traced_fraction,
            r.coverage,
            r.t_walk,
            r.t_trace,
            r.t_hybrid,
            r.t_walk / r.t_trace,
            r.t_walk / r.t_hybrid,
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"e17_cpt\",\n  {},\n  \"workloads\": {{\n    \
         \"small\": \"random_logic({SMALL_INPUTS}, {SMALL_GATES}, {SMALL_OUTPUTS}, {SMALL_SEED}) x {SMALL_PATTERNS} patterns\",\n    \
         \"big\": \"random_logic({BIG_INPUTS}, {BIG_GATES}, {BIG_OUTPUTS}, {BIG_SEED}) x {BIG_PATTERNS} patterns\"\n  }},\n  \
         \"rungs\": {{\n    \"small\": {},\n    \"big\": {}\n  }},\n  \
         \"hybrid_over_walk_big\": {:.2}\n}}\n",
        env_json(WORKERS, 256),
        rung_json(&small),
        rung_json(&big),
        hybrid_over_walk,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cpt.json");
    warn_env_drift(path);
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    // Criterion entries on the small rung only (the big rung would push
    // CI wall-clock past its budget).
    let net = generate::random_logic(SMALL_INPUTS, SMALL_GATES, SMALL_OUTPUTS, SMALL_SEED);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(SMALL_INPUTS, SMALL_PATTERNS, SMALL_SEED ^ 0x9e37);
    let sim = FaultSimulator::new(&net);
    let collapsed = collapse(&net, &faults);
    let serial = Campaign::new(0, 1);
    c.bench_function("e17_cpt_walk_w4_collapsed", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &serial,
                PackedOptions::wide(4).with_collapsed(&collapsed),
            ))
        })
    });
    c.bench_function("e17_cpt_hybrid_w4_collapsed", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &serial,
                PackedOptions::wide(4).with_collapsed(&collapsed).traced(),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
