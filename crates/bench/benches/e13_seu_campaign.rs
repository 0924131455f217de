//! E13 — SEU campaign engine shoot-out: the bit-parallel compiled
//! sequential simulator (64 injection machines per `u64` word, golden
//! trace snapshot/restore) against the scalar snapshot-replaying
//! reference it is checked against.
//!
//! Workload fixed by the acceptance criterion: an exhaustive SEU
//! campaign (every flop x every warmup cycle) over an lfsr(32)-class
//! sequential design. The run first checks both engines produce
//! identical reports, then times scalar reference vs. bit-parallel
//! serial vs. bit-parallel sharded over `host_cpus()` workers and writes
//! the measurements —
//! including the lane occupancy recorded in [`CampaignStats`] — to
//! `BENCH_seu_campaign.json` at the repo root.
//!
//! Set `E13_SMOKE=1` for a seconds-scale CI smoke run that keeps the
//! equivalence gate but skips the timing assertion and JSON export.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, host_cpus};
use rescue_core::campaign::Campaign;
use rescue_core::netlist::generate;
use rescue_core::radiation::seu_analysis::{reference, SeuCampaign};
use std::time::Instant;

const WIDTH: usize = 32;
const TAPS: [usize; 3] = [31, 21, 1];
const WARMUP: usize = 1000;
const HORIZON: usize = 48;

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

fn bench(c: &mut Criterion) {
    banner(
        "E13",
        "SEU campaign: bit-parallel sequential engine vs scalar reference",
    );
    let smoke = std::env::var("E13_SMOKE").is_ok_and(|v| v == "1");
    let (warmup, horizon) = if smoke { (8, 4) } else { (WARMUP, HORIZON) };
    let net = generate::lfsr(WIDTH, &TAPS);
    let inputs: Vec<bool> = vec![true; net.primary_inputs().len()];
    let seu = SeuCampaign::new(warmup, horizon);

    // Equivalence gate before any timing: the speedup only counts if
    // the verdicts are outcome-identical.
    let run = seu.run_exhaustive_on(&net, &inputs, &Campaign::serial());
    let oracle = reference::run_exhaustive(&seu, &net, &inputs);
    assert_eq!(
        run.report, oracle,
        "engines disagree; refusing to benchmark"
    );
    let injections = run.stats.injections;
    let occupancy = run.stats.lane_occupancy();
    let avf = run.report.avf();

    if smoke {
        blog!(
            "  smoke config: lfsr({WIDTH}), warmup {warmup}, horizon {horizon}, \
             {injections} injections, AVF {avf:.3}, lane occupancy {:.1}%",
            occupancy * 100.0
        );
        blog!("  equivalence gate passed; timings skipped (E13_SMOKE=1)");
        return;
    }

    let t_ref = median_secs(
        || {
            std::hint::black_box(reference::run_exhaustive(&seu, &net, &inputs));
        },
        3,
    );
    let t_word = median_secs(
        || {
            std::hint::black_box(seu.run_exhaustive_on(&net, &inputs, &Campaign::serial()));
        },
        5,
    );
    let workers = host_cpus();
    let t_par = median_secs(
        || {
            std::hint::black_box(seu.run_exhaustive_on(&net, &inputs, &Campaign::new(0, workers)));
        },
        5,
    );

    let speedup = t_ref / t_word;
    let speedup_par = t_ref / t_par;
    blog!(
        "\n  workload: lfsr({WIDTH}) [{} gates], warmup {warmup}, horizon {horizon}, \
         {injections} injections, AVF {avf:.3}",
        net.len(),
    );
    blog!("  engine                        time       kinjection/s   speedup");
    blog!(
        "  scalar reference           {:>9.1} ms   {:>10.1}      1.00x",
        t_ref * 1e3,
        injections as f64 / t_ref / 1e3
    );
    blog!(
        "  bit-parallel, serial       {:>9.1} ms   {:>10.1}   {:>7.2}x",
        t_word * 1e3,
        injections as f64 / t_word / 1e3,
        speedup
    );
    blog!(
        "  bit-parallel, {workers} workers    {:>9.1} ms   {:>10.1}   {:>7.2}x",
        t_par * 1e3,
        injections as f64 / t_par / 1e3,
        speedup_par
    );
    blog!("  lane occupancy: {:.1}%", occupancy * 100.0);
    assert!(
        speedup >= 20.0,
        "acceptance criterion: bit-parallel engine must be >= 20x over the \
         scalar reference on this workload (got {speedup:.2}x)"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e13_seu_campaign\",\n  {},\n  \"workload\": {{\n    \
         \"netlist\": \"lfsr({WIDTH}, {TAPS:?})\",\n    \"gates\": {},\n    \
         \"dffs\": {WIDTH},\n    \"warmup\": {warmup},\n    \"horizon\": {horizon},\n    \
         \"injections\": {injections},\n    \"avf\": {avf:.4}\n  }},\n  \
         \"lane_occupancy\": {occupancy:.4},\n  \"seconds\": {{\n    \
         \"reference_scalar\": {t_ref:.6},\n    \"bit_parallel_serial\": {t_word:.6},\n    \
         \"bit_parallel_sharded\": {t_par:.6}\n  }},\n  \
         \"speedup_over_reference\": {{\n    \"bit_parallel_serial\": {speedup:.2},\n    \
         \"bit_parallel_sharded\": {speedup_par:.2}\n  }},\n  \
         \"kilo_injections_per_sec\": {{\n    \"reference_scalar\": {:.1},\n    \
         \"bit_parallel_serial\": {:.1},\n    \"bit_parallel_sharded\": {:.1}\n  }}\n}}\n",
        env_json(workers, 64),
        net.len(),
        injections as f64 / t_ref / 1e3,
        injections as f64 / t_word / 1e3,
        injections as f64 / t_par / 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_seu_campaign.json");
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    c.bench_function("e13_seu_exhaustive_bitparallel", |b| {
        b.iter(|| std::hint::black_box(seu.run_exhaustive_on(&net, &inputs, &Campaign::serial())))
    });
    c.bench_function("e13_seu_sampled_bitparallel_1k", |b| {
        b.iter(|| {
            std::hint::black_box(seu.run_sampled_on(&net, &inputs, 1000, 7, &Campaign::serial()))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
