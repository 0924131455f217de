//! E12 — fault-simulation engine shoot-out: the compiled-arena PPSFP
//! engine (one levelized event walk per fault site and pattern word)
//! against the full-resimulation reference engine it replaced.
//!
//! Workload fixed by the acceptance criterion: the complete stuck-at
//! universe of `random_logic(16, 2000, 4, _)` under 1000 random
//! patterns. The run first checks the engines produce identical
//! verdicts, then times the reference against the serial campaign and
//! the 4-worker campaign, and writes the measurements to
//! `BENCH_fault_sim.json` at the repo root.
//!
//! The 4-worker speedup guard is gated on [`host_cpus`]: the earlier
//! "parallel-scaling regression" seen on this bench was 4 workers
//! time-slicing a single CPU, which no scheduler can win — recording
//! the host CPU count next to the timings is what makes the numbers
//! comparable across machines.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, host_cpus, random_patterns};
use rescue_core::campaign::Campaign;
use rescue_core::faults::reference::ReferenceFaultSimulator;
use rescue_core::faults::simulate::{FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate;
use rescue_core::sim::parallel::pack_patterns;
use std::time::Instant;

const N_INPUTS: usize = 16;
const N_GATES: usize = 2000;
const N_OUTPUTS: usize = 4;
const N_PATTERNS: usize = 1000;
const SEED: u64 = 12;

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
        "E12",
        "fault-sim engine: packed event walk vs full resimulation",
    );
    let net = generate::random_logic(N_INPUTS, N_GATES, N_OUTPUTS, SEED);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(N_INPUTS, N_PATTERNS, SEED ^ 0x9e37);
    let fast = FaultSimulator::new(&net);
    let slow = ReferenceFaultSimulator::new(&net);
    let par4 = Campaign::new(0, 4);
    let parallel = || fast.campaign_packed(&faults, &patterns, &par4, PackedOptions::default());

    // Equivalence gate before any timing: the speedup only counts if the
    // verdicts are bit-identical.
    let a = fast.campaign(&faults, &patterns);
    let b = slow.campaign(&net, &faults, &patterns);
    assert_eq!(
        a.first_detection(),
        b.first_detection(),
        "engines disagree; refusing to benchmark"
    );
    assert_eq!(
        parallel().report.first_detection(),
        a.first_detection(),
        "parallel packed engine disagrees; refusing to benchmark"
    );
    let coverage = a.coverage();

    let t_old = median_secs(
        || {
            std::hint::black_box(slow.campaign(&net, &faults, &patterns));
        },
        3,
    );
    let t_new = median_secs(
        || {
            std::hint::black_box(fast.campaign(&faults, &patterns));
        },
        5,
    );
    let t_par = median_secs(
        || {
            std::hint::black_box(parallel());
        },
        5,
    );

    let work = faults.len() as f64 * patterns.len() as f64;
    let speedup = t_old / t_new;
    let speedup_par = t_old / t_par;
    blog!(
        "\n  workload: {} gates, {} faults, {} patterns (coverage {:.1}%)",
        net.len(),
        faults.len(),
        patterns.len(),
        coverage * 100.0
    );
    blog!("  engine                      time        Mfault*pat/s   speedup");
    blog!(
        "  reference (full resim)   {:>9.1} ms   {:>10.1}      1.00x",
        t_old * 1e3,
        work / t_old / 1e6
    );
    blog!(
        "  ppsfp engine, serial     {:>9.1} ms   {:>10.1}   {:>7.2}x",
        t_new * 1e3,
        work / t_new / 1e6,
        speedup
    );
    blog!(
        "  ppsfp engine, 4 workers  {:>9.1} ms   {:>10.1}   {:>7.2}x",
        t_par * 1e3,
        work / t_par / 1e6,
        speedup_par
    );
    assert!(
        speedup >= 3.0,
        "acceptance criterion: serial campaign must be >= 3x over the \
         reference on this workload (got {speedup:.2}x)"
    );
    if host_cpus() >= 4 {
        let scaling = t_new / t_par;
        assert!(
            scaling >= 2.0,
            "acceptance criterion: 4-worker campaign must be >= 2x over \
             its own serial run on a >= 4-CPU host (got {scaling:.2}x on \
             {} CPUs)",
            host_cpus()
        );
    } else {
        blog!(
            "  (skipping 4-worker scaling assertion: host has {} CPU(s))",
            host_cpus()
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e12_fault_sim_engine\",\n  {},\n  \"workload\": {{\n    \
         \"netlist\": \"random_logic({N_INPUTS}, {N_GATES}, {N_OUTPUTS}, {SEED})\",\n    \
         \"gates\": {},\n    \"faults\": {},\n    \"patterns\": {},\n    \
         \"coverage\": {:.4}\n  }},\n  \"seconds\": {{\n    \
         \"reference_full_resim\": {:.6},\n    \"ppsfp_serial\": {:.6},\n    \
         \"ppsfp_parallel_4\": {:.6}\n  }},\n  \"speedup_over_reference\": {{\n    \
         \"ppsfp_serial\": {:.2},\n    \"ppsfp_parallel_4\": {:.2}\n  }},\n  \
         \"mega_fault_patterns_per_sec\": {{\n    \"reference_full_resim\": {:.1},\n    \
         \"ppsfp_serial\": {:.1},\n    \"ppsfp_parallel_4\": {:.1}\n  }}\n}}\n",
        env_json(4, 64),
        net.len(),
        faults.len(),
        patterns.len(),
        coverage,
        t_old,
        t_new,
        t_par,
        speedup,
        speedup_par,
        work / t_old / 1e6,
        work / t_new / 1e6,
        work / t_par / 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault_sim.json");
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    // Golden-vs-faulty throughput: one golden 64-pattern evaluation of the
    // whole netlist vs one whole-universe campaign over the same design.
    let words = pack_patterns(&patterns[..64.min(patterns.len())]);
    let compiled = fast.compiled();
    let mut values = Vec::new();
    c.bench_function("e12_golden_eval_64pat", |b| {
        b.iter(|| {
            compiled
                .eval_words_into(std::hint::black_box(&words), &mut values)
                .unwrap()
        })
    });
    c.bench_function("e12_campaign_ppsfp_serial", |b| {
        b.iter(|| std::hint::black_box(fast.campaign(&faults, &patterns)))
    });
    c.bench_function("e12_campaign_ppsfp_par4", |b| {
        b.iter(|| std::hint::black_box(parallel()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
