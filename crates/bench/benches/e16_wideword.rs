//! E16 — wide-word packed fault simulation: multi-`u64` lanes and
//! collapsed-universe campaigns over the PPSFP engine.
//!
//! Workload fixed by the acceptance criterion — the same as E15: the
//! complete stuck-at universe of `random_logic(16, 2000, 4, 12)` under
//! 1000 random patterns. The run first checks every lane width and the
//! collapsed campaign are verdict-identical to the full-resimulation
//! oracle's dropping campaign, then times the ablation ladder:
//!
//! * `w1` / `w2` / `w4` / `w8` — the packed dropping campaign at 64,
//!   128, 256 and 512 patterns per cone walk, one worker (isolates the
//!   lane-width win from scheduling);
//! * `w4_collapsed` — 256 lanes over the collapsed universe (only
//!   observable equivalence-class representatives are walked, verdicts
//!   expand to the rest);
//! * `w4_dynamic_collapsed` — the full stack: wide words, collapse and
//!   the work-stealing scheduler at `host_cpus()` workers.
//!
//! Measurements land in `BENCH_wideword.json` with the execution
//! environment (workers, lane width, host CPUs) recorded. The W=4-over-
//! W=1 scaling assertion is gated on `host_cpus() >= 4`: on the 1-CPU
//! runners the autovectorized wide ops share one port-limited core, so
//! the guard would measure the machine, not the engine.
//!
//! Set `E16_SMOKE=1` for a seconds-scale CI smoke run: a small workload
//! through the W=4 collapsed engine with telemetry enabled, exporting
//! the run journal to `e16_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog, env_json, host_cpus, random_patterns};
use rescue_core::campaign::Campaign;
use rescue_core::faults::collapse::collapse;
use rescue_core::faults::reference::ReferenceFaultSimulator;
use rescue_core::faults::simulate::{FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate;
use rescue_core::telemetry::{journal, TelemetryConfig};
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
        "E16",
        "wide-word packed fault simulation + collapsed universes",
    );
    let smoke = std::env::var("E16_SMOKE").is_ok_and(|v| v == "1");
    let (n_gates, n_patterns) = if smoke {
        (200, 100)
    } else {
        (N_GATES, N_PATTERNS)
    };
    let net = generate::random_logic(N_INPUTS, n_gates, N_OUTPUTS, SEED);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(N_INPUTS, n_patterns, SEED ^ 0x9e37);
    let sim = FaultSimulator::new(&net);
    let collapsed = collapse(&net, &faults);

    if smoke {
        // CI smoke: W=4 collapsed engine on the small workload with
        // telemetry on, journal exported for journal_check. Equivalence
        // gate only.
        TelemetryConfig::on().install();
        let mark = journal::mark();
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        let wide = sim.campaign_packed(
            &faults,
            &patterns,
            &Campaign::new(0, 2),
            PackedOptions::wide(4).with_collapsed(&collapsed),
        );
        assert_eq!(
            wide.report.first_detection(),
            oracle.first_detection(),
            "wide collapsed engine disagrees with the oracle; refusing smoke pass"
        );
        let j = journal::Journal::take_since(mark);
        TelemetryConfig::off().install();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e16_smoke.jsonl");
        j.export_jsonl(std::path::Path::new(path))
            .expect("write smoke journal");
        blog!(
            "  smoke: {} faults, {} walked (ratio {:.2}), {} patterns, coverage {:.1}%, \
             {} journal events -> {path}",
            faults.len(),
            wide.stats.faults_walked,
            wide.stats.collapse_ratio(),
            patterns.len(),
            wide.report.coverage() * 100.0,
            j.len()
        );
        return;
    }

    // Equivalence gate before any timing: every lane width, with and
    // without collapse, must reproduce the oracle's dropping campaign
    // bit-for-bit.
    let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
    let serial = Campaign::new(0, 1);
    let workers = host_cpus();
    let dynamic = Campaign::new(0, workers);
    for lane_width in [1usize, 2, 4, 8] {
        for opts in [
            PackedOptions::wide(lane_width),
            PackedOptions::wide(lane_width).with_collapsed(&collapsed),
        ] {
            let run = sim.campaign_packed(&faults, &patterns, &serial, opts);
            assert_eq!(
                run.report.first_detection(),
                oracle.first_detection(),
                "W={lane_width} (collapsed: {}) disagrees; refusing to benchmark",
                opts.collapsed.is_some()
            );
        }
    }
    let coverage = oracle.coverage();
    let sample = sim.campaign_packed(
        &faults,
        &patterns,
        &serial,
        PackedOptions::wide(4).with_collapsed(&collapsed),
    );
    let (walked, ratio) = (sample.stats.faults_walked, sample.stats.collapse_ratio());
    assert!(
        ratio <= 0.6,
        "acceptance criterion: the collapsed campaign must walk >= 40% \
         fewer faults on this workload (ratio {ratio:.3})"
    );

    let time_width = |lane_width: usize| {
        median_secs(
            || {
                std::hint::black_box(sim.campaign_packed(
                    &faults,
                    &patterns,
                    &serial,
                    PackedOptions::wide(lane_width),
                ));
            },
            7,
        )
    };
    let t_w1 = time_width(1);
    let t_w2 = time_width(2);
    let t_w4 = time_width(4);
    let t_w8 = time_width(8);
    let t_w4_collapsed = median_secs(
        || {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &serial,
                PackedOptions::wide(4).with_collapsed(&collapsed),
            ));
        },
        7,
    );
    let t_full_stack = median_secs(
        || {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &dynamic,
                PackedOptions::wide(4).with_collapsed(&collapsed),
            ));
        },
        7,
    );

    let work = faults.len() as f64 * patterns.len() as f64;
    let w4_over_w1 = t_w1 / t_w4;
    blog!(
        "\n  workload: {} gates, {} faults ({} walked when collapsed, ratio {:.2}), \
         {} patterns (coverage {:.1}%)",
        net.len(),
        faults.len(),
        walked,
        ratio,
        patterns.len(),
        coverage * 100.0
    );
    blog!("  engine                          time        Mfault*pat/s   vs w1");
    for (name, t) in [
        ("wideword w1 (64 lanes)     ", t_w1),
        ("wideword w2 (128 lanes)    ", t_w2),
        ("wideword w4 (256 lanes)    ", t_w4),
        ("wideword w8 (512 lanes)    ", t_w8),
        ("w4 + collapsed universe    ", t_w4_collapsed),
        ("w4 + collapse + dynamic    ", t_full_stack),
    ] {
        blog!(
            "  {name}  {:>9.1} ms   {:>10.1}   {:>7.2}x",
            t * 1e3,
            work / t / 1e6,
            t_w1 / t
        );
    }
    if host_cpus() >= 4 {
        assert!(
            w4_over_w1 >= 2.0,
            "acceptance criterion: W=4 must be >= 2x over W=1 on this \
             workload on a >= 4-CPU host (got {w4_over_w1:.2}x on {} CPUs)",
            host_cpus()
        );
    } else {
        blog!(
            "  (skipping W=4 >= 2x scaling assertion: host has {} CPU(s))",
            host_cpus()
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e16_wideword\",\n  {},\n  \"workload\": {{\n    \
         \"netlist\": \"random_logic({N_INPUTS}, {N_GATES}, {N_OUTPUTS}, {SEED})\",\n    \
         \"gates\": {},\n    \"faults\": {},\n    \"faults_walked_collapsed\": {},\n    \
         \"collapse_ratio\": {:.4},\n    \"patterns\": {},\n    \"coverage\": {:.4}\n  }},\n  \
         \"seconds\": {{\n    \"w1\": {:.6},\n    \"w2\": {:.6},\n    \"w4\": {:.6},\n    \
         \"w8\": {:.6},\n    \"w4_collapsed\": {:.6},\n    \
         \"w4_dynamic_collapsed\": {:.6}\n  }},\n  \"speedup_over_w1\": {{\n    \
         \"w2\": {:.2},\n    \"w4\": {:.2},\n    \"w8\": {:.2},\n    \
         \"w4_collapsed\": {:.2},\n    \"w4_dynamic_collapsed\": {:.2}\n  }}\n}}\n",
        env_json(workers, 256),
        net.len(),
        faults.len(),
        walked,
        ratio,
        patterns.len(),
        coverage,
        t_w1,
        t_w2,
        t_w4,
        t_w8,
        t_w4_collapsed,
        t_full_stack,
        t_w1 / t_w2,
        w4_over_w1,
        t_w1 / t_w8,
        t_w1 / t_w4_collapsed,
        t_w1 / t_full_stack,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wideword.json");
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    c.bench_function("e16_wideword_w4", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &serial,
                PackedOptions::wide(4),
            ))
        })
    });
    c.bench_function("e16_wideword_w4_collapsed_dynamic", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &faults,
                &patterns,
                &dynamic,
                PackedOptions::wide(4).with_collapsed(&collapsed),
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
