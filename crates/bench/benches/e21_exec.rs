//! E21 — million-gate campaign *execution*: cold/warm/global-drop
//! ladder over the packed engine's rebuilt execution phase.
//!
//! E20 made campaign *setup* (plan build, collapse, compilation) scale
//! and cache; this experiment measures what is left once setup is
//! amortized — the execution phase itself — after the execution PR's
//! three layers: level-blocked sweep kernels for golden-chunk
//! evaluation, the zero-allocation steady-state chunk loop (chunk-tag
//! load skipping, pooled scratch), and opt-in cross-worker fault
//! dropping (`DropScope::Global`).
//!
//! Per rung (50 k and 200 k gates):
//!
//! * **cold vs warm** — the cached campaign with a wiped store vs a
//!   populated one, min-of-N (the same estimator that fixed E20's
//!   warm-slower-than-cold artifact);
//! * **exec phase split** — one telemetry-on pass records the
//!   `exec.golden_us` / `exec.walk_us` / `exec.trace_us` histograms,
//!   so the golden/walk/trace shares are measured, not inferred;
//! * **global drop** — the identical verdict-mode campaign at 4096
//!   patterns under unit scope vs `DropScope::Global`; the detected
//!   *set* must match exactly, the ≥ 2x speedup guard is gated on
//!   `host_cpus >= 4` (the win is chunk-dimension parallelism).
//!
//! A perf-regression guard compares this host's warm 200 k campaign
//! against the committed `BENCH_bigcircuit.json` baseline and fails
//! beyond +25 % — skipped (with a note) on < 4-CPU hosts, under
//! environment drift, or when no baseline is stamped.
//!
//! Set `E21_SMOKE=1` for a seconds-scale CI run: the 200 k rung with a
//! reduced pattern block and telemetry on, asserting unit ≡ global
//! detected sets and non-empty, non-zero `exec.golden_us` and
//! `exec.trace_us` histograms, and exporting the run journal to
//! `e21_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{
    banner, blog, env_json, guard_regression, host_cpus, random_patterns, secs_min, warn_env_drift,
};
use rescue_core::campaign::{ArtifactStore, Campaign};
use rescue_core::faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_core::faults::simulate::{CampaignRun, FaultSimulator, PackedOptions};
use rescue_core::faults::universe;
use rescue_core::netlist::generate::{scaling_ladder, ScaleRung};
use rescue_core::netlist::renumber;
use rescue_core::netlist::Netlist;
use rescue_core::telemetry::{journal, metrics, TelemetryConfig};

const PATTERNS: usize = 256;
const DROP_PATTERNS: usize = 4096;
const SMOKE_PATTERNS: usize = 64;
const MEASURE_RUNS: usize = 3;
/// Warm-campaign regression tolerance vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

fn detected_set(run: &CampaignRun) -> Vec<bool> {
    run.report
        .first_detection()
        .iter()
        .map(|d| d.is_some())
        .collect()
}

/// One prepared rung: everything execution needs, setup paid up front.
struct ExecRung {
    name: &'static str,
    lev: Netlist,
    faults: Vec<rescue_core::faults::Fault>,
    collapsed: CollapsedUniverse,
    patterns: Vec<Vec<bool>>,
    drop_patterns: Vec<Vec<bool>>,
}

impl ExecRung {
    fn prepare(rung: &ScaleRung, workers: usize, n_patterns: usize, n_drop: usize) -> ExecRung {
        blog!("  [{}] building {} gates...", rung.name, rung.gates);
        let net = rung.build();
        let (lev, _) = renumber::levelized(&net);
        let faults = universe::stuck_at_universe(&lev);
        let collapsed = collapse_with(&lev, &faults, workers);
        let n_inputs = lev.primary_inputs().len();
        ExecRung {
            name: rung.name,
            patterns: random_patterns(n_inputs, n_patterns, rung.seed ^ 0x9e37),
            drop_patterns: random_patterns(n_inputs, n_drop, rung.seed ^ 0x7f4a),
            lev,
            faults,
            collapsed,
        }
    }
}

/// One `exec.*_us` histogram's samples and their sum, in microseconds,
/// recorded by one telemetry-on campaign.
#[derive(Debug, Clone, Copy)]
struct Phase {
    samples: u64,
    us: u64,
}

impl Phase {
    fn ms(self) -> f64 {
        self.us as f64 / 1e3
    }
}

struct ExecResult {
    name: &'static str,
    t_cold: f64,
    t_warm: f64,
    golden: Phase,
    walk: Phase,
    trace: Phase,
    t_unit: f64,
    t_global: f64,
    dropped_global: usize,
}

impl ExecResult {
    fn drop_speedup(&self) -> f64 {
        self.t_unit / self.t_global
    }
}

fn run_exec(rung: &ExecRung, workers: usize, runs: usize) -> ExecResult {
    let campaign = Campaign::new(0, workers);
    let opts = PackedOptions::wide(4)
        .with_collapsed(&rung.collapsed)
        .traced();

    // Cold vs warm through the artifact cache, min-of-N with the store
    // wiped (outside the timed region) before every cold repetition.
    let dir = std::env::temp_dir().join(format!("rescue-e21-{}-{}", rung.name, std::process::id()));
    let (cold, t_cold) = secs_min(
        runs,
        || {
            std::fs::remove_dir_all(&dir).ok();
        },
        || {
            let store = ArtifactStore::open(&dir);
            let sim = FaultSimulator::new_cached(&rung.lev, &store);
            sim.campaign_packed(
                &rung.faults,
                &rung.patterns,
                &campaign,
                opts.with_artifacts(&store),
            )
        },
    );
    let store = ArtifactStore::open(&dir);
    let (warm, t_warm) = secs_min(
        runs,
        || {},
        || {
            let sim = FaultSimulator::new_cached(&rung.lev, &store);
            sim.campaign_packed(
                &rung.faults,
                &rung.patterns,
                &campaign,
                opts.with_artifacts(&store),
            )
        },
    );
    assert_eq!(
        cold.report.first_detection(),
        warm.report.first_detection(),
        "{} rung: warm cache pass diverged from cold",
        rung.name
    );

    // Phase split: one telemetry-on pass over the same warm campaign;
    // the exec.* histograms are process-cumulative, so diff the sums.
    let telemetry_was_on = rescue_core::telemetry::enabled();
    let before = metrics::snapshot();
    TelemetryConfig::on().install();
    {
        let sim = FaultSimulator::new_cached(&rung.lev, &store);
        sim.campaign_packed(
            &rung.faults,
            &rung.patterns,
            &campaign,
            opts.with_artifacts(&store),
        );
    }
    if !telemetry_was_on {
        TelemetryConfig::off().install();
    }
    let after = metrics::snapshot();
    let phase = |name: &str| {
        let samples_us =
            |m: &metrics::MetricsSnapshot| m.histogram(name).map_or((0, 0), |h| (h.total, h.sum));
        let ((n0, s0), (n1, s1)) = (samples_us(&before), samples_us(&after));
        Phase {
            samples: n1 - n0,
            us: s1 - s0,
        }
    };
    std::fs::remove_dir_all(&dir).ok();

    // Verdict-mode global drop vs unit scope on the wide pattern block.
    let sim = FaultSimulator::new(&rung.lev);
    let (unit, t_unit) = secs_min(
        runs,
        || {},
        || sim.campaign_packed(&rung.faults, &rung.drop_patterns, &campaign, opts),
    );
    let (global, t_global) = secs_min(
        runs,
        || {},
        || {
            sim.campaign_packed(
                &rung.faults,
                &rung.drop_patterns,
                &campaign,
                opts.global_drop(),
            )
        },
    );
    assert_eq!(
        detected_set(&unit),
        detected_set(&global),
        "{} rung: global drop scope changed the detected set",
        rung.name
    );

    ExecResult {
        name: rung.name,
        t_cold,
        t_warm,
        golden: phase("exec.golden_us"),
        walk: phase("exec.walk_us"),
        trace: phase("exec.trace_us"),
        t_unit,
        t_global,
        dropped_global: global.stats.dropped_global,
    }
}

fn smoke(rung: &ScaleRung, workers: usize) {
    TelemetryConfig::on().install();
    let mark = journal::mark();
    // 8x the campaign block for the drop run: at W=4 that is two 256-
    // lane chunks, so the cross-chunk consult path actually executes.
    let prepared = ExecRung::prepare(rung, workers, SMOKE_PATTERNS, 8 * SMOKE_PATTERNS);
    let r = run_exec(&prepared, workers, 1);
    let j = journal::Journal::take_since(mark);
    TelemetryConfig::off().install();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e21_smoke.jsonl");
    j.export_jsonl(std::path::Path::new(path))
        .expect("write smoke journal");
    blog!(
        "  smoke [{}]: cold {:.0} ms, warm {:.0} ms, exec golden/walk/trace \
         {:.3}/{:.3}/{:.3} ms, global drop {:.2}x ({} dropped), {} journal events -> {path}",
        r.name,
        r.t_cold * 1e3,
        r.t_warm * 1e3,
        r.golden.ms(),
        r.walk.ms(),
        r.trace.ms(),
        r.drop_speedup(),
        r.dropped_global,
        j.len()
    );
    for (name, p) in [("exec.golden_us", r.golden), ("exec.trace_us", r.trace)] {
        assert!(
            p.samples > 0 && p.us > 0,
            "{name}: {} samples summing to {} µs on the traced warm campaign",
            p.samples,
            p.us
        );
    }
}

fn bench(c: &mut Criterion) {
    banner("E21", "million-gate campaign execution");
    let workers = host_cpus();
    let ladder = scaling_ladder();
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bigcircuit.json");

    if std::env::var("E21_SMOKE").is_ok_and(|v| v == "1") {
        smoke(&ladder[1], workers);
        return;
    }

    let results: Vec<ExecResult> = ladder[..2]
        .iter()
        .map(|rung| {
            let prepared = ExecRung::prepare(rung, workers, PATTERNS, DROP_PATTERNS);
            run_exec(&prepared, workers, MEASURE_RUNS)
        })
        .collect();

    for r in &results {
        blog!(
            "\n  {} rung ({} patterns, min of {MEASURE_RUNS}): cold {:>7.1} ms   warm {:>7.1} ms",
            r.name,
            PATTERNS,
            r.t_cold * 1e3,
            r.t_warm * 1e3
        );
        blog!(
            "    exec phases (telemetry): golden {:.3} ms   walk {:.3} ms   trace {:.3} ms",
            r.golden.ms(),
            r.walk.ms(),
            r.trace.ms()
        );
        blog!(
            "    global drop ({} patterns, verdict mode): unit {:>7.1} ms   \
             global {:>7.1} ms ({:.2}x, {} walks dropped)",
            DROP_PATTERNS,
            r.t_unit * 1e3,
            r.t_global * 1e3,
            r.drop_speedup(),
            r.dropped_global
        );
        assert!(
            r.t_warm <= r.t_cold,
            "{} rung: warm ({:.1} ms) slower than cold ({:.1} ms) at min-of-{MEASURE_RUNS}",
            r.name,
            r.t_warm * 1e3,
            r.t_cold * 1e3
        );
        if host_cpus() >= 4 {
            assert!(
                r.drop_speedup() >= 2.0,
                "acceptance criterion: DropScope::Global must be >= 2x on the \
                 {}-pattern verdict-mode run on a >= 4-CPU host (got {:.2}x on {} CPUs)",
                DROP_PATTERNS,
                r.drop_speedup(),
                host_cpus()
            );
        } else {
            blog!(
                "    (skipping global-drop >= 2x assertion: host has {} CPU(s))",
                host_cpus()
            );
        }
    }

    // Perf-regression guard: this host's warm 200k campaign vs the
    // committed BENCH_bigcircuit.json figure (+25 % budget). Skips on
    // small hosts, drift or a missing baseline — see guard_regression.
    let r200 = &results[1];
    let guarded = guard_regression(
        baseline_path,
        "200k",
        "campaign_warm",
        r200.t_warm,
        REGRESSION_TOLERANCE,
    );

    let rung_json = |r: &ExecResult| {
        format!(
            "{{\n      \"seconds\": {{\n        \"campaign_cold\": {:.6},\n        \
             \"campaign_warm\": {:.6}\n      }},\n      \"exec_us\": {{\n        \
             \"golden\": {},\n        \"walk\": {},\n        \"trace\": {}\n      }},\n      \
             \"global_drop\": {{\n        \"patterns\": {DROP_PATTERNS},\n        \
             \"campaign_unit\": {:.6},\n        \"campaign_global\": {:.6},\n        \
             \"global_speedup\": {:.2},\n        \"dropped_global\": {}\n      }}\n    }}",
            r.t_cold,
            r.t_warm,
            r.golden.us,
            r.walk.us,
            r.trace.us,
            r.t_unit,
            r.t_global,
            r.drop_speedup(),
            r.dropped_global,
        )
    };
    let rungs: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.name, rung_json(r)))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e21_exec\",\n  {},\n  \"patterns\": {PATTERNS},\n  \
         \"measure_runs\": {MEASURE_RUNS},\n  \"regression_guard_ran\": {},\n  \
         \"rungs\": {{\n    {}\n  }}\n}}\n",
        env_json(workers, 256),
        guarded,
        rungs.join(",\n    "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    warn_env_drift(path);
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    // Criterion entry: the steady-state warm execution on the 50k rung.
    let prepared = ExecRung::prepare(&ladder[0], workers, PATTERNS, PATTERNS);
    let sim = FaultSimulator::new(&prepared.lev);
    let opts = PackedOptions::wide(4)
        .with_collapsed(&prepared.collapsed)
        .traced();
    let campaign = Campaign::new(0, workers);
    c.bench_function("e21_exec_50k_warm", |b| {
        b.iter(|| {
            std::hint::black_box(sim.campaign_packed(
                &prepared.faults,
                &prepared.patterns,
                &campaign,
                opts,
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
