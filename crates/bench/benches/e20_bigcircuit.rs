//! E20 — million-gate scaling ladder: parallel plan construction,
//! level-ordered layouts, the compiled-artifact cache and the execution
//! phase behind them.
//!
//! Three rungs from `generate::scaling_ladder()` — 50 k, 200 k and 10^6
//! gates — each measuring the *setup* path that dominates big-circuit
//! campaigns before the first pattern simulates, then what execution
//! costs once setup is cached:
//!
//! * **generate / levelize / compile** — netlist construction, the
//!   level-ordered renumbering (`renumber::levelized`, the
//!   cache-friendly layout) and arena compilation;
//! * **collapse** — the dense-slot equivalence rule pass
//!   (`collapse_with`, sharded over workers);
//! * **plan build, serial vs parallel** — `TracePlan::build` against
//!   `TracePlan::build_with(workers)` on the full arena and the walk list
//!   (byte-identity asserted before timing; the >= 2x acceptance guard
//!   on the 200 k+ rungs is gated on `host_cpus() >= 4`);
//! * **output cone** — campaigns on these rungs evaluate only the
//!   output cone (`campaign_arena`: every rung keeps under 3% of its
//!   gates), so the plan they build and cache is the cone's, timed
//!   serially;
//! * **plan cache, cold vs warm** — the same compile and campaign
//!   through `PackedOptions::with_artifacts`: the cold pass builds and
//!   publishes the cone's plan, the warm pass decodes it (zero DFS /
//!   classification work), and the warm plan-reload is timed directly
//!   against the cone plan's serial build. Both passes compile the
//!   arena afresh: compiled arenas are not cached, since a reload lost
//!   to a fresh compile on every rung. Verdict equality cold vs warm is
//!   asserted per rung, and so is warm ≤ cold at min-of-N;
//! * **exec phase split** — one telemetry-on warm pass records the
//!   `exec.golden_us` / `exec.walk_us` / `exec.trace_us` histograms, so
//!   the golden/walk/trace shares are measured, not inferred;
//! * **golden kernel** — one full-design packed evaluation through the
//!   gate table's level runs vs the generic fold gate by gate (the 1 M
//!   rung gates ≥ 1.3x).
//!
//! Campaign timings use 256 random patterns through the hybrid engine
//! (W=4, collapsed, traced). On the 50 k rung the same campaign also runs
//! on the *original* (non-levelized) gate numbering so the layout effect
//! is a measured number, not a claim; coverage equality between the two
//! numberings is asserted.
//!
//! Measurements land in `BENCH_bigcircuit.json` with the execution
//! environment stamped; `warn_env_drift` flags regeneration on a host
//! with a different CPU count than the committed figures. A
//! perf-regression guard compares this host's warm 200 k campaign
//! against the committed figure and fails beyond +25 % — skipped (with a
//! note) on < 4-CPU hosts, under environment drift, or when no baseline
//! is stamped.
//!
//! Set `E20_SMOKE=1` for a seconds-scale CI run: the 200 k rung with a
//! reduced pattern block and telemetry on, asserting non-empty, non-zero
//! `exec.golden_us` and `exec.trace_us` histograms and exporting the run
//! journal to `e20_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{
    banner, blog, env_json, guard_regression, host_cpus, random_patterns, secs, secs_min,
    warn_env_drift,
};
use rescue_core::campaign::{ArtifactStore, Campaign};
use rescue_core::faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_core::faults::engine::po_reachable;
use rescue_core::faults::simulate::{campaign_arena, FaultSimulator, PackedOptions};
use rescue_core::faults::trace::TracePlan;
use rescue_core::faults::{content, universe, Fault};
use rescue_core::netlist::generate::{scaling_ladder, ScaleRung};
use rescue_core::netlist::renumber;
use rescue_core::sim::compiled::CompiledNetlist;
use rescue_core::sim::sweep::{fold, GateValue};
use rescue_core::sim::wide::{pack_patterns_wide, PackedWord, SimWord};
use rescue_core::telemetry::{journal, metrics, TelemetryConfig};

const PATTERNS: usize = 256;
const SMOKE_PATTERNS: usize = 64;
/// Campaign timings are min-of-N: the ladder's original single-sample
/// timing made the 200k rung report warm *slower* than cold — one
/// allocator / page-cache hiccup in a 0.4 s sample was enough to invert
/// the ordering. The minimum over `MEASURE_RUNS` fresh runs is the
/// standard noise floor estimator; smoke mode keeps N=1 for CI budget.
const MEASURE_RUNS: usize = 3;
/// Warm-campaign regression tolerance vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// The walk list the packed engines plan over: PO-reachable collapse
/// representatives in order of first appearance over the universe —
/// exactly the list `campaign_packed` plans (and keys its cached plan)
/// under.
fn walk_list_of(
    c: &CompiledNetlist,
    collapsed: &CollapsedUniverse,
    faults: &[Fault],
) -> Vec<Fault> {
    let reachable = po_reachable(c);
    let mut seen = std::collections::HashSet::new();
    let mut walk = Vec::new();
    for &f in faults {
        let rep = collapsed.representative(f);
        if reachable[rep.site().gate().index()] && seen.insert(rep) {
            walk.push(rep);
        }
    }
    walk
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

/// Runs `f` with telemetry on and returns what it added to the
/// `exec.golden_us`, `exec.walk_us` and `exec.trace_us` histograms
/// (they are process-cumulative, so the snapshots are diffed).
fn exec_phases(f: impl FnOnce()) -> [Phase; 3] {
    let telemetry_was_on = rescue_core::telemetry::enabled();
    let before = metrics::snapshot();
    TelemetryConfig::on().install();
    f();
    if !telemetry_was_on {
        TelemetryConfig::off().install();
    }
    let after = metrics::snapshot();
    ["exec.golden_us", "exec.walk_us", "exec.trace_us"].map(|name| {
        let samples_us =
            |m: &metrics::MetricsSnapshot| m.histogram(name).map_or((0, 0), |h| (h.total, h.sum));
        let ((n0, s0), (n1, s1)) = (samples_us(&before), samples_us(&after));
        Phase {
            samples: n1 - n0,
            us: s1 - s0,
        }
    })
}

struct RungResult {
    name: &'static str,
    gates: usize,
    faults: usize,
    walk_len: usize,
    t_generate: f64,
    t_levelize: f64,
    t_compile: f64,
    t_collapse: f64,
    t_plan_serial: f64,
    t_plan_parallel: f64,
    /// Gates of the arena campaigns evaluate (the output cone).
    cone_gates: usize,
    t_plan_cone: f64,
    t_plan_reload: f64,
    t_campaign_cold: f64,
    t_campaign_warm: f64,
    /// `exec.golden_us`, `exec.walk_us`, `exec.trace_us` of one warm pass.
    phases: [Phase; 3],
    t_golden_sweep: f64,
    t_golden_gate_order: f64,
    coverage: f64,
    walked: usize,
    traced: usize,
}

impl RungResult {
    fn plan_speedup(&self) -> f64 {
        self.t_plan_serial / self.t_plan_parallel
    }
    fn reload_speedup(&self) -> f64 {
        self.t_plan_cone / self.t_plan_reload
    }
    /// Speedup of the gate table's level runs on the phase they
    /// target: full-design golden-chunk evaluation, against the generic
    /// fold applied gate by gate in `eval_order`. The event-driven walks
    /// touch a handful of gates per fault, so the runs cannot help
    /// there — this is the kernel number, not the campaign wall clock.
    fn sweep_speedup(&self) -> f64 {
        self.t_golden_gate_order / self.t_golden_sweep
    }
}

fn run_rung(rung: &ScaleRung, workers: usize, n_patterns: usize, runs: usize) -> RungResult {
    blog!("  [{}] building {} gates...", rung.name, rung.gates);
    let (net, t_generate) = secs(|| rung.build());
    let ((lev, _map), t_levelize) = secs(|| renumber::levelized(&net));
    let (c, t_compile) = secs(|| CompiledNetlist::new(&lev));
    let faults = universe::stuck_at_universe(&lev);
    let (collapsed, t_collapse) = secs(|| collapse_with(&lev, &faults, workers));
    let walk = walk_list_of(&c, &collapsed, &faults);

    // Parallel plan construction must be invisible: byte-identical to
    // the serial build (the property suite pins this on small designs;
    // asserting it here extends the evidence to the full-size rungs).
    let (serial_plan, t_plan_serial) = secs(|| TracePlan::build(&c, &walk));
    let (parallel_plan, t_plan_parallel) = secs(|| TracePlan::build_with(&c, &walk, workers));
    assert_eq!(
        serial_plan.to_bytes(),
        parallel_plan.to_bytes(),
        "{}-gate rung: parallel plan build diverged from serial",
        rung.gates
    );
    // What campaigns plan: the output cone and the walk list in its ids.
    let (cone, cone_walk) = campaign_arena(&c, &walk);
    let (cone_plan, t_plan_cone) = secs(|| TracePlan::build(&cone, &cone_walk));

    // Plan cache: cold publishes, warm decodes. The reload timing is
    // the direct "setup executes zero DFS" number.
    let dir = std::env::temp_dir().join(format!("rescue-e20-{}-{}", rung.name, std::process::id()));
    let patterns = random_patterns(lev.primary_inputs().len(), n_patterns, rung.seed ^ 0x9e37);
    let campaign = Campaign::new(0, workers);
    let opts = PackedOptions::wide(4).with_collapsed(&collapsed).traced();

    // Cold: every repetition starts from a wiped store (outside the
    // timed region), so the minimum is over genuinely cold passes.
    let (cold, t_campaign_cold) = secs_min(
        runs,
        || {
            std::fs::remove_dir_all(&dir).ok();
        },
        || {
            let store = ArtifactStore::open(&dir);
            let sim = FaultSimulator::new(&lev);
            sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store))
        },
    );
    // Warm: the store the last cold pass populated stays in place.
    let store = ArtifactStore::open(&dir);
    let (warm, t_campaign_warm) = secs_min(
        runs,
        || {},
        || {
            let sim = FaultSimulator::new(&lev);
            sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store))
        },
    );
    assert_eq!(
        cold.report.first_detection(),
        warm.report.first_detection(),
        "{}-gate rung: warm cache pass diverged from cold",
        rung.gates
    );
    let phases = exec_phases(|| {
        let sim = FaultSimulator::new(&lev);
        sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
    });
    // Golden-kernel ablation: one full-design packed evaluation (the
    // phase the level runs target) through the runs vs the generic fold
    // over each gate's CSR pins in `eval_order`, each into a reused
    // buffer it clears and resizes first, as a golden chunk fill does.
    type Wd = PackedWord<4>;
    let kernel_words = pack_patterns_wide::<Wd>(&patterns[..patterns.len().min(Wd::LANES)]);
    let mut swept = Vec::with_capacity(c.len());
    let (_, t_golden_sweep) = secs_min(
        runs,
        || {},
        || c.eval_words_into(&kernel_words, &mut swept).unwrap(),
    );
    let mut gate_order = Vec::with_capacity(c.len());
    let (_, t_golden_gate_order) = secs_min(
        runs,
        || {},
        || {
            gate_order.clear();
            gate_order.resize(c.len(), Wd::ZERO);
            for (&pi, &w) in c.primary_inputs().iter().zip(&kernel_words) {
                gate_order[pi as usize] = w;
            }
            for &g in c.eval_order() {
                let ins = c
                    .pins_of(g as usize)
                    .iter()
                    .map(|&p| gate_order[p as usize]);
                gate_order[g as usize] = fold(c.kind(g as usize), ins);
            }
        },
    );
    assert_eq!(
        swept, gate_order,
        "level runs diverged from the gate-order fold"
    );
    drop((swept, gate_order));

    let key = content::plan_key(&cone, &cone_walk, true);
    let (reloaded, t_plan_reload) = secs(|| {
        TracePlan::from_bytes(&store.load(key).expect("cold pass published the trace plan"))
            .expect("stored plan decodes")
    });
    assert_eq!(
        reloaded, cone_plan,
        "cache reload diverged from fresh build"
    );
    std::fs::remove_dir_all(&dir).ok();

    RungResult {
        name: rung.name,
        gates: lev.len(),
        faults: faults.len(),
        walk_len: walk.len(),
        t_generate,
        t_levelize,
        t_compile,
        t_collapse,
        t_plan_serial,
        t_plan_parallel,
        cone_gates: cone.len(),
        t_plan_cone,
        t_plan_reload,
        t_campaign_cold,
        t_campaign_warm,
        phases,
        t_golden_sweep,
        t_golden_gate_order,
        coverage: warm.report.coverage(),
        walked: warm.stats.faults_walked,
        traced: warm.stats.faults_traced,
    }
}

/// The 50 k-rung layout experiment: the identical campaign on the
/// original and the level-ordered numbering. Returns
/// `(t_original, t_levelized)`; coverage equality is asserted (the two
/// numberings are the same circuit).
fn layout_comparison(
    rung: &ScaleRung,
    workers: usize,
    n_patterns: usize,
    runs: usize,
) -> (f64, f64) {
    let net = rung.build();
    let (lev, _) = renumber::levelized(&net);
    let campaign = Campaign::new(0, workers);
    let mut cov = [0.0f64; 2];
    let mut times = [0.0f64; 2];
    for (i, n) in [&net, &lev].into_iter().enumerate() {
        let faults = universe::stuck_at_universe(n);
        let collapsed = collapse_with(n, &faults, workers);
        let sim = FaultSimulator::new(n);
        let patterns = random_patterns(n.primary_inputs().len(), n_patterns, rung.seed ^ 0x9e37);
        let opts = PackedOptions::wide(4).with_collapsed(&collapsed).traced();
        let (run, t) = secs_min(
            runs,
            || (),
            || sim.campaign_packed(&faults, &patterns, &campaign, opts),
        );
        cov[i] = run.report.coverage();
        times[i] = t;
    }
    assert_eq!(
        cov[0], cov[1],
        "levelized renumbering changed coverage on the same circuit"
    );
    (times[0], times[1])
}

fn smoke(rung: &ScaleRung, workers: usize) {
    TelemetryConfig::on().install();
    let mark = journal::mark();
    let r = run_rung(rung, workers, SMOKE_PATTERNS, 1);
    let j = journal::Journal::take_since(mark);
    TelemetryConfig::off().install();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e20_smoke.jsonl");
    j.export_jsonl(std::path::Path::new(path))
        .expect("write smoke journal");
    let [golden, walk, trace] = r.phases;
    blog!(
        "  smoke [{}]: {} gates, {} faults ({} planned, {} walked, {} statically traced), \
         coverage {:.2}%, plan {:.0} ms serial / {:.0} ms parallel, cone of {} gates: \
         plan {:.1} ms / {:.1} ms reload, exec golden/walk/trace {:.3}/{:.3}/{:.3} ms, \
         {} journal events -> {path}",
        r.name,
        r.gates,
        r.faults,
        r.walk_len,
        r.walked,
        r.traced,
        r.coverage * 100.0,
        r.t_plan_serial * 1e3,
        r.t_plan_parallel * 1e3,
        r.cone_gates,
        r.t_plan_cone * 1e3,
        r.t_plan_reload * 1e3,
        golden.ms(),
        walk.ms(),
        trace.ms(),
        j.len()
    );
    for (name, p) in [("exec.golden_us", golden), ("exec.trace_us", trace)] {
        assert!(
            p.samples > 0 && p.us > 0,
            "{name}: {} samples summing to {} µs on the traced warm campaign",
            p.samples,
            p.us
        );
    }
}

fn bench(c: &mut Criterion) {
    banner("E20", "million-gate scaling ladder");
    let workers = host_cpus();
    let ladder = scaling_ladder();

    if std::env::var("E20_SMOKE").is_ok_and(|v| v == "1") {
        // CI smoke: the 200k rung end to end with telemetry on.
        smoke(&ladder[1], workers);
        return;
    }

    let results: Vec<RungResult> = ladder
        .iter()
        .map(|rung| run_rung(rung, workers, PATTERNS, MEASURE_RUNS))
        .collect();

    for r in &results {
        blog!(
            "\n  {} rung: {} gates, {} faults, {} planned roots, coverage {:.2}% \
             ({} walked, {} statically traced)",
            r.name,
            r.gates,
            r.faults,
            r.walk_len,
            r.coverage * 100.0,
            r.walked,
            r.traced
        );
        blog!(
            "    generate {:>7.1} ms   levelize {:>7.1} ms   compile {:>7.1} ms   collapse {:>7.1} ms",
            r.t_generate * 1e3,
            r.t_levelize * 1e3,
            r.t_compile * 1e3,
            r.t_collapse * 1e3
        );
        blog!(
            "    plan: serial {:>8.1} ms   parallel({workers}) {:>8.1} ms ({:.2}x)",
            r.t_plan_serial * 1e3,
            r.t_plan_parallel * 1e3,
            r.plan_speedup(),
        );
        blog!(
            "    cone: {} gates   plan {:>6.2} ms   cache reload {:>6.2} ms ({:.1}x)",
            r.cone_gates,
            r.t_plan_cone * 1e3,
            r.t_plan_reload * 1e3,
            r.reload_speedup()
        );
        blog!(
            "    campaign ({PATTERNS} patterns, hybrid, min of {MEASURE_RUNS}): \
             cold {:>8.1} ms   warm {:>8.1} ms",
            r.t_campaign_cold * 1e3,
            r.t_campaign_warm * 1e3
        );
        let [golden, walk, trace] = r.phases;
        blog!(
            "    exec phases (telemetry, one warm pass): golden {:.3} ms   walk {:.3} ms   \
             trace {:.3} ms",
            golden.ms(),
            walk.ms(),
            trace.ms()
        );
        blog!(
            "    exec: golden chunk level runs {:>6.1} ms vs gate-order fold {:>6.1} ms \
             ({:.2}x kernel)",
            r.t_golden_sweep * 1e3,
            r.t_golden_gate_order * 1e3,
            r.sweep_speedup()
        );
    }

    // Acceptance guard: parallel plan construction >= 2x over serial on
    // the 200k+ rungs — physically impossible on small hosts, so gated.
    for r in &results[1..] {
        if host_cpus() >= 4 {
            assert!(
                r.plan_speedup() >= 2.0,
                "acceptance criterion: parallel plan build must be >= 2x over serial \
                 on the {} rung on a >= 4-CPU host (got {:.2}x on {} CPUs)",
                r.name,
                r.plan_speedup(),
                host_cpus()
            );
        } else {
            blog!(
                "  (skipping parallel-build >= 2x assertion on {} rung: host has {} CPU(s))",
                r.name,
                host_cpus()
            );
        }
    }

    // Anomaly guard (min-of-N fix): a warm pass skips plan construction
    // and artifact publication entirely, so the noise-floor estimate
    // must come out no slower than cold on every rung.
    for r in &results {
        assert!(
            r.t_campaign_warm <= r.t_campaign_cold,
            "{} rung: warm campaign ({:.1} ms) slower than cold ({:.1} ms) \
             even at min-of-{MEASURE_RUNS} — the cache hot path regressed",
            r.name,
            r.t_campaign_warm * 1e3,
            r.t_campaign_cold * 1e3
        );
    }

    // Acceptance guard: the gate table's level runs must carry the 1M
    // rung's golden-chunk execution >= 1.3x over the generic fold applied
    // gate by gate in `eval_order`. This is the phase the runs serve
    // (full-design packed evaluation); the event-driven walks evaluate a
    // handful of scattered gates per fault. Single-thread kernel
    // efficiency, so no CPU-count gate.
    let million = results.last().expect("ladder has rungs");
    assert!(
        million.sweep_speedup() >= 1.3,
        "acceptance criterion: level runs must be >= 1.3x on the {} rung's \
         golden-chunk execution (got {:.2}x: {:.1} ms runs vs {:.1} ms gate-order fold)",
        million.name,
        million.sweep_speedup(),
        million.t_golden_sweep * 1e3,
        million.t_golden_gate_order * 1e3
    );

    // Perf-regression guard: this host's warm 200k campaign vs the
    // committed figure (+25 % budget), read before it is overwritten.
    // Skips on small hosts, drift or a missing baseline — see
    // guard_regression.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bigcircuit.json");
    let guarded = guard_regression(
        path,
        "200k",
        "campaign_warm",
        results[1].t_campaign_warm,
        REGRESSION_TOLERANCE,
    );

    let (t_orig, t_lev) = layout_comparison(&ladder[0], workers, PATTERNS, MEASURE_RUNS);
    blog!(
        "\n  layout (50k rung, identical campaign): original order {:.1} ms, \
         level order {:.1} ms ({:.2}x)",
        t_orig * 1e3,
        t_lev * 1e3,
        t_orig / t_lev
    );

    let rung_json = |r: &RungResult| {
        format!(
            "{{\n      \"gates\": {},\n      \"cone_gates\": {},\n      \"faults\": {},\n      \
             \"planned_roots\": {},\n      \
             \"coverage\": {:.4},\n      \"seconds\": {{\n        \"generate\": {:.6},\n        \
             \"levelize\": {:.6},\n        \"compile\": {:.6},\n        \"collapse\": {:.6},\n        \
             \"plan_serial\": {:.6},\n        \"plan_parallel\": {:.6},\n        \
             \"plan_cone\": {:.6},\n        \"plan_reload\": {:.6},\n        \"campaign_cold\": {:.6},\n        \
             \"campaign_warm\": {:.6}\n      }},\n      \"exec_us\": {{\n        \
             \"golden\": {},\n        \"walk\": {},\n        \"trace\": {}\n      }},\n      \
             \"exec\": {{\n        \
             \"golden_sweep\": {:.6},\n        \
             \"golden_gate_order\": {:.6},\n        \
             \"sweep_speedup\": {:.2}\n      }},\n      \
             \"plan_parallel_speedup\": {:.2},\n      \
             \"plan_reload_speedup\": {:.2}\n    }}",
            r.gates,
            r.cone_gates,
            r.faults,
            r.walk_len,
            r.coverage,
            r.t_generate,
            r.t_levelize,
            r.t_compile,
            r.t_collapse,
            r.t_plan_serial,
            r.t_plan_parallel,
            r.t_plan_cone,
            r.t_plan_reload,
            r.t_campaign_cold,
            r.t_campaign_warm,
            r.phases[0].us,
            r.phases[1].us,
            r.phases[2].us,
            r.t_golden_sweep,
            r.t_golden_gate_order,
            r.sweep_speedup(),
            r.plan_speedup(),
            r.reload_speedup(),
        )
    };
    let rungs: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.name, rung_json(r)))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e20_bigcircuit\",\n  {},\n  \"patterns\": {PATTERNS},\n  \
         \"measure_runs\": {MEASURE_RUNS},\n  \"regression_guard_ran\": {guarded},\n  \
         \"rungs\": {{\n    {}\n  }},\n  \"layout_50k\": {{\n    \"campaign_original_order\": {:.6},\n    \
         \"campaign_level_order\": {:.6}\n  }}\n}}\n",
        env_json(workers, 256),
        rungs.join(",\n    "),
        t_orig,
        t_lev,
    );
    warn_env_drift(path);
    if let Err(e) = std::fs::write(path, &json) {
        blog!("  (could not write {path}: {e})");
    } else {
        blog!("  wrote {path}");
    }

    // Criterion entry on the 50k rung's plan construction only (the
    // bigger rungs would push CI wall-clock past its budget).
    let rung = &ladder[0];
    let net = rung.build();
    let (lev, _) = renumber::levelized(&net);
    let compiled = CompiledNetlist::new(&lev);
    let faults = universe::stuck_at_universe(&lev);
    let collapsed = collapse_with(&lev, &faults, workers);
    let walk = walk_list_of(&compiled, &collapsed, &faults);
    c.bench_function("e20_plan_build_50k_serial", |b| {
        b.iter(|| std::hint::black_box(TracePlan::build(&compiled, &walk)))
    });
    c.bench_function("e20_plan_build_50k_parallel", |b| {
        b.iter(|| std::hint::black_box(TracePlan::build_with(&compiled, &walk, workers)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
