//! E20 — million-gate scaling ladder: setup layers, the output-cone
//! campaign with tracing on and off, level-ordered layouts and the
//! execution phase split.
//!
//! Three rungs from `generate::scaling_ladder()` — 50 k, 200 k and 10^6
//! gates — each measuring the *setup* path that dominates big-circuit
//! campaigns before the first pattern simulates, then the campaign:
//!
//! * **generate / levelize / compile** — netlist construction, the
//!   level-ordered renumbering (`renumber::levelized`, the
//!   cache-friendly layout) and arena compilation;
//! * **collapse** — the dense-slot equivalence rule pass
//!   (`collapse_with`, sharded over workers);
//! * **output cone** — campaigns on these rungs evaluate only the
//!   output cone (`campaign_arena`: every rung keeps under 3% of its
//!   gates), so the plan they build is the cone's, timed here with the
//!   serial `TracePlan::build` every campaign runs in its prepare step;
//! * **campaign, traced and walked** — the same campaign with
//!   `.traced()` and without it, on the same patterns, each the min of
//!   `MEASURE_RUNS` interleaved runs. Both compile the arena and build
//!   their plan afresh, as every campaign does: nothing derived from a
//!   netlist is cached.
//!   Equal first detections are asserted per rung; the walked timing
//!   and `trace_over_walk` are recorded without a guard;
//! * **exec phase split** — one telemetry-on traced pass records the
//!   `exec.golden_us` / `exec.walk_us` / `exec.trace_us` histograms, so
//!   the golden/walk/trace shares are measured, not inferred;
//! * **golden kernel** — one full-design packed evaluation through the
//!   gate table's level runs vs the generic fold gate by gate (the 1 M
//!   rung gates ≥ 1.3x).
//!
//! Campaign timings use 256 random patterns (W=4, collapsed). On the
//! 50 k rung the traced campaign also runs on the *original*
//! (non-levelized) gate numbering, in `LAYOUT_PAIRS` interleaved pairs
//! against the level order with the first side alternating, so the
//! layout effect is a median with its quartiles, not a claim; coverage
//! equality between the two numberings is asserted.
//!
//! Measurements land in `BENCH_bigcircuit.json` with the execution
//! environment stamped; `warn_env_drift` flags regeneration on a host
//! with a different CPU count than the committed figures. A
//! perf-regression guard compares this host's traced 200 k campaign
//! against the committed figure and fails beyond +25 % — skipped (with a
//! note) on < 4-CPU hosts, under environment drift, or when no baseline
//! is stamped.
//!
//! Set `E20_SMOKE=1` for a seconds-scale CI run: the 200k rung with a
//! reduced pattern block and telemetry on, asserting non-empty, non-zero
//! `exec.golden_us` and `exec.trace_us` histograms and exporting the run
//! journal to `e20_smoke.jsonl` for `journal_check` validation.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{
    banner, blog, env_json, guard_regression, host_cpus, random_patterns, secs, secs_min,
    warn_env_drift,
};
use rescue_core::campaign::Campaign;
use rescue_core::faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_core::faults::engine::po_reachable;
use rescue_core::faults::simulate::{campaign_arena, FaultSimulator, PackedOptions};
use rescue_core::faults::trace::TracePlan;
use rescue_core::faults::{universe, Fault};
use rescue_core::netlist::generate::{scaling_ladder, ScaleRung};
use rescue_core::netlist::renumber;
use rescue_core::sim::compiled::CompiledNetlist;
use rescue_core::sim::sweep::{fold, GateValue};
use rescue_core::sim::wide::{pack_patterns_wide, PackedWord, SimWord};
use rescue_core::telemetry::{journal, metrics, TelemetryConfig};

const PATTERNS: usize = 256;
const SMOKE_PATTERNS: usize = 64;
/// Campaign timings are min-of-N, the standard noise floor estimator:
/// one allocator / page-cache hiccup in a single sample can invert an
/// ordering. Smoke mode keeps N=1 for CI budget.
const MEASURE_RUNS: usize = 3;
/// Interleaved original-order / level-order campaign pairs of the 50 k
/// layout comparison.
const LAYOUT_PAIRS: usize = 20;
/// Traced-campaign regression tolerance vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// The walk list the packed engines plan over: PO-reachable collapse
/// representatives in order of first appearance over the universe —
/// exactly the list `campaign_packed` plans.
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

/// First quartile, median and third quartile of `xs`, interpolating
/// linearly between order statistics.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Runs `f(0)` and `f(1)` in `n` pairs whose first side alternates, so
/// neither side always runs first; returns each side's wall-clock
/// samples with its last output.
fn interleaved<T>(n: usize, mut f: impl FnMut(usize) -> T) -> [(Vec<f64>, T); 2] {
    let mut times = [Vec::new(), Vec::new()];
    let mut last = [None, None];
    for i in 0..n.max(1) {
        for side in [i % 2, 1 - i % 2] {
            let (out, t) = secs(|| f(side));
            times[side].push(t);
            last[side] = Some(out);
        }
    }
    let [t0, t1] = times;
    let [Some(out0), Some(out1)] = last else {
        unreachable!("every side ran at least once")
    };
    [(t0, out0), (t1, out1)]
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
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
    /// Gates of the arena campaigns evaluate (the output cone).
    cone_gates: usize,
    t_plan_cone: f64,
    /// The traced campaign, min of N.
    t_campaign: f64,
    /// The same campaign without `.traced()`, min of N.
    t_campaign_walk: f64,
    /// `exec.golden_us`, `exec.walk_us`, `exec.trace_us` of one traced
    /// pass.
    phases: [Phase; 3],
    t_golden_sweep: f64,
    t_golden_gate_order: f64,
    coverage: f64,
    walked: usize,
    traced: usize,
}

impl RungResult {
    /// Speedup of tracing over the walk on the whole campaign (above 1:
    /// the traced campaign is faster).
    fn trace_over_walk(&self) -> f64 {
        self.t_campaign_walk / self.t_campaign
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
    // What campaigns plan: the output cone and the walk list in its ids.
    let (cone, cone_walk) = campaign_arena(&c, &walk);
    let (_, t_plan_cone) = secs(|| TracePlan::build(&cone, &cone_walk));

    let patterns = random_patterns(lev.primary_inputs().len(), n_patterns, rung.seed ^ 0x9e37);
    let campaign = Campaign::new(0, workers);
    let walked = PackedOptions::wide(4).with_collapsed(&collapsed);
    let traced = walked.traced();
    let run = |opts| FaultSimulator::new(&lev).campaign_packed(&faults, &patterns, &campaign, opts);
    let [(trace_t, trace), (walk_t, walk_run)] =
        interleaved(runs, |side| run([traced, walked][side]));
    let (t_campaign, t_campaign_walk) = (min(&trace_t), min(&walk_t));
    assert_eq!(
        trace.report.first_detection(),
        walk_run.report.first_detection(),
        "{}-gate rung: the traced campaign diverged from the walk",
        rung.gates
    );
    let phases = exec_phases(|| {
        run(traced);
    });
    // Golden-kernel ablation: one full-design packed evaluation (the
    // phase the level runs target) through the runs vs the generic fold
    // over each gate's CSR pins in `eval_order`, each into a reused
    // buffer it clears and resizes first, as a golden chunk fill does.
    type Wd = PackedWord<4>;
    let kernel_words = pack_patterns_wide::<Wd>(&patterns[..patterns.len().min(Wd::LANES)]);
    let mut swept = Vec::with_capacity(c.len());
    let (_, t_golden_sweep) = secs_min(runs, || {
        c.eval_words_into(&kernel_words, &mut swept).unwrap()
    });
    let mut gate_order = Vec::with_capacity(c.len());
    let (_, t_golden_gate_order) = secs_min(runs, || {
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
    });
    assert_eq!(
        swept, gate_order,
        "level runs diverged from the gate-order fold"
    );

    RungResult {
        name: rung.name,
        gates: lev.len(),
        faults: faults.len(),
        walk_len: walk.len(),
        t_generate,
        t_levelize,
        t_compile,
        t_collapse,
        cone_gates: cone.len(),
        t_plan_cone,
        t_campaign,
        t_campaign_walk,
        phases,
        t_golden_sweep,
        t_golden_gate_order,
        coverage: trace.report.coverage(),
        walked: trace.stats.faults_walked,
        traced: trace.stats.faults_traced,
    }
}

/// The 50 k-rung layout experiment: the identical traced campaign on
/// the original and the level-ordered numbering, timed in `pairs`
/// interleaved pairs whose first side alternates. Returns each side's
/// samples, original order first; coverage equality is asserted (the
/// two numberings are the same circuit).
fn layout_comparison(
    rung: &ScaleRung,
    workers: usize,
    n_patterns: usize,
    pairs: usize,
) -> [Vec<f64>; 2] {
    let net = rung.build();
    let (lev, _) = renumber::levelized(&net);
    let campaign = Campaign::new(0, workers);
    let sides = [&net, &lev].map(|n| {
        let faults = universe::stuck_at_universe(n);
        let collapsed = collapse_with(n, &faults, workers);
        let patterns = random_patterns(n.primary_inputs().len(), n_patterns, rung.seed ^ 0x9e37);
        (FaultSimulator::new(n), faults, collapsed, patterns)
    });
    let [(t_orig, orig_run), (t_lev, lev_run)] = interleaved(pairs, |side| {
        let (sim, faults, collapsed, patterns) = &sides[side];
        let opts = PackedOptions::wide(4).with_collapsed(collapsed).traced();
        sim.campaign_packed(faults, patterns, &campaign, opts)
    });
    assert_eq!(
        orig_run.report.coverage(),
        lev_run.report.coverage(),
        "levelized renumbering changed coverage on the same circuit"
    );
    [t_orig, t_lev]
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
         coverage {:.2}%, cone of {} gates: plan {:.2} ms, campaign traced {:.1} ms / \
         walked {:.1} ms, exec golden/walk/trace {:.3}/{:.3}/{:.3} ms, \
         {} journal events -> {path}",
        r.name,
        r.gates,
        r.faults,
        r.walk_len,
        r.walked,
        r.traced,
        r.coverage * 100.0,
        r.cone_gates,
        r.t_plan_cone * 1e3,
        r.t_campaign * 1e3,
        r.t_campaign_walk * 1e3,
        golden.ms(),
        walk.ms(),
        trace.ms(),
        j.len()
    );
    for (name, p) in [("exec.golden_us", golden), ("exec.trace_us", trace)] {
        assert!(
            p.samples > 0 && p.us > 0,
            "{name}: {} samples summing to {} µs on the traced campaign",
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
            "    cone: {} gates   plan {:>6.2} ms",
            r.cone_gates,
            r.t_plan_cone * 1e3
        );
        blog!(
            "    campaign ({PATTERNS} patterns, min of {MEASURE_RUNS}): traced {:>8.1} ms   \
             walked {:>8.1} ms ({:.2}x trace over walk)",
            r.t_campaign * 1e3,
            r.t_campaign_walk * 1e3,
            r.trace_over_walk()
        );
        let [golden, walk, trace] = r.phases;
        blog!(
            "    exec phases (telemetry, one traced pass): golden {:.3} ms   walk {:.3} ms   \
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

    // Perf-regression guard: this host's traced 200k campaign vs the
    // committed figure (+25 % budget), read before it is overwritten.
    // Skips on small hosts, drift or a missing baseline — see
    // guard_regression.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bigcircuit.json");
    let guarded = guard_regression(
        path,
        "200k",
        "campaign",
        results[1].t_campaign,
        REGRESSION_TOLERANCE,
    );

    let [orig, lev] =
        layout_comparison(&ladder[0], workers, PATTERNS, LAYOUT_PAIRS).map(|t| quartiles(&t));
    // Resolved only when the two sides' interquartile ranges are disjoint.
    let resolved = orig[0] > lev[2] || lev[0] > orig[2];
    blog!(
        "\n  layout (50k rung, traced campaign, {LAYOUT_PAIRS} interleaved pairs): original \
         order {:.1} ms [{:.1}, {:.1}], level order {:.1} ms [{:.1}, {:.1}] \
         ({:.2}x at the medians, {})",
        orig[1] * 1e3,
        orig[0] * 1e3,
        orig[2] * 1e3,
        lev[1] * 1e3,
        lev[0] * 1e3,
        lev[2] * 1e3,
        orig[1] / lev[1],
        if resolved {
            "resolved"
        } else {
            "unresolved: the quartiles overlap"
        }
    );

    let rung_json = |r: &RungResult| {
        format!(
            "{{\n      \"gates\": {},\n      \"cone_gates\": {},\n      \"faults\": {},\n      \
             \"planned_roots\": {},\n      \
             \"coverage\": {:.4},\n      \"seconds\": {{\n        \"generate\": {:.6},\n        \
             \"levelize\": {:.6},\n        \"compile\": {:.6},\n        \"collapse\": {:.6},\n        \
             \"plan_cone\": {:.6},\n        \"campaign\": {:.6},\n        \
             \"campaign_walk\": {:.6}\n      }},\n      \"trace_over_walk\": {:.2},\n      \
             \"exec_us\": {{\n        \
             \"golden\": {},\n        \"walk\": {},\n        \"trace\": {}\n      }},\n      \
             \"exec\": {{\n        \
             \"golden_sweep\": {:.6},\n        \
             \"golden_gate_order\": {:.6},\n        \
             \"sweep_speedup\": {:.2}\n      }}\n    }}",
            r.gates,
            r.cone_gates,
            r.faults,
            r.walk_len,
            r.coverage,
            r.t_generate,
            r.t_levelize,
            r.t_compile,
            r.t_collapse,
            r.t_plan_cone,
            r.t_campaign,
            r.t_campaign_walk,
            r.trace_over_walk(),
            r.phases[0].us,
            r.phases[1].us,
            r.phases[2].us,
            r.t_golden_sweep,
            r.t_golden_gate_order,
            r.sweep_speedup(),
        )
    };
    let side_json = |[q1, median, q3]: [f64; 3]| {
        format!("{{ \"median\": {median:.6}, \"q1\": {q1:.6}, \"q3\": {q3:.6} }}")
    };
    let rungs: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.name, rung_json(r)))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e20_bigcircuit\",\n  {},\n  \"patterns\": {PATTERNS},\n  \
         \"measure_runs\": {MEASURE_RUNS},\n  \"regression_guard_ran\": {guarded},\n  \
         \"rungs\": {{\n    {}\n  }},\n  \"layout_50k\": {{\n    \"pairs\": {LAYOUT_PAIRS},\n    \
         \"campaign_original_order\": {},\n    \"campaign_level_order\": {},\n    \
         \"speedup_at_medians\": {:.2},\n    \"resolved\": {resolved}\n  }}\n}}\n",
        env_json(workers, 256),
        rungs.join(",\n    "),
        side_json(orig),
        side_json(lev),
        orig[1] / lev[1],
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
    c.bench_function("e20_plan_build_50k", |b| {
        b.iter(|| std::hint::black_box(TracePlan::build(&compiled, &walk)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
