//! `rescue_benchmark`: the end-to-end and per-layer benchmark of the
//! RESCUE-rs fault-grading stack. README.md lists the workloads, the
//! metrics and which layer should move which metric.
//!
//! ```text
//! rescue_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! rescue_benchmark compare A B [--spec BENCHMARK.json]
//! ```
//!
//! A run executes one workload in this process: set-up (repeated, timed
//! as `setup_s`), one untimed warm-up op, then timed ops until `--seconds`
//! have passed. It prints a summary and, as its last line, one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`).

mod compare;
mod json;
mod layers;
mod stats;
mod workloads;

use layers::{Facts, PER_LAYER, SETUP_LAYERS};
use rescue_telemetry::journal::{self, Journal};
use rescue_telemetry::metrics::{self, MetricsSnapshot};
use rescue_telemetry::sinks::validate_jsonl;
use rescue_telemetry::TelemetryConfig;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Cold1m, Ctx, Durable50k, Mult32, Resume50k, Seu5k, Workload};

/// Set-ups per run: at least `SETUP_REPS`, and more while they have
/// taken less than `SETUP_MIN_S` in all, up to `SETUP_MAX_REPS`, so a
/// set-up of a millisecond still gets a steady median. `setup_s` is the
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;
/// Timed ops per run at the least, however long they take.
const MIN_OPS: u64 = 3;
/// Verdict digests of the warm-up op for the default seed. Simulated
/// results must not change between commits, so a run with `--seed 1`
/// that prints another digest is incorrect.
const SEED1_DIGESTS: [(&str, u64); 5] = [
    ("cold_1m", 0xdca9_e150_a711_d0ef),
    ("mult32", 0x378f_8005_6881_e9be),
    ("durable_50k", 0x6cf4_85dc_5362_8eca),
    ("resume_50k", 0x6cf4_85dc_5362_8eca),
    ("seu_5k", 0x8df6_da4e_aba3_4c55),
];
/// Scratch space for caches and stores, removed when the run ends.
const WORK_DIR: &str = ".bench_work";
/// Where traced runs leave their journal and Chrome trace.
const TRACE_DIR: &str = ".bench_out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => match parse(&args) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!(
                    "rescue_benchmark: {e}\nusage: rescue_benchmark --workload NAME [--seed N] \
                     [--seconds S] [--trace 0|1]\n       rescue_benchmark compare A B \
                     [--spec BENCHMARK.json]"
                );
                2
            }
        },
    };
    std::process::exit(code);
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => opts.workload = value.to_string(),
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Removes the run's scratch directory, also when a set-up panics.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only once empty
        }
    }
}

fn run(opts: &Opts) -> i32 {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        WorkDir(Path::new(WORK_DIR).join(format!("{}-{}", opts.workload, std::process::id())));
    let ctx = Ctx {
        seed: opts.seed,
        workers,
        dir: work.0.clone(),
    };
    let drive = match opts.workload.as_str() {
        "cold_1m" => drive::<Cold1m>,
        "mult32" => drive::<Mult32>,
        "durable_50k" => drive::<Durable50k>,
        "resume_50k" => drive::<Resume50k>,
        "seu_5k" => drive::<Seu5k>,
        other => {
            let names: Vec<&str> = SEED1_DIGESTS.iter().map(|(n, _)| *n).collect();
            eprintln!("rescue_benchmark: unknown workload {other}; one of {names:?}");
            return 2;
        }
    };
    println!(
        "# rescue_benchmark workload={} seed={} trace={} seconds={} workers={workers}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        opts.seconds
    );
    let runs = drive(&ctx, opts.seconds, opts.trace);
    drop(work);
    report(opts, runs);
    0
}

type Layers = BTreeMap<&'static str, f64>;

/// Everything one run measured.
#[derive(Default)]
struct Runs {
    setup_s: Vec<f64>,
    setup_layers: Vec<Layers>,
    /// Untraced timed ops.
    op_s: Vec<f64>,
    traced_s: Vec<f64>,
    traced_layers: Vec<Layers>,
    attempted: usize,
    failed: usize,
    /// Why the run is not correct: failed ops and failed run checks.
    errors: Vec<String>,
    warm_digest: Option<u64>,
    /// Journal of the first traced op, exported at the end.
    journal: Option<Journal>,
}

/// Captures the journal and metric registry around one traced round.
struct Probe {
    mark: u64,
    before: MetricsSnapshot,
}

impl Probe {
    fn start() -> Probe {
        TelemetryConfig::on().install();
        Probe {
            mark: journal::mark(),
            before: metrics::snapshot(),
        }
    }

    fn finish(self, facts: &Facts, wall_s: f64) -> (Layers, Journal) {
        TelemetryConfig::off().install();
        let journal = Journal::take_since(self.mark);
        let layers = layers::harvest(&journal, &self.before, &metrics::snapshot(), facts, wall_s);
        (layers, journal)
    }
}

fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

fn drive<W: Workload>(ctx: &Ctx, seconds: f64, trace: bool) -> Runs {
    let mut runs = Runs::default();
    let mut state: Option<W> = None;
    while runs.setup_s.len() < SETUP_REPS
        || (runs.setup_s.iter().sum::<f64>() < SETUP_MIN_S && runs.setup_s.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        let probe = trace.then(Probe::start);
        let t = Instant::now();
        let w = W::setup(ctx);
        let secs = t.elapsed().as_secs_f64();
        runs.setup_s.push(secs);
        if let Some(p) = probe {
            runs.setup_layers.push(p.finish(&Facts::default(), secs).0);
        }
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");

    round(&mut w, ctx, 0, false, &mut runs);
    let start = Instant::now();
    let mut i = 1;
    while i <= MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        // Traced runs alternate traced and untraced ops, so the tracing
        // overhead is measured under the same conditions.
        round(&mut w, ctx, i, trace && i % 2 == 1, &mut runs);
        i += 1;
    }
    runs
}

/// Runs op `i` and its checks, and records the outcome; op 0 is the
/// untimed warm-up.
fn round<W: Workload>(w: &mut W, ctx: &Ctx, i: u64, traced: bool, runs: &mut Runs) {
    runs.attempted += 1;
    let input = w.input(ctx, i);
    let probe = traced.then(Probe::start);
    let t = Instant::now();
    let out = caught(|| w.op(ctx, &input));
    let secs = t.elapsed().as_secs_f64();
    TelemetryConfig::off().install();
    let result = out.and_then(|out| {
        if let Some(p) = probe {
            let (layers, journal) = p.finish(&w.facts(&out), secs);
            runs.traced_layers.push(layers);
            runs.journal.get_or_insert(journal);
        }
        caught(|| w.check(ctx, i, input, out)).and_then(|r| r)
    });
    match result {
        Ok(digest) if i == 0 => runs.warm_digest = Some(digest),
        Ok(_) if traced => runs.traced_s.push(secs),
        Ok(_) => runs.op_s.push(secs),
        Err(e) => {
            runs.failed += 1;
            runs.errors.push(format!("op {i}: {e}"));
        }
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Writes the traced op's journal as JSONL and as a Chrome trace, after
/// validating it the same way the `journal_check` example does.
fn export(journal: &Journal, stem: &str) -> Result<(), String> {
    let check = validate_jsonl(&journal.to_jsonl())?;
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
    let base = Path::new(TRACE_DIR).join(stem);
    journal
        .export_jsonl(&base.with_extension("jsonl"))
        .map_err(|e| e.to_string())?;
    std::fs::write(base.with_extension("trace.json"), journal.to_chrome_trace())
        .map_err(|e| e.to_string())?;
    println!(
        "trace: {} events on {} threads -> {}.{{jsonl,trace.json}}",
        check.events,
        check.threads,
        base.display()
    );
    Ok(())
}

/// Prints the summary and, last, the result line.
fn report(opts: &Opts, mut runs: Runs) {
    let n_ops = runs.op_s.len() + runs.traced_s.len();
    if let (Some(digest), Some((_, want))) = (
        runs.warm_digest,
        SEED1_DIGESTS.iter().find(|(n, _)| *n == opts.workload),
    ) {
        println!("verdict_digest {digest:016x}");
        if opts.seed == 1 && digest != *want {
            runs.errors.push(format!(
                "seed 1 verdict digest {digest:016x}, recorded {want:016x}"
            ));
        }
    }
    if n_ops == 0 {
        runs.errors.push("no op completed".into());
    }
    let median = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(xs)
        }
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let overhead = median(&runs.traced_s) / median(&runs.op_s) - 1.0;
        for (name, unit) in PER_LAYER {
            let over = |rounds: &[Layers]| {
                median(
                    &rounds
                        .iter()
                        .filter_map(|m| m.get(name).copied())
                        .collect::<Vec<_>>(),
                )
            };
            let mut value = over(&runs.traced_layers);
            if name == "telemetry.overhead_frac" {
                value = overhead;
            } else if value == 0.0 && SETUP_LAYERS.contains(&name) {
                value = over(&runs.setup_layers);
            }
            metrics.push((name, value, unit));
        }
        match runs.journal.take() {
            Some(j) => {
                let stem = format!("{}-seed{}", opts.workload, opts.seed);
                if let Err(e) = export(&j, &stem) {
                    runs.errors.push(format!("trace export: {e}"));
                }
            }
            None => runs.errors.push("no traced op completed".into()),
        }
    } else {
        let rss = peak_rss_mb().unwrap_or_else(|| {
            runs.errors.push("VmHWM unavailable".into());
            0.0
        });
        metrics.push(("setup_s", median(&runs.setup_s), "s"));
        metrics.push(("op_p50_s", median(&runs.op_s), "s"));
        metrics.push(("peak_rss_mb", rss, "MB"));
    }

    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            runs.errors.push(format!("{name} is not a number"));
            *value = 0.0;
        }
    }

    let all_ops: Vec<f64> = runs.op_s.iter().chain(&runs.traced_s).copied().collect();
    let tail = stats::tail(&all_ops).map_or(String::new(), |(p, v)| format!(", p{p:.0} {v:.6} s"));
    println!(
        "setup: median {:.6} s of {} set-ups",
        median(&runs.setup_s),
        runs.setup_s.len()
    );
    if !all_ops.is_empty() {
        let [q1, q2, q3] = stats::quartiles(&all_ops);
        println!(
            "ops: median {q2:.6} s, quartiles {q1:.6}..{q3:.6} s{tail}, of {n_ops} timed ops \
             (+1 untimed warm-up)"
        );
    }
    for e in &runs.errors {
        eprintln!("rescue_benchmark: {e}");
    }
    println!("failed: {} of {} ops", runs.failed, runs.attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runs.errors.is_empty(),
        runs.attempted,
        runs.failed,
        body.join(", ")
    );
}
