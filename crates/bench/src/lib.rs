//! Shared helpers for the experiment benches (E1–E14).
//!
//! Each bench under `benches/` regenerates one experiment of
//! EXPERIMENTS.md: it prints the experiment's table(s) once, then
//! benchmarks the computational kernel behind it with Criterion.
//!
//! Bench narration goes through [`blog!`], which is on by default and
//! silenced with `RESCUE_QUIET=1` — so CI logs stay quiet on demand
//! while the tables remain one env var away. When telemetry is enabled,
//! every banner also drops a `bench.banner` instant into the journal so
//! exported traces carry the experiment boundaries.

/// True unless `RESCUE_QUIET=1`: whether bench harness narration
/// (tables, banners, progress lines) should be printed.
pub fn verbose() -> bool {
    std::env::var("RESCUE_QUIET")
        .map(|v| v != "1")
        .unwrap_or(true)
}

/// `eprintln!` gated behind [`verbose`]: the bench harnesses' one
/// narration channel. `RESCUE_QUIET=1` silences it.
#[macro_export]
macro_rules! blog {
    ($($arg:tt)*) => {
        if $crate::verbose() {
            eprintln!($($arg)*);
        }
    };
}

/// Prints a bench banner so tables are findable in the bench log, and
/// marks the experiment boundary in the telemetry journal.
pub fn banner(id: &str, title: &str) {
    rescue_core::telemetry::instant!("bench.banner");
    blog!("\n=== {id}: {title} ===");
}

/// `count` seeded xorshift patterns of `n_inputs` bits each: the one
/// pattern source of the engine benches, so every experiment grading
/// the same design with the same seed sees the same patterns.
pub fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
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

/// Runs `f` once; returns its output and wall-clock seconds.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Min-of-`n` timing: runs `f` `n` times, returns the last output and
/// the fastest wall-clock.
pub fn secs_min<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n.max(1) {
        let (o, t) = secs(&mut f);
        best = best.min(t);
        out = Some(o);
    }
    (out.expect("n >= 1"), best)
}

/// Logical CPUs visible to this process (1 when undetectable).
///
/// Parallel-speedup guards must gate on this: a 4-worker campaign
/// physically cannot beat serial on a 1-CPU host, and several CI
/// runners are exactly that.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `"environment"` JSON object recorded in every `BENCH_*.json`:
/// worker count used by the bench's parallel variants, bit-parallel
/// lane width, and host CPU count — without these the trajectory
/// comparisons across machines are uninterpretable (a 4-worker
/// "regression" on a 1-CPU host is not a regression).
pub fn env_json(workers: usize, lane_width: usize) -> String {
    format!(
        "\"environment\": {{\n    \"workers\": {workers},\n    \
         \"lane_width\": {lane_width},\n    \"host_cpus\": {}\n  }}",
        host_cpus()
    )
}

/// The `"host_cpus"` value stamped in an existing `BENCH_*.json`, or
/// `None` when the file is absent or carries no environment stamp
/// (pre-stamp files).
pub fn stamped_host_cpus(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.split("\"host_cpus\"").nth(1)?;
    let digits: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Warns (via [`blog!`]) when the numbers about to overwrite `path` were
/// recorded on a host with a different CPU count than the stamped one —
/// the usual cause of "drift" between committed BENCH figures and a
/// regenerating machine. Returns `true` when a mismatch was detected.
pub fn warn_env_drift(path: &str) -> bool {
    match stamped_host_cpus(path) {
        Some(stamped) if stamped != host_cpus() => {
            blog!(
                "  WARNING: {path} was recorded on a {stamped}-CPU host; this host has {} — \
                 timing deltas against the committed figures reflect the machine, not the code",
                host_cpus()
            );
            true
        }
        _ => false,
    }
}

/// A committed baseline number out of a `BENCH_*.json`: the value of
/// the first `"key": <float>` pair inside the first `"section":` object
/// of the file. `None` when the file, section or key is absent — the
/// regression guards treat a missing baseline as "nothing to compare
/// against", never as a failure, so freshly added figures don't brick
/// CI before their first recording lands.
pub fn stamped_baseline(path: &str, section: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let sect = text.split(&format!("\"{section}\"")).nth(1)?;
    let rest = sect.split(&format!("\"{key}\"")).nth(1)?;
    let number: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

/// Perf-regression guard against a committed `BENCH_*.json` baseline:
/// panics when `measured` (seconds) is more than `tolerance` slower
/// than the `section`/`key` figure stamped in `path` (e.g. `tolerance
/// 0.25` = fail beyond +25%).
///
/// The comparison is only meaningful when this host resembles the
/// recording host, so the guard **skips** (with a [`blog!`] note)
/// when the host has fewer than 4 CPUs, when [`warn_env_drift`] flags
/// a host-CPU mismatch against the stamp, or when no baseline exists —
/// a 1-CPU CI runner judging figures recorded elsewhere would only
/// measure the machine, not the code. Returns `true` when the guard
/// actually compared.
pub fn guard_regression(
    path: &str,
    section: &str,
    key: &str,
    measured: f64,
    tolerance: f64,
) -> bool {
    if host_cpus() < 4 {
        blog!(
            "  (skipping {section}.{key} regression guard: host has {} CPU(s))",
            host_cpus()
        );
        return false;
    }
    if warn_env_drift(path) {
        blog!("  (skipping {section}.{key} regression guard: environment drift)");
        return false;
    }
    let Some(baseline) = stamped_baseline(path, section, key) else {
        blog!("  (skipping {section}.{key} regression guard: no committed baseline in {path})");
        return false;
    };
    assert!(
        measured <= baseline * (1.0 + tolerance),
        "perf regression: {section}.{key} measured {measured:.6} s vs committed \
         baseline {baseline:.6} s (> +{:.0}% tolerance) in {path}",
        tolerance * 100.0
    );
    blog!("  regression guard {section}.{key}: {measured:.6} s vs baseline {baseline:.6} s — ok");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_cpus_parse_and_drift_detection() {
        let dir = std::env::temp_dir().join(format!("rescue-bench-drift-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let p = path.to_str().unwrap();

        assert_eq!(stamped_host_cpus(p), None, "missing file has no stamp");

        std::fs::write(&path, format!("{{\n  {}\n}}\n", env_json(2, 256))).unwrap();
        assert_eq!(stamped_host_cpus(p), Some(host_cpus()));
        assert!(!warn_env_drift(p), "same host must not warn");

        std::fs::write(&path, "{\n  \"environment\": { \"host_cpus\": 4096 }\n}\n").unwrap();
        assert_eq!(stamped_host_cpus(p), Some(4096));
        assert!(warn_env_drift(p), "foreign host stamp must warn");

        std::fs::write(&path, "{ \"experiment\": \"unstamped\" }").unwrap();
        assert_eq!(stamped_host_cpus(p), None);
        assert!(!warn_env_drift(p), "unstamped files cannot drift");
        std::fs::remove_dir_all(&dir).ok();
    }
}
