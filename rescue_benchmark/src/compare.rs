//! `compare A B`: judges the runs of a change (B) against those of its
//! parent (A), one row per workload and metric.
//!
//! A result file is the captured standard output of any number of runs,
//! appended one after another; every run adds one sample per metric.
//! End-to-end metrics are labelled improved, regressed, unchanged or
//! unresolved against their bound in `BENCHMARK.json` (see
//! [`crate::stats::judge`]); per-layer metrics have no bound and show
//! only their change. The exit code is 1 when any row regressed.

use crate::json::Json;
use crate::stats::{judge, median, spread, Verdict};
use std::collections::{BTreeMap, BTreeSet};

struct Spec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// Samples per (workload, metric).
type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            match it.next() {
                Some(path) => spec = path.clone(),
                None => files.clear(),
            }
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = &files[..] else {
        eprintln!("usage: rescue_benchmark compare A B [--spec BENCHMARK.json]");
        return 2;
    };
    match compare(a, b, &spec) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("rescue_benchmark compare: {e}");
            2
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load_spec(path: &str) -> Result<Vec<Spec>, String> {
    let doc = Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let mut specs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = doc
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: no \"{section}\" list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a {section} metric has no name"))?;
            specs.push(Spec {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(specs)
}

/// Reads the runs captured in `text`; `path` names it in errors.
fn parse_results(path: &str, text: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let mut workload: Option<String> = None;
    for (n, line) in text.lines().enumerate() {
        if let Some(header) = line.strip_prefix("# rescue_benchmark ") {
            workload = header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
                .map(str::to_string);
        } else if line.starts_with('{') {
            let at = |e: String| format!("{path}:{}: {e}", n + 1);
            let result = Json::parse(line).map_err(at)?;
            let w = workload
                .take()
                .ok_or_else(|| at("result without a run header".into()))?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                eprintln!("warning: {path}:{}: a {w} run is not correct", n + 1);
            }
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| at("no metrics".into()))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at(format!("{name} has no value")))?;
                samples
                    .entry((w.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

/// Prints the rows; returns whether any regressed.
fn compare(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let specs = load_spec(spec_path)?;
    let a = parse_results(a_path, &read(a_path)?)?;
    let b = parse_results(b_path, &read(b_path)?)?;
    let workloads: BTreeSet<&String> = a.keys().map(|(w, _)| w).collect();
    println!(
        "{:<12} {:<24} {:>5} {:>13} {:>5} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "n(A)", "median(A)", "n(B)", "median(B)", "change", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        for s in &specs {
            let key = (w.clone(), s.name.clone());
            let (Some(pa), Some(pb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(pa), median(pb));
            let change = if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (mb - ma) / ma.abs())
            };
            let (bound, verdict) = match s.bound {
                Some(bound) => {
                    let v = judge(pa, pb, bound, s.lower_is_better);
                    regressed |= v == Verdict::Regressed;
                    (format!("{:.0}%", 100.0 * bound), v.label())
                }
                None => ("-".to_string(), "-"),
            };
            println!(
                "{w:<12} {:<24} {:>5} {ma:>13.6} {:>5} {mb:>13.6} {change:>8} {bound:>6}  {verdict} \
                 (A spread {:.1}%)",
                s.name,
                pa.len(),
                pb.len(),
                if ma == 0.0 { 0.0 } else { 100.0 * spread(pa) }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_group_by_workload_header() {
        let run = |w: &str, v: f64| {
            format!(
                "# rescue_benchmark workload={w} seed=1 trace=0\nops: ...\n\
                 {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                 \"metrics\": {{\"op_p50_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let text = [run("mult32", 0.5), run("seu_5k", 0.7), run("mult32", 0.6)].concat();
        let samples = parse_results("a.txt", &text).unwrap();
        assert_eq!(
            samples[&("mult32".to_string(), "op_p50_s".to_string())],
            vec![0.5, 0.6]
        );
        assert_eq!(
            samples[&("seu_5k".to_string(), "op_p50_s".to_string())],
            vec![0.7]
        );
        let orphan = "{\"correct\": true, \"metrics\": {}}";
        assert!(
            parse_results("b.txt", orphan).is_err(),
            "a result needs its header"
        );
    }
}
