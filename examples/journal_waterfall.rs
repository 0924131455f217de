//! Prints where a root span's time goes: the self time of every span
//! nested under it, plus the root's own self time as an explicit
//! unattributed remainder.
//!
//! ```text
//! cargo run --example journal_waterfall -- e20_smoke.jsonl fault.campaign
//! cargo run --example journal_waterfall -- e20_smoke.jsonl fault.campaign --min-attributed 0.95
//! ```
//!
//! The root defaults to `fault.campaign`. A span's self time is its
//! duration minus that of the spans directly nested in it on the same
//! thread; summed over every root instance, the nested spans' self times
//! plus the roots' own add up to the roots' wall clock. Spans on other
//! threads (campaign workers, fill threads) run concurrently with a span
//! on the root's thread, usually `campaign.run`, and are not added again.
//!
//! With `--min-attributed F`, exits 1 when less than the fraction `F` of
//! the roots' wall clock is attributed to nested spans, or when the
//! journal holds no root span. Exits 2 on unreadable input or a bad
//! argument, 1 on a malformed journal.

use rescue_core::telemetry::event::EventKind;
use rescue_core::telemetry::merge;
use std::collections::HashMap;

/// A span begun and not yet ended on one thread.
struct Open<'a> {
    name: &'a str,
    start_ns: u64,
    nested_ns: u64,
    under_root: bool,
}

fn usage() -> ! {
    eprintln!("usage: journal_waterfall <journal.jsonl> [root-span] [--min-attributed F]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut root = None;
    let mut min_attributed = None;
    while let Some(arg) = args.next() {
        if arg == "--min-attributed" {
            let value = args.next().and_then(|v| v.parse::<f64>().ok());
            min_attributed = Some(value.unwrap_or_else(|| usage()));
        } else if path.is_none() {
            path = Some(arg);
        } else if root.is_none() {
            root = Some(arg);
        } else {
            usage();
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let root = root.unwrap_or_else(|| "fault.campaign".to_string());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("journal_waterfall: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let journal = merge::merge(&[(1, &text)]).unwrap_or_else(|e| {
        eprintln!("{path}: INVALID — {e}");
        std::process::exit(1);
    });

    let mut lanes: HashMap<(u32, u64), Vec<Open>> = HashMap::new();
    // Per span name under the root: (spans, self ns), in first-seen order.
    let mut rows: Vec<(&str, u64, u64)> = Vec::new();
    let (mut roots, mut root_ns) = (0u64, 0u64);
    for e in journal.events() {
        let lane = lanes.entry((e.pid, e.tid)).or_default();
        match e.kind {
            EventKind::Begin => {
                let under_root = e.name == root || lane.last().is_some_and(|o| o.under_root);
                lane.push(Open {
                    name: &e.name,
                    start_ns: e.ts_ns,
                    nested_ns: 0,
                    under_root,
                });
            }
            EventKind::End => {
                // An unbalanced end is `journal_check`'s to report.
                let Some(span) = lane.pop() else { continue };
                let took = e.ts_ns.saturating_sub(span.start_ns);
                if let Some(parent) = lane.last_mut() {
                    parent.nested_ns += took;
                }
                if span.under_root {
                    let own = took.saturating_sub(span.nested_ns);
                    match rows.iter_mut().find(|r| r.0 == span.name) {
                        Some(row) => (row.1, row.2) = (row.1 + 1, row.2 + own),
                        None => rows.push((span.name, 1, own)),
                    }
                }
                if span.name == root && !lane.iter().any(|o| o.name == root) {
                    roots += 1;
                    root_ns += took;
                }
            }
            EventKind::Instant => {}
        }
    }

    if roots == 0 {
        eprintln!("{path}: no `{root}` span to attribute");
        if min_attributed.is_some() {
            std::process::exit(1);
        }
        return;
    }
    let unattributed = rows.iter().find(|r| r.0 == root).map_or(0, |r| r.2);
    rows.retain(|r| r.0 != root);
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    let ms = |ns: u64| ns as f64 / 1e6;
    let share = |ns: u64| 100.0 * ns as f64 / root_ns as f64;
    println!("{path}: {roots} × {root}, {:.3} ms", ms(root_ns));
    println!(
        "  {:<28} {:>6} {:>12} {:>7}",
        "span", "spans", "self ms", "share"
    );
    for (name, spans, own) in &rows {
        println!(
            "  {name:<28} {spans:>6} {:>12.3} {:>6.1}%",
            ms(*own),
            share(*own)
        );
    }
    println!(
        "  {:<28} {:>6} {:>12.3} {:>6.1}%",
        "(unattributed)",
        "",
        ms(unattributed),
        share(unattributed)
    );
    let attributed = 1.0 - unattributed as f64 / root_ns as f64;
    println!("  attributed: {:.1}% of {root}", 100.0 * attributed);
    if let Some(min) = min_attributed {
        if attributed < min {
            eprintln!(
                "{path}: {:.1}% of {root} attributed, below the {:.1}% floor",
                100.0 * attributed,
                100.0 * min
            );
            std::process::exit(1);
        }
    }
}
