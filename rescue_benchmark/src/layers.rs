//! Per-layer metrics of a traced run.
//!
//! Every call the benchmark makes into a layer's public API sits inside a
//! `bench.<layer>` span. One traced round (a set-up or an op) is reduced
//! to per-layer numbers from three sources only: those spans, the spans
//! and counters the program already emits (`fault.campaign`,
//! `plan.build`, `store.*`, ...), and the `CampaignStats` the public
//! calls return.

use rescue_campaign::CampaignStats;
use rescue_telemetry::journal::Journal;
use rescue_telemetry::metrics::MetricsSnapshot;
use rescue_telemetry::EventKind;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("netlist.generate_s", "s"),
    ("netlist.levelize_s", "s"),
    ("faults.universe_s", "s"),
    ("faults.collapse_s", "s"),
    ("faults.collapse_ratio", "ratio"),
    ("sim.compile_s", "s"),
    ("faults.plan_s", "s"),
    ("artifact.plan_hits", "count"),
    ("artifact.plan_misses", "count"),
    ("faults.exec_s", "s"),
    ("faults.exec_busy_frac", "ratio"),
    ("faults.walked", "count"),
    ("faults.traced", "count"),
    ("faults.dropped", "count"),
    ("faults.obs_walks", "count"),
    ("faults.stem_fallbacks", "count"),
    ("campaign.chunks_stolen", "count"),
    ("faults.campaign_s", "s"),
    ("faults.campaign_other_s", "s"),
    ("store.puts", "count"),
    ("store.probes", "count"),
    ("store.claims", "count"),
    ("store.units_executed", "count"),
    ("store.units_cached", "count"),
    ("seu.campaign_s", "s"),
    ("seu.exec_s", "s"),
    ("seu.exec_busy_frac", "ratio"),
    ("seu.lane_occupancy", "ratio"),
    ("seu.seq_steps", "count"),
    ("seu.snapshot_restores", "count"),
    ("seu.batches", "count"),
    ("faults.coverage", "ratio"),
    ("seu.avf", "ratio"),
    ("bench.unattributed_s", "s"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Layers that most workloads call only during set-up. When no op calls
/// one, the run reports its median over the traced set-ups instead.
pub const SETUP_LAYERS: [&str; 5] = [
    "netlist.generate_s",
    "netlist.levelize_s",
    "faults.universe_s",
    "faults.collapse_s",
    "sim.compile_s",
];

/// What an op's public calls returned that the layer metrics need.
#[derive(Debug, Default)]
pub struct Facts {
    /// Stats of the stuck-at campaign, if the op ran one.
    pub faults: Option<CampaignStats>,
    /// Stats of the SEU campaign, if the op ran one.
    pub seu: Option<CampaignStats>,
    pub coverage: f64,
    pub avf: f64,
    pub collapse_ratio: f64,
}

/// Total and self time per span name, in nanoseconds, over every thread.
/// Self time is a span's duration minus that of its direct children on
/// the same thread.
fn span_times(journal: &Journal) -> BTreeMap<&'static str, (u64, u64)> {
    // Per thread: the open spans as (name, begin, time covered by children).
    let mut open: BTreeMap<u64, Vec<(&'static str, u64, u64)>> = BTreeMap::new();
    let mut times: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for e in journal.events() {
        let stack = open.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => stack.push((e.name, e.ts_ns, 0)),
            EventKind::End => {
                let Some((name, begin, children)) = stack.pop() else {
                    continue;
                };
                let dur = e.ts_ns.saturating_sub(begin);
                let t = times.entry(name).or_default();
                t.0 += dur;
                t.1 += dur.saturating_sub(children);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            EventKind::Instant => {}
        }
    }
    times
}

/// The layer metrics of one traced round that took `wall_s` seconds.
/// `before`/`after` are the metrics registry around the round.
/// `telemetry.overhead_frac` compares whole runs and is left to the
/// caller.
pub fn harvest(
    journal: &Journal,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    facts: &Facts,
    wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    const NS: f64 = 1e-9;
    let times = span_times(journal);
    let total = |name: &str| times.get(name).map_or(0, |t| t.0) as f64 * NS;
    let own = |name: &str| times.get(name).map_or(0, |t| t.1) as f64 * NS;
    let counter = |name: &str| {
        let get = |m: &MetricsSnapshot| m.counter(name).unwrap_or(0);
        get(after).saturating_sub(get(before)) as f64
    };
    let exec = |s: &Option<CampaignStats>| s.as_ref().map_or(0.0, |s| s.elapsed_ns as f64 * NS);
    let busy =
        |s: &Option<CampaignStats>| s.as_ref().map_or(0.0, CampaignStats::worker_utilization);
    let stat = |f: fn(&CampaignStats) -> usize| facts.faults.as_ref().map_or(0.0, |s| f(s) as f64);

    let campaign_s = total("fault.campaign") + total("fault.campaign_durable");
    let plan_s = own("plan.build") + own("plan.classify");
    let bench_s: f64 = times
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, t)| t.0 as f64 * NS)
        .sum();

    BTreeMap::from([
        ("netlist.generate_s", total("bench.generate")),
        ("netlist.levelize_s", total("bench.levelize")),
        ("faults.universe_s", total("bench.universe")),
        ("faults.collapse_s", total("bench.collapse")),
        ("faults.collapse_ratio", facts.collapse_ratio),
        ("sim.compile_s", total("bench.compile")),
        ("faults.plan_s", plan_s),
        ("artifact.plan_hits", counter("plan.cache_hits")),
        ("artifact.plan_misses", counter("plan.cache_misses")),
        ("faults.exec_s", exec(&facts.faults)),
        ("faults.exec_busy_frac", busy(&facts.faults)),
        ("faults.walked", stat(|s| s.faults_walked)),
        ("faults.traced", stat(|s| s.faults_traced)),
        ("faults.dropped", counter("fault.dropped")),
        ("faults.obs_walks", counter("fault.obs_walks")),
        ("faults.stem_fallbacks", counter("fault.stem_fallbacks")),
        ("campaign.chunks_stolen", counter("campaign.chunks_stolen")),
        ("faults.campaign_s", campaign_s),
        (
            "faults.campaign_other_s",
            campaign_s - plan_s - exec(&facts.faults),
        ),
        ("store.puts", counter("store.puts")),
        ("store.probes", counter("store.probes")),
        ("store.claims", counter("store.claims")),
        ("store.units_executed", counter("store.units_executed")),
        ("store.units_cached", counter("store.units_cached")),
        ("seu.campaign_s", total("seu.campaign")),
        ("seu.exec_s", exec(&facts.seu)),
        ("seu.exec_busy_frac", busy(&facts.seu)),
        (
            "seu.lane_occupancy",
            facts
                .seu
                .as_ref()
                .map_or(0.0, CampaignStats::lane_occupancy),
        ),
        ("seu.seq_steps", counter("sim.seq_steps")),
        ("seu.snapshot_restores", counter("sim.snapshot_restores")),
        ("seu.batches", counter("seu.batches")),
        ("faults.coverage", facts.coverage),
        ("seu.avf", facts.avf),
        ("bench.unattributed_s", wall_s - bench_s),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_telemetry::Event;

    fn ev(seq: u64, ts_ns: u64, tid: u64, name: &'static str, kind: EventKind) -> Event {
        Event {
            seq,
            ts_ns,
            tid,
            name,
            kind,
            arg: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        use EventKind::{Begin, End};
        let j = Journal::from_events(vec![
            ev(0, 0, 1, "bench.campaign", Begin),
            ev(1, 10, 1, "fault.campaign", Begin),
            ev(2, 20, 1, "plan.build", Begin),
            ev(3, 25, 2, "campaign.chunk", Begin),
            ev(4, 50, 1, "plan.build", End),
            ev(5, 90, 2, "campaign.chunk", End),
            ev(6, 100, 1, "fault.campaign", End),
            ev(7, 105, 1, "bench.campaign", End),
        ]);
        let t = span_times(&j);
        assert_eq!(t["bench.campaign"], (105, 15));
        assert_eq!(t["fault.campaign"], (90, 60));
        assert_eq!(t["plan.build"], (30, 30));
        assert_eq!(
            t["campaign.chunk"],
            (65, 65),
            "other threads are not children"
        );
    }

    #[test]
    fn harvest_attributes_campaign_time_and_the_remainder() {
        use EventKind::{Begin, End};
        let j = Journal::from_events(vec![
            ev(0, 0, 1, "bench.campaign", Begin),
            ev(1, 0, 1, "fault.campaign", Begin),
            ev(2, 0, 1, "plan.build", Begin),
            ev(3, 200_000_000, 1, "plan.build", End),
            ev(4, 900_000_000, 1, "fault.campaign", End),
            ev(5, 900_000_000, 1, "bench.campaign", End),
        ]);
        let facts = Facts {
            faults: Some(CampaignStats {
                elapsed_ns: 500_000_000,
                ..CampaignStats::default()
            }),
            ..Facts::default()
        };
        let none = MetricsSnapshot::default();
        let m = harvest(&j, &none, &none, &facts, 1.0);
        let close = |name: &str, want: f64| {
            assert!((m[name] - want).abs() < 1e-9, "{name} = {}", m[name]);
        };
        close("faults.campaign_s", 0.9);
        close("faults.plan_s", 0.2);
        close("faults.exec_s", 0.5);
        close("faults.campaign_other_s", 0.2);
        close("bench.unattributed_s", 0.1);
        assert_eq!(m.len() + 1, PER_LAYER.len(), "all but the overhead metric");
    }
}
