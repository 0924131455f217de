//! Campaign observability: throughput, lane occupancy, outcome tallies.
//!
//! Every campaign report in the workspace carries a [`CampaignStats`] next
//! to its (equality-comparable) verdict payload. Timing lives here as
//! integer nanoseconds so the struct still derives `PartialEq` for
//! structural assertions, while rates are computed on demand as `f64`.

use crate::driver::ShardedRun;

/// Outcome counters accumulated over a campaign.
///
/// The radiation side fills `masked`/`latent`/`failures` (SEU/SET
/// outcomes); the safety/faults side fills `detected`/`undetected`
/// (stuck-at coverage). Unused counters stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Injections whose effect never left the injected element.
    pub masked: usize,
    /// Injections that corrupted state but no observed output.
    pub latent: usize,
    /// Injections observed at a functional output.
    pub failures: usize,
    /// Faults detected by at least one pattern / checker.
    pub detected: usize,
    /// Faults that escaped every pattern / checker.
    pub undetected: usize,
}

impl OutcomeTally {
    /// Sum of all counters.
    pub fn total(&self) -> usize {
        self.masked + self.latent + self.failures + self.detected + self.undetected
    }
}

/// Observability record for one campaign run.
///
/// Built from a [`ShardedRun`] via [`CampaignStats::from_run`], then
/// optionally enriched with lane-occupancy figures (bit-parallel engines)
/// and an [`OutcomeTally`].
///
/// # Examples
///
/// ```
/// use rescue_campaign::{Campaign, CampaignStats};
///
/// let items = [1u32, 2, 3, 4, 5];
/// let run = Campaign::serial().run_sharded(&items, |_| (), |_, _, &x| x * 2);
/// let stats = CampaignStats::from_run(items.len(), &run);
/// assert_eq!(stats.injections, 5);
/// assert_eq!(stats.workers, 1);
/// assert!(stats.elapsed_secs() > 0.0);
/// // No lane figures recorded: occupancy defaults to 1.0 (scalar engine).
/// assert_eq!(stats.lane_occupancy(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Number of injections (or faults) evaluated.
    pub injections: usize,
    /// End-to-end wall-clock, nanoseconds.
    pub elapsed_ns: u64,
    /// Workers that actually ran.
    pub workers: usize,
    /// Busy nanoseconds per worker, in worker order.
    pub worker_ns: Vec<u64>,
    /// Bit-parallel lanes carrying a live injection, summed over batches.
    pub lanes_used: u64,
    /// Total lane slots across all word batches (64 per batch).
    pub lanes_capacity: u64,
    /// Faults retired early by fault dropping (detected before the last
    /// pattern word, so later words never re-walked their cone).
    pub dropped: usize,
    /// Faults the engine walked, out of the whole universe of
    /// `injections`. A fault outside the design is never walked, with or
    /// without collapsing. With collapsing, one representative per class
    /// that an output can observe is walked, and every other verdict is
    /// expanded. [`CampaignStats::from_run`] starts it at `injections`.
    pub faults_walked: usize,
    /// Work-stealing chunks claimed away from their round-robin home
    /// worker.
    pub chunks_stolen: u64,
    /// Walked faults resolved purely by critical-path tracing: their
    /// backward sensitization chain reaches a primary output or dies
    /// without crossing a reconvergent stem, so no event-driven cone walk
    /// was ever needed for them. It is a property of the trace plan, so
    /// it is zero for non-tracing engines and for a run that builds no
    /// plan (a durable re-submission the store answers in full).
    pub faults_traced: usize,
    /// Content-addressed work units in the campaign plan (0 for
    /// non-durable runs).
    pub units_total: usize,
    /// Units answered from the result store without executing (warm
    /// cache hits / resume credit).
    pub units_cached: usize,
    /// Units this run actually executed (and persisted).
    pub units_executed: usize,
    /// Outcome counters for the run.
    pub tally: OutcomeTally,
}

impl CampaignStats {
    /// Builds timing/worker figures from a finished [`ShardedRun`].
    ///
    /// Lane figures and the tally start at zero; engines that pack lanes
    /// fill them via [`CampaignStats::record_lanes`] / direct field
    /// access.
    pub fn from_run<R>(injections: usize, run: &ShardedRun<R>) -> Self {
        CampaignStats {
            injections,
            elapsed_ns: run.elapsed_ns,
            workers: run.worker_ns.len(),
            worker_ns: run.worker_ns.clone(),
            lanes_used: 0,
            lanes_capacity: 0,
            dropped: 0,
            faults_walked: injections,
            chunks_stolen: run.steals,
            faults_traced: 0,
            units_total: 0,
            units_cached: 0,
            units_executed: 0,
            tally: OutcomeTally::default(),
        }
    }

    /// Records one word batch that carried `live` of `capacity` lanes.
    pub fn record_lanes(&mut self, live: u64, capacity: u64) {
        self.lanes_used += live;
        self.lanes_capacity += capacity;
    }

    /// Merges another run's figures into this one (multi-stage flows).
    pub fn absorb(&mut self, other: &CampaignStats) {
        self.injections += other.injections;
        self.elapsed_ns += other.elapsed_ns;
        self.workers = self.workers.max(other.workers);
        self.worker_ns.extend_from_slice(&other.worker_ns);
        self.lanes_used += other.lanes_used;
        self.lanes_capacity += other.lanes_capacity;
        self.dropped += other.dropped;
        self.faults_walked += other.faults_walked;
        self.chunks_stolen += other.chunks_stolen;
        self.faults_traced += other.faults_traced;
        self.units_total += other.units_total;
        self.units_cached += other.units_cached;
        self.units_executed += other.units_executed;
        self.tally.masked += other.tally.masked;
        self.tally.latent += other.tally.latent;
        self.tally.failures += other.tally.failures;
        self.tally.detected += other.tally.detected;
        self.tally.undetected += other.tally.undetected;
    }

    /// Wall-clock in seconds. Total: a zero-duration run reports 0.0
    /// rather than a clamped epsilon.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Injections per second of wall-clock. Total: a zero-duration run
    /// reports 0.0 instead of dividing by zero (no NaN/inf escapes into
    /// reports).
    pub fn injections_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.injections as f64 / self.elapsed_secs()
    }

    /// Fraction of bit-parallel lane slots that carried a live injection.
    ///
    /// Scalar engines record no lane figures; occupancy then reports 1.0
    /// (every "lane" they used was live).
    pub fn lane_occupancy(&self) -> f64 {
        if self.lanes_capacity == 0 {
            1.0
        } else {
            self.lanes_used as f64 / self.lanes_capacity as f64
        }
    }

    /// Fraction of the fault universe the engine walked:
    /// `faults_walked / injections` (1.0 for empty campaigns). It reads
    /// below 1.0 whenever faults went unwalked: faults outside the
    /// design, and with collapsing, faults expanded from a
    /// representative or in a class no output can observe. Lower is
    /// better.
    pub fn collapse_ratio(&self) -> f64 {
        if self.injections == 0 {
            return 1.0;
        }
        self.faults_walked as f64 / self.injections as f64
    }

    /// Faults of the universe the engine did not walk
    /// (`injections - faults_walked`): faults outside the design, and
    /// with collapsing, those expanded from a representative or in a
    /// class no output can observe.
    pub fn faults_saved(&self) -> usize {
        self.injections.saturating_sub(self.faults_walked)
    }

    /// Fraction of walked faults that critical-path tracing resolved
    /// without a cone walk: `faults_traced / faults_walked`. Total: an
    /// empty walk list (or a non-tracing engine over one) reports 0.0
    /// instead of dividing by zero, so no NaN escapes into throughput
    /// tables or BENCH JSONs.
    pub fn traced_fraction(&self) -> f64 {
        if self.faults_walked == 0 {
            return 0.0;
        }
        self.faults_traced as f64 / self.faults_walked as f64
    }

    /// Fraction of the campaign's work units answered from the result
    /// store instead of executed: `units_cached / units_total`. Total:
    /// non-durable runs (no units) report 0.0 — nothing was cached.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.units_total == 0 {
            return 0.0;
        }
        self.units_cached as f64 / self.units_total as f64
    }

    /// Mean worker busy-fraction relative to wall-clock (load balance).
    /// Total: 0.0 when no worker ran or the run took no measurable time.
    pub fn worker_utilization(&self) -> f64 {
        if self.worker_ns.is_empty() || self.elapsed_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_ns.iter().sum();
        busy as f64 / (self.worker_ns.len() as f64 * self.elapsed_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Campaign;

    #[test]
    fn from_run_captures_workers_and_time() {
        let items: Vec<u32> = (0..100).collect();
        let run = Campaign::new(1, 4).run_sharded(&items, |_| (), |_, _, &x| x);
        let stats = CampaignStats::from_run(items.len(), &run);
        assert_eq!(stats.injections, 100);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.worker_ns.len(), 4);
        assert!(stats.injections_per_sec() > 0.0);
        assert!(stats.worker_utilization() > 0.0);
    }

    #[test]
    fn lane_occupancy_tracks_recorded_batches() {
        let mut stats = CampaignStats::default();
        assert_eq!(stats.lane_occupancy(), 1.0);
        stats.record_lanes(64, 64);
        stats.record_lanes(32, 64);
        assert!((stats.lane_occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_run_reports_zero_rates() {
        // A run can legitimately measure 0 ns (empty item list, coarse
        // clock): every rate accessor must stay total and finite.
        let run: ShardedRun<u32> = ShardedRun {
            results: Vec::new(),
            worker_ns: vec![0],
            elapsed_ns: 0,
            chunks: 0,
            steals: 0,
        };
        let stats = CampaignStats::from_run(0, &run);
        assert_eq!(stats.elapsed_ns, 0, "no clamping to a fake epsilon");
        assert_eq!(stats.elapsed_secs(), 0.0);
        assert_eq!(stats.injections_per_sec(), 0.0);
        assert_eq!(stats.worker_utilization(), 0.0);
        assert!(stats.injections_per_sec().is_finite());
    }

    #[test]
    fn absorb_merges_counts() {
        let mut a = CampaignStats {
            injections: 10,
            elapsed_ns: 100,
            workers: 2,
            worker_ns: vec![50, 60],
            lanes_used: 10,
            lanes_capacity: 64,
            dropped: 3,
            faults_walked: 6,
            chunks_stolen: 2,
            faults_traced: 4,
            units_total: 4,
            units_cached: 1,
            units_executed: 3,
            tally: OutcomeTally {
                masked: 4,
                failures: 6,
                ..OutcomeTally::default()
            },
        };
        let b = CampaignStats {
            injections: 5,
            elapsed_ns: 40,
            workers: 1,
            worker_ns: vec![40],
            lanes_used: 5,
            lanes_capacity: 64,
            dropped: 4,
            faults_walked: 5,
            chunks_stolen: 1,
            faults_traced: 2,
            units_total: 2,
            units_cached: 2,
            units_executed: 0,
            tally: OutcomeTally {
                latent: 5,
                ..OutcomeTally::default()
            },
        };
        a.absorb(&b);
        assert_eq!(a.injections, 15);
        assert_eq!(a.elapsed_ns, 140);
        assert_eq!(a.workers, 2);
        assert_eq!(a.worker_ns, vec![50, 60, 40]);
        assert_eq!(a.dropped, 7);
        assert_eq!(a.faults_walked, 11);
        assert_eq!(a.chunks_stolen, 3);
        assert_eq!(a.faults_traced, 6);
        assert_eq!(a.units_total, 6);
        assert_eq!(a.units_cached, 3);
        assert_eq!(a.units_executed, 3);
        assert_eq!(a.tally.total(), 15);
    }

    #[test]
    fn cache_hit_ratio_is_total() {
        let none = CampaignStats::default();
        assert_eq!(
            none.cache_hit_ratio(),
            0.0,
            "non-durable runs cache nothing"
        );
        let stats = CampaignStats {
            units_total: 8,
            units_cached: 6,
            units_executed: 2,
            ..Default::default()
        };
        assert!((stats.cache_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn traced_fraction_is_total() {
        let empty = CampaignStats::default();
        assert_eq!(empty.traced_fraction(), 0.0, "no NaN on empty campaigns");
        assert!(empty.traced_fraction().is_finite());
        let stats = CampaignStats {
            faults_walked: 8,
            faults_traced: 6,
            ..Default::default()
        };
        assert!((stats.traced_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn collapse_ratio_defaults_to_full_walk() {
        let items: Vec<u32> = (0..10).collect();
        let run = Campaign::serial().run_sharded(&items, |_| (), |_, _, &x| x);
        let mut stats = CampaignStats::from_run(items.len(), &run);
        assert_eq!(stats.faults_walked, 10, "scalar runs walk everything");
        assert_eq!(stats.collapse_ratio(), 1.0);
        assert_eq!(stats.faults_saved(), 0);
        stats.faults_walked = 4;
        assert!((stats.collapse_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(stats.faults_saved(), 6);
        let empty = CampaignStats::default();
        assert_eq!(empty.collapse_ratio(), 1.0, "empty campaign is total");
    }
}
