//! Live campaign progress: items done, rate and ETA.
//!
//! A [`Progress`] is a tiny shared counter campaign workers tick as they
//! finish items; any thread can take a [`ProgressSnapshot`] to render a
//! status line without stopping the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Shared completion counter for one campaign run.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    start: Instant,
}

impl Progress {
    /// Starts tracking a run of `total` items; the clock starts now.
    pub fn new(total: usize) -> Self {
        Progress {
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
        }
    }

    /// Records `n` more completed items; returns the new completed count.
    pub fn add(&self, n: usize) -> usize {
        self.done.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Items in the run.
    pub fn total(&self) -> usize {
        self.total
    }

    /// A consistent view of the run right now. All rate fields are
    /// total: a zero-duration or zero-progress snapshot reports 0.0
    /// rate and `None` ETA instead of dividing by zero.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let done = self.done().min(self.total);
        let elapsed_secs = self.start.elapsed().as_secs_f64();
        let items_per_sec = if elapsed_secs > 0.0 {
            done as f64 / elapsed_secs
        } else {
            0.0
        };
        let eta_secs = if done >= self.total {
            Some(0.0)
        } else if items_per_sec > 0.0 {
            Some((self.total - done) as f64 / items_per_sec)
        } else {
            None
        };
        ProgressSnapshot {
            done,
            total: self.total,
            elapsed_secs,
            items_per_sec,
            eta_secs,
        }
    }
}

/// Point-in-time view of a running campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Items completed.
    pub done: usize,
    /// Items in the run.
    pub total: usize,
    /// Seconds since the run started.
    pub elapsed_secs: f64,
    /// Completion rate so far (0.0 until time has measurably passed).
    pub items_per_sec: f64,
    /// Estimated seconds to completion; `None` before a rate exists,
    /// `Some(0.0)` once done.
    pub eta_secs: Option<f64>,
}

impl ProgressSnapshot {
    /// Completed fraction in `[0, 1]` (1.0 for an empty run).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }

    /// One-line status string: `"1500/4000 (37.5 %), 1234.0 items/s"`.
    pub fn status_line(&self) -> String {
        format!(
            "{}/{} ({:.1} %), {:.1} items/s",
            self.done,
            self.total,
            100.0 * self.fraction(),
            self.items_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_rates_are_total() {
        let p = Progress::new(100);
        let s = p.snapshot();
        assert_eq!(s.done, 0);
        assert!(s.items_per_sec >= 0.0 && s.items_per_sec.is_finite());
        assert_eq!(s.eta_secs, None, "no rate yet, no ETA guess");
        p.add(100);
        let s = p.snapshot();
        assert_eq!(s.done, 100);
        assert_eq!(s.eta_secs, Some(0.0));
        assert_eq!(s.fraction(), 1.0);
    }

    #[test]
    fn empty_run_is_complete() {
        let p = Progress::new(0);
        let s = p.snapshot();
        assert_eq!(s.fraction(), 1.0);
        assert_eq!(s.eta_secs, Some(0.0));
        assert!(s.status_line().starts_with("0/0"));
    }
}
