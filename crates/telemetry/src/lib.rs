//! Workspace-wide observability for RESCUE-rs campaigns and flows.
//!
//! The paper's holistic EDA flow (Section IV, Fig. 2) is a multi-stage
//! pipeline — fault universe, ATPG, classification, SET vulnerability,
//! PMHF sign-off — and every stage runs fault-injection campaigns whose
//! internal behaviour (cone sizes, lane occupancy, snapshot restores)
//! decides whether the flow scales. This crate is the one substrate all
//! of that reports through:
//!
//! * **Spans** — [`span!`] opens a guard object that emits a `Begin`
//!   event now and an `End` event when dropped; [`instant!`] emits a
//!   single point event. Events go to a lock-free-on-the-hot-path
//!   per-thread buffer ([`event`]) that drains into the global journal
//!   on overflow and on thread exit.
//! * **Metrics** — [`metrics`] is a process-wide registry of named
//!   counters, gauges and fixed-bucket histograms (e.g.
//!   `fault.packed_lanes`, `seu.lane_occupancy`) whose
//!   [`metrics::snapshot`] is a `PartialEq`-comparable report.
//! * **Journal + sinks** — [`journal::Journal`] captures the emitted
//!   event stream; [`sinks`] renders it as a JSONL run journal, a
//!   Chrome-trace (`trace_event`) file for flamegraph-style inspection,
//!   and a markdown summary reused by the flow sign-off report.
//! * **Observability plane** — [`expo`] renders the metrics registry in
//!   the Prometheus text exposition format (served live by
//!   `rescue-observer`'s `/metrics` endpoint), and [`merge`] stitches
//!   the per-process JSONL journals of a multi-process campaign into
//!   one pid-tagged, re-sequenced timeline with a pid-laned
//!   Chrome-trace sink.
//!
//! # Zero cost when disabled
//!
//! Telemetry is **off by default**. Every emission point first loads one
//! relaxed [`AtomicBool`](std::sync::atomic::AtomicBool); when it is
//! false, [`span!`] returns an inert guard and metric handles do
//! nothing. The `e14_telemetry_overhead` bench pins the enabled-path
//! overhead below 2 % on the E12/E13 campaign workloads.
//!
//! # Examples
//!
//! ```
//! use rescue_telemetry::{journal::Journal, span, instant, TelemetryConfig};
//!
//! let _serial = rescue_telemetry::exclusive(); // tests share global state
//! TelemetryConfig::on().install();
//! let mark = rescue_telemetry::journal::mark();
//! {
//!     let _stage = span!("flow.atpg", faults = 42);
//!     instant!("atpg.backtrack_limit");
//! }
//! let journal = Journal::snapshot_since(mark).current_thread();
//! TelemetryConfig::off().install();
//! let spans = journal.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "flow.atpg");
//! assert!(journal.to_jsonl().contains("\"name\":\"flow.atpg\""));
//! ```

pub mod event;
pub mod expo;
pub mod journal;
pub mod merge;
pub mod metrics;
pub mod sinks;

use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};

pub use event::{Event, EventKind, Span};

/// Process-wide telemetry policy.
///
/// The struct is deliberately tiny and `Copy`: campaigns thread it
/// through to decide whether to pay for instrumentation, and
/// [`TelemetryConfig::install`] flips the single global switch every
/// emission point checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether spans, instants and metric mutations are recorded.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Telemetry fully disabled — the zero-cost default.
    pub fn off() -> Self {
        TelemetryConfig { enabled: false }
    }

    /// Telemetry enabled: events buffer per thread, metrics record.
    pub fn on() -> Self {
        TelemetryConfig { enabled: true }
    }

    /// Reads `RESCUE_TELEMETRY` (`"1"` enables) from the environment.
    pub fn from_env() -> Self {
        match std::env::var("RESCUE_TELEMETRY") {
            Ok(v) if v == "1" => Self::on(),
            _ => Self::off(),
        }
    }

    /// Applies this policy to the global switch.
    pub fn install(&self) {
        event::ENABLED.store(self.enabled, Ordering::Relaxed);
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Whether telemetry is currently enabled (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    event::ENABLED.load(Ordering::Relaxed)
}

/// Serializes tests (and other short critical sections) that flip the
/// global telemetry switch or drain the global journal.
///
/// Rust runs tests of one binary on concurrent threads; a test that
/// enables telemetry and asserts on the journal would otherwise race
/// with its siblings. Hold the returned guard for the duration of such
/// a test. Poisoning is ignored on purpose — an unrelated panicking
/// test must not cascade.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens a tracing span: emits a `Begin` event now and an `End` event
/// when the returned [`Span`] guard drops.
///
/// Bind the guard (`let _stage = span!("...");`) — an unbound guard
/// drops immediately and times nothing. An optional `key = value` pair
/// attaches one integer argument to the `Begin` event:
/// `span!("atpg.podem", gate = id)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::event::Span::enter($name, None)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::event::Span::enter($name, Some((stringify!($key), $val as i64)))
    };
}

/// Emits a single point (`Instant`) event, optionally with one integer
/// `key = value` argument: `instant!("slicing.pattern", index = pi)`.
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::event::instant($name, None)
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::event::instant($name, Some((stringify!($key), $val as i64)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    #[test]
    fn disabled_telemetry_emits_nothing() {
        let _serial = exclusive();
        TelemetryConfig::off().install();
        let mark = journal::mark();
        {
            let _s = span!("off.span");
            instant!("off.instant");
        }
        let j = Journal::snapshot_since(mark).current_thread();
        assert!(j.is_empty(), "disabled telemetry must not record");
    }

    #[test]
    fn config_round_trips_env_convention() {
        assert_eq!(TelemetryConfig::off(), TelemetryConfig::default());
        assert!(TelemetryConfig::on().enabled);
        assert!(!TelemetryConfig::off().enabled);
    }

    #[test]
    fn span_guard_times_nested_regions() {
        let _serial = exclusive();
        TelemetryConfig::on().install();
        let mark = journal::mark();
        {
            let _outer = span!("outer");
            let _inner = span!("inner", depth = 1);
        }
        let j = Journal::snapshot_since(mark).current_thread();
        TelemetryConfig::off().install();
        let spans = j.spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first (drop order), outer encloses it.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert!(spans[1].dur_ns >= spans[0].dur_ns);
        assert_eq!(spans[0].arg, Some(("depth", 1)));
    }
}
