//! Event emission: the per-thread buffer behind every span and instant.
//!
//! The hot path is append-only into a `thread_local!` vector — no lock,
//! no allocation beyond the vector's amortized growth. Buffers drain
//! into the global sink when they reach [`FLUSH_AT`] events and when
//! their thread exits (scoped campaign workers flush on exit, so a drain
//! after `Campaign::run_dynamic` sees every worker's events).
//! Every event carries a globally unique sequence number, so the merged
//! stream has a total order even across threads.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The global on/off switch; see [`crate::TelemetryConfig::install`].
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

/// Global event sequence counter (total order across threads).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// The global sink thread buffers drain into.
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Next thread id to hand out; ids are registration-ordered, not OS ids.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Local buffers flush to the sink at this size.
pub const FLUSH_AT: usize = 1024;

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The most recent open span of the same thread closed.
    End,
    /// A single point in time.
    Instant,
}

impl EventKind {
    /// The Chrome `trace_event` phase letter for this kind.
    pub fn phase(&self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        }
    }
}

/// One timestamped telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Globally unique, monotonically assigned sequence number.
    pub seq: u64,
    /// Nanoseconds since the process telemetry epoch.
    pub ts_ns: u64,
    /// Registration-ordered id of the emitting thread.
    pub tid: u64,
    /// Static event name, dot-namespaced (`"flow.atpg"`).
    pub name: &'static str,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Optional single integer argument (`("gate", 17)`).
    pub arg: Option<(&'static str, i64)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the telemetry epoch (first use in this process).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_into_sink(&mut self.events);
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

fn flush_into_sink(events: &mut Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.append(events);
}

/// The calling thread's telemetry id (assigned on first use).
pub fn current_tid() -> u64 {
    BUF.with(|b| b.borrow().tid)
}

/// Emits one event (no-op while telemetry is disabled).
pub fn emit(name: &'static str, kind: EventKind, arg: Option<(&'static str, i64)>) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_ns = now_ns();
    let pushed = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        let tid = b.tid;
        b.events.push(Event {
            seq,
            ts_ns,
            tid,
            name,
            kind,
            arg,
        });
        if b.events.len() >= FLUSH_AT {
            let mut full = std::mem::take(&mut b.events);
            flush_into_sink(&mut full);
        }
    });
    if pushed.is_err() {
        // Thread-local storage already torn down (late drop during
        // thread exit): write through to the sink directly.
        flush_into_sink(&mut vec![Event {
            seq,
            ts_ns,
            tid: u64::MAX,
            name,
            kind,
            arg,
        }]);
    }
}

/// Emits a point event; prefer the [`crate::instant!`] macro.
pub fn instant(name: &'static str, arg: Option<(&'static str, i64)>) {
    emit(name, EventKind::Instant, arg);
}

/// Flushes the calling thread's buffer into the global sink.
pub fn flush_current_thread() {
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        let mut events = std::mem::take(&mut b.events);
        flush_into_sink(&mut events);
    });
}

/// Current value of the global sequence counter (see
/// [`crate::journal::mark`]).
pub(crate) fn seq_mark() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Takes every sink event with `seq >= mark` out of the global sink
/// (after flushing the calling thread), sorted by sequence number.
pub(crate) fn take_since(mark: u64) -> Vec<Event> {
    flush_current_thread();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut taken: Vec<Event> = Vec::new();
    sink.retain(|e| {
        if e.seq >= mark {
            taken.push(*e);
            false
        } else {
            true
        }
    });
    taken.sort_unstable_by_key(|e| e.seq);
    taken
}

/// Clones every sink event with `seq >= mark` (after flushing the
/// calling thread), sorted by sequence number. Non-destructive: other
/// observers still see the events.
pub(crate) fn clone_since(mark: u64) -> Vec<Event> {
    flush_current_thread();
    let sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut events: Vec<Event> = sink.iter().filter(|e| e.seq >= mark).copied().collect();
    events.sort_unstable_by_key(|e| e.seq);
    events
}

/// RAII span guard: `Begin` on [`Span::enter`], `End` on drop.
///
/// Construct through the [`crate::span!`] macro. While telemetry is
/// disabled the guard is inert (a `None` name) and drop does nothing.
#[derive(Debug)]
#[must_use = "binding the guard is what delimits the span"]
pub struct Span {
    name: Option<&'static str>,
}

impl Span {
    /// Opens the span (emits `Begin`) if telemetry is enabled.
    pub fn enter(name: &'static str, arg: Option<(&'static str, i64)>) -> Span {
        if !ENABLED.load(Ordering::Relaxed) {
            return Span { name: None };
        }
        emit(name, EventKind::Begin, arg);
        Span { name: Some(name) }
    }

    /// Whether this guard will emit an `End` event on drop.
    pub fn is_active(&self) -> bool {
        self.name.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            emit(name, EventKind::End, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{mark, Journal};
    use crate::TelemetryConfig;

    #[test]
    fn sequence_numbers_are_strictly_increasing() {
        let _serial = crate::exclusive();
        TelemetryConfig::on().install();
        let m = mark();
        for _ in 0..10 {
            instant("seq.test", None);
        }
        let j = Journal::snapshot_since(m).current_thread();
        TelemetryConfig::off().install();
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 10);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn worker_thread_events_flush_on_scope_exit() {
        let _serial = crate::exclusive();
        TelemetryConfig::on().install();
        let m = mark();
        let main_tid = current_tid();
        let worker_tid = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _s = Span::enter("worker.span", Some(("worker", 3)));
                    current_tid()
                })
                .join()
                .expect("worker")
        });
        let j = Journal::snapshot_since(m);
        TelemetryConfig::off().install();
        assert_ne!(main_tid, worker_tid);
        let worker = j.thread(worker_tid);
        assert_eq!(worker.spans().len(), 1, "scope exit flushed the buffer");
        assert_eq!(worker.spans()[0].arg, Some(("worker", 3)));
    }

    #[test]
    fn overflow_flushes_before_thread_exit() {
        let _serial = crate::exclusive();
        TelemetryConfig::on().install();
        let m = mark();
        for _ in 0..(FLUSH_AT + 8) {
            instant("overflow.test", None);
        }
        // Inspect the raw sink without flushing this thread: overflow
        // alone must already have moved FLUSH_AT events across.
        let in_sink = {
            let sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.iter()
                .filter(|e| e.seq >= m && e.name == "overflow.test")
                .count()
        };
        // Drain fully so later tests start clean.
        let j = Journal::take_since(m).current_thread();
        TelemetryConfig::off().install();
        assert!(in_sink >= FLUSH_AT, "{in_sink} events flushed by overflow");
        assert_eq!(j.len(), FLUSH_AT + 8);
    }
}
