//! The campaign driver.
//!
//! One loop shape covers every fault-injection campaign in the workspace:
//! a read-only *plan* (compiled netlist, golden values, fault list), a
//! mutable per-worker *scratch* (value arrays, walk stamps, lane machines),
//! and an item list whose verdicts are independent of each other. The
//! driver hands the items to scoped threads through one work-stealing
//! chunk queue ([`Campaign::run_dynamic`]), builds each worker's scratch
//! exactly once inside its thread, and reassembles results in item order
//! — so the output is bit-identical for any worker count, and nothing is
//! allocated per item.

use crate::seed::derive_seed;
use rescue_telemetry::{metrics, span};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Campaign execution policy: a master seed and a worker count.
///
/// The seed feeds [`Campaign::seed_for`] so per-item randomness does not
/// depend on which worker runs an item; the worker count only affects
/// wall-clock time, never verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Master seed for deterministic per-item randomness.
    pub seed: u64,
    /// Scoped worker threads to run on (>= 1).
    pub workers: usize,
}

impl Campaign {
    /// Single-worker campaign with seed 0 — the default for drop-in
    /// replacements of previously serial loops.
    pub fn serial() -> Self {
        Campaign::new(0, 1)
    }

    /// Campaign with an explicit master seed and worker count.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(seed: u64, workers: usize) -> Self {
        assert!(workers > 0, "campaign needs at least one worker");
        Campaign { seed, workers }
    }

    /// Deterministic seed for item `index`, independent of the worker count.
    pub fn seed_for(&self, index: usize) -> u64 {
        derive_seed(self.seed, index as u64)
    }

    /// Work-stealing chunk grain for `len` items: `len / (workers * 8)`
    /// clamped to `1..=256`, which yields ~8 steals' worth of slack per
    /// worker.
    pub fn chunk_size(&self, len: usize) -> usize {
        (len / (self.workers * 8)).clamp(1, 256)
    }

    /// Runs `work` over `items` with the work-stealing chunk queue: the
    /// item list is cut into [`Campaign::chunk_size`]-item chunks and
    /// workers claim the next chunk from a shared atomic cursor until the
    /// queue drains. `scratch(worker)` builds each worker's reusable
    /// state inside its own thread and **persists across every chunk that
    /// worker claims**, so per-item results must not depend on which
    /// chunks shared a scratch. `work(scratch, offset, chunk)` returns
    /// one result per chunk item; results are reassembled in item order,
    /// so the output is bit-identical for any worker count or chunk
    /// grain.
    ///
    /// A chunk counts as *stolen* when the worker that claims it is not
    /// its round-robin home (`chunk_index % workers`). Steals land in
    /// [`ShardedRun::steals`] and the `campaign.chunks_stolen` counter.
    ///
    /// # Panics
    ///
    /// Panics when a worker panics or returns the wrong result count.
    pub fn run_dynamic<T, S, R, FS, FW>(&self, items: &[T], scratch: FS, work: FW) -> ShardedRun<R>
    where
        T: Sync,
        R: Send,
        FS: Fn(usize) -> S + Sync,
        FW: Fn(&mut S, usize, &[T]) -> Vec<R> + Sync,
    {
        let start = Instant::now();
        let _run = span!("campaign.run", items = items.len());
        if items.is_empty() {
            return ShardedRun {
                results: Vec::new(),
                worker_ns: Vec::new(),
                elapsed_ns: start.elapsed().as_nanos() as u64,
                chunks: 0,
                steals: 0,
            };
        }
        let chunk = self.chunk_size(items.len());
        let n_chunks = items.len().div_ceil(chunk);
        if self.workers == 1 || n_chunks == 1 {
            // Inline fast path: a serial run is one whole-range chunk, no
            // thread spawn, no cursor.
            let t = Instant::now();
            let _shard = span!("campaign.chunk", chunk = 0);
            let mut s = scratch(0);
            let results = work(&mut s, 0, items);
            assert_eq!(results.len(), items.len(), "one result per item");
            return ShardedRun {
                results,
                worker_ns: vec![t.elapsed().as_nanos() as u64],
                elapsed_ns: start.elapsed().as_nanos() as u64,
                chunks: 1,
                steals: 0,
            };
        }
        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(n_chunks);
        // Per worker: claimed (chunk index, results) pairs, busy
        // nanoseconds, stolen-chunk count.
        type WorkerPart<R> = (Vec<(usize, Vec<R>)>, u64, u64);
        let parts: Vec<WorkerPart<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let scratch = &scratch;
                    let work = &work;
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let t = Instant::now();
                        let mut s = scratch(w);
                        let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                        let mut steals = 0u64;
                        loop {
                            let ci = cursor.fetch_add(1, Ordering::Relaxed);
                            if ci >= n_chunks {
                                break;
                            }
                            // Worker identity is recoverable from the event's
                            // thread id in the journal; the one span argument
                            // carries the chunk index.
                            let _chunk = span!("campaign.chunk", chunk = ci);
                            if ci % workers != w {
                                steals += 1;
                            }
                            let range = ci * chunk..((ci + 1) * chunk).min(items.len());
                            let part = work(&mut s, range.start, &items[range.clone()]);
                            assert_eq!(part.len(), range.len(), "one result per item");
                            mine.push((ci, part));
                        }
                        (mine, t.elapsed().as_nanos() as u64, steals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        let mut by_chunk: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
        let mut worker_ns = Vec::with_capacity(workers);
        let mut steals = 0u64;
        for (mine, ns, st) in parts {
            for (ci, part) in mine {
                by_chunk[ci] = Some(part);
            }
            worker_ns.push(ns);
            steals += st;
        }
        let mut results = Vec::with_capacity(items.len());
        for part in by_chunk {
            results.extend(part.expect("every chunk claimed exactly once"));
        }
        metrics::counter("campaign.chunks_stolen").add(steals);
        ShardedRun {
            results,
            worker_ns,
            elapsed_ns: start.elapsed().as_nanos() as u64,
            chunks: n_chunks,
            steals,
        }
    }

    /// Per-item form of [`Campaign::run_dynamic`]:
    /// `work(scratch, index, item)` is called once per item.
    pub fn run_sharded<T, S, R, FS, FW>(&self, items: &[T], scratch: FS, work: FW) -> ShardedRun<R>
    where
        T: Sync,
        R: Send,
        FS: Fn(usize) -> S + Sync,
        FW: Fn(&mut S, usize, &T) -> R + Sync,
    {
        self.run_dynamic(items, scratch, |s, offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, item)| work(s, offset + i, item))
                .collect()
        })
    }
}

/// Outcome of one run: per-item results in item order plus the
/// wall-clock observability a [`crate::stats::CampaignStats`] is built
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedRun<R> {
    /// One result per item, in item order (independent of the hand-out).
    pub results: Vec<R>,
    /// Busy time of each worker that ran, in nanoseconds.
    pub worker_ns: Vec<u64>,
    /// End-to-end wall-clock of the run, in nanoseconds.
    pub elapsed_ns: u64,
    /// Queue chunks handed out (1 on the serial fast path).
    pub chunks: usize,
    /// Chunks claimed by a worker other than their round-robin home.
    pub steals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_order_stable_across_worker_counts() {
        let items: Vec<u32> = (0..257).collect();
        let serial: Vec<(usize, u32)> =
            items.iter().enumerate().map(|(i, &x)| (i, x * 3)).collect();
        for workers in [1, 2, 3, 4, 16] {
            let run = Campaign::new(0, workers).run_sharded(&items, |_| (), |_, i, &x| (i, x * 3));
            assert_eq!(serial, run.results, "{workers} workers");
        }
    }

    #[test]
    fn seeding_is_reshard_stable() {
        let a = Campaign::new(7, 1);
        let b = Campaign::new(7, 8);
        for i in 0..100 {
            assert_eq!(a.seed_for(i), b.seed_for(i));
        }
        assert_ne!(a.seed_for(0), Campaign::new(8, 1).seed_for(0));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Campaign::new(0, 0);
    }

    #[test]
    fn chunk_size_clamps_the_auto_grain() {
        let c = Campaign::new(0, 4);
        assert_eq!(c.chunk_size(0), 1, "clamped up for tiny lists");
        assert_eq!(c.chunk_size(31), 1);
        assert_eq!(c.chunk_size(320), 10);
        assert_eq!(c.chunk_size(1 << 20), 256, "clamped down for huge lists");
    }

    #[test]
    fn dynamic_matches_static_across_workers_and_grains() {
        // Against a plain serial map. The item count sets the grain: 1
        // item per chunk up to 256.
        for len in [0usize, 1, 7, 257, 3000, 20_000] {
            let items: Vec<u32> = (0..len as u32).collect();
            let baseline: Vec<(usize, u32)> =
                items.iter().enumerate().map(|(i, &x)| (i, x * 3)).collect();
            for workers in [1usize, 2, 3, 4, 16] {
                let campaign = Campaign::new(0, workers);
                let run = campaign.run_dynamic(
                    &items,
                    |_| (),
                    |_, offset, chunk| {
                        chunk
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| (offset + i, x * 3))
                            .collect()
                    },
                );
                assert_eq!(baseline, run.results, "{len} items, {workers} workers");
                // Serial runs and single-chunk queues take the inline
                // fast path: one whole-range chunk.
                let n_chunks = len.div_ceil(campaign.chunk_size(len));
                let expect = match n_chunks {
                    0 => 0,
                    _ if workers == 1 => 1,
                    n => n,
                };
                assert_eq!(run.chunks, expect, "{len} items, {workers} workers");
            }
        }
    }

    #[test]
    fn dynamic_seeding_is_reshard_stable() {
        // Per-item seeds routed through seed_for are identical no matter
        // which worker claims the chunk or how the queue is grained.
        let items: Vec<u32> = (0..100).collect();
        let seeds = |workers: usize| {
            let c = Campaign::new(9, workers);
            c.run_dynamic(
                &items,
                |_| (),
                |_, offset, shard| (0..shard.len()).map(|i| c.seed_for(offset + i)).collect(),
            )
            .results
        };
        let baseline = seeds(1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(baseline, seeds(workers), "{workers} workers");
        }
    }

    #[test]
    fn dynamic_empty_and_serial_fast_paths() {
        let none: [u32; 0] = [];
        let run = Campaign::new(0, 4).run_dynamic(&none, |_| (), |_, _, _| Vec::<u32>::new());
        assert!(run.results.is_empty());
        assert_eq!(run.chunks, 0);
        let items = [1u32, 2, 3];
        let run = Campaign::serial().run_dynamic(&items, |_| (), |_, _, shard| shard.to_vec());
        assert_eq!(run.results, vec![1, 2, 3]);
        assert_eq!(run.chunks, 1, "serial run is one whole-range chunk");
        assert_eq!(run.steals, 0);
    }

    #[test]
    fn dynamic_scratch_persists_across_claimed_chunks() {
        // Each worker's scratch survives from chunk to chunk: the total
        // across all workers' accumulators equals the item-count.
        use std::sync::atomic::{AtomicU64, Ordering};
        let touched = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let campaign = Campaign::new(0, 4);
        let run = campaign.run_dynamic(
            &items,
            |_| 0u64,
            |seen, _, shard| {
                *seen += shard.len() as u64;
                touched.fetch_add(shard.len() as u64, Ordering::Relaxed);
                shard.to_vec()
            },
        );
        assert_eq!(run.results, items);
        assert_eq!(touched.load(Ordering::Relaxed), 1000);
        assert_eq!(run.chunks, 1000usize.div_ceil(campaign.chunk_size(1000)));
        assert!(run.worker_ns.len() <= 4);
    }
}
