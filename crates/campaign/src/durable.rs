//! Durable campaign execution: drain only the units a store is missing.
//!
//! [`Campaign::run_store`] generalizes the work-stealing scheduler over a
//! [`ResultStore`]-backed queue. The campaign's items are partitioned by
//! a [`CampaignManifest`]; for each unit the driver first consults the
//! store (cache hit → decode the persisted verdicts), then claims the
//! missing units via the store's create-exclusive claim protocol and
//! executes them through [`Campaign::run_dynamic`] — so a restarted
//! process, or a second process pointed at the same store directory,
//! picks up exactly the units nobody has finished, never double-executes
//! one, and reassembles verdicts and merged stats bit-identically to an
//! uninterrupted run. Units held by a live peer are polled until their
//! results land; claims of dead owners are broken and re-claimed.
//! What the units execute against is built by a prepare step only once
//! this process has a unit to execute, so a re-submission the store
//! answers in full reads records and builds nothing.

use crate::driver::Campaign;
use crate::manifest::{CampaignManifest, UnitSpec};
use crate::store::{ClaimOutcome, ResultStore, StatsDelta, UnitRecord};
use rescue_telemetry::{metrics, span};
use std::time::{Duration, Instant};

/// How long [`Campaign::run_store`] will wait on units held by live
/// peers before giving up (a peer that holds a claim this long without
/// publishing is wedged, not slow).
const PEER_WAIT_LIMIT: Duration = Duration::from_secs(300);

/// Poll interval while waiting for a peer-held unit's result.
const PEER_POLL: Duration = Duration::from_millis(2);

/// Outcome of one durable run: per-item results in item order, the
/// merged deterministic [`StatsDelta`] across all units (stored and
/// fresh), and the resume/caching ledger.
#[derive(Debug, Clone)]
pub struct DurableRun<R> {
    /// One result per item, in item order — bit-identical to an
    /// uninterrupted in-process run.
    pub results: Vec<R>,
    /// Deterministic counters merged over every unit.
    pub delta: StatsDelta,
    /// Units in the campaign plan.
    pub units_total: usize,
    /// Units whose results were already in the store when the run
    /// started (the warm-cache figure — a re-submission of an identical
    /// campaign reports `units_cached == units_total`).
    pub units_cached: usize,
    /// Units this process claimed and executed.
    pub units_executed: usize,
    /// Units whose results arrived from a concurrent peer while this
    /// run waited.
    pub units_waited: usize,
    /// Stale claims (dead owners) this run broke.
    pub stale_claims_broken: usize,
    /// End-to-end wall-clock, nanoseconds, less the prepare step of
    /// [`Campaign::run_store`].
    pub elapsed_ns: u64,
    /// Busy nanoseconds of each executing worker (empty on a pure cache
    /// hit).
    pub worker_ns: Vec<u64>,
    /// Work-stealing chunks claimed while executing.
    pub chunks: usize,
    /// Chunks stolen from their round-robin home worker.
    pub steals: u64,
}

impl Campaign {
    /// Runs `work` over exactly the units of `manifest` that `store`
    /// does not already hold, and returns the full reassembled result
    /// vector.
    ///
    /// Closure contract (`work`/`scratch` as in
    /// [`Campaign::run_dynamic`], per unit range):
    ///
    /// * `prepare()` builds the read-only state every unit executes
    ///   against (golden values, a detection engine). It runs at most
    ///   once, on the calling thread, after the store probe and before
    ///   the first unit this process executes — so a run that executes
    ///   no unit never calls it. Its time is kept out of
    ///   [`DurableRun::elapsed_ns`] and `worker_ns`;
    /// * `scratch(prepared, worker)` / `work(prepared, scratch,
    ///   range.start, &items[range])` receive what `prepare` returned;
    ///   `work` yields one result per item of the unit;
    /// * `encode(results)` / `decode(bytes)` — byte serialization of a
    ///   unit's results (`decode` returning `None` marks the record
    ///   corrupt: the unit is re-executed and the record overwritten);
    /// * `delta(results)` — the unit's deterministic [`StatsDelta`]
    ///   contribution (persisted alongside the payload so merged stats
    ///   survive restarts bit-identically).
    ///
    /// A stored record is trusted only when it names the unit it was
    /// fetched for ([`UnitRecord::unit`]) and decodes to one result per
    /// item; anything else counts toward `store.corrupt_records` and
    /// re-executes.
    ///
    /// # Panics
    ///
    /// Panics when `manifest.total_items != items.len()`, when a worker
    /// panics, or when peer-held units fail to materialize within the
    /// wait limit.
    #[allow(clippy::too_many_arguments)]
    pub fn run_store<T, P, S, R, FP, FS, FW, EN, DE, DL>(
        &self,
        items: &[T],
        manifest: &CampaignManifest,
        store: &dyn ResultStore,
        prepare: FP,
        scratch: FS,
        work: FW,
        encode: EN,
        decode: DE,
        delta: DL,
    ) -> DurableRun<R>
    where
        T: Sync,
        P: Sync,
        R: Send,
        FP: FnOnce() -> P,
        FS: Fn(&P, usize) -> S + Sync,
        FW: Fn(&P, &mut S, usize, &[T]) -> Vec<R> + Sync,
        EN: Fn(&[R]) -> Vec<u8> + Sync,
        DE: Fn(&[u8]) -> Option<Vec<R>> + Sync,
        DL: Fn(&[R]) -> StatsDelta + Sync,
    {
        assert_eq!(
            manifest.total_items,
            items.len(),
            "manifest must cover the item list"
        );
        let start = Instant::now();
        let n_units = manifest.units.len();
        let _run = span!("campaign.store", units = n_units);
        // Publish this run to the fleet registry so `/status` can watch
        // it live; the handle's drop marks the entry finished.
        let fleet = crate::fleet::register(
            &crate::fleet::stage_or("campaign.store"),
            &manifest.campaign.to_string(),
            n_units,
            store.root_dir().map(|p| p.to_path_buf()),
        );
        let mut slots: Vec<Option<Vec<R>>> = (0..n_units).map(|_| None).collect();
        let mut merged = StatsDelta::default();
        let mut cached = 0usize;
        let mut executed = 0usize;
        let mut waited = 0usize;
        let mut stale_broken = 0usize;
        let mut worker_ns: Vec<u64> = Vec::new();
        let mut chunks = 0usize;
        let mut steals = 0u64;
        let mut prepare = Some(prepare);
        let mut prepared: Option<P> = None;
        let mut prepare_ns = 0u64;

        // A stored record answers a unit only when it names that unit
        // and decodes to one result per item; `None` marks it corrupt.
        let trusted = |unit: &UnitSpec, rec: UnitRecord| {
            let results = (rec.unit == unit.id)
                .then(|| decode(&rec.payload))
                .flatten()
                .filter(|results| results.len() == unit.range.len());
            if results.is_none() {
                metrics::counter("store.corrupt_records").add(1);
            }
            results.map(|results| (rec.stats, results))
        };

        // A unit found in the store whose record is corrupt is forced
        // into local execution: overwriting it with freshly computed
        // (identical) bytes is idempotent, so no claim is needed.
        let mut force: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        let probe = span!("store.probe", units = n_units);
        for (ui, unit) in manifest.units.iter().enumerate() {
            match store.get(unit.id).map(|rec| trusted(unit, rec)) {
                Some(Some((stats, results))) => {
                    merged.merge(&stats);
                    slots[ui] = Some(results);
                    cached += 1;
                    fleet.add_cached(1);
                }
                Some(None) => force.push(ui),
                None => pending.push(ui),
            }
        }
        drop(probe);

        let wait_deadline = Instant::now() + PEER_WAIT_LIMIT;
        while !pending.is_empty() || !force.is_empty() {
            // Claim pass: corrupt records re-execute unconditionally;
            // missing units need an exclusive claim first.
            let mut mine = std::mem::take(&mut force);
            let mut busy: Vec<usize> = Vec::new();
            let claim = span!("store.claim", units = pending.len());
            for ui in pending.drain(..) {
                match store.claim(manifest.units[ui].id) {
                    ClaimOutcome::Acquired => mine.push(ui),
                    ClaimOutcome::Busy => busy.push(ui),
                    // Finished under us (peer published between the get
                    // and the claim): picked up by the poll pass below.
                    ClaimOutcome::Done => busy.push(ui),
                }
            }
            drop(claim);
            if !mine.is_empty() {
                let ready: &P = prepared.get_or_insert_with(|| {
                    let t = Instant::now();
                    let p = prepare.take().expect("prepare runs at most once")();
                    prepare_ns = t.elapsed().as_nanos() as u64;
                    p
                });
                // The existing work-stealing scheduler, generalized over
                // the store-backed queue: items are now unit indices, and
                // each unit executes + publishes inside the worker.
                let run = self.run_dynamic(
                    &mine,
                    |w| scratch(ready, w),
                    |s: &mut S, _off: usize, unit_ids: &[usize]| {
                        unit_ids
                            .iter()
                            .map(|&ui| {
                                let unit = &manifest.units[ui];
                                let out =
                                    work(ready, s, unit.range.start, &items[unit.range.clone()]);
                                assert_eq!(out.len(), unit.range.len(), "one result per item");
                                let rec = UnitRecord {
                                    unit: unit.id,
                                    stats: delta(&out),
                                    payload: encode(&out),
                                };
                                let put = span!("store.put");
                                store.put(unit.id, &rec);
                                drop(put);
                                fleet.tick_executed();
                                (rec.stats, out)
                            })
                            .collect()
                    },
                );
                executed += mine.len();
                chunks += run.chunks;
                steals += run.steals;
                worker_ns.extend(run.worker_ns);
                for (ui, (d, results)) in mine.into_iter().zip(run.results) {
                    merged.merge(&d);
                    slots[ui] = Some(results);
                }
            }
            if busy.is_empty() {
                continue; // re-check loop condition; force may refill
            }
            // Poll pass: units held by a peer. Break dead owners' claims
            // so the next claim pass can take them over, then give live
            // owners a moment to publish.
            stale_broken += store.break_stale_claims();
            for ui in busy {
                let unit = &manifest.units[ui];
                match store.get(unit.id).map(|rec| trusted(unit, rec)) {
                    Some(Some((stats, results))) => {
                        merged.merge(&stats);
                        slots[ui] = Some(results);
                        waited += 1;
                        fleet.tick_waited();
                    }
                    Some(None) => force.push(ui),
                    None => pending.push(ui),
                }
            }
            if !pending.is_empty() {
                assert!(
                    Instant::now() < wait_deadline,
                    "durable campaign stalled: {} unit(s) held by live peers \
                     for over {PEER_WAIT_LIMIT:?}",
                    pending.len()
                );
                std::thread::sleep(PEER_POLL);
            }
        }

        if rescue_telemetry::enabled() {
            metrics::counter("store.units_cached").add(cached as u64);
            metrics::counter("store.units_executed").add(executed as u64);
            metrics::counter("store.units_waited").add(waited as u64);
        }
        let mut results = Vec::with_capacity(items.len());
        for slot in slots {
            results.extend(slot.expect("every unit resolved"));
        }
        let run = DurableRun {
            results,
            delta: merged,
            units_total: n_units,
            units_cached: cached,
            units_executed: executed,
            units_waited: waited,
            stale_claims_broken: stale_broken,
            elapsed_ns: (start.elapsed().as_nanos() as u64).saturating_sub(prepare_ns),
            worker_ns,
            chunks,
            steals,
        };
        // Freeing the prepared state (golden values, engine plans) is
        // outside the execution time, under a span of its own.
        let release = span!("campaign.release");
        drop(prepared);
        drop(release);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CanonicalHasher, ContentHash, FsStore, MemStore};

    fn manifest_for(items: usize, grain: usize) -> CampaignManifest {
        let mut h = CanonicalHasher::new("rescue.test.v1");
        h.write_usize(items);
        CampaignManifest::build(h.finish(), items, grain)
    }

    /// Runs the toy campaign (`x * 3`, the factor coming from the
    /// prepare step) durably against `store`.
    fn run_toy(
        campaign: &Campaign,
        items: &[u64],
        manifest: &CampaignManifest,
        store: &dyn ResultStore,
    ) -> DurableRun<u64> {
        run_toy_prepared(campaign, items, manifest, store, || 3)
    }

    fn run_toy_prepared(
        campaign: &Campaign,
        items: &[u64],
        manifest: &CampaignManifest,
        store: &dyn ResultStore,
        prepare: impl FnOnce() -> u64,
    ) -> DurableRun<u64> {
        campaign.run_store(
            items,
            manifest,
            store,
            prepare,
            |_, _| (),
            |&k, _, _, range: &[u64]| range.iter().map(|&x| x * k).collect(),
            |rs: &[u64]| rs.iter().flat_map(|r| r.to_le_bytes()).collect(),
            |bytes: &[u8]| {
                if !bytes.len().is_multiple_of(8) {
                    return None;
                }
                Some(
                    bytes
                        .chunks(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            },
            |rs: &[u64]| StatsDelta {
                injections: rs.len() as u64,
                ..StatsDelta::default()
            },
        )
    }

    fn temp_store(tag: &str) -> FsStore {
        let dir = std::env::temp_dir().join(format!(
            "rescue-durable-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        FsStore::open(dir)
    }

    #[test]
    fn cold_run_executes_everything_warm_run_nothing() {
        let items: Vec<u64> = (0..100).collect();
        let manifest = manifest_for(items.len(), 16);
        let store = MemStore::new();
        let campaign = Campaign::new(0, 4);
        let cold = run_toy(&campaign, &items, &manifest, &store);
        assert_eq!(cold.units_total, 7);
        assert_eq!(cold.units_executed, 7);
        assert_eq!(cold.units_cached, 0);
        assert_eq!(cold.delta.injections, 100);
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(cold.results, expect);
        // Warm re-submission: O(1) cache hit, zero units executed.
        let warm = run_toy(&campaign, &items, &manifest, &store);
        assert_eq!(warm.units_executed, 0);
        assert_eq!(warm.units_cached, 7);
        assert_eq!(warm.results, expect);
        assert_eq!(warm.delta, cold.delta, "merged stats bit-identical");
        assert!(warm.worker_ns.is_empty(), "nothing ran");
    }

    #[test]
    fn partial_store_resumes_missing_units_only() {
        let items: Vec<u64> = (0..57).collect();
        let manifest = manifest_for(items.len(), 10);
        let full = MemStore::new();
        let campaign = Campaign::new(0, 2);
        let baseline = run_toy(&campaign, &items, &manifest, &full);
        // Simulate a killed run: copy only units 0, 2, 4 into a fresh
        // store, then resume against it.
        let partial = MemStore::new();
        for ui in [0usize, 2, 4] {
            let id = manifest.units[ui].id;
            partial.put(id, &full.get(id).unwrap());
        }
        let resumed = run_toy(&campaign, &items, &manifest, &partial);
        assert_eq!(resumed.units_cached, 3);
        assert_eq!(resumed.units_executed, manifest.units.len() - 3);
        assert_eq!(resumed.results, baseline.results, "verdicts bit-identical");
        assert_eq!(resumed.delta, baseline.delta, "stats bit-identical");
    }

    #[test]
    fn corrupt_record_is_reexecuted_and_overwritten() {
        let items: Vec<u64> = (0..30).collect();
        let manifest = manifest_for(items.len(), 10);
        let store = MemStore::new();
        let campaign = Campaign::serial();
        let baseline = run_toy(&campaign, &items, &manifest, &store);
        // Poison one unit's payload (valid envelope, undecodable body).
        store.put(
            manifest.units[1].id,
            &UnitRecord {
                unit: manifest.units[1].id,
                stats: StatsDelta::default(),
                payload: vec![1, 2, 3], // not a multiple of 8
            },
        );
        let resumed = run_toy(&campaign, &items, &manifest, &store);
        assert_eq!(resumed.units_executed, 1, "only the poisoned unit re-ran");
        assert_eq!(resumed.results, baseline.results);
        assert_eq!(resumed.delta, baseline.delta);
        // The store now holds the healed record.
        let healed = store.get(manifest.units[1].id).unwrap();
        assert_eq!(healed.stats.injections, 10);
    }

    #[test]
    fn record_filed_under_another_unit_is_reexecuted() {
        let items: Vec<u64> = (0..30).collect();
        let manifest = manifest_for(items.len(), 10);
        let store = MemStore::new();
        let campaign = Campaign::serial();
        let baseline = run_toy(&campaign, &items, &manifest, &store);
        // Unit 0's record, same length as unit 1's, filed under unit 1.
        let (u0, u1) = (manifest.units[0].id, manifest.units[1].id);
        store.put(u1, &store.get(u0).unwrap());
        let resumed = run_toy(&campaign, &items, &manifest, &store);
        assert_eq!(resumed.units_executed, 1, "the misfiled record re-ran");
        assert_eq!(resumed.results, baseline.results);
        assert_eq!(resumed.delta, baseline.delta);
        assert_eq!(store.get(u1).unwrap().unit, u1, "the record is healed");
    }

    #[test]
    fn prepare_runs_once_and_only_when_a_unit_executes() {
        let items: Vec<u64> = (0..64).collect();
        let manifest = manifest_for(items.len(), 8);
        let store = MemStore::new();
        let campaign = Campaign::new(0, 2);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let pause = Duration::from_millis(60);
        let prepare = || {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(pause);
            3
        };
        let t = Instant::now();
        let cold = run_toy_prepared(&campaign, &items, &manifest, &store, prepare);
        let wall = t.elapsed().as_nanos() as u64;
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(cold.units_executed, manifest.units.len());
        // The prepare step stays out of the run's elapsed and busy
        // figures.
        let bound = wall - pause.as_nanos() as u64;
        assert!(cold.elapsed_ns <= bound, "elapsed includes prepare");
        assert!(cold.worker_ns.iter().all(|&ns| ns <= bound));
        let warm = run_toy_prepared(&campaign, &items, &manifest, &store, prepare);
        assert_eq!(
            calls.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "a fully cached run never prepares"
        );
        assert_eq!(warm.results, cold.results);
    }

    #[test]
    fn two_writers_on_one_fs_store_never_double_execute() {
        let items: Vec<u64> = (0..400).collect();
        let manifest = manifest_for(items.len(), 8);
        let fs = temp_store("two-writer");
        let root = fs.root().to_path_buf();
        drop(fs);
        // Two independent FsStore handles on the same directory, racing
        // from separate threads — the single-process stand-in for two
        // concurrent OS processes (the claim files don't know the
        // difference).
        let (a, b) = std::thread::scope(|scope| {
            let root_a = root.clone();
            let root_b = root.clone();
            let items_a = &items;
            let items_b = &items;
            let man_a = &manifest;
            let man_b = &manifest;
            let ha = scope.spawn(move || {
                let store = FsStore::open(root_a);
                run_toy(&Campaign::new(0, 2), items_a, man_a, &store)
            });
            let hb = scope.spawn(move || {
                let store = FsStore::open(root_b);
                run_toy(&Campaign::new(0, 2), items_b, man_b, &store)
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(a.results, expect);
        assert_eq!(b.results, expect);
        // Claims partition the units: every unit executed exactly once
        // across both writers (the rest were cached or waited on).
        assert_eq!(
            a.units_executed + b.units_executed,
            manifest.units.len(),
            "no double execution, no lost unit"
        );
        assert_eq!(a.units_cached + a.units_executed + a.units_waited, 50);
        assert_eq!(b.units_cached + b.units_executed + b.units_waited, 50);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dead_claim_is_broken_and_unit_executed() {
        let items: Vec<u64> = (0..20).collect();
        let manifest = manifest_for(items.len(), 5);
        let store = temp_store("dead-claim");
        // A crashed process left a claim on unit 2 — the pid cannot be
        // alive, so the resume must break it and execute the unit.
        std::fs::write(
            store
                .root()
                .join("claims")
                .join(format!("{}.claim", manifest.units[2].id)),
            "pid 3999999999\n",
        )
        .unwrap();
        let run = run_toy(&Campaign::serial(), &items, &manifest, &store);
        assert_eq!(run.units_executed, 4);
        assert!(run.stale_claims_broken >= 1, "dead owner's claim broken");
        assert_eq!(run.results, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_campaign_is_a_no_op() {
        let manifest = CampaignManifest::build(ContentHash(0), 0, 4);
        let store = MemStore::new();
        let run = run_toy(&Campaign::new(0, 4), &[], &manifest, &store);
        assert!(run.results.is_empty());
        assert_eq!(run.units_total, 0);
        assert_eq!(run.units_executed, 0);
    }

    #[test]
    #[should_panic(expected = "manifest must cover")]
    fn mismatched_manifest_rejected() {
        let manifest = manifest_for(10, 4);
        let store = MemStore::new();
        let items: Vec<u64> = (0..5).collect();
        run_toy(&Campaign::serial(), &items, &manifest, &store);
    }
}
