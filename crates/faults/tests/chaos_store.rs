//! Durable campaigns over an unreliable result store.
//!
//! [`ChaosStore`] wraps any [`ResultStore`] and injects seeded faults
//! into its calls: a put that fails, a put that tears its payload, a get
//! whose envelope bytes carry a flipped bit, a get answered with another
//! unit's record, a claim held by an owner that died, and a peer that
//! publishes the unit's fault-free record just before this process
//! claims it. Each kind fires at its first opportunity and at a seeded
//! rate after that, so every case sees all six.
//!
//! The property, over `random_logic` designs × lane width × collapse ×
//! tracing × worker count × unit grain, resuming a store that holds a
//! third of the units: the faulted durable run reports exactly the
//! plain run's verdicts and tallies, and a clean resubmission against
//! the same inner store does too, executing exactly the units whose put
//! failed or tore. A damaged record is re-executed, never trusted.

use proptest::prelude::*;
use rescue_campaign::{Campaign, ClaimOutcome, ContentHash, MemStore, ResultStore, UnitRecord};
use rescue_faults::collapse::collapse;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::generate;
use std::collections::BTreeSet;
use std::sync::Mutex;

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
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

/// The store faults [`ChaosStore`] injects, at most one per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    /// `put` persists nothing and releases the caller's claim.
    FailedPut,
    /// `put` persists the record with its payload cut short.
    TornPut,
    /// `get` flips one bit of the record's envelope bytes and decodes
    /// them again.
    BitFlip,
    /// `get` answers with another unit's record.
    Misfiled,
    /// `claim` finds the unit held by a dead owner: `Busy` until the
    /// next `break_stale_claims`, which reports it.
    DeadOwner,
    /// A peer publishes the unit's fault-free record, so `claim`
    /// answers `Done`.
    PeerPublish,
}

const KINDS: [Chaos; 6] = [
    Chaos::FailedPut,
    Chaos::TornPut,
    Chaos::BitFlip,
    Chaos::Misfiled,
    Chaos::DeadOwner,
    Chaos::PeerPublish,
];

/// One later opportunity in `RATE` fires its fault.
const RATE: u64 = 5;

#[derive(Default)]
struct State {
    rng: u64,
    /// Faults fired, indexed by [`Chaos`] discriminant.
    fired: [usize; KINDS.len()],
    /// Units held by a dead owner until the next stale-claim sweep.
    dead: BTreeSet<u128>,
    /// Dead-owner claims `break_stale_claims` reported.
    dead_reported: usize,
    /// Units whose inner record a failed or torn put left missing or
    /// corrupt.
    lost: BTreeSet<u128>,
    /// Every unit `put` was called for.
    puts: BTreeSet<u128>,
}

impl State {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

/// A [`ResultStore`] wrapper that injects seeded faults into the calls
/// it forwards to `inner`. `reference` holds every unit's fault-free
/// record: what a healthy peer publishes, and the pool misfiled records
/// come from.
struct ChaosStore<'a, S: ResultStore> {
    inner: &'a S,
    reference: &'a MemStore,
    /// Reference unit ids, sorted, for picking another unit's record.
    ids: Vec<ContentHash>,
    armed: bool,
    state: Mutex<State>,
}

impl<'a, S: ResultStore> ChaosStore<'a, S> {
    /// A wrapper that fires every fault kind, seeded by `seed`.
    fn new(inner: &'a S, reference: &'a MemStore, seed: u64) -> Self {
        let mut ids = reference.ids();
        ids.sort();
        ChaosStore {
            inner,
            reference,
            ids,
            armed: true,
            state: Mutex::new(State {
                rng: seed.max(1) ^ 0x2545_f491_4f6c_dd1d,
                ..State::default()
            }),
        }
    }

    /// A wrapper that fires nothing and only records the puts.
    fn clean(inner: &'a S, reference: &'a MemStore) -> Self {
        ChaosStore {
            armed: false,
            ..ChaosStore::new(inner, reference, 1)
        }
    }

    /// Whether `kind` fires on this call: always at its first
    /// opportunity, then one time in [`RATE`].
    fn fire(&self, st: &mut State, kind: Chaos) -> bool {
        let fires = self.armed && (st.fired[kind as usize] == 0 || st.next().is_multiple_of(RATE));
        st.fired[kind as usize] += usize::from(fires);
        fires
    }

    fn fired(&self, kind: Chaos) -> usize {
        self.state.lock().unwrap().fired[kind as usize]
    }
}

impl<S: ResultStore> ResultStore for ChaosStore<'_, S> {
    fn get(&self, id: ContentHash) -> Option<UnitRecord> {
        let rec = self.inner.get(id);
        let mut st = self.state.lock().unwrap();
        if let Some(rec) = &rec {
            if self.fire(&mut st, Chaos::BitFlip) {
                let mut bytes = rec.encode();
                let bit = st.next() as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                return UnitRecord::decode(&bytes);
            }
        }
        if self.ids.len() > 1 && self.fire(&mut st, Chaos::Misfiled) {
            let pick = st.next() as usize % self.ids.len();
            let other = if self.ids[pick] == id {
                self.ids[(pick + 1) % self.ids.len()]
            } else {
                self.ids[pick]
            };
            return self.reference.get(other);
        }
        rec
    }

    fn put(&self, id: ContentHash, record: &UnitRecord) {
        let mut st = self.state.lock().unwrap();
        st.puts.insert(id.0);
        if self.fire(&mut st, Chaos::FailedPut) {
            if self.inner.get(id).is_none() {
                st.lost.insert(id.0);
            }
            self.inner.release(id);
        } else if self.fire(&mut st, Chaos::TornPut) {
            let mut torn = record.clone();
            let keep = st.next() as usize % torn.payload.len().max(1);
            torn.payload.truncate(keep);
            st.lost.insert(id.0);
            self.inner.put(id, &torn);
        } else {
            st.lost.remove(&id.0);
            self.inner.put(id, record);
        }
    }

    fn claim(&self, id: ContentHash) -> ClaimOutcome {
        let mut st = self.state.lock().unwrap();
        if st.dead.contains(&id.0) {
            return ClaimOutcome::Busy;
        }
        if self.fire(&mut st, Chaos::DeadOwner) {
            st.dead.insert(id.0);
            return ClaimOutcome::Busy;
        }
        if self.fire(&mut st, Chaos::PeerPublish) {
            let rec = self
                .reference
                .get(id)
                .expect("the reference holds every unit");
            st.lost.remove(&id.0);
            self.inner.put(id, &rec);
            return ClaimOutcome::Done;
        }
        self.inner.claim(id)
    }

    fn release(&self, id: ContentHash) {
        self.inner.release(id);
    }

    fn break_stale_claims(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        let broken = std::mem::take(&mut st.dead).len();
        st.dead_reported += broken;
        broken + self.inner.break_stale_claims()
    }

    fn completed_units(&self) -> usize {
        self.inner.completed_units()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A faulted store never changes a verdict or a tally, and a clean
    /// resubmission re-executes exactly the units the faults lost.
    #[test]
    fn store_faults_never_change_a_verdict(
        seed in 1u64..1000,
        wide: bool,
        collapsed: bool,
        tracing: bool,
        workers in 1usize..4,
        grain in 2usize..9,
    ) {
        let net = generate::random_logic(7, 110, 4, seed);
        let patterns = random_patterns(7, 200, seed);
        let faults = universe::stuck_at_universe(&net);
        let sim = FaultSimulator::new(&net);
        let cu = collapsed.then(|| collapse(&net, &faults));
        let mut opts = PackedOptions::wide(if wide { 4 } else { 1 });
        if let Some(cu) = &cu {
            opts = opts.with_collapsed(cu);
        }
        if tracing {
            opts = opts.traced();
        }
        let campaign = Campaign::new(seed, workers);
        let config = format!("seed={seed} wide={wide} collapsed={collapsed} \
                              tracing={tracing} workers={workers} grain={grain}");
        let plain = sim.campaign_packed(&faults, &patterns, &campaign, opts);

        let reference = MemStore::new();
        sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &reference, grain);
        let manifest = sim.durable_plan(&faults, &patterns, &opts, grain);
        let units = manifest.units.len();

        // The faulted run resumes a store holding every third unit.
        let inner = MemStore::new();
        for unit in manifest.units.iter().step_by(3) {
            inner.put(unit.id, &reference.get(unit.id).expect("the reference holds every unit"));
        }
        let chaos = ChaosStore::new(&inner, &reference, seed);
        let faulted =
            sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &chaos, grain);
        prop_assert_eq!(&faulted.report, &plain.report, "{}", config);
        prop_assert_eq!(faulted.stats.tally, plain.stats.tally, "{}", config);
        prop_assert_eq!(faulted.stats.dropped, plain.stats.dropped, "{}", config);
        prop_assert_eq!(faulted.stats.units_total, units, "{}", config);
        prop_assert_eq!(
            faulted.stats.units_cached + faulted.stats.units_executed,
            units,
            "each unit resolves once: {}",
            config
        );
        for kind in KINDS {
            prop_assert!(chaos.fired(kind) > 0, "{:?} never fired: {}", kind, config);
        }
        let (dead_reported, lost) = {
            let st = chaos.state.lock().unwrap();
            (st.dead_reported, st.lost.clone())
        };
        prop_assert_eq!(
            dead_reported,
            chaos.fired(Chaos::DeadOwner),
            "every dead owner's claim is broken and reported once: {}",
            config
        );

        let clean_store = ChaosStore::clean(&inner, &reference);
        let clean =
            sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &clean_store, grain);
        prop_assert_eq!(&clean.report, &plain.report, "{}", config);
        prop_assert_eq!(clean.stats.tally, plain.stats.tally, "{}", config);
        prop_assert_eq!(clean.stats.units_executed, lost.len(), "{}", config);
        prop_assert_eq!(clean.stats.units_cached, units - lost.len(), "{}", config);
        let executed = clean_store.state.lock().unwrap().puts.clone();
        prop_assert_eq!(executed, lost, "{}", config);
    }
}
