//! Shared campaign orchestration for every fault-injection experiment in
//! RESCUE-rs.
//!
//! The paper's Section IV "holistic EDA flow" is one pipeline in which
//! every thrust — SEU/SET vulnerability (III.B), ISO 26262 fault
//! classification (III.C), aging (III.E) — runs *fault-injection
//! campaigns over the same design*. Before this crate each consumer
//! hand-rolled its own loop: ad-hoc `chunks(64)` slicing, ad-hoc
//! `std::thread::scope` blocks, ad-hoc seeds, and no common notion of
//! throughput. This crate is the one substrate they all share:
//!
//! * [`driver::Campaign`] — deterministic seeding plus scoped-thread
//!   execution with reusable per-worker scratch, through one
//!   work-stealing chunk queue ([`Campaign::run_dynamic`]). Verdicts
//!   never depend on the worker count or the hand-out; only wall-clock
//!   does.
//! * [`stats::CampaignStats`] — the observability record attached to
//!   every campaign report: injections per second, 64-lane occupancy,
//!   per-worker timings and outcome tallies.
//! * [`progress::Progress`] — a shared completion counter with
//!   rate/ETA snapshots; [`fleet`] publishes one per durable run.
//! * [`fleet`] — the live fleet status registry: durable runs publish
//!   per-unit progress, rates and ETA here, folded together with the
//!   [`store`] claim scanner (owner pid, liveness, age) into the JSON
//!   body the `rescue-observer` `/status` endpoint serves.
//! * [`seed`] — SplitMix64 stream derivation, so per-item randomness is
//!   stable under resharding.
//! * [`store`] / [`manifest`] / [`durable`] — durable campaigns: a
//!   campaign becomes a deterministic plan of content-addressed work
//!   units ([`manifest::CampaignManifest`]) whose results persist
//!   through a [`store::ResultStore`] (in-memory or one-file-per-unit
//!   filesystem backend). [`Campaign::run_store`] drains only the units
//!   the store is missing, claiming them via create-exclusive locks, so
//!   killed runs resume and concurrent processes share one store
//!   without ever double-executing a unit — verdicts and merged stats
//!   stay bit-identical to an uninterrupted run, and re-submitting an
//!   identical campaign executes zero units.
//! * [`artifact`] — an inert [`ArtifactStore`] handle: it creates and
//!   reads nothing and stays only for callers that still pass one.
//!   Campaigns build their plans afresh; nothing derived from a netlist
//!   is cached.
//!
//! The crate depends only on `rescue-telemetry` (the workspace
//! observability substrate — every run and shard is wrapped in a
//! `campaign.*` tracing span): it sits below `rescue-faults`,
//! `rescue-radiation`, `rescue-safety` and `rescue-aging`, which all
//! route their campaign loops through it.
//!
//! # Examples
//!
//! ```
//! use rescue_campaign::{Campaign, CampaignStats};
//!
//! // Classify 1000 "injections" across 4 workers, deterministically.
//! let items: Vec<u64> = (0..1000).collect();
//! let campaign = Campaign::new(42, 4);
//! let run = campaign.run_sharded(
//!     &items,
//!     |_worker| 0u64,                 // per-worker scratch
//!     |acc, idx, &item| {             // per-item work
//!         *acc += item;
//!         item % 3 == 0 && idx % 2 == 0
//!     },
//! );
//! let stats = CampaignStats::from_run(items.len(), &run);
//! assert_eq!(run.results.len(), 1000);
//! assert_eq!(stats.injections, 1000);
//! assert!(stats.injections_per_sec() > 0.0);
//! ```

pub mod artifact;
pub mod driver;
pub mod durable;
pub mod fleet;
pub mod manifest;
pub mod progress;
pub mod seed;
pub mod stats;
pub mod store;

pub use artifact::ArtifactStore;
pub use driver::{Campaign, ShardedRun};
pub use durable::DurableRun;
pub use fleet::{FleetEntry, FleetHandle};
pub use manifest::{CampaignManifest, UnitSpec};
pub use progress::{Progress, ProgressSnapshot};
pub use stats::{CampaignStats, OutcomeTally};
pub use store::{
    CanonicalHasher, ClaimInfo, ClaimOutcome, ContentHash, FsStore, MemStore, ResultStore,
    StatsDelta, UnitRecord,
};
