//! Fault models and fault simulation for RESCUE-rs.
//!
//! Implements the permanent-fault side of the RESCUE toolflow:
//!
//! * [`model`] — stuck-at, transition-delay and bridging fault models over
//!   gate pins and outputs.
//! * [`universe`] — exhaustive fault-list generation.
//! * [`content`] — canonical byte-stable content hashing of campaigns
//!   (netlist, universe, options, patterns), the keys durable campaigns
//!   are cached under.
//! * [`collapse`] — structural equivalence collapsing.
//! * [`simulate`] — serial and 64-way parallel-pattern fault simulation
//!   with fault dropping, for both combinational and sequential designs.
//! * [`engine`] — the packed single-fault detection core: one levelized
//!   event walk per fault site and pattern word, PO-reachability
//!   pruning, walk-stamped reads of the shared golden chunk.
//! * [`trace`] — critical-path tracing: per-net observability words by
//!   backward sensitization over fanout-free regions, with the exact
//!   event-driven walk kept as the reconvergent-stem fallback.
//! * [`mod@reference`] — the full-resimulation oracle every detection
//!   path is property-tested against.
//! * [`sample`] — statistical fault-injection sampling theory: how many
//!   faults must be injected for a given error margin and confidence
//!   (the "random fault injection" methodology of paper Section III.B).
//! * [`dictionary`] — fault dictionaries and syndrome-based diagnosis.
//!
//! # Examples
//!
//! Compute stuck-at coverage of exhaustive patterns on `c17`, and check
//! it against the full-resimulation oracle:
//!
//! ```
//! use rescue_faults::reference::ReferenceFaultSimulator;
//! use rescue_faults::{simulate::FaultSimulator, universe};
//! use rescue_netlist::generate;
//!
//! let c = generate::c17();
//! let faults = universe::stuck_at_universe(&c);
//! let patterns: Vec<Vec<bool>> = (0..32u32)
//!     .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
//!     .collect();
//! let report = FaultSimulator::new(&c).campaign(&faults, &patterns);
//! assert!(report.coverage() > 0.9, "c17 is fully testable");
//! // Same first detection for every fault.
//! let oracle = ReferenceFaultSimulator::new(&c).campaign(&c, &faults, &patterns);
//! assert_eq!(report.first_detection(), oracle.first_detection());
//! ```

pub mod collapse;
pub mod content;
pub mod dictionary;
pub mod engine;
pub mod error;
pub mod model;
pub mod reference;
pub mod sample;
pub mod simulate;
pub mod trace;
pub mod universe;

pub use error::FaultError;
pub use model::{Fault, FaultId, FaultKind, FaultSite};
pub use simulate::{CampaignReport, CampaignRun, FaultSimulator};
