//! Test generation and testability analysis for RESCUE-rs.
//!
//! Implements the test-generation thrust of the RESCUE project (paper
//! Section III.A):
//!
//! * [`scoap`] — SCOAP controllability/observability and COP probabilistic
//!   testability measures.
//! * [`random`] — weighted random test generation with a coverage curve.
//! * [`podem`] — PODEM deterministic ATPG with backtrace guided by SCOAP,
//!   proving faults testable (with a pattern) or untestable.
//! * [`untestable`] — structural + formal identification of untestable
//!   faults (the GPGPU/RISC untestable-fault work \[46\], \[23\]).
//! * [`pseudo`] — pseudo-exhaustive cone-based test generation \[28\].
//! * [`testpoints`] — SCOAP-guided test-point insertion (DfT for
//!   random-pattern-resistant logic).
//! * [`compact`] — static and simulation-based test-set compaction.
//!
//! # Examples
//!
//! Generate a complete test set for `c17` and check its coverage:
//!
//! ```
//! use rescue_atpg::podem::{Podem, PodemOutcome};
//! use rescue_faults::{simulate::FaultSimulator, universe};
//! use rescue_netlist::generate;
//!
//! let c = generate::c17();
//! let faults = universe::stuck_at_universe(&c);
//! let podem = Podem::new(&c);
//! let mut patterns = Vec::new();
//! for &f in &faults {
//!     if let PodemOutcome::Test(cube) = podem.generate(&c, f) {
//!         patterns.push(cube.fill_with(false));
//!     }
//! }
//! let report = FaultSimulator::new(&c).campaign(&faults, &patterns);
//! assert_eq!(report.coverage(), 1.0);
//! ```

pub mod compact;
pub mod error;
pub mod podem;
pub mod pseudo;
pub mod random;
pub mod scoap;
pub mod testpoints;
pub mod untestable;

pub use error::AtpgError;
pub use podem::{Podem, PodemOutcome, TestCube};
pub use scoap::Scoap;
