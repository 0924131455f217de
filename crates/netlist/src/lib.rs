//! Gate-level netlist intermediate representation for the RESCUE-rs toolkit.
//!
//! This crate is the structural substrate every other RESCUE-rs crate builds
//! on: a compact, index-based gate-level netlist with
//!
//! * combinational gates ([`GateKind`]) and D flip-flops,
//! * a fluent [`NetlistBuilder`] for programmatic construction,
//! * levelization / topological ordering ([`Netlist::levelize`]),
//! * cone-of-influence and fan-out analysis ([`cone`]),
//! * a zoo of generated benchmark circuits ([`generate`]) replacing the
//!   proprietary designs used by the RESCUE project (AutoSoC blocks,
//!   ISCAS-style control logic), and
//! * a small structural text format ([`mod@format`]) for interchange.
//!
//! # Examples
//!
//! Build a majority voter and inspect it:
//!
//! ```
//! use rescue_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("majority");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let c = b.input("c");
//! let ab = b.and(a, bb);
//! let bc = b.and(bb, c);
//! let ac = b.and(a, c);
//! let t = b.or(ab, bc);
//! let m = b.or(t, ac);
//! b.output("m", m);
//! let net = b.finish();
//! assert_eq!(net.primary_inputs().len(), 3);
//! assert_eq!(net.primary_outputs().len(), 1);
//! ```

pub mod builder;
pub mod cone;
pub mod error;
pub mod format;
pub mod gate;
pub mod generate;
pub mod level;
pub mod netlist;
pub mod renumber;
pub mod stats;

pub use builder::NetlistBuilder;
pub use error::{ensure_u32_indexable, NetlistError};
pub use gate::{Gate, GateId, GateKind};
pub use level::Levelization;
pub use netlist::{Fanout, Netlist};
pub use stats::NetlistStats;
