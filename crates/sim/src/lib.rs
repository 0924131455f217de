//! Logic simulation engines for RESCUE-rs.
//!
//! Five engines over the [`rescue_netlist`] IR, plus the lane width the
//! packed ones share, each serving different RESCUE experiments:
//!
//! * [`comb::CombSimulator`] — single-pattern 4-valued (`0/1/X/Z`)
//!   combinational evaluation, the reference engine.
//! * [`comb::eval_bool`] / [`parallel::ParallelSimulator`] — 2-valued and
//!   64-way bit-parallel evaluation for fast fault simulation campaigns
//!   (paper Section III.B: random fault injection at scale).
//! * [`seq::SeqSimulator`] — multi-cycle sequential simulation with DFF
//!   state, used by SBST grading and SEU (bit-flip) injection.
//! * [`compiled_seq::LaneMachine`] — one packed sequential machine per
//!   lane (64 per `u64`, `64 * W` per wide word) over a shared
//!   [`compiled_seq::GoldenTrace`] of per-cycle state snapshots, the
//!   substrate of bit-parallel SEU campaigns.
//! * [`wide::SimWord`] / [`wide::PackedWord`] — configurable lane width
//!   for every packed engine: the same kernels instantiate at `u64`
//!   (64 lanes, the default) or `[u64; W]` wide words (up to 512 lanes)
//!   that LLVM autovectorizes on stable Rust.
//! * [`timed::TimedSimulator`] — event-driven timed simulation with
//!   inertial delays, used to propagate SET pulses and model electrical
//!   masking (paper Sections III.B and the CDN-SET study \[54\]).
//!
//! The combinational, parallel-pattern and sequential engines share the
//! [`compiled::CompiledNetlist`] flat-arena representation (CSR pin
//! slices, baked-in levelized order, fanout CSR), compiled once per
//! design, and evaluate through its one gate table ([`sweep`]) in every
//! value domain; the fault-simulation crate runs its packed detection
//! walk on the same arena.
//!
//! # Examples
//!
//! ```
//! use rescue_netlist::generate;
//! use rescue_sim::comb::eval_bool;
//!
//! let adder = generate::adder(4);
//! // 3 + 5, cin=0 -> 8
//! let mut inputs = vec![false; 9];
//! inputs[0] = true; // a0
//! inputs[1] = true; // a1
//! inputs[4] = true; // b0
//! inputs[6] = true; // b2
//! let values = eval_bool(&adder, &inputs)?;
//! let sum: u32 = adder
//!     .primary_outputs()
//!     .iter()
//!     .take(4)
//!     .enumerate()
//!     .map(|(i, (_, g))| (values[g.index()] as u32) << i)
//!     .sum();
//! assert_eq!(sum, 8);
//! # Ok::<(), rescue_sim::SimError>(())
//! ```

pub mod codec;
pub mod comb;
pub mod compiled;
pub mod compiled_seq;
pub mod error;
pub mod logic;
pub mod parallel;
pub mod seq;
pub mod sweep;
pub mod timed;
pub mod wide;

pub use error::SimError;
pub use logic::Logic;
