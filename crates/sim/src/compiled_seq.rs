//! Bit-parallel sequential simulation: 64 independent machines per word.
//!
//! # Design: lane packing over a shared golden trace
//!
//! Sequential fault-injection campaigns (SEU analysis, transition tests)
//! repeat the same structure thousands of times: warm a machine up to
//! some cycle, perturb one state bit, then watch a short horizon. Two
//! observations make this embarrassingly word-parallel:
//!
//! 1. **The warmup prefix is shared.** Every injection at cycle `c`
//!    starts from the *same* golden state. [`GoldenTrace::record`] runs
//!    the scalar two-valued simulation once and keeps a per-cycle state
//!    snapshot plus the primary-output values of every cycle. An
//!    injection at `(dff, c)` never re-simulates cycles `0..c` — it
//!    starts from `snapshot(c)` directly, and the golden half of the
//!    lockstep comparison is a table lookup instead of a second machine.
//!
//! 2. **Faulty machines diverge independently.** Up to
//!    [`crate::wide::SimWord::LANES`] injections that share an injection
//!    cycle are packed into the bit lanes of a [`LaneMachine`]: each DFF
//!    holds a word whose lane `l` is machine `l`'s state (64 lanes per
//!    `u64`; [`crate::wide::PackedWord`] widens a machine word to `64 * W`
//!    lanes). The golden snapshot is broadcast
//!    into every lane, then each lane flips *its own* flop via
//!    [`LaneMachine::flip_lane`]. One [`LaneMachine::step`] then advances
//!    all lanes through the same gate table and level runs the scalar
//!    engine uses ([`crate::sweep`]), so each lane's trajectory is
//!    bit-identical to a scalar run of that injection.
//!
//! Comparison against the golden trace is also word-wide:
//! [`LaneMachine::output_diff_mask`] XORs each output word with the
//! broadcast golden output bit and ORs the differences into a single
//! word — lane `l` set means machine `l` has failed. Campaigns early-exit
//! a batch once every live lane has failed (the mask equals the live
//! mask), which is what makes dense-failure designs like LFSRs finish in
//! a handful of steps.
//!
//! The word domain is strictly two-valued, matching
//! [`crate::seq::SeqSimulator`]'s reset-to-0 convention, so lane 0 of a
//! broadcast machine with no flips reproduces the scalar simulator
//! exactly — the property the `rescue-radiation` equivalence suite pins
//! down.

use crate::compiled::CompiledNetlist;
use crate::error::SimError;
use crate::wide::SimWord;

/// Broadcasts one bit across all 64 lanes.
#[inline]
pub fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Broadcasts a scalar input pattern into per-input lane words.
pub fn broadcast_inputs(inputs: &[bool]) -> Vec<u64> {
    splat_inputs(inputs)
}

/// Width-generic form of [`broadcast_inputs`]: broadcasts a scalar input
/// pattern into per-input words of any [`SimWord`] lane width.
pub fn splat_inputs<Wd: SimWord>(inputs: &[bool]) -> Vec<Wd> {
    inputs.iter().map(|&b| Wd::splat(b)).collect()
}

/// Scalar golden trace with per-cycle state snapshots.
///
/// `snapshot(c)` is the flip-flop state *after* `c` clock cycles
/// (`snapshot(0)` is the reset state); `outputs_at(c)` are the primary
/// outputs observed *during* cycle `c` (the values
/// [`crate::seq::SeqSimulator::step`] number `c` returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTrace {
    snapshots: Vec<Vec<bool>>,
    outputs: Vec<Vec<bool>>,
}

impl GoldenTrace {
    /// Simulates `cycles` clock cycles from reset with constant `inputs`,
    /// recording every intermediate state and output vector.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `inputs` has the wrong
    /// length.
    pub fn record(
        compiled: &CompiledNetlist,
        inputs: &[bool],
        cycles: usize,
    ) -> Result<Self, SimError> {
        let mut state = vec![false; compiled.dffs().len()];
        let mut values = Vec::new();
        let mut snapshots = Vec::with_capacity(cycles + 1);
        let mut outputs = Vec::with_capacity(cycles);
        snapshots.push(state.clone());
        for _ in 0..cycles {
            compiled.eval_bools_into(inputs, &state, &mut values)?;
            outputs.push(
                compiled
                    .po_drivers()
                    .iter()
                    .map(|&g| values[g as usize])
                    .collect(),
            );
            for (i, &d) in compiled.dff_d().iter().enumerate() {
                state[i] = values[d as usize];
            }
            snapshots.push(state.clone());
        }
        Ok(GoldenTrace { snapshots, outputs })
    }

    /// Number of recorded clock cycles.
    pub fn cycles(&self) -> usize {
        self.outputs.len()
    }

    /// Flip-flop state after `cycle` clock cycles (0 = reset state).
    ///
    /// # Panics
    ///
    /// Panics when `cycle > cycles()`.
    pub fn snapshot(&self, cycle: usize) -> &[bool] {
        &self.snapshots[cycle]
    }

    /// Primary-output values observed during `cycle`.
    ///
    /// # Panics
    ///
    /// Panics when `cycle >= cycles()`.
    pub fn outputs_at(&self, cycle: usize) -> &[bool] {
        &self.outputs[cycle]
    }
}

/// [`SimWord::LANES`] independent sequential machines packed into the
/// lane words of one [`SimWord`] — 64 per `u64`, `64 * W` per
/// [`crate::wide::PackedWord`].
///
/// Reusable scratch: allocate once per worker, then
/// [`LaneMachine::load_broadcast`] + [`LaneMachine::flip_lane`] +
/// [`LaneMachine::step`] per injection batch — no per-batch
/// allocation.
///
/// # Examples
///
/// Lane 0 with no flip reproduces the scalar simulator:
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_sim::compiled::CompiledNetlist;
/// use rescue_sim::compiled_seq::{GoldenTrace, LaneMachine};
///
/// let lfsr = generate::lfsr(8, &[7, 5, 4, 3]);
/// let compiled = CompiledNetlist::new(&lfsr);
/// let trace = GoldenTrace::record(&compiled, &[], 6)?;
///
/// let mut m = LaneMachine::<u64>::new(&compiled);
/// m.load_broadcast(&compiled, trace.snapshot(2));
/// m.flip_lane(3, 5); // lane 5 takes an SEU in flop 3; lane 0 stays golden
/// m.step(&compiled, &[])?;
/// let diff = m.output_diff_mask(&compiled, trace.outputs_at(2));
/// assert_eq!(diff & 1, 0, "unflipped lane tracks the golden trace");
/// # Ok::<(), rescue_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LaneMachine<Wd: SimWord> {
    state: Vec<Wd>,
    values: Vec<Wd>,
    /// Golden-snapshot restores ([`LaneMachine::load_broadcast`]
    /// calls) since construction / the last counter flush. Plain field:
    /// maintained unconditionally so enabled telemetry adds no branch
    /// to the batch loop.
    restores: u64,
    /// Clock cycles stepped since construction / the last counter flush.
    steps: u64,
}

impl<Wd: SimWord> LaneMachine<Wd> {
    /// Creates a machine for `compiled` with all lanes reset to 0.
    pub fn new(compiled: &CompiledNetlist) -> Self {
        LaneMachine {
            state: vec![Wd::ZERO; compiled.dffs().len()],
            values: vec![Wd::ZERO; compiled.len()],
            restores: 0,
            steps: 0,
        }
    }

    /// Loads `state_bits` into every lane (broadcast) — the
    /// snapshot-restore primitive of golden-trace campaigns.
    ///
    /// # Panics
    ///
    /// Panics when `state_bits` has the wrong width.
    pub fn load_broadcast(&mut self, compiled: &CompiledNetlist, state_bits: &[bool]) {
        assert_eq!(state_bits.len(), compiled.dffs().len(), "state width");
        self.restores += 1;
        for (w, &b) in self.state.iter_mut().zip(state_bits) {
            *w = Wd::splat(b);
        }
    }

    /// Snapshot restores since construction or the last
    /// [`LaneMachine::take_counters`].
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Clock cycles stepped since construction or the last
    /// [`LaneMachine::take_counters`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns `(restores, steps)` and zeroes both — campaigns flush
    /// these into the `sim.*` metrics at shard granularity.
    pub fn take_counters(&mut self) -> (u64, u64) {
        let out = (self.restores, self.steps);
        self.restores = 0;
        self.steps = 0;
        out
    }

    /// Flips flop `dff` in lane `lane` only — the packed SEU primitive.
    ///
    /// # Panics
    ///
    /// Panics when `dff` or `lane` is out of range.
    pub fn flip_lane(&mut self, dff: usize, lane: usize) {
        assert!(lane < Wd::LANES, "lane out of range");
        self.state[dff].toggle_lane(lane);
    }

    /// Per-flop lane words of the current state.
    pub fn state_words(&self) -> &[Wd] {
        &self.state
    }

    /// Per-gate lane words of the last evaluated cycle.
    pub fn values(&self) -> &[Wd] {
        &self.values
    }

    /// Advances all lanes one clock cycle: evaluates the combinational
    /// logic with the present state, then captures each flop's `D` word.
    /// Gate values of the evaluated cycle stay readable via
    /// [`LaneMachine::values`] / the diff masks until the next step.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `input_words` has the wrong
    /// length.
    pub fn step(&mut self, compiled: &CompiledNetlist, input_words: &[Wd]) -> Result<(), SimError> {
        compiled.eval_into(input_words, Some(&self.state), &mut self.values)?;
        self.steps += 1;
        for (i, &d) in compiled.dff_d().iter().enumerate() {
            self.state[i] = self.values[d as usize];
        }
        Ok(())
    }

    /// Lanes whose last evaluated outputs differ from the golden output
    /// vector `golden_po` (bit `l` set = lane `l` differs on ≥1 output).
    ///
    /// # Panics
    ///
    /// Panics when `golden_po` has the wrong width.
    pub fn output_diff_mask(&self, compiled: &CompiledNetlist, golden_po: &[bool]) -> Wd {
        assert_eq!(golden_po.len(), compiled.po_drivers().len(), "output width");
        compiled
            .po_drivers()
            .iter()
            .zip(golden_po)
            .fold(Wd::ZERO, |acc, (&g, &b)| {
                acc | (self.values[g as usize] ^ Wd::splat(b))
            })
    }

    /// Lanes whose current state differs from `golden_state`.
    ///
    /// # Panics
    ///
    /// Panics when `golden_state` has the wrong width.
    pub fn state_diff_mask(&self, golden_state: &[bool]) -> Wd {
        assert_eq!(golden_state.len(), self.state.len(), "state width");
        self.state
            .iter()
            .zip(golden_state)
            .fold(Wd::ZERO, |acc, (&w, &b)| acc | (w ^ Wd::splat(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqSimulator;
    use rescue_netlist::generate;

    #[test]
    fn trace_matches_scalar_simulator() {
        let net = generate::lfsr(8, &[7, 5, 4, 3]);
        let compiled = CompiledNetlist::new(&net);
        let trace = GoldenTrace::record(&compiled, &[], 12).unwrap();
        let mut sim = SeqSimulator::new(&net);
        assert_eq!(trace.snapshot(0), sim.state());
        for c in 0..12 {
            let out = sim.step(&[]).unwrap();
            assert_eq!(trace.outputs_at(c), &out[..], "outputs cycle {c}");
            assert_eq!(trace.snapshot(c + 1), sim.state(), "state cycle {c}");
        }
    }

    #[test]
    fn broadcast_lanes_track_scalar_run() {
        let net = generate::counter(6);
        let compiled = CompiledNetlist::new(&net);
        let mut m = LaneMachine::<u64>::new(&compiled);
        let mut sim = SeqSimulator::new(&net);
        for cycle in 0..10 {
            m.step(&compiled, &[]).unwrap();
            sim.step(&[]).unwrap();
            for (i, w) in m.state_words().iter().enumerate() {
                let expect = broadcast(sim.state()[i]);
                assert_eq!(*w, expect, "cycle {cycle}, flop {i}: all lanes agree");
            }
        }
    }

    #[test]
    fn flipped_lane_matches_scalar_flip() {
        let net = generate::lfsr(6, &[5, 3]);
        let compiled = CompiledNetlist::new(&net);
        let trace = GoldenTrace::record(&compiled, &[], 10).unwrap();
        // Flip flop 2 at cycle 3: lane 7 packed vs a scalar machine.
        let mut m = LaneMachine::<u64>::new(&compiled);
        m.load_broadcast(&compiled, trace.snapshot(3));
        m.flip_lane(2, 7);
        let mut scalar = SeqSimulator::new(&net);
        scalar.load_state(trace.snapshot(3)).unwrap();
        scalar.flip_state(2);
        for k in 0..5 {
            m.step(&compiled, &[]).unwrap();
            let out = scalar.step(&[]).unwrap();
            // Lane 7 state equals the scalar faulty machine.
            for (i, w) in m.state_words().iter().enumerate() {
                assert_eq!(w >> 7 & 1 == 1, scalar.state()[i], "step {k}, flop {i}");
            }
            // Lane 7 output-diff equals the scalar golden/faulty diff.
            let diff = m.output_diff_mask(&compiled, trace.outputs_at(3 + k));
            let scalar_diff = out.iter().zip(trace.outputs_at(3 + k)).any(|(a, b)| a != b);
            assert_eq!(diff >> 7 & 1 == 1, scalar_diff, "step {k} output diff");
            // Lane 0 (never flipped) stays on the golden trace.
            assert_eq!(diff & 1, 0, "step {k}: golden lane clean");
        }
        let sdiff = m.state_diff_mask(trace.snapshot(8));
        assert_eq!(
            sdiff >> 7 & 1 == 1,
            scalar.state() != trace.snapshot(8),
            "final state diff"
        );
        assert_eq!(sdiff & 1, 0, "golden lane state matches snapshot");
    }

    #[test]
    fn machine_counters_track_restores_and_steps() {
        let net = generate::counter(4);
        let compiled = CompiledNetlist::new(&net);
        let trace = GoldenTrace::record(&compiled, &[], 3).unwrap();
        let mut m = LaneMachine::<u64>::new(&compiled);
        assert_eq!((m.restores(), m.steps()), (0, 0));
        m.load_broadcast(&compiled, trace.snapshot(1));
        m.step(&compiled, &[]).unwrap();
        m.step(&compiled, &[]).unwrap();
        assert_eq!(m.take_counters(), (1, 2));
        assert_eq!((m.restores(), m.steps()), (0, 0), "take zeroes");
    }

    #[test]
    fn width_mismatch_is_reported() {
        let net = generate::c17();
        let compiled = CompiledNetlist::new(&net);
        let mut m = LaneMachine::<u64>::new(&compiled);
        assert!(matches!(
            m.step(&compiled, &[0; 2]),
            Err(SimError::InputWidthMismatch {
                expected: 5,
                found: 2
            })
        ));
    }
}
