//! Multi-cycle sequential simulation with flip-flop state.

use crate::compiled::CompiledNetlist;
use crate::error::SimError;
use rescue_netlist::Netlist;

/// Two-valued sequential simulator.
///
/// Holds the current flip-flop state; [`SeqSimulator::step`] evaluates the
/// combinational logic with the present state, captures the next state
/// into the DFFs and returns the primary-output values *before* the clock
/// edge (Mealy view of the cycle).
///
/// The SEU-injection hook [`SeqSimulator::flip_state`] implements the
/// single-event-upset model of paper Section III.B: a radiation-induced
/// bit flip in a state element between two clock edges.
///
/// # Examples
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_sim::seq::SeqSimulator;
///
/// let counter = generate::counter(3);
/// let mut sim = SeqSimulator::new(&counter);
/// for _ in 0..5 {
///     sim.step(&[])?;
/// }
/// assert_eq!(sim.state_value(), 5);
/// # Ok::<(), rescue_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeqSimulator {
    compiled: CompiledNetlist,
    state: Vec<bool>,
    cycles: u64,
}

impl SeqSimulator {
    /// Creates a simulator with all flip-flops reset to 0.
    pub fn new(netlist: &Netlist) -> Self {
        let compiled = CompiledNetlist::new(netlist);
        let state = vec![false; compiled.dffs().len()];
        SeqSimulator {
            compiled,
            state,
            cycles: 0,
        }
    }

    /// Resets all flip-flops to 0 and the cycle counter.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|b| *b = false);
        self.cycles = 0;
    }

    /// Number of clock cycles simulated since construction/reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current state bits in `netlist.dffs()` order.
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Interprets the state as a little-endian integer (DFF 0 = bit 0).
    ///
    /// # Panics
    ///
    /// Panics if the design has more than 64 flip-flops.
    pub fn state_value(&self) -> u64 {
        assert!(self.state.len() <= 64, "state wider than 64 bits");
        self.state
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    /// Overwrites the state (e.g. to load a scan pattern).
    ///
    /// # Errors
    ///
    /// [`SimError::StateWidthMismatch`] on length mismatch.
    pub fn load_state(&mut self, bits: &[bool]) -> Result<(), SimError> {
        if bits.len() != self.state.len() {
            return Err(SimError::StateWidthMismatch {
                expected: self.state.len(),
                found: bits.len(),
            });
        }
        self.state.copy_from_slice(bits);
        Ok(())
    }

    /// Flips one state bit — the SEU injection primitive.
    ///
    /// # Panics
    ///
    /// Panics if `dff_index` is out of range.
    pub fn flip_state(&mut self, dff_index: usize) {
        self.state[dff_index] = !self.state[dff_index];
    }

    /// Evaluates one clock cycle and returns the primary-output values.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        let values = self.evaluate(inputs)?;
        // Capture next state: DFF input values become the new state.
        for (i, &d) in self.compiled.dff_d().iter().enumerate() {
            self.state[i] = values[d as usize];
        }
        self.cycles += 1;
        Ok(self
            .compiled
            .po_drivers()
            .iter()
            .map(|&g| values[g as usize])
            .collect())
    }

    /// Evaluates the combinational logic for the present state without
    /// advancing the clock; returns every gate value.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        let mut values = Vec::new();
        self.compiled
            .eval_bools_into(inputs, &self.state, &mut values)?;
        Ok(values)
    }

    /// Runs `cycles` clock cycles with constant `inputs`, returning the
    /// output trace (one vector per cycle).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SeqSimulator::step`].
    pub fn run(&mut self, inputs: &[bool], cycles: usize) -> Result<Vec<Vec<bool>>, SimError> {
        (0..cycles).map(|_| self.step(inputs)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn counter_counts() {
        let c = generate::counter(4);
        let mut sim = SeqSimulator::new(&c);
        for expect in 0u64..20 {
            assert_eq!(sim.state_value(), expect % 16);
            sim.step(&[]).unwrap();
        }
        assert_eq!(sim.cycles(), 20);
        sim.reset();
        assert_eq!(sim.state_value(), 0);
        assert_eq!(sim.cycles(), 0);
    }

    #[test]
    fn shift_register_shifts() {
        let s = generate::shift_register(4);
        let mut sim = SeqSimulator::new(&s);
        // Feed 1 for one cycle then 0s; the 1 marches down the chain.
        sim.step(&[true]).unwrap();
        assert_eq!(sim.state(), &[true, false, false, false]);
        sim.step(&[false]).unwrap();
        assert_eq!(sim.state(), &[false, true, false, false]);
        let out = sim.step(&[false]).unwrap();
        assert_eq!(out, vec![false]);
        sim.step(&[false]).unwrap();
        // After 4 total shifts the 1 is at the output register.
        assert_eq!(sim.state(), &[false, false, false, true]);
    }

    #[test]
    fn lfsr_cycles_through_states() {
        let l = generate::lfsr(4, &[3, 2]);
        let mut sim = SeqSimulator::new(&l);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            seen.insert(sim.state_value());
            sim.step(&[]).unwrap();
        }
        assert!(seen.len() > 2, "lfsr must visit several states");
    }

    #[test]
    fn fsm_sequences() {
        let f = generate::control_fsm();
        let mut sim = SeqSimulator::new(&f);
        // IDLE: busy=0
        let v = sim.evaluate(&[false, false]).unwrap();
        let busy = crate::comb::outputs_of(&f, &v)[0];
        assert!(!busy);
        // go -> RUN
        sim.step(&[true, false]).unwrap();
        let v = sim.evaluate(&[false, false]).unwrap();
        assert!(crate::comb::outputs_of(&f, &v)[0], "busy in RUN");
        // RUN -> DONE
        sim.step(&[false, false]).unwrap();
        let v = sim.evaluate(&[false, false]).unwrap();
        assert!(crate::comb::outputs_of(&f, &v)[1], "done asserted");
        // DONE -> IDLE
        sim.step(&[false, false]).unwrap();
        assert_eq!(sim.state_value(), 0);
    }

    #[test]
    fn seu_flip_changes_trajectory() {
        let c = generate::counter(4);
        let mut golden = SeqSimulator::new(&c);
        let mut faulty = SeqSimulator::new(&c);
        for _ in 0..3 {
            golden.step(&[]).unwrap();
            faulty.step(&[]).unwrap();
        }
        faulty.flip_state(2); // SEU in bit 2
        assert_ne!(golden.state_value(), faulty.state_value());
        // the flip persists (counter has no correction)
        golden.step(&[]).unwrap();
        faulty.step(&[]).unwrap();
        assert_ne!(golden.state_value(), faulty.state_value());
    }

    #[test]
    fn load_state_checks_width() {
        let c = generate::counter(4);
        let mut sim = SeqSimulator::new(&c);
        assert!(sim.load_state(&[true; 3]).is_err());
        sim.load_state(&[true, false, true, false]).unwrap();
        assert_eq!(sim.state_value(), 0b0101);
    }
}
