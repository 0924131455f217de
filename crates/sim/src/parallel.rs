//! 64-way bit-parallel pattern simulation.
//!
//! Packs 64 input patterns into one `u64` per signal and evaluates the
//! whole batch with word-wide boolean ops — the classic parallel-pattern
//! single-fault propagation substrate used by the fault-simulation crate
//! for large statistical campaigns (paper Section III.B).

use crate::compiled::CompiledNetlist;
use crate::error::SimError;
use crate::wide::SimWord;
use rescue_netlist::Netlist;

/// Mask selecting the `n` live pattern bits of a partially filled 64-wide
/// chunk (all ones for a full chunk). Guards the `n == 64` shift overflow
/// that every call site used to hand-roll. This is the `u64`
/// instantiation of [`SimWord::live_mask`], the one shared ragged-tail
/// helper for every packed engine.
///
/// # Examples
///
/// ```
/// use rescue_sim::parallel::live_mask;
/// assert_eq!(live_mask(3), 0b111);
/// assert_eq!(live_mask(64), u64::MAX);
/// assert_eq!(live_mask(0), 0);
/// ```
#[inline]
pub fn live_mask(n: usize) -> u64 {
    <u64 as SimWord>::live_mask(n)
}

/// Packs up to 64 bool patterns (outer: pattern, inner: input position)
/// into one word per primary input — the `u64` instantiation of
/// [`crate::wide::pack_patterns_wide`].
///
/// Bit `p` of word `i` is the value of input `i` in pattern `p`.
///
/// # Panics
///
/// Panics if more than 64 patterns are supplied or pattern widths differ.
pub fn pack_patterns(patterns: &[Vec<bool>]) -> Vec<u64> {
    crate::wide::pack_patterns_wide(patterns)
}

/// Reusable 64-way parallel-pattern evaluator.
///
/// # Examples
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_sim::parallel::{pack_patterns, ParallelSimulator};
///
/// let c = generate::c17();
/// let sim = ParallelSimulator::new(&c);
/// let pats = vec![vec![true; 5], vec![false; 5]];
/// let words = sim.run(&pack_patterns(&pats))?;
/// assert_eq!(words.len(), c.len());
/// # Ok::<(), rescue_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSimulator {
    compiled: CompiledNetlist,
}

impl ParallelSimulator {
    /// Prepares an evaluator for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        ParallelSimulator {
            compiled: CompiledNetlist::new(netlist),
        }
    }

    /// The compiled arena backing this evaluator.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// Evaluates 64 packed patterns; `input_words[i]` carries input `i`.
    /// DFF outputs evaluate to all-zero words.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when the word count differs from
    /// the primary-input count.
    pub fn run(&self, input_words: &[u64]) -> Result<Vec<u64>, SimError> {
        let mut values = Vec::new();
        self.compiled.eval_words_into(input_words, &mut values)?;
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::eval_bool;
    use rescue_netlist::generate;

    #[test]
    fn parallel_matches_serial() {
        let net = generate::random_logic(8, 60, 4, 99);
        let sim = ParallelSimulator::new(&net);
        let mut patterns = Vec::new();
        let mut s = 12345u64;
        for _ in 0..64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            patterns.push((0..8).map(|i| s >> (i + 3) & 1 == 1).collect::<Vec<_>>());
        }
        let words = sim.run(&pack_patterns(&patterns)).unwrap();
        for (p, pat) in patterns.iter().enumerate() {
            let serial = eval_bool(&net, pat).unwrap();
            for id in net.ids() {
                let bit = words[id.index()] >> p & 1 == 1;
                assert_eq!(bit, serial[id.index()], "pattern {p}, gate {id}");
            }
        }
    }

    #[test]
    fn pack_patterns_layout() {
        let w = pack_patterns(&[vec![true, false], vec![false, true]]);
        assert_eq!(w, vec![0b01, 0b10]);
        assert!(pack_patterns(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn pack_rejects_too_many() {
        pack_patterns(&vec![vec![true]; 65]);
    }
}
