//! Pseudo-exhaustive test generation.
//!
//! Exhaustively exercises the fan-in cone of every primary output whose
//! cone has at most `k` inputs. For cones within the limit this detects
//! *all* combinationally detectable faults of that cone without fault
//! simulation or backtracking — the idea behind the combined
//! deterministic + pseudo-exhaustive RISC test generation of \[28\].

use crate::error::AtpgError;
use rescue_netlist::{cone, GateKind, Netlist};

/// Pseudo-exhaustive pattern set: one exhaustive block per output cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PseudoExhaustiveSet {
    patterns: Vec<Vec<bool>>,
    cones: Vec<(String, usize)>,
}

impl PseudoExhaustiveSet {
    /// The generated patterns (unspecified inputs held at 0).
    pub fn patterns(&self) -> &[Vec<bool>] {
        &self.patterns
    }

    /// Per-output cone sizes: `(output name, cone input count)`.
    pub fn cones(&self) -> &[(String, usize)] {
        &self.cones
    }

    /// Total pattern count.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when no patterns were generated.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// Generates a pseudo-exhaustive set for `netlist` with cone-width limit
/// `k` (patterns per cone = `2^cone_width`).
///
/// # Errors
///
/// [`AtpgError::ConeTooWide`] when any output cone has more than `k`
/// inputs, [`AtpgError::SequentialDesign`] for sequential designs.
///
/// # Examples
///
/// ```
/// use rescue_atpg::pseudo::pseudo_exhaustive;
/// use rescue_netlist::generate;
///
/// let c = generate::c17();
/// let set = pseudo_exhaustive(&c, 8)?;
/// // Each c17 output depends on 4 inputs: 2 cones x 16 patterns.
/// assert_eq!(set.len(), 32);
/// # Ok::<(), rescue_atpg::AtpgError>(())
/// ```
pub fn pseudo_exhaustive(netlist: &Netlist, k: usize) -> Result<PseudoExhaustiveSet, AtpgError> {
    if netlist.is_sequential() {
        return Err(AtpgError::SequentialDesign {
            dffs: netlist.dffs().len(),
        });
    }
    let n_in = netlist.primary_inputs().len();
    let mut patterns = Vec::new();
    let mut cones = Vec::new();
    for (name, out) in netlist.primary_outputs() {
        let cone_gates = cone::fanin_cone(netlist, &[*out]);
        let cone_inputs: Vec<usize> = netlist
            .primary_inputs()
            .iter()
            .enumerate()
            .filter(|(_, pi)| {
                cone_gates.contains(pi) && netlist.gate(**pi).kind() == GateKind::Input
            })
            .map(|(i, _)| i)
            .collect();
        if cone_inputs.len() > k {
            return Err(AtpgError::ConeTooWide {
                output: name.clone(),
                inputs: cone_inputs.len(),
                limit: k,
            });
        }
        cones.push((name.clone(), cone_inputs.len()));
        for v in 0u64..(1u64 << cone_inputs.len()) {
            let mut pat = vec![false; n_in];
            for (bit, &pi_pos) in cone_inputs.iter().enumerate() {
                pat[pi_pos] = v >> bit & 1 == 1;
            }
            patterns.push(pat);
        }
    }
    Ok(PseudoExhaustiveSet { patterns, cones })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_faults::{simulate::FaultSimulator, universe};
    use rescue_netlist::generate;

    #[test]
    fn c17_pseudo_exhaustive_full_coverage() {
        let c = generate::c17();
        let set = pseudo_exhaustive(&c, 8).unwrap();
        let faults = universe::stuck_at_universe(&c);
        let sim = FaultSimulator::new(&c);
        let report = sim.campaign(&faults, set.patterns());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(set.cones().len(), 2);
        assert!(set.cones().iter().all(|(_, w)| *w == 4));
    }

    #[test]
    fn cone_limit_enforced() {
        let p = generate::parity(12);
        assert!(matches!(
            pseudo_exhaustive(&p, 8),
            Err(AtpgError::ConeTooWide { inputs: 12, .. })
        ));
        assert!(pseudo_exhaustive(&p, 12).is_ok());
    }

    #[test]
    fn sequential_rejected() {
        let l = generate::lfsr(4, &[3, 1]);
        assert!(matches!(
            pseudo_exhaustive(&l, 8),
            Err(AtpgError::SequentialDesign { dffs: 4 })
        ));
    }

    #[test]
    fn pattern_count_is_sum_of_cone_powers() {
        let a = generate::adder(3); // outputs s0..s2, cout
        let set = pseudo_exhaustive(&a, 7).unwrap();
        let expect: usize = set.cones().iter().map(|(_, w)| 1usize << w).sum();
        assert_eq!(set.len(), expect);
        assert!(!set.is_empty());
    }
}
