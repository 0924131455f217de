//! Single-pattern combinational evaluation (4-valued and 2-valued).

use crate::compiled::CompiledNetlist;
use crate::error::SimError;
use crate::logic::Logic;
use rescue_netlist::Netlist;

/// Reusable combinational evaluator holding the levelized order.
///
/// Amortizes levelization across many evaluations; for one-off calls use
/// [`eval`] / [`eval_bool`].
///
/// # Examples
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_sim::comb::CombSimulator;
/// use rescue_sim::Logic;
///
/// let c = generate::c17();
/// let sim = CombSimulator::new(&c);
/// let vals = sim.run(&[Logic::One; 5])?;
/// assert!(!vals.is_empty());
/// # Ok::<(), rescue_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CombSimulator {
    compiled: CompiledNetlist,
}

impl CombSimulator {
    /// Prepares an evaluator for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        CombSimulator {
            compiled: CompiledNetlist::new(netlist),
        }
    }

    /// Evaluates the design with four-valued `inputs` (one per primary
    /// input, in declaration order). DFF outputs evaluate to `X`.
    ///
    /// Returns the value of every gate, indexed by [`rescue_netlist::GateId`].
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
    pub fn run(&self, inputs: &[Logic]) -> Result<Vec<Logic>, SimError> {
        let mut values = vec![Logic::X; self.compiled.len()];
        self.compiled.eval_into(inputs, None, &mut values)?;
        Ok(values)
    }
}

/// One-shot four-valued evaluation. See [`CombSimulator::run`].
///
/// # Errors
///
/// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
pub fn eval(netlist: &Netlist, inputs: &[Logic]) -> Result<Vec<Logic>, SimError> {
    CombSimulator::new(netlist).run(inputs)
}

/// One-shot two-valued evaluation of a combinational netlist.
///
/// DFF outputs evaluate to `false`; for sequential designs use
/// [`crate::seq::SeqSimulator`].
///
/// # Errors
///
/// [`SimError::InputWidthMismatch`] when `inputs` has the wrong length.
pub fn eval_bool(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
    let c = CompiledNetlist::new(netlist);
    let state = vec![false; c.dffs().len()];
    let mut values = Vec::new();
    c.eval_bools_into(inputs, &state, &mut values)?;
    Ok(values)
}

/// Extracts the primary-output values from a full value vector.
pub fn outputs_of<T: Copy>(netlist: &Netlist, values: &[T]) -> Vec<T> {
    netlist
        .primary_outputs()
        .iter()
        .map(|(_, g)| values[g.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{generate, NetlistBuilder};

    #[test]
    fn c17_truth_spot_checks() {
        let c = generate::c17();
        // All-ones: G10=nand(1,1)=0, G11=0, G16=nand(1,0)=1, G19=nand(0,1)=1,
        // G22=nand(0,1)=1, G23=nand(1,1)=0
        let v = eval_bool(&c, &[true; 5]).unwrap();
        let outs = outputs_of(&c, &v);
        assert_eq!(outs, vec![true, false]);
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let a = generate::adder(4);
        for x in 0u32..16 {
            for y in 0u32..16 {
                for cin in 0..2u32 {
                    let mut ins = vec![false; 9];
                    for b in 0..4 {
                        ins[b] = x >> b & 1 == 1;
                        ins[4 + b] = y >> b & 1 == 1;
                    }
                    ins[8] = cin == 1;
                    let v = eval_bool(&a, &ins).unwrap();
                    let outs = outputs_of(&a, &v);
                    let got: u32 = outs.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
                    assert_eq!(got, x + y + cin, "{x}+{y}+{cin}");
                }
            }
        }
    }

    #[test]
    fn cla_adder_matches_ripple() {
        let ripple = generate::adder(5);
        let cla = generate::cla_adder(5);
        for x in 0u32..32 {
            for y in 0u32..32 {
                for cin in 0..2u32 {
                    let mut ins = vec![false; 11];
                    for b in 0..5 {
                        ins[b] = x >> b & 1 == 1;
                        ins[5 + b] = y >> b & 1 == 1;
                    }
                    ins[10] = cin == 1;
                    let vr = eval_bool(&ripple, &ins).unwrap();
                    let vc = eval_bool(&cla, &ins).unwrap();
                    let sum = |net: &rescue_netlist::Netlist, v: &[bool]| -> u32 {
                        outputs_of(net, v)
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| (b as u32) << i)
                            .sum()
                    };
                    assert_eq!(sum(&ripple, &vr), sum(&cla, &vc), "{x}+{y}+{cin}");
                    assert_eq!(sum(&cla, &vc), x + y + cin);
                }
            }
        }
    }

    #[test]
    fn multiplier_matches_arithmetic() {
        let m = generate::multiplier(4);
        for x in 0u32..16 {
            for y in 0u32..16 {
                let mut ins = vec![false; 8];
                for b in 0..4 {
                    ins[b] = x >> b & 1 == 1;
                    ins[4 + b] = y >> b & 1 == 1;
                }
                let v = eval_bool(&m, &ins).unwrap();
                let got: u32 = outputs_of(&m, &v)
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (b as u32) << i)
                    .sum();
                assert_eq!(got, x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn alu_ops() {
        let a = generate::alu(4);
        let run = |x: u32, y: u32, op: u32| -> u32 {
            let mut ins = vec![false; 10];
            for b in 0..4 {
                ins[b] = x >> b & 1 == 1;
                ins[4 + b] = y >> b & 1 == 1;
            }
            ins[8] = op & 1 == 1;
            ins[9] = op >> 1 & 1 == 1;
            let v = eval_bool(&a, &ins).unwrap();
            outputs_of(&a, &v)
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as u32) << i)
                .sum()
        };
        assert_eq!(run(5, 3, 0), 8); // add
        assert_eq!(run(5, 3, 1), 1); // and
        assert_eq!(run(5, 3, 2), 7); // or
        assert_eq!(run(5, 3, 3), 6); // xor
    }

    #[test]
    fn four_valued_x_propagation() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and(a, c);
        b.output("y", g);
        let n = b.finish();
        let v = eval(&n, &[Logic::X, Logic::Zero]).unwrap();
        assert_eq!(v[g.index()], Logic::Zero, "0 dominates X on AND");
        let v = eval(&n, &[Logic::X, Logic::One]).unwrap();
        assert_eq!(v[g.index()], Logic::X);
    }

    #[test]
    fn width_mismatch_error() {
        let c = generate::c17();
        assert!(matches!(
            eval_bool(&c, &[true; 3]),
            Err(SimError::InputWidthMismatch {
                expected: 5,
                found: 3
            })
        ));
        assert!(eval(&c, &[Logic::One; 6]).is_err());
    }

    #[test]
    fn dff_outputs_are_x_in_comb_eval() {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let q = b.dff(a);
        let y = b.buf(q);
        b.output("y", y);
        let n = b.finish();
        let v = eval(&n, &[Logic::One]).unwrap();
        assert_eq!(v[y.index()], Logic::X);
    }
}
