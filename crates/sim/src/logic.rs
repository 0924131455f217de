//! Four-valued logic and gate evaluation kernels.

use rescue_netlist::GateKind;
use std::fmt;

/// IEEE-1164-style four-valued logic: `0`, `1`, unknown `X`, high-Z `Z`.
///
/// `Z` behaves as `X` when consumed by a gate input (there are no tristate
/// gates in the IR; `Z` exists for scan-chain and bus modelling in the RSN
/// crate).
///
/// # Examples
///
/// ```
/// use rescue_sim::Logic;
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(!Logic::Zero, Logic::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Logic {
    /// Logic low.
    #[default]
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Logic {
    /// Converts from a bool.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for the binary values, `None` for `X`/`Z`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// Returns `true` for `X` or `Z`.
    pub fn is_unknown(self) -> bool {
        matches!(self, Logic::X | Logic::Z)
    }

    /// Kleene AND.
    pub fn and(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Kleene OR.
    pub fn or(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Kleene XOR.
    pub fn xor(self, other: Logic) -> Logic {
        match (self.norm(), other.norm()) {
            (Logic::X, _) | (_, Logic::X) => Logic::X,
            (a, b) => Logic::from_bool(a != b),
        }
    }

    /// Kleene NOT.
    #[allow(clippy::should_implement_trait)] // `std::ops::Not` is also implemented
    pub fn not(self) -> Logic {
        match self.norm() {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    fn norm(self) -> Logic {
        if self == Logic::Z {
            Logic::X
        } else {
            self
        }
    }

    /// The character used in waveform dumps: `0`, `1`, `x`, `z`.
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Parses a waveform character (case-insensitive). Returns `None` for
    /// anything outside `01xXzZ`.
    pub fn from_char(c: char) -> Option<Logic> {
        Some(match c {
            '0' => Logic::Zero,
            '1' => Logic::One,
            'x' | 'X' => Logic::X,
            'z' | 'Z' => Logic::Z,
            _ => return None,
        })
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        self.and(rhs)
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        self.or(rhs)
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    fn bitxor(self, rhs: Logic) -> Logic {
        self.xor(rhs)
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        Logic::not(self)
    }
}

/// Evaluates one gate over four-valued inputs.
///
/// `Input`, `Dff` and constants are handled by the caller (they do not
/// depend on gate inputs in the combinational sense).
///
/// # Panics
///
/// Panics if called with `GateKind::Input` or `GateKind::Dff`.
pub fn eval_gate(kind: GateKind, ins: &[Logic]) -> Logic {
    match kind {
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And => ins.iter().copied().fold(Logic::One, Logic::and),
        GateKind::Nand => !ins.iter().copied().fold(Logic::One, Logic::and),
        GateKind::Or => ins.iter().copied().fold(Logic::Zero, Logic::or),
        GateKind::Nor => !ins.iter().copied().fold(Logic::Zero, Logic::or),
        GateKind::Xor => ins.iter().copied().fold(Logic::Zero, Logic::xor),
        GateKind::Xnor => !ins.iter().copied().fold(Logic::Zero, Logic::xor),
        GateKind::Mux => match ins[0].norm() {
            Logic::Zero => ins[1],
            Logic::One => ins[2],
            _ => {
                if ins[1] == ins[2] && !ins[1].is_unknown() {
                    ins[1]
                } else {
                    Logic::X
                }
            }
        },
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate called on non-combinational kind {kind}")
        }
    }
}

/// Evaluates one gate over two-valued inputs.
///
/// # Panics
///
/// Panics if called with `GateKind::Input` or `GateKind::Dff`.
pub fn eval_gate_bool(kind: GateKind, ins: &[bool]) -> bool {
    match kind {
        GateKind::Const0 => false,
        GateKind::Const1 => true,
        GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And => ins.iter().all(|&b| b),
        GateKind::Nand => !ins.iter().all(|&b| b),
        GateKind::Or => ins.iter().any(|&b| b),
        GateKind::Nor => !ins.iter().any(|&b| b),
        GateKind::Xor => ins.iter().fold(false, |a, &b| a ^ b),
        GateKind::Xnor => !ins.iter().fold(false, |a, &b| a ^ b),
        GateKind::Mux => {
            if ins[0] {
                ins[2]
            } else {
                ins[1]
            }
        }
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate_bool called on non-combinational kind {kind}")
        }
    }
}

/// Evaluates one gate over 64 packed patterns at once (bit `i` of each word
/// is pattern `i`).
///
/// # Panics
///
/// Panics if called with `GateKind::Input` or `GateKind::Dff`.
pub fn eval_gate_word(kind: GateKind, ins: &[u64]) -> u64 {
    match kind {
        GateKind::Const0 => 0,
        GateKind::Const1 => u64::MAX,
        GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And => ins.iter().fold(u64::MAX, |a, &b| a & b),
        GateKind::Nand => !ins.iter().fold(u64::MAX, |a, &b| a & b),
        GateKind::Or => ins.iter().fold(0, |a, &b| a | b),
        GateKind::Nor => !ins.iter().fold(0, |a, &b| a | b),
        GateKind::Xor => ins.iter().fold(0, |a, &b| a ^ b),
        GateKind::Xnor => !ins.iter().fold(0, |a, &b| a ^ b),
        GateKind::Mux => (!ins[0] & ins[1]) | (ins[0] & ins[2]),
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate_word called on non-combinational kind {kind}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kleene_tables() {
        use Logic::*;
        assert_eq!(Zero & X, Zero);
        assert_eq!(One & X, X);
        assert_eq!(One | X, One);
        assert_eq!(Zero | X, X);
        assert_eq!(X ^ One, X);
        assert_eq!(!X, X);
        assert_eq!(!Z, X);
        assert_eq!(Z & One, X);
        assert_eq!(Z & Zero, Zero);
    }

    #[test]
    fn char_round_trip() {
        for v in [Logic::Zero, Logic::One, Logic::X, Logic::Z] {
            assert_eq!(Logic::from_char(v.to_char()), Some(v));
        }
        assert_eq!(Logic::from_char('q'), None);
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Logic::from_bool(true), Logic::One);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::X.to_bool(), None);
        assert!(Logic::Z.is_unknown());
        let l: Logic = true.into();
        assert_eq!(l, Logic::One);
    }

    #[test]
    fn mux_eval() {
        assert!(!eval_gate_bool(GateKind::Mux, &[false, false, true]));
        assert!(eval_gate_bool(GateKind::Mux, &[true, false, true]));
        // X select with agreeing data resolves
        assert_eq!(
            eval_gate(GateKind::Mux, &[Logic::X, Logic::One, Logic::One]),
            Logic::One
        );
        assert_eq!(
            eval_gate(GateKind::Mux, &[Logic::X, Logic::Zero, Logic::One]),
            Logic::X
        );
    }

    #[test]
    #[should_panic(expected = "non-combinational")]
    fn eval_rejects_input_kind() {
        eval_gate(GateKind::Input, &[]);
    }
}
