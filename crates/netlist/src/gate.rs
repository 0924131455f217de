//! Gate primitives: [`GateId`], [`GateKind`] and the [`Gate`] view.

use std::fmt;

/// Index of a gate inside a [`crate::Netlist`].
///
/// A `GateId` doubles as the identifier of the *net driven by that gate*:
/// every gate has exactly one output net, so "signal" and "gate" coincide.
///
/// # Examples
///
/// ```
/// use rescue_netlist::GateId;
/// let id = GateId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "g3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub usize);

impl GateId {
    /// Returns the raw vector index of this gate.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<usize> for GateId {
    fn from(i: usize) -> Self {
        GateId(i)
    }
}

/// The functional type of a gate.
///
/// All gates are single-output. `Mux` uses input order `[sel, a, b]` and
/// selects `a` when `sel == 0`, `b` when `sel == 1`. `Dff` holds state: its
/// single input is the `D` pin and its output is `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input (no gate inputs).
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Identity buffer.
    Buf,
    /// Inverter.
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (parity).
    Xor,
    /// N-input XNOR (inverted parity).
    Xnor,
    /// 2:1 multiplexer, inputs `[sel, a, b]`.
    Mux,
    /// D flip-flop; input `[d]`, output is the registered value `q`.
    Dff,
}

impl GateKind {
    /// Returns `true` for the stateful flip-flop kind.
    ///
    /// ```
    /// use rescue_netlist::GateKind;
    /// assert!(GateKind::Dff.is_sequential());
    /// assert!(!GateKind::And.is_sequential());
    /// ```
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Returns `true` for primary inputs and constants (gates with no
    /// structural predecessors).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// The exact number of inputs this kind requires, or `None` when the
    /// kind is variadic (2 or more inputs).
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Buf | GateKind::Not | GateKind::Dff => Some(1),
            GateKind::Mux => Some(3),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => None,
        }
    }

    /// A short lowercase mnemonic used by the text format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
            GateKind::Dff => "dff",
        }
    }

    /// A stable single-byte code for this kind, used by content hashing
    /// and the compiled-artifact wire format.
    ///
    /// The mapping is frozen: changing any value invalidates persisted
    /// `rescue.netlist.v1` hashes and cached compiled artifacts, so new
    /// kinds must only ever append codes.
    pub fn wire_code(self) -> u8 {
        match self {
            GateKind::Input => 0,
            GateKind::Const0 => 1,
            GateKind::Const1 => 2,
            GateKind::Buf => 3,
            GateKind::Not => 4,
            GateKind::And => 5,
            GateKind::Nand => 6,
            GateKind::Or => 7,
            GateKind::Nor => 8,
            GateKind::Xor => 9,
            GateKind::Xnor => 10,
            GateKind::Mux => 11,
            GateKind::Dff => 12,
        }
    }

    /// Inverse of [`GateKind::wire_code`]; `None` for unknown codes.
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => GateKind::Input,
            1 => GateKind::Const0,
            2 => GateKind::Const1,
            3 => GateKind::Buf,
            4 => GateKind::Not,
            5 => GateKind::And,
            6 => GateKind::Nand,
            7 => GateKind::Or,
            8 => GateKind::Nor,
            9 => GateKind::Xor,
            10 => GateKind::Xnor,
            11 => GateKind::Mux,
            12 => GateKind::Dff,
            _ => return None,
        })
    }

    /// Parses a mnemonic produced by [`GateKind::mnemonic`].
    ///
    /// Returns `None` for unknown names.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "input" => GateKind::Input,
            "const0" => GateKind::Const0,
            "const1" => GateKind::Const1,
            "buf" => GateKind::Buf,
            "not" => GateKind::Not,
            "and" => GateKind::And,
            "nand" => GateKind::Nand,
            "or" => GateKind::Or,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "mux" => GateKind::Mux,
            "dff" => GateKind::Dff,
            _ => return None,
        })
    }

    /// All gate kinds, useful for exhaustive property tests.
    pub fn all() -> &'static [GateKind] {
        &[
            GateKind::Input,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Dff,
        ]
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One gate of a [`crate::Netlist`]: its kind and the gates driving its
/// inputs, a `Copy` view of one row of the netlist's pin array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate<'a> {
    pub(crate) kind: GateKind,
    pub(crate) inputs: &'a [GateId],
}

impl<'a> Gate<'a> {
    /// The functional kind of this gate.
    pub fn kind(self) -> GateKind {
        self.kind
    }

    /// The driving gates, in pin order.
    pub fn inputs(self) -> &'a [GateId] {
        self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip() {
        for &k in GateKind::all() {
            assert_eq!(GateKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(GateKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn arity_rules() {
        assert_eq!(GateKind::Input.fixed_arity(), Some(0));
        assert_eq!(GateKind::Not.fixed_arity(), Some(1));
        assert_eq!(GateKind::Mux.fixed_arity(), Some(3));
        assert_eq!(GateKind::And.fixed_arity(), None);
    }

    #[test]
    fn source_and_sequential_flags() {
        assert!(GateKind::Input.is_source());
        assert!(GateKind::Const1.is_source());
        assert!(!GateKind::Dff.is_source());
        assert!(GateKind::Dff.is_sequential());
    }

    #[test]
    fn gate_id_display_and_from() {
        let id: GateId = 7usize.into();
        assert_eq!(id.to_string(), "g7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn gate_accessors() {
        let g = Gate {
            kind: GateKind::And,
            inputs: &[GateId(0), GateId(1)],
        };
        assert_eq!(g.kind(), GateKind::And);
        assert_eq!(g.inputs(), &[GateId(0), GateId(1)]);
    }
}
