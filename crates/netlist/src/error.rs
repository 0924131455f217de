//! Error type for netlist construction and validation.

use crate::gate::GateId;
use std::error::Error;
use std::fmt;

/// Errors produced while building, validating or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references an input id that does not exist.
    DanglingInput {
        /// The gate holding the bad reference.
        gate: GateId,
        /// The non-existent id it references.
        missing: GateId,
    },
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        /// Offending gate.
        gate: GateId,
        /// Number of inputs required (`None` means "at least two").
        expected: Option<usize>,
        /// Number of inputs present.
        found: usize,
    },
    /// A combinational cycle was detected (cycles must be broken by DFFs).
    CombinationalLoop {
        /// One gate on the cycle.
        gate: GateId,
    },
    /// A primary input names a gate that does not exist or is not an
    /// `Input` gate.
    UnknownInput {
        /// The offending primary-input id.
        gate: GateId,
    },
    /// A primary output name refers to an unknown gate.
    UnknownOutput {
        /// The offending output name.
        name: String,
    },
    /// Duplicate port name.
    DuplicateName {
        /// The name that is already taken.
        name: String,
    },
    /// Text-format parse failure.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The netlist has too many nets for the `u32` index arenas used by
    /// the compiled representation and campaign plans.
    TooLarge {
        /// Number of gates/nets in the offending netlist.
        gates: usize,
        /// The maximum number of nets the arenas can index.
        limit: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingInput { gate, missing } => {
                write!(f, "gate {gate} references non-existent gate {missing}")
            }
            NetlistError::BadArity {
                gate,
                expected,
                found,
            } => match expected {
                Some(n) => write!(f, "gate {gate} needs exactly {n} inputs, found {found}"),
                None => write!(f, "gate {gate} needs at least 2 inputs, found {found}"),
            },
            NetlistError::CombinationalLoop { gate } => {
                write!(f, "combinational loop through gate {gate}")
            }
            NetlistError::UnknownInput { gate } => {
                write!(f, "primary input {gate} names no input gate")
            }
            NetlistError::UnknownOutput { name } => {
                write!(f, "output `{name}` refers to an unknown gate")
            }
            NetlistError::DuplicateName { name } => {
                write!(f, "port name `{name}` is already in use")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::TooLarge { gates, limit } => {
                write!(
                    f,
                    "netlist has {gates} nets, exceeding the u32 index limit of {limit}"
                )
            }
        }
    }
}

/// Maximum number of nets addressable by the `u32` index arenas.
///
/// `u32::MAX` itself is reserved as an "unplanned" sentinel by campaign
/// plans, so the last usable index is `u32::MAX - 1`.
pub const MAX_NETS: usize = u32::MAX as usize;

/// Checks that `gates` nets fit the `u32` index arenas used by compiled
/// netlists and campaign plans.
///
/// # Errors
///
/// Returns [`NetlistError::TooLarge`] when `gates >= MAX_NETS` so
/// oversized designs fail loudly instead of silently truncating indices.
///
/// ```
/// use rescue_netlist::error::{ensure_u32_indexable, MAX_NETS};
/// assert!(ensure_u32_indexable(1_000_000).is_ok());
/// assert!(ensure_u32_indexable(MAX_NETS).is_err());
/// ```
pub fn ensure_u32_indexable(gates: usize) -> Result<(), NetlistError> {
    if gates >= MAX_NETS {
        Err(NetlistError::TooLarge {
            gates,
            limit: MAX_NETS,
        })
    } else {
        Ok(())
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetlistError::BadArity {
            gate: GateId(4),
            expected: Some(1),
            found: 3,
        };
        assert!(e.to_string().contains("g4"));
        let e = NetlistError::BadArity {
            gate: GateId(4),
            expected: None,
            found: 1,
        };
        assert!(e.to_string().contains("at least 2"));
        let e = NetlistError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NetlistError>();
    }

    #[test]
    fn u32_capacity_boundary() {
        assert!(ensure_u32_indexable(0).is_ok());
        assert!(ensure_u32_indexable(MAX_NETS - 1).is_ok());
        let err = ensure_u32_indexable(MAX_NETS).unwrap_err();
        assert_eq!(
            err,
            NetlistError::TooLarge {
                gates: MAX_NETS,
                limit: MAX_NETS,
            }
        );
        assert!(err.to_string().contains("u32 index limit"));
        assert!(ensure_u32_indexable(usize::MAX).is_err());
    }
}
