//! Error type for fault-list and campaign operations.

use std::error::Error;
use std::fmt;

/// Errors produced by fault-list generation and campaigns.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A pattern has the wrong input width.
    PatternWidthMismatch {
        /// Width the netlist expects.
        expected: usize,
        /// Width supplied.
        found: usize,
    },
    /// A sampling parameter is out of range.
    BadSamplingParameter {
        /// Which parameter (e.g. `"error_margin"`).
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault site was queried against a [`crate::engine::CampaignPlan`]
    /// (or [`crate::trace::TracePlan`]) built from a fault list that did
    /// not contain it.
    UnplannedSite {
        /// Gate index of the offending fault site.
        gate: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::PatternWidthMismatch { expected, found } => {
                write!(f, "pattern width {found} does not match {expected} inputs")
            }
            FaultError::BadSamplingParameter { parameter, value } => {
                write!(f, "sampling parameter `{parameter}` out of range: {value}")
            }
            FaultError::UnplannedSite { gate } => {
                write!(f, "fault site at gate {gate} is not in this campaign plan")
            }
        }
    }
}

impl Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_trait() {
        let e = FaultError::BadSamplingParameter {
            parameter: "error_margin",
            value: 2.0,
        };
        assert!(e.to_string().contains("error_margin"));
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<FaultError>();
    }
}
