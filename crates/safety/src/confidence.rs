//! Tool-confidence cross-validation.
//!
//! "Our proposed vendor-independent methodology helps improving the
//! confidence in fault analysis tools by combining the strengths of
//! ATPGs, Formal methods and Fault Injection simulation to automatically
//! verify tools and detect any errors in their fault classification"
//! (paper Section III.D, \[20\], \[48\], \[50\]).
//!
//! Three independent engines give a verdict per fault:
//!
//! * **ATPG** (PODEM) — testable (with a witness pattern) / untestable;
//! * **FI** — detected / undetected under a given stimulus;
//! * **Formal** (structural + constant reasoning) — safe / potentially
//!   dangerous.
//!
//! Consistency rules: FI-detected ⇒ ATPG-testable and formal-dangerous;
//! ATPG-untestable ⇒ FI-undetected. Violations indicate a tool bug.

use rescue_atpg::podem::{Podem, PodemOutcome};
use rescue_atpg::untestable::{identify, UntestableReason};
use rescue_faults::{simulate::FaultSimulator, Fault};
use rescue_netlist::Netlist;

/// Verdicts of the three engines for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolVerdicts {
    /// ATPG: `Some(true)` testable, `Some(false)` untestable, `None`
    /// aborted.
    pub atpg_testable: Option<bool>,
    /// FI: detected under the stimulus.
    pub fi_detected: bool,
    /// Formal: proven safe (unobservable/unactivatable).
    pub formally_safe: bool,
}

/// One inconsistency between engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    /// The fault with conflicting verdicts.
    pub fault: Fault,
    /// The verdicts.
    pub verdicts: ToolVerdicts,
    /// Which rule was violated.
    pub rule: &'static str,
}

/// Cross-check result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheck {
    verdicts: Vec<(Fault, ToolVerdicts)>,
    inconsistencies: Vec<Inconsistency>,
}

impl CrossCheck {
    /// Per-fault verdicts.
    pub fn verdicts(&self) -> &[(Fault, ToolVerdicts)] {
        &self.verdicts
    }

    /// All detected rule violations (empty = tools agree).
    pub fn inconsistencies(&self) -> &[Inconsistency] {
        &self.inconsistencies
    }

    /// Agreement matrix counts:
    /// `(fi_detected & atpg_testable, fi_undetected & atpg_testable,
    ///   fi_undetected & atpg_untestable, aborted)`.
    pub fn agreement_matrix(&self) -> (usize, usize, usize, usize) {
        let mut m = (0, 0, 0, 0);
        for (_, v) in &self.verdicts {
            match (v.fi_detected, v.atpg_testable) {
                (true, Some(true)) => m.0 += 1,
                (false, Some(true)) => m.1 += 1,
                (false, Some(false)) => m.2 += 1,
                (_, None) => m.3 += 1,
                (true, Some(false)) => m.3 += 1, // recorded as inconsistency
            }
        }
        m
    }
}

/// Runs the three engines over `faults` and cross-checks their verdicts.
///
/// `patterns` is the FI stimulus. Combinational designs only (the paper
/// flow applies it block-wise).
///
/// # Panics
///
/// Panics on sequential designs or width mismatches.
pub fn cross_check(netlist: &Netlist, faults: &[Fault], patterns: &[Vec<bool>]) -> CrossCheck {
    assert!(!netlist.is_sequential(), "block-level cross-check only");
    let podem = Podem::new(netlist);
    let fi = FaultSimulator::new(netlist);
    let fi_report = fi.campaign(faults, patterns);
    let formal = identify(netlist, faults, false);
    let formally_safe: Vec<bool> = faults
        .iter()
        .map(|f| {
            formal.untestable().iter().any(|(uf, r)| {
                uf == f
                    && matches!(
                        r,
                        UntestableReason::Unobservable | UntestableReason::ConstantLine
                    )
            })
        })
        .collect();

    let mut verdicts = Vec::with_capacity(faults.len());
    let mut inconsistencies = Vec::new();
    for (fi_idx, &fault) in faults.iter().enumerate() {
        let atpg_testable = match podem.generate(netlist, fault) {
            PodemOutcome::Test(_) => Some(true),
            PodemOutcome::Untestable => Some(false),
            PodemOutcome::Aborted => None,
        };
        let v = ToolVerdicts {
            atpg_testable,
            fi_detected: fi_report.first_detection()[fi_idx].is_some(),
            formally_safe: formally_safe[fi_idx],
        };
        if v.fi_detected && v.atpg_testable == Some(false) {
            inconsistencies.push(Inconsistency {
                fault,
                verdicts: v,
                rule: "FI-detected fault must be ATPG-testable",
            });
        }
        if v.fi_detected && v.formally_safe {
            inconsistencies.push(Inconsistency {
                fault,
                verdicts: v,
                rule: "FI-detected fault cannot be formally safe",
            });
        }
        verdicts.push((fault, v));
    }
    CrossCheck {
        verdicts,
        inconsistencies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_faults::universe;
    use rescue_netlist::generate;

    fn exhaustive(n: usize) -> Vec<Vec<bool>> {
        (0..(1u32 << n))
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn healthy_tools_are_consistent() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let check = cross_check(&c, &faults, &exhaustive(5));
        assert!(
            check.inconsistencies().is_empty(),
            "{:?}",
            check.inconsistencies()
        );
        let (dd, ud, uu, ab) = check.agreement_matrix();
        assert_eq!(dd, faults.len(), "exhaustive stimulus detects everything");
        assert_eq!(ud + uu + ab, 0);
    }

    #[test]
    fn weak_stimulus_shows_in_matrix_not_inconsistencies() {
        let net = generate::random_logic(8, 60, 3, 31);
        let faults = universe::stuck_at_universe(&net);
        // Just 2 patterns: FI misses many testable faults — that is not
        // an inconsistency, merely low coverage.
        let check = cross_check(&net, &faults, &exhaustive(8)[..2]);
        assert!(check.inconsistencies().is_empty());
        let (_, undet_testable, _, _) = check.agreement_matrix();
        assert!(undet_testable > 0);
    }

    #[test]
    fn redundant_design_agrees_on_untestable() {
        let mut b = rescue_netlist::NetlistBuilder::new("red");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.and(a, x);
        let y = b.or(a, g);
        b.output("y", y);
        let n = b.finish();
        let faults = universe::stuck_at_universe(&n);
        let check = cross_check(&n, &faults, &exhaustive(2));
        assert!(check.inconsistencies().is_empty());
        let (_, _, both_untestable, _) = check.agreement_matrix();
        assert!(both_untestable > 0, "the redundant fault shows up");
    }
}
