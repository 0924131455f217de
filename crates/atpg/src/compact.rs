//! Test-set compaction.
//!
//! Two classic techniques: *static* compaction merges compatible PODEM
//! cubes (don't-care overlap), and *reverse-order* compaction drops
//! patterns that detect no fault first. Shorter test sets mean shorter
//! tester time — the same economics that drives the RSN test-length
//! reduction work (paper Section III.E, \[30\], \[44\]).

use crate::podem::TestCube;
use rescue_faults::engine::{CampaignPlan, FaultScratch};
use rescue_faults::simulate::FaultSimulator;
use rescue_faults::Fault;
use rescue_netlist::Netlist;

/// Greedy static compaction: merges each cube into the first compatible
/// accumulated cube.
///
/// # Examples
///
/// ```
/// use rescue_atpg::compact::static_compaction;
/// use rescue_atpg::TestCube;
///
/// let mut a = TestCube::unconstrained(2);
/// // two disjoint single-bit cubes merge into one pattern
/// # // build cubes via PODEM in real flows; here use unconstrained
/// let cubes = vec![TestCube::unconstrained(2), TestCube::unconstrained(2)];
/// let merged = static_compaction(&cubes);
/// assert_eq!(merged.len(), 1);
/// # let _ = &mut a;
/// ```
pub fn static_compaction(cubes: &[TestCube]) -> Vec<TestCube> {
    let mut merged: Vec<TestCube> = Vec::new();
    for cube in cubes {
        if let Some(slot) = merged.iter_mut().find(|m| m.compatible(cube)) {
            *slot = slot.merge(cube);
        } else {
            merged.push(cube.clone());
        }
    }
    merged
}

/// Reverse-order fault-simulation compaction: walks the pattern list
/// backwards and keeps only patterns that detect at least one
/// still-undetected fault.
///
/// Returns the kept patterns in their original relative order.
pub fn reverse_order_compaction(
    netlist: &Netlist,
    faults: &[Fault],
    patterns: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let sim = FaultSimulator::new(netlist);
    // Plan/scratch built once for the whole walk; each pattern is a
    // 1-live-lane word through the packed observability path.
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, faults);
    let mut scratch = FaultScratch::new(c.len());
    let mut detected = vec![false; faults.len()];
    let mut keep = vec![false; patterns.len()];
    // Shared ragged-tail guard: only lane 0 carries a pattern, the other
    // 63 are dead and must not count as detections.
    let live = rescue_sim::parallel::live_mask(1);
    for (pi, pattern) in patterns.iter().enumerate().rev() {
        let words = rescue_sim::parallel::pack_patterns(std::slice::from_ref(pattern));
        let golden = sim.golden(&words);
        scratch.load_golden(&golden);
        let mut useful = false;
        for (fi, &fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            if plan
                .detect_packed(c, &golden, &mut scratch, fault)
                .expect("fault root missing from campaign plan")
                & live
                != 0
            {
                detected[fi] = true;
                useful = true;
            }
        }
        keep[pi] = useful;
    }
    patterns
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(p, _)| p.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemOutcome};
    use rescue_faults::universe;
    use rescue_netlist::generate;

    #[test]
    fn static_compaction_reduces_podem_cubes() {
        let c = generate::c17();
        let podem = Podem::new(&c);
        let faults = universe::stuck_at_universe(&c);
        let cubes: Vec<TestCube> = faults
            .iter()
            .filter_map(|&f| match podem.generate(&c, f) {
                PodemOutcome::Test(cube) => Some(cube),
                _ => None,
            })
            .collect();
        let merged = static_compaction(&cubes);
        assert!(
            merged.len() < cubes.len(),
            "{} < {}",
            merged.len(),
            cubes.len()
        );
        // Coverage preserved after filling.
        let patterns: Vec<Vec<bool>> = merged.iter().map(|m| m.fill_with(false)).collect();
        let sim = FaultSimulator::new(&c);
        assert_eq!(sim.campaign(&faults, &patterns).coverage(), 1.0);
    }

    #[test]
    fn reverse_order_preserves_coverage() {
        let net = generate::random_logic(8, 80, 4, 21);
        let faults = universe::stuck_at_universe(&net);
        let sim = FaultSimulator::new(&net);
        // 256 random patterns, highly redundant.
        let mut s = 5u64;
        let patterns: Vec<Vec<bool>> = (0..256)
            .map(|_| {
                (0..8)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let before = sim.campaign(&faults, &patterns).coverage();
        let compacted = reverse_order_compaction(&net, &faults, &patterns);
        let after = sim.campaign(&faults, &compacted).coverage();
        assert_eq!(before, after, "compaction must not lose coverage");
        assert!(compacted.len() < patterns.len() / 2, "{}", compacted.len());
    }

    #[test]
    fn empty_inputs() {
        assert!(static_compaction(&[]).is_empty());
        let c = generate::c17();
        assert!(reverse_order_compaction(&c, &[], &[]).is_empty());
    }
}
