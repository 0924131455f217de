//! PODEM deterministic test generation.
//!
//! A textbook PODEM (Goel 1981) over the two-circuit (good/faulty)
//! three-valued model, with SCOAP-guided backtrace. Proving a fault has
//! no test (search exhaustion) identifies it as combinationally
//! *untestable* — the mechanism behind the untestable-fault
//! identification flow of paper Section III.A.

use crate::error::AtpgError;
use crate::scoap::Scoap;
use rescue_faults::{Fault, FaultSite};
use rescue_netlist::{Fanout, GateId, GateKind, Levelization, Netlist};
use rescue_sim::logic::eval_gate;
use rescue_sim::Logic;

/// A partial input assignment produced by PODEM (`None` = don't-care).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TestCube {
    assignments: Vec<Option<bool>>,
}

impl TestCube {
    /// Creates an all-don't-care cube of the given width.
    pub fn unconstrained(width: usize) -> Self {
        TestCube {
            assignments: vec![None; width],
        }
    }

    /// The per-input assignments.
    pub fn assignments(&self) -> &[Option<bool>] {
        &self.assignments
    }

    /// Number of primary inputs covered.
    pub fn width(&self) -> usize {
        self.assignments.len()
    }

    /// Number of specified (non-X) bits.
    pub fn specified(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }

    /// Fills don't-cares with a constant.
    pub fn fill_with(&self, fill: bool) -> Vec<bool> {
        self.assignments.iter().map(|a| a.unwrap_or(fill)).collect()
    }

    /// Fills don't-cares with random bits from `rng`.
    pub fn fill_random<R: rand::Rng>(&self, rng: &mut R) -> Vec<bool> {
        self.assignments
            .iter()
            .map(|a| a.unwrap_or_else(|| rng.gen()))
            .collect()
    }

    /// Two cubes are compatible when no bit is specified differently.
    pub fn compatible(&self, other: &TestCube) -> bool {
        self.assignments
            .iter()
            .zip(&other.assignments)
            .all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// Merges two compatible cubes (union of specified bits).
    ///
    /// # Panics
    ///
    /// Panics if the cubes are incompatible or widths differ.
    pub fn merge(&self, other: &TestCube) -> TestCube {
        assert!(self.compatible(other), "merging incompatible cubes");
        TestCube {
            assignments: self
                .assignments
                .iter()
                .zip(&other.assignments)
                .map(|(a, b)| a.or(*b))
                .collect(),
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// Search space exhausted: the fault is combinationally untestable.
    Untestable,
    /// Backtrack limit hit before a decision was reached.
    Aborted,
}

/// PODEM engine for one combinational netlist.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct Podem {
    order: Vec<GateId>,
    fanout: Fanout,
    po_drivers: Vec<bool>,
    scoap: Scoap,
    backtrack_limit: usize,
}

impl Podem {
    /// Prepares an engine with the default backtrack limit (10 000).
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_backtrack_limit(netlist, 10_000)
    }

    /// Prepares an engine with an explicit backtrack limit.
    pub fn with_backtrack_limit(netlist: &Netlist, backtrack_limit: usize) -> Self {
        let mut po_drivers = vec![false; netlist.len()];
        for (_, g) in netlist.primary_outputs() {
            po_drivers[g.index()] = true;
        }
        let (levels, fanout) = Levelization::with_fanout(netlist);
        Podem {
            order: levels.order().to_vec(),
            fanout,
            po_drivers,
            scoap: Scoap::analyze(netlist),
            backtrack_limit,
        }
    }

    /// Validates that `netlist` is combinational.
    ///
    /// # Errors
    ///
    /// [`AtpgError::SequentialDesign`] when the design has flip-flops.
    pub fn check_combinational(netlist: &Netlist) -> Result<(), AtpgError> {
        if netlist.is_sequential() {
            return Err(AtpgError::SequentialDesign {
                dffs: netlist.dffs().len(),
            });
        }
        Ok(())
    }

    /// Generates a test for a stuck-at `fault`, or proves it untestable.
    ///
    /// Sequential designs: DFF outputs are treated as uncontrollable `X`,
    /// so faults needing state control come back `Untestable` — use the
    /// SBST flow (`rescue-cpu`) for those.
    ///
    /// # Panics
    ///
    /// Panics if the fault kind is not stuck-at.
    pub fn generate(&self, netlist: &Netlist, fault: Fault) -> PodemOutcome {
        let stuck_value = fault
            .kind()
            .stuck_value()
            .expect("PODEM handles stuck-at faults");
        let pis = netlist.primary_inputs();
        let mut assign: Vec<Option<bool>> = vec![None; pis.len()];
        // decision stack: (pi position, value, already flipped)
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;

        // The "site line" whose good value must complement the stuck value.
        let site_line = match fault.site() {
            FaultSite::Output(g) => g,
            FaultSite::Pin { gate, pin } => netlist.gate(gate).inputs()[pin],
        };

        loop {
            let (good, faulty) = self.imply(netlist, &assign, fault, stuck_value);
            if test_found(netlist, &good, &faulty) {
                return PodemOutcome::Test(TestCube {
                    assignments: assign,
                });
            }
            // Definite dead ends (implied values only ever refine, so a
            // known-bad value cannot be fixed by further assignments):
            let activation_dead = good[site_line.index()] == Logic::from_bool(stuck_value);
            let owner_masked = match fault.site() {
                FaultSite::Pin { gate, .. } => {
                    let (gv, fv) = (good[gate.index()], faulty[gate.index()]);
                    !gv.is_unknown() && !fv.is_unknown() && gv == fv
                }
                FaultSite::Output(_) => false,
            };
            let activated =
                good[site_line.index()] == Logic::from_bool(!stuck_value) && !owner_masked;
            let origin = fault.site().gate();
            let no_x_path = activated && !self.x_path_exists(netlist, &good, &faulty, origin);
            let next = if activation_dead || owner_masked || no_x_path {
                None
            } else {
                let obj = self.objective(netlist, &good, &faulty, fault, stuck_value);
                obj.and_then(|(sig, val)| self.backtrace(netlist, &good, sig, val))
                    // Heuristic dead end without a definite failure: fall
                    // back to the next unassigned input (keeps the search
                    // complete — worst case exhaustive over the PIs).
                    .or_else(|| {
                        assign
                            .iter()
                            .position(|a| a.is_none())
                            .map(|pi| (pi, false))
                    })
            };
            match next {
                Some((pi_pos, v)) => {
                    assign[pi_pos] = Some(v);
                    decisions.push((pi_pos, v, false));
                }
                None => {
                    // Backtrack.
                    let mut flipped = false;
                    while let Some((pi, v, was_flipped)) = decisions.pop() {
                        assign[pi] = None;
                        if !was_flipped {
                            assign[pi] = Some(!v);
                            decisions.push((pi, !v, true));
                            flipped = true;
                            backtracks += 1;
                            break;
                        }
                    }
                    if !flipped {
                        return PodemOutcome::Untestable;
                    }
                    if backtracks > self.backtrack_limit {
                        return PodemOutcome::Aborted;
                    }
                }
            }
        }
    }

    /// X-path check: can any fault effect (a signal whose good and faulty
    /// values are known and differ) still reach a primary output through
    /// gates whose outputs are not yet proven equal in both circuits?
    ///
    /// A `false` answer is a definite propagation failure (implied values
    /// only refine, never change).
    fn x_path_exists(
        &self,
        netlist: &Netlist,
        good: &[Logic],
        faulty: &[Logic],
        origin: GateId,
    ) -> bool {
        let n = netlist.len();
        let blocked =
            |i: usize| !good[i].is_unknown() && !faulty[i].is_unknown() && good[i] == faulty[i];
        let mut visited = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        // Seed with the fault origin (the D, or the gate where a D can
        // still materialize); everything downstream is discovered by BFS.
        if blocked(origin.index()) {
            return false;
        }
        if self.po_drivers[origin.index()] {
            return true;
        }
        visited[origin.index()] = true;
        stack.push(origin.index());
        while let Some(i) = stack.pop() {
            for s in self.fanout.of(GateId(i)) {
                let si = s.index();
                if visited[si] || netlist.gate(s).kind().is_sequential() || blocked(si) {
                    continue;
                }
                if self.po_drivers[si] {
                    return true;
                }
                visited[si] = true;
                stack.push(si);
            }
        }
        false
    }

    /// Three-valued good/faulty simulation under the current assignment.
    fn imply(
        &self,
        netlist: &Netlist,
        assign: &[Option<bool>],
        fault: Fault,
        stuck_value: bool,
    ) -> (Vec<Logic>, Vec<Logic>) {
        let n = netlist.len();
        let mut good = vec![Logic::X; n];
        let mut faulty = vec![Logic::X; n];
        for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
            let v = assign[i].map(Logic::from_bool).unwrap_or(Logic::X);
            good[pi.index()] = v;
            faulty[pi.index()] = v;
        }
        let stuck = Logic::from_bool(stuck_value);
        if let FaultSite::Output(site) = fault.site() {
            if netlist.gate(site).kind() == GateKind::Input {
                faulty[site.index()] = stuck;
            }
        }
        let mut gbuf: Vec<Logic> = Vec::with_capacity(4);
        let mut fbuf: Vec<Logic> = Vec::with_capacity(4);
        for &id in &self.order {
            let g = netlist.gate(id);
            match g.kind() {
                GateKind::Input => {}
                GateKind::Dff => {
                    good[id.index()] = Logic::X;
                    faulty[id.index()] = Logic::X;
                }
                kind => {
                    gbuf.clear();
                    fbuf.clear();
                    gbuf.extend(g.inputs().iter().map(|&p| good[p.index()]));
                    fbuf.extend(g.inputs().iter().map(|&p| faulty[p.index()]));
                    if let FaultSite::Pin { gate, pin } = fault.site() {
                        if gate == id {
                            fbuf[pin] = stuck;
                        }
                    }
                    good[id.index()] = eval_gate(kind, &gbuf);
                    faulty[id.index()] = eval_gate(kind, &fbuf);
                    if let FaultSite::Output(site) = fault.site() {
                        if site == id {
                            faulty[id.index()] = stuck;
                        }
                    }
                }
            }
        }
        (good, faulty)
    }

    /// Next objective: activate the fault, then extend the D-frontier.
    fn objective(
        &self,
        netlist: &Netlist,
        good: &[Logic],
        faulty: &[Logic],
        fault: Fault,
        stuck_value: bool,
    ) -> Option<(GateId, bool)> {
        // The "site line" whose good value must be the complement of the
        // stuck value for the fault to be activated.
        let site_line = match fault.site() {
            FaultSite::Output(g) => g,
            FaultSite::Pin { gate, pin } => netlist.gate(gate).inputs()[pin],
        };
        match good[site_line.index()] {
            Logic::X | Logic::Z => return Some((site_line, !stuck_value)),
            v => {
                if v == Logic::from_bool(stuck_value) {
                    return None; // activation impossible under this assignment
                }
            }
        }
        // For pin faults the D is born inside the owning gate: drive its
        // output to a known good value that differs from the faulty one.
        if let FaultSite::Pin { gate, pin } = fault.site() {
            let (gv, fv) = (good[gate.index()], faulty[gate.index()]);
            if gv.is_unknown() || fv.is_unknown() {
                let g = netlist.gate(gate);
                let pick = g
                    .inputs()
                    .iter()
                    .position(|&p| good[p.index()].is_unknown())?;
                let driver = g.inputs()[pick];
                let val = match g.kind() {
                    GateKind::And | GateKind::Nand => true,
                    GateKind::Or | GateKind::Nor => false,
                    GateKind::Mux => match pin {
                        // Faulty data pin: aim the select at it.
                        1 if pick == 0 => false,
                        2 if pick == 0 => true,
                        // Faulty select: make the data inputs differ.
                        0 => {
                            let other = if pick == 1 {
                                g.inputs()[2]
                            } else {
                                g.inputs()[1]
                            };
                            match good[other.index()].to_bool() {
                                Some(v) => !v,
                                None => false,
                            }
                        }
                        _ => false,
                    },
                    _ => false,
                };
                return Some((driver, val));
            }
            if gv == fv {
                return None; // effect masked inside the gate
            }
        }
        // Fault activated: pick the D-frontier gate closest to an output.
        let mut best: Option<(GateId, u32)> = None;
        for (id, g) in netlist.iter() {
            let kind = g.kind();
            if kind == GateKind::Input || kind == GateKind::Dff || kind.is_source() {
                continue;
            }
            let out_unknown = good[id.index()].is_unknown() || faulty[id.index()].is_unknown();
            if !out_unknown {
                continue;
            }
            let has_d = g.inputs().iter().any(|&p| {
                let (gv, fv) = (good[p.index()], faulty[p.index()]);
                !gv.is_unknown() && !fv.is_unknown() && gv != fv
            });
            if has_d {
                let co = self.scoap.co(id);
                if best.map(|(_, c)| co < c).unwrap_or(true) {
                    best = Some((id, co));
                }
            }
        }
        let (frontier, _) = best?;
        let g = netlist.gate(frontier);
        // Set one unassigned input to the non-controlling value.
        let pick = g
            .inputs()
            .iter()
            .position(|&p| good[p.index()].is_unknown())?;
        let driver = g.inputs()[pick];
        let val = match g.kind() {
            GateKind::And | GateKind::Nand => true,
            GateKind::Or | GateKind::Nor => false,
            GateKind::Xor | GateKind::Xnor | GateKind::Buf | GateKind::Not => false,
            GateKind::Mux => {
                // Route the D through the mux: if a data pin carries the D,
                // aim the select at it; otherwise give the data pins a try.
                let d_pin = g.inputs().iter().position(|&p| {
                    let (gv, fv) = (good[p.index()], faulty[p.index()]);
                    !gv.is_unknown() && !fv.is_unknown() && gv != fv
                });
                match (d_pin, pick) {
                    (Some(1), 0) => false, // select data input a
                    (Some(2), 0) => true,  // select data input b
                    _ => false,
                }
            }
            _ => false,
        };
        Some((driver, val))
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(
        &self,
        netlist: &Netlist,
        good: &[Logic],
        mut signal: GateId,
        mut value: bool,
    ) -> Option<(usize, bool)> {
        loop {
            let g = netlist.gate(signal);
            match g.kind() {
                GateKind::Input => {
                    let pos = netlist
                        .primary_inputs()
                        .iter()
                        .position(|&p| p == signal)
                        .expect("input gate in PI list");
                    return Some((pos, value));
                }
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff => return None,
                GateKind::Buf => signal = g.inputs()[0],
                GateKind::Not => {
                    signal = g.inputs()[0];
                    value = !value;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let inverted = matches!(g.kind(), GateKind::Nand | GateKind::Nor);
                    let v_eff = value ^ inverted;
                    let and_like = matches!(g.kind(), GateKind::And | GateKind::Nand);
                    // controlling value: AND-like 0, OR-like 1
                    let need_all = if and_like { v_eff } else { !v_eff };
                    let xs: Vec<GateId> = g
                        .inputs()
                        .iter()
                        .copied()
                        .filter(|p| good[p.index()].is_unknown())
                        .collect();
                    if xs.is_empty() {
                        return None;
                    }
                    let target = v_eff;
                    let chosen = if need_all {
                        // all inputs must take the non-controlling value:
                        // go through the hardest one first
                        *xs.iter()
                            .max_by_key(|&&p| self.scoap.cc(p, target))
                            .expect("non-empty")
                    } else {
                        // one controlling input suffices: pick the easiest
                        *xs.iter()
                            .min_by_key(|&&p| self.scoap.cc(p, target))
                            .expect("non-empty")
                    };
                    signal = chosen;
                    value = target;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let xs: Vec<GateId> = g
                        .inputs()
                        .iter()
                        .copied()
                        .filter(|p| good[p.index()].is_unknown())
                        .collect();
                    if xs.is_empty() {
                        return None;
                    }
                    // Parity of the known inputs (X treated as 0).
                    let known_parity = g
                        .inputs()
                        .iter()
                        .filter_map(|&p| good[p.index()].to_bool())
                        .fold(false, |a, b| a ^ b);
                    let invert = g.kind() == GateKind::Xnor;
                    let target = value ^ known_parity ^ invert;
                    signal = xs[0];
                    value = target;
                }
                GateKind::Mux => {
                    let sel = g.inputs()[0];
                    match good[sel.index()].to_bool() {
                        Some(s) => {
                            signal = if s { g.inputs()[2] } else { g.inputs()[1] };
                        }
                        None => {
                            signal = sel;
                            value = false;
                        }
                    }
                }
            }
        }
    }
}

/// `true` when a fault effect is visible at a primary output.
fn test_found(netlist: &Netlist, good: &[Logic], faulty: &[Logic]) -> bool {
    netlist.primary_outputs().iter().any(|(_, g)| {
        let (gv, fv) = (good[g.index()], faulty[g.index()]);
        !gv.is_unknown() && !fv.is_unknown() && gv != fv
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_faults::simulate::FaultSimulator;
    use rescue_faults::universe;
    use rescue_netlist::{generate, NetlistBuilder};

    fn verify_test(net: &Netlist, fault: Fault, cube: &TestCube) {
        let pattern = cube.fill_with(false);
        let sim = FaultSimulator::new(net);
        let words = rescue_sim::parallel::pack_patterns(std::slice::from_ref(&pattern));
        let golden = sim.golden(&words);
        let mask = sim.detection_mask(&golden, fault);
        assert_eq!(mask & 1, 1, "cube does not detect {fault}");
    }

    #[test]
    fn c17_all_faults_get_tests() {
        let c = generate::c17();
        let podem = Podem::new(&c);
        for f in universe::stuck_at_universe(&c) {
            match podem.generate(&c, f) {
                PodemOutcome::Test(cube) => verify_test(&c, f, &cube),
                other => panic!("{f}: {other:?}"),
            }
        }
    }

    #[test]
    fn redundant_fault_proven_untestable() {
        // y = a OR (a AND b): AND-output sa0 is redundant.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.and(a, x);
        let y = b.or(a, g);
        b.output("y", y);
        let n = b.finish();
        let podem = Podem::new(&n);
        let f = Fault::stuck_at(FaultSite::Output(g), false);
        assert_eq!(podem.generate(&n, f), PodemOutcome::Untestable);
        // ...but sa1 on the same gate is testable.
        let f1 = Fault::stuck_at(FaultSite::Output(g), true);
        match podem.generate(&n, f1) {
            PodemOutcome::Test(cube) => verify_test(&n, f1, &cube),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unobservable_fault_untestable() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let dead = b.not(a);
        let c = b.input("c");
        let dead2 = b.and(dead, c);
        let _ = dead2; // drives nothing
        let y = b.buf(a);
        b.output("y", y);
        let n = b.finish();
        let podem = Podem::new(&n);
        let f = Fault::stuck_at(FaultSite::Output(dead2), true);
        assert_eq!(podem.generate(&n, f), PodemOutcome::Untestable);
    }

    #[test]
    fn larger_circuits_close() {
        for seed in [3u64, 17, 99] {
            let n = generate::random_logic(8, 80, 4, seed);
            let podem = Podem::new(&n);
            let faults = universe::stuck_at_universe(&n);
            let mut tested = 0;
            let mut untestable = 0;
            for f in faults {
                match podem.generate(&n, f) {
                    PodemOutcome::Test(cube) => {
                        verify_test(&n, f, &cube);
                        tested += 1;
                    }
                    PodemOutcome::Untestable => untestable += 1,
                    PodemOutcome::Aborted => panic!("abort on small circuit"),
                }
            }
            assert!(tested > 0);
            // Random logic typically has some redundancy; no abort allowed.
            let _ = untestable;
        }
    }

    #[test]
    fn mux_and_xor_paths() {
        let mut b = NetlistBuilder::new("mx");
        let s = b.input("s");
        let p = b.input("p");
        let q = b.input("q");
        let m = b.mux(s, p, q);
        let r = b.input("r");
        let y = b.xor(m, r);
        b.output("y", y);
        let n = b.finish();
        let podem = Podem::new(&n);
        for f in universe::stuck_at_universe(&n) {
            match podem.generate(&n, f) {
                PodemOutcome::Test(cube) => verify_test(&n, f, &cube),
                other => panic!("{f}: {other:?}"),
            }
        }
    }

    #[test]
    fn adder_full_coverage() {
        let a = generate::adder(4);
        let podem = Podem::new(&a);
        let faults = universe::stuck_at_universe(&a);
        for f in &faults {
            match podem.generate(&a, *f) {
                PodemOutcome::Test(cube) => verify_test(&a, *f, &cube),
                other => panic!("{f}: {other:?}"),
            }
        }
    }

    #[test]
    fn cube_operations() {
        let mut a = TestCube::unconstrained(4);
        a.assignments = vec![Some(true), None, Some(false), None];
        let mut b = TestCube::unconstrained(4);
        b.assignments = vec![Some(true), Some(false), None, None];
        assert!(a.compatible(&b));
        let m = a.merge(&b);
        assert_eq!(
            m.assignments(),
            &[Some(true), Some(false), Some(false), None]
        );
        assert_eq!(m.specified(), 3);
        let mut c = TestCube::unconstrained(4);
        c.assignments = vec![Some(false), None, None, None];
        assert!(!a.compatible(&c));
        assert_eq!(a.fill_with(true), vec![true, true, false, true]);
        assert_eq!(a.width(), 4);
    }

    #[test]
    fn check_combinational_errors_on_seq() {
        let l = generate::lfsr(4, &[3, 2]);
        assert!(Podem::check_combinational(&l).is_err());
        assert!(Podem::check_combinational(&generate::c17()).is_ok());
    }
}
