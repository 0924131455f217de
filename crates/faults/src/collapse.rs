//! Structural fault collapsing (equivalence rules).
//!
//! Classic gate-local equivalences shrink the stuck-at universe by
//! 40–60 % before simulation — directly reducing campaign cost, which is
//! the motivation the paper gives for smarter fault-list handling
//! (Sections III.A and III.D).
//!
//! Rules implemented (all textbook):
//!
//! * AND: any input `sa0` ≡ output `sa0`; NAND: input `sa0` ≡ output `sa1`.
//! * OR: any input `sa1` ≡ output `sa1`; NOR: input `sa1` ≡ output `sa0`.
//! * BUF: input faults ≡ output faults (we model via driver's output).
//! * NOT: driver output `sa0` ≡ inverter output `sa1` and vice versa when
//!   the inverter is the only load (single-fanout wire equivalence).
//!
//! Every fault of the design owns a dense `u32` slot, and slot order is
//! [`Fault`] order: outputs by (gate, kind), then pins by (gate, pin,
//! kind). [`collapse_with`] therefore lists the representatives by
//! marking their slots in a bitmap and decoding the set bits in order,
//! with no sort. Faults outside the design (a gate index past the end or
//! a pin past the gate's arity) have no slot: no rule touches them, they
//! stay their own representatives, and they are merged into the list
//! from a sorted side list that is normally empty.

use crate::model::{Fault, FaultKind, FaultSite};
use rescue_netlist::{GateId, GateKind, Netlist};
use rescue_telemetry::span;

/// Result of collapsing: representative faults plus a map from every
/// original fault to its representative.
///
/// The map is a dense slot arena instead of a `HashMap<Fault, Fault>`:
/// every possible fault of the design gets a fixed `u32` slot (output
/// slots first, then one slot per gate-input pin, times the four fault
/// kinds), and `rep[slot]` holds the representative's slot or `u32::MAX`
/// for uncollapsed faults. At a million gates this turns the dominant
/// setup cost — millions of SipHash probes — into two array reads per
/// lookup, and the arena is contiguous for the cache.
#[derive(Debug, Clone)]
pub struct CollapsedUniverse {
    representatives: Vec<Fault>,
    /// `rep[slot(fault)]` = representative's slot, `u32::MAX` when the
    /// fault is its own representative (or was never collapsed).
    rep: Vec<u32>,
    /// Pin-slot CSR: `pin_base[g]` is the first pin slot of gate `g`.
    pin_base: Vec<u32>,
    /// Owning gate of each pin slot (inverse of `pin_base`), for O(1)
    /// slot→fault decoding.
    pin_owner: Vec<u32>,
    /// Gate count of the design the universe was collapsed against.
    n: usize,
    original_len: usize,
}

#[inline]
fn kind_code(kind: FaultKind) -> usize {
    match kind {
        FaultKind::StuckAt0 => 0,
        FaultKind::StuckAt1 => 1,
        FaultKind::SlowToRise => 2,
        FaultKind::SlowToFall => 3,
    }
}

#[inline]
fn kind_decode(code: usize) -> FaultKind {
    match code {
        0 => FaultKind::StuckAt0,
        1 => FaultKind::StuckAt1,
        2 => FaultKind::SlowToRise,
        _ => FaultKind::SlowToFall,
    }
}

/// Slot of an *output* fault (reps produced by the rules are always
/// output faults).
#[inline]
fn output_slot(gate: usize, kind: FaultKind) -> u32 {
    (4 * gate + kind_code(kind)) as u32
}

/// Dense slot of `fault` under the pin-slot CSR `pin_base` (length
/// `n + 1`), or `None` for faults outside the design (wrong gate index
/// or pin arity) — those are never collapsed.
#[inline]
fn slot_in(pin_base: &[u32], fault: Fault) -> Option<usize> {
    let n = pin_base.len() - 1;
    let k = kind_code(fault.kind());
    match fault.site() {
        FaultSite::Output(g) => {
            let gi = g.index();
            (gi < n).then_some(4 * gi + k)
        }
        FaultSite::Pin { gate, pin } => {
            let gi = gate.index();
            if gi >= n {
                return None;
            }
            let base = pin_base[gi] as usize;
            let arity = pin_base[gi + 1] as usize - base;
            (pin < arity).then_some(4 * (n + base + pin) + k)
        }
    }
}

impl CollapsedUniverse {
    /// The representative (collapsed) fault list.
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// The representative of `fault` (itself if it was not collapsed).
    pub fn representative(&self, fault: Fault) -> Fault {
        match self.slot_of(fault) {
            Some(slot) => match self.rep[slot] {
                u32::MAX => fault,
                r => self.fault_of(r),
            },
            None => fault,
        }
    }

    /// Size of the original universe.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Collapse ratio `collapsed / original` (lower is better).
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            return 1.0;
        }
        self.representatives.len() as f64 / self.original_len as f64
    }

    /// Dense slot of `fault`, or `None` for faults outside the design.
    #[inline]
    fn slot_of(&self, fault: Fault) -> Option<usize> {
        slot_in(&self.pin_base, fault)
    }

    /// Inverse of [`CollapsedUniverse::slot_of`].
    #[inline]
    fn fault_of(&self, slot: u32) -> Fault {
        let s = slot as usize;
        let kind = kind_decode(s & 3);
        let x = s >> 2;
        if x < self.n {
            Fault::new(FaultSite::Output(GateId(x)), kind)
        } else {
            let pidx = x - self.n;
            let gate = self.pin_owner[pidx] as usize;
            let pin = pidx - self.pin_base[gate] as usize;
            Fault::new(
                FaultSite::Pin {
                    gate: GateId(gate),
                    pin,
                },
                kind,
            )
        }
    }

    /// The faults of `faults` that represent themselves, sorted and
    /// deduplicated. Slot order is `Fault` order, so a bitmap over the
    /// slots, scanned in order, sorts the in-design faults; the (normally
    /// empty) faults outside the design are sorted apart and merged in.
    fn sorted_representatives(&self, faults: &[Fault]) -> Vec<Fault> {
        let mut present = vec![0u64; self.rep.len().div_ceil(64)];
        let mut outside = Vec::new();
        for &f in faults {
            match self.slot_of(f) {
                Some(s) if self.rep[s] == u32::MAX => present[s / 64] |= 1 << (s % 64),
                Some(_) => {}
                None => outside.push(f),
            }
        }
        outside.sort_unstable();
        outside.dedup();
        let inside: usize = present.iter().map(|w| w.count_ones() as usize).sum();
        let mut reps = Vec::with_capacity(inside + outside.len());
        let mut outside = outside.into_iter().peekable();
        for (i, &word) in present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let f = self.fault_of((64 * i) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                while let Some(o) = outside.next_if(|o| *o < f) {
                    reps.push(o);
                }
                reps.push(f);
            }
        }
        reps.extend(outside);
        reps
    }
}

/// Serial fallback below this many faults: thread setup costs more than
/// the rule pass itself on small universes.
const PARALLEL_COLLAPSE_MIN: usize = 1 << 14;

/// Controlling-value input faults fold into the output fault.
#[inline]
fn controlling_fold(gate: GateKind, v: FaultKind) -> Option<FaultKind> {
    match (gate, v) {
        (GateKind::And, FaultKind::StuckAt0) => Some(FaultKind::StuckAt0),
        (GateKind::Nand, FaultKind::StuckAt0) => Some(FaultKind::StuckAt1),
        (GateKind::Or, FaultKind::StuckAt1) => Some(FaultKind::StuckAt1),
        (GateKind::Nor, FaultKind::StuckAt1) => Some(FaultKind::StuckAt0),
        _ => None,
    }
}

/// How a driver-output stuck value folds *through* its single load onto
/// the load's output: controlling values on AND/NAND/OR/NOR, any stuck
/// value through BUF, inverted through NOT.
#[inline]
fn through_fold(gate: GateKind, v: FaultKind) -> Option<FaultKind> {
    controlling_fold(gate, v).or(match (gate, v) {
        (GateKind::Buf, FaultKind::StuckAt0 | FaultKind::StuckAt1) => Some(v),
        (GateKind::Not, FaultKind::StuckAt0) => Some(FaultKind::StuckAt1),
        (GateKind::Not, FaultKind::StuckAt1) => Some(FaultKind::StuckAt0),
        _ => None,
    })
}

/// Dense structural metadata the equivalence rules consult, built in one
/// O(V+E) pass (no per-gate `Vec` fanout lists).
struct WireMeta<'a> {
    /// Pin-slot CSR (length `n + 1`).
    pin_base: &'a [u32],
    /// Number of load *pins* each gate output drives (DFF D-pins count,
    /// matching the per-pin-edge semantics of `Netlist::fanout`).
    fan_count: &'a [u32],
    /// The consuming gate — only meaningful where `fan_count == 1`.
    single_load: &'a [u32],
    /// Wire equivalences are only exact when the driver's value is seen
    /// nowhere but on that wire: a PO driver is observed directly, so its
    /// output fault is NOT equivalent to a fault past the wire.
    is_po_driver: &'a [bool],
}

/// Applies the gate-local rules to one fault, returning
/// `(slot, representative slot)` when it collapses, and `None` for a
/// fault outside the design. Pure per-fault, so fault chunks shard
/// across workers with no coordination.
fn collapse_pair(netlist: &Netlist, m: &WireMeta<'_>, fault: Fault) -> Option<(u32, u32)> {
    let slot = slot_in(m.pin_base, fault)? as u32;
    let kind = fault.kind();
    match fault.site() {
        FaultSite::Pin { gate, pin } => {
            let g = netlist.gate(gate);
            if let Some(folded) = controlling_fold(g.kind(), kind) {
                return Some((slot, output_slot(gate.index(), folded)));
            }
            // Single-fanout wire: a pin fault on the only load of a driver
            // is equivalent to the driver's output fault.
            let d = g.inputs()[pin].index();
            if m.fan_count[d] == 1 && !m.is_po_driver[d] {
                return Some((slot, output_slot(d, kind)));
            }
            None
        }
        FaultSite::Output(d) => {
            // Through-gate wire equivalence: when `d` drives exactly one
            // pin of one load (and no PO), a stuck value on `d` is
            // indistinguishable from the same stuck value on that pin —
            // and it folds on through to the load's output fault. The
            // chain-resolution pass below composes further.
            let di = d.index();
            if m.fan_count[di] != 1 || m.is_po_driver[di] {
                return None;
            }
            let h = m.single_load[di] as usize;
            through_fold(netlist.gate(GateId(h)).kind(), kind)
                .map(|folded| (slot, output_slot(h, folded)))
        }
    }
}

/// Collapses a stuck-at universe using gate-local equivalence rules.
///
/// # Examples
///
/// ```
/// use rescue_faults::{collapse, universe};
/// use rescue_netlist::generate;
///
/// let c17 = generate::c17();
/// let all = universe::stuck_at_universe(&c17);
/// let collapsed = collapse::collapse(&c17, &all);
/// assert!(collapsed.ratio() < 0.8, "NAND-heavy c17 collapses well");
/// ```
pub fn collapse(netlist: &Netlist, faults: &[Fault]) -> CollapsedUniverse {
    collapse_with(netlist, faults, 1)
}

/// [`collapse`] with the rule pass sharded over `workers` OS threads.
///
/// The rules are gate-local, so fault chunks are independent; each worker
/// emits `(slot, representative)` pairs which are scattered serially in
/// chunk order — identical to serial insertion order — before the chain
/// fixpoint runs. The result is bit-identical to `workers = 1` for any
/// worker count. Small universes fall back to the serial path. The
/// representative list comes out sorted and deduplicated from a scan of
/// a slot bitmap (see the module docs), not from a sort.
pub fn collapse_with(netlist: &Netlist, faults: &[Fault], workers: usize) -> CollapsedUniverse {
    let _span = span!("plan.collapse", faults = faults.len());
    let n = netlist.len();
    let mut pin_base = vec![0u32; n + 1];
    for (id, g) in netlist.iter() {
        pin_base[id.index() + 1] = g.inputs().len() as u32;
    }
    for i in 0..n {
        pin_base[i + 1] += pin_base[i];
    }
    let total_pins = pin_base[n] as usize;
    let mut pin_owner = vec![0u32; total_pins];
    let mut fan_count = vec![0u32; n];
    let mut single_load = vec![u32::MAX; n];
    for (id, g) in netlist.iter() {
        let base = pin_base[id.index()] as usize;
        for (pin, d) in g.inputs().iter().enumerate() {
            pin_owner[base + pin] = id.index() as u32;
            fan_count[d.index()] += 1;
            single_load[d.index()] = id.index() as u32;
        }
    }
    let mut is_po_driver = vec![false; n];
    for &(_, g) in netlist.primary_outputs() {
        is_po_driver[g.index()] = true;
    }
    let meta = WireMeta {
        pin_base: &pin_base,
        fan_count: &fan_count,
        single_load: &single_load,
        is_po_driver: &is_po_driver,
    };

    let w = workers.clamp(1, faults.len().max(1));
    let pair_chunks: Vec<Vec<(u32, u32)>> = if w == 1 || faults.len() < PARALLEL_COLLAPSE_MIN {
        vec![faults
            .iter()
            .filter_map(|&f| collapse_pair(netlist, &meta, f))
            .collect()]
    } else {
        let chunk_len = faults.len().div_ceil(w).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = faults
                .chunks(chunk_len)
                .map(|chunk| {
                    let meta = &meta;
                    s.spawn(move || {
                        chunk
                            .iter()
                            .filter_map(|&f| collapse_pair(netlist, meta, f))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Scatter in chunk order == fault order, so duplicate faults resolve
    // exactly as serial insertion did (last write wins).
    let mut rep = vec![u32::MAX; 4 * (n + total_pins)];
    for chunk in &pair_chunks {
        for &(slot, r) in chunk {
            rep[slot as usize] = r;
        }
    }
    // Resolve chains (pin -> output -> ...) — one level is enough here but
    // iterate to a fixpoint for safety. Writing the resolved slot back
    // path-compresses later chases.
    for i in 0..rep.len() {
        let mut r = rep[i];
        if r == u32::MAX {
            continue;
        }
        loop {
            let next = rep[r as usize];
            if next == u32::MAX || next == r {
                break;
            }
            r = next;
        }
        rep[i] = r;
    }

    let mut universe = CollapsedUniverse {
        representatives: Vec::new(),
        rep,
        pin_base,
        pin_owner,
        n,
        original_len: faults.len(),
    };
    universe.representatives = universe.sorted_representatives(faults);
    universe
}

/// Dominance collapsing on top of equivalence collapsing.
///
/// A fault `f` *dominates* `g` when every test for `g` also detects `f`;
/// `f` can then be dropped from a test-generation fault list (textbook
/// rules: an AND gate's output `sa1` dominates each input `sa1`, dual
/// for OR/NAND/NOR). The result is a smaller target list with the same
/// test-set guarantee — reported coverage over it is a lower bound.
///
/// # Examples
///
/// ```
/// use rescue_faults::{collapse, universe};
/// use rescue_netlist::generate;
///
/// let c17 = generate::c17();
/// let all = universe::stuck_at_universe(&c17);
/// let equiv = collapse::collapse(&c17, &all);
/// let dom = collapse::dominance_collapse(&c17, equiv.representatives());
/// assert!(dom.len() < equiv.representatives().len());
/// ```
pub fn dominance_collapse(netlist: &Netlist, faults: &[Fault]) -> Vec<Fault> {
    use std::collections::HashSet;
    let present: HashSet<Fault> = faults.iter().copied().collect();
    let mut dropped: HashSet<Fault> = HashSet::new();
    for (id, g) in netlist.iter() {
        // The dominating output fault may be dropped when at least one
        // dominated input-pin fault remains in the list.
        let (out_kind, in_kind) = match g.kind() {
            GateKind::And => (FaultKind::StuckAt1, FaultKind::StuckAt1),
            GateKind::Nand => (FaultKind::StuckAt0, FaultKind::StuckAt1),
            GateKind::Or => (FaultKind::StuckAt0, FaultKind::StuckAt0),
            GateKind::Nor => (FaultKind::StuckAt1, FaultKind::StuckAt0),
            _ => continue,
        };
        let out_fault = Fault::new(FaultSite::Output(id), out_kind);
        if !present.contains(&out_fault) {
            continue;
        }
        let has_dominated_input = (0..g.inputs().len()).any(|pin| {
            let f = Fault::new(FaultSite::Pin { gate: id, pin }, in_kind);
            present.contains(&f) && !dropped.contains(&f)
        });
        if has_dominated_input {
            dropped.insert(out_fault);
        }
    }
    faults
        .iter()
        .copied()
        .filter(|f| !dropped.contains(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use rescue_netlist::{generate, NetlistBuilder};

    #[test]
    fn dominance_preserves_test_guarantee() {
        // Any pattern set with 100% coverage of the dominance-collapsed
        // list also has 100% coverage of the faults it dropped.
        use crate::simulate::FaultSimulator;
        let net = generate::c17();
        let all = universe::stuck_at_universe(&net);
        let equiv = collapse(&net, &all);
        let dom = dominance_collapse(&net, equiv.representatives());
        assert!(dom.len() < equiv.representatives().len());
        let dropped: Vec<Fault> = equiv
            .representatives()
            .iter()
            .copied()
            .filter(|f| !dom.contains(f))
            .collect();
        assert!(!dropped.is_empty());
        // Exhaustive patterns detect everything; check the implication
        // per-pattern-prefix: find a minimal set covering `dom`, verify
        // it covers `dropped` too.
        let sim = FaultSimulator::new(&net);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let dom_report = sim.campaign(&net, &dom, &patterns);
        // Keep only patterns that were first-detectors for dom faults.
        let used: std::collections::BTreeSet<usize> = dom_report
            .first_detection()
            .iter()
            .flatten()
            .copied()
            .collect();
        let subset: Vec<Vec<bool>> = used.iter().map(|&i| patterns[i].clone()).collect();
        assert_eq!(sim.campaign(&net, &dom, &subset).coverage(), 1.0);
        assert_eq!(
            sim.campaign(&net, &dropped, &subset).coverage(),
            1.0,
            "a test set complete for the collapsed list missed a dropped fault"
        );
    }

    #[test]
    fn and_gate_collapse() {
        let mut b = NetlistBuilder::new("and");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.and(x, y);
        b.output("z", g);
        let n = b.finish();
        let all = universe::stuck_at_universe(&n);
        let c = collapse(&n, &all);
        // in0/sa0 and in1/sa0 fold into out/sa0.
        let pin0_sa0 = Fault::stuck_at(FaultSite::Pin { gate: g, pin: 0 }, false);
        assert_eq!(
            c.representative(pin0_sa0),
            Fault::stuck_at(FaultSite::Output(g), false)
        );
        assert!(c.representatives().len() < all.len());
    }

    #[test]
    fn collapse_preserves_detectability() {
        // Every collapsed-away fault must be detected by exactly the same
        // patterns as its representative.
        use crate::simulate::FaultSimulator;
        use rescue_sim::parallel::pack_patterns;
        let c17 = generate::c17();
        let all = universe::stuck_at_universe(&c17);
        let coll = collapse(&c17, &all);
        let sim = FaultSimulator::new(&c17);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let words = pack_patterns(&patterns[..32]);
        let golden = sim.golden(&words);
        for &f in &all {
            let rep = coll.representative(f);
            if rep == f {
                continue;
            }
            let m1 = sim.detection_mask(&c17, &words, &golden, f);
            let m2 = sim.detection_mask(&c17, &words, &golden, rep);
            assert_eq!(m1, m2, "fault {f} vs representative {rep}");
        }
    }

    #[test]
    fn ratio_bounds() {
        let c17 = generate::c17();
        let all = universe::stuck_at_universe(&c17);
        let c = collapse(&c17, &all);
        assert!(c.ratio() > 0.0 && c.ratio() <= 1.0);
        assert_eq!(c.original_len(), all.len());
    }

    #[test]
    fn faults_outside_the_design_are_never_collapsed() {
        let mut b = NetlistBuilder::new("two_loads");
        let x = b.input("x");
        let y = b.input("y");
        let g2 = b.and(x, y);
        let g3 = b.or(x, y);
        b.output("a", g2);
        b.output("o", g3);
        let n = b.finish();
        let pin = |gate, pin, value| Fault::stuck_at(FaultSite::Pin { gate, pin }, value);
        let outside = [
            Fault::stuck_at(FaultSite::Output(GateId(99)), false),
            pin(g2, 2, true),
            pin(g2, 2, false),
        ];
        let mut faults = universe::stuck_at_universe(&n);
        faults.extend(outside);
        let c = collapse(&n, &faults);
        for f in outside {
            assert_eq!(c.representative(f), f, "{f} has no slot to collapse into");
        }
        // An unchecked pin 2 of g2 would land in g3's pin-0 slot.
        let g3_in0 = pin(g3, 0, false);
        assert_eq!(c.representative(g3_in0), g3_in0);
        let mut want: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| c.representative(f) == f)
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(c.representatives(), &want[..]);
    }

    #[test]
    fn empty_universe() {
        let c17 = generate::c17();
        let c = collapse(&c17, &[]);
        assert_eq!(c.ratio(), 1.0);
        assert!(c.representatives().is_empty());
    }
}
