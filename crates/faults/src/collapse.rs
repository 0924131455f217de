//! Structural fault collapsing (equivalence rules).
//!
//! Classic gate-local equivalences shrink the stuck-at universe before
//! simulation — directly reducing campaign cost, which is the motivation
//! the paper gives for smarter fault-list handling (Sections III.A and
//! III.D). How far depends on the design: c17's NAND fabric keeps under
//! 80 % of its faults, the million-gate ladder rung 70 %.
//!
//! Rules implemented (all textbook, stuck-at faults only):
//!
//! * AND: any input `sa0` ≡ output `sa0`; NAND: input `sa0` ≡ output `sa1`.
//! * OR: any input `sa1` ≡ output `sa1`; NOR: input `sa1` ≡ output `sa0`.
//! * Single-fanout wire: an input-pin fault on the only load of a driver
//!   that drives no primary output ≡ the driver's output fault.
//! * Through-gate: such a driver's output fault folds on through its load
//!   where the load's rules allow (controlling values, any value through
//!   BUF, inverted through NOT) onto the load's output fault.
//!
//! Every stuck-at fault of the design owns a dense `u32` slot, two per
//! site, and slot order is [`Fault`] order: outputs by (gate, kind), then
//! pins by (gate, pin, kind). A rule always folds into an output fault.
//! Delay-kind faults (no rule applies to them) and faults outside the
//! design (a gate index past the end or a pin past the gate's arity)
//! have no slot: they stay their own representatives and sit in a sorted
//! side list that a stuck-at universe leaves empty.

use crate::model::{Fault, FaultKind, FaultSite};
use rescue_netlist::{GateId, GateKind, Netlist};
use rescue_telemetry::span;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Slot entry of a stuck-at fault the collapsed list does not hold.
const UNLISTED: u32 = u32::MAX;
/// Slot entry of a listed fault that represents itself.
const SELF: u32 = u32::MAX - 1;

/// Result of collapsing: every fault's representative, the count of
/// representatives, and the sorted representative list on demand.
///
/// The map is one `u32` per stuck-at slot (see the module docs), not a
/// `HashMap<Fault, Fault>`: a listed fault's entry is the slot of the
/// output fault it folds into, or `SELF`, and an unlisted fault's entry
/// is `UNLISTED`. Nothing is stored per fault of the list, so a lookup
/// is one slot computation and one array read, and the map takes
/// 8 bytes per site of the design.
#[derive(Debug, Clone)]
pub struct CollapsedUniverse {
    /// Per stuck-at slot: the representative's slot (always an output
    /// slot, chains resolved), `SELF` or `UNLISTED`.
    rep: Vec<u32>,
    /// Pin-slot CSR, the netlist's pin offsets: `pin_base[g]` is the
    /// first pin site of gate `g`.
    pin_base: Vec<u32>,
    /// Listed faults with no slot (delay kinds, faults outside the
    /// design), sorted and deduplicated.
    unslotted: Vec<Fault>,
    /// Distinct representatives among the listed faults.
    representatives_len: usize,
    original_len: usize,
    /// The representative list, decoded on first call of
    /// [`CollapsedUniverse::representatives`].
    representatives: OnceLock<Vec<Fault>>,
}

/// Slot of the stuck-at output fault `(gate, code)`.
#[inline]
fn output_slot(gate: usize, code: u8) -> u32 {
    (2 * gate + usize::from(code)) as u32
}

/// The output fault in output slot `slot`.
#[inline]
fn output_fault(slot: u32) -> Fault {
    let kind = FaultKind::from_code(u64::from(slot & 1));
    Fault::new(FaultSite::Output(GateId(slot as usize >> 1)), kind)
}

/// Dense slot of `fault` under the pin-slot CSR `pin_base` (length
/// `n + 1`), or `None` for a delay-kind fault or a fault outside the
/// design (wrong gate index or pin arity): none of those is collapsed.
#[inline]
fn slot_in(pin_base: &[u32], fault: Fault) -> Option<usize> {
    let n = pin_base.len() - 1;
    let code = fault.kind().code();
    if code > 1 {
        return None;
    }
    let site = match fault.site() {
        FaultSite::Output(g) if g.index() < n => g.index(),
        FaultSite::Pin { gate, pin } if gate.index() < n => {
            let base = pin_base[gate.index()] as usize;
            if pin >= pin_base[gate.index() + 1] as usize - base {
                return None;
            }
            n + base + pin
        }
        _ => return None,
    };
    Some(2 * site + usize::from(code))
}

impl CollapsedUniverse {
    /// The representative (collapsed) fault list, sorted and
    /// deduplicated: the listed faults that represent themselves. Decoded
    /// from the slot map on the first call, in slot order (see the module
    /// docs), with the side list merged in.
    pub fn representatives(&self) -> &[Fault] {
        self.representatives
            .get_or_init(|| self.decode_representatives())
    }

    /// The representative of `fault` (itself if it was not collapsed).
    pub fn representative(&self, fault: Fault) -> Fault {
        self.class_of(fault).map_or(fault, |(_, rep)| rep)
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
        self.representatives_len as f64 / self.original_len as f64
    }

    /// `fault`'s equivalence class: the slot of its representative and
    /// the representative itself, or `None` for a fault with no slot
    /// (never collapsed). Lets the campaign's walk list tell classes apart
    /// on a `u32`. A fault whose entry is `SELF` or `UNLISTED` represents
    /// itself; every other representative is an output fault, so no
    /// class decodes a pin.
    #[inline]
    pub(crate) fn class_of(&self, fault: Fault) -> Option<(u32, Fault)> {
        let slot = slot_in(&self.pin_base, fault)?;
        Some(match self.rep[slot] {
            r if r >= SELF => (slot as u32, fault),
            r => (r, output_fault(r)),
        })
    }

    /// The `SELF` slots decoded in slot order, pins by a running cursor
    /// over `pin_base`, merged with the sorted side list.
    fn decode_representatives(&self) -> Vec<Fault> {
        let n = self.pin_base.len() - 1;
        let mut reps = Vec::with_capacity(self.representatives_len);
        let mut side = self.unslotted.iter().copied().peekable();
        let mut gate = 0;
        for (slot, _) in self.rep.iter().enumerate().filter(|(_, &r)| r == SELF) {
            let kind = FaultKind::from_code(slot as u64 & 1);
            let site = slot >> 1;
            let f = if site < n {
                Fault::new(FaultSite::Output(GateId(site)), kind)
            } else {
                let pin = site - n;
                while self.pin_base[gate + 1] as usize <= pin {
                    gate += 1;
                }
                let pin = pin - self.pin_base[gate] as usize;
                let site = FaultSite::Pin {
                    gate: GateId(gate),
                    pin,
                };
                Fault::new(site, kind)
            };
            while let Some(o) = side.next_if(|o| *o < f) {
                reps.push(o);
            }
            reps.push(f);
        }
        reps.extend(side);
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

/// `sole_load` entry of a gate that drives no pin.
const NO_LOAD: u32 = u32::MAX;
/// `sole_load` entry of a gate that drives two or more pins or a primary
/// output.
const MANY_LOADS: u32 = u32::MAX - 1;

/// Per gate output: the gate owning the only pin it drives, when it
/// drives exactly one pin (DFF `D` pins count, matching the per-pin-edge
/// semantics of `Netlist::fanout`) and no primary output; `NO_LOAD` or
/// `MANY_LOADS` otherwise. Wire equivalences are only exact when the
/// driver's value is seen nowhere but on that wire: a PO driver is
/// observed directly, so its output fault is NOT equivalent to a fault
/// past the wire. One O(V+E) pass, no per-gate `Vec` fanout lists.
fn sole_loads(netlist: &Netlist) -> Vec<u32> {
    let mut sole = vec![NO_LOAD; netlist.len()];
    for (id, g) in netlist.iter() {
        for d in g.inputs() {
            let s = &mut sole[d.index()];
            *s = if *s == NO_LOAD {
                id.index() as u32
            } else {
                MANY_LOADS
            };
        }
    }
    for &(_, g) in netlist.primary_outputs() {
        sole[g.index()] = MANY_LOADS;
    }
    sole
}

/// The gate-local rules for one stuck-at fault inside the design: the
/// slot of the output fault it folds into, or `SELF`. Pure per fault, so
/// fault chunks shard across workers with no coordination, and
/// duplicates of a fault compute the same entry.
fn rule_entry(netlist: &Netlist, sole_load: &[u32], fault: Fault) -> u32 {
    let kind = fault.kind();
    let sole = |d: usize| (sole_load[d] < MANY_LOADS).then_some(sole_load[d] as usize);
    match fault.site() {
        FaultSite::Pin { gate, pin } => {
            let g = netlist.gate(gate);
            if let Some(folded) = controlling_fold(g.kind(), kind) {
                return output_slot(gate.index(), folded.code());
            }
            // Single-fanout wire: a pin fault on the only load of a driver
            // is equivalent to the driver's output fault.
            let d = g.inputs()[pin].index();
            if sole(d).is_some() {
                output_slot(d, kind.code())
            } else {
                SELF
            }
        }
        FaultSite::Output(d) => {
            // Through-gate wire equivalence: when `d` drives exactly one
            // pin of one load (and no PO), a stuck value on `d` is
            // indistinguishable from the same stuck value on that pin —
            // and it folds on through to the load's output fault. The
            // chain-resolution pass below composes further.
            sole(d.index())
                .and_then(|h| {
                    through_fold(netlist.gate(GateId(h)).kind(), kind)
                        .map(|folded| output_slot(h, folded.code()))
                })
                .unwrap_or(SELF)
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
/// The rules are gate-local and each fault writes only its own slot
/// (duplicates write equal entries), so the workers store into one
/// shared slot array with relaxed atomic stores, and the result is
/// identical to `workers = 1` for any worker count. Small universes fall
/// back to the serial path. One serial pass then resolves chains
/// (pin → output → output …) and counts the representatives, which is
/// all [`CollapsedUniverse::ratio`] reads; the sorted representative
/// list is decoded only when asked for.
///
/// # Panics
///
/// Panics when the design's gate outputs and input pins number `2^31 - 1`
/// or more (two `u32` slots each).
pub fn collapse_with(netlist: &Netlist, faults: &[Fault], workers: usize) -> CollapsedUniverse {
    let _span = span!("plan.collapse", faults = faults.len());
    let pin_base = netlist.pin_offsets().to_vec();
    let sole_load = sole_loads(netlist);
    let slots = 2 * (netlist.len() + netlist.pins().len());
    assert!(slots < SELF as usize, "{slots} fault slots overflow u32");
    let rep: Vec<AtomicU32> = (0..slots).map(|_| AtomicU32::new(UNLISTED)).collect();
    // Stores each slotted fault's entry; returns the faults with no slot.
    let mark = |chunk: &[Fault]| -> Vec<Fault> {
        let mut unslotted = Vec::new();
        for &f in chunk {
            match slot_in(&pin_base, f) {
                Some(slot) => {
                    rep[slot].store(rule_entry(netlist, &sole_load, f), Ordering::Relaxed)
                }
                None => unslotted.push(f),
            }
        }
        unslotted
    };
    let w = workers.clamp(1, faults.len().max(1));
    let mut unslotted = if w == 1 || faults.len() < PARALLEL_COLLAPSE_MIN {
        mark(faults)
    } else {
        let chunk_len = faults.len().div_ceil(w);
        std::thread::scope(|s| {
            let handles: Vec<_> = faults
                .chunks(chunk_len)
                .map(|chunk| {
                    let mark = &mark;
                    s.spawn(move || mark(chunk))
                })
                .collect();
            let mut unslotted = Vec::new();
            for h in handles {
                unslotted.extend(h.join().expect("collapse worker panicked"));
            }
            unslotted
        })
    };
    unslotted.sort_unstable();
    unslotted.dedup();
    let mut rep: Vec<u32> = rep.into_iter().map(AtomicU32::into_inner).collect();

    // Resolve chains (pin -> output -> ...) and count the faults that
    // represent themselves. A rule folds only into an output slot, whose
    // entry is itself a rule target, `SELF` or `UNLISTED`; writing the
    // resolved slot back path-compresses later chases.
    let mut representatives_len = unslotted.len();
    for i in 0..rep.len() {
        let mut r = rep[i];
        if r >= SELF {
            representatives_len += usize::from(r == SELF);
            continue;
        }
        loop {
            let next = rep[r as usize];
            if next >= SELF || next == r {
                break;
            }
            r = next;
        }
        rep[i] = r;
    }

    CollapsedUniverse {
        rep,
        pin_base,
        unslotted,
        representatives_len,
        original_len: faults.len(),
        representatives: OnceLock::new(),
    }
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
        let dom_report = sim.campaign(&dom, &patterns);
        // Keep only patterns that were first-detectors for dom faults.
        let used: std::collections::BTreeSet<usize> = dom_report
            .first_detection()
            .iter()
            .flatten()
            .copied()
            .collect();
        let subset: Vec<Vec<bool>> = used.iter().map(|&i| patterns[i].clone()).collect();
        assert_eq!(sim.campaign(&dom, &subset).coverage(), 1.0);
        assert_eq!(
            sim.campaign(&dropped, &subset).coverage(),
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
            let m1 = sim.detection_mask(&golden, f);
            let m2 = sim.detection_mask(&golden, rep);
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
