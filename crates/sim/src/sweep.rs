//! The engine's one gate table: opcodes, level runs and the gate
//! functions they dispatch to, in every value domain.
//!
//! `GateTable` is built once per compiled arena, levelized or not. It
//! flattens every gate into an *opcode* (the operator shape: 2-input
//! AND, inverter, …) with its first two input indices resolved from the
//! CSR, and it cuts `eval_order` into *level runs*: groups of gates on
//! the same logic level with the same opcode, stored structure-of-arrays
//! (one `out[]` index array plus the `a[]`/`b[]` operands). A gate only
//! reads values from strictly lower levels, so any evaluation order
//! within a level produces the same values; cutting the runs needs only
//! the topological `eval_order` every arena has. Levelized gate ids buy
//! locality, not correctness.
//!
//! Each opcode's function is written once (`apply`), generic over
//! [`GateValue`], which `bool`, [`Logic`], `u64` and
//! [`crate::wide::PackedWord`] implement. Shapes without an opcode of
//! their own (MUXes, variadic AND/OR/XOR families) take the one generic
//! [`fold`] over the gate's CSR pins. Three entry points dispatch
//! through the table: the level-run body behind every full evaluation
//! of a [`CompiledNetlist`], and the single-gate
//! [`CompiledNetlist::eval_by`] (with its slice form
//! [`CompiledNetlist::eval`]) and [`CompiledNetlist::eval_pin_forced`]
//! behind the event-driven walks and the critical-path-tracing chain
//! ascent in `rescue-faults`.
//!
//! The oracle's gate table (`crate::logic`) stays separate on purpose,
//! so the reference simulator and the engine never share a bug.
//!
//! The table is **derived state**: it is computed from the arena by
//! every constructor, never serialized, so the compiled wire format and
//! its content hashes are unchanged.

use crate::compiled::CompiledNetlist;
use crate::logic::Logic;
use rescue_netlist::GateKind;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A value domain the engine evaluates gates in: one bit (`bool`),
/// four-valued [`Logic`], or packed lanes ([`crate::wide::SimWord`]).
pub trait GateValue:
    Copy + Not<Output = Self> + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self>
{
    /// Logic 0 (in every lane).
    const ZERO: Self;
    /// Logic 1 (in every lane).
    const ONES: Self;
    /// A DFF's value when asked combinationally: `ZERO` unless the
    /// domain can say "unknown".
    const DFF: Self = Self::ZERO;

    /// 2:1 multiplexer: `a` where `s` is 0, `b` where it is 1.
    #[inline]
    fn mux(s: Self, a: Self, b: Self) -> Self {
        (!s & a) | (s & b)
    }
}

impl GateValue for bool {
    const ZERO: Self = false;
    const ONES: Self = true;
}

impl GateValue for Logic {
    const ZERO: Self = Logic::Zero;
    const ONES: Self = Logic::One;
    const DFF: Self = Logic::X;

    /// An unknown select still yields a known value when both data
    /// inputs agree on one.
    fn mux(s: Self, a: Self, b: Self) -> Self {
        match s.to_bool() {
            Some(false) => a,
            Some(true) => b,
            None if a == b && !a.is_unknown() => a,
            None => Logic::X,
        }
    }
}

const OP_CONST0: u8 = 0;
const OP_CONST1: u8 = 1;
const OP_BUF: u8 = 2;
const OP_NOT: u8 = 3;
const OP_AND2: u8 = 4;
const OP_NAND2: u8 = 5;
const OP_OR2: u8 = 6;
const OP_NOR2: u8 = 7;
const OP_XOR2: u8 = 8;
const OP_XNOR2: u8 = 9;
/// Shapes without an opcode: the generic [`fold`] over the CSR pins.
/// The sources map here too: a DFF folds to [`GateValue::DFF`], and an
/// `Input` keeps its panic.
const OP_FOLD: u8 = 10;
const OPS: usize = 11;

/// Opcode of one gate: a dedicated opcode when the kind *and* arity
/// match one, `OP_FOLD` otherwise. Only exact matches get an opcode (a
/// 3-input AND folds), so every opcode is algebraically the fold it
/// replaces.
fn classify(kind: GateKind, arity: usize) -> u8 {
    match (kind, arity) {
        (GateKind::Const0, _) => OP_CONST0,
        (GateKind::Const1, _) => OP_CONST1,
        (GateKind::Buf, 1) => OP_BUF,
        (GateKind::Not, 1) => OP_NOT,
        (GateKind::And, 2) => OP_AND2,
        (GateKind::Nand, 2) => OP_NAND2,
        (GateKind::Or, 2) => OP_OR2,
        (GateKind::Nor, 2) => OP_NOR2,
        (GateKind::Xor, 2) => OP_XOR2,
        (GateKind::Xnor, 2) => OP_XNOR2,
        _ => OP_FOLD,
    }
}

/// Each opcode's gate function, written once for every value domain.
/// `x` and `y` read the first and second operand; an opcode reads only
/// the operands it has.
#[inline(always)]
fn apply<V: GateValue>(op: u8, x: impl FnOnce() -> V, y: impl FnOnce() -> V) -> V {
    match op {
        OP_CONST0 => V::ZERO,
        OP_CONST1 => V::ONES,
        OP_BUF => x(),
        OP_NOT => !x(),
        OP_AND2 => x() & y(),
        OP_NAND2 => !(x() & y()),
        OP_OR2 => x() | y(),
        OP_NOR2 => !(x() | y()),
        OP_XOR2 => x() ^ y(),
        OP_XNOR2 => !(x() ^ y()),
        _ => unreachable!("opcode {op} has no operand form"),
    }
}

/// The engine's generic gate fold over an input iterator: the function
/// of every gate kind at any arity. The table sends only the shapes
/// without an opcode here (MUXes and variadic AND/OR/XOR families).
///
/// # Panics
///
/// Panics on `GateKind::Input`, which has no combinational function,
/// and when `ins` yields fewer values than the kind reads.
#[inline]
pub fn fold<V: GateValue>(kind: GateKind, mut ins: impl Iterator<Item = V>) -> V {
    let mut next = || ins.next().expect("a pin per operand");
    match kind {
        GateKind::Const0 => V::ZERO,
        GateKind::Const1 => V::ONES,
        GateKind::Buf => next(),
        GateKind::Not => !next(),
        GateKind::Mux => {
            let (s, a, b) = (next(), next(), next());
            V::mux(s, a, b)
        }
        GateKind::Dff => V::DFF,
        GateKind::And => ins.fold(V::ONES, |a, b| a & b),
        GateKind::Nand => !ins.fold(V::ONES, |a, b| a & b),
        GateKind::Or => ins.fold(V::ZERO, |a, b| a | b),
        GateKind::Nor => !ins.fold(V::ZERO, |a, b| a | b),
        GateKind::Xor => ins.fold(V::ZERO, |a, b| a ^ b),
        GateKind::Xnor => !ins.fold(V::ZERO, |a, b| a ^ b),
        GateKind::Input => panic!("an Input gate has no gate function"),
    }
}

/// One same-level, same-opcode run: `len` gates from `start` in the
/// table's structure-of-arrays arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    op: u8,
    start: u32,
    len: u32,
}

/// Per-gate opcodes and operands plus the level runs, derived once from
/// a [`CompiledNetlist`]. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct GateTable {
    /// Per gate: opcode and first two resolved operands (0 when unused).
    ops: Vec<u8>,
    pa: Vec<u32>,
    pb: Vec<u32>,
    /// Level-major runs over `eval_order`'s gates.
    runs: Vec<Run>,
    /// SoA arenas indexed by the runs: output gate and its operands.
    out: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
}

impl GateTable {
    /// Derives the table from a compiled arena in `O(gates)`, under a
    /// `sim.gate_table` span. `eval_order` is cut at every change of
    /// level, and each stretch is counting-sorted by opcode, so runs
    /// keep `eval_order`'s order within an opcode.
    pub(crate) fn build(c: &CompiledNetlist) -> GateTable {
        let _span = rescue_telemetry::span!("sim.gate_table", gates = c.len());
        let n = c.len();
        let mut ops = vec![0u8; n];
        let mut pa = vec![0u32; n];
        let mut pb = vec![0u32; n];
        for g in 0..n {
            let pins = c.pins_of(g);
            ops[g] = classify(c.kind(g), pins.len());
            if ops[g] != OP_FOLD {
                pa[g] = pins.first().copied().unwrap_or(0);
                pb[g] = pins.get(1).copied().unwrap_or(0);
            }
        }

        let eo = c.eval_order();
        let (mut out, mut a, mut b) = (vec![0; eo.len()], vec![0; eo.len()], vec![0; eo.len()]);
        let mut runs = Vec::new();
        let mut start = 0usize;
        for stretch in eo.chunk_by(|&x, &y| c.level(x as usize) == c.level(y as usize)) {
            let mut at = [0usize; OPS + 1];
            for &g in stretch {
                at[ops[g as usize] as usize + 1] += 1;
            }
            for op in 0..OPS {
                let len = at[op + 1];
                at[op + 1] = at[op] + len;
                if len > 0 {
                    runs.push(Run {
                        op: op as u8,
                        start: (start + at[op]) as u32,
                        len: len as u32,
                    });
                }
            }
            for &g in stretch {
                let slot = &mut at[ops[g as usize] as usize];
                let k = start + *slot;
                *slot += 1;
                (out[k], a[k], b[k]) = (g, pa[g as usize], pb[g as usize]);
            }
            start += stretch.len();
        }
        GateTable {
            ops,
            pa,
            pb,
            runs,
            out,
            a,
            b,
        }
    }

    /// Evaluates gate `g`, reading operand gate `p`'s value as
    /// `read(p)`. A DFF evaluates to [`GateValue::DFF`]; an `Input`
    /// panics.
    #[inline]
    pub(crate) fn eval_by<V: GateValue>(
        &self,
        c: &CompiledNetlist,
        g: usize,
        read: impl Fn(usize) -> V,
    ) -> V {
        match self.ops[g] {
            OP_FOLD => fold(c.kind(g), c.pins_of(g).iter().map(|&p| read(p as usize))),
            op => apply(
                op,
                || read(self.pa[g] as usize),
                || read(self.pb[g] as usize),
            ),
        }
    }

    /// [`GateTable::eval_by`] over `values` with input pin `pin` reading
    /// `v`: the pin stuck-at injection primitive. A `pin` past the
    /// gate's arity forces nothing.
    #[inline]
    pub(crate) fn eval_pin_forced<V: GateValue>(
        &self,
        c: &CompiledNetlist,
        g: usize,
        values: &[V],
        pin: usize,
        v: V,
    ) -> V {
        let read = |i: usize, p: u32| if i == pin { v } else { values[p as usize] };
        match self.ops[g] {
            OP_FOLD => fold(
                c.kind(g),
                c.pins_of(g).iter().enumerate().map(|(i, &p)| read(i, p)),
            ),
            op => apply(op, || read(0, self.pa[g]), || read(1, self.pb[g])),
        }
    }

    /// Evaluates every gate of `eval_order` run by run. The sources
    /// (primary inputs and DFF outputs) must already be in `values`;
    /// every other gate is written exactly once.
    pub(crate) fn eval_levels<V: GateValue>(&self, c: &CompiledNetlist, values: &mut [V]) {
        for run in &self.runs {
            let r = run.start as usize..(run.start + run.len) as usize;
            let (out, a, b) = (&self.out[r.clone()], &self.a[r.clone()], &self.b[r]);
            match run.op {
                OP_CONST0 => kernel::<OP_CONST0, V>(values, out, a, b),
                OP_CONST1 => kernel::<OP_CONST1, V>(values, out, a, b),
                OP_BUF => kernel::<OP_BUF, V>(values, out, a, b),
                OP_NOT => kernel::<OP_NOT, V>(values, out, a, b),
                OP_AND2 => kernel::<OP_AND2, V>(values, out, a, b),
                OP_NAND2 => kernel::<OP_NAND2, V>(values, out, a, b),
                OP_OR2 => kernel::<OP_OR2, V>(values, out, a, b),
                OP_NOR2 => kernel::<OP_NOR2, V>(values, out, a, b),
                OP_XOR2 => kernel::<OP_XOR2, V>(values, out, a, b),
                OP_XNOR2 => kernel::<OP_XNOR2, V>(values, out, a, b),
                _ => {
                    for &g in out {
                        values[g as usize] = self.eval_by(c, g as usize, |p| values[p]);
                    }
                }
            }
        }
    }
}

/// One run of opcode `OP`: a tight loop of one fixed expression, no
/// dispatch inside.
#[inline(always)]
fn kernel<const OP: u8, V: GateValue>(values: &mut [V], out: &[u32], a: &[u32], b: &[u32]) {
    for k in 0..out.len() {
        let v = apply(OP, || values[a[k] as usize], || values[b[k] as usize]);
        values[out[k] as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{generate, renumber};

    #[test]
    fn classify_requires_exact_arity() {
        assert_eq!(classify(GateKind::And, 2), OP_AND2);
        assert_eq!(classify(GateKind::And, 3), OP_FOLD);
        assert_eq!(classify(GateKind::Mux, 3), OP_FOLD);
        assert_eq!(classify(GateKind::Input, 0), OP_FOLD);
        assert_eq!(classify(GateKind::Dff, 1), OP_FOLD);
    }

    /// Both layouts: original ids and level-ordered ids.
    fn arenas(seed: u64) -> [CompiledNetlist; 2] {
        let net = generate::random_logic(8, 400, 4, seed);
        let (lev, _) = renumber::levelized(&net);
        [CompiledNetlist::new(&net), CompiledNetlist::new(&lev)]
    }

    #[test]
    fn runs_cover_eval_order_exactly_once() {
        for c in arenas(21) {
            let table = GateTable::build(&c);
            let mut seen: Vec<u32> = table.out.clone();
            seen.sort_unstable();
            let mut want: Vec<u32> = c.eval_order().to_vec();
            want.sort_unstable();
            assert_eq!(seen, want, "every evaluated gate appears in one run");
            let covered: usize = table.runs.iter().map(|r| r.len as usize).sum();
            assert_eq!(covered, want.len());
            assert!(table
                .runs
                .iter()
                .any(|r| r.op == OP_AND2 || r.op == OP_NAND2));
        }
    }

    #[test]
    fn runs_never_read_their_own_level() {
        for c in arenas(5) {
            let table = GateTable::build(&c);
            let mut last = 0;
            for run in &table.runs {
                let gates = &table.out[run.start as usize..(run.start + run.len) as usize];
                let level = c.level(gates[0] as usize);
                assert!(level >= last, "runs are level-major");
                last = level;
                for &g in gates {
                    assert_eq!(c.level(g as usize), level, "one level per run");
                    assert_eq!(table.ops[g as usize], run.op, "one opcode per run");
                    for &p in c.pins_of(g as usize) {
                        assert!(c.level(p as usize) < level, "gate {g} reads input {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_descriptors_match_csr() {
        for c in arenas(9) {
            let table = GateTable::build(&c);
            for g in 0..c.len() {
                let pins = c.pins_of(g);
                let want = match table.ops[g] {
                    OP_BUF | OP_NOT => [pins[0], 0],
                    OP_AND2..=OP_XNOR2 => [pins[0], pins[1]],
                    _ => [0, 0],
                };
                assert_eq!([table.pa[g], table.pb[g]], want, "gate {g}");
            }
            for (k, &g) in table.out.iter().enumerate() {
                let g = g as usize;
                assert_eq!([table.a[k], table.b[k]], [table.pa[g], table.pb[g]]);
            }
        }
    }
}
