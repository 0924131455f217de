//! Compiled flat-arena netlist representation shared by all simulators.
//!
//! [`CompiledNetlist`] lowers a [`Netlist`] into one flat arena of dense
//! `u32` arrays: the netlist's own CSR (compressed sparse row) graph plus
//! everything levelization derives from it.
//!
//! * `kinds[g]` — the [`GateKind`] of gate `g`;
//! * `pins[pin_offsets[g] .. pin_offsets[g + 1]]` — gate `g`'s input
//!   gate indices (CSR row `g`), copied from the netlist's pin CSR;
//! * `order` — the full levelized evaluation order;
//!   `eval_order` — the same order with `Input`/`Dff` sources removed;
//! * `levels[g]` / `topo_pos[g]` — gate level and position within
//!   `order` (the inverse permutation), used by incremental fault
//!   propagation to walk fanout cones in dependency order;
//! * `fan[fan_offsets[g] .. fan_offsets[g + 1]]` — gate `g`'s direct
//!   consumers: the [`Netlist::fanout`] CSR that levelization ran over,
//!   kept as built, so one compile builds one fanout;
//! * `pis` / `po_drivers` / `is_po` / `dffs` / `dff_d` — primary inputs,
//!   output driver gates, an output-driver membership mask, DFF gates
//!   and each DFF's `D`-input gate.
//!
//! Every evaluation goes through the arena's gate table (see
//! [`crate::sweep`]), in any [`GateValue`] domain: `bool`, four-valued
//! [`crate::Logic`], 64-lane `u64` words or wide
//! [`crate::wide::PackedWord`]s. Full evaluations run the table's level
//! runs; single gates go through [`CompiledNetlist::eval`] and
//! [`CompiledNetlist::eval_pin_forced`], the latter substituting one
//! input pin, which is how pin stuck-at faults are injected without
//! touching the arena.

use crate::codec::{put_bits, put_len, put_u32s};
use crate::error::SimError;
use crate::sweep::{GateTable, GateValue};
use crate::wide::SimWord;
use rescue_netlist::{GateId, GateKind, Levelization, Netlist, NetlistError};

/// Flat-arena, levelized form of a [`Netlist`]. See the module docs for
/// the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNetlist {
    kinds: Vec<GateKind>,
    pin_offsets: Vec<u32>,
    pins: Vec<u32>,
    order: Vec<u32>,
    eval_order: Vec<u32>,
    levels: Vec<u32>,
    topo_pos: Vec<u32>,
    pis: Vec<u32>,
    po_drivers: Vec<u32>,
    is_po: Vec<bool>,
    dffs: Vec<u32>,
    dff_d: Vec<u32>,
    fan_offsets: Vec<u32>,
    fan: Vec<u32>,
    /// Per gate: number of fanout edges into combinational consumers
    /// (DFF `D`-pins excluded). One entry per consuming *pin*, so a gate
    /// feeding two pins of one consumer counts twice — exactly the edge
    /// count fault-effect propagation sees within a chunk.
    comb_fan_degree: Vec<u32>,
    depth: u32,
    /// Opcodes and level runs. **Derived state**: built by every
    /// constructor, never serialized, so the wire format and content
    /// hashes are independent of it.
    table: GateTable,
}

impl CompiledNetlist {
    /// Compiles `netlist` (levelization + fanout CSR, `O(gates + edges)`).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (a validated
    /// netlist never does) or exceeds the `u32` index capacity (see
    /// [`CompiledNetlist::try_new`] for the fallible form).
    pub fn new(netlist: &Netlist) -> Self {
        Self::try_new(netlist).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible compilation with a typed capacity guard.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::TooLarge`] when the netlist has too many
    /// nets for the `u32` index arenas, instead of silently truncating
    /// gate indices.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (a validated
    /// netlist never does).
    pub fn try_new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let n = netlist.len();
        rescue_netlist::ensure_u32_indexable(n)?;
        let (lv, fanout) = Levelization::with_fanout(netlist);
        let (fan_offsets, fan) = fanout.into_parts();
        let ids =
            |gates: &[GateId]| -> Vec<u32> { gates.iter().map(|g| g.index() as u32).collect() };
        let po_drivers: Vec<u32> = netlist
            .primary_outputs()
            .iter()
            .map(|(_, g)| g.index() as u32)
            .collect();
        let dff_d: Vec<u32> = netlist
            .dffs()
            .iter()
            .map(|&d| netlist.gate(d).inputs()[0].index() as u32)
            .collect();
        Ok(Self::derive(Primary {
            kinds: netlist.kinds().to_vec(),
            pin_offsets: netlist.pin_offsets().to_vec(),
            pins: ids(netlist.pins()),
            fan_offsets,
            fan,
            order: ids(lv.order()),
            levels: (0..n).map(|i| lv.level(GateId(i))).collect(),
            pis: ids(netlist.primary_inputs()),
            po_drivers,
            dffs: ids(netlist.dffs()),
            dff_d,
        }))
    }

    /// The arena of the gates in `keep`, renumbered `0..keep.len()` in
    /// id order, in `O(gates + pins)`.
    ///
    /// `keep` must ascend and be closed under pins: every pin of a kept
    /// gate, a DFF's `D` pin included, is kept too. A kept gate keeps its
    /// kind, pins, level and place in the evaluation order; fanout rows
    /// lose the consumers left out; primary inputs, output drivers and
    /// DFFs are the kept ones, in their original order. The values of a
    /// pin-closed set depend on nothing outside it, so every kept gate
    /// evaluates as it does here, and restricting to every gate rebuilds
    /// this arena byte for byte. The result passes
    /// [`CompiledNetlist::validate`].
    ///
    /// # Panics
    ///
    /// Panics when `keep` does not ascend, names a gate past the end, or
    /// leaves out a pin of a kept gate.
    pub fn restrict(&self, keep: &[u32]) -> CompiledNetlist {
        const OUT: u32 = u32::MAX;
        let mut id = vec![OUT; self.len()];
        for (new, &g) in keep.iter().enumerate() {
            assert!(new == 0 || keep[new - 1] < g, "kept gates must ascend");
            id[g as usize] = new as u32;
        }
        let kept = |g: &&u32| id[**g as usize] != OUT;
        let to_new = |g: &u32| id[*g as usize];
        let sub = |all: &[u32]| -> Vec<u32> { all.iter().filter(kept).map(to_new).collect() };
        let (mut pin_offsets, mut pins) = (vec![0u32], Vec::new());
        let (mut fan_offsets, mut fan) = (vec![0u32], Vec::new());
        for &g in keep {
            for p in self.pins_of(g as usize) {
                assert!(kept(&p), "kept gate {g} reads gate {p}, left out");
                pins.push(to_new(p));
            }
            pin_offsets.push(pins.len() as u32);
            fan.extend(self.fanout_of(g as usize).iter().filter(kept).map(to_new));
            fan_offsets.push(fan.len() as u32);
        }
        let dff_d = self
            .dffs
            .iter()
            .zip(&self.dff_d)
            .filter(|(q, _)| kept(q))
            .map(|(_, d)| to_new(d))
            .collect();
        Self::derive(Primary {
            kinds: keep.iter().map(|&g| self.kinds[g as usize]).collect(),
            pin_offsets,
            pins,
            fan_offsets,
            fan,
            order: sub(&self.order),
            levels: keep.iter().map(|&g| self.levels[g as usize]).collect(),
            pis: sub(&self.pis),
            po_drivers: sub(&self.po_drivers),
            dffs: sub(&self.dffs),
            dff_d,
        })
    }

    /// The arena whose graph, order and levels are `p`, with every field
    /// that follows from them derived: `topo_pos`, `eval_order`, `is_po`,
    /// `comb_fan_degree`, `depth` and the gate table.
    fn derive(p: Primary) -> CompiledNetlist {
        let n = p.kinds.len();
        let mut topo_pos = vec![0u32; n];
        for (pos, &g) in p.order.iter().enumerate() {
            topo_pos[g as usize] = pos as u32;
        }
        let eval_order: Vec<u32> = p
            .order
            .iter()
            .copied()
            .filter(|&g| !matches!(p.kinds[g as usize], GateKind::Input | GateKind::Dff))
            .collect();
        let mut is_po = vec![false; n];
        for &g in &p.po_drivers {
            is_po[g as usize] = true;
        }
        let comb_fan_degree: Vec<u32> = (0..n)
            .map(|g| {
                p.fan[p.fan_offsets[g] as usize..p.fan_offsets[g + 1] as usize]
                    .iter()
                    .filter(|&&s| p.kinds[s as usize] != GateKind::Dff)
                    .count() as u32
            })
            .collect();
        let mut c = CompiledNetlist {
            depth: p.levels.iter().copied().max().unwrap_or(0),
            kinds: p.kinds,
            pin_offsets: p.pin_offsets,
            pins: p.pins,
            order: p.order,
            eval_order,
            levels: p.levels,
            topo_pos,
            pis: p.pis,
            po_drivers: p.po_drivers,
            is_po,
            dffs: p.dffs,
            dff_d: p.dff_d,
            fan_offsets: p.fan_offsets,
            fan: p.fan,
            comb_fan_degree,
            table: GateTable::default(),
        };
        c.table = GateTable::build(&c);
        c
    }

    /// Whether the arena is one [`CompiledNetlist::try_new`] could have
    /// built, linear in gates + pins. It holds when
    ///
    /// * every array has its length and every gate index is `< n`;
    /// * both offset arrays start at 0, never decrease and end at the
    ///   length of the array they index;
    /// * each gate's arity fits its kind, as in [`Netlist::validate`];
    /// * `order` is a permutation with `topo_pos` its inverse, and every
    ///   combinational gate comes after its pins;
    /// * `eval_order` is `order` without `Input`/`Dff` gates;
    /// * `levels` and `depth` follow from the pins;
    /// * `fan`, `comb_fan_degree`, `is_po`, `dffs` and `dff_d` are what
    ///   `pins`, `kinds` and `po_drivers` derive.
    ///
    /// An arena that passes evaluates without panicking. The check cannot
    /// tell a consistent arena of another design from this one.
    pub fn validate(&self) -> bool {
        let n = self.len();
        let in_range = |xs: &[u32]| xs.iter().all(|&g| (g as usize) < n);
        let csr = |offsets: &[u32], len: usize| {
            offsets.len() == n + 1
                && offsets[0] == 0
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && offsets[n] as usize == len
        };
        let lengths = [
            self.order.len(),
            self.levels.len(),
            self.topo_pos.len(),
            self.comb_fan_degree.len(),
            self.is_po.len(),
        ];
        let indices = [
            &self.pins,
            &self.order,
            &self.pis,
            &self.po_drivers,
            &self.fan,
        ];
        let shape = csr(&self.pin_offsets, self.pins.len())
            && csr(&self.fan_offsets, self.fan.len())
            && lengths.iter().all(|&len| len == n)
            && self.dff_d.len() == self.dffs.len()
            && indices.iter().all(|a| in_range(a));
        if !shape {
            return false;
        }
        let arity = (0..n).all(|g| {
            let found = self.pins_of(g).len();
            match self.kinds[g].fixed_arity() {
                Some(want) => found == want,
                None => found >= 2,
            }
        });
        let permutation = (0..n).all(|pos| self.topo_pos[self.order[pos] as usize] == pos as u32);
        if !(arity && permutation) {
            return false;
        }
        let topological = (0..n).all(|g| {
            self.kinds[g] == GateKind::Dff
                || self
                    .pins_of(g)
                    .iter()
                    .all(|&p| self.topo_pos[p as usize] < self.topo_pos[g])
        });
        let source = |g: &u32| matches!(self.kinds[*g as usize], GateKind::Input | GateKind::Dff);
        let eval_order = self
            .eval_order
            .iter()
            .eq(self.order.iter().filter(|g| !source(g)));
        let levels = (0..n).all(|g| {
            let above = |&p: &u32| u64::from(self.levels[p as usize]) + 1;
            let want = match self.kinds[g] {
                GateKind::Dff => 0,
                _ => self.pins_of(g).iter().map(above).max().unwrap_or(0),
            };
            u64::from(self.levels[g]) == want
        }) && self.levels.iter().copied().max().unwrap_or(0) == self.depth;
        if !(topological && eval_order && levels) {
            return false;
        }
        // `fan` must be the transpose of `pins` with consumers in gate
        // order: replay the counting sort and compare entry by entry.
        let mut cursor = self.fan_offsets[..n].to_vec();
        for g in 0..n {
            for &p in self.pins_of(g) {
                let at = &mut cursor[p as usize];
                if *at >= self.fan_offsets[p as usize + 1] || self.fan[*at as usize] != g as u32 {
                    return false;
                }
                *at += 1;
            }
        }
        let mut is_po = vec![false; n];
        for &g in &self.po_drivers {
            is_po[g as usize] = true;
        }
        let not_dff = |s: &&u32| self.kinds[**s as usize] != GateKind::Dff;
        cursor == self.fan_offsets[1..]
            && (0..n).all(|g| {
                self.fanout_of(g).iter().filter(not_dff).count() as u32 == self.comb_fan_degree[g]
            })
            && is_po == self.is_po
            && self
                .dffs
                .iter()
                .copied()
                .eq((0..n as u32).filter(|&g| self.kinds[g as usize] == GateKind::Dff))
            && self
                .dffs
                .iter()
                .zip(&self.dff_d)
                .all(|(&q, &d)| self.pins_of(q as usize) == [d])
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the design has no gates.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: usize) -> GateKind {
        self.kinds[g]
    }

    /// Input gate indices of `g` (CSR row).
    #[inline]
    pub fn pins_of(&self, g: usize) -> &[u32] {
        &self.pins[self.pin_offsets[g] as usize..self.pin_offsets[g + 1] as usize]
    }

    /// Direct consumers of `g` (fanout CSR row).
    #[inline]
    pub fn fanout_of(&self, g: usize) -> &[u32] {
        &self.fan[self.fan_offsets[g] as usize..self.fan_offsets[g + 1] as usize]
    }

    /// Number of combinational fanout edges of `g`: fanout CSR entries
    /// whose consumer is not a DFF, counted per consuming pin. This is
    /// the stem metadata critical-path tracing classifies on — 0 means a
    /// fault effect at `g` dies locally (within one chunk), 1 means it
    /// propagates along a single edge (fanout-free region), ≥ 2 marks a
    /// fanout stem whose branches may reconverge.
    #[inline]
    pub fn comb_fanout_degree(&self, g: usize) -> u32 {
        self.comb_fan_degree[g]
    }

    /// Full levelized order over all gates.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Levelized order restricted to gates that need evaluation
    /// (`Input`/`Dff` sources removed).
    pub fn eval_order(&self) -> &[u32] {
        &self.eval_order
    }

    /// Level of gate `g` (0 for sources).
    #[inline]
    pub fn level(&self, g: usize) -> u32 {
        self.levels[g]
    }

    /// Position of gate `g` within [`CompiledNetlist::order`].
    #[inline]
    pub fn topo_pos(&self, g: usize) -> u32 {
        self.topo_pos[g]
    }

    /// Logic depth of the design.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Primary-input gate indices, in declaration order.
    pub fn primary_inputs(&self) -> &[u32] {
        &self.pis
    }

    /// Gate indices driving the primary outputs, in declaration order.
    pub fn po_drivers(&self) -> &[u32] {
        &self.po_drivers
    }

    /// Whether gate `g` drives at least one primary output.
    #[inline]
    pub fn is_po(&self, g: usize) -> bool {
        self.is_po[g]
    }

    /// DFF gate indices, in declaration order.
    pub fn dffs(&self) -> &[u32] {
        &self.dffs
    }

    /// For each DFF (same order as [`CompiledNetlist::dffs`]), the gate
    /// feeding its `D` pin.
    pub fn dff_d(&self) -> &[u32] {
        &self.dff_d
    }

    /// Evaluates gate `g` from `values`, through the gate table. A DFF
    /// evaluates to [`GateValue::DFF`]; an `Input` is the caller's job.
    #[inline]
    pub fn eval<V: GateValue>(&self, g: usize, values: &[V]) -> V {
        self.eval_by(g, |p| values[p])
    }

    /// [`CompiledNetlist::eval`] with each operand read through `read`:
    /// `read(p)` is the value of operand gate `p`. The event-driven walk
    /// in `rescue-faults` reads the gates it changed from its scratch
    /// and every other operand from the shared golden values.
    #[inline]
    pub fn eval_by<V: GateValue>(&self, g: usize, read: impl Fn(usize) -> V) -> V {
        self.table.eval_by(self, g, read)
    }

    /// [`CompiledNetlist::eval`] with input pin `pin` reading `v`: the
    /// pin stuck-at injection primitive.
    #[inline]
    pub fn eval_pin_forced<V: GateValue>(&self, g: usize, values: &[V], pin: usize, v: V) -> V {
        self.table.eval_pin_forced(self, g, values, pin, v)
    }

    /// Full packed evaluation into a reusable buffer (cleared and
    /// resized), one word of [`crate::wide::SimWord::LANES`] patterns per
    /// gate. `input_words[i]` carries primary input `i`; DFF outputs
    /// evaluate to all-zero words.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] on word-count mismatch.
    pub fn eval_words_into<Wd: SimWord>(
        &self,
        input_words: &[Wd],
        values: &mut Vec<Wd>,
    ) -> Result<(), SimError> {
        values.clear();
        values.resize(self.len(), Wd::ZERO);
        self.eval_into(input_words, None, values)
    }

    /// Two-valued full evaluation into a reusable buffer. DFF outputs
    /// take their value from `state` (in [`CompiledNetlist::dffs`]
    /// order); pass `&[]`-initialized state for pure combinational use.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] on input-width mismatch;
    /// [`SimError::StateWidthMismatch`] on state-width mismatch.
    pub fn eval_bools_into(
        &self,
        inputs: &[bool],
        state: &[bool],
        values: &mut Vec<bool>,
    ) -> Result<(), SimError> {
        values.clear();
        values.resize(self.len(), false);
        self.eval_into(inputs, Some(state), values)
    }

    /// The one full-evaluation body: places the sources (`inputs` on the
    /// primary inputs; `state[i]` on DFF `i`, or [`GateValue::DFF`] on
    /// every DFF when `state` is `None`), then runs the gate table's
    /// level runs over every other gate.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] or [`SimError::StateWidthMismatch`].
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != self.len()`.
    pub(crate) fn eval_into<V: GateValue>(
        &self,
        inputs: &[V],
        state: Option<&[V]>,
        values: &mut [V],
    ) -> Result<(), SimError> {
        if inputs.len() != self.pis.len() {
            return Err(SimError::InputWidthMismatch {
                expected: self.pis.len(),
                found: inputs.len(),
            });
        }
        if let Some(state) = state.filter(|s| s.len() != self.dffs.len()) {
            return Err(SimError::StateWidthMismatch {
                expected: self.dffs.len(),
                found: state.len(),
            });
        }
        assert_eq!(values.len(), self.len(), "value arena width mismatch");
        for (&pi, &v) in self.pis.iter().zip(inputs) {
            values[pi as usize] = v;
        }
        for (i, &dff) in self.dffs.iter().enumerate() {
            values[dff as usize] = state.map_or(V::DFF, |s| s[i]);
        }
        self.table.eval_levels(self, values);
        Ok(())
    }

    /// Serializes the full compiled arena, derived fields (levelization,
    /// CSRs, orders) included, so equal bytes mean equal arenas.
    /// Little-endian, versioned; gate kinds use the frozen
    /// [`GateKind::wire_code`] table. Nothing decodes it: no library path
    /// caches arenas, since compiling one costs less than reading it
    /// back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.kinds.len() * 40 + self.pins.len() * 8);
        buf.push(WIRE_VERSION);
        buf.extend_from_slice(&self.depth.to_le_bytes());
        put_len(&mut buf, self.kinds.len());
        buf.extend(self.kinds.iter().map(|k| k.wire_code()));
        for arr in [
            &self.pin_offsets,
            &self.pins,
            &self.order,
            &self.eval_order,
            &self.levels,
            &self.topo_pos,
            &self.pis,
            &self.po_drivers,
            &self.dffs,
            &self.dff_d,
            &self.fan_offsets,
            &self.fan,
            &self.comb_fan_degree,
        ] {
            put_u32s(&mut buf, arr);
        }
        put_bits(&mut buf, &self.is_po);
        buf
    }
}

const WIRE_VERSION: u8 = 1;

/// The fields of a [`CompiledNetlist`] nothing else derives: the graph
/// (kinds, pin and fanout CSRs), a topological order with its levels, and
/// the sources and sinks. [`CompiledNetlist::derive`] computes the rest.
struct Primary {
    kinds: Vec<GateKind>,
    pin_offsets: Vec<u32>,
    pins: Vec<u32>,
    fan_offsets: Vec<u32>,
    fan: Vec<u32>,
    order: Vec<u32>,
    levels: Vec<u32>,
    pis: Vec<u32>,
    po_drivers: Vec<u32>,
    dffs: Vec<u32>,
    dff_d: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn csr_layout_matches_netlist() {
        let net = generate::c17();
        let c = CompiledNetlist::new(&net);
        assert_eq!(c.len(), net.len());
        for (id, g) in net.iter() {
            assert_eq!(c.kind(id.index()), g.kind());
            let pins: Vec<u32> = g.inputs().iter().map(|p| p.index() as u32).collect();
            assert_eq!(c.pins_of(id.index()), &pins[..]);
        }
        assert_eq!(c.primary_inputs().len(), 5);
        assert_eq!(c.po_drivers().len(), 2);
        for &po in c.po_drivers() {
            assert!(c.is_po(po as usize));
        }
    }

    #[test]
    fn fanout_csr_matches_netlist_fanout() {
        // The arena keeps the netlist's fanout CSR: the transpose of the
        // pins, consumers in gate order.
        let net = generate::random_logic(6, 50, 3, 11);
        let c = CompiledNetlist::new(&net);
        let fo = net.fanout();
        let mut want = vec![Vec::new(); c.len()];
        for g in 0..c.len() {
            for &p in c.pins_of(g) {
                want[p as usize].push(g as u32);
            }
        }
        for (g, row) in want.iter().enumerate() {
            assert_eq!(c.fanout_of(g), &row[..], "gate {g}");
            let fo_row: Vec<u32> = fo.of(GateId(g)).map(|s| s.index() as u32).collect();
            assert_eq!(fo_row, *row, "gate {g}");
        }
    }

    #[test]
    fn topo_pos_inverts_order() {
        let net = generate::random_logic(5, 40, 2, 3);
        let c = CompiledNetlist::new(&net);
        for (pos, &g) in c.order().iter().enumerate() {
            assert_eq!(c.topo_pos(g as usize), pos as u32);
        }
        // Every gate appears after all its combinational inputs.
        for &g in c.eval_order() {
            for &p in c.pins_of(g as usize) {
                assert!(c.topo_pos(p as usize) < c.topo_pos(g as usize));
            }
        }
    }

    #[test]
    fn eval_words_into_matches_reference() {
        let net = generate::adder(4);
        let c = CompiledNetlist::new(&net);
        let words: Vec<u64> = (0..9)
            .map(|i| 0x9e3779b97f4a7c15u64.rotate_left(i))
            .collect();
        let mut values = Vec::new();
        c.eval_words_into(&words, &mut values).unwrap();
        for p in 0..64 {
            let pattern: Vec<bool> = words.iter().map(|w| w >> p & 1 == 1).collect();
            let serial = crate::comb::eval_bool(&net, &pattern).unwrap();
            for g in 0..net.len() {
                assert_eq!(values[g] >> p & 1 == 1, serial[g], "pattern {p}, gate {g}");
            }
        }
    }

    #[test]
    fn comb_fanout_degree_counts_non_dff_edges() {
        let net = generate::random_logic(6, 50, 3, 11);
        let c = CompiledNetlist::new(&net);
        for g in 0..c.len() {
            let want = c
                .fanout_of(g)
                .iter()
                .filter(|&&s| c.kind(s as usize) != GateKind::Dff)
                .count() as u32;
            assert_eq!(c.comb_fanout_degree(g), want, "gate {g}");
        }
        // A shift register's stages feed only DFF D-pins: combinational
        // degree 0 even though the fanout CSR row is non-empty.
        let s = generate::shift_register(3);
        let cs = CompiledNetlist::new(&s);
        for &d in cs.dff_d() {
            let all_dff = cs
                .fanout_of(d as usize)
                .iter()
                .all(|&x| cs.kind(x as usize) == GateKind::Dff);
            if all_dff {
                assert_eq!(cs.comb_fanout_degree(d as usize), 0);
            }
        }
    }

    #[test]
    fn dff_d_maps_state_capture() {
        let net = generate::shift_register(3);
        let c = CompiledNetlist::new(&net);
        assert_eq!(c.dffs().len(), 3);
        for (i, &d) in c.dff_d().iter().enumerate() {
            let dff = c.dffs()[i] as usize;
            assert_eq!(c.pins_of(dff), &[d], "DFF {i} D-pin");
        }
    }

    #[test]
    fn width_mismatch_is_reported() {
        let net = generate::c17();
        let c = CompiledNetlist::new(&net);
        let mut buf = Vec::new();
        assert!(matches!(
            c.eval_words_into(&[0u64; 3], &mut buf),
            Err(SimError::InputWidthMismatch {
                expected: 5,
                found: 3
            })
        ));
    }

    #[test]
    fn level_runs_match_gate_order_on_both_layouts() {
        let net = generate::random_logic(8, 300, 4, 9);
        let (lev, _) = rescue_netlist::renumber::levelized(&net);
        let words: Vec<u64> = (0..8)
            .map(|i| 0xdeadbeefcafef00du64.rotate_left(i))
            .collect();
        for c in [CompiledNetlist::new(&net), CompiledNetlist::new(&lev)] {
            let mut runs = Vec::new();
            c.eval_words_into(&words, &mut runs).unwrap();
            let mut gate_order = vec![0u64; c.len()];
            for (&pi, &w) in c.primary_inputs().iter().zip(&words) {
                gate_order[pi as usize] = w;
            }
            for &g in c.eval_order() {
                gate_order[g as usize] = c.eval(g as usize, &gate_order);
            }
            assert_eq!(runs, gate_order, "level runs must be byte-identical");
            // A reused buffer holding stale words fills to the same bytes.
            let mut dirty = vec![u64::MAX; c.len() + 3];
            c.eval_words_into(&words, &mut dirty).unwrap();
            assert_eq!(dirty, gate_order);
        }
    }

    #[test]
    fn validate_rejects_inconsistent_arenas() {
        /// Gates the corruptions below aim at.
        struct At {
            input: usize,
            and: usize,
            dff: usize,
            /// A driver with two distinct consumers, so its fan row has
            /// an order to break.
            stem: usize,
        }
        let c = CompiledNetlist::new(&generate::control_fsm());
        assert!(c.validate());
        let gate_of = |kind| (0..c.len()).find(|&g| c.kind(g) == kind).unwrap();
        let at = At {
            input: gate_of(GateKind::Input),
            and: gate_of(GateKind::And),
            dff: gate_of(GateKind::Dff),
            stem: (0..c.len())
                .find(|&g| c.fanout_of(g).windows(2).any(|w| w[0] != w[1]))
                .unwrap(),
        };
        type Break = fn(&mut CompiledNetlist, &At);
        let breaks: [(&str, Break); 14] = [
            ("pin past the end", |c, _| c.pins[0] = c.len() as u32),
            ("offsets start past 0", |c, _| c.pin_offsets[0] = 1),
            ("Not with no pins", |c, at| {
                c.kinds[at.input] = GateKind::Not
            }),
            ("Buf with two pins", |c, at| c.kinds[at.and] = GateKind::Buf),
            ("topo_pos not the inverse", |c, _| c.topo_pos.swap(0, 1)),
            ("order not topological", |c, _| {
                c.order.reverse();
                for (pos, &g) in c.order.iter().enumerate() {
                    c.topo_pos[g as usize] = pos as u32;
                }
                let kinds = &c.kinds;
                let source =
                    |g: &u32| matches!(kinds[*g as usize], GateKind::Input | GateKind::Dff);
                c.eval_order = c.order.iter().copied().filter(|g| !source(g)).collect();
            }),
            ("eval_order short", |c, _| {
                c.eval_order.pop();
            }),
            ("level off by one", |c, at| c.levels[at.and] += 1),
            ("depth off by one", |c, _| c.depth += 1),
            ("fan row out of gate order", |c, at| {
                let row = c.fan_offsets[at.stem] as usize..c.fan_offsets[at.stem + 1] as usize;
                c.fan[row].reverse();
            }),
            ("comb degree off by one", |c, at| {
                c.comb_fan_degree[at.stem] += 1
            }),
            ("PO mask flipped", |c, at| {
                c.is_po[at.input] = !c.is_po[at.input]
            }),
            ("D pin moved", |c, at| {
                let i = c.dffs.iter().position(|&q| q as usize == at.dff).unwrap();
                c.dff_d[i] = (c.dff_d[i] + 1) % c.len() as u32;
            }),
            ("a flop left off the DFF list", |c, _| {
                c.dffs.pop();
                c.dff_d.pop();
            }),
        ];
        for (what, break_it) in breaks {
            let mut bad = c.clone();
            break_it(&mut bad, &at);
            assert!(!bad.validate(), "{what} passed validation");
        }
    }
}
