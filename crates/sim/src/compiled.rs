//! Compiled flat-arena netlist representation shared by all simulators.
//!
//! [`CompiledNetlist`] lowers a [`Netlist`] into a CSR (compressed sparse
//! row) arena so the simulation hot loops touch only dense `u32`/`u64`
//! arrays instead of chasing per-gate `Gate` structs and re-collecting
//! input buffers:
//!
//! * `kinds[g]` — the [`GateKind`] of gate `g`;
//! * `pins[pin_offsets[g] .. pin_offsets[g + 1]]` — gate `g`'s input
//!   gate indices, contiguous in one flat arena (CSR row `g`);
//! * `order` — the full levelized evaluation order;
//!   `eval_order` — the same order with `Input`/`Dff` sources removed,
//!   so evaluation loops carry no per-gate kind dispatch for sources;
//! * `levels[g]` / `topo_pos[g]` — gate level and position within
//!   `order` (the inverse permutation), used by incremental fault
//!   propagation to walk fanout cones in dependency order;
//! * `fan[fan_offsets[g] .. fan_offsets[g + 1]]` — gate `g`'s direct
//!   consumers (fanout CSR), computed once at compile time instead of
//!   per [`Netlist::fanout`] call;
//! * `pis` / `po_drivers` / `is_po` / `dffs` / `dff_d` — primary inputs,
//!   output driver gates, an output-driver membership mask, DFF gates
//!   and each DFF's `D`-input gate.
//!
//! Evaluation kernels come in three value domains (64-way packed `u64`
//! words, `bool`, four-valued [`Logic`]) and fold directly over the CSR
//! pin slice — no `buf.clear()/extend()` per gate. A `*_pin_forced`
//! variant substitutes one input pin, which is how pin stuck-at faults
//! are injected without touching the arena.

use crate::codec::{put_bits, put_len, put_u32s, take_bits, take_len, take_u32s};
use crate::error::SimError;
use crate::logic::Logic;
use crate::sweep::SweepPlan;
use crate::wide::SimWord;
use rescue_netlist::{GateId, GateKind, Netlist, NetlistError};

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
    /// Level-blocked sweep schedule, present when the arena is levelized
    /// (gate ids ascend with logic level, the [`rescue_netlist`]
    /// `renumber::levelized` contract). **Derived state**: recomputed
    /// identically by [`CompiledNetlist::try_new`] and
    /// [`CompiledNetlist::from_bytes`], never serialized, so the wire
    /// format and content hashes are independent of it.
    sweep: Option<SweepPlan>,
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
        let lv = netlist.levelize();

        let mut kinds = Vec::with_capacity(n);
        let mut pin_offsets = Vec::with_capacity(n + 1);
        let mut pins = Vec::new();
        pin_offsets.push(0);
        for (_, g) in netlist.iter() {
            kinds.push(g.kind());
            pins.extend(g.inputs().iter().map(|p| p.index() as u32));
            pin_offsets.push(pins.len() as u32);
        }

        let order: Vec<u32> = lv.order().iter().map(|g| g.index() as u32).collect();
        let mut topo_pos = vec![0u32; n];
        for (pos, &g) in order.iter().enumerate() {
            topo_pos[g as usize] = pos as u32;
        }
        let eval_order: Vec<u32> = order
            .iter()
            .copied()
            .filter(|&g| !matches!(kinds[g as usize], GateKind::Input | GateKind::Dff))
            .collect();
        let levels: Vec<u32> = (0..n).map(|i| lv.level(GateId(i))).collect();

        // Fanout CSR via counting sort over the pin arena.
        let mut fan_counts = vec![0u32; n];
        for &p in &pins {
            fan_counts[p as usize] += 1;
        }
        let mut fan_offsets = Vec::with_capacity(n + 1);
        fan_offsets.push(0u32);
        for g in 0..n {
            fan_offsets.push(fan_offsets[g] + fan_counts[g]);
        }
        let mut fan = vec![0u32; pins.len()];
        let mut cursor: Vec<u32> = fan_offsets[..n].to_vec();
        for g in 0..n {
            for &p in &pins[pin_offsets[g] as usize..pin_offsets[g + 1] as usize] {
                fan[cursor[p as usize] as usize] = g as u32;
                cursor[p as usize] += 1;
            }
        }

        let pis: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|g| g.index() as u32)
            .collect();
        let po_drivers: Vec<u32> = netlist
            .primary_outputs()
            .iter()
            .map(|(_, g)| g.index() as u32)
            .collect();
        let mut is_po = vec![false; n];
        for &g in &po_drivers {
            is_po[g as usize] = true;
        }
        let comb_fan_degree: Vec<u32> = (0..n)
            .map(|g| {
                fan[fan_offsets[g] as usize..fan_offsets[g + 1] as usize]
                    .iter()
                    .filter(|&&s| kinds[s as usize] != GateKind::Dff)
                    .count() as u32
            })
            .collect();

        let dffs: Vec<u32> = netlist.dffs().iter().map(|g| g.index() as u32).collect();
        let dff_d: Vec<u32> = netlist
            .dffs()
            .iter()
            .map(|&d| netlist.gate(d).inputs()[0].index() as u32)
            .collect();

        let mut c = CompiledNetlist {
            kinds,
            pin_offsets,
            pins,
            order,
            eval_order,
            levels,
            topo_pos,
            pis,
            po_drivers,
            is_po,
            dffs,
            dff_d,
            fan_offsets,
            fan,
            comb_fan_degree,
            depth: lv.depth(),
            sweep: None,
        };
        c.sweep = c.derive_sweep();
        Ok(c)
    }

    /// Builds the level-blocked sweep schedule when the arena is
    /// levelized (levels nondecreasing over gate ids — guaranteed after
    /// `renumber::levelized`, the opt-in hook). Non-levelized arenas
    /// keep the gate-order kernels: the sweep would still be correct but
    /// its SoA runs would gather from scattered ids, defeating the
    /// locality the level blocking buys.
    fn derive_sweep(&self) -> Option<SweepPlan> {
        // Decoded arenas reach this only after `validate`, so every index
        // the plan build reads is in range.
        if !self.is_empty() && self.levels.windows(2).all(|w| w[0] <= w[1]) {
            Some(SweepPlan::build(self))
        } else {
            None
        }
    }

    /// Whether the arena is one [`CompiledNetlist::try_new`] could have
    /// built: the check [`CompiledNetlist::from_bytes`] applies before
    /// it returns a decoded arena, linear in gates + pins. It holds when
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
    /// tell a consistent arena of another design from this one; the
    /// artifact envelope's checksum and content key cover that.
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

    /// The derived sweep schedule, when the arena is levelized.
    pub fn sweep_plan(&self) -> Option<&SweepPlan> {
        self.sweep.as_ref()
    }

    /// Forces the sweep kernels off (or re-derives them): the ablation
    /// hook benches use to time gate-order vs. level-blocked execution
    /// on the same arena. No effect on results — both paths are
    /// byte-identical.
    pub fn set_sweep(&mut self, enabled: bool) {
        self.sweep = if enabled { self.derive_sweep() } else { None };
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

    fn check_width(&self, found: usize) -> Result<(), SimError> {
        if found != self.pis.len() {
            return Err(SimError::InputWidthMismatch {
                expected: self.pis.len(),
                found,
            });
        }
        Ok(())
    }

    /// Evaluates gate `g` over one packed pattern word (64 lanes for
    /// `u64`, `64 * W` for [`crate::wide::PackedWord`]) from `values`.
    /// `Dff` evaluates to the all-zero word; `Input` is the caller's job.
    /// Dispatches through the sweep fast descriptors when the arena is
    /// levelized (same result, no CSR fold).
    #[inline]
    pub fn eval_word<Wd: SimWord>(&self, g: usize, values: &[Wd]) -> Wd {
        match &self.sweep {
            Some(plan) => plan.eval_gate(self, g, values),
            None => self.eval_word_generic(g, values),
        }
    }

    /// The CSR-fold gate evaluation the sweep fast path falls back to
    /// for shapes without a dedicated kernel.
    #[inline]
    pub(crate) fn eval_word_generic<Wd: SimWord>(&self, g: usize, values: &[Wd]) -> Wd {
        eval_word_from(
            self.kinds[g],
            self.pins_of(g).iter().map(|&p| values[p as usize]),
        )
    }

    /// Like [`CompiledNetlist::eval_word`] with input pin `pin` replaced
    /// by `word` — the pin stuck-at injection primitive.
    #[inline]
    pub fn eval_word_pin_forced<Wd: SimWord>(
        &self,
        g: usize,
        values: &[Wd],
        pin: usize,
        word: Wd,
    ) -> Wd {
        match &self.sweep {
            Some(plan) => plan.eval_gate_pin_forced(self, g, values, pin, word),
            None => self.eval_word_pin_forced_generic(g, values, pin, word),
        }
    }

    /// CSR-fold form of [`CompiledNetlist::eval_word_pin_forced`].
    #[inline]
    pub(crate) fn eval_word_pin_forced_generic<Wd: SimWord>(
        &self,
        g: usize,
        values: &[Wd],
        pin: usize,
        word: Wd,
    ) -> Wd {
        eval_word_from(
            self.kinds[g],
            self.pins_of(g).iter().enumerate().map(|(i, &p)| {
                if i == pin {
                    word
                } else {
                    values[p as usize]
                }
            }),
        )
    }

    /// Evaluates gate `g` two-valued. `Dff` evaluates to `false`.
    #[inline]
    pub fn eval_bool(&self, g: usize, values: &[bool]) -> bool {
        eval_bool_from(
            self.kinds[g],
            self.pins_of(g).iter().map(|&p| values[p as usize]),
        )
    }

    /// Like [`CompiledNetlist::eval_bool`] with input pin `pin` replaced
    /// by `value`.
    #[inline]
    pub fn eval_bool_pin_forced(&self, g: usize, values: &[bool], pin: usize, value: bool) -> bool {
        eval_bool_from(
            self.kinds[g],
            self.pins_of(g).iter().enumerate().map(|(i, &p)| {
                if i == pin {
                    value
                } else {
                    values[p as usize]
                }
            }),
        )
    }

    /// Evaluates gate `g` four-valued. `Dff` evaluates to `X`.
    #[inline]
    pub fn eval_logic(&self, g: usize, values: &[Logic]) -> Logic {
        eval_logic_from(
            self.kinds[g],
            self.pins_of(g).iter().map(|&p| values[p as usize]),
        )
    }

    /// Full packed evaluation into a reusable buffer (cleared and
    /// resized), one word of [`SimWord::LANES`] patterns per gate.
    /// `input_words[i]` carries primary input `i`; DFF outputs evaluate
    /// to all-zero words. Optionally forces one gate's output word (the
    /// stuck-at-output injection hook).
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] on word-count mismatch.
    pub fn eval_words_into<Wd: SimWord>(
        &self,
        input_words: &[Wd],
        force: Option<(u32, Wd)>,
        values: &mut Vec<Wd>,
    ) -> Result<(), SimError> {
        self.check_width(input_words.len())?;
        values.clear();
        values.resize(self.len(), Wd::ZERO);
        self.eval_words_fill_inner(input_words, force, values);
        Ok(())
    }

    /// Slice form of [`CompiledNetlist::eval_words_into`] for reusable
    /// flat arenas: no clear/resize, `values` must already hold exactly
    /// [`CompiledNetlist::len`] words. Every gate is overwritten (PIs
    /// from `input_words`, DFF outputs to zero, the rest by evaluation),
    /// so stale contents never leak — the zero-allocation golden-chunk
    /// path depends on this.
    ///
    /// # Errors
    ///
    /// [`SimError::InputWidthMismatch`] on word-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != self.len()`.
    pub fn eval_words_fill<Wd: SimWord>(
        &self,
        input_words: &[Wd],
        force: Option<(u32, Wd)>,
        values: &mut [Wd],
    ) -> Result<(), SimError> {
        self.check_width(input_words.len())?;
        assert_eq!(values.len(), self.len(), "value arena width mismatch");
        self.eval_words_fill_inner(input_words, force, values);
        Ok(())
    }

    /// Shared full-evaluation body: sources first, then the sweep
    /// schedule when available (unforced only — forcing needs the
    /// gate-major site check) or the gate-order walk.
    fn eval_words_fill_inner<Wd: SimWord>(
        &self,
        input_words: &[Wd],
        force: Option<(u32, Wd)>,
        values: &mut [Wd],
    ) {
        for (i, &pi) in self.pis.iter().enumerate() {
            values[pi as usize] = input_words[i];
        }
        for &d in &self.dffs {
            values[d as usize] = Wd::ZERO;
        }
        match force {
            None => match &self.sweep {
                Some(plan) => plan.eval_sweep(self, values),
                None => {
                    for &g in &self.eval_order {
                        let v = self.eval_word(g as usize, values);
                        values[g as usize] = v;
                    }
                }
            },
            Some((site, word)) => {
                // Sources are outside eval_order; force them up front.
                if matches!(self.kinds[site as usize], GateKind::Input | GateKind::Dff) {
                    values[site as usize] = word;
                }
                for &g in &self.eval_order {
                    let v = if g == site {
                        word
                    } else {
                        self.eval_word(g as usize, values)
                    };
                    values[g as usize] = v;
                }
            }
        }
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
        self.check_width(inputs.len())?;
        if state.len() != self.dffs.len() {
            return Err(SimError::StateWidthMismatch {
                expected: self.dffs.len(),
                found: state.len(),
            });
        }
        values.clear();
        values.resize(self.len(), false);
        for (i, &pi) in self.pis.iter().enumerate() {
            values[pi as usize] = inputs[i];
        }
        for (i, &dff) in self.dffs.iter().enumerate() {
            values[dff as usize] = state[i];
        }
        for &g in &self.eval_order {
            let v = self.eval_bool(g as usize, values);
            values[g as usize] = v;
        }
        Ok(())
    }

    // --- compiled-artifact wire format ----------------------------------

    /// Serializes the full compiled arena for the artifact cache.
    ///
    /// Every derived field (levelization, CSRs, orders) is dumped
    /// verbatim, so a cache hit deserializes with zero levelization or
    /// CSR-construction work. Little-endian, versioned; gate kinds use
    /// the frozen [`GateKind::wire_code`] table.
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

    /// Deserializes [`CompiledNetlist::to_bytes`] output.
    ///
    /// Returns `None` on version mismatch, malformed input or an arena
    /// that fails [`CompiledNetlist::validate`] — a corrupt cache entry
    /// must fall back to recompiling, never panic or mis-simulate.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut off = 0usize;
        if *bytes.get(off)? != WIRE_VERSION {
            return None;
        }
        off += 1;
        let depth = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?);
        off += 4;
        let n = take_len(bytes, &mut off)?;
        // One byte per kind: the prefix can never exceed the remaining
        // payload, so corrupt input cannot trigger a huge allocation.
        if n > bytes.len() - off {
            return None;
        }
        let mut kinds = Vec::with_capacity(n);
        for _ in 0..n {
            kinds.push(GateKind::from_wire_code(*bytes.get(off)?)?);
            off += 1;
        }
        let pin_offsets = take_u32s(bytes, &mut off)?;
        let pins = take_u32s(bytes, &mut off)?;
        let order = take_u32s(bytes, &mut off)?;
        let eval_order = take_u32s(bytes, &mut off)?;
        let levels = take_u32s(bytes, &mut off)?;
        let topo_pos = take_u32s(bytes, &mut off)?;
        let pis = take_u32s(bytes, &mut off)?;
        let po_drivers = take_u32s(bytes, &mut off)?;
        let dffs = take_u32s(bytes, &mut off)?;
        let dff_d = take_u32s(bytes, &mut off)?;
        let fan_offsets = take_u32s(bytes, &mut off)?;
        let fan = take_u32s(bytes, &mut off)?;
        let comb_fan_degree = take_u32s(bytes, &mut off)?;
        let is_po = take_bits(bytes, &mut off)?;
        if off != bytes.len() {
            return None;
        }
        let mut c = CompiledNetlist {
            kinds,
            pin_offsets,
            pins,
            order,
            eval_order,
            levels,
            topo_pos,
            pis,
            po_drivers,
            is_po,
            dffs,
            dff_d,
            fan_offsets,
            fan,
            comb_fan_degree,
            depth,
            sweep: None,
        };
        if !c.validate() {
            return None;
        }
        // The sweep schedule is derived, not serialized: recompute it so
        // a cache hit behaves exactly like a fresh compile.
        c.sweep = c.derive_sweep();
        Some(c)
    }
}

const WIRE_VERSION: u8 = 1;

/// Word-domain gate function over an input iterator, generic over the
/// packed lane width. `Dff` yields the all-zero word (the packed-pattern
/// convention); `Input` has no combinational function.
///
/// # Panics
///
/// Panics on `GateKind::Input`.
#[inline]
pub fn eval_word_from<Wd: SimWord, I: Iterator<Item = Wd>>(kind: GateKind, mut ins: I) -> Wd {
    match kind {
        GateKind::Const0 => Wd::ZERO,
        GateKind::Const1 => Wd::ONES,
        GateKind::Buf => ins.next().unwrap(),
        GateKind::Not => !ins.next().unwrap(),
        GateKind::And => ins.fold(Wd::ONES, |a, b| a & b),
        GateKind::Nand => !ins.fold(Wd::ONES, |a, b| a & b),
        GateKind::Or => ins.fold(Wd::ZERO, |a, b| a | b),
        GateKind::Nor => !ins.fold(Wd::ZERO, |a, b| a | b),
        GateKind::Xor => ins.fold(Wd::ZERO, |a, b| a ^ b),
        GateKind::Xnor => !ins.fold(Wd::ZERO, |a, b| a ^ b),
        GateKind::Mux => {
            let s = ins.next().unwrap();
            let a = ins.next().unwrap();
            let b = ins.next().unwrap();
            (!s & a) | (s & b)
        }
        GateKind::Dff => Wd::ZERO,
        GateKind::Input => panic!("eval_word_from called on an Input gate"),
    }
}

/// Bool-domain gate function over an input iterator. `Dff` yields
/// `false`; `Input` has no combinational function.
///
/// # Panics
///
/// Panics on `GateKind::Input`.
#[inline]
pub fn eval_bool_from<I: Iterator<Item = bool>>(kind: GateKind, mut ins: I) -> bool {
    match kind {
        GateKind::Const0 => false,
        GateKind::Const1 => true,
        GateKind::Buf => ins.next().unwrap(),
        GateKind::Not => !ins.next().unwrap(),
        GateKind::And => ins.all(|b| b),
        GateKind::Nand => !ins.all(|b| b),
        GateKind::Or => ins.any(|b| b),
        GateKind::Nor => !ins.any(|b| b),
        GateKind::Xor => ins.fold(false, |a, b| a ^ b),
        GateKind::Xnor => !ins.fold(false, |a, b| a ^ b),
        GateKind::Mux => {
            let s = ins.next().unwrap();
            let a = ins.next().unwrap();
            let b = ins.next().unwrap();
            if s {
                b
            } else {
                a
            }
        }
        GateKind::Dff => false,
        GateKind::Input => panic!("eval_bool_from called on an Input gate"),
    }
}

/// Four-valued gate function over an input iterator. `Dff` yields `X`;
/// `Input` has no combinational function.
///
/// # Panics
///
/// Panics on `GateKind::Input`.
#[inline]
pub fn eval_logic_from<I: Iterator<Item = Logic>>(kind: GateKind, mut ins: I) -> Logic {
    match kind {
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Buf => ins.next().unwrap(),
        GateKind::Not => !ins.next().unwrap(),
        GateKind::And => ins.fold(Logic::One, Logic::and),
        GateKind::Nand => !ins.fold(Logic::One, Logic::and),
        GateKind::Or => ins.fold(Logic::Zero, Logic::or),
        GateKind::Nor => !ins.fold(Logic::Zero, Logic::or),
        GateKind::Xor => ins.fold(Logic::Zero, Logic::xor),
        GateKind::Xnor => !ins.fold(Logic::Zero, Logic::xor),
        GateKind::Mux => {
            let s = ins.next().unwrap();
            let a = ins.next().unwrap();
            let b = ins.next().unwrap();
            match s.to_bool() {
                Some(false) => a,
                Some(true) => b,
                None => {
                    if a == b && !a.is_unknown() {
                        a
                    } else {
                        Logic::X
                    }
                }
            }
        }
        GateKind::Dff => Logic::X,
        GateKind::Input => panic!("eval_logic_from called on an Input gate"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{eval_gate, eval_gate_bool, eval_gate_word};
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
        let net = generate::random_logic(6, 50, 3, 11);
        let c = CompiledNetlist::new(&net);
        let fo = net.fanout();
        for (g, fan) in fo.iter().enumerate() {
            let mut a: Vec<u32> = c.fanout_of(g).to_vec();
            let mut b: Vec<u32> = fan.iter().map(|x| x.index() as u32).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "gate {g}");
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
    fn kernels_agree_with_slice_kernels() {
        use rescue_netlist::GateKind::*;
        for kind in [And, Nand, Or, Nor, Xor, Xnor] {
            for a in [false, true] {
                for b in [false, true] {
                    let ins = [a, b];
                    assert_eq!(
                        eval_bool_from(kind, ins.iter().copied()),
                        eval_gate_bool(kind, &ins)
                    );
                    let words = [if a { u64::MAX } else { 0 }, if b { u64::MAX } else { 0 }];
                    assert_eq!(
                        eval_word_from(kind, words.iter().copied()),
                        eval_gate_word(kind, &words)
                    );
                    let logics = [Logic::from_bool(a), Logic::from_bool(b)];
                    assert_eq!(
                        eval_logic_from(kind, logics.iter().copied()),
                        eval_gate(kind, &logics)
                    );
                }
            }
        }
        // Mux X-select resolution matches the reference kernel.
        for sel in [Logic::Zero, Logic::One, Logic::X, Logic::Z] {
            for a in [Logic::Zero, Logic::One, Logic::X] {
                for b in [Logic::Zero, Logic::One, Logic::X] {
                    let ins = [sel, a, b];
                    assert_eq!(
                        eval_logic_from(Mux, ins.iter().copied()),
                        eval_gate(Mux, &ins),
                        "{ins:?}"
                    );
                }
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
        c.eval_words_into(&words, None, &mut values).unwrap();
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
            c.eval_words_into(&[0; 3], None, &mut buf),
            Err(SimError::InputWidthMismatch {
                expected: 5,
                found: 3
            })
        ));
    }

    #[test]
    fn sweep_engages_only_on_levelized_arenas_and_matches_gate_order() {
        let net = generate::random_logic(8, 300, 4, 9);
        let (lev, _) = rescue_netlist::renumber::levelized(&net);
        let mut c = CompiledNetlist::new(&lev);
        assert!(c.sweep_plan().is_some(), "levelized ids select the sweep");
        let words: Vec<u64> = (0..8)
            .map(|i| 0xdeadbeefcafef00du64.rotate_left(i))
            .collect();
        let mut swept = Vec::new();
        c.eval_words_into(&words, None, &mut swept).unwrap();
        c.set_sweep(false);
        assert!(c.sweep_plan().is_none());
        let mut gate_order = Vec::new();
        c.eval_words_into(&words, None, &mut gate_order).unwrap();
        assert_eq!(swept, gate_order, "sweep must be byte-identical");
        c.set_sweep(true);
        assert!(c.sweep_plan().is_some(), "toggle re-derives the plan");
        // The slice variant fills a dirty arena to the same bytes.
        let mut arena = vec![u64::MAX; c.len()];
        c.eval_words_fill(&words, None, &mut arena).unwrap();
        assert_eq!(arena, gate_order);
    }

    #[test]
    fn decoded_arena_rederives_the_sweep() {
        let (lev, _) = rescue_netlist::renumber::levelized(&generate::random_logic(7, 250, 3, 4));
        let c = CompiledNetlist::new(&lev);
        let back = CompiledNetlist::from_bytes(&c.to_bytes()).expect("decode");
        assert!(back.sweep_plan().is_some(), "cache hits keep the sweep");
        assert_eq!(c, back);
    }

    #[test]
    fn wire_format_round_trips() {
        for net in [
            generate::c17(),
            generate::random_logic(8, 300, 4, 9),
            generate::control_fsm(),
        ] {
            let c = CompiledNetlist::new(&net);
            let bytes = c.to_bytes();
            let back = CompiledNetlist::from_bytes(&bytes).expect("decode");
            assert_eq!(c, back, "round trip must be lossless for {}", net.name());
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
            assert!(
                CompiledNetlist::from_bytes(&bad.to_bytes()).is_none(),
                "{what} decoded"
            );
        }
    }

    #[test]
    fn wire_format_rejects_corruption() {
        let c = CompiledNetlist::new(&generate::c17());
        let bytes = c.to_bytes();
        assert!(CompiledNetlist::from_bytes(&[]).is_none());
        assert!(CompiledNetlist::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 0xff;
        assert!(CompiledNetlist::from_bytes(&wrong_version).is_none());
        let mut bad_kind = bytes.clone();
        // First kind byte sits after version(1) + depth(4) + len(8).
        bad_kind[13] = 0xee;
        assert!(CompiledNetlist::from_bytes(&bad_kind).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CompiledNetlist::from_bytes(&trailing).is_none());
    }
}
