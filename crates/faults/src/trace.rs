//! Critical-path tracing / cone-walk hybrid observability.
//!
//! [`CampaignPlan::observability_packed`] pays one event-driven walk
//! per *live site* per pattern word. Critical-path tracing (CPT) inverts
//! the direction: instead of pushing a flip forward from every site, it
//! pulls observability backward from the primary outputs, so every net of
//! a fanout-free region (FFR) gets its observability word from **one
//! AND** with a per-edge sensitization word — no walk at all.
//!
//! The per-edge sensitization is exact and costs one gate evaluation:
//! for a net `g` whose only combinational consumer is gate `c` via pin
//! `j`,
//!
//! ```text
//! sens(c, j) = eval(c, golden with pin j forced to !golden[g]) ^ golden[c]
//! obs[g]     = obs[c] & sens(c, j)
//! ```
//!
//! Lane `p` of `sens` is set iff flipping `g` on pattern `p` flips `c`;
//! because `g` has no other combinational path to an output, a flip of
//! `g` reaches an output exactly when it flips `c` *and* a flip of `c`
//! reaches an output. By induction over the reverse topological order
//! this makes `obs[g]` exact everywhere tracing applies:
//!
//! * **`Po`** — `g` directly drives a primary output: flipping `g` flips
//!   that output on every lane, `obs = ONES` (exact even with extra
//!   fanout).
//! * **`Dead`** — no combinational consumer and not an output: within a
//!   chunk the flip dies at the DFF `D`-pins (packed words evaluate DFF
//!   outputs to zero), `obs = ZERO`.
//! * **`Chain`** — exactly one combinational fanout edge: the AND above.
//! * **`Stem`** — two or more combinational fanout edges: the branches
//!   may *reconverge* downstream, where single-path tracing is no longer
//!   exact (two wrongs can re-cancel). Here the hybrid falls back to the
//!   existing exact event-driven walk
//!   ([`CampaignPlan::observability_packed`]) — once per stem per chunk,
//!   **shared by every fault in the FFR below it** — so the hybrid is
//!   bit-identical to the walking engine by construction.
//!
//! The fallback is the levelized event walk of the walking engine: it
//! queues changed gates by level and needs no memoized cone, so a
//! [`TracePlan`] is `O(gates)` — the packed class words, the
//! PO-reachability bitmap and the planned-root bitmap. [`TracePlan::build`]
//! counts the stems the fault list's chain ascents reach with an
//! `O(gates)` memoized ascent. Per chunk, observability words are
//! memoized per net in [`TraceScratch`] (epoch-tagged, no clearing
//! cost), so all faults a worker holds share each traced net and each
//! stem walk.
//!
//! Equivalence with the full-resimulation oracle ([`crate::reference`])
//! is enforced by the property tests in `tests/cpt_equivalence.rs`.

use crate::engine::{po_reachable, CampaignPlan, WideScratch};
use crate::error::FaultError;
use crate::model::Fault;
use rescue_netlist::GateKind;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::SimWord;
use rescue_telemetry::span;

/// Structural observability class of one net, from the compiled
/// netlist's combinational fanout-degree metadata
/// ([`CompiledNetlist::comb_fanout_degree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetClass {
    /// Drives a primary output directly: `obs = ONES`.
    Po,
    /// No combinational consumer and not an output: `obs = ZERO`.
    Dead,
    /// Exactly one combinational fanout edge, into `consumer`'s input
    /// pin `pin`: `obs = obs[consumer] & sens(consumer, pin)`.
    Chain {
        /// The single combinational consumer gate.
        consumer: u32,
        /// Which of the consumer's input pins this net drives.
        pin: u32,
    },
    /// Two or more combinational fanout edges (possible reconvergence):
    /// observability comes from the exact event-driven fallback walk.
    Stem,
}

/// The per-net structural classes, the PO-reachability bitmap and the
/// fault-site roots of one campaign's fault list, built once per
/// campaign and shared read-only by all workers.
///
/// Classes are stored packed (one `u64` per net: 2-bit tag + chain
/// consumer/pin fields) so the million-gate class arena is one
/// contiguous 8-byte-per-net array instead of a 12-byte tagged enum —
/// decoding is two shifts on access.
#[derive(Debug, Clone)]
pub struct TracePlan {
    class: Vec<u64>,
    /// Per gate: whether a flip of the gate can reach a primary output.
    reachable: Vec<bool>,
    /// Per gate: whether the gate is a fault-site root of the build list.
    planned: Vec<bool>,
    stems: usize,
    statically_traced: usize,
}

/// 2-bit class tags of the packed per-net encoding.
const TAG_PO: u64 = 0;
const TAG_DEAD: u64 = 1;
const TAG_CHAIN: u64 = 2;
const TAG_STEM: u64 = 3;

#[inline]
fn encode_class(c: NetClass) -> u64 {
    match c {
        NetClass::Po => TAG_PO,
        NetClass::Dead => TAG_DEAD,
        NetClass::Chain { consumer, pin } => {
            TAG_CHAIN | ((consumer as u64) << 2) | ((pin as u64) << 34)
        }
        NetClass::Stem => TAG_STEM,
    }
}

#[inline]
fn decode_class(w: u64) -> NetClass {
    match w & 3 {
        TAG_PO => NetClass::Po,
        TAG_DEAD => NetClass::Dead,
        TAG_CHAIN => NetClass::Chain {
            consumer: (w >> 2) as u32,
            pin: (w >> 34) as u32,
        },
        _ => NetClass::Stem,
    }
}

/// Structural class of one net — a pure function of the compiled CSR.
fn classify_gate(compiled: &CompiledNetlist, g: usize) -> u64 {
    if compiled.is_po(g) {
        return TAG_PO;
    }
    encode_class(match compiled.comb_fanout_degree(g) {
        0 => NetClass::Dead,
        1 => {
            let consumer = *compiled
                .fanout_of(g)
                .iter()
                .find(|&&s| compiled.kind(s as usize) != GateKind::Dff)
                .expect("degree 1 implies one combinational consumer");
            let pin = compiled
                .pins_of(consumer as usize)
                .iter()
                .position(|&p| p == g as u32)
                .expect("fanout edge has a matching pin") as u32;
            NetClass::Chain { consumer, pin }
        }
        _ => NetClass::Stem,
    })
}

/// Classifies every net, in id order.
fn classify_all(compiled: &CompiledNetlist) -> Vec<u64> {
    let n = compiled.len();
    let _span = span!("plan.classify", gates = n);
    (0..n).map(|g| classify_gate(compiled, g)).collect()
}

impl TracePlan {
    /// Classifies every net, records the fault-site roots and counts the
    /// stems the chain ascents of `faults` terminate at, in `O(gates)`
    /// with a shared memo. No cone is built: the stem fallback walk
    /// queues its events by level. A fault past the last gate plans
    /// nothing and counts as statically traced: no walk answers it.
    pub fn build(compiled: &CompiledNetlist, faults: &[Fault]) -> Self {
        let _span = span!("plan.build", faults = faults.len());
        let n = compiled.len();
        let class = classify_all(compiled);

        // Memoized chain ascent from every fault root: terminal class 1
        // (`Po`/`Dead`/unreachable — fully traced, never needs a walk)
        // or 2 (terminates at a reconvergent stem). Each net is resolved
        // once, so the sweep is O(gates) for any fault-list size.
        let reachable = po_reachable(compiled);
        let mut planned = vec![false; n];
        let mut term = vec![0u8; n];
        let mut path: Vec<u32> = Vec::new();
        let mut stems = 0usize;
        let mut statically_traced = 0usize;
        for fault in faults {
            let root = fault.site().gate().index();
            if root >= n {
                statically_traced += 1;
                continue;
            }
            planned[root] = true;
            let mut g = root;
            let t = loop {
                if term[g] != 0 {
                    break term[g];
                }
                if !reachable[g] {
                    break 1; // obs is ZERO without tracing or walking
                }
                match decode_class(class[g]) {
                    NetClass::Chain { consumer, .. } => {
                        path.push(g as u32);
                        g = consumer as usize;
                    }
                    NetClass::Stem => {
                        stems += 1;
                        break 2;
                    }
                    NetClass::Po | NetClass::Dead => break 1,
                }
            };
            term[g] = t;
            for p in path.drain(..) {
                term[p as usize] = t;
            }
            if t == 1 {
                statically_traced += 1;
            }
        }
        TracePlan {
            class,
            reachable,
            planned,
            stems,
            statically_traced,
        }
    }

    /// The structural class of net `g`.
    #[inline]
    pub fn class_of(&self, g: usize) -> NetClass {
        decode_class(self.class[g])
    }

    /// Whether gate `g` is a fault-site root of the list this plan was
    /// built from.
    #[inline]
    pub fn planned(&self, g: usize) -> bool {
        self.planned[g]
    }

    /// Whether a flip of gate `g` can reach a primary output (computed
    /// for every gate at build time).
    #[inline]
    pub fn po_reachable_gate(&self, g: usize) -> bool {
        self.reachable[g]
    }

    /// Reconvergent stems the fault list's chain ascents terminate at
    /// (the nets whose observability needs the fallback walk).
    pub fn stems(&self) -> usize {
        self.stems
    }

    /// Faults of the build list whose detection never needs an
    /// event-driven walk: their chain ascent ends at a `Po`/`Dead` net
    /// or leaves the PO-reachable region.
    pub fn statically_traced(&self) -> usize {
        self.statically_traced
    }

    /// Observability word of net `root`, memoized per chunk: chain
    /// ascent to the first memoized/terminal net, then one sensitization
    /// AND per descended link (skipped entirely once the word is all
    /// zero — it can only shrink).
    fn obs_of<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut TraceScratch<Wd>,
        root: usize,
    ) -> Wd {
        debug_assert!(scratch.path.is_empty());
        let mut g = root;
        let mut val = loop {
            if scratch.obs_epoch[g] == scratch.epoch {
                break scratch.obs[g];
            }
            match decode_class(self.class[g]) {
                NetClass::Chain { consumer, .. } => {
                    scratch.path.push(g as u32);
                    g = consumer as usize;
                }
                NetClass::Po => {
                    scratch.memoize(g, Wd::ONES);
                    scratch.inner.counters.traced_nets += 1;
                    break Wd::ONES;
                }
                NetClass::Dead => {
                    scratch.memoize(g, Wd::ZERO);
                    scratch.inner.counters.traced_nets += 1;
                    break Wd::ZERO;
                }
                NetClass::Stem => {
                    let w = scratch
                        .inner
                        .observability(compiled, &self.reachable, golden, g);
                    scratch.memoize(g, w);
                    scratch.inner.counters.stem_fallbacks += 1;
                    break w;
                }
            }
        };
        while let Some(gc) = scratch.path.pop() {
            let gi = gc as usize;
            if !val.is_zero() {
                let NetClass::Chain { consumer, pin } = decode_class(self.class[gi]) else {
                    unreachable!("only chain nets are pushed on the ascent path");
                };
                let c = consumer as usize;
                let sens =
                    compiled.eval_pin_forced(c, golden, pin as usize, !golden[gi]) ^ golden[c];
                val &= sens;
            }
            scratch.memoize(gi, val);
            scratch.inner.counters.traced_nets += 1;
        }
        val
    }

    /// Hybrid CPT detection mask of `fault` over the chunk whose golden
    /// values are `golden`: bit-identical to
    /// [`CampaignPlan::detect_packed`] (and hence to the oracle),
    /// but observability comes from backward tracing wherever the net
    /// sits in a fanout-free region, with the event-driven walk reserved
    /// for reconvergent stems — one per stem per chunk, shared by the
    /// whole FFR below it.
    ///
    /// `scratch` must have seen [`TraceScratch::load_golden`] (or
    /// [`TraceScratch::load_chunk`]) for this chunk, so its per-net memo
    /// belongs to this chunk; the stem walks read `golden` in place.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnplannedSite`] when the fault's root was not in
    /// the list this plan was built from.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    pub fn detect_traced<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut TraceScratch<Wd>,
        fault: Fault,
    ) -> Result<Wd, FaultError> {
        scratch.inner.counters.faults_evaluated += 1;
        let root = fault.site().gate().index();
        if !self.planned[root] {
            return Err(FaultError::UnplannedSite { gate: root });
        }
        if !self.reachable[root] {
            return Ok(Wd::ZERO);
        }
        let excitation = CampaignPlan::excitation_word(compiled, golden, fault);
        if excitation.is_zero() {
            return Ok(Wd::ZERO); // not excited on any pattern of this chunk
        }
        scratch.inner.counters.excitations += 1;
        Ok(self.obs_of(compiled, golden, scratch, root) & excitation)
    }
}

/// Per-worker scratch for the hybrid tracer: the inner [`WideScratch`]
/// (walk values and stamps for the stem fallback walks) plus the
/// epoch-tagged per-net observability memo. Epoch tagging makes
/// [`TraceScratch::load_golden`] O(1) — no per-chunk memo clearing.
#[derive(Debug, Clone)]
pub struct TraceScratch<Wd: SimWord> {
    /// The wrapped walk scratch (public so campaigns can flush its
    /// [`crate::engine::ScratchCounters`]).
    pub inner: WideScratch<Wd>,
    obs: Vec<Wd>,
    obs_epoch: Vec<u32>,
    epoch: u32,
    /// Reusable chain-ascent stack.
    path: Vec<u32>,
}

impl<Wd: SimWord> TraceScratch<Wd> {
    /// Scratch for a design of `len` gates.
    pub fn new(len: usize) -> Self {
        TraceScratch {
            inner: WideScratch::new(len),
            obs: vec![Wd::ZERO; len],
            obs_epoch: vec![0; len],
            epoch: 0,
            path: Vec::new(),
        }
    }

    /// Starts a chunk whose golden values are `golden`: invalidates the
    /// per-net memo and the inner walk cache (call once per chunk, not
    /// per fault). Copies nothing.
    ///
    /// # Panics
    ///
    /// Panics when `golden` does not hold one word per gate.
    pub fn load_golden(&mut self, golden: &[Wd]) {
        self.inner.load_golden(golden);
        if self.epoch == u32::MAX {
            // Wraparound (once per 2^32 chunks): clear so stale epochs
            // can never alias.
            self.obs_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// [`TraceScratch::load_golden`] keyed by golden-chunk index: when
    /// `chunk` is the chunk already loaded, the epoch bump is skipped —
    /// so the per-net observability memo (including every stem fallback
    /// walk recorded in it) stays warm across all the fault ranges that
    /// share the chunk, not just within one. Sound because the memo is
    /// a pure function of the chunk's golden values.
    pub fn load_chunk(&mut self, chunk: u32, golden: &[Wd]) {
        debug_assert_ne!(chunk, u32::MAX, "u32::MAX is the untagged sentinel");
        if self.inner.loaded_chunk == chunk {
            return;
        }
        self.load_golden(golden);
        self.inner.loaded_chunk = chunk;
    }

    #[inline]
    fn memoize(&mut self, g: usize, word: Wd) {
        self.obs[g] = word;
        self.obs_epoch[g] = self.epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn classes_partition_the_design() {
        let net = generate::random_logic(8, 200, 4, 7);
        let compiled = CompiledNetlist::new(&net);
        let faults = crate::universe::stuck_at_universe(&net);
        let tplan = TracePlan::build(&compiled, &faults);
        for g in 0..compiled.len() {
            match tplan.class_of(g) {
                NetClass::Po => assert!(compiled.is_po(g)),
                NetClass::Dead => {
                    assert!(!compiled.is_po(g));
                    assert_eq!(compiled.comb_fanout_degree(g), 0);
                }
                NetClass::Chain { consumer, pin } => {
                    assert!(!compiled.is_po(g));
                    assert_eq!(compiled.comb_fanout_degree(g), 1);
                    assert_eq!(compiled.pins_of(consumer as usize)[pin as usize], g as u32);
                }
                NetClass::Stem => {
                    assert!(!compiled.is_po(g));
                    assert!(compiled.comb_fanout_degree(g) >= 2);
                }
            }
        }
        assert!(
            tplan.statically_traced() + tplan.stems() > 0,
            "a 200-gate random design exercises both paths"
        );
    }
}
