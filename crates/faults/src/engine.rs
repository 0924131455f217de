//! Packed single-fault detection over the compiled arena.
//!
//! The hot path of every stuck-at campaign is "given the chunk's golden
//! words, which patterns see this fault at an output?". The classic
//! answer re-simulates the whole netlist per fault; this engine answers
//! it with one levelized event walk per fault *site* and chunk, the
//! parallel-pattern single-fault propagation (PPSFP, Waicukauski et al.
//! 1985) of [`CampaignPlan::detect_packed`], built on three exact
//! reductions:
//!
//! * **Observability factoring** — bit lanes of word evaluation never
//!   interact, so one walk with the root *flipped on all lanes* computes,
//!   per lane, whether a root flip reaches a primary output (the
//!   observability word `O`). Every stuck-at fault at the site is then
//!   `O & excitation`, where the excitation word (lanes on which the
//!   fault actually flips the root) is one gate evaluation at most. sa0,
//!   sa1 and all pin faults of a site share a single walk.
//! * **Levelized event queue** — the walk pushes the fanouts of each
//!   changed gate into per-level buckets and drains the levels in
//!   ascending order, so it evaluates only gates with a changed fanin
//!   (typical walks change ~a dozen gates in a 500-gate cone). Levels
//!   strictly increase along combinational edges, so every gate is
//!   evaluated after all of its changed fanins. The walk stamps the root
//!   and every gate it evaluates with its walk id and reads an operand
//!   from its scratch only when the operand carries that stamp, from the
//!   shared golden chunk otherwise. An unstamped operand did not change,
//!   so the walk is exact without a private copy of the chunk: switching
//!   chunks copies nothing, and campaigns allocate nothing per fault.
//! * **Static observability pruning** — a site whose cone contains no
//!   primary output can never be detected; its faults are answered with
//!   `0` without any walk ([`CampaignPlan::observable`]). The same
//!   PO-reachability search ([`po_reachable`]) also keeps unobservable
//!   gates out of the event queue: gates that cannot reach an output
//!   cannot feed one either.
//!
//! Gates outside the combinational fanout cone cannot change (DFF
//! outputs hold 0 in packed word evaluation, so effects never cross a
//! sequential edge within a chunk), so verdicts equal full resimulation.
//! The walk is the only detection engine in the workspace: the walking
//! campaigns, the stem fallback of the tracing hybrid ([`crate::trace`])
//! and the observer-group classification walk
//! ([`CampaignPlan::detect_observed`]) all run it. Equivalence with the
//! full-resimulation oracle ([`crate::reference`]) is enforced by the
//! differential matrix in `tests/differential.rs` (campaigns), and for
//! one scratch reused across chunks by `tests/scratch_reuse.rs` (masks).

use crate::error::FaultError;
use crate::model::{Fault, FaultSite};
use rescue_netlist::GateKind;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::SimWord;
use rescue_telemetry::{metrics, span};
use std::time::Instant;

/// The per-campaign facts every detection path reads: which gates are
/// fault-site roots of the campaign's fault list, and which gates can
/// reach a primary output.
///
/// Built once per campaign ([`CampaignPlan::build`]) and shared
/// read-only by all workers; the per-fault state lives in
/// [`WideScratch`].
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Per gate: whether some fault of the plan's list sits at the gate.
    planned: Vec<bool>,
    /// Per gate: whether the gate's combinational fanout cone (or the
    /// gate itself) contains a primary output — [`po_reachable`], run
    /// once at build time.
    observable: Vec<bool>,
}

/// PO-reachability for every gate: a gate is reachable when it drives a
/// primary output or any non-DFF fanout is reachable, so a flip of its
/// value can reach an output within the cycle. One backward search from
/// the output drivers over pins that never expands a DFF (a flop's `D`
/// cone reaches nothing through it within the cycle), so it costs
/// O(cone) on top of the flag vector, not O(gates + edges).
///
/// [`CampaignPlan::build`] and the trace plan run it; exposed standalone
/// so campaign front-ends can prefilter a fault list (e.g.
/// collapsed-universe representatives) before building a plan.
pub fn po_reachable(compiled: &CompiledNetlist) -> Vec<bool> {
    let mut reachable = vec![false; compiled.len()];
    let mut stack: Vec<u32> = Vec::new();
    for &g in compiled.po_drivers() {
        if !std::mem::replace(&mut reachable[g as usize], true) {
            stack.push(g);
        }
    }
    while let Some(g) = stack.pop() {
        if compiled.kind(g as usize) == GateKind::Dff {
            continue;
        }
        for &p in compiled.pins_of(g as usize) {
            if !std::mem::replace(&mut reachable[p as usize], true) {
                stack.push(p);
            }
        }
    }
    reachable
}

/// The design's output cone: every gate with a path to a primary-output
/// driver through any pins, DFF `D` pins included, plus every primary
/// input, in ascending id order. It is closed under pins, so
/// [`CompiledNetlist::restrict`] evaluates it exactly as the design
/// does, and it holds every gate [`po_reachable`] marks: no fault
/// outside it can be detected. One reverse DFS over the pins of the
/// cone, plus one scan over the gates.
pub fn output_cone(compiled: &CompiledNetlist) -> Vec<u32> {
    let mut kept = vec![false; compiled.len()];
    let mut stack: Vec<u32> = Vec::new();
    let roots = compiled
        .po_drivers()
        .iter()
        .chain(compiled.primary_inputs());
    for &g in roots {
        if !std::mem::replace(&mut kept[g as usize], true) {
            stack.push(g);
        }
    }
    while let Some(g) = stack.pop() {
        for &p in compiled.pins_of(g as usize) {
            if !std::mem::replace(&mut kept[p as usize], true) {
                stack.push(p);
            }
        }
    }
    (0..compiled.len() as u32)
        .filter(|&g| kept[g as usize])
        .collect()
}

impl CampaignPlan {
    /// Marks every fault site of `faults` and searches PO reachability
    /// ([`po_reachable`]). A fault past the last gate plans nothing.
    pub fn build(compiled: &CompiledNetlist, faults: &[Fault]) -> Self {
        let _span = span!("plan.build", faults = faults.len());
        let t0 = Instant::now();
        let observable = po_reachable(compiled);
        let mut planned = vec![false; compiled.len()];
        for fault in faults {
            if let Some(p) = planned.get_mut(fault.site().gate().index()) {
                *p = true;
            }
        }
        if rescue_telemetry::enabled() {
            metrics::histogram("plan.build_us", &metrics::pow2_bounds(26))
                .record(t0.elapsed().as_micros() as u64);
        }
        CampaignPlan {
            planned,
            observable,
        }
    }

    /// Whether `root`'s combinational fanout cone (or `root` itself)
    /// contains a primary output. Faults at unobservable sites can never
    /// be detected, so the packed path answers them without a walk.
    ///
    /// # Panics
    ///
    /// Panics when `root` was not a fault-site root of this plan.
    #[inline]
    pub fn observable(&self, root: usize) -> bool {
        assert!(self.planned(root), "fault root missing from campaign plan");
        self.observable[root]
    }

    /// Whether gate `root` is a fault-site root of this plan. The packed
    /// detection paths report an unplanned root as
    /// [`FaultError::UnplannedSite`] instead of panicking.
    #[inline]
    pub fn planned(&self, root: usize) -> bool {
        self.planned[root]
    }

    /// Excitation word of `fault`: the patterns (bit `p`) on which the
    /// fault flips its root gate's output away from golden. At most one
    /// gate evaluation (pin faults); output faults are a compare. The
    /// reference engine never forces pins of source kinds (Input has no
    /// pins to evaluate, Dff outputs 0 regardless), so those never
    /// excite.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    #[inline]
    pub fn excitation_word<Wd: SimWord>(
        compiled: &CompiledNetlist,
        golden: &[Wd],
        fault: Fault,
    ) -> Wd {
        let stuck = fault
            .kind()
            .stuck_value()
            .expect("stuck-at campaign requires stuck-at faults");
        let word = Wd::splat(stuck);
        let root = fault.site().gate().index();
        let fault_value = match fault.site() {
            FaultSite::Output(_) => word,
            FaultSite::Pin { pin, .. } => match compiled.kind(root) {
                GateKind::Input | GateKind::Dff => golden[root],
                _ => compiled.eval_pin_forced(root, golden, pin, word),
            },
        };
        fault_value ^ golden[root]
    }

    /// Observability word of `root` over the chunk whose golden values
    /// are `golden`: bit `p` is set iff flipping `root`'s value on
    /// pattern `p` changes at least one primary output on pattern `p`.
    /// One levelized event walk with the root flipped on all lanes (see
    /// the module docs), over this plan's PO-reachability bitmap; the
    /// word is cached per `(chunk, root)` in the scratch.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnplannedSite`] when `root` was not a fault-site
    /// root of this plan.
    pub fn observability_packed<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut WideScratch<Wd>,
        root: usize,
    ) -> Result<Wd, FaultError> {
        if !self.planned(root) {
            return Err(FaultError::UnplannedSite { gate: root });
        }
        Ok(scratch.observability(compiled, &self.observable, golden, root))
    }

    /// PPSFP detection mask of `fault` over the chunk whose golden
    /// values are `golden`: bit `p` is set iff the fault changes a
    /// primary output on pattern `p`. One observability walk is shared
    /// across every fault of the site; unexcited faults and statically
    /// unobservable sites take no walk at all.
    ///
    /// Exactness: bit lanes of word evaluation are independent, so on
    /// every lane a stuck-at fault either leaves the root at golden (no
    /// output can change — the detection bit is 0) or flips it (the
    /// exact situation the all-lanes-flip observability walk computed).
    /// Hence `mask = observability & excitation`.
    ///
    /// Call [`WideScratch::load_golden`] (or [`WideScratch::load_chunk`])
    /// once per chunk before its first detection: it empties the
    /// scratch's per-chunk observability cache. The walk reads `golden`
    /// in place and copies none of it.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnplannedSite`] when the fault's root was not a
    /// fault-site root of this plan.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    pub fn detect_packed<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut WideScratch<Wd>,
        fault: Fault,
    ) -> Result<Wd, FaultError> {
        scratch.counters.faults_evaluated += 1;
        let root = fault.site().gate().index();
        if !self.planned(root) {
            return Err(FaultError::UnplannedSite { gate: root });
        }
        if !self.observable[root] {
            return Ok(Wd::ZERO);
        }
        let excitation = Self::excitation_word(compiled, golden, fault);
        if excitation.is_zero() {
            return Ok(Wd::ZERO); // not excited on any pattern of this chunk
        }
        scratch.counters.excitations += 1;
        Ok(self.observability_packed(compiled, golden, scratch, root)? & excitation)
    }

    /// Like [`CampaignPlan::detect_packed`], but observes two output
    /// groups instead of all primary outputs: returns
    /// `(group_a_mask, group_b_mask)` — the patterns on which the fault
    /// effect reaches any output of the respective group.
    ///
    /// Exact by the same argument as [`CampaignPlan::detect_packed`]:
    /// each group mask is `excitation & group observability`, where the
    /// group observability comes from the same levelized walk recording
    /// changes at observer gates. Observers drive primary outputs
    /// ([`ObserverGroups::new`]), so the PO-reachability pruning never
    /// skips a gate that could reach one. Group walks bypass the
    /// scratch's one-entry observability cache.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnplannedSite`] when the fault's root was not a
    /// fault-site root of this plan.
    ///
    /// # Panics
    ///
    /// Panics on non-stuck-at kinds.
    pub fn detect_observed<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        golden: &[Wd],
        scratch: &mut WideScratch<Wd>,
        fault: Fault,
        observers: &ObserverGroups,
    ) -> Result<(Wd, Wd), FaultError> {
        scratch.counters.faults_evaluated += 1;
        let root = fault.site().gate().index();
        if !self.planned(root) {
            return Err(FaultError::UnplannedSite { gate: root });
        }
        if !self.observable[root] {
            return Ok((Wd::ZERO, Wd::ZERO));
        }
        let excitation = Self::excitation_word(compiled, golden, fault);
        if excitation.is_zero() {
            return Ok((Wd::ZERO, Wd::ZERO));
        }
        scratch.counters.excitations += 1;
        let seen = scratch.walk(
            compiled,
            &self.observable,
            golden,
            root,
            GroupMasks {
                observers,
                a: Wd::ZERO,
                b: Wd::ZERO,
            },
        );
        Ok((seen.a & excitation, seen.b & excitation))
    }
}

/// Two observer sets over the gate array, e.g. functional outputs vs
/// checker outputs in an ISO 26262 classification campaign.
///
/// Stored as a per-gate 2-bit membership map so the walk tests
/// membership in O(1) without hashing.
#[derive(Debug, Clone)]
pub struct ObserverGroups {
    member: Vec<u8>,
}

impl ObserverGroups {
    /// Builds the membership map over `compiled`'s gates: `group_a` and
    /// `group_b` are observed gate indices (a gate may sit in both).
    ///
    /// # Panics
    ///
    /// Panics when an observer does not drive a primary output: the
    /// detection walk prunes gates that cannot reach an output, which is
    /// exact only for output observers.
    pub fn new(compiled: &CompiledNetlist, group_a: &[u32], group_b: &[u32]) -> Self {
        let mut member = vec![0u8; compiled.len()];
        for (bit, group) in [(1u8, group_a), (2, group_b)] {
            for &g in group {
                assert!(
                    compiled.is_po(g as usize),
                    "observer gate {g} does not drive a primary output"
                );
                member[g as usize] |= bit;
            }
        }
        ObserverGroups { member }
    }
}

/// What a levelized walk records at each gate whose value it changed —
/// the one point where the PO observability walk and the observer-group
/// walk differ.
trait WalkSink<Wd: SimWord> {
    /// Records that gate `g` left golden on the lanes of `diff`.
    fn record(&mut self, compiled: &CompiledNetlist, g: usize, diff: Wd);
    /// Whether every lane is already recorded, so the walk may stop.
    fn saturated(&self) -> bool;
}

/// The lanes on which any primary output changed.
struct PoMask<Wd>(Wd);

impl<Wd: SimWord> WalkSink<Wd> for PoMask<Wd> {
    #[inline]
    fn record(&mut self, compiled: &CompiledNetlist, g: usize, diff: Wd) {
        if compiled.is_po(g) {
            self.0 |= diff;
        }
    }

    #[inline]
    fn saturated(&self) -> bool {
        self.0 == Wd::ONES
    }
}

/// The lanes on which any gate of observer group A (B) changed.
struct GroupMasks<'a, Wd> {
    observers: &'a ObserverGroups,
    a: Wd,
    b: Wd,
}

impl<Wd: SimWord> WalkSink<Wd> for GroupMasks<'_, Wd> {
    #[inline]
    fn record(&mut self, _compiled: &CompiledNetlist, g: usize, diff: Wd) {
        let m = self.observers.member[g];
        if m & 1 != 0 {
            self.a |= diff;
        }
        if m & 2 != 0 {
            self.b |= diff;
        }
    }

    #[inline]
    fn saturated(&self) -> bool {
        self.a == Wd::ONES && self.b == Wd::ONES
    }
}

/// Per-worker engine telemetry, accumulated as plain (non-atomic) field
/// increments on the per-fault hot path and flushed to the global
/// metrics registry at chunk granularity via
/// [`ScratchCounters::flush_to_metrics`]. The fields are maintained
/// unconditionally — an untaken branch costs more than the add — so the
/// enabled/disabled telemetry paths stay identical inside the walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchCounters {
    /// Faults pushed through [`CampaignPlan::detect_packed`] /
    /// [`CampaignPlan::detect_observed`] or the tracing front-end
    /// (including unexcited ones).
    pub faults_evaluated: u64,
    /// Faults whose injected value differed from golden at the root.
    pub excitations: u64,
    /// Walks that stopped with every lane already recorded while events
    /// were still queued.
    pub horizon_exits: u64,
    /// Gates the walks changed, root included, summed over walks
    /// (divide by `obs_walks` for the mean).
    pub undo_writes: u64,
    /// Most gates a single walk changed, root included.
    pub undo_depth_max: u64,
    /// Levelized walks performed: one per live site per chunk on the
    /// PPSFP path, one per excited fault per chunk on the observer-group
    /// path.
    pub obs_walks: u64,
    /// Observability words served from the per-chunk site cache instead
    /// of walking (sa0/sa1/pin faults sharing their site's walk).
    pub obs_cache_hits: u64,
    /// Faults dropped from their campaign at the first detecting word.
    pub dropped: u64,
    /// Nets whose observability word was produced by critical-path
    /// tracing (per-edge sensitization, no event-driven walk) — one per
    /// net memoized per chunk on the tracing path.
    pub traced_nets: u64,
    /// Reconvergent-stem observability walks the tracing path fell back
    /// to (each shared by every fault in the stem's fanout-free region).
    pub stem_fallbacks: u64,
}

impl ScratchCounters {
    /// Adds the accumulated figures to the global `fault.*` metrics and
    /// zeroes the local counters. Call once per chunk — never per
    /// fault — so the registry mutex stays off the hot path.
    pub fn flush_to_metrics(&mut self) {
        if rescue_telemetry::enabled() {
            metrics::counter("fault.faults_evaluated").add(self.faults_evaluated);
            metrics::counter("fault.excitations").add(self.excitations);
            metrics::counter("fault.horizon_exits").add(self.horizon_exits);
            metrics::counter("fault.undo_writes").add(self.undo_writes);
            metrics::counter("fault.obs_walks").add(self.obs_walks);
            metrics::counter("fault.obs_cache_hits").add(self.obs_cache_hits);
            metrics::counter("fault.dropped").add(self.dropped);
            metrics::counter("fault.traced_nets").add(self.traced_nets);
            metrics::counter("fault.stem_fallbacks").add(self.stem_fallbacks);
            metrics::histogram("fault.undo_depth_max", &metrics::pow2_bounds(16))
                .record(self.undo_depth_max);
        }
        *self = ScratchCounters::default();
    }
}

/// Reusable per-worker scratch: the values and stamps of the gates the
/// current walk evaluated, the level buckets of the packed walk and the
/// per-chunk observability cache. No allocation per fault and no copy
/// per chunk: the walk reads every gate it has not evaluated from the
/// shared golden chunk.
/// Generic over the packed lane width; [`FaultScratch`] is the 64-lane
/// `u64` instantiation every scalar-width campaign uses.
#[derive(Debug, Clone)]
pub struct WideScratch<Wd: SimWord> {
    /// Values written by the current walk: `val[g]` is `g`'s value
    /// under the flip only while `stamp[g] == walk_id`.
    val: Vec<Wd>,
    /// Walk stamps: `stamp[g] == walk_id` marks `g` as the root or a
    /// queued gate of the current packed walk.
    stamp: Vec<u32>,
    walk_id: u32,
    /// Event queue of the packed walk: one bucket per logic level, sized
    /// to `depth + 1` on the first walk and reused (empty between walks).
    buckets: Vec<Vec<u32>>,
    /// One-entry observability cache: the last walked root of the
    /// current chunk (`u32::MAX` = empty, reset by
    /// [`WideScratch::load_golden`]) and its observability word.
    obs_root: u32,
    obs_word: Wd,
    /// Golden-chunk tag of the per-chunk caches (`u32::MAX` = untagged):
    /// [`WideScratch::load_chunk`] keeps them when the requested chunk
    /// is the one already loaded. Crate-visible so
    /// [`crate::trace::TraceScratch`] can share the tag.
    pub(crate) loaded_chunk: u32,
    /// Engine telemetry accumulated by this worker (see
    /// [`ScratchCounters`]).
    pub counters: ScratchCounters,
}

/// The 64-lane `u64` [`WideScratch`].
pub type FaultScratch = WideScratch<u64>;

impl<Wd: SimWord> WideScratch<Wd> {
    /// Scratch for a design of `len` gates.
    pub fn new(len: usize) -> Self {
        WideScratch {
            val: vec![Wd::ZERO; len],
            stamp: vec![0; len],
            walk_id: 0,
            buckets: Vec::new(),
            obs_root: u32::MAX,
            obs_word: Wd::ZERO,
            loaded_chunk: u32::MAX,
            counters: ScratchCounters::default(),
        }
    }

    /// Starts a chunk whose golden values are `golden` (call once per
    /// chunk, not per fault): empties the per-chunk observability
    /// cache. It copies nothing; each walk reads the gates it has not
    /// evaluated from the `golden` slice it is given.
    ///
    /// # Panics
    ///
    /// Panics when `golden` does not hold one word per gate.
    pub fn load_golden(&mut self, golden: &[Wd]) {
        assert_eq!(golden.len(), self.val.len(), "one golden word per gate");
        self.obs_root = u32::MAX;
        // Manual loads carry no chunk identity; only load_chunk tags.
        self.loaded_chunk = u32::MAX;
    }

    /// [`WideScratch::load_golden`] keyed by golden-chunk index: when
    /// `chunk` is the chunk already loaded, nothing happens, so the
    /// per-chunk observability cache stays warm across the fault ranges
    /// that share the chunk. `chunk` must not be `u32::MAX` (the
    /// untagged sentinel).
    pub fn load_chunk(&mut self, chunk: u32, golden: &[Wd]) {
        debug_assert_ne!(chunk, u32::MAX, "u32::MAX is the untagged sentinel");
        if self.loaded_chunk == chunk {
            return;
        }
        self.load_golden(golden);
        self.loaded_chunk = chunk;
    }

    /// A fresh stamp value, clearing the stamp array on the (once per
    /// 2^32 walks) wrap so stale stamps can never alias.
    fn next_walk_id(&mut self) -> u32 {
        if self.walk_id == u32::MAX {
            self.walk_id = 0;
            self.stamp.fill(0);
        }
        self.walk_id += 1;
        self.walk_id
    }

    /// Observability word of `root` over the chunk whose golden values
    /// are `golden`, given the design's PO-reachability bitmap
    /// (`reachable`): bit `p` is set iff flipping `root`'s value on
    /// pattern `p` changes at least one primary output on pattern `p`.
    /// One [`WideScratch::walk`] recording output changes, cached per
    /// `(chunk, root)` so all faults of one site share one walk within
    /// a chunk.
    pub(crate) fn observability(
        &mut self,
        compiled: &CompiledNetlist,
        reachable: &[bool],
        golden: &[Wd],
        root: usize,
    ) -> Wd {
        if self.obs_root == root as u32 {
            self.counters.obs_cache_hits += 1;
            return self.obs_word;
        }
        let mask = self
            .walk(compiled, reachable, golden, root, PoMask(Wd::ZERO))
            .0;
        self.obs_root = root as u32;
        self.obs_word = mask;
        mask
    }

    /// The levelized event walk: `root` flipped on **all lanes**, every
    /// changed gate reported to `sink`. Word evaluation is bitwise, so
    /// lane `p` of every downstream gate equals a resimulation with the
    /// root flipped on pattern `p` alone. The walk pushes each
    /// PO-reachable (per `reachable`), non-DFF fanout of a changed gate
    /// into the bucket of its level (stamps drop duplicates) and drains
    /// the levels in ascending order; a gate's fanins all sit at lower
    /// levels, so it is evaluated after every changed fanin. It stops
    /// when the queue is empty or the sink is saturated — sink masks can
    /// only grow.
    ///
    /// The root and every queued gate carry this walk's stamp, and every
    /// evaluated value goes to `self.val`, changed or not. An operand is
    /// read from `self.val` when stamped and from `golden` otherwise.
    /// That is exact: a stamped operand sits at a strictly lower level,
    /// so the walk has already evaluated it, and an unstamped operand
    /// did not change.
    fn walk<S: WalkSink<Wd>>(
        &mut self,
        compiled: &CompiledNetlist,
        reachable: &[bool],
        golden: &[Wd],
        root: usize,
        mut sink: S,
    ) -> S {
        let depth = compiled.depth() as usize;
        if self.buckets.len() <= depth {
            self.buckets.resize_with(depth + 1, Vec::new);
        }
        let id = self.next_walk_id();
        sink.record(compiled, root, Wd::ONES);
        self.stamp[root] = id;
        self.val[root] = !golden[root];
        let mut changed = 1u64;
        let mut top = 0usize;
        self.schedule_fanouts(compiled, reachable, root, id, &mut top);
        let mut lvl = compiled.level(root) as usize + 1;
        while lvl <= top && !sink.saturated() {
            let mut i = 0;
            while let Some(&g) = self.buckets[lvl].get(i) {
                i += 1;
                let gi = g as usize;
                let (stamp, val) = (&self.stamp, &self.val);
                let v = compiled.eval_by(gi, |p| if stamp[p] == id { val[p] } else { golden[p] });
                self.val[gi] = v;
                if v == golden[gi] {
                    continue;
                }
                changed += 1;
                sink.record(compiled, gi, v ^ golden[gi]);
                self.schedule_fanouts(compiled, reachable, gi, id, &mut top);
            }
            self.buckets[lvl].clear();
            lvl += 1;
        }
        if lvl <= top {
            // Every lane recorded with events still queued.
            self.counters.horizon_exits += 1;
            for bucket in &mut self.buckets[lvl..=top] {
                bucket.clear();
            }
        }
        self.counters.undo_writes += changed;
        self.counters.undo_depth_max = self.counters.undo_depth_max.max(changed);
        self.counters.obs_walks += 1;
        sink
    }

    /// Queues every PO-reachable combinational fanout of `g` not yet
    /// queued in walk `id`, raising `top` to the highest level queued.
    #[inline]
    fn schedule_fanouts(
        &mut self,
        compiled: &CompiledNetlist,
        reachable: &[bool],
        g: usize,
        id: u32,
        top: &mut usize,
    ) {
        for &s in compiled.fanout_of(g) {
            let si = s as usize;
            if reachable[si] && self.stamp[si] != id && compiled.kind(si) != GateKind::Dff {
                self.stamp[si] = id;
                let l = compiled.level(si) as usize;
                self.buckets[l].push(s);
                *top = (*top).max(l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn detect_observed_matches_full_resim_diffs() {
        let net = generate::random_logic(7, 100, 4, 33);
        let compiled = CompiledNetlist::new(&net);
        let faults = crate::universe::stuck_at_universe(&net);
        let plan = CampaignPlan::build(&compiled, &faults);
        let words: Vec<u64> = (0..7).map(|i| 0x5bd1_e995u64.wrapping_mul(i + 3)).collect();
        let mut golden = Vec::new();
        compiled.eval_words_into(&words, &mut golden).unwrap();
        // Split the outputs into two arbitrary observer groups.
        let pos = compiled.po_drivers();
        let (a, b): (Vec<u32>, Vec<u32>) =
            pos.iter()
                .enumerate()
                .fold((Vec::new(), Vec::new()), |(mut a, mut b), (i, &g)| {
                    if i % 2 == 0 {
                        a.push(g);
                    } else {
                        b.push(g);
                    }
                    (a, b)
                });
        let obs = ObserverGroups::new(&compiled, &a, &b);
        let slow = crate::reference::ReferenceFaultSimulator::new(&net);
        let mut scratch = FaultScratch::new(compiled.len());
        scratch.load_golden(&golden);
        for &fault in &faults {
            let (ma, mb) = plan
                .detect_observed(&compiled, &golden, &mut scratch, fault, &obs)
                .unwrap();
            let faulty = slow.with_stuck(&net, &words, fault);
            let want_a = a
                .iter()
                .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]));
            let want_b = b
                .iter()
                .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]));
            assert_eq!((ma, mb), (want_a, want_b), "{fault}");
            // Both groups together reproduce plain detection.
            assert_eq!(
                ma | mb,
                plan.detect_packed(&compiled, &golden, &mut scratch, fault)
                    .unwrap(),
                "{fault}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not drive a primary output")]
    fn observers_must_drive_outputs() {
        let net = generate::c17();
        let compiled = CompiledNetlist::new(&net);
        let inner = (0..compiled.len() as u32)
            .find(|&g| !compiled.is_po(g as usize))
            .unwrap();
        ObserverGroups::new(&compiled, &[], &[inner]);
    }

    /// The levelized walk against a full resimulation with the root
    /// flipped on every lane, from every gate of a design with DFF
    /// consumers, unobservable fanouts and an all-lanes early stop.
    #[test]
    fn levelized_walk_matches_flipped_full_resimulation() {
        let mut b = rescue_netlist::NetlistBuilder::new("walk");
        let [a, bb, cc, d] = [0, 1, 2, 3].map(|i| b.input(format!("i{i}")));
        let x = b.and(a, bb); // stem: reconverges at w, feeds DFF and dead logic
        let (y, z) = (b.xor(x, cc), b.or(x, d));
        let w = b.xor(y, z);
        let dead = b.and(x, cc); // unobservable: its only consumer is a DFF
        let q = b.dff(dead);
        let nq = b.not(q);
        let g1 = b.not(a); // flips output `o` on every lane, `k` still queued
        let o = b.not(g1);
        let h = b.and(g1, bb);
        let k = b.or(h, cc);
        for (name, g) in [("w", w), ("nq", nq), ("o", o), ("k", k), ("x", b.dff(x))] {
            b.output(name, g);
        }
        let net = b.finish();
        let c = CompiledNetlist::new(&net);
        let reachable = po_reachable(&c);
        assert!(!reachable[dead.index()]);
        let words: Vec<u64> = (0..4)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i * 17))
            .collect();
        let mut golden = Vec::new();
        c.eval_words_into(&words, &mut golden).unwrap();
        let mut scratch = FaultScratch::new(c.len());
        for root in 0..c.len() {
            scratch.load_golden(&golden);
            let mut flipped = golden.clone();
            flipped[root] = !golden[root];
            for &g in c.eval_order().iter().filter(|&&g| g as usize != root) {
                flipped[g as usize] = c.eval(g as usize, &flipped);
            }
            let want = c
                .po_drivers()
                .iter()
                .fold(0, |m, &p| m | (flipped[p as usize] ^ golden[p as usize]));
            let exits = scratch.counters.horizon_exits;
            let got = scratch.observability(&c, &reachable, &golden, root);
            assert_eq!(got, want, "root {root}");
            if root == g1.index() {
                assert_eq!(got, u64::MAX);
                assert_eq!(scratch.counters.horizon_exits, exits + 1, "no early stop");
            }
        }
        assert!(scratch.buckets.iter().all(Vec::is_empty));
    }
}
