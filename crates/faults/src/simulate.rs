//! Serial and parallel-pattern fault simulation with fault dropping.
//!
//! [`FaultSimulator`] runs on the [`CompiledNetlist`] flat arena and
//! detects stuck-at faults with the incremental cone engine from
//! [`crate::engine`]: per (fault, chunk) it resimulates only the fault
//! site's combinational fanout cone instead of the whole design, with
//! touched-list undo so campaigns allocate nothing per fault. Verdicts
//! are bit-identical to the full-resimulation oracle in
//! [`crate::reference`] (enforced by property tests).

use crate::collapse::CollapsedUniverse;
use crate::engine::{CampaignPlan, FaultScratch, WideScratch};
use crate::model::{BridgingFault, Fault, FaultKind, FaultSite};
use crate::trace::{TracePlan, TraceScratch};
use rescue_campaign::{
    ArtifactStore, Campaign, CampaignManifest, CampaignStats, DetectedSet, DropScope, DurableRun,
    ResultStore, ShardedRun, StatsDelta,
};
use rescue_netlist::{GateKind, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::parallel::{live_mask, pack_patterns};
use rescue_sim::wide::{pack_patterns_wide_into, PackedWord, SimWord, SUPPORTED_LANE_WIDTHS};
use rescue_telemetry::{metrics, span};
use std::time::Instant;

/// Outcome of a fault-simulation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    faults: Vec<Fault>,
    /// For each fault: index of the first detecting pattern, or `None`.
    first_detection: Vec<Option<usize>>,
    patterns: usize,
}

impl CampaignReport {
    /// Assembles a report from raw verdicts (used by alternative engines
    /// such as the slicing-accelerated campaign in `rescue-safety`).
    ///
    /// # Panics
    ///
    /// Panics when the verdict vector length differs from the fault list.
    pub fn from_parts(
        faults: Vec<Fault>,
        first_detection: Vec<Option<usize>>,
        patterns: usize,
    ) -> Self {
        assert_eq!(faults.len(), first_detection.len(), "one verdict per fault");
        CampaignReport {
            faults,
            first_detection,
            patterns,
        }
    }

    /// The fault list the campaign ran over.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// First detecting pattern per fault (`None` = undetected).
    pub fn first_detection(&self) -> &[Option<usize>] {
        &self.first_detection
    }

    /// Number of patterns applied.
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Detected fault count.
    pub fn detected_count(&self) -> usize {
        self.first_detection.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage in `[0, 1]` (1.0 for an empty fault list).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        self.detected_count() as f64 / self.faults.len() as f64
    }

    /// The faults no pattern detected.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.first_detection)
            .filter(|(_, d)| d.is_none())
            .map(|(f, _)| *f)
            .collect()
    }
}

/// A campaign verdict plus its observability record.
///
/// The report stays `Eq`-comparable (determinism tests rely on that);
/// wall-clock figures live in the attached [`CampaignStats`].
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The (deterministic) campaign verdicts.
    pub report: CampaignReport,
    /// Throughput, worker timing and lane-occupancy figures.
    pub stats: CampaignStats,
}

/// Engine configuration for [`FaultSimulator::campaign_packed`]: the
/// packed lane width and an optional collapsed universe. The default
/// (lane width 1, no collapsing) reproduces the historical
/// [`FaultSimulator::campaign_with_stats`] engine bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct PackedOptions<'a> {
    /// Word width in 64-lane limbs: 1 (`u64`, 64 patterns per walk) or
    /// 2 / 4 / 8 ([`PackedWord`], up to 512 patterns per walk).
    pub lane_width: usize,
    /// When set, the engine walks only equivalence-class representatives
    /// and expands their verdicts to the rest of the universe via
    /// [`CollapsedUniverse::representative`]. Sound because equivalent
    /// faults have identical detection masks on every pattern set.
    pub collapsed: Option<&'a CollapsedUniverse>,
    /// When set, detection runs through the critical-path-tracing /
    /// cone-walk hybrid ([`crate::trace::TracePlan`]): observability
    /// words come from backward sensitization over fanout-free regions,
    /// and the event-driven walk is reserved for reconvergent stems.
    /// Verdicts stay bit-identical to the walking engine for every lane
    /// width, schedule, worker count and collapse setting.
    pub tracing: bool,
    /// When set, built campaign/trace plans are persisted to (and reloaded
    /// from) this content-addressed artifact cache under
    /// [`crate::content::plan_key`]. A warm cache skips plan construction
    /// — the cone DFS and net classification — entirely; plans decode to
    /// bytes identical to a fresh build, so verdicts are unaffected.
    /// Deliberately excluded from [`crate::content::hash_options`]: the
    /// cache changes wall-clock, never results or unit partitions.
    pub artifacts: Option<&'a ArtifactStore>,
    /// How far fault dropping reaches. The default
    /// ([`DropScope::Unit`]) keeps dropping local to the loop that owns
    /// each fault range: verdicts — including first-detection indices —
    /// stay bit-identical across worker counts and schedules.
    /// [`DropScope::Global`] additionally parallelizes the *pattern*
    /// dimension ((golden chunk × fault range) tiles through the
    /// work-stealing queue) and retires faults across workers through a
    /// shared atomic [`DetectedSet`]: the detected *set* is exactly the
    /// unit-scope set by construction, but first-detection indices
    /// become wall-clock-dependent — opt in only for verdict-mode
    /// campaigns where the set is what matters.
    pub drop_scope: DropScope,
}

impl Default for PackedOptions<'_> {
    fn default() -> Self {
        PackedOptions {
            lane_width: 1,
            collapsed: None,
            tracing: false,
            artifacts: None,
            drop_scope: DropScope::Unit,
        }
    }
}

impl<'a> PackedOptions<'a> {
    /// Options for a wide-word campaign at `lane_width` 64-lane limbs.
    pub fn wide(lane_width: usize) -> Self {
        PackedOptions {
            lane_width,
            ..PackedOptions::default()
        }
    }

    /// Walks only representatives of `collapsed`, expanding verdicts to
    /// the full universe afterwards.
    pub fn with_collapsed(mut self, collapsed: &'a CollapsedUniverse) -> Self {
        self.collapsed = Some(collapsed);
        self
    }

    /// Detects through the critical-path-tracing hybrid instead of one
    /// observability walk per site.
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Persists and reloads built plans through `artifacts`, so repeat
    /// campaigns over the same design and walk list skip plan
    /// construction.
    pub fn with_artifacts(mut self, artifacts: &'a ArtifactStore) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Drops faults across workers through a shared detected bitmap
    /// ([`DropScope::Global`]): same detected set, wall-clock-dependent
    /// first-detection indices.
    pub fn global_drop(mut self) -> Self {
        self.drop_scope = DropScope::Global;
        self
    }
}

/// Compiled-arena fault simulator over one netlist.
///
/// Supports stuck-at faults on outputs and pins, transition-delay faults
/// via pattern pairs, bridging faults, and sequential (multi-cycle)
/// stuck-at simulation.
///
/// # Examples
///
/// See [`crate`] docs for a complete campaign example.
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    compiled: CompiledNetlist,
}

impl FaultSimulator {
    /// Prepares a simulator for `netlist` (compiles the flat arena under
    /// a `sim.compile` span).
    pub fn new(netlist: &Netlist) -> Self {
        let _span = span!("sim.compile", gates = netlist.len());
        FaultSimulator {
            compiled: CompiledNetlist::new(netlist),
        }
    }

    /// [`FaultSimulator::new`] through a compiled-artifact cache: the
    /// arena is keyed by [`crate::content::compiled_key`] (computed from
    /// the source netlist without compiling), so a warm cache decodes the
    /// stored arena instead of recompiling. The decoded arena is
    /// byte-identical to a fresh compile; a cold or corrupt cache
    /// compiles and publishes.
    pub fn new_cached(netlist: &Netlist, artifacts: &ArtifactStore) -> Self {
        let _span = span!("sim.compile", gates = netlist.len());
        let compiled = load_or_build(
            Some(artifacts),
            crate::content::compiled_key(netlist),
            CompiledNetlist::from_bytes,
            CompiledNetlist::to_bytes,
            || CompiledNetlist::new(netlist),
        );
        FaultSimulator { compiled }
    }

    /// The compiled arena this simulator evaluates on.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// Ablation hook forwarding [`CompiledNetlist::set_sweep`]: toggles
    /// the level-blocked sweep kernels (when the arena is levelized) for
    /// every campaign this simulator runs. Verdicts are identical either
    /// way; only throughput moves. Benches use it to report the sweep
    /// speedup as a measured number.
    pub fn set_sweep(&mut self, enabled: bool) {
        self.compiled.set_sweep(enabled);
    }

    /// Golden (fault-free) 64-way evaluation. `words[i]` is input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the primary-input count.
    pub fn golden(&self, words: &[u64]) -> Vec<u64> {
        self.eval_full(words, None, None)
    }

    /// Evaluates 64 packed patterns with `fault` active; returns all gate
    /// values. Only stuck-at kinds are meaningful here.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or a non-stuck-at fault kind.
    pub fn with_stuck(&self, words: &[u64], fault: Fault) -> Vec<u64> {
        let value = fault
            .kind()
            .stuck_value()
            .expect("with_stuck requires a stuck-at fault");
        self.eval_full(words, Some((fault.site(), value)), None)
    }

    /// Evaluates with a wired-AND/OR bridge active (two-pass resolution).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn with_bridge(&self, words: &[u64], bridge: BridgingFault) -> Vec<u64> {
        let golden = self.eval_full(words, None, None);
        let va = golden[bridge.a.index()];
        let vb = golden[bridge.b.index()];
        let v = if bridge.wired_and { va & vb } else { va | vb };
        self.eval_full(words, None, Some((bridge, v)))
    }

    /// Full-design 64-way evaluation over the compiled arena with
    /// optional stuck/bridge forcing. This is the non-incremental path,
    /// used by the value-inspection APIs; campaigns go through the cone
    /// engine instead.
    fn eval_full(
        &self,
        words: &[u64],
        stuck: Option<(FaultSite, bool)>,
        bridge: Option<(BridgingFault, u64)>,
    ) -> Vec<u64> {
        let c = &self.compiled;
        let pis = c.primary_inputs();
        assert_eq!(words.len(), pis.len(), "input word count mismatch");
        let mut values = vec![0u64; c.len()];
        for (i, &pi) in pis.iter().enumerate() {
            values[pi as usize] = words[i];
        }
        let (stuck_out, stuck_pin, stuck_word) = match stuck {
            Some((FaultSite::Output(g), v)) => {
                (Some(g.index()), None, if v { u64::MAX } else { 0 })
            }
            Some((FaultSite::Pin { gate, pin }, v)) => (
                None,
                Some((gate.index(), pin)),
                if v { u64::MAX } else { 0 },
            ),
            None => (None, None, 0),
        };
        // Sources (Input/Dff) sit outside eval_order; apply output/bridge
        // forces on them up front — nothing evaluates before them.
        let source = |g: usize| matches!(c.kind(g), GateKind::Input | GateKind::Dff);
        if let Some(g) = stuck_out {
            if source(g) {
                values[g] = stuck_word;
            }
        }
        if let Some((br, v)) = bridge {
            for g in [br.a.index(), br.b.index()] {
                if source(g) {
                    values[g] = v;
                }
            }
        }
        for &g in c.eval_order() {
            let gi = g as usize;
            let mut v = match stuck_pin {
                Some((fg, fp)) if fg == gi => c.eval_word_pin_forced(gi, &values, fp, stuck_word),
                _ => c.eval_word(gi, &values),
            };
            if stuck_out == Some(gi) {
                v = stuck_word;
            }
            if let Some((br, bv)) = bridge {
                if br.a.index() == gi || br.b.index() == gi {
                    v = bv;
                }
            }
            values[gi] = v;
        }
        values
    }

    /// Bitmask of patterns (bit `p`) on which `fault` is detected at a
    /// primary output, given the golden values for the same words.
    ///
    /// One-shot incremental detection; campaigns amortize the plan and
    /// scratch this call rebuilds.
    pub fn detection_mask(
        &self,
        _netlist: &Netlist,
        _words: &[u64],
        golden: &[u64],
        fault: Fault,
    ) -> u64 {
        let c = &self.compiled;
        let plan = CampaignPlan::build(c, std::slice::from_ref(&fault));
        let mut scratch = FaultScratch::new(c.len());
        scratch.load_golden(golden);
        plan.detect(c, golden, &mut scratch, fault)
    }

    /// Runs a full stuck-at campaign with fault dropping: each fault is
    /// simulated only until its first detection, only within its fanout
    /// cone, and the whole campaign stops once every fault is detected.
    ///
    /// # Panics
    ///
    /// Panics if any simulated pattern width differs from the
    /// primary-input count.
    pub fn campaign(
        &self,
        _netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
    ) -> CampaignReport {
        let c = &self.compiled;
        let plan = CampaignPlan::build(c, faults);
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        let mut undetected = faults.len();
        let mut golden: Vec<u64> = Vec::new();
        let mut scratch = FaultScratch::new(c.len());
        for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
            if undetected == 0 {
                break; // every fault dropped
            }
            let words = pack_patterns(chunk);
            c.eval_words_into(&words, None, &mut golden)
                .expect("input word count mismatch");
            scratch.load_golden(&golden);
            let live = live_mask(chunk.len());
            for (fi, &fault) in faults.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue; // fault dropping
                }
                let mask = plan.detect(c, &golden, &mut scratch, fault) & live;
                if mask != 0 {
                    first_detection[fi] = Some(chunk_idx * 64 + mask.trailing_zeros() as usize);
                    undetected -= 1;
                }
            }
        }
        CampaignReport {
            faults: faults.to_vec(),
            first_detection,
            patterns: patterns.len(),
        }
    }

    /// Multi-threaded stuck-at campaign over the shared
    /// [`rescue_campaign`] driver; produces exactly the same verdicts as
    /// [`FaultSimulator::campaign`]. Thin wrapper over
    /// [`FaultSimulator::campaign_with_stats`] that discards the stats.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a pattern width mismatches.
    pub fn campaign_parallel(
        &self,
        _netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        threads: usize,
    ) -> CampaignReport {
        self.campaign_with_stats(faults, patterns, &Campaign::new(0, threads))
            .report
    }

    /// PPSFP stuck-at campaign with fault dropping through the shared
    /// [`Campaign`] driver: per-chunk golden words are computed once and
    /// shared read-only, and every worker detects through the packed
    /// observability path ([`CampaignPlan::detect_packed`]) — one
    /// event-driven cone walk per (site, 64-pattern word), shared by all
    /// faults at that site. The fault list is handed out per the
    /// campaign's [`rescue_campaign::Schedule`]: static contiguous shards
    /// or the work-stealing chunk queue (the default — fault dropping
    /// makes per-fault cost wildly non-uniform, which static shards
    /// handle worst). Verdicts are bit-identical to
    /// [`FaultSimulator::campaign`] for every worker count, schedule and
    /// chunk grain; the returned [`CampaignRun`] adds
    /// throughput/lane-occupancy/drop/steal observability.
    ///
    /// # Panics
    ///
    /// Panics if a pattern width differs from the primary-input count.
    pub fn campaign_with_stats(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
    ) -> CampaignRun {
        self.campaign_packed(faults, patterns, campaign, PackedOptions::default())
    }

    /// [`FaultSimulator::campaign_with_stats`] with an explicit engine
    /// configuration: a wide [`SimWord`] lane width (2/4/8 × 64 packed
    /// patterns per cone walk, autovectorized) and/or a collapsed
    /// universe (walk equivalence-class representatives only, expand
    /// verdicts to the rest for free). Verdicts are bit-identical to the
    /// default engine for every width, schedule, worker count and
    /// collapse setting; [`CampaignStats::faults_walked`] records how
    /// much walking the collapse saved.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported lane width
    /// ([`SUPPORTED_LANE_WIDTHS`]) or a pattern width mismatch.
    pub fn campaign_packed(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: PackedOptions,
    ) -> CampaignRun {
        match opts.lane_width {
            1 => self.campaign_packed_w::<u64>(faults, patterns, campaign, &opts),
            2 => self.campaign_packed_w::<PackedWord<2>>(faults, patterns, campaign, &opts),
            4 => self.campaign_packed_w::<PackedWord<4>>(faults, patterns, campaign, &opts),
            8 => self.campaign_packed_w::<PackedWord<8>>(faults, patterns, campaign, &opts),
            w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
        }
    }

    /// The width-generic packed campaign behind the runtime dispatch of
    /// [`FaultSimulator::campaign_packed`].
    fn campaign_packed_w<Wd: SimWord>(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
    ) -> CampaignRun {
        let c = &self.compiled;
        let _campaign = span!("fault.campaign", faults = faults.len());
        let (walk, expand) = self.walk_list(faults, opts);
        let chunks = self.golden_chunks::<Wd>(patterns);
        let mut faults_traced = 0usize;
        let (results, figures) = if opts.tracing {
            let engine = TraceEngine::build(c, &walk, campaign.workers, opts);
            faults_traced = engine.tplan.statically_traced();
            execute_packed(campaign, &walk, &engine, &chunks, opts.drop_scope, true)
        } else {
            let engine = WalkEngine::build(c, &walk, campaign.workers, opts);
            execute_packed(campaign, &walk, &engine, &chunks, opts.drop_scope, false)
        };
        let stats = CampaignStats {
            injections: faults.len(),
            elapsed_ns: figures.elapsed_ns,
            workers: figures.worker_ns.len(),
            worker_ns: figures.worker_ns,
            chunks_stolen: figures.steals,
            dropped_global: figures.dropped_global as usize,
            faults_walked: walk.len(),
            faults_traced,
            ..CampaignStats::default()
        };
        finish_packed::<Wd>(faults, patterns, opts, &chunks, expand, results, stats)
    }

    /// [`FaultSimulator::campaign_packed`] made durable: the campaign
    /// becomes the deterministic plan of content-addressed units from
    /// [`FaultSimulator::durable_plan`], unit verdicts persist through
    /// `store`, and only the units the store is missing are executed.
    /// A killed run resumes where it stopped; a second process pointed
    /// at the same store shares the work via create-exclusive claims
    /// without ever double-executing a unit; re-submitting a finished
    /// campaign executes zero units. Verdicts and stats tallies are
    /// bit-identical to [`FaultSimulator::campaign_packed`] for every
    /// store state, worker count, schedule and unit grain;
    /// [`CampaignStats::units_cached`] / `units_executed` record how the
    /// run split between store and engine.
    ///
    /// `unit_faults` is the unit grain in walked faults (0 =
    /// [`DEFAULT_UNIT_FAULTS`]).
    ///
    /// # Panics
    ///
    /// Panics on an unsupported lane width, a pattern width mismatch, or
    /// a wedged peer holding claims past the wait limit.
    pub fn campaign_packed_durable(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: PackedOptions,
        store: &dyn ResultStore,
        unit_faults: usize,
    ) -> CampaignRun {
        match opts.lane_width {
            1 => self.durable_w::<u64>(faults, patterns, campaign, &opts, store, unit_faults),
            2 => self.durable_w::<PackedWord<2>>(
                faults,
                patterns,
                campaign,
                &opts,
                store,
                unit_faults,
            ),
            4 => self.durable_w::<PackedWord<4>>(
                faults,
                patterns,
                campaign,
                &opts,
                store,
                unit_faults,
            ),
            8 => self.durable_w::<PackedWord<8>>(
                faults,
                patterns,
                campaign,
                &opts,
                store,
                unit_faults,
            ),
            w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
        }
    }

    /// The deterministic unit plan a durable campaign executes: the walk
    /// list (collapsed representatives when collapsing is on) partitioned
    /// at `unit_faults` grain, keyed under
    /// [`crate::content::campaign_hash`]. Worker count, schedule and
    /// seed are deliberately absent from the key — any process
    /// configuration resumes the same plan.
    pub fn durable_plan(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        opts: &PackedOptions,
        unit_faults: usize,
    ) -> CampaignManifest {
        let (walk, _) = self.walk_list(faults, opts);
        self.manifest_for(faults, patterns, opts, walk.len(), unit_faults)
    }

    fn manifest_for(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        opts: &PackedOptions,
        walk_len: usize,
        unit_faults: usize,
    ) -> CampaignManifest {
        let grain = if unit_faults == 0 {
            DEFAULT_UNIT_FAULTS
        } else {
            unit_faults
        };
        CampaignManifest::build(
            crate::content::campaign_hash(&self.compiled, faults, patterns, opts),
            walk_len,
            grain,
        )
    }

    /// Width-generic body of [`FaultSimulator::campaign_packed_durable`].
    fn durable_w<Wd: SimWord>(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
        store: &dyn ResultStore,
        unit_faults: usize,
    ) -> CampaignRun {
        let c = &self.compiled;
        rescue_campaign::fleet::set_stage("fault.campaign_durable");
        let _campaign = span!("fault.campaign_durable", faults = faults.len());
        let (walk, expand) = self.walk_list(faults, opts);
        let manifest = self.manifest_for(faults, patterns, opts, walk.len(), unit_faults);
        let chunks = self.golden_chunks::<Wd>(patterns);
        // The durable shared bitmap: publish-only in practice (units
        // partition walk positions, so no in-process consult can fire),
        // wired so the durable path shares the global-drop contract and
        // persisted verdicts stay deterministic.
        let detected = (opts.drop_scope == DropScope::Global).then(|| DetectedSet::new(walk.len()));
        let exec_start = Instant::now();
        let mut faults_traced = 0usize;
        let run = if opts.tracing {
            let engine = TraceEngine::build(c, &walk, campaign.workers, opts);
            faults_traced = engine.tplan.statically_traced();
            run_durable(
                campaign,
                &walk,
                &engine,
                &chunks,
                &manifest,
                store,
                detected.as_ref(),
            )
        } else {
            let engine = WalkEngine::build(c, &walk, campaign.workers, opts);
            run_durable(
                campaign,
                &walk,
                &engine,
                &chunks,
                &manifest,
                store,
                detected.as_ref(),
            )
        };
        if rescue_telemetry::enabled() {
            let name = if opts.tracing {
                "exec.trace_ms"
            } else {
                "exec.walk_ms"
            };
            metrics::histogram(name, &metrics::pow2_bounds(16))
                .record(exec_start.elapsed().as_millis() as u64);
        }
        let stats = CampaignStats {
            injections: faults.len(),
            elapsed_ns: run.elapsed_ns,
            workers: run.worker_ns.len(),
            worker_ns: run.worker_ns.clone(),
            chunks_stolen: run.steals,
            dropped_global: detected.as_ref().map_or(0, |d| d.skipped()) as usize,
            faults_walked: walk.len(),
            faults_traced,
            units_total: run.units_total,
            // "Cached" from this run's point of view is everything it did
            // not execute itself: store hits plus units a concurrent peer
            // published while we waited.
            units_cached: run.units_cached + run.units_waited,
            units_executed: run.units_executed,
            ..CampaignStats::default()
        };
        finish_packed::<Wd>(faults, patterns, opts, &chunks, expand, run.results, stats)
    }

    /// Collapse prefilter shared by the plain and durable packed
    /// campaigns: walk each equivalence class once, in order of first
    /// appearance, then sweep PO reachability over the representatives —
    /// structurally unobservable classes share the all-zero detection
    /// mask and expand to "undetected" without a walk. Exact because
    /// equivalent faults have identical detection masks (the property
    /// the `collapse` tests pin down), so even first-detection indices
    /// expand unchanged. The returned map remembers which walked slot
    /// answers each original fault (`None` = unobservable class, never
    /// detected; the map itself is `None` when collapsing is off).
    fn walk_list(
        &self,
        faults: &[Fault],
        opts: &PackedOptions,
    ) -> (Vec<Fault>, Option<Vec<Option<u32>>>) {
        let c = &self.compiled;
        match opts.collapsed {
            None => (faults.to_vec(), None),
            Some(cu) => {
                // O(gates + edges) reachability sweep first, so cone
                // construction is paid only for the faults that will
                // actually be walked. Then one hashing pass over the
                // universe: per fault, one representative lookup and
                // one slot lookup.
                let reachable = crate::engine::po_reachable(c);
                let mut slot_of = std::collections::HashMap::new();
                let mut walk = Vec::new();
                let mut map = Vec::with_capacity(faults.len());
                for &f in faults {
                    let rep = cu.representative(f);
                    if !reachable[rep.site().gate().index()] {
                        map.push(None);
                        continue;
                    }
                    let slot = *slot_of.entry(rep).or_insert_with(|| {
                        walk.push(rep);
                        walk.len() as u32 - 1
                    });
                    map.push(Some(slot));
                }
                (walk, Some(map))
            }
        }
    }

    /// Golden values and live mask per chunk, computed once and shared
    /// read-only by all workers. The live mask is the one shared
    /// ragged-tail guard: a final chunk of fewer than `Wd::LANES`
    /// patterns must not let dead lanes report detections.
    ///
    /// The arena is one flat allocation for all chunks (plus one reused
    /// input-packing buffer), so building it costs two allocations total
    /// instead of two per chunk — the setup half of the zero-alloc
    /// steady state. Runs under an `exec.golden` span; wall-clock is also
    /// recorded in the `exec.golden_ms` histogram when telemetry is
    /// enabled.
    fn golden_chunks<Wd: SimWord>(&self, patterns: &[Vec<bool>]) -> GoldenChunks<Wd> {
        let start = Instant::now();
        let n_gates = self.compiled.len();
        let n_chunks = patterns.len().div_ceil(Wd::LANES.max(1));
        let _span = span!("exec.golden", chunks = n_chunks);
        let mut words = vec![Wd::ZERO; n_chunks * n_gates];
        let mut live = Vec::with_capacity(n_chunks);
        let mut inputs: Vec<Wd> = Vec::new();
        for (ci, chunk) in patterns.chunks(Wd::LANES).enumerate() {
            pack_patterns_wide_into(chunk, &mut inputs);
            self.compiled
                .eval_words_fill(&inputs, None, &mut words[ci * n_gates..(ci + 1) * n_gates])
                .expect("input word count mismatch");
            live.push(Wd::live_mask(chunk.len()));
        }
        if rescue_telemetry::enabled() {
            metrics::histogram("exec.golden_ms", &metrics::pow2_bounds(16))
                .record(start.elapsed().as_millis() as u64);
        }
        GoldenChunks {
            words,
            live,
            n_gates,
        }
    }

    /// Transition-delay campaign over consecutive pattern *pairs*
    /// `(patterns[i], patterns[i+1])`: a slow-to-rise fault is detected by
    /// a pair that launches a rising transition at the site and where the
    /// late value (stuck-at-0 behaviour during capture) reaches an output.
    ///
    /// Returns the report with pattern index = index of the capture
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or a non-transition fault in `faults`.
    pub fn transition_campaign(
        &self,
        _netlist: &Netlist,
        faults: &[Fault],
        patterns: &[Vec<bool>],
    ) -> CampaignReport {
        let c = &self.compiled;
        let plan = CampaignPlan::build(c, faults);
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        let mut g_launch: Vec<u64> = Vec::new();
        let mut g_capture: Vec<u64> = Vec::new();
        let mut scratch = FaultScratch::new(c.len());
        for (i, pats) in patterns.windows(2).enumerate() {
            c.eval_words_into(&pack_patterns(&pats[..1]), None, &mut g_launch)
                .expect("input word count mismatch");
            c.eval_words_into(&pack_patterns(&pats[1..]), None, &mut g_capture)
                .expect("input word count mismatch");
            scratch.load_golden(&g_capture);
            for (fi, &fault) in faults.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue;
                }
                let site_gate = match fault.site() {
                    FaultSite::Output(g) => g,
                    FaultSite::Pin { .. } => panic!("transition faults sit on outputs"),
                };
                let (from, to, stuck) = match fault.kind() {
                    FaultKind::SlowToRise => (0u64, 1u64, false),
                    FaultKind::SlowToFall => (1, 0, true),
                    _ => panic!("transition_campaign requires transition faults"),
                };
                let launch_v = g_launch[site_gate.index()] & 1;
                let capture_v = g_capture[site_gate.index()] & 1;
                if launch_v != from || capture_v != to {
                    continue; // no launching transition
                }
                // Equivalent stuck-at detection on the capture pattern.
                let eq = Fault::stuck_at(FaultSite::Output(site_gate), stuck);
                let mask = plan.detect(c, &g_capture, &mut scratch, eq);
                if mask & 1 != 0 {
                    first_detection[fi] = Some(i + 1);
                }
            }
        }
        CampaignReport {
            faults: faults.to_vec(),
            first_detection,
            patterns: patterns.len(),
        }
    }

    /// Sequential stuck-at campaign: applies `stimuli` cycle by cycle to a
    /// golden and a faulty machine (both starting from the all-zero state)
    /// and reports the first cycle whose primary outputs differ.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or non-stuck-at faults.
    pub fn campaign_seq(
        &self,
        _netlist: &Netlist,
        faults: &[Fault],
        stimuli: &[Vec<bool>],
    ) -> CampaignReport {
        let c = &self.compiled;
        let po_count = c.po_drivers().len();
        let mut values = vec![false; c.len()];
        let mut state = vec![false; c.dffs().len()];
        // Golden per-cycle primary-output trace, flattened.
        let mut golden_pos: Vec<bool> = Vec::with_capacity(stimuli.len() * po_count);
        for inputs in stimuli {
            self.seq_cycle(inputs, None, &mut values, &mut state);
            golden_pos.extend(c.po_drivers().iter().map(|&g| values[g as usize]));
        }
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        for (fi, &fault) in faults.iter().enumerate() {
            let value = fault
                .kind()
                .stuck_value()
                .expect("campaign_seq requires stuck-at faults");
            state.iter_mut().for_each(|b| *b = false);
            for (cycle, inputs) in stimuli.iter().enumerate() {
                self.seq_cycle(inputs, Some((fault.site(), value)), &mut values, &mut state);
                let golden = &golden_pos[cycle * po_count..(cycle + 1) * po_count];
                let diff = c
                    .po_drivers()
                    .iter()
                    .zip(golden)
                    .any(|(&g, &want)| values[g as usize] != want);
                if diff {
                    first_detection[fi] = Some(cycle);
                    break;
                }
            }
        }
        CampaignReport {
            faults: faults.to_vec(),
            first_detection,
            patterns: stimuli.len(),
        }
    }

    /// One clock cycle of two-valued evaluation with optional stuck
    /// forcing; `values` and `state` are reusable buffers, `state` is
    /// advanced to the next cycle.
    fn seq_cycle(
        &self,
        inputs: &[bool],
        stuck: Option<(FaultSite, bool)>,
        values: &mut [bool],
        state: &mut [bool],
    ) {
        let c = &self.compiled;
        assert_eq!(
            inputs.len(),
            c.primary_inputs().len(),
            "stimulus width mismatch"
        );
        values.fill(false);
        for (i, &pi) in c.primary_inputs().iter().enumerate() {
            values[pi as usize] = inputs[i];
        }
        for (i, &dff) in c.dffs().iter().enumerate() {
            values[dff as usize] = state[i];
        }
        if let Some((FaultSite::Output(g), v)) = stuck {
            if matches!(c.kind(g.index()), GateKind::Input | GateKind::Dff) {
                values[g.index()] = v;
            }
        }
        for &g in c.eval_order() {
            let gi = g as usize;
            let mut v = match stuck {
                Some((FaultSite::Pin { gate, pin }, fv)) if gate.index() == gi => {
                    c.eval_bool_pin_forced(gi, values, pin, fv)
                }
                _ => c.eval_bool(gi, values),
            };
            if let Some((FaultSite::Output(fg), fv)) = stuck {
                if fg.index() == gi {
                    v = fv;
                }
            }
            values[gi] = v;
        }
        for (i, &d) in c.dff_d().iter().enumerate() {
            state[i] = values[d as usize];
        }
    }
}

/// Default durable-campaign unit grain, in walked faults per unit.
/// Matches the work-stealing chunk ceiling so one unit is a few
/// scheduler chunks: coarse enough that store round-trips stay noise,
/// fine enough that a killed run loses little finished work.
pub const DEFAULT_UNIT_FAULTS: usize = 256;

/// The per-chunk golden data of one campaign: every chunk's golden
/// values in one flat arena (`n_chunks × n_gates` words) plus the live
/// mask per chunk. One allocation for the whole campaign instead of one
/// `Vec` per chunk, and chunk access is a slice borrow — nothing on the
/// steady-state execution path allocates.
struct GoldenChunks<Wd> {
    words: Vec<Wd>,
    live: Vec<Wd>,
    n_gates: usize,
}

impl<Wd: SimWord> GoldenChunks<Wd> {
    /// Number of golden chunks (pattern words).
    fn len(&self) -> usize {
        self.live.len()
    }

    /// Chunk `ci`'s golden values and live mask.
    fn chunk(&self, ci: usize) -> (&[Wd], Wd) {
        (
            &self.words[ci * self.n_gates..(ci + 1) * self.n_gates],
            self.live[ci],
        )
    }

    /// Live masks of every chunk, in chunk order.
    fn live_masks(&self) -> &[Wd] {
        &self.live
    }
}

/// The packed detection interface shared by the plain and durable
/// campaign paths: one fault in, one `Wd` detection mask out, with the
/// drop bookkeeping the engines keep in their scratch. Implemented by
/// the event-driven cone walker ([`WalkEngine`]) and the critical-path
/// tracing hybrid ([`TraceEngine`]), so the campaign drain loop
/// ([`drain_unit`]) is written exactly once.
trait PackedDetect<Wd: SimWord>: Sync {
    /// Per-worker mutable state.
    type Scratch;
    fn scratch(&self) -> Self::Scratch;
    /// Can any fault rooted at `gate` ever reach a primary output?
    fn observable(&self, gate: usize) -> bool;
    /// Prepares the scratch for golden chunk `chunk` — a no-op when that
    /// chunk is already resident (the engines tag their scratch with the
    /// loaded chunk), which is what makes re-draining the same chunk
    /// across consecutive fault ranges nearly free.
    fn load(&self, scratch: &mut Self::Scratch, chunk: u32, golden: &[Wd]);
    /// Detection mask of `fault` under the loaded chunk.
    fn detect(&self, scratch: &mut Self::Scratch, golden: &[Wd], fault: Fault) -> Wd;
    /// Records one fault retired before the final chunk (fault dropping).
    fn note_drop(&self, scratch: &mut Self::Scratch);
    /// Flushes the scratch's counters to the telemetry registry.
    fn flush(&self, scratch: &mut Self::Scratch);
}

/// Per-worker drain state: the engine scratch plus the pooled
/// active-fault list, so steady-state unit execution reuses every
/// buffer across the ranges a worker claims instead of reallocating
/// per unit.
struct DrainScratch<S> {
    inner: S,
    active: Vec<u32>,
}

impl<S> DrainScratch<S> {
    fn new(inner: S) -> Self {
        DrainScratch {
            inner,
            active: Vec::new(),
        }
    }
}

/// Fetches a plan artifact from the cache, or builds and publishes it.
///
/// The decode path executes zero DFS or classification work: a hit is a
/// read, a checksum, a byte decode and the caller's validation (folded
/// into `decode`). Corrupt, foreign or stale-version payloads fall
/// through to a rebuild (and overwrite the bad entry). `plan.cache_hits` /
/// `plan.cache_misses` count how a workload's setup split; a failed
/// publish is counted by the store and never stops the campaign.
fn load_or_build<T>(
    artifacts: Option<&ArtifactStore>,
    key: rescue_campaign::ContentHash,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
    build: impl FnOnce() -> T,
) -> T {
    let Some(store) = artifacts else {
        return build();
    };
    if let Some(artifact) = store.load(key).and_then(|bytes| decode(&bytes)) {
        metrics::counter("plan.cache_hits").add(1);
        return artifact;
    }
    metrics::counter("plan.cache_misses").add(1);
    let built = build();
    // The store counts a failed write; the campaign carries on.
    let _ = store.save(key, &encode(&built));
    built
}

/// The event-driven packed cone walker ([`CampaignPlan::detect_packed`]).
struct WalkEngine<'a> {
    c: &'a CompiledNetlist,
    plan: CampaignPlan,
}

impl<'a> WalkEngine<'a> {
    fn build(c: &'a CompiledNetlist, walk: &[Fault], workers: usize, opts: &PackedOptions) -> Self {
        let plan = load_or_build(
            opts.artifacts,
            crate::content::plan_key(c, walk, false),
            |bytes| CampaignPlan::from_bytes(bytes).filter(|p| p.validate(c)),
            CampaignPlan::to_bytes,
            || CampaignPlan::build_with(c, walk, workers),
        );
        WalkEngine { c, plan }
    }
}

impl<Wd: SimWord> PackedDetect<Wd> for WalkEngine<'_> {
    type Scratch = WideScratch<Wd>;

    fn scratch(&self) -> WideScratch<Wd> {
        WideScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        self.plan.observable(gate)
    }

    fn load(&self, scratch: &mut WideScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut WideScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.plan
            .detect_packed(self.c, golden, scratch, fault)
            .expect("fault root missing from campaign plan")
    }

    fn note_drop(&self, scratch: &mut WideScratch<Wd>) {
        scratch.counters.dropped += 1;
    }

    fn flush(&self, scratch: &mut WideScratch<Wd>) {
        scratch.counters.flush_to_metrics();
    }
}

/// The hybrid CPT engine: observability by backward tracing over
/// fanout-free regions, event-driven walks only at reconvergent stems
/// (shared by the whole region below).
struct TraceEngine<'a> {
    c: &'a CompiledNetlist,
    tplan: TracePlan,
}

impl<'a> TraceEngine<'a> {
    fn build(c: &'a CompiledNetlist, walk: &[Fault], workers: usize, opts: &PackedOptions) -> Self {
        let tplan = load_or_build(
            opts.artifacts,
            crate::content::plan_key(c, walk, true),
            |bytes| TracePlan::from_bytes(bytes).filter(|p| p.validate(c)),
            TracePlan::to_bytes,
            || TracePlan::build_with(c, walk, workers),
        );
        TraceEngine { c, tplan }
    }
}

impl<Wd: SimWord> PackedDetect<Wd> for TraceEngine<'_> {
    type Scratch = TraceScratch<Wd>;

    fn scratch(&self) -> TraceScratch<Wd> {
        TraceScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        self.tplan.po_reachable_gate(gate)
    }

    fn load(&self, scratch: &mut TraceScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut TraceScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.tplan
            .detect_traced(self.c, golden, scratch, fault)
            .expect("fault root missing from campaign plan")
    }

    fn note_drop(&self, scratch: &mut TraceScratch<Wd>) {
        scratch.inner.counters.dropped += 1;
    }

    fn flush(&self, scratch: &mut TraceScratch<Wd>) {
        scratch.inner.counters.flush_to_metrics();
    }
}

/// Drains one fault range over every golden chunk with fault dropping —
/// the single campaign inner loop, shared verbatim by the plain
/// schedules and the durable store-backed path (which is what keeps
/// their verdicts bit-identical).
///
/// `offset` is the range's global position in the walk list; with a
/// shared [`DetectedSet`] (`global`) the loop consults the bitmap
/// before each walk and publishes each detection at `offset + fi`.
/// Durable units partition walk positions disjointly, so within one
/// process the consult can never retire a fault this loop would
/// otherwise have walked — persisted verdicts stay deterministic — but
/// the publishing keeps the durable path on the same contract as the
/// tiled global schedule.
fn drain_unit<Wd: SimWord, E: PackedDetect<Wd>>(
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    scratch: &mut DrainScratch<E::Scratch>,
    offset: usize,
    range: &[Fault],
    global: Option<&DetectedSet>,
) -> Vec<Option<usize>> {
    let n_chunks = chunks.len();
    let mut first: Vec<Option<usize>> = vec![None; range.len()];
    // Structurally unobservable faults can never be detected: retire
    // them before the first word instead of re-asking the engine on
    // every chunk. The active list (pooled across the ranges a worker
    // claims) then shrinks as faults drop, keeping site-consecutive
    // order so the one-entry observability cache stays hot.
    let DrainScratch { inner, active } = scratch;
    active.clear();
    active.extend(
        (0..range.len() as u32)
            .filter(|&fi| engine.observable(range[fi as usize].site().gate().index())),
    );
    for ci in 0..n_chunks {
        if active.is_empty() {
            break; // every detectable fault in this range dropped
        }
        let (golden, live) = chunks.chunk(ci);
        engine.load(inner, ci as u32, golden);
        active.retain(|&fi| {
            if let Some(set) = global {
                if set.is_detected(offset + fi as usize) {
                    set.note_skip();
                    return false;
                }
            }
            let fault = range[fi as usize];
            let mask = engine.detect(inner, golden, fault) & live;
            if mask.is_zero() {
                return true;
            }
            first[fi as usize] =
                Some(ci * Wd::LANES + mask.first_lane().expect("mask is non-zero"));
            if let Some(set) = global {
                set.mark(offset + fi as usize);
            }
            if ci + 1 < n_chunks {
                // Retired early: later words never walk this fault's
                // cone again.
                engine.note_drop(inner);
            }
            false
        });
    }
    // Range granularity: one registry touch per work call, never per
    // fault.
    engine.flush(inner);
    first
}

/// Driver-side figures of one executed campaign — the fields
/// [`CampaignStats`] copies out of the underlying run record,
/// abstracted so the unit-scope and tiled global-scope schedules can
/// share one stats tail.
struct RunFigures {
    elapsed_ns: u64,
    worker_ns: Vec<u64>,
    steals: u64,
    dropped_global: u64,
}

/// Executes the walk list with `engine` under the campaign's schedule
/// and drop scope; returns per-fault first detections plus the run
/// figures. Wall-clock is recorded in the `exec.walk_ms` /
/// `exec.trace_ms` histogram (per `tracing`) when telemetry is enabled.
fn execute_packed<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    scope: DropScope,
    tracing: bool,
) -> (Vec<Option<usize>>, RunFigures)
where
    E::Scratch: Send,
{
    let start = Instant::now();
    let out = match scope {
        DropScope::Unit => {
            let run = run_plain(campaign, walk, engine, chunks);
            let figures = RunFigures {
                elapsed_ns: run.elapsed_ns,
                worker_ns: run.worker_ns,
                steals: run.steals,
                dropped_global: 0,
            };
            (run.results, figures)
        }
        DropScope::Global => run_global(campaign, walk, engine, chunks),
    };
    if rescue_telemetry::enabled() {
        let name = if tracing {
            "exec.trace_ms"
        } else {
            "exec.walk_ms"
        };
        metrics::histogram(name, &metrics::pow2_bounds(16))
            .record(start.elapsed().as_millis() as u64);
    }
    out
}

/// Runs the walk list through the campaign's schedule (in-process path).
fn run_plain<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
) -> ShardedRun<Option<usize>>
where
    E::Scratch: Send,
{
    let scratch = |_w: usize| DrainScratch::new(engine.scratch());
    let work = |scratch: &mut DrainScratch<E::Scratch>, offset: usize, range: &[Fault]| {
        drain_unit(engine, chunks, scratch, offset, range, None)
    };
    match campaign.schedule {
        rescue_campaign::Schedule::Static => campaign.run_ranges(walk, scratch, work),
        rescue_campaign::Schedule::Dynamic { .. } => campaign.run_dynamic(walk, scratch, work),
    }
}

/// Work tile of the cross-worker-dropping schedule: one golden chunk
/// crossed with one contiguous walk-list subrange.
#[derive(Clone, Copy)]
struct Tile {
    chunk: u32,
    start: u32,
    end: u32,
}

/// Runs the walk list under [`DropScope::Global`]: (golden chunk ×
/// fault range) tiles go through the work-stealing queue, every worker
/// consults the shared [`DetectedSet`] before walking a fault and
/// publishes each detection, so a fault detected by any worker on any
/// chunk is never walked again anywhere. Tiles are ordered chunk-major:
/// consecutive tiles a worker claims share their golden chunk (so the
/// scratch's chunk tag skips nearly every reload), and the chunk-major
/// merge below keeps first detections pattern-ordered wherever no skip
/// raced.
///
/// The detected set equals the unit-scope set exactly — a skip only
/// ever suppresses a redundant re-walk of an already-detected fault —
/// but first-detection indices are wall-clock-dependent (a later chunk
/// can win the race and suppress the earlier detection entirely),
/// which is why this schedule is opt-in for verdict-mode campaigns.
fn run_global<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
) -> (Vec<Option<usize>>, RunFigures)
where
    E::Scratch: Send,
{
    let detected = DetectedSet::new(walk.len());
    let grain = campaign.chunk_size(walk.len().max(1));
    let ranges: Vec<(u32, u32)> = (0..walk.len())
        .step_by(grain)
        .map(|s| (s as u32, s.saturating_add(grain).min(walk.len()) as u32))
        .collect();
    let mut tiles = Vec::with_capacity(chunks.len() * ranges.len());
    for ci in 0..chunks.len() as u32 {
        for &(start, end) in &ranges {
            tiles.push(Tile {
                chunk: ci,
                start,
                end,
            });
        }
    }
    let run = campaign.run_dynamic(
        &tiles,
        |_w| engine.scratch(),
        |scratch: &mut E::Scratch, _offset: usize, claimed: &[Tile]| {
            let out: Vec<Vec<(u32, usize)>> = claimed
                .iter()
                .map(|t| {
                    let (golden, live) = chunks.chunk(t.chunk as usize);
                    engine.load(scratch, t.chunk, golden);
                    let mut hits: Vec<(u32, usize)> = Vec::new();
                    for fi in t.start..t.end {
                        let fault = walk[fi as usize];
                        if !engine.observable(fault.site().gate().index()) {
                            continue;
                        }
                        if detected.is_detected(fi as usize) {
                            detected.note_skip();
                            continue;
                        }
                        let mask = engine.detect(scratch, golden, fault) & live;
                        if let Some(lane) = mask.first_lane() {
                            detected.mark(fi as usize);
                            hits.push((fi, t.chunk as usize * Wd::LANES + lane));
                        }
                    }
                    hits
                })
                .collect();
            engine.flush(scratch);
            out
        },
    );
    // Chunk-major merge: results arrive in tile (= chunk-major) order,
    // so the first recorded hit per fault is the lowest-chunk one.
    let mut first: Vec<Option<usize>> = vec![None; walk.len()];
    for hits in &run.results {
        for &(fi, p) in hits {
            if first[fi as usize].is_none() {
                first[fi as usize] = Some(p);
            }
        }
    }
    let figures = RunFigures {
        elapsed_ns: run.elapsed_ns,
        worker_ns: run.worker_ns,
        steals: run.steals,
        dropped_global: detected.skipped(),
    };
    (first, figures)
}

/// Runs the walk list through [`Campaign::run_store`]: same drain loop
/// as [`run_plain`], but partitioned into the manifest's units with
/// verdicts persisted (and answered) through the result store. With
/// [`DropScope::Global`], detections are additionally published to (and
/// consulted from) the shared bitmap — vacuous within one process (units
/// partition walk positions disjointly), so persisted verdicts stay
/// deterministic for every store state.
fn run_durable<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    manifest: &CampaignManifest,
    store: &dyn ResultStore,
    global: Option<&DetectedSet>,
) -> DurableRun<Option<usize>>
where
    E::Scratch: Send,
{
    let n_chunks = chunks.len();
    campaign.run_store(
        walk,
        manifest,
        store,
        |_w| DrainScratch::new(engine.scratch()),
        |scratch: &mut DrainScratch<E::Scratch>, offset: usize, range: &[Fault]| {
            drain_unit(engine, chunks, scratch, offset, range, global)
        },
        encode_verdicts,
        decode_verdicts,
        move |rs: &[Option<usize>]| unit_delta::<Wd>(rs, n_chunks),
    )
}

/// Persisted verdict payload of one unit: a `u64` count followed by one
/// little-endian `u64` first-detection index per walked fault, with
/// `u64::MAX` standing in for "never detected".
fn encode_verdicts(rs: &[Option<usize>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rs.len() * 8);
    out.extend_from_slice(&(rs.len() as u64).to_le_bytes());
    for r in rs {
        out.extend_from_slice(&r.map_or(u64::MAX, |p| p as u64).to_le_bytes());
    }
    out
}

/// Inverse of [`encode_verdicts`]; `None` marks the payload corrupt
/// (truncated or miscounted), which forces re-execution of the unit.
fn decode_verdicts(bytes: &[u8]) -> Option<Vec<Option<usize>>> {
    if bytes.len() < 8 {
        return None;
    }
    let (head, body) = bytes.split_at(8);
    let n = u64::from_le_bytes(head.try_into().unwrap()) as usize;
    if body.len() != n.checked_mul(8)? {
        return None;
    }
    Some(
        body.chunks_exact(8)
            .map(|c| {
                let v = u64::from_le_bytes(c.try_into().unwrap());
                (v != u64::MAX).then_some(v as usize)
            })
            .collect(),
    )
}

/// Deterministic stats contribution of one unit, persisted next to its
/// verdicts so a resumed campaign's merged delta matches an
/// uninterrupted run bit for bit. Drop counts follow the report rule:
/// detected before the final pattern word.
fn unit_delta<Wd: SimWord>(rs: &[Option<usize>], n_chunks: usize) -> StatsDelta {
    let detected = rs.iter().flatten().count() as u64;
    let dropped = rs
        .iter()
        .flatten()
        .filter(|&&p| p / Wd::LANES + 1 < n_chunks)
        .count() as u64;
    StatsDelta {
        injections: rs.len() as u64,
        detected,
        undetected: rs.len() as u64 - detected,
        dropped,
        faults_walked: rs.len() as u64,
        ..StatsDelta::default()
    }
}

/// Shared tail of the plain and durable packed campaigns: lane
/// telemetry, verdict expansion over the full universe and the final
/// tally/drop accounting, under an `exec.expand` span. `stats` arrives
/// with the timing, worker and unit figures already filled by the
/// respective driver.
fn finish_packed<Wd: SimWord>(
    faults: &[Fault],
    patterns: &[Vec<bool>],
    opts: &PackedOptions,
    chunks: &GoldenChunks<Wd>,
    expand: Option<Vec<Option<u32>>>,
    results: Vec<Option<usize>>,
    mut stats: CampaignStats,
) -> CampaignRun {
    let _span = span!("exec.expand", faults = faults.len());
    let n_chunks = chunks.len();
    if rescue_telemetry::enabled() {
        // Bounds cover every supported width (64 * {1, 2, 4, 8}) so
        // one histogram serves all lane widths.
        let lanes = rescue_telemetry::metrics::histogram(
            "fault.packed_lanes",
            &[8, 16, 24, 32, 40, 48, 56, 64, 128, 192, 256, 384, 512],
        );
        for live in chunks.live_masks() {
            lanes.record(live.count_ones() as u64);
        }
        rescue_telemetry::metrics::gauge("fault.lane_width").set(Wd::LANES as i64);
        rescue_telemetry::metrics::gauge("fault.collapse_ratio_pct")
            .set((stats.collapse_ratio() * 100.0).round() as i64);
        if opts.tracing {
            rescue_telemetry::metrics::gauge("fault.traced_fraction_pct")
                .set((stats.traced_fraction() * 100.0).round() as i64);
        }
        if stats.dropped_global > 0 {
            rescue_telemetry::metrics::counter("fault.dropped_global")
                .add(stats.dropped_global as u64);
        }
    }
    for live in chunks.live_masks() {
        stats.record_lanes(live.count_ones() as u64, Wd::LANES as u64);
    }
    // Expand representative verdicts back over the full universe; a
    // `None` slot is an unobservable class, never detected.
    let first_detection: Vec<Option<usize>> = match &expand {
        None => results,
        Some(map) => map
            .iter()
            .map(|&slot| slot.and_then(|s| results[s as usize]))
            .collect(),
    };
    let report = CampaignReport {
        faults: faults.to_vec(),
        first_detection,
        patterns: patterns.len(),
    };
    stats.tally.detected = report.detected_count();
    stats.tally.undetected = faults.len() - stats.tally.detected;
    // A fault counts as dropped when it retired before the final
    // pattern word (same rule as the fault.dropped counter).
    stats.dropped = report
        .first_detection
        .iter()
        .flatten()
        .filter(|&&p| p / Wd::LANES + 1 < n_chunks)
        .count();
    CampaignRun { report, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use rescue_netlist::{generate, NetlistBuilder};

    fn exhaustive_patterns(n: usize) -> Vec<Vec<bool>> {
        (0..(1u32 << n))
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn c17_full_coverage_exhaustive() {
        let c = generate::c17();
        let faults = universe::stuck_at_universe(&c);
        let sim = FaultSimulator::new(&c);
        let report = sim.campaign(&c, &faults, &exhaustive_patterns(5));
        assert_eq!(
            report.coverage(),
            1.0,
            "c17 is fully testable: {:?}",
            report.undetected()
        );
        assert_eq!(report.patterns(), 32);
    }

    #[test]
    fn redundant_fault_is_undetectable() {
        // y = a OR (a AND b): the AND gate's sa0 is redundant.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.and(a, x);
        let y = b.or(a, g);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let f = Fault::stuck_at(FaultSite::Output(g), false);
        let report = sim.campaign(&n, &[f], &exhaustive_patterns(2));
        assert_eq!(report.detected_count(), 0, "redundant fault undetectable");
    }

    #[test]
    fn pin_fault_differs_from_output_fault() {
        // Fanout stem: x feeds two ANDs. A pin sa1 on one branch is not
        // the same as the stem's output sa1.
        let mut b = NetlistBuilder::new("stem");
        let x = b.input("x");
        let p = b.input("p");
        let q = b.input("q");
        let g1 = b.and(x, p);
        let g2 = b.and(x, q);
        b.output("y1", g1);
        b.output("y2", g2);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let pats = exhaustive_patterns(3);
        let stem = Fault::stuck_at(FaultSite::Output(x), true);
        let branch = Fault::stuck_at(FaultSite::Pin { gate: g1, pin: 0 }, true);
        let r = sim.campaign(&n, &[stem, branch], &pats);
        assert_eq!(r.detected_count(), 2);
        // x=0,p=1,q=1: stem fault corrupts both outputs, branch only y1.
        let words = pack_patterns(&[vec![false, true, true]]);
        let golden = sim.golden(&words);
        let fs = sim.with_stuck(&words, stem);
        let fb = sim.with_stuck(&words, branch);
        assert_eq!(fs[g2.index()] & 1, 1, "stem corrupts second branch");
        assert_eq!(fb[g2.index()] & 1, golden[g2.index()] & 1);
    }

    #[test]
    fn bridge_fault_detection() {
        let mut b = NetlistBuilder::new("br");
        let a = b.input("a");
        let c = b.input("c");
        let n1 = b.buf(a);
        let n2 = b.buf(c);
        b.output("y1", n1);
        b.output("y2", n2);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        // a=1, c=0: wired-AND forces both to 0 -> y1 flips.
        let words = pack_patterns(&[vec![true, false]]);
        let v = sim.with_bridge(
            &words,
            BridgingFault {
                a: n1,
                b: n2,
                wired_and: true,
            },
        );
        assert_eq!(v[n1.index()] & 1, 0);
        let v = sim.with_bridge(
            &words,
            BridgingFault {
                a: n1,
                b: n2,
                wired_and: false,
            },
        );
        assert_eq!(v[n2.index()] & 1, 1, "wired-OR pulls the 0 net up");
    }

    #[test]
    fn transition_faults_need_transitions() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSimulator::new(&n);
        let faults = universe::transition_universe(&n);
        // Constant stimulus: no transitions, nothing detected.
        let r = sim.transition_campaign(&n, &faults, &[vec![false], vec![false]]);
        assert_eq!(r.detected_count(), 0);
        // 0 -> 1 launches rising transitions through a and y.
        let r = sim.transition_campaign(&n, &faults, &[vec![false], vec![true]]);
        let detected: Vec<String> = faults
            .iter()
            .zip(r.first_detection())
            .filter(|(_, d)| d.is_some())
            .map(|(f, _)| f.to_string())
            .collect();
        assert!(detected.iter().any(|f| f.contains("str")), "{detected:?}");
        // slow-to-fall needs 1 -> 0.
        let r = sim.transition_campaign(&n, &faults, &[vec![true], vec![false]]);
        let has_stf = faults
            .iter()
            .zip(r.first_detection())
            .any(|(f, d)| d.is_some() && f.kind() == FaultKind::SlowToFall);
        assert!(has_stf);
    }

    #[test]
    fn sequential_campaign_detects_through_state() {
        // Shift register: a stuck fault at the serial input shows up at the
        // output only n cycles later.
        let s = generate::shift_register(3);
        let sin = s.primary_inputs()[0];
        let sim = FaultSimulator::new(&s);
        let f = Fault::stuck_at(FaultSite::Output(sin), false);
        // Drive 1s; fault forces 0s; first output divergence at cycle 3.
        let stim: Vec<Vec<bool>> = (0..6).map(|_| vec![true]).collect();
        let r = sim.campaign_seq(&s, &[f], &stim);
        assert_eq!(r.first_detection()[0], Some(3));
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let net = generate::random_logic(8, 80, 4, 5);
        let faults = universe::stuck_at_universe(&net);
        let patterns: Vec<Vec<bool>> = (0..200u32)
            .map(|p| {
                (0..8)
                    .map(|i| p.wrapping_mul(2654435761) >> (i + 3) & 1 == 1)
                    .collect()
            })
            .collect();
        let sim = FaultSimulator::new(&net);
        let serial = sim.campaign(&net, &faults, &patterns);
        for threads in [1, 2, 4] {
            let parallel = sim.campaign_parallel(&net, &faults, &patterns, threads);
            assert_eq!(
                parallel.first_detection(),
                serial.first_detection(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn coverage_of_empty_fault_list_is_one() {
        let c = generate::c17();
        let sim = FaultSimulator::new(&c);
        let r = sim.campaign(&c, &[], &exhaustive_patterns(5));
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn detection_mask_matches_reference_engine() {
        let net = generate::random_logic(8, 120, 4, 21);
        let faults = universe::stuck_at_universe(&net);
        let patterns: Vec<Vec<bool>> = (0..64u32)
            .map(|p| {
                (0..8)
                    .map(|i| p.wrapping_mul(0x9e37) >> (i + 2) & 1 == 1)
                    .collect()
            })
            .collect();
        let words = pack_patterns(&patterns);
        let fast = FaultSimulator::new(&net);
        let slow = crate::reference::ReferenceFaultSimulator::new(&net);
        let golden = fast.golden(&words);
        assert_eq!(golden, slow.golden(&net, &words));
        for &fault in &faults {
            assert_eq!(
                fast.detection_mask(&net, &words, &golden, fault),
                slow.detection_mask(&net, &words, &golden, fault),
                "{fault}"
            );
        }
    }
}
