//! Serial and parallel-pattern fault simulation with fault dropping.
//!
//! [`FaultSimulator`] runs on the [`CompiledNetlist`] flat arena and
//! detects stuck-at faults with the packed levelized walk from
//! [`crate::engine`] (or the tracing hybrid from [`crate::trace`]): one
//! event-driven walk per (fault site, pattern word) that reads the
//! shared golden chunk in place, so campaigns allocate nothing per fault
//! and copy nothing per chunk. The three stuck-at
//! campaign entry points — [`FaultSimulator::campaign`],
//! [`FaultSimulator::campaign_packed`] and
//! [`FaultSimulator::campaign_packed_durable`] — run one body, and every
//! fault range drains through one loop that drops a fault at its first
//! detection. On a design whose output cone holds at most half of the
//! gates, a campaign evaluates only that cone ([`campaign_arena`]).
//! Verdicts, first-detection indices included, are
//! bit-identical to the full-resimulation oracle in [`crate::reference`]
//! for every worker count and schedule (enforced by property tests).

use crate::collapse::CollapsedUniverse;
use crate::engine::{CampaignPlan, FaultScratch, WideScratch};
use crate::model::{BridgingFault, Fault, FaultKind, FaultSite};
use crate::trace::{TracePlan, TraceScratch};
use rescue_campaign::{
    ArtifactStore, Campaign, CampaignManifest, CampaignStats, DurableRun, ResultStore, ShardedRun,
    StatsDelta,
};
use rescue_netlist::{GateId, GateKind, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::{pack_patterns_wide_into, PackedWord, SimWord, SUPPORTED_LANE_WIDTHS};
use rescue_telemetry::{metrics, span};
use std::borrow::Cow;
use std::collections::HashMap;
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
/// packed lane width, an optional collapsed universe and the detection
/// engine. The default (lane width 1, no collapsing, walking engine) is
/// what [`FaultSimulator::campaign`] runs.
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
}

impl Default for PackedOptions<'_> {
    fn default() -> Self {
        PackedOptions {
            lane_width: 1,
            collapsed: None,
            tracing: false,
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

    /// Returns `self` unchanged: plans are built afresh by every
    /// campaign, never cached, and `_artifacts` is inert. It keeps its
    /// signature for callers that still pass a cache; new code leaves
    /// it out.
    pub fn with_artifacts(self, _artifacts: &ArtifactStore) -> Self {
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

    /// Equals [`FaultSimulator::new`]: it compiles and never touches
    /// `_artifacts`, which is inert. Nothing derived from a netlist is
    /// cached, because compiling an arena or building a campaign's plan
    /// costs less than reading it back and validating it (EXPERIMENTS
    /// E20 has the measurements). It keeps its signature for callers
    /// that still pass a cache; new code calls [`FaultSimulator::new`].
    pub fn new_cached(netlist: &Netlist, _artifacts: &ArtifactStore) -> Self {
        FaultSimulator::new(netlist)
    }

    /// The compiled arena this simulator evaluates on.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
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
    /// used by the value-inspection APIs; campaigns go through the packed
    /// walk instead.
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
                Some((fg, fp)) if fg == gi => c.eval_pin_forced(gi, &values, fp, stuck_word),
                _ => c.eval(gi, &values),
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
    /// primary output, given the golden values of one 64-pattern word
    /// (see [`FaultSimulator::golden`]).
    ///
    /// One-shot packed detection ([`CampaignPlan::detect_packed`]);
    /// campaigns amortize the plan and scratch this call rebuilds.
    ///
    /// # Panics
    ///
    /// Panics on a non-stuck-at fault kind.
    pub fn detection_mask(&self, golden: &[u64], fault: Fault) -> u64 {
        let c = &self.compiled;
        let plan = CampaignPlan::build(c, std::slice::from_ref(&fault));
        let mut scratch = FaultScratch::new(c.len());
        scratch.load_golden(golden);
        plan.detect_packed(c, golden, &mut scratch, fault)
            .expect("the plan holds the fault's site")
    }

    /// Runs a serial stuck-at campaign with fault dropping: each fault is
    /// simulated only until its first detection.
    /// [`FaultSimulator::campaign_packed`] on one worker with the default
    /// [`PackedOptions`].
    ///
    /// # Panics
    ///
    /// Panics if any pattern width differs from the primary-input count.
    pub fn campaign(&self, faults: &[Fault], patterns: &[Vec<bool>]) -> CampaignReport {
        self.campaign_packed(
            faults,
            patterns,
            &Campaign::serial(),
            PackedOptions::default(),
        )
        .report
    }

    /// PPSFP stuck-at campaign with fault dropping through the shared
    /// [`Campaign`] driver: per-chunk golden words are computed once and
    /// shared read-only, and every worker detects through the packed
    /// observability path ([`CampaignPlan::detect_packed`]) — one
    /// event-driven walk per (site, pattern word), shared by all faults
    /// at that site — or, with [`PackedOptions::tracing`], through the
    /// critical-path-tracing hybrid. The fault list is handed out per
    /// the campaign's [`rescue_campaign::Schedule`]: static contiguous
    /// shards or the work-stealing chunk queue (the default — fault
    /// dropping makes per-fault cost wildly non-uniform, which static
    /// shards handle worst).
    ///
    /// [`PackedOptions`] picks the lane width (1/2/4/8 × 64 patterns per
    /// walk, autovectorized), an optional collapsed universe (walk
    /// equivalence-class representatives only, expand verdicts to the
    /// rest for free) and tracing. Each worker drops the faults of the
    /// range it drains at their first detection, so verdicts,
    /// first-detection indices included, are bit-identical to
    /// [`FaultSimulator::campaign`] for every width, schedule, worker
    /// count and collapse setting; the returned [`CampaignRun`] adds
    /// throughput/lane-occupancy/drop/steal observability, and
    /// [`CampaignStats::faults_walked`] records how much walking the
    /// collapse saved.
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
        self.run_packed(faults, patterns, campaign, &opts, None)
    }

    /// [`FaultSimulator::campaign_packed`] made durable: the campaign
    /// becomes the deterministic plan of content-addressed units from
    /// [`FaultSimulator::durable_plan`], unit verdicts persist through
    /// `store`, and only the units the store is missing are executed.
    /// A killed run resumes where it stopped; a second process pointed
    /// at the same store shares the work via create-exclusive claims
    /// without ever double-executing a unit; re-submitting a finished
    /// campaign executes zero units. A fully cached re-submission reads
    /// the store and expands the verdicts, nothing more: golden values
    /// and the detection engine (with its plan) are built only once a
    /// unit misses the store, so such a run reports
    /// [`CampaignStats::faults_traced`] as 0. Verdicts and stats tallies
    /// are bit-identical to [`FaultSimulator::campaign_packed`] for every
    /// store state, worker count, schedule and unit grain;
    /// [`CampaignStats::units_cached`] / `units_executed` record how the
    /// run split between store and engine. Units partition the walk
    /// list and each unit drains through the same loop as the plain
    /// path, so first detections are deterministic on both.
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
        self.run_packed(
            faults,
            patterns,
            campaign,
            &opts,
            Some((store, unit_faults)),
        )
    }

    /// The one lane-width dispatch in front of
    /// [`FaultSimulator::packed_w`].
    fn run_packed(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> CampaignRun {
        match opts.lane_width {
            1 => self.packed_w::<u64>(faults, patterns, campaign, opts, durable),
            2 => self.packed_w::<PackedWord<2>>(faults, patterns, campaign, opts, durable),
            4 => self.packed_w::<PackedWord<4>>(faults, patterns, campaign, opts, durable),
            8 => self.packed_w::<PackedWord<8>>(faults, patterns, campaign, opts, durable),
            w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
        }
    }

    /// The width-generic body of every stuck-at campaign: walk list,
    /// then the in-process schedule or — with a store and unit grain in
    /// `durable` — the durable unit drain, then verdict expansion. The
    /// campaign's arena ([`campaign_arena`]), its golden chunks and the
    /// engine are built only when this process walks faults: always on
    /// the plain path, and on the durable path only once a unit misses
    /// the store (the prepare step of [`Campaign::run_store`]). Runs
    /// under a `fault.campaign` span, or `fault.campaign_durable` (also
    /// the fleet stage) when durable.
    fn packed_w<Wd: SimWord>(
        &self,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        campaign: &Campaign,
        opts: &PackedOptions,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> CampaignRun {
        let stage = if durable.is_some() {
            rescue_campaign::fleet::set_stage("fault.campaign_durable");
            "fault.campaign_durable"
        } else {
            "fault.campaign"
        };
        let _campaign = span!(stage, faults = faults.len());
        let (walk, expand) = self.walk_list(faults, opts);
        let manifest =
            durable.map(|(_, grain)| self.manifest_for(faults, patterns, opts, walk.len(), grain));
        let durable = durable.map(|(store, _)| store).zip(manifest.as_ref());
        let geometry = ChunkGeometry::<Wd>::new(patterns.len());
        let workers = campaign.workers;
        // A run that builds no trace plan reports no traced faults.
        let mut faults_traced = 0;
        let (results, stats) = if opts.tracing {
            execute(campaign, &walk, &geometry, opts, durable, || {
                let (arena, walk) = campaign_arena(&self.compiled, &walk);
                let chunks = Self::golden_chunks(&arena, patterns, &geometry, workers);
                let engine = TraceEngine::build(arena, &walk);
                faults_traced = engine.tplan.statically_traced();
                Prepared {
                    walk,
                    chunks,
                    engine,
                }
            })
        } else {
            execute(campaign, &walk, &geometry, opts, durable, || {
                let (arena, walk) = campaign_arena(&self.compiled, &walk);
                let chunks = Self::golden_chunks(&arena, patterns, &geometry, workers);
                let engine = WalkEngine::build(arena, &walk);
                Prepared {
                    walk,
                    chunks,
                    engine,
                }
            })
        };
        let stats = CampaignStats {
            injections: faults.len(),
            faults_walked: walk.len(),
            faults_traced,
            ..stats
        };
        finish_packed(faults, opts, &geometry, expand, results, stats)
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
        let _span = span!("exec.manifest", faults = walk_len);
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

    /// Collapse prefilter shared by the plain and durable packed
    /// campaigns: walk each equivalence class once, in order of first
    /// appearance, then sweep PO reachability over the representatives —
    /// structurally unobservable classes share the all-zero detection
    /// mask and expand to "undetected" without a walk. Exact because
    /// equivalent faults have identical detection masks (the property
    /// the `collapse` tests pin down), so even first-detection indices
    /// expand unchanged. Classes are told apart by their representative's
    /// `u32` slot ([`CollapsedUniverse::representative_slot`]), so only
    /// the walked representatives are decoded into [`Fault`]s.
    ///
    /// Faults outside the design (a gate past the end, or, when
    /// collapsing, a pin past its gate's arity) are never walked: no
    /// pattern detects them. The returned map gives the walked slot that
    /// answers each original fault ([`UNWALKED`]: never detected). It is
    /// `None`, and the walk list borrows `faults`, when collapsing is off
    /// and every fault sits inside the design.
    fn walk_list<'f>(
        &self,
        faults: &'f [Fault],
        opts: &PackedOptions,
    ) -> (Cow<'f, [Fault]>, Option<Vec<u32>>) {
        let _span = span!("exec.walk_list", faults = faults.len());
        let c = &self.compiled;
        let Some(cu) = opts.collapsed else {
            let inside = |f: &Fault| f.site().gate().index() < c.len();
            if faults.iter().all(inside) {
                return (Cow::Borrowed(faults), None);
            }
            let mut walk = Vec::new();
            let map = faults
                .iter()
                .map(|&f| {
                    if !inside(&f) {
                        return UNWALKED;
                    }
                    walk.push(f);
                    walk.len() as u32 - 1
                })
                .collect();
            return (Cow::Owned(walk), Some(map));
        };
        // O(gates + edges) reachability sweep first, so the plan covers
        // only the faults that will actually be walked. Then one pass
        // over the universe: per fault, one slot lookup, and a hash
        // probe only when the class is observable.
        let reachable = crate::engine::po_reachable(c);
        let mut index_of: HashMap<u32, u32> = HashMap::new();
        let mut walk = Vec::new();
        let map = faults
            .iter()
            .map(|&f| match cu.representative_slot(f) {
                Some((slot, gate)) if reachable[gate] => {
                    *index_of.entry(slot).or_insert_with(|| {
                        walk.push(cu.fault_of(slot));
                        walk.len() as u32 - 1
                    })
                }
                _ => UNWALKED,
            })
            .collect();
        (Cow::Owned(walk), Some(map))
    }

    /// Golden values of every chunk of `patterns` on arena `c`, computed
    /// once and shared read-only by all workers; `geometry` supplies the
    /// chunk count and live masks.
    ///
    /// The calling thread allocates one buffer per chunk and writes none
    /// of them; each buffer is zeroed and evaluated by the thread that
    /// fills it, so its pages are first touched there, in parallel, and
    /// no filler thread allocates arena memory. Above
    /// [`PARALLEL_FILL_MIN`] words the buffers are split with
    /// `chunks_mut` into at most `workers` disjoint runs of whole chunks,
    /// each filled on a scoped thread; chunks are evaluated
    /// independently, so the values are bit-identical for any worker
    /// count. Runs under an `exec.golden` span; wall-clock is also
    /// recorded in microseconds in the `exec.golden_us` histogram when
    /// telemetry is enabled.
    fn golden_chunks<'g, Wd: SimWord>(
        c: &CompiledNetlist,
        patterns: &[Vec<bool>],
        geometry: &'g ChunkGeometry<Wd>,
        workers: usize,
    ) -> GoldenChunks<'g, Wd> {
        let start = Instant::now();
        let n_gates = c.len();
        let n_chunks = geometry.len();
        let _span = span!("exec.golden", chunks = n_chunks);
        let mut chunks: Vec<Vec<Wd>> = (0..n_chunks).map(|_| Vec::with_capacity(n_gates)).collect();
        // Fills a run of whole chunks starting at chunk `first`.
        let fill = |first: usize, run: &mut [Vec<Wd>]| {
            let mut inputs: Vec<Wd> = Vec::new();
            let lanes = patterns[first * Wd::LANES..].chunks(Wd::LANES);
            for (values, chunk) in run.iter_mut().zip(lanes) {
                pack_patterns_wide_into(chunk, &mut inputs);
                c.eval_words_into(&inputs, values)
                    .expect("input word count mismatch");
            }
        };
        let per = n_chunks.div_ceil(workers.max(1));
        if per == n_chunks || n_chunks * n_gates < PARALLEL_FILL_MIN {
            fill(0, &mut chunks);
        } else {
            // Joined, not left to the scope: a scope may return before its
            // threads have exited and handed back their malloc arenas, so
            // the campaign workers spawned next would open fresh ones and
            // peak RSS would drift from run to run.
            std::thread::scope(|scope| {
                let mut fillers = Vec::with_capacity(workers);
                for (i, run) in chunks.chunks_mut(per).enumerate() {
                    let fill = &fill;
                    fillers.push(scope.spawn(move || fill(i * per, run)));
                }
                for h in fillers {
                    h.join().expect("golden fill worker panicked");
                }
            });
        }
        if rescue_telemetry::enabled() {
            metrics::histogram("exec.golden_us", &metrics::pow2_bounds(26))
                .record(start.elapsed().as_micros() as u64);
        }
        GoldenChunks { geometry, chunks }
    }

    /// Transition-delay campaign over consecutive pattern *pairs*
    /// `(patterns[i], patterns[i+1])`: a slow-to-rise fault is detected by
    /// a pair that launches a rising transition at the site and where the
    /// late value (stuck-at-0 behaviour during capture) reaches an output.
    ///
    /// Packs 64 pairs per word: the golden words of the launch patterns
    /// and of the capture patterns (the same list shifted by one) are
    /// computed per word, the launch condition at the site gates the
    /// packed stuck-at mask of the equivalent fault on the capture word,
    /// and a fault drops at its first detecting pair.
    ///
    /// Returns the report with pattern index = index of the capture
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or a non-transition fault in `faults`.
    pub fn transition_campaign(&self, faults: &[Fault], patterns: &[Vec<bool>]) -> CampaignReport {
        let c = &self.compiled;
        // Each transition fault reduces to its site, its direction and
        // the stuck-at fault it behaves as during capture.
        let specs: Vec<(usize, bool, Fault)> = faults
            .iter()
            .map(|fault| {
                let FaultSite::Output(site) = fault.site() else {
                    panic!("transition faults sit on outputs");
                };
                let rising = match fault.kind() {
                    FaultKind::SlowToRise => true,
                    FaultKind::SlowToFall => false,
                    _ => panic!("transition_campaign requires transition faults"),
                };
                let eq = Fault::stuck_at(FaultSite::Output(site), !rising);
                (site.index(), rising, eq)
            })
            .collect();
        let plan = CampaignPlan::build(c, &specs.iter().map(|s| s.2).collect::<Vec<_>>());
        let pairs = patterns.len().saturating_sub(1);
        let geometry = ChunkGeometry::<u64>::new(pairs);
        let launch = Self::golden_chunks(c, &patterns[..pairs], &geometry, 1);
        let capture = Self::golden_chunks(c, &patterns[patterns.len() - pairs..], &geometry, 1);
        let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
        let mut scratch = FaultScratch::new(c.len());
        for ci in 0..capture.len() {
            let (g_launch, _) = launch.chunk(ci);
            let (g_capture, live) = capture.chunk(ci);
            scratch.load_golden(g_capture);
            for (fi, &(site, rising, eq)) in specs.iter().enumerate() {
                if first_detection[fi].is_some() {
                    continue;
                }
                let (from, to) = (g_launch[site], g_capture[site]);
                let launched = live & if rising { !from & to } else { from & !to };
                if launched == 0 {
                    continue; // no pair of this word launches the transition
                }
                let mask = plan
                    .detect_packed(c, g_capture, &mut scratch, eq)
                    .expect("the plan holds every fault site")
                    & launched;
                if mask != 0 {
                    first_detection[fi] = Some(ci * 64 + mask.trailing_zeros() as usize + 1);
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
    pub fn campaign_seq(&self, faults: &[Fault], stimuli: &[Vec<bool>]) -> CampaignReport {
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
                    c.eval_pin_forced(gi, values, pin, fv)
                }
                _ => c.eval(gi, values),
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

/// The arena a packed campaign over the walk list `walk` on `c`
/// evaluates on, and `walk` in that arena's ids. When at most half of
/// the gates lie in the output cone ([`crate::engine::output_cone`]),
/// this is the cone's arena ([`CompiledNetlist::restrict`], built under
/// an `exec.cone` span whose argument is the kept gate count), so golden
/// values, plans and scratch cover only gates a verdict can depend on. A
/// walked fault outside the cone moves past the cone's last gate, where
/// the plans leave it unplanned and the drain retires it as unobservable
/// before the first chunk. Above half the restriction would save
/// little, and this is `c` and `walk` as given.
pub fn campaign_arena<'c, 'w>(
    c: &'c CompiledNetlist,
    walk: &'w [Fault],
) -> (Cow<'c, CompiledNetlist>, Cow<'w, [Fault]>) {
    let keep = crate::engine::output_cone(c);
    if keep.len() * 2 > c.len() {
        return (Cow::Borrowed(c), Cow::Borrowed(walk));
    }
    let _span = span!("exec.cone", gates = keep.len());
    let arena = c.restrict(&keep);
    let in_cone = |f: &Fault| {
        let gate = GateId(
            keep.binary_search(&(f.site().gate().index() as u32))
                .unwrap_or(keep.len()),
        );
        let site = match f.site() {
            FaultSite::Output(_) => FaultSite::Output(gate),
            FaultSite::Pin { pin, .. } => FaultSite::Pin { gate, pin },
        };
        Fault::new(site, f.kind())
    };
    (Cow::Owned(arena), walk.iter().map(in_cone).collect())
}

/// Expansion-map entry of a fault no walked fault answers: an
/// unobservable class or a fault outside the design, never detected.
const UNWALKED: u32 = u32::MAX;

/// Default durable-campaign unit grain, in walked faults per unit.
/// Matches the work-stealing chunk ceiling so one unit is a few
/// scheduler chunks: coarse enough that store round-trips stay noise,
/// fine enough that a killed run loses little finished work.
pub const DEFAULT_UNIT_FAULTS: usize = 256;

/// Golden values below this many words in all fill on the calling
/// thread even when workers are available — thread startup would
/// dominate.
const PARALLEL_FILL_MIN: usize = 1 << 15;

/// How a campaign's patterns cut into `Wd::LANES`-pattern chunks: the
/// pattern count and each chunk's live mask. The live mask is the one
/// shared ragged-tail guard: a final chunk of fewer than `Wd::LANES`
/// patterns must not let dead lanes report detections. The geometry
/// needs no golden value, so verdict decoding, unit deltas and the
/// final expansion read it even when no chunk is ever evaluated.
struct ChunkGeometry<Wd> {
    live: Vec<Wd>,
    patterns: usize,
}

impl<Wd: SimWord> ChunkGeometry<Wd> {
    fn new(patterns: usize) -> Self {
        let live = (0..patterns)
            .step_by(Wd::LANES)
            .map(|first| Wd::live_mask((patterns - first).min(Wd::LANES)))
            .collect();
        ChunkGeometry { live, patterns }
    }

    /// Number of chunks (pattern words).
    fn len(&self) -> usize {
        self.live.len()
    }
}

/// The golden values of one campaign: one buffer of `n_gates` words per
/// chunk beside the campaign's [`ChunkGeometry`]. Chunk access is a
/// slice borrow — nothing on the steady-state execution path allocates.
struct GoldenChunks<'g, Wd> {
    geometry: &'g ChunkGeometry<Wd>,
    chunks: Vec<Vec<Wd>>,
}

impl<Wd: SimWord> GoldenChunks<'_, Wd> {
    /// Number of golden chunks (pattern words).
    fn len(&self) -> usize {
        self.geometry.len()
    }

    /// Chunk `ci`'s golden values and live mask.
    fn chunk(&self, ci: usize) -> (&[Wd], Wd) {
        (&self.chunks[ci], self.geometry.live[ci])
    }
}

/// The packed detection interface shared by the plain and durable
/// campaign paths: one fault in, one `Wd` detection mask out, with the
/// drop bookkeeping the engines keep in their scratch. Implemented by
/// the event-driven walker ([`WalkEngine`]) and the critical-path
/// tracing hybrid ([`TraceEngine`]), so the campaign drain loop
/// ([`drain_unit`]) is written exactly once.
trait PackedDetect<Wd: SimWord>: Sync {
    /// Per-worker mutable state.
    type Scratch;
    fn scratch(&self) -> Self::Scratch;
    /// Can any fault rooted at `gate` ever reach a primary output?
    fn observable(&self, gate: usize) -> bool;
    /// Prepares the scratch for golden chunk `chunk`: invalidates its
    /// per-chunk caches, or keeps them warm when that chunk is already
    /// loaded (the engines tag their scratch with the loaded chunk).
    /// Copies nothing; detection reads `golden` in place.
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

/// The event-driven packed walker ([`CampaignPlan::detect_packed`])
/// over the arena it owns or borrows.
struct WalkEngine<'a> {
    c: Cow<'a, CompiledNetlist>,
    plan: CampaignPlan,
}

impl<'a> WalkEngine<'a> {
    fn build(c: Cow<'a, CompiledNetlist>, walk: &[Fault]) -> Self {
        let plan = CampaignPlan::build(&c, walk);
        WalkEngine { c, plan }
    }
}

impl<Wd: SimWord> PackedDetect<Wd> for WalkEngine<'_> {
    type Scratch = WideScratch<Wd>;

    fn scratch(&self) -> WideScratch<Wd> {
        WideScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        gate < self.c.len() && self.plan.observable(gate)
    }

    fn load(&self, scratch: &mut WideScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut WideScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.plan
            .detect_packed(&self.c, golden, scratch, fault)
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
/// (shared by the whole region below), over the arena it owns or
/// borrows.
struct TraceEngine<'a> {
    c: Cow<'a, CompiledNetlist>,
    tplan: TracePlan,
}

impl<'a> TraceEngine<'a> {
    fn build(c: Cow<'a, CompiledNetlist>, walk: &[Fault]) -> Self {
        let tplan = TracePlan::build(&c, walk);
        TraceEngine { c, tplan }
    }
}

impl<Wd: SimWord> PackedDetect<Wd> for TraceEngine<'_> {
    type Scratch = TraceScratch<Wd>;

    fn scratch(&self) -> TraceScratch<Wd> {
        TraceScratch::new(self.c.len())
    }

    fn observable(&self, gate: usize) -> bool {
        gate < self.c.len() && self.tplan.po_reachable_gate(gate)
    }

    fn load(&self, scratch: &mut TraceScratch<Wd>, chunk: u32, golden: &[Wd]) {
        scratch.load_chunk(chunk, golden);
    }

    fn detect(&self, scratch: &mut TraceScratch<Wd>, golden: &[Wd], fault: Fault) -> Wd {
        self.tplan
            .detect_traced(&self.c, golden, scratch, fault)
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
fn drain_unit<Wd: SimWord, E: PackedDetect<Wd>>(
    engine: &E,
    chunks: &GoldenChunks<Wd>,
    scratch: &mut DrainScratch<E::Scratch>,
    range: &[Fault],
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
            let fault = range[fi as usize];
            let mask = engine.detect(inner, golden, fault) & live;
            if mask.is_zero() {
                return true;
            }
            first[fi as usize] =
                Some(ci * Wd::LANES + mask.first_lane().expect("mask is non-zero"));
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

/// What a campaign builds before its first walk: the walk list in the
/// ids of the arena the engine evaluates on ([`campaign_arena`]), that
/// arena's golden chunks and the engine. Position `i` of `walk` is
/// position `i` of the campaign's walk list, so units and schedules
/// index both alike.
struct Prepared<'g, Wd, E> {
    walk: Cow<'g, [Fault]>,
    chunks: GoldenChunks<'g, Wd>,
    engine: E,
}

/// Executes the walk list with what `prepare` builds: through
/// `durable`'s store and manifest when given (where `prepare` runs only
/// if a unit misses the store), otherwise under the campaign's
/// schedule. Returns the per-walked-fault first detections and the
/// run's timing, worker and unit figures. The run's elapsed time, which
/// leaves `prepare` out, is recorded in microseconds in the
/// `exec.walk_us` / `exec.trace_us` histogram (per
/// [`PackedOptions::tracing`]) when telemetry is enabled.
fn execute<'g, Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    geometry: &ChunkGeometry<Wd>,
    opts: &PackedOptions,
    durable: Option<(&dyn ResultStore, &CampaignManifest)>,
    prepare: impl FnOnce() -> Prepared<'g, Wd, E>,
) -> (Vec<Option<usize>>, CampaignStats)
where
    E::Scratch: Send,
{
    let (results, stats) = match durable {
        Some((store, manifest)) => {
            let run = run_durable(campaign, walk, geometry, manifest, store, prepare);
            let stats = CampaignStats {
                elapsed_ns: run.elapsed_ns,
                workers: run.worker_ns.len(),
                worker_ns: run.worker_ns,
                chunks_stolen: run.steals,
                units_total: run.units_total,
                // Units this run did not execute itself: store hits plus
                // units a concurrent peer published while it waited.
                units_cached: run.units_cached + run.units_waited,
                units_executed: run.units_executed,
                ..CampaignStats::default()
            };
            (run.results, stats)
        }
        None => {
            let run = run_plain(campaign, &prepare());
            let stats = CampaignStats::from_run(walk.len(), &run);
            (run.results, stats)
        }
    };
    if rescue_telemetry::enabled() {
        let name = if opts.tracing {
            "exec.trace_us"
        } else {
            "exec.walk_us"
        };
        metrics::histogram(name, &metrics::pow2_bounds(26)).record(stats.elapsed_ns / 1_000);
    }
    (results, stats)
}

/// Runs the prepared walk list through the campaign's schedule
/// (in-process path).
fn run_plain<Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    prepared: &Prepared<Wd, E>,
) -> ShardedRun<Option<usize>>
where
    E::Scratch: Send,
{
    let Prepared {
        walk,
        chunks,
        engine,
    } = prepared;
    let scratch = |_w: usize| DrainScratch::new(engine.scratch());
    let work = |scratch: &mut DrainScratch<E::Scratch>, _offset: usize, range: &[Fault]| {
        drain_unit(engine, chunks, scratch, range)
    };
    match campaign.schedule {
        rescue_campaign::Schedule::Static => campaign.run_ranges(walk, scratch, work),
        rescue_campaign::Schedule::Dynamic { .. } => campaign.run_dynamic(walk, scratch, work),
    }
}

/// Runs the walk list through [`Campaign::run_store`]: same drain loop
/// as [`run_plain`], but partitioned into the manifest's units with
/// verdicts persisted (and answered) through the result store. What
/// `prepare` builds is the store run's prepare step, so a store that
/// answers every unit never builds it. Each unit drains its own range of
/// the prepared walk list.
fn run_durable<'g, Wd: SimWord, E: PackedDetect<Wd>>(
    campaign: &Campaign,
    walk: &[Fault],
    geometry: &ChunkGeometry<Wd>,
    manifest: &CampaignManifest,
    store: &dyn ResultStore,
    prepare: impl FnOnce() -> Prepared<'g, Wd, E>,
) -> DurableRun<Option<usize>>
where
    E::Scratch: Send,
{
    campaign.run_store(
        walk,
        manifest,
        store,
        prepare,
        |p: &Prepared<Wd, E>, _w| DrainScratch::new(p.engine.scratch()),
        |p: &Prepared<Wd, E>,
         scratch: &mut DrainScratch<E::Scratch>,
         offset: usize,
         range: &[Fault]| {
            let range = &p.walk[offset..offset + range.len()];
            drain_unit(&p.engine, &p.chunks, scratch, range)
        },
        encode_verdicts,
        |bytes: &[u8]| decode_verdicts(bytes, geometry.patterns),
        |rs: &[Option<usize>]| unit_delta::<Wd>(rs, geometry.len()),
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

/// Inverse of [`encode_verdicts`] for a campaign of `patterns`
/// patterns; `None` marks the payload corrupt (truncated, miscounted, or
/// naming a first detection past the last pattern), which forces
/// re-execution of the unit.
fn decode_verdicts(bytes: &[u8], patterns: usize) -> Option<Vec<Option<usize>>> {
    if bytes.len() < 8 {
        return None;
    }
    let (head, body) = bytes.split_at(8);
    let n = u64::from_le_bytes(head.try_into().unwrap()) as usize;
    if body.len() != n.checked_mul(8)? {
        return None;
    }
    body.chunks_exact(8)
        .map(|c| match u64::from_le_bytes(c.try_into().unwrap()) {
            u64::MAX => Some(None),
            p if p < patterns as u64 => Some(Some(p as usize)),
            _ => None,
        })
        .collect()
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
/// telemetry, then one pass that expands the verdicts over the full
/// universe and tallies the detected and dropped faults, under an
/// `exec.expand` span. It reads only the chunk geometry, never a golden
/// value. `stats` arrives with the timing, worker and unit figures
/// already filled by the respective driver.
fn finish_packed<Wd: SimWord>(
    faults: &[Fault],
    opts: &PackedOptions,
    geometry: &ChunkGeometry<Wd>,
    expand: Option<Vec<u32>>,
    results: Vec<Option<usize>>,
    mut stats: CampaignStats,
) -> CampaignRun {
    let _span = span!("exec.expand", faults = faults.len());
    let n_chunks = geometry.len();
    if rescue_telemetry::enabled() {
        // Bounds cover every supported width (64 * {1, 2, 4, 8}) so
        // one histogram serves all lane widths.
        let lanes = rescue_telemetry::metrics::histogram(
            "fault.packed_lanes",
            &[8, 16, 24, 32, 40, 48, 56, 64, 128, 192, 256, 384, 512],
        );
        for live in &geometry.live {
            lanes.record(live.count_ones() as u64);
        }
        rescue_telemetry::metrics::gauge("fault.lane_width").set(Wd::LANES as i64);
        rescue_telemetry::metrics::gauge("fault.collapse_ratio_pct")
            .set((stats.collapse_ratio() * 100.0).round() as i64);
        if opts.tracing {
            rescue_telemetry::metrics::gauge("fault.traced_fraction_pct")
                .set((stats.traced_fraction() * 100.0).round() as i64);
        }
    }
    for live in &geometry.live {
        stats.record_lanes(live.count_ones() as u64, Wd::LANES as u64);
    }
    // A fault counts as dropped when it retired before the final
    // pattern word (same rule as the fault.dropped counter).
    let (mut detected, mut dropped) = (0, 0);
    let mut tally = |d: Option<usize>| {
        if let Some(p) = d {
            detected += 1;
            dropped += usize::from(p / Wd::LANES + 1 < n_chunks);
        }
        d
    };
    let first_detection: Vec<Option<usize>> = match expand {
        None => results.into_iter().map(&mut tally).collect(),
        Some(map) => map
            .iter()
            .map(|&s| {
                tally(if s == UNWALKED {
                    None
                } else {
                    results[s as usize]
                })
            })
            .collect(),
    };
    stats.tally.detected = detected;
    stats.tally.undetected = faults.len() - detected;
    stats.dropped = dropped;
    let report = CampaignReport {
        faults: faults.to_vec(),
        first_detection,
        patterns: geometry.patterns,
    };
    CampaignRun { report, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use rescue_netlist::{generate, NetlistBuilder};
    use rescue_sim::parallel::pack_patterns;

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
        let report = sim.campaign(&faults, &exhaustive_patterns(5));
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
        let report = sim.campaign(&[f], &exhaustive_patterns(2));
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
        let r = sim.campaign(&[stem, branch], &pats);
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
        let r = sim.transition_campaign(&faults, &[vec![false], vec![false]]);
        assert_eq!(r.detected_count(), 0);
        // 0 -> 1 launches rising transitions through a and y.
        let r = sim.transition_campaign(&faults, &[vec![false], vec![true]]);
        let detected: Vec<String> = faults
            .iter()
            .zip(r.first_detection())
            .filter(|(_, d)| d.is_some())
            .map(|(f, _)| f.to_string())
            .collect();
        assert!(detected.iter().any(|f| f.contains("str")), "{detected:?}");
        // slow-to-fall needs 1 -> 0.
        let r = sim.transition_campaign(&faults, &[vec![true], vec![false]]);
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
        let r = sim.campaign_seq(&[f], &stim);
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
        let serial =
            crate::reference::ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &patterns);
        for threads in [1, 2, 4] {
            let parallel = sim
                .campaign_packed(
                    &faults,
                    &patterns,
                    &Campaign::new(0, threads),
                    PackedOptions::default(),
                )
                .report;
            assert_eq!(
                parallel.first_detection(),
                serial.first_detection(),
                "{threads} threads"
            );
        }
    }

    /// Fills `patterns` through 1–5 workers and checks every chunk
    /// against a standalone `eval_words_into` of its packed patterns, and
    /// its live mask against the ragged tail.
    fn check_parallel_fill<Wd: SimWord + std::fmt::Debug>(
        sim: &FaultSimulator,
        patterns: &[Vec<bool>],
    ) {
        let c = &sim.compiled;
        let geometry = ChunkGeometry::<Wd>::new(patterns.len());
        let lanes: Vec<&[Vec<bool>]> = patterns.chunks(Wd::LANES).collect();
        let live: Vec<Wd> = lanes.iter().map(|l| Wd::live_mask(l.len())).collect();
        assert_eq!(geometry.live, live, "live masks");
        assert!(
            lanes.len() == 1 || lanes.len() * c.len() >= PARALLEL_FILL_MIN,
            "a multi-chunk fill must cross the parallel floor"
        );
        let expect: Vec<Vec<Wd>> = lanes
            .iter()
            .map(|chunk| {
                let (mut inputs, mut values) = (Vec::new(), Vec::new());
                pack_patterns_wide_into(chunk, &mut inputs);
                c.eval_words_into(&inputs, &mut values).unwrap();
                values
            })
            .collect();
        for workers in 1..=5 {
            let fill = FaultSimulator::golden_chunks(c, patterns, &geometry, workers);
            assert_eq!(fill.len(), expect.len());
            for (ci, values) in expect.iter().enumerate() {
                let (golden, live) = fill.chunk(ci);
                let n = expect.len();
                assert!(golden == values, "{workers} workers, chunk {ci} of {n}");
                assert_eq!(live, geometry.live[ci]);
            }
        }
    }

    #[test]
    fn parallel_golden_fill_is_bit_identical() {
        let net = generate::random_logic(12, 12_000, 8, 3);
        let sim = FaultSimulator::new(&net);
        let patterns: Vec<Vec<bool>> = (0..2600u32)
            .map(|p| {
                (0..12)
                    .map(|i| p.wrapping_mul(2654435761) >> (i + 5) & 1 == 1)
                    .collect()
            })
            .collect();
        // Per width: one chunk (filled serially), three chunks (fewer
        // than four or five workers), and 11, 5 or 6 chunks (not
        // divisible by most worker counts). Every shape but the first
        // ends in a ragged chunk.
        check_parallel_fill::<u64>(&sim, &patterns[..64]);
        check_parallel_fill::<u64>(&sim, &patterns[..130]);
        check_parallel_fill::<u64>(&sim, &patterns[..700]);
        check_parallel_fill::<PackedWord<4>>(&sim, &patterns[..200]);
        check_parallel_fill::<PackedWord<4>>(&sim, &patterns[..600]);
        check_parallel_fill::<PackedWord<4>>(&sim, &patterns[..1100]);
        check_parallel_fill::<PackedWord<8>>(&sim, &patterns[..300]);
        check_parallel_fill::<PackedWord<8>>(&sim, &patterns[..1100]);
        check_parallel_fill::<PackedWord<8>>(&sim, &patterns);
    }

    #[test]
    fn coverage_of_empty_fault_list_is_one() {
        let c = generate::c17();
        let sim = FaultSimulator::new(&c);
        let r = sim.campaign(&[], &exhaustive_patterns(5));
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
                fast.detection_mask(&golden, fault),
                slow.detection_mask(&net, &words, &golden, fault),
                "{fault}"
            );
        }
    }
}
