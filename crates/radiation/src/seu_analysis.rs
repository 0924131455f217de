//! Single-event-upset (SEU) campaigns on sequential designs.
//!
//! An SEU flips one flip-flop between two clock edges. The campaign runs
//! a golden and a faulty machine in lockstep and classifies each
//! injection:
//!
//! * **Masked** — outputs and state re-converge within the horizon;
//! * **Latent** — outputs match but state still differs at the horizon
//!   (a dormant error, ISO 26262's latent-fault concern);
//! * **Failure** — an output mismatch (silent data corruption when it is
//!   a data output).
//!
//! The per-flop failure fraction is the architectural vulnerability
//! factor used to weight raw upset rates into effective FIT.
//!
//! # Execution engine
//!
//! The default path is bit-parallel: the golden run is simulated **once**
//! into a [`GoldenTrace`], then injections targeting the same cycle are
//! packed one per lane of a [`LaneMachine`] word — 64 lanes on `u64`, up
//! to 512 on wide [`PackedWord`]s, selected per campaign with
//! [`SeuCampaign::with_lane_width`]. Every lane starts from the
//! snapshotted golden state with one flip-flop flipped, and all faulty
//! machines step together through the horizon, diffing against the
//! recorded golden outputs. Batches are handed out by the shared
//! [`Campaign`] driver, and the returned [`SeuRun`] carries a
//! [`CampaignStats`] record (throughput, lane occupancy, outcome tally).
//!
//! The scalar lockstep implementation is retained in [`mod@reference`] as the
//! equivalence oracle; property tests prove both paths produce identical
//! [`SeuReport`]s.

pub mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_campaign::{
    Campaign, CampaignManifest, CampaignStats, CanonicalHasher, ResultStore, StatsDelta,
};
use rescue_netlist::Netlist;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::compiled_seq::{splat_inputs, GoldenTrace, LaneMachine};
use rescue_sim::wide::{PackedWord, SimWord, SUPPORTED_LANE_WIDTHS};
use rescue_telemetry::{metrics, span};

/// Outcome of one SEU injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeuOutcome {
    /// Fault effect vanished (state and outputs re-converged).
    Masked,
    /// Outputs clean but state differs at the observation horizon.
    Latent,
    /// At least one output cycle differed.
    Failure,
}

/// One SEU injection record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeuInjection {
    /// Flip-flop index (into `netlist.dffs()`).
    pub dff: usize,
    /// Cycle at which the flip occurred.
    pub cycle: usize,
    /// Classification.
    pub outcome: SeuOutcome,
    /// Cycles from injection to first output mismatch (failures only).
    pub detection_latency: Option<usize>,
}

/// Aggregated SEU campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeuReport {
    injections: Vec<SeuInjection>,
    dff_count: usize,
}

impl SeuReport {
    /// All records.
    pub fn injections(&self) -> &[SeuInjection] {
        &self.injections
    }

    /// Fraction with the given outcome.
    pub fn fraction(&self, outcome: SeuOutcome) -> f64 {
        if self.injections.is_empty() {
            return 0.0;
        }
        self.injections
            .iter()
            .filter(|i| i.outcome == outcome)
            .count() as f64
            / self.injections.len() as f64
    }

    /// Architectural vulnerability factor: failure fraction.
    pub fn avf(&self) -> f64 {
        self.fraction(SeuOutcome::Failure)
    }

    /// Per-flop `(injections, failures)` — the hardening priority list.
    pub fn per_dff(&self) -> Vec<(usize, usize)> {
        let mut v = vec![(0usize, 0usize); self.dff_count];
        for inj in &self.injections {
            v[inj.dff].0 += 1;
            if inj.outcome == SeuOutcome::Failure {
                v[inj.dff].1 += 1;
            }
        }
        v
    }

    /// Mean output-corruption latency over failures, in cycles.
    pub fn mean_failure_latency(&self) -> Option<f64> {
        let lats: Vec<usize> = self
            .injections
            .iter()
            .filter_map(|i| i.detection_latency)
            .collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<usize>() as f64 / lats.len() as f64)
        }
    }
}

/// An SEU report plus the campaign observability record of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct SeuRun {
    /// The (deterministic) injection verdicts.
    pub report: SeuReport,
    /// Throughput, worker timing, lane occupancy and outcome tally.
    pub stats: CampaignStats,
}

/// SEU campaign runner.
///
/// # Examples
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_radiation::seu_analysis::SeuCampaign;
///
/// let lfsr = generate::lfsr(8, &[7, 5, 4, 3]);
/// let campaign = SeuCampaign::new(20, 10);
/// let report = campaign.run_exhaustive(&lfsr, &[]);
/// // An LFSR has no error correction: every upset corrupts the stream.
/// assert!(report.avf() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeuCampaign {
    /// Cycles simulated before any injection can occur.
    pub warmup: usize,
    /// Cycles observed after the injection.
    pub horizon: usize,
    /// Machine-word width in 64-bit limbs: the engine packs
    /// `64 * lane_width` faulty machines per snapshot/step/diff walk.
    /// Must be one of [`SUPPORTED_LANE_WIDTHS`]; verdicts are identical
    /// for every width.
    pub lane_width: usize,
}

impl SeuCampaign {
    /// Creates a campaign configuration (64 lanes per word).
    pub fn new(warmup: usize, horizon: usize) -> Self {
        SeuCampaign {
            warmup,
            horizon,
            lane_width: 1,
        }
    }

    /// Selects a wide machine word of `lane_width` 64-bit limbs
    /// (`64 * lane_width` lock-stepped faulty machines per batch).
    pub fn with_lane_width(mut self, lane_width: usize) -> Self {
        self.lane_width = lane_width;
        self
    }

    /// Exhaustive campaign: every flip-flop, every injection cycle in
    /// `0..warmup`, constant `inputs` each cycle. Serial convenience
    /// wrapper over [`Self::run_exhaustive_on`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width or the design has no DFFs.
    pub fn run_exhaustive(&self, netlist: &Netlist, inputs: &[bool]) -> SeuReport {
        self.run_exhaustive_on(netlist, inputs, &Campaign::serial())
            .report
    }

    /// [`Self::run_exhaustive`] on the shared [`Campaign`] driver, with a
    /// [`CampaignStats`] record attached. Verdicts are identical for
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width or the design has no DFFs.
    pub fn run_exhaustive_on(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        campaign: &Campaign,
    ) -> SeuRun {
        let n_dff = netlist.dffs().len();
        assert!(n_dff > 0, "SEU campaign needs flip-flops");
        let cycles = self.warmup.max(1);
        let mut points = Vec::with_capacity(n_dff * cycles);
        for dff in 0..n_dff {
            for cycle in 0..cycles {
                points.push((dff, cycle));
            }
        }
        self.run_points(netlist, inputs, &points, campaign, None)
    }

    /// Random-sampled campaign of `count` injections (statistical FI).
    /// Serial convenience wrapper over [`Self::run_sampled_on`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width or the design has no DFFs.
    pub fn run_sampled(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        count: usize,
        seed: u64,
    ) -> SeuReport {
        self.run_sampled_on(netlist, inputs, count, seed, &Campaign::serial())
            .report
    }

    /// [`Self::run_sampled`] on the shared [`Campaign`] driver, with a
    /// [`CampaignStats`] record attached. The `(dff, cycle)` sample
    /// sequence is drawn serially from `seed` — identical to the scalar
    /// reference — before the injections are grouped by cycle, packed
    /// into lanes and handed out to the workers, so the report is
    /// byte-identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width or the design has no DFFs.
    pub fn run_sampled_on(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        count: usize,
        seed: u64,
        campaign: &Campaign,
    ) -> SeuRun {
        let points = self.sample_points(netlist, count, seed);
        self.run_points(netlist, inputs, &points, campaign, None)
    }

    /// [`Self::run_sampled_on`] made durable: the point list becomes a
    /// deterministic plan of content-addressed units
    /// ([`Self::durable_plan`]) whose verdicts persist through `store`,
    /// and only missing units execute — killed runs resume, concurrent
    /// processes share one store via claims, and an identical
    /// re-submission executes zero units and records no golden trace.
    /// The report is bit-identical to [`Self::run_sampled_on`] for every
    /// store state. The campaign key deliberately excludes
    /// [`SeuCampaign::lane_width`]: SEU verdicts are width-invariant, so a
    /// store warmed at one width answers campaigns at every other.
    ///
    /// `unit_points` is the unit grain in injection points (0 =
    /// [`DEFAULT_UNIT_POINTS`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width, the design has no DFFs,
    /// or a wedged peer holds claims past the wait limit.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sampled_durable(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        count: usize,
        seed: u64,
        campaign: &Campaign,
        store: &dyn ResultStore,
        unit_points: usize,
    ) -> SeuRun {
        let points = self.sample_points(netlist, count, seed);
        self.run_points(
            netlist,
            inputs,
            &points,
            campaign,
            Some((store, unit_points)),
        )
    }

    /// The unit plan [`Self::run_sampled_durable`] executes for the same
    /// arguments (inspectable campaign evidence, and the way to check
    /// store completeness before running).
    pub fn durable_plan(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        count: usize,
        seed: u64,
        unit_points: usize,
    ) -> CampaignManifest {
        let points = self.sample_points(netlist, count, seed);
        self.manifest_for(&CompiledNetlist::new(netlist), inputs, &points, unit_points)
    }

    /// Draws the `(dff, cycle)` sample sequence serially from `seed` —
    /// identical to the scalar reference and to [`Self::run_sampled_on`].
    fn sample_points(&self, netlist: &Netlist, count: usize, seed: u64) -> Vec<(usize, usize)> {
        let n_dff = netlist.dffs().len();
        assert!(n_dff > 0, "SEU campaign needs flip-flops");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let dff = rng.gen_range(0..n_dff);
                let cycle = rng.gen_range(0..self.warmup.max(1));
                (dff, cycle)
            })
            .collect()
    }

    /// The durable-campaign key and unit partition. Keyed on the
    /// structural netlist, the input vector, the injection schedule and
    /// the observation window — not on lane width, workers or
    /// seed (the drawn points already encode the seed).
    fn manifest_for(
        &self,
        compiled: &CompiledNetlist,
        inputs: &[bool],
        points: &[(usize, usize)],
        unit_points: usize,
    ) -> CampaignManifest {
        let mut h = CanonicalHasher::new("rescue.seu.v1");
        h.write_u128(rescue_faults::content::hash_netlist(compiled).0);
        h.write_usize(inputs.len());
        for &b in inputs {
            h.write_bool(b);
        }
        h.write_usize(self.warmup);
        h.write_usize(self.horizon);
        h.write_usize(points.len());
        for &(dff, cycle) in points {
            h.write_usize(dff);
            h.write_usize(cycle);
        }
        let grain = if unit_points == 0 {
            DEFAULT_UNIT_POINTS
        } else {
            unit_points
        };
        CampaignManifest::build(h.finish(), points.len(), grain)
    }

    /// Injects one SEU at (`dff`, `cycle`) and classifies it, on the
    /// scalar lockstep path (see [`mod@reference`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong width or `dff` is out of range.
    pub fn inject(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        dff: usize,
        cycle: usize,
    ) -> SeuInjection {
        reference::inject_naive(self, netlist, inputs, dff, cycle)
    }

    /// Bit-parallel core: classifies every `(dff, cycle)` point of
    /// `points`, preserving order in the report, in process or — with a
    /// store and unit grain in `durable` — as a durable campaign. The one
    /// dispatch of the runtime [`Self::lane_width`] onto a concrete
    /// [`SimWord`] instantiation.
    fn run_points(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        points: &[(usize, usize)],
        campaign: &Campaign,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> SeuRun {
        match self.lane_width {
            1 => self.run_points_w::<u64>(netlist, inputs, points, campaign, durable),
            2 => self.run_points_w::<PackedWord<2>>(netlist, inputs, points, campaign, durable),
            4 => self.run_points_w::<PackedWord<4>>(netlist, inputs, points, campaign, durable),
            8 => self.run_points_w::<PackedWord<8>>(netlist, inputs, points, campaign, durable),
            w => panic!("unsupported lane width {w} (expected one of {SUPPORTED_LANE_WIDTHS:?})"),
        }
    }

    /// The width-generic body of every SEU campaign. In process, the
    /// batches of all points go through the work-stealing queue under a
    /// `seu.campaign` span. Durable, the points become the units of
    /// [`Self::manifest_for`], each packed into its own batches, under a
    /// `seu.campaign_durable` span (also the fleet stage); the golden
    /// trace is the store run's prepare step, so a store that answers
    /// every unit never records it.
    fn run_points_w<Wd: SimWord>(
        &self,
        netlist: &Netlist,
        inputs: &[bool],
        points: &[(usize, usize)],
        campaign: &Campaign,
        durable: Option<(&dyn ResultStore, usize)>,
    ) -> SeuRun {
        let n_dff = netlist.dffs().len();
        let cycles = self.warmup.max(1);
        let stage = if durable.is_some() {
            rescue_campaign::fleet::set_stage("seu.campaign_durable");
            "seu.campaign_durable"
        } else {
            "seu.campaign"
        };
        let _campaign_span = span!(stage, points = points.len());
        let compiled = CompiledNetlist::new(netlist);
        assert_eq!(
            inputs.len(),
            compiled.primary_inputs().len(),
            "SEU input width mismatch"
        );
        let input_words = splat_inputs::<Wd>(inputs);
        let record = || {
            GoldenTrace::record(&compiled, inputs, cycles - 1 + self.horizon)
                .expect("input width checked above")
        };

        let (injections, mut stats) = match durable {
            None => {
                let trace = record();
                let batches = cycle_batches(points, cycles, Wd::LANES);
                let run = campaign.run_dynamic(
                    &batches,
                    |_| {
                        // Metric handles are resolved once per worker (the
                        // registry lookup takes a mutex) and only when
                        // telemetry is on, so the disabled path carries no
                        // handle at all. Bounds cover every supported width
                        // (64 * {1, 2, 4, 8}) so one histogram serves all
                        // lane widths.
                        let occupancy = rescue_telemetry::enabled().then(|| {
                            metrics::histogram(
                                "seu.lane_occupancy",
                                &[8, 16, 24, 32, 40, 48, 56, 64, 128, 192, 256, 384, 512],
                            )
                        });
                        (LaneMachine::<Wd>::new(&compiled), occupancy)
                    },
                    |(machine, occupancy), _, chunk| {
                        let out = chunk
                            .iter()
                            .map(|(cycle, lanes)| {
                                if let Some(h) = occupancy {
                                    h.record(lanes.len() as u64);
                                }
                                self.run_batch(
                                    &compiled,
                                    &trace,
                                    &input_words,
                                    machine,
                                    *cycle,
                                    lanes,
                                )
                            })
                            .collect();
                        // Chunk-granularity flush: one registry touch per
                        // claimed chunk, never per batch or injection.
                        flush_counters(machine, chunk.len());
                        out
                    },
                );
                let mut stats = CampaignStats::from_run(points.len(), &run);
                let mut injections: Vec<Option<SeuInjection>> = vec![None; points.len()];
                for batch in &run.results {
                    stats.record_lanes(batch.len() as u64, Wd::LANES as u64);
                    for &(orig, inj) in batch {
                        injections[orig] = Some(inj);
                    }
                }
                let injections = injections
                    .into_iter()
                    .map(|o| o.expect("every injection point classified"))
                    .collect();
                (injections, stats)
            }
            Some((store, unit_points)) => {
                let manifest = self.manifest_for(&compiled, inputs, points, unit_points);
                let run = campaign.run_store(
                    points,
                    &manifest,
                    store,
                    record,
                    |_, _| LaneMachine::<Wd>::new(&compiled),
                    |trace, machine, _off, unit: &[(usize, usize)]| {
                        // Verdicts are lane-placement independent, so
                        // packing per unit can't change them.
                        let batches = cycle_batches(unit, cycles, Wd::LANES);
                        let mut out: Vec<Option<SeuInjection>> = vec![None; unit.len()];
                        for (cycle, lanes) in &batches {
                            for (i, inj) in self.run_batch(
                                &compiled,
                                trace,
                                &input_words,
                                machine,
                                *cycle,
                                lanes,
                            ) {
                                out[i] = Some(inj);
                            }
                        }
                        flush_counters(machine, batches.len());
                        out.into_iter()
                            .map(|o| o.expect("every injection point classified"))
                            .collect()
                    },
                    encode_injections,
                    decode_injections,
                    seu_delta,
                );
                let mut stats = CampaignStats {
                    injections: points.len(),
                    elapsed_ns: run.elapsed_ns,
                    workers: run.worker_ns.len(),
                    worker_ns: run.worker_ns.clone(),
                    chunks_stolen: run.steals,
                    faults_walked: points.len(),
                    units_total: run.units_total,
                    units_cached: run.units_cached + run.units_waited,
                    units_executed: run.units_executed,
                    ..CampaignStats::default()
                };
                // Lane occupancy recomputed from the plan, not from what
                // this process happened to execute — a resumed run
                // reports the same figures as an uninterrupted one.
                for unit in &manifest.units {
                    for (_, lanes) in cycle_batches(&points[unit.range.clone()], cycles, Wd::LANES)
                    {
                        stats.record_lanes(lanes.len() as u64, Wd::LANES as u64);
                    }
                }
                (run.results, stats)
            }
        };
        if rescue_telemetry::enabled() {
            metrics::gauge("seu.lane_width").set(Wd::LANES as i64);
        }
        for inj in &injections {
            match inj.outcome {
                SeuOutcome::Masked => stats.tally.masked += 1,
                SeuOutcome::Latent => stats.tally.latent += 1,
                SeuOutcome::Failure => stats.tally.failures += 1,
            }
        }
        SeuRun {
            report: SeuReport {
                injections,
                dff_count: n_dff,
            },
            stats,
        }
    }

    /// Classifies up to `Wd::LANES` same-cycle injections in one word
    /// walk.
    fn run_batch<Wd: SimWord>(
        &self,
        compiled: &CompiledNetlist,
        trace: &GoldenTrace,
        input_words: &[Wd],
        machine: &mut LaneMachine<Wd>,
        cycle: usize,
        lanes: &[(usize, usize)],
    ) -> Vec<(usize, SeuInjection)> {
        machine.load_broadcast(compiled, trace.snapshot(cycle));
        for (lane, &(_, dff)) in lanes.iter().enumerate() {
            machine.flip_lane(dff, lane);
        }
        let group = Wd::live_mask(lanes.len());
        let mut first: Vec<Option<usize>> = vec![None; lanes.len()];
        let mut failed = Wd::ZERO;
        for k in 0..self.horizon {
            machine
                .step(compiled, input_words)
                .expect("input width checked by caller");
            let fresh =
                machine.output_diff_mask(compiled, trace.outputs_at(cycle + k)) & group & !failed;
            failed |= fresh;
            fresh.for_each_lane(|lane| first[lane] = Some(k));
            if failed == group {
                break; // every lane already failed; latencies are fixed
            }
        }
        // State comparison matters only for lanes that never failed; when
        // the loop broke early there are none, so skip the (possibly
        // short) trace lookup.
        let latent = if failed == group {
            Wd::ZERO
        } else {
            machine.state_diff_mask(trace.snapshot(cycle + self.horizon)) & group
        };
        lanes
            .iter()
            .enumerate()
            .map(|(lane, &(orig, dff))| {
                let (outcome, detection_latency) = if failed.lane(lane) {
                    (SeuOutcome::Failure, first[lane])
                } else if latent.lane(lane) {
                    (SeuOutcome::Latent, None)
                } else {
                    (SeuOutcome::Masked, None)
                };
                (
                    orig,
                    SeuInjection {
                        dff,
                        cycle,
                        outcome,
                        detection_latency,
                    },
                )
            })
            .collect()
    }
}

/// Groups `points` by injection cycle and cuts each group, in point
/// order, into batches of at most `lanes`: all lanes of a batch share
/// one golden snapshot. A batch is its cycle and its `(point index,
/// dff)` lanes.
fn cycle_batches(
    points: &[(usize, usize)],
    cycles: usize,
    lanes: usize,
) -> Vec<(usize, Vec<(usize, usize)>)> {
    let mut by_cycle: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cycles];
    for (i, &(dff, cycle)) in points.iter().enumerate() {
        by_cycle[cycle].push((i, dff));
    }
    let mut batches = Vec::new();
    for (cycle, list) in by_cycle.into_iter().enumerate() {
        for chunk in list.chunks(lanes) {
            batches.push((cycle, chunk.to_vec()));
        }
    }
    batches
}

/// Moves a lane machine's step and restore counts, and the `batches` it
/// ran, into the telemetry counters when telemetry is on.
fn flush_counters<Wd: SimWord>(machine: &mut LaneMachine<Wd>, batches: usize) {
    let (restores, steps) = machine.take_counters();
    if rescue_telemetry::enabled() {
        metrics::counter("sim.snapshot_restores").add(restores);
        metrics::counter("sim.seq_steps").add(steps);
        metrics::counter("seu.batches").add(batches as u64);
    }
}

/// Default durable-campaign unit grain, in injection points per unit.
pub const DEFAULT_UNIT_POINTS: usize = 256;

/// Persisted payload of one durable SEU unit: a `u64` count followed by
/// 25 bytes per injection — `dff` and `cycle` as little-endian `u64`, a
/// one-byte outcome code, and the detection latency as `u64` with
/// `u64::MAX` standing in for "none".
fn encode_injections(rs: &[SeuInjection]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rs.len() * 25);
    out.extend_from_slice(&(rs.len() as u64).to_le_bytes());
    for r in rs {
        out.extend_from_slice(&(r.dff as u64).to_le_bytes());
        out.extend_from_slice(&(r.cycle as u64).to_le_bytes());
        out.push(match r.outcome {
            SeuOutcome::Masked => 0,
            SeuOutcome::Latent => 1,
            SeuOutcome::Failure => 2,
        });
        out.extend_from_slice(
            &r.detection_latency
                .map_or(u64::MAX, |l| l as u64)
                .to_le_bytes(),
        );
    }
    out
}

/// Inverse of [`encode_injections`]; `None` marks the payload corrupt
/// (truncated, miscounted, or an unknown outcome code), forcing
/// re-execution of the unit.
fn decode_injections(bytes: &[u8]) -> Option<Vec<SeuInjection>> {
    if bytes.len() < 8 {
        return None;
    }
    let (head, body) = bytes.split_at(8);
    let n = u64::from_le_bytes(head.try_into().unwrap()) as usize;
    if body.len() != n.checked_mul(25)? {
        return None;
    }
    body.chunks_exact(25)
        .map(|rec| {
            let dff = u64::from_le_bytes(rec[0..8].try_into().unwrap()) as usize;
            let cycle = u64::from_le_bytes(rec[8..16].try_into().unwrap()) as usize;
            let outcome = match rec[16] {
                0 => SeuOutcome::Masked,
                1 => SeuOutcome::Latent,
                2 => SeuOutcome::Failure,
                _ => return None,
            };
            let lat = u64::from_le_bytes(rec[17..25].try_into().unwrap());
            Some(SeuInjection {
                dff,
                cycle,
                outcome,
                detection_latency: (lat != u64::MAX).then_some(lat as usize),
            })
        })
        .collect()
}

/// Deterministic stats contribution of one durable SEU unit.
fn seu_delta(rs: &[SeuInjection]) -> StatsDelta {
    let mut d = StatsDelta {
        injections: rs.len() as u64,
        ..StatsDelta::default()
    };
    for r in rs {
        match r.outcome {
            SeuOutcome::Masked => d.masked += 1,
            SeuOutcome::Latent => d.latent += 1,
            SeuOutcome::Failure => d.failures += 1,
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_campaign::MemStore;
    use rescue_netlist::{generate, NetlistBuilder};

    #[test]
    fn lfsr_every_upset_fails() {
        let l = generate::lfsr(6, &[5, 3]);
        let c = SeuCampaign::new(8, 12);
        let r = c.run_exhaustive(&l, &[]);
        assert!(r.avf() > 0.9, "avf = {}", r.avf());
        assert!(r.mean_failure_latency().is_some());
    }

    #[test]
    fn unobserved_state_is_latent_or_masked() {
        // A counter whose outputs expose only bit 0: upsets in the top
        // bits never reach the output within a short horizon.
        let mut b = NetlistBuilder::new("hidden");
        let q: Vec<_> = (0..4).map(|_| b.dff_floating()).collect();
        let one = b.const1();
        let mut carry = one;
        for &qi in &q {
            let d = b.xor(qi, carry);
            let c2 = b.and(qi, carry);
            b.connect_dff(qi, d);
            carry = c2;
        }
        b.output("lsb", q[0]);
        let net = b.finish();
        let c = SeuCampaign::new(2, 3);
        let r = c.run_exhaustive(&net, &[]);
        // Upsets in bit 3 can't show on lsb within 3 cycles -> latent.
        assert!(r.fraction(SeuOutcome::Latent) > 0.0);
        let per = r.per_dff();
        assert_eq!(per.len(), 4);
        assert!(per[3].1 < per[0].1, "lsb upsets fail more than msb upsets");
    }

    #[test]
    fn shift_register_flush_masks() {
        // An upset in a shift register is flushed out; with the output
        // ignored (no output monitoring... it has sout) the upset reaches
        // sout and is a failure; after flushing, state re-converges.
        let s = generate::shift_register(4);
        let c = SeuCampaign::new(1, 10);
        let r = c.run_exhaustive(&s, &[false]);
        // Every upset eventually shifts to sout -> all failures.
        assert_eq!(r.avf(), 1.0);
        // Latency equals distance to the output register.
        let lat = r.mean_failure_latency().unwrap();
        assert!(lat > 0.0 && lat < 4.0);
    }

    #[test]
    fn sampled_matches_exhaustive_roughly() {
        let l = generate::lfsr(8, &[7, 5, 4, 3]);
        let c = SeuCampaign::new(10, 10);
        let ex = c.run_exhaustive(&l, &[]);
        let sa = c.run_sampled(&l, &[], 200, 77);
        assert!((ex.avf() - sa.avf()).abs() < 0.15);
    }

    #[test]
    fn deterministic_in_seed() {
        let l = generate::lfsr(5, &[4, 2]);
        let c = SeuCampaign::new(5, 5);
        assert_eq!(c.run_sampled(&l, &[], 50, 1), c.run_sampled(&l, &[], 50, 1));
    }

    #[test]
    fn stats_account_for_every_injection() {
        let l = generate::lfsr(9, &[8, 4]);
        let c = SeuCampaign::new(7, 9);
        let run = c.run_exhaustive_on(&l, &[], &Campaign::new(3, 4));
        let n = run.report.injections().len();
        assert_eq!(n, 9 * 7);
        assert_eq!(run.stats.injections, n);
        assert_eq!(run.stats.tally.total(), n);
        assert_eq!(
            run.stats.tally.failures,
            run.report
                .injections()
                .iter()
                .filter(|i| i.outcome == SeuOutcome::Failure)
                .count()
        );
        // 7 cycle groups of 9 lanes each: occupancy is 9/64 per word.
        assert!(run.stats.lane_occupancy() > 0.0 && run.stats.lane_occupancy() <= 1.0);
        assert!(run.stats.injections_per_sec() > 0.0);
    }

    #[test]
    fn durable_matches_plain_and_warm_run_executes_nothing() {
        let l = generate::lfsr(8, &[7, 5, 4, 3]);
        let c = SeuCampaign::new(10, 10);
        let driver = Campaign::new(0, 2);
        let plain = c.run_sampled_on(&l, &[], 150, 9, &driver);
        let store = MemStore::new();
        let cold = c.run_sampled_durable(&l, &[], 150, 9, &driver, &store, 32);
        assert_eq!(cold.report, plain.report, "verdicts bit-identical");
        assert_eq!(cold.stats.units_total, 5);
        assert_eq!(cold.stats.units_executed, 5);
        assert_eq!(cold.stats.tally, plain.stats.tally);
        let warm = c.run_sampled_durable(&l, &[], 150, 9, &driver, &store, 32);
        assert_eq!(warm.report, plain.report);
        assert_eq!(warm.stats.units_executed, 0, "fully answered from store");
        assert_eq!(warm.stats.units_cached, 5);
        assert_eq!(warm.stats.tally, cold.stats.tally);
        assert_eq!(
            warm.stats.lane_occupancy(),
            cold.stats.lane_occupancy(),
            "occupancy recomputed from the plan, not from execution"
        );
    }

    #[test]
    fn durable_resumes_partial_store_bit_identically() {
        let l = generate::lfsr(7, &[6, 4]);
        let c = SeuCampaign::new(6, 8);
        let driver = Campaign::new(0, 3);
        let full = MemStore::new();
        let baseline = c.run_sampled_durable(&l, &[], 100, 3, &driver, &full, 16);
        // Keep only some units (a killed run's store), resume from it.
        let manifest = c.durable_plan(&l, &[], 100, 3, 16);
        let partial = MemStore::new();
        for ui in [0usize, 3, 5] {
            let id = manifest.units[ui].id;
            partial.put(id, &full.get(id).unwrap());
        }
        let resumed = c.run_sampled_durable(&l, &[], 100, 3, &driver, &partial, 16);
        assert_eq!(resumed.report, baseline.report, "verdicts bit-identical");
        assert_eq!(resumed.stats.units_cached, 3);
        assert_eq!(
            resumed.stats.units_executed,
            manifest.units.len() - 3,
            "only the missing units re-ran"
        );
        assert_eq!(resumed.stats.tally, baseline.stats.tally);
    }

    #[test]
    fn store_is_shared_across_lane_widths() {
        // SEU verdicts are width-invariant, so the campaign key excludes
        // lane width: a store warmed at W=1 must fully answer a W=4
        // campaign (and produce the same report).
        let l = generate::lfsr(6, &[5, 3]);
        let store = MemStore::new();
        let driver = Campaign::serial();
        let narrow = SeuCampaign::new(5, 6);
        let cold = narrow.run_sampled_durable(&l, &[], 80, 11, &driver, &store, 16);
        let wide = SeuCampaign::new(5, 6).with_lane_width(4);
        let warm = wide.run_sampled_durable(&l, &[], 80, 11, &driver, &store, 16);
        assert_eq!(warm.stats.units_executed, 0, "W=1 store answers W=4");
        assert_eq!(warm.report, cold.report);
    }

    #[test]
    fn engine_matches_reference_on_lfsr() {
        let l = generate::lfsr(10, &[9, 6]);
        let c = SeuCampaign::new(6, 8);
        assert_eq!(
            c.run_exhaustive(&l, &[]),
            reference::run_exhaustive(&c, &l, &[])
        );
        assert_eq!(
            c.run_sampled(&l, &[], 120, 5),
            reference::run_sampled(&c, &l, &[], 120, 5)
        );
    }
}
