//! The workloads. Each is a closed loop with one client: the set-up,
//! one untimed warm-up op, then timed ops back to back in one process.
//!
//! The circuits are fixed: two rungs of the repository's scaling ladder,
//! the 32-bit multiplier and one sequential design. `--seed` selects the
//! stimuli only (test patterns, SEU sample points, the SEU input vector),
//! so two seeds ask for the same amount of work and the spread between
//! runs measures the host, not the circuit.
//!
//! Every call into a layer's public API sits inside a `bench.<layer>`
//! span (inert while telemetry is off), so a traced run can attribute
//! each op to layers; see `layers.rs`.

use crate::layers::Facts;
use rescue_campaign::{ArtifactStore, Campaign, FsStore};
use rescue_faults::collapse::{collapse_with, CollapsedUniverse};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{CampaignRun, FaultSimulator, PackedOptions};
use rescue_faults::universe::stuck_at_universe;
use rescue_faults::{CampaignReport, Fault};
use rescue_netlist::{generate, renumber, GateId, Netlist, NetlistBuilder};
use rescue_radiation::seu_analysis::reference::inject_naive;
use rescue_radiation::seu_analysis::{SeuCampaign, SeuReport, SeuRun};
use rescue_telemetry::span;
use std::path::PathBuf;

/// Seed streams derived from `--seed`, one per kind of input.
const INPUTS: u64 = 1;
const PATTERNS: u64 = 2;
const ORACLE: u64 = 3;
const SAMPLES: u64 = 4;
const WARM: u64 = 5;

/// What one run of a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Campaign workers: the host's available parallelism.
    pub workers: usize,
    /// Scratch directory for artifact caches and result stores.
    pub dir: PathBuf,
}

impl Ctx {
    fn campaign(&self) -> Campaign {
        Campaign::new(0, self.workers)
    }

    /// The seed of input stream `stream`, for op `op` (0 for inputs that
    /// do not change between ops).
    fn derive(&self, stream: u64, op: u64) -> u64 {
        Rng(self.seed ^ Rng((stream << 32) | op).next()).next()
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    type Input;
    type Output;
    /// Everything before the warm-up op; timed as `setup_s`.
    fn setup(ctx: &Ctx) -> Self;
    /// The inputs of op `i` (untimed; op 0 is the warm-up).
    fn input(&self, ctx: &Ctx, i: u64) -> Self::Input;
    /// One op: the timed part.
    fn op(&self, ctx: &Ctx, input: &Self::Input) -> Self::Output;
    /// What the op's calls returned, for the layer metrics.
    fn facts(&self, out: &Self::Output) -> Facts;
    /// Untimed checks of op `i`; returns its verdict digest.
    fn check(
        &mut self,
        ctx: &Ctx,
        i: u64,
        input: Self::Input,
        out: Self::Output,
    ) -> Result<u64, String>;
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn bools(n: usize, rng: &mut Rng) -> Vec<bool> {
    let mut word = 0;
    (0..n)
        .map(|k| {
            if k % 64 == 0 {
                word = rng.next();
            }
            word >> (k % 64) & 1 == 1
        })
        .collect()
}

fn patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng(seed);
    (0..count).map(|_| bools(n_inputs, &mut rng)).collect()
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn report_digest(report: &CampaignReport) -> u64 {
    fnv(report
        .first_detection()
        .iter()
        .map(|d| d.map_or(u64::MAX, |p| p as u64)))
}

fn seu_digest(report: &SeuReport) -> u64 {
    fnv(report.injections().iter().flat_map(|inj| {
        [
            inj.dff as u64,
            inj.cycle as u64,
            inj.outcome as u64,
            inj.detection_latency.map_or(u64::MAX, |l| l as u64),
        ]
    }))
}

// The calls into each layer, one span each.

/// The scaling-ladder rung named `name` ("50k", "200k" or "1M").
fn ladder_rung(name: &str) -> Netlist {
    let rung = generate::scaling_ladder()
        .iter()
        .find(|r| r.name == name)
        .expect("a rung of the scaling ladder");
    let _s = span!("bench.generate");
    rung.build()
}

fn levelize(net: &Netlist) -> Netlist {
    let _s = span!("bench.levelize");
    renumber::levelized(net).0
}

fn universe(net: &Netlist) -> Vec<Fault> {
    let _s = span!("bench.universe");
    stuck_at_universe(net)
}

fn collapse(net: &Netlist, faults: &[Fault], ctx: &Ctx) -> CollapsedUniverse {
    let _s = span!("bench.collapse");
    collapse_with(net, faults, ctx.workers)
}

fn compile(net: &Netlist, artifacts: Option<&ArtifactStore>) -> FaultSimulator {
    let _s = span!("bench.compile");
    match artifacts {
        Some(store) => FaultSimulator::new_cached(net, store),
        None => FaultSimulator::new(net),
    }
}

fn campaign(
    sim: &FaultSimulator,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    ctx: &Ctx,
    opts: PackedOptions,
) -> CampaignRun {
    let _s = span!("bench.campaign");
    sim.campaign_packed(faults, patterns, &ctx.campaign(), opts)
}

/// The engine configuration every stuck-at workload grades with.
fn packed(collapsed: &CollapsedUniverse) -> PackedOptions<'_> {
    PackedOptions::wide(4).with_collapsed(collapsed).traced()
}

fn campaign_facts(run: &CampaignRun, collapsed: &CollapsedUniverse) -> Facts {
    Facts {
        faults: Some(run.stats.clone()),
        coverage: run.report.coverage(),
        collapse_ratio: collapsed.ratio(),
        ..Facts::default()
    }
}

/// Checks `sample` seeded faults of `report` against the
/// full-resimulation oracle on the first `prefix` patterns: half drawn
/// from the faults the engine detected there, half from the rest.
fn oracle_check(
    oracle: &ReferenceFaultSimulator,
    net: &Netlist,
    report: &CampaignReport,
    patterns: &[Vec<bool>],
    prefix: usize,
    sample: usize,
    seed: u64,
) -> Result<(), String> {
    let prefix = &patterns[..prefix.min(patterns.len())];
    let (hit, miss): (Vec<usize>, Vec<usize>) = (0..report.faults().len())
        .partition(|&k| report.first_detection()[k].is_some_and(|p| p < prefix.len()));
    let mut rng = Rng(seed);
    let picks: Vec<usize> = (0..sample)
        .filter_map(|j| {
            let pool = if j % 2 == 0 && !hit.is_empty() {
                &hit
            } else {
                &miss
            };
            (!pool.is_empty()).then(|| pool[rng.below(pool.len())])
        })
        .collect();
    let faults: Vec<Fault> = picks.iter().map(|&k| report.faults()[k]).collect();
    let expected = oracle.campaign(net, &faults, prefix);
    for (j, &k) in picks.iter().enumerate() {
        let got = report.first_detection()[k].filter(|&p| p < prefix.len());
        if got != expected.first_detection()[j] {
            return Err(format!(
                "fault {:?}: engine first detection {got:?}, oracle {:?}",
                faults[j],
                expected.first_detection()[j]
            ));
        }
    }
    Ok(())
}

/// `cold_1m`: from a generated million-gate netlist to verdicts, with
/// nothing cached. The inputs are the same every op.
pub struct Cold1m {
    net: Netlist,
    patterns: Vec<Vec<bool>>,
    warm_digest: Option<u64>,
}

pub struct ColdOut {
    lev: Netlist,
    collapsed: CollapsedUniverse,
    run: CampaignRun,
}

impl Workload for Cold1m {
    type Input = ();
    type Output = ColdOut;

    fn setup(ctx: &Ctx) -> Self {
        Cold1m {
            net: ladder_rung("1M"),
            patterns: patterns(64, 256, ctx.derive(PATTERNS, 0)),
            warm_digest: None,
        }
    }

    fn input(&self, _: &Ctx, _: u64) {}

    fn op(&self, ctx: &Ctx, _: &()) -> ColdOut {
        let lev = levelize(&self.net);
        let faults = universe(&lev);
        let collapsed = collapse(&lev, &faults, ctx);
        let sim = compile(&lev, None);
        let run = campaign(&sim, &faults, &self.patterns, ctx, packed(&collapsed));
        ColdOut {
            lev,
            collapsed,
            run,
        }
    }

    fn facts(&self, out: &ColdOut) -> Facts {
        campaign_facts(&out.run, &out.collapsed)
    }

    fn check(&mut self, ctx: &Ctx, _: u64, _: (), out: ColdOut) -> Result<u64, String> {
        let digest = report_digest(&out.run.report);
        match self.warm_digest {
            Some(warm) if warm != digest => Err(format!(
                "verdict digest {digest:016x} differs from the warm-up's {warm:016x}"
            )),
            Some(_) => Ok(digest),
            None => {
                let oracle = ReferenceFaultSimulator::new(&out.lev);
                let seed = ctx.derive(ORACLE, 0);
                oracle_check(
                    &oracle,
                    &out.lev,
                    &out.run.report,
                    &self.patterns,
                    256,
                    8,
                    seed,
                )?;
                self.warm_digest = Some(digest);
                Ok(digest)
            }
        }
    }
}

/// `mult32`: a realistic datapath graded with fresh patterns per op; the
/// simulator is built in set-up.
pub struct Mult32 {
    net: Netlist,
    faults: Vec<Fault>,
    collapsed: CollapsedUniverse,
    sim: FaultSimulator,
    oracle: Option<ReferenceFaultSimulator>,
}

impl Workload for Mult32 {
    type Input = Vec<Vec<bool>>;
    type Output = CampaignRun;

    fn setup(ctx: &Ctx) -> Self {
        let net = {
            let _s = span!("bench.generate");
            generate::multiplier(32)
        };
        let faults = universe(&net);
        let collapsed = collapse(&net, &faults, ctx);
        let sim = compile(&net, None);
        Mult32 {
            net,
            faults,
            collapsed,
            sim,
            oracle: None,
        }
    }

    fn input(&self, ctx: &Ctx, i: u64) -> Self::Input {
        let n = self.net.primary_inputs().len();
        patterns(n, 4096, ctx.derive(PATTERNS, i))
    }

    fn op(&self, ctx: &Ctx, input: &Self::Input) -> CampaignRun {
        campaign(&self.sim, &self.faults, input, ctx, packed(&self.collapsed))
    }

    fn facts(&self, out: &CampaignRun) -> Facts {
        campaign_facts(out, &self.collapsed)
    }

    fn check(
        &mut self,
        ctx: &Ctx,
        i: u64,
        input: Self::Input,
        out: CampaignRun,
    ) -> Result<u64, String> {
        let oracle = self
            .oracle
            .get_or_insert_with(|| ReferenceFaultSimulator::new(&self.net));
        let seed = ctx.derive(ORACLE, i);
        oracle_check(oracle, &self.net, &out.report, &input, 4096, 16, seed)?;
        Ok(report_digest(&out.report))
    }
}

/// The 50k ladder rung with a warm artifact cache: the shared set-up of
/// `durable_50k` and `resume_50k`.
struct Rung50k {
    lev: Netlist,
    faults: Vec<Fault>,
    collapsed: CollapsedUniverse,
    root: PathBuf,
    artifacts: ArtifactStore,
    oracle: Option<ReferenceFaultSimulator>,
}

impl Rung50k {
    fn setup(ctx: &Ctx, name: &str) -> Self {
        let lev = levelize(&ladder_rung("50k"));
        let faults = universe(&lev);
        let collapsed = collapse(&lev, &faults, ctx);
        let root = ctx.dir.join(name);
        // Every set-up starts from an empty cache.
        let _ = std::fs::remove_dir_all(&root);
        let artifacts = ArtifactStore::open(&root);
        // Plans are keyed by the walk list, not the patterns, so one small
        // campaign warms the arena and the plan for every later op.
        let sim = compile(&lev, Some(&artifacts));
        let warm = patterns(32, 64, ctx.derive(WARM, 0));
        campaign(
            &sim,
            &faults,
            &warm,
            ctx,
            packed(&collapsed).with_artifacts(&artifacts),
        );
        Rung50k {
            lev,
            faults,
            collapsed,
            root,
            artifacts,
            oracle: None,
        }
    }

    /// One durable grading: reload the simulator from the cache and drain
    /// the campaign through `store`.
    fn grade(&self, ctx: &Ctx, patterns: &[Vec<bool>], store: &FsStore) -> CampaignRun {
        let sim = compile(&self.lev, Some(&self.artifacts));
        let opts = packed(&self.collapsed).with_artifacts(&self.artifacts);
        let _s = span!("bench.campaign");
        sim.campaign_packed_durable(&self.faults, patterns, &ctx.campaign(), opts, store, 0)
    }

    fn oracle_check(
        &mut self,
        report: &CampaignReport,
        patterns: &[Vec<bool>],
        seed: u64,
    ) -> Result<(), String> {
        let oracle = self
            .oracle
            .get_or_insert_with(|| ReferenceFaultSimulator::new(&self.lev));
        oracle_check(oracle, &self.lev, report, patterns, 512, 16, seed)
    }
}

/// `durable_50k`: grade fresh patterns into an empty result store.
pub struct Durable50k(Rung50k);

impl Workload for Durable50k {
    type Input = (Vec<Vec<bool>>, FsStore);
    type Output = CampaignRun;

    fn setup(ctx: &Ctx) -> Self {
        Durable50k(Rung50k::setup(ctx, "durable"))
    }

    fn input(&self, ctx: &Ctx, i: u64) -> Self::Input {
        let store = FsStore::open(self.0.root.join(format!("grade-{i}")));
        (patterns(32, 16_384, ctx.derive(PATTERNS, i)), store)
    }

    fn op(&self, ctx: &Ctx, (patterns, store): &Self::Input) -> CampaignRun {
        self.0.grade(ctx, patterns, store)
    }

    fn facts(&self, out: &CampaignRun) -> Facts {
        campaign_facts(out, &self.0.collapsed)
    }

    fn check(
        &mut self,
        ctx: &Ctx,
        i: u64,
        (patterns, store): Self::Input,
        out: CampaignRun,
    ) -> Result<u64, String> {
        let _ = std::fs::remove_dir_all(store.root());
        self.0
            .oracle_check(&out.report, &patterns, ctx.derive(ORACLE, i))?;
        Ok(report_digest(&out.report))
    }
}

/// `resume_50k`: resubmit a campaign its store already holds in full.
pub struct Resume50k {
    rung: Rung50k,
    patterns: Vec<Vec<bool>>,
    store: FsStore,
    graded: CampaignReport,
    oracle_done: bool,
}

impl Workload for Resume50k {
    type Input = ();
    type Output = CampaignRun;

    fn setup(ctx: &Ctx) -> Self {
        let rung = Rung50k::setup(ctx, "resume");
        let patterns = patterns(32, 16_384, ctx.derive(PATTERNS, 0));
        let store = FsStore::open(rung.root.join("store"));
        let graded = rung.grade(ctx, &patterns, &store).report;
        Resume50k {
            rung,
            patterns,
            store,
            graded,
            oracle_done: false,
        }
    }

    fn input(&self, _: &Ctx, _: u64) {}

    fn op(&self, ctx: &Ctx, _: &()) -> CampaignRun {
        self.rung.grade(ctx, &self.patterns, &self.store)
    }

    fn facts(&self, out: &CampaignRun) -> Facts {
        campaign_facts(out, &self.rung.collapsed)
    }

    fn check(&mut self, ctx: &Ctx, _: u64, _: (), out: CampaignRun) -> Result<u64, String> {
        let s = &out.stats;
        if s.units_executed != 0 || s.units_cached != s.units_total {
            return Err(format!(
                "resume executed {} and reused {} of {} units",
                s.units_executed, s.units_cached, s.units_total
            ));
        }
        if out.report != self.graded {
            return Err("resumed verdicts differ from the graded ones".into());
        }
        if !self.oracle_done {
            let seed = ctx.derive(ORACLE, 0);
            self.rung.oracle_check(&self.graded, &self.patterns, seed)?;
            self.oracle_done = true;
        }
        Ok(report_digest(&self.graded))
    }
}

/// `seu_5k`: sampled SEU injections into a sequential design.
pub struct Seu5k {
    net: Netlist,
    inputs: Vec<bool>,
}

const SEU_DESIGN_SEED: u64 = 5_000;

fn seu_campaign() -> SeuCampaign {
    SeuCampaign::new(200, 32).with_lane_width(4)
}

/// A random sequential design: 16 inputs, 256 flip-flops, 5 000
/// two-input gates over earlier signals, 32 outputs. Each flip-flop's D
/// pin is driven by a random gate, so state feeds back through logic.
fn seu_design(seed: u64) -> Netlist {
    let _s = span!("bench.generate");
    let mut rng = Rng(seed);
    let mut b = NetlistBuilder::new("seu_5k");
    let mut sigs = b.inputs("i", 16);
    let dffs: Vec<GateId> = (0..256).map(|_| b.dff_floating()).collect();
    sigs.extend(&dffs);
    let first_gate = sigs.len();
    for _ in 0..5_000 {
        let x = sigs[rng.below(sigs.len())];
        let y = sigs[rng.below(sigs.len())];
        let g = match rng.below(6) {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            _ => b.xnor(x, y),
        };
        sigs.push(g);
    }
    let gates = &sigs[first_gate..];
    for &q in &dffs {
        b.connect_dff(q, gates[rng.below(gates.len())]);
    }
    for (k, &g) in gates[gates.len() - 32..].iter().enumerate() {
        b.output(format!("o{k}"), g);
    }
    b.finish()
}

impl Workload for Seu5k {
    type Input = u64;
    type Output = SeuRun;

    fn setup(ctx: &Ctx) -> Self {
        Seu5k {
            net: seu_design(SEU_DESIGN_SEED),
            inputs: bools(16, &mut Rng(ctx.derive(INPUTS, 0))),
        }
    }

    fn input(&self, ctx: &Ctx, i: u64) -> u64 {
        ctx.derive(SAMPLES, i)
    }

    fn op(&self, ctx: &Ctx, sample_seed: &u64) -> SeuRun {
        let _s = span!("bench.seu");
        seu_campaign().run_sampled_on(
            &self.net,
            &self.inputs,
            50_000,
            *sample_seed,
            &ctx.campaign(),
        )
    }

    fn facts(&self, out: &SeuRun) -> Facts {
        Facts {
            seu: Some(out.stats.clone()),
            avf: out.report.avf(),
            ..Facts::default()
        }
    }

    fn check(&mut self, ctx: &Ctx, i: u64, _: u64, out: SeuRun) -> Result<u64, String> {
        let injections = out.report.injections();
        let mut rng = Rng(ctx.derive(ORACLE, i));
        for _ in 0..16 {
            let got = injections[rng.below(injections.len())];
            let want = inject_naive(&seu_campaign(), &self.net, &self.inputs, got.dff, got.cycle);
            if got != want {
                return Err(format!("SEU injection {got:?}, scalar oracle {want:?}"));
            }
        }
        Ok(seu_digest(&out.report))
    }
}
