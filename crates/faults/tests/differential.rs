//! The differential matrix: every stuck-at campaign configuration ≡ the
//! full-resimulation oracle.
//!
//! A cell is one configuration of the packed campaign: lane width
//! W ∈ {1, 2, 4, 8}, collapsing on or off, tracing on or off, 1–3
//! workers, the path (plain; durable cold; durable resumed from a store
//! holding every other unit, under another worker count; durable warm),
//! original or level-order gate ids (`renumber::levelized`), the stuck-at
//! universe with or without faults outside the design, and a pattern
//! count one below or on the one-word boundary at 64·W patterns, or on
//! or one above the two-word one (a lone ragged or full chunk, two full
//! chunks, a one-pattern tail). The cells come from a pairwise covering
//! array (every pair of knob values in at least one cell, checked by
//! `covering_rows_hold_every_pair_of_knob_values`) plus seeded random
//! draws, and every design of the family grades every cell.
//!
//! The family: `random_logic`, every named generator (`c17`, adders,
//! multiplier, ALU, comparator, parity and mux-tree chains, the decoder's
//! fanout, `tmr` reconvergence), the sequential generators, random
//! designs with DFF feedback on both sides of the half-the-gates cone
//! rule (`simulate::campaign_arena`), and hand-built corners.
//!
//! The relation: each cell's report equals the one
//! `ReferenceFaultSimulator::campaign` gives, and the run's stats
//! tallies (detected, undetected, dropped, walked, traced and, on
//! durable paths, the unit ledger) agree with that report. The oracle
//! grades each design variant once, over its full pattern list and the
//! universe with outside faults; a cell's expectation is that report
//! restricted to the cell's faults and truncated to its pattern count
//! (a first detection at or past the count reads undetected), which is
//! exact because the oracle drops a fault at its first detecting pattern.
//!
//! The properties below the matrix are not campaign relations: the
//! oracle's single-fault views (`detection_mask`, `with_stuck`,
//! bridging), the transition and sequential campaigns, typed errors,
//! empty and unsupported inputs, and the E12 collapse guard.

mod common;

use common::random_patterns;
use proptest::prelude::*;
use rescue_campaign::{Campaign, MemStore, ResultStore};
use rescue_faults::collapse::{collapse, CollapsedUniverse};
use rescue_faults::engine::{output_cone, CampaignPlan, FaultScratch};
use rescue_faults::model::BridgingFault;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{CampaignReport, CampaignRun, FaultSimulator, PackedOptions};
use rescue_faults::trace::{NetClass, TracePlan, TraceScratch};
use rescue_faults::{universe, Fault, FaultError, FaultSite};
use rescue_netlist::cone::comb_fanout_cone;
use rescue_netlist::{generate, renumber, GateId, Netlist, NetlistBuilder};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::parallel::pack_patterns;
use rescue_sim::wide::{pack_patterns_wide, SimWord};
use std::collections::BTreeSet;

/// Values per knob, in [`Cell::from_row`] order: lane width, collapse,
/// tracing, workers, path, level-order ids, outside faults, pattern
/// count.
const LEVELS: [usize; 8] = [4, 2, 2, 3, 4, 2, 2, 4];

/// A covering-array row: one value index per knob.
type Row = [usize; LEVELS.len()];

/// The lane widths of the first knob.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Patterns every design draws: enough for the largest cell, one past
/// two words at W = 8.
const MAX_PATTERNS: usize = 2 * 64 * 8 + 1;

/// Seeded random cells each design grades on top of the covering rows.
const DRAWS: usize = 4;

/// How a cell's campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `campaign_packed`.
    Plain,
    /// `campaign_packed_durable` into an empty store, then
    /// `campaign_packed` to compare walked and traced counts.
    Cold,
    /// A cold run, then a run under another worker count on a store
    /// holding every other unit the cold run stored.
    Resumed,
    /// A cold run, then the same campaign on the complete store.
    Warm,
}

/// One configuration of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    lane_width: usize,
    collapse: bool,
    tracing: bool,
    workers: usize,
    path: Path,
    levelized: bool,
    outside: bool,
    patterns: usize,
}

impl Cell {
    fn from_row(row: Row) -> Cell {
        let lane_width = WIDTHS[row[0]];
        let word = 64 * lane_width;
        Cell {
            lane_width,
            collapse: row[1] == 1,
            tracing: row[2] == 1,
            workers: row[3] + 1,
            path: [Path::Plain, Path::Cold, Path::Resumed, Path::Warm][row[4]],
            levelized: row[5] == 1,
            outside: row[6] == 1,
            patterns: [word - 1, word, 2 * word, 2 * word + 1][row[7]],
        }
    }
}

/// The pair of knob values `(a, va)` and `(b, vb)`, smaller knob first.
fn pair(a: usize, va: usize, b: usize, vb: usize) -> (usize, usize, usize, usize) {
    if a < b {
        (a, va, b, vb)
    } else {
        (b, vb, a, va)
    }
}

/// Every pair of values of two different knobs.
fn all_pairs() -> BTreeSet<(usize, usize, usize, usize)> {
    let mut pairs = BTreeSet::new();
    for (a, &levels_a) in LEVELS.iter().enumerate() {
        for (b, &levels_b) in LEVELS.iter().enumerate().skip(a + 1) {
            for va in 0..levels_a {
                for vb in 0..levels_b {
                    pairs.insert((a, va, b, vb));
                }
            }
        }
    }
    pairs
}

/// A pairwise covering array over [`LEVELS`], built greedily: each row
/// starts from the smallest pair no earlier row holds, and fills every
/// other knob, in order, with the value that adds the most missing pairs
/// with the knobs already set (the smaller value on a tie).
fn covering_rows() -> Vec<Row> {
    let mut missing = all_pairs();
    let mut rows = Vec::new();
    while let Some(&(a, va, b, vb)) = missing.iter().next() {
        let mut row = [None; LEVELS.len()];
        row[a] = Some(va);
        row[b] = Some(vb);
        for k in 0..LEVELS.len() {
            if row[k].is_some() {
                continue;
            }
            let gain = |v: usize| {
                (0..LEVELS.len())
                    .filter_map(|j| Some((j, row[j]?)))
                    .filter(|&(j, vj)| missing.contains(&pair(k, v, j, vj)))
                    .count()
            };
            let best = (0..LEVELS[k]).rev().max_by_key(|&v| gain(v));
            row[k] = best;
        }
        let row = row.map(|v| v.expect("every knob set"));
        for (a, &va) in row.iter().enumerate() {
            for (b, &vb) in row.iter().enumerate().skip(a + 1) {
                missing.remove(&(a, va, b, vb));
            }
        }
        rows.push(row);
    }
    rows
}

/// Seeded xorshift draws below `k`.
struct Draw(u64);

impl Draw {
    fn new(seed: u64) -> Draw {
        Draw(seed.max(1) ^ 0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }
}

/// `count` seeded uniform draws over [`LEVELS`].
fn random_rows(seed: u64, count: usize) -> Vec<Row> {
    let mut rng = Draw::new(seed);
    (0..count).map(|_| LEVELS.map(|k| rng.below(k))).collect()
}

/// A random design: `gates` random gates, each dead with probability
/// `dead_pct`%; a live gate reads the inputs, the flop outputs and the
/// live gates before it, a dead one reads anything before it, and no
/// live gate or output reads a dead one, so live stems grow dead
/// branches. The last `outputs` live gates drive outputs, and so does
/// one flop. Each flop's `D` pin reads a live gate (feedback) or a dead
/// one (a dead `D` cone), and two spare inputs feed nothing. Asserts the
/// output cone falls `under_half` of the gates or over.
fn cone_design(
    seed: u64,
    gates: usize,
    dead_pct: usize,
    outputs: usize,
    dffs: usize,
    under_half: bool,
) -> Netlist {
    let mut rng = Draw::new(seed);
    let mut b = NetlistBuilder::new(format!("cone_{seed}_{dffs}"));
    let mut live = b.inputs("i", 5);
    let spare = b.inputs("spare", 2);
    let flops: Vec<GateId> = (0..dffs).map(|_| b.dff_floating()).collect();
    live.extend(&flops);
    let mut all = live.clone();
    all.extend(&spare);
    let mut dead = Vec::new();
    for _ in 0..gates {
        let is_dead = rng.below(100) < dead_pct;
        let pool = if is_dead { &all } else { &live };
        let x = pool[rng.below(pool.len())];
        // Dead gates read a live gate on one pin, so they sit on live
        // stems as dead branches.
        let y = live[rng.below(live.len())];
        let g = match rng.below(5) {
            0 => b.nand(x, y),
            1 => b.xor(x, y),
            2 => b.or(x, y),
            3 => b.not(x),
            _ => b.and(x, y),
        };
        all.push(g);
        if is_dead {
            dead.push(g);
        } else {
            live.push(g);
        }
    }
    for &q in &flops {
        let pool = if dead.is_empty() || rng.below(2) == 0 {
            &live
        } else {
            &dead
        };
        b.connect_dff(q, pool[rng.below(pool.len())]);
    }
    for (k, &g) in live[live.len() - outputs..].iter().enumerate() {
        b.output(format!("o{k}"), g);
    }
    if let Some(&q) = flops.first() {
        b.output("q0", q);
    }
    let net = b.finish();
    assert_eq!(cone_under_half(&net), under_half, "{}", net.name());
    net
}

/// Whether `net`'s output cone holds at most half of its gates, the rule
/// under which a campaign runs on the cone's arena.
fn cone_under_half(net: &Netlist) -> bool {
    let c = CompiledNetlist::new(net);
    output_cone(&c).len() * 2 <= c.len()
}

/// An output stem whose second branch is dead, a flop whose `D` cone
/// reaches the output only through the flop, a flop nothing reads, an
/// input nothing reads, and dead gates that push the cone under half.
fn dead_branches() -> Netlist {
    let mut b = NetlistBuilder::new("dead_branches");
    let [a, x, y, z] = ["a", "x", "y", "z"].map(|n| b.input(n));
    let _unread = b.input("unread");
    let s = b.and(a, x); // stem: one live branch, one dead
    let live = b.xor(s, y);
    let _dead_branch = b.or(s, z);
    let q = b.dff_floating();
    let d_cone = b.nand(q, s); // reaches the output only through q
    b.connect_dff(q, d_cone);
    let out = b.or(live, q);
    let dead_d = b.nor(x, z);
    let _unread_flop = b.dff(dead_d);
    let mut prev = dead_d;
    for _ in 0..12 {
        prev = b.xnor(prev, a);
    }
    b.output("out", out);
    b.finish()
}

/// `g2` fans out to two branches that re-meet at the XOR: tracing must
/// classify it as a stem and walk it. Returns the design, `g1` and `g2`.
fn reconvergent() -> (Netlist, GateId, GateId) {
    let mut b = NetlistBuilder::new("reconv");
    let a = b.input("a");
    let bb = b.input("b");
    let g1 = b.not(a); // single fanout: a chain net below the stem
    let g2 = b.and(g1, bb); // stem: two combinational consumers
    let g3 = b.not(g2);
    let g4 = b.and(g2, bb);
    let g5 = b.xor(g3, g4); // reconvergence
    b.output("y", g5);
    (b.finish(), g1, g2)
}

/// An output only the all-zero input pattern sets, next to one most
/// patterns set. The all-zero pattern is 1 in 4096 random draws, and the
/// dead lanes of a ragged chunk hold it, so a detection read past the
/// live lanes shows up as a verdict the oracle does not have.
fn zero_only() -> Netlist {
    let mut b = NetlistBuilder::new("zero_only");
    let inputs = b.inputs("i", 12);
    let any = b.or_n(&inputs);
    let none = b.not(any);
    let pair = b.and(inputs[0], inputs[1]);
    let busy = b.xor(pair, inputs[2]);
    b.output("none", none);
    b.output("busy", busy);
    b.finish()
}

/// The design family, in the four groups that run as separate tests.
#[derive(Debug, Clone, Copy)]
enum Group {
    RandomLogic,
    Named,
    Sequential,
    ConeRule,
}

fn family(group: Group) -> Vec<Netlist> {
    match group {
        Group::RandomLogic => vec![
            generate::random_logic(8, 110, 4, 5),
            generate::random_logic(7, 90, 4, 3),
            generate::random_logic(10, 160, 6, 17),
        ],
        Group::Named => vec![
            generate::c17(),
            generate::adder(4),
            generate::cla_adder(4),
            generate::multiplier(3),
            generate::alu(3),
            generate::comparator(4),
            generate::parity(16),
            generate::mux_tree(3),
            generate::address_decoder(3),
            generate::tmr(&generate::c17()),
        ],
        Group::Sequential => vec![
            generate::lfsr(5, &[4, 2]),
            generate::counter(4),
            generate::shift_register(4),
            generate::control_fsm(),
        ],
        Group::ConeRule => vec![
            cone_design(11, 120, 60, 2, 3, true),
            cone_design(12, 120, 60, 2, 0, true),
            cone_design(13, 60, 5, 40, 2, false),
            cone_design(14, 60, 5, 40, 1, false),
            dead_branches(),
            reconvergent().0,
            zero_only(),
        ],
    }
}

/// The stuck-at universe of `net` with faults outside the design spread
/// through it (outputs and pins past the last gate, pins past a gate's
/// arity), and which of them lie in the design.
fn universe_with_outside(net: &Netlist) -> (Vec<Fault>, Vec<bool>) {
    let n = net.len();
    let wide = net
        .ids()
        .max_by_key(|&g| net.gate(g).inputs().len())
        .expect("a gate");
    let arity = net.gate(wide).inputs().len();
    let pin = |gate, pin, value| Fault::stuck_at(FaultSite::Pin { gate, pin }, value);
    let outside = [
        Fault::stuck_at(FaultSite::Output(GateId(n)), false),
        Fault::stuck_at(FaultSite::Output(GateId(n + 7)), true),
        pin(GateId(n + 3), 1, true),
        pin(wide, arity, false),
        pin(wide, arity + 3, true),
    ];
    let mut faults: Vec<(Fault, bool)> = universe::stuck_at_universe(net)
        .into_iter()
        .map(|f| (f, true))
        .collect();
    for (k, &f) in outside.iter().enumerate() {
        faults.insert(k * faults.len() / (outside.len() - 1), (f, false));
    }
    faults.into_iter().unzip()
}

/// One design variant (original or level-order ids) and what its cells
/// share: the simulator, both universes and their collapses, and the
/// oracle's report over the full pattern list and the wider universe.
struct Variant {
    net: Netlist,
    sim: FaultSimulator,
    /// Indexed by [`Cell::outside`]: the design's universe, then it
    /// with outside faults.
    faults: [Vec<Fault>; 2],
    collapsed: [CollapsedUniverse; 2],
    /// Per fault of `faults[1]`: lies in the design.
    inside: Vec<bool>,
    oracle: CampaignReport,
}

impl Variant {
    fn new(net: Netlist, patterns: &[Vec<bool>]) -> Variant {
        let (wider, inside) = universe_with_outside(&net);
        let design = universe::stuck_at_universe(&net);
        let oracle = ReferenceFaultSimulator::new(&net).campaign(&net, &wider, patterns);
        assert!(oracle.detected_count() > 0, "{}", net.name());
        for (verdict, &inside) in oracle.first_detection().iter().zip(&inside) {
            assert!(inside || verdict.is_none(), "{}: outside fault", net.name());
        }
        Variant {
            sim: FaultSimulator::new(&net),
            collapsed: [collapse(&net, &design), collapse(&net, &wider)],
            faults: [design, wider],
            inside,
            oracle,
            net,
        }
    }

    /// The oracle's report over `faults[outside]` and the first
    /// `patterns` patterns.
    fn expected(&self, outside: bool, patterns: usize) -> CampaignReport {
        let verdicts = self
            .oracle
            .first_detection()
            .iter()
            .zip(&self.inside)
            .filter(|&(_, &inside)| outside || inside)
            .map(|(verdict, _)| verdict.filter(|&p| p < patterns))
            .collect();
        CampaignReport::from_parts(self.faults[outside as usize].clone(), verdicts, patterns)
    }
}

/// The stats tallies `run`'s report implies under `cell` on a design of
/// `gates` gates: detected and undetected faults, those dropped before
/// the last 64·W-pattern word, every fault on a gate of the design
/// walked without collapsing (at most one per class with it), no
/// tracing counts without tracing, and finite rates.
fn check_tallies(
    run: &CampaignRun,
    cell: &Cell,
    gates: usize,
    collapsed: &CollapsedUniverse,
    what: &str,
) {
    let (report, stats) = (&run.report, &run.stats);
    let lanes = 64 * cell.lane_width;
    let words = report.patterns().div_ceil(lanes);
    let detected = report.detected_count();
    let dropped = report
        .first_detection()
        .iter()
        .flatten()
        .filter(|&&p| p / lanes + 1 < words)
        .count();
    let faults = report.faults().len();
    assert_eq!(stats.tally.detected, detected, "{what}: detected");
    assert_eq!(
        stats.tally.undetected,
        faults - detected,
        "{what}: undetected"
    );
    assert_eq!(stats.dropped, dropped, "{what}: dropped");
    assert_eq!(stats.injections, faults, "{what}: injections");
    if cell.collapse {
        assert!(
            stats.faults_walked <= collapsed.representatives().len(),
            "{what}: walked"
        );
    } else {
        let on_gates = report
            .faults()
            .iter()
            .filter(|f| f.site().gate().index() < gates)
            .count();
        assert_eq!(stats.faults_walked, on_gates, "{what}: walked");
    }
    assert_eq!(stats.faults_saved(), faults - stats.faults_walked, "{what}");
    assert!(stats.faults_traced <= stats.faults_walked, "{what}: traced");
    if !cell.tracing {
        assert_eq!(stats.faults_traced, 0, "{what}: traced");
    }
    for v in [
        stats.traced_fraction(),
        stats.collapse_ratio(),
        stats.injections_per_sec(),
        stats.lane_occupancy(),
        stats.worker_utilization(),
    ] {
        assert!(v.is_finite(), "{what}: stats must never leak NaN/inf");
    }
}

/// The unit ledger: units in the plan, answered by the store, executed.
fn check_ledger(run: &CampaignRun, ledger: [usize; 3], what: &str) {
    let stats = &run.stats;
    assert_eq!(
        [stats.units_total, stats.units_cached, stats.units_executed],
        ledger,
        "{what}: units total, cached, executed"
    );
}

/// Grades `variant` in `cell` against the oracle.
fn grade(variant: &Variant, patterns: &[Vec<bool>], cell: Cell, seed: u64) {
    let patterns = &patterns[..cell.patterns];
    let (faults, collapsed) = (
        &variant.faults[cell.outside as usize],
        &variant.collapsed[cell.outside as usize],
    );
    let want = variant.expected(cell.outside, cell.patterns);
    let mut opts = PackedOptions::wide(cell.lane_width);
    if cell.collapse {
        opts = opts.with_collapsed(collapsed);
    }
    if cell.tracing {
        opts = opts.traced();
    }
    let sim = &variant.sim;
    let campaign = Campaign::new(seed, cell.workers);
    let what = format!("{} {cell:?}", variant.net.name());
    let check = |run: &CampaignRun, path: &str, ledger: [usize; 3]| {
        let what = format!("{what} {path}");
        assert_eq!(run.report, want, "{what}");
        check_tallies(run, &cell, variant.net.len(), collapsed, &what);
        check_ledger(run, ledger, &what);
    };
    if cell.path == Path::Plain {
        check(
            &sim.campaign_packed(faults, patterns, &campaign, opts),
            "plain",
            [0; 3],
        );
        if cell.lane_width == 1 && !cell.collapse && !cell.tracing && cell.workers == 1 {
            assert_eq!(sim.campaign(faults, patterns), want, "{what}: campaign");
        }
        return;
    }
    let grain = (faults.len() / 8).max(4);
    let manifest = sim.durable_plan(faults, patterns, &opts, grain);
    let (units, total) = (&manifest.units, manifest.units.len());
    let store = MemStore::new();
    let durable = |campaign: &Campaign, store: &MemStore, path: &str, ledger| {
        let run = sim.campaign_packed_durable(faults, patterns, campaign, opts, store, grain);
        check(&run, path, ledger);
        assert_eq!(
            run.stats.faults_walked, manifest.total_items,
            "{what} {path}: walked"
        );
        run
    };
    let cold = durable(&campaign, &store, "cold", [total, 0, total]);
    match cell.path {
        Path::Resumed => {
            let partial = MemStore::new();
            for unit in units.iter().step_by(2) {
                partial.put(
                    unit.id,
                    &store.get(unit.id).expect("the cold run stored it"),
                );
            }
            let kept = total.div_ceil(2);
            let resumer = Campaign::new(seed ^ 0x5eed, cell.workers % 3 + 1);
            durable(&resumer, &partial, "resumed", [total, kept, total - kept]);
        }
        Path::Warm => {
            durable(&campaign, &store, "warm", [total, total, 0]);
        }
        Path::Cold => {
            let plain = sim.campaign_packed(faults, patterns, &campaign, opts);
            let counts = |run: &CampaignRun| (run.stats.faults_walked, run.stats.faults_traced);
            assert_eq!(counts(&cold), counts(&plain), "{what}: cold vs plain");
        }
        Path::Plain => {}
    }
}

/// Grades every design of `group` in every covering row and in its own
/// seeded random draws, on both id orders.
fn grade_family(group: Group) {
    let rows = covering_rows();
    for (di, net) in family(group).into_iter().enumerate() {
        let seed = 64 * group as u64 + di as u64 + 1;
        let patterns = random_patterns(net.primary_inputs().len(), MAX_PATTERNS, seed);
        let levelized = renumber::levelized(&net).0;
        let variants = [
            Variant::new(net, &patterns),
            Variant::new(levelized, &patterns),
        ];
        let draws = random_rows(seed, DRAWS);
        for &row in rows.iter().chain(&draws) {
            let cell = Cell::from_row(row);
            grade(&variants[cell.levelized as usize], &patterns, cell, seed);
        }
    }
}

#[test]
fn covering_rows_hold_every_pair_of_knob_values() {
    let rows = covering_rows();
    for (a, va, b, vb) in all_pairs() {
        assert!(
            rows.iter().any(|row| row[a] == va && row[b] == vb),
            "knob {a} = {va} never meets knob {b} = {vb}"
        );
    }
    for row in &rows {
        assert!(row.iter().zip(LEVELS).all(|(&v, levels)| v < levels));
    }
}

/// The family holds sequential designs and designs on both sides of the
/// half-the-gates cone rule, and every design's wider universe holds
/// faults outside it.
#[test]
fn family_spans_sequential_designs_and_both_sides_of_the_cone_rule() {
    let all: Vec<Netlist> = [
        Group::RandomLogic,
        Group::Named,
        Group::Sequential,
        Group::ConeRule,
    ]
    .into_iter()
    .flat_map(family)
    .collect();
    assert!(all.iter().any(Netlist::is_sequential));
    assert!(all.iter().any(cone_under_half));
    assert!(!all.iter().all(cone_under_half));
    for net in &all {
        let (faults, inside) = universe_with_outside(net);
        assert!(inside.contains(&false), "{}", net.name());
        assert_eq!(faults.len() - 5, universe::stuck_at_universe(net).len());
    }
}

#[test]
fn matrix_random_logic() {
    grade_family(Group::RandomLogic);
}

#[test]
fn matrix_named_generators() {
    grade_family(Group::Named);
}

#[test]
fn matrix_sequential_generators() {
    grade_family(Group::Sequential);
}

#[test]
fn matrix_cone_rule_and_corners() {
    grade_family(Group::ConeRule);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-fault detection masks agree on every chunk, including partial
    /// last chunks, for both output and pin sites.
    #[test]
    fn detection_masks_match_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 60, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        // 37 patterns: exercises the partial-chunk path downstream.
        let patterns = random_patterns(6, 37, seed);
        let words = pack_patterns(&patterns);
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        let golden = fast.golden(&words);
        prop_assert_eq!(&golden, &slow.golden(&net, &words));
        for &fault in &faults {
            prop_assert_eq!(
                fast.detection_mask(&golden, fault),
                slow.detection_mask(&net, &words, &golden, fault),
                "{}", fault
            );
        }
    }

    /// Faulty value vectors agree gate-for-gate (not just at outputs) for
    /// stuck-at faults on outputs and pins.
    #[test]
    fn with_stuck_matches_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let words = pack_patterns(&random_patterns(6, 64, seed));
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        for &fault in faults.iter().take(60) {
            prop_assert_eq!(
                fast.with_stuck(&words, fault),
                slow.with_stuck(&net, &words, fault),
                "{}", fault
            );
        }
    }

    /// Bridging-fault evaluation agrees gate-for-gate.
    #[test]
    fn bridging_matches_reference(seed in 1u64..500) {
        let net = generate::random_logic(6, 50, 3, seed);
        let bridges = universe::bridging_universe(&net, 4);
        let words = pack_patterns(&random_patterns(6, 64, seed));
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        for &bridge in bridges.iter().take(40) {
            prop_assert_eq!(
                fast.with_bridge(&words, bridge),
                slow.with_bridge(&net, &words, bridge)
            );
        }
        // Both wired-AND and wired-OR polarities on a fixed pair.
        if let (Some(a), Some(b)) = (net.ids().nth(6), net.ids().nth(9)) {
            for wired_and in [true, false] {
                let br = BridgingFault { a, b, wired_and };
                prop_assert_eq!(
                    fast.with_bridge(&words, br),
                    slow.with_bridge(&net, &words, br)
                );
            }
        }
    }

    /// Transition-delay campaigns over pattern pairs agree, for pattern
    /// counts on both sides of a 64-pair word (ragged last word included).
    #[test]
    fn transition_campaign_matches_reference(seed in 1u64..500, n_patterns in 1usize..200) {
        let net = generate::random_logic(6, 70, 3, seed);
        let faults = universe::transition_universe(&net);
        let patterns = random_patterns(6, n_patterns, seed);
        let fast = FaultSimulator::new(&net);
        let slow = ReferenceFaultSimulator::new(&net);
        let a = fast.transition_campaign(&faults, &patterns);
        let b = slow.transition_campaign(&net, &faults, &patterns);
        prop_assert_eq!(a.first_detection(), b.first_detection());
    }

    /// Sequential campaigns agree on state-holding designs (LFSR) and on
    /// purely combinational ones.
    #[test]
    fn sequential_campaign_matches_reference(seed in 1u64..200) {
        let lfsr = generate::lfsr(5, &[4, 2]);
        let faults = universe::stuck_at_universe(&lfsr);
        let stimuli: Vec<Vec<bool>> = (0..12).map(|_| vec![]).collect();
        let fast = FaultSimulator::new(&lfsr);
        let slow = ReferenceFaultSimulator::new(&lfsr);
        let a = fast.campaign_seq(&faults, &stimuli);
        let b = slow.campaign_seq(&lfsr, &faults, &stimuli);
        prop_assert_eq!(a.first_detection(), b.first_detection());

        let comb = generate::random_logic(5, 40, 2, seed);
        let cf = universe::stuck_at_universe(&comb);
        let stim = random_patterns(5, 10, seed);
        let a = FaultSimulator::new(&comb).campaign_seq(&cf, &stim);
        let b = ReferenceFaultSimulator::new(&comb).campaign_seq(&comb, &cf, &stim);
        prop_assert_eq!(a.first_detection(), b.first_detection());
    }
}

/// Shift-register fault visible only through several cycles of state:
/// both engines agree on the exact detection cycle.
#[test]
fn shift_register_seq_equivalence() {
    let s = generate::shift_register(4);
    let sin = s.primary_inputs()[0];
    let faults = vec![
        Fault::stuck_at(FaultSite::Output(sin), false),
        Fault::stuck_at(FaultSite::Output(sin), true),
    ];
    let stim: Vec<Vec<bool>> = (0..10).map(|c| vec![c % 2 == 0]).collect();
    let a = FaultSimulator::new(&s).campaign_seq(&faults, &stim);
    let b = ReferenceFaultSimulator::new(&s).campaign_seq(&s, &faults, &stim);
    assert_eq!(a.first_detection(), b.first_detection());
}

/// On the reconvergent corner, tracing classifies `g2` as a stem and
/// `g1` as a chain net into it, resolves chain nets by tracing and the
/// stem by the fallback walk, and every mask equals the oracle's.
#[test]
fn reconvergent_stem_takes_fallback_walk() {
    let (net, g1, g2) = reconvergent();
    let faults = universe::stuck_at_universe(&net);
    let patterns: Vec<Vec<bool>> = (0..4u32)
        .map(|p| (0..2).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let tplan = TracePlan::build(c, &faults);
    assert_eq!(tplan.class_of(g2.index()), NetClass::Stem);
    assert_eq!(
        tplan.class_of(g1.index()),
        NetClass::Chain {
            consumer: g2.index() as u32,
            pin: 0
        }
    );
    assert!(tplan.stems() >= 1, "the fault list must reach the stem");

    let oracle = ReferenceFaultSimulator::new(&net);
    let mut traced = TraceScratch::<u64>::new(c.len());
    let words = pack_patterns_wide::<u64>(&patterns);
    let mut golden = Vec::new();
    c.eval_words_into(&words, &mut golden).unwrap();
    traced.load_golden(&golden);
    let live = u64::live_mask(patterns.len());
    for &fault in &faults {
        assert_eq!(
            tplan.detect_traced(c, &golden, &mut traced, fault).unwrap() & live,
            oracle.detection_mask(&net, &words, &golden, fault) & live,
            "{fault}"
        );
    }
    assert!(
        traced.inner.counters.stem_fallbacks > 0,
        "reconvergent stem must be resolved by the fallback walk"
    );
    assert!(
        traced.inner.counters.traced_nets > 0,
        "chain nets below the stem must be resolved by tracing"
    );
}

/// A fault outside the plan's build list surfaces the typed error — for
/// both the tracing front-end and the walking engine — instead of a
/// panic.
#[test]
fn unplanned_site_is_a_typed_error() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let planned = vec![universe::stuck_at_universe(&net)[0]];
    let tplan = TracePlan::build(c, &planned);
    let plan = CampaignPlan::build(c, &planned);
    // A site that is not a fault root of the singleton plan.
    let unplanned = *universe::stuck_at_universe(&net)
        .iter()
        .find(|f| !tplan.planned(f.site().gate().index()))
        .expect("c17 has more sites than the singleton plan");
    let gate = unplanned.site().gate().index();
    let patterns: Vec<Vec<bool>> = (0..8u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let words = pack_patterns_wide::<u64>(&patterns);
    let mut golden = Vec::new();
    c.eval_words_into(&words, &mut golden).unwrap();
    let mut traced = TraceScratch::<u64>::new(c.len());
    traced.load_golden(&golden);
    assert_eq!(
        tplan.detect_traced(c, &golden, &mut traced, unplanned),
        Err(FaultError::UnplannedSite { gate })
    );
    let mut scratch = FaultScratch::new(c.len());
    scratch.load_golden(&golden);
    assert_eq!(
        plan.detect_packed(c, &golden, &mut scratch, unplanned),
        Err(FaultError::UnplannedSite { gate })
    );
}

/// An empty fault universe through the tracing campaign keeps every
/// stats accessor finite (the NaN guard the throughput table and BENCH
/// JSONs rely on).
#[test]
fn empty_universe_stats_stay_finite() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    let patterns: Vec<Vec<bool>> = (0..8u32)
        .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let run = sim.campaign_packed(
        &[],
        &patterns,
        &Campaign::serial(),
        PackedOptions::wide(4).traced(),
    );
    assert_eq!(run.report.detected_count(), 0);
    for v in [
        run.stats.traced_fraction(),
        run.stats.collapse_ratio(),
        run.stats.injections_per_sec(),
        run.stats.lane_occupancy(),
        run.stats.worker_utilization(),
    ] {
        assert!(v.is_finite(), "stats must never leak NaN/inf");
    }
}

/// Sites whose fanout cone reaches no primary output are statically
/// unobservable: the packed path must report 0 for every fault there,
/// and `CampaignPlan::observable` must agree with a scan of the
/// netlist's combinational fanout cone.
#[test]
fn unobservable_sites_detect_nothing() {
    let net = generate::random_logic(10, 400, 2, 99);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(10, 64, 99);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let plan = CampaignPlan::build(c, &faults);
    let words = pack_patterns(&patterns);
    let golden = sim.golden(&words);
    let mut scratch = FaultScratch::new(c.len());
    scratch.load_golden(&golden);
    let is_po = {
        let mut v = vec![false; c.len()];
        for &g in c.po_drivers() {
            v[g as usize] = true;
        }
        v
    };
    let mut unobservable = 0;
    for &fault in &faults {
        let root = fault.site().gate().index();
        let cone = comb_fanout_cone(&net, &[fault.site().gate()]);
        let reachable = is_po[root] || cone.iter().any(|g| is_po[g.index()]);
        assert_eq!(plan.observable(root), reachable);
        if !reachable {
            unobservable += 1;
            assert_eq!(plan.detect_packed(c, &golden, &mut scratch, fault), Ok(0));
        }
    }
    assert!(
        unobservable > 0,
        "workload should exercise the pruning path"
    );
}

/// The E12 workload (16-input, 2000-gate netlist): collapsing must save
/// at least 40 % of the fault walks while the expanded coverage — the
/// whole `first_detection` vector, not just the total — stays identical
/// to the uncollapsed campaign.
#[test]
fn collapsed_walks_at_least_forty_percent_fewer_on_e12() {
    let net = generate::random_logic(16, 2000, 4, 12);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(16, 128, 12);
    let sim = FaultSimulator::new(&net);
    let campaign = Campaign::new(0, 4);
    let base = sim.campaign_packed(&faults, &patterns, &campaign, PackedOptions::wide(4));
    let cu = collapse(&net, &faults);
    let run = sim.campaign_packed(
        &faults,
        &patterns,
        &campaign,
        PackedOptions::wide(4).with_collapsed(&cu),
    );
    assert_eq!(run.report.first_detection(), base.report.first_detection());
    assert_eq!(run.report.coverage(), base.report.coverage());
    assert_eq!(run.stats.injections, faults.len());
    // The walk list is the observable representatives: equivalence
    // classes plus the PO-reachability sweep (unobservable classes share
    // the all-zero mask, so they expand for free too).
    assert!(run.stats.faults_walked <= cu.representatives().len());
    assert!(
        run.stats.collapse_ratio() <= 0.6,
        "collapse ratio {:.3} should save >= 40 % of walks",
        run.stats.collapse_ratio()
    );
    assert_eq!(
        run.stats.faults_saved(),
        faults.len() - run.stats.faults_walked
    );
}

/// Unsupported widths fail loudly instead of silently falling back.
#[test]
#[should_panic(expected = "unsupported lane width")]
fn unsupported_width_panics() {
    let net = generate::c17();
    let sim = FaultSimulator::new(&net);
    sim.campaign_packed(
        &[],
        &[vec![false; 5]],
        &Campaign::serial(),
        PackedOptions::wide(3),
    );
}
