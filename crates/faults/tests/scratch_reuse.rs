//! One scratch reused across chunks gives the masks of a fresh scratch
//! per (chunk, fault) and of the full-resimulation oracle.
//!
//! The packed walk keeps no private copy of a chunk's golden values: it
//! stamps the root and every gate it evaluates with its walk id, writes
//! every evaluated value to its scratch, and reads an operand from the
//! scratch only when the operand carries the current stamp, from the
//! shared golden chunk otherwise. A reused scratch therefore carries stale
//! values and stamps from earlier walks and earlier chunks, plus the
//! per-chunk caches (the walk's one-entry observability cache, the trace
//! memo). None of it may reach a mask.
//!
//! Each case drives one scratch per engine — the walk through
//! [`CampaignPlan::detect_packed`] and [`CampaignPlan::detect_observed`],
//! the trace through [`TracePlan::detect_traced`] — over the chunk
//! sequence A, B, A, A (the same tag twice), B untagged (`load_golden`),
//! A, A untagged, B, with the faults in a random order on every visit.
//! Designs are `random_logic` and random sequential designs with DFF
//! feedback, at W ∈ {1, 2, 4, 8}; chunk B is ragged. The universes hold
//! output and pin faults, and every fault is graded on every visit, so
//! no mask hides behind fault dropping.

use proptest::prelude::*;
use rescue_faults::engine::{CampaignPlan, ObserverGroups, WideScratch};
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::trace::{TracePlan, TraceScratch};
use rescue_faults::{universe, Fault};
use rescue_netlist::{generate, GateId, Netlist, NetlistBuilder};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::{pack_patterns_wide, PackedWord, SimWord};

/// A deterministic xorshift stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1) ^ 0x5851_f42d_4c95_7f2d;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = xorshift(seed);
    (0..count)
        .map(|_| (0..n_inputs).map(|_| rng() & 1 == 1).collect())
        .collect()
}

/// A random design with DFF feedback: two-input gates over the inputs,
/// the flip-flop outputs and earlier gates, each flip-flop fed back from
/// a random gate, and one flip-flop exported next to the last gates.
fn random_sequential(seed: u64) -> Netlist {
    let mut rng = xorshift(seed ^ 0x00de_c0de);
    let mut b = NetlistBuilder::new(format!("seq_{seed}"));
    let mut sigs: Vec<GateId> = b.inputs("i", 5);
    let dffs: Vec<GateId> = (0..4).map(|_| b.dff_floating()).collect();
    sigs.extend(&dffs);
    for _ in 0..70 {
        let x = sigs[rng() as usize % sigs.len()];
        let y = sigs[rng() as usize % sigs.len()];
        let g = match rng() % 6 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            _ => b.xnor(x, y),
        };
        sigs.push(g);
    }
    for &q in &dffs {
        let d = sigs[9 + rng() as usize % 70];
        b.connect_dff(q, d);
    }
    for (k, &g) in sigs[sigs.len() - 4..].iter().enumerate() {
        b.output(format!("o{k}"), g);
    }
    b.output("q0", dffs[0]);
    b.finish()
}

/// One load of a scratch's chunk sequence: a tagged `load_chunk` or an
/// untagged `load_golden` of chunk 0 (A) or 1 (B).
#[derive(Debug, Clone, Copy)]
enum Load {
    Tagged(usize),
    Untagged(usize),
}

const SEQUENCE: [Load; 8] = [
    Load::Tagged(0),
    Load::Tagged(1),
    Load::Tagged(0),
    Load::Tagged(0),
    Load::Untagged(1),
    Load::Tagged(0),
    Load::Untagged(0),
    Load::Tagged(1),
];

/// Per fault of one chunk: the oracle's masks at all outputs and at the
/// two observer groups.
type Want<Wd> = (Wd, Wd, Wd);

/// One chunk: its golden words, live lanes and per-fault oracle masks.
struct Chunk<Wd> {
    golden: Vec<Wd>,
    live: Wd,
    want: Vec<Want<Wd>>,
}

/// The oracle's masks of one pattern list, per 64-pattern slice and per
/// fault: at all outputs and at the two observer groups.
type Slices = Vec<Vec<(u64, u64, u64)>>;

fn oracle_slices(
    net: &Netlist,
    c: &CompiledNetlist,
    faults: &[Fault],
    groups: [&[u32]; 2],
    patterns: &[Vec<bool>],
) -> Slices {
    let oracle = ReferenceFaultSimulator::new(net);
    patterns
        .chunks(64)
        .map(|sub| {
            let words = pack_patterns_wide::<u64>(sub);
            let golden = oracle.golden(net, &words);
            faults
                .iter()
                .map(|&fault| {
                    let faulty = oracle.with_stuck(net, &words, fault);
                    let diff = |gates: &[u32]| {
                        gates
                            .iter()
                            .fold(0u64, |m, &g| m | (golden[g as usize] ^ faulty[g as usize]))
                    };
                    (diff(c.po_drivers()), diff(groups[0]), diff(groups[1]))
                })
                .collect()
        })
        .collect()
}

/// Builds a chunk of `patterns` and assembles the oracle's masks lane by
/// lane from `slices`, the slices of a list `patterns` is a prefix of:
/// lanes are independent, so a slice's low lanes are its prefix's.
fn chunk<Wd: SimWord>(c: &CompiledNetlist, patterns: &[Vec<bool>], slices: &Slices) -> Chunk<Wd> {
    let mut golden = Vec::new();
    c.eval_words_into(&pack_patterns_wide::<Wd>(patterns), &mut golden)
        .unwrap();
    let mut want = vec![(Wd::ZERO, Wd::ZERO, Wd::ZERO); slices[0].len()];
    for lane in 0..patterns.len() {
        let (slice, bit) = (&slices[lane / 64], lane % 64);
        for ((po, a, b), &masks) in want.iter_mut().zip(slice) {
            for (word, mask) in [(po, masks.0), (a, masks.1), (b, masks.2)] {
                if mask >> bit & 1 == 1 {
                    word.set_lane(lane);
                }
            }
        }
    }
    Chunk {
        golden,
        live: Wd::live_mask(patterns.len()),
        want,
    }
}

/// A detection engine under test: its reused scratch type, how it loads
/// a chunk and how it grades one fault into `(po, group a, group b)`
/// masks (the walk and the trace report only the first).
trait Engine<Wd: SimWord> {
    type Scratch;
    fn scratch(&self) -> Self::Scratch;
    fn load(&self, scratch: &mut Self::Scratch, load: Load, golden: &[Wd]);
    fn detect(&self, scratch: &mut Self::Scratch, golden: &[Wd], fault: Fault) -> Want<Wd>;
}

struct Walk<'a> {
    c: &'a CompiledNetlist,
    plan: CampaignPlan,
}

struct Observed<'a> {
    walk: Walk<'a>,
    groups: ObserverGroups,
}

struct Traced<'a> {
    c: &'a CompiledNetlist,
    plan: TracePlan,
}

fn load_walk<Wd: SimWord>(scratch: &mut WideScratch<Wd>, load: Load, golden: &[Wd]) {
    match load {
        Load::Tagged(ci) => scratch.load_chunk(ci as u32, golden),
        Load::Untagged(_) => scratch.load_golden(golden),
    }
}

impl<Wd: SimWord> Engine<Wd> for Walk<'_> {
    type Scratch = WideScratch<Wd>;
    fn scratch(&self) -> WideScratch<Wd> {
        WideScratch::new(self.c.len())
    }
    fn load(&self, scratch: &mut WideScratch<Wd>, load: Load, golden: &[Wd]) {
        load_walk(scratch, load, golden);
    }
    fn detect(&self, scratch: &mut WideScratch<Wd>, golden: &[Wd], fault: Fault) -> Want<Wd> {
        let m = self.plan.detect_packed(self.c, golden, scratch, fault);
        (m.unwrap(), Wd::ZERO, Wd::ZERO)
    }
}

impl<Wd: SimWord> Engine<Wd> for Observed<'_> {
    type Scratch = WideScratch<Wd>;
    fn scratch(&self) -> WideScratch<Wd> {
        WideScratch::new(self.walk.c.len())
    }
    fn load(&self, scratch: &mut WideScratch<Wd>, load: Load, golden: &[Wd]) {
        load_walk(scratch, load, golden);
    }
    fn detect(&self, scratch: &mut WideScratch<Wd>, golden: &[Wd], fault: Fault) -> Want<Wd> {
        let (a, b) = self
            .walk
            .plan
            .detect_observed(self.walk.c, golden, scratch, fault, &self.groups)
            .unwrap();
        (a | b, a, b)
    }
}

impl<Wd: SimWord> Engine<Wd> for Traced<'_> {
    type Scratch = TraceScratch<Wd>;
    fn scratch(&self) -> TraceScratch<Wd> {
        TraceScratch::new(self.c.len())
    }
    fn load(&self, scratch: &mut TraceScratch<Wd>, load: Load, golden: &[Wd]) {
        match load {
            Load::Tagged(ci) => scratch.load_chunk(ci as u32, golden),
            Load::Untagged(_) => scratch.load_golden(golden),
        }
    }
    fn detect(&self, scratch: &mut TraceScratch<Wd>, golden: &[Wd], fault: Fault) -> Want<Wd> {
        let m = self.plan.detect_traced(self.c, golden, scratch, fault);
        (m.unwrap(), Wd::ZERO, Wd::ZERO)
    }
}

/// Runs `engine` with one reused scratch over [`SEQUENCE`], the faults
/// in a fresh random order on every visit, and checks every mask
/// against a fresh scratch and against the oracle. `groups` says
/// whether the engine reports the two observer-group masks.
fn check<Wd: SimWord, E: Engine<Wd>>(
    name: &str,
    engine: &E,
    chunks: &[Chunk<Wd>],
    faults: &[Fault],
    groups: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = xorshift(seed ^ 0x0bad_5eed);
    let mut order: Vec<usize> = (0..faults.len()).collect();
    let mut reused = engine.scratch();
    for (step, &load) in SEQUENCE.iter().enumerate() {
        let (Load::Tagged(ci) | Load::Untagged(ci)) = load;
        let chunk = &chunks[ci];
        engine.load(&mut reused, load, &chunk.golden);
        for i in (1..order.len()).rev() {
            order.swap(i, rng() as usize % (i + 1));
        }
        let live = |(po, a, b): Want<Wd>| {
            let m = chunk.live;
            if groups {
                (po & m, a & m, b & m)
            } else {
                (po & m, Wd::ZERO, Wd::ZERO)
            }
        };
        for &fi in &order {
            let fault = faults[fi];
            let got = live(engine.detect(&mut reused, &chunk.golden, fault));
            let mut fresh_scratch = engine.scratch();
            engine.load(&mut fresh_scratch, load, &chunk.golden);
            let fresh = live(engine.detect(&mut fresh_scratch, &chunk.golden, fault));
            let want = live(chunk.want[fi]);
            prop_assert_eq!(
                got,
                fresh,
                "{} step {} ({:?}): {} vs fresh",
                name,
                step,
                load,
                fault
            );
            prop_assert_eq!(
                got,
                want,
                "{} step {} ({:?}): {} vs oracle",
                name,
                step,
                load,
                fault
            );
        }
    }
    Ok(())
}

/// What every width shares on one design: its arena, universe,
/// observer groups, and the two pattern lists of the widest chunks with
/// their oracle slices.
struct Setup {
    c: CompiledNetlist,
    faults: Vec<Fault>,
    groups: [Vec<u32>; 2],
    lists: [Vec<Vec<bool>>; 2],
    slices: [Slices; 2],
}

impl Setup {
    /// Chunk A is `LANES` patterns of the first list, chunk B (ragged)
    /// `LANES - 23` of the second, so every width's chunks are prefixes
    /// of the W = 8 ones and the oracle grades each list once.
    fn new(net: &Netlist, seed: u64) -> Setup {
        let c = CompiledNetlist::new(net);
        let faults = universe::stuck_at_universe(net);
        let pos = c.po_drivers();
        let groups = [
            pos.iter().copied().step_by(2).collect::<Vec<u32>>(),
            pos.iter().copied().skip(1).step_by(2).collect(),
        ];
        let widest = PackedWord::<8>::LANES;
        let lists = [0, 1].map(|ci| {
            random_patterns(
                net.primary_inputs().len(),
                widest - 23 * ci,
                seed.wrapping_mul(31) + ci as u64,
            )
        });
        let slices =
            [0, 1].map(|ci| oracle_slices(net, &c, &faults, [&groups[0], &groups[1]], &lists[ci]));
        Setup {
            c,
            faults,
            groups,
            lists,
            slices,
        }
    }
}

/// Every engine on `setup` at lane width `Wd`.
fn reuse_matches<Wd: SimWord>(setup: &Setup, seed: u64) -> Result<(), TestCaseError> {
    let Setup {
        c,
        faults,
        groups: [group_a, group_b],
        lists,
        slices,
    } = setup;
    let chunks: Vec<Chunk<Wd>> = [Wd::LANES, Wd::LANES - 23]
        .into_iter()
        .enumerate()
        .map(|(ci, n)| chunk(c, &lists[ci][..n], &slices[ci]))
        .collect();
    let walk = || Walk {
        c,
        plan: CampaignPlan::build(c, faults),
    };
    check("walk", &walk(), &chunks, faults, false, seed)?;
    let observed = Observed {
        walk: walk(),
        groups: ObserverGroups::new(c, group_a, group_b),
    };
    check("observed", &observed, &chunks, faults, true, seed)?;
    let traced = Traced {
        c,
        plan: TracePlan::build(c, faults),
    };
    check("traced", &traced, &chunks, faults, false, seed)
}

/// Every engine on `net` at W ∈ {1, 2, 4, 8}.
fn reuse_matches_every_width(net: &Netlist, seed: u64) -> Result<(), TestCaseError> {
    let setup = Setup::new(net, seed);
    reuse_matches::<u64>(&setup, seed)?;
    reuse_matches::<PackedWord<2>>(&setup, seed)?;
    reuse_matches::<PackedWord<4>>(&setup, seed)?;
    reuse_matches::<PackedWord<8>>(&setup, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `random_logic` designs at W ∈ {1, 2, 4, 8}.
    #[test]
    fn reused_scratch_matches_fresh_and_oracle_random_logic(seed in 1u64..1000) {
        reuse_matches_every_width(&generate::random_logic(7, 80, 4, seed), seed)?;
    }

    /// Sequential designs with DFF feedback at W ∈ {1, 2, 4, 8}.
    #[test]
    fn reused_scratch_matches_fresh_and_oracle_sequential(seed in 1u64..1000) {
        reuse_matches_every_width(&random_sequential(seed), seed)?;
    }
}
