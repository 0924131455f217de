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
//! feedback, at W = 1 and W = 4; chunk B is ragged.

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

/// Builds a chunk of `patterns` and assembles the oracle's masks from
/// its 64-pattern slices, lane by lane.
fn chunk<Wd: SimWord>(
    net: &Netlist,
    c: &CompiledNetlist,
    faults: &[Fault],
    groups: [&[u32]; 2],
    patterns: &[Vec<bool>],
) -> Chunk<Wd> {
    let oracle = ReferenceFaultSimulator::new(net);
    let mut golden = Vec::new();
    c.eval_words_into(&pack_patterns_wide::<Wd>(patterns), &mut golden)
        .unwrap();
    let mut want = vec![(Wd::ZERO, Wd::ZERO, Wd::ZERO); faults.len()];
    for (si, sub) in patterns.chunks(64).enumerate() {
        let words = pack_patterns_wide::<u64>(sub);
        let sub_golden = oracle.golden(net, &words);
        for (fi, &fault) in faults.iter().enumerate() {
            let faulty = oracle.with_stuck(net, &words, fault);
            let diff = |gates: &[u32]| {
                gates.iter().fold(0u64, |m, &g| {
                    m | (sub_golden[g as usize] ^ faulty[g as usize])
                })
            };
            let (po, a, b) = &mut want[fi];
            for (word, mask) in [
                (po, diff(c.po_drivers())),
                (a, diff(groups[0])),
                (b, diff(groups[1])),
            ] {
                for bit in 0..sub.len() {
                    if mask >> bit & 1 == 1 {
                        word.set_lane(si * 64 + bit);
                    }
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

/// Every engine on `net` at lane width `Wd`.
fn reuse_matches<Wd: SimWord>(net: &Netlist, seed: u64) -> Result<(), TestCaseError> {
    let c = CompiledNetlist::new(net);
    let faults = universe::stuck_at_universe(net);
    let pos = c.po_drivers();
    let group_a: Vec<u32> = pos.iter().copied().step_by(2).collect();
    let group_b: Vec<u32> = pos.iter().copied().skip(1).step_by(2).collect();
    let n_inputs = net.primary_inputs().len();
    let chunks: Vec<Chunk<Wd>> = [Wd::LANES, Wd::LANES - 23]
        .into_iter()
        .enumerate()
        .map(|(ci, n)| {
            let patterns = random_patterns(n_inputs, n, seed.wrapping_mul(31) + ci as u64);
            chunk(net, &c, &faults, [&group_a, &group_b], &patterns)
        })
        .collect();
    let walk = || Walk {
        c: &c,
        plan: CampaignPlan::build(&c, &faults),
    };
    check("walk", &walk(), &chunks, &faults, false, seed)?;
    let observed = Observed {
        walk: walk(),
        groups: ObserverGroups::new(&c, &group_a, &group_b),
    };
    check("observed", &observed, &chunks, &faults, true, seed)?;
    let traced = Traced {
        c: &c,
        plan: TracePlan::build(&c, &faults),
    };
    check("traced", &traced, &chunks, &faults, false, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `random_logic` designs at W = 1 and W = 4.
    #[test]
    fn reused_scratch_matches_fresh_and_oracle_random_logic(seed in 1u64..1000) {
        let net = generate::random_logic(7, 80, 4, seed);
        reuse_matches::<u64>(&net, seed)?;
        reuse_matches::<PackedWord<4>>(&net, seed)?;
    }

    /// Sequential designs with DFF feedback at W = 1 and W = 4.
    #[test]
    fn reused_scratch_matches_fresh_and_oracle_sequential(seed in 1u64..1000) {
        let net = random_sequential(seed);
        reuse_matches::<u64>(&net, seed)?;
        reuse_matches::<PackedWord<4>>(&net, seed)?;
    }
}
