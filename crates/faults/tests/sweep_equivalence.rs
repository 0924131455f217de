//! Property test pinning the execution-path equivalence of the
//! million-gate campaign engine: the gate table's **level runs**
//! evaluate every gate byte-for-byte as the oracle's gate table
//! (`logic.rs`) does when applied gate by gate in `order`, for every
//! supported lane width (`W ∈ {1, 2, 4, 8}`), including ragged final
//! chunks, on levelized and original-id arenas alike; so does the
//! pin-forced single-gate kernel the cone walks and CPT chain ascent
//! dispatch through.

use proptest::prelude::*;
use rescue_netlist::{generate, renumber, GateKind};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::logic::eval_gate_word;
use rescue_sim::wide::{pack_patterns_wide, PackedWord, SimWord};

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// A packed word as its 64-lane limbs: the oracle's `eval_gate_word`
/// answers one limb at a time.
trait Limbs: SimWord {
    fn limb(self, i: usize) -> u64;
    fn from_limbs(limb: impl FnMut(usize) -> u64) -> Self;
}

impl Limbs for u64 {
    fn limb(self, _: usize) -> u64 {
        self
    }
    fn from_limbs(mut limb: impl FnMut(usize) -> u64) -> Self {
        limb(0)
    }
}

impl<const W: usize> Limbs for PackedWord<W> {
    fn limb(self, i: usize) -> u64 {
        self.0[i]
    }
    fn from_limbs(limb: impl FnMut(usize) -> u64) -> Self {
        PackedWord(std::array::from_fn(limb))
    }
}

/// The oracle's value of a `kind` gate reading `ins`, limb by limb.
fn oracle<Wd: Limbs>(kind: GateKind, ins: &[Wd]) -> Wd {
    Wd::from_limbs(|i| eval_gate_word(kind, &ins.iter().map(|w| w.limb(i)).collect::<Vec<_>>()))
}

/// Asserts the level runs equal `logic.rs` applied gate by gate in
/// `order` over every chunk of `patterns` (full value arena, byte for
/// byte), plus the pin-forced kernel on every pin of every gate of the
/// first chunk, forced to the complement of its driver.
fn assert_runs_match_oracle<Wd: Limbs>(c: &CompiledNetlist, patterns: &[Vec<bool>]) {
    let source = |g: usize| matches!(c.kind(g), GateKind::Input | GateKind::Dff);
    for (ci, chunk) in patterns.chunks(Wd::LANES).enumerate() {
        let words = pack_patterns_wide::<Wd>(chunk);
        let mut want = vec![Wd::ZERO; c.len()];
        for (&pi, &w) in c.primary_inputs().iter().zip(&words) {
            want[pi as usize] = w;
        }
        for g in c
            .order()
            .iter()
            .map(|&g| g as usize)
            .filter(|&g| !source(g))
        {
            let ins: Vec<Wd> = c.pins_of(g).iter().map(|&p| want[p as usize]).collect();
            want[g] = oracle(c.kind(g), &ins);
        }
        let mut runs = Vec::new();
        c.eval_words_into(&words, &mut runs).unwrap();
        assert_eq!(
            runs,
            want,
            "chunk {ci} ({} patterns, {} lanes)",
            chunk.len(),
            Wd::LANES
        );
        if ci == 0 {
            for g in (0..c.len()).filter(|&g| !source(g)) {
                let mut ins: Vec<Wd> = c.pins_of(g).iter().map(|&p| want[p as usize]).collect();
                for pin in 0..ins.len() {
                    let forced = !ins[pin];
                    let kept = std::mem::replace(&mut ins[pin], forced);
                    assert_eq!(
                        c.eval_pin_forced(g, &want, pin, forced),
                        oracle(c.kind(g), &ins),
                        "gate {g} pin {pin}"
                    );
                    ins[pin] = kept;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Level runs ≡ `logic.rs` gate by gate in `order`, byte for
    /// byte, for W ∈ {1, 2, 4, 8} including ragged tails, on the
    /// original and the level-ordered numbering.
    #[test]
    fn sweep_eval_matches_gate_order_all_widths(seed in 1u64..400, ragged in 1usize..63) {
        let net = generate::random_logic(8, 220, 4, seed);
        let (lev, _) = renumber::levelized(&net);
        for c in [CompiledNetlist::new(&net), CompiledNetlist::new(&lev)] {
            // One full chunk plus a ragged tail at every width: 64·W + r
            // patterns exercise both the steady-state and tail kernels.
            let pats = |lanes: usize| random_patterns(8, lanes + ragged, seed);
            assert_runs_match_oracle::<u64>(&c, &pats(64));
            assert_runs_match_oracle::<PackedWord<2>>(&c, &pats(128));
            assert_runs_match_oracle::<PackedWord<4>>(&c, &pats(256));
            assert_runs_match_oracle::<PackedWord<8>>(&c, &pats(512));
        }
    }
}
