//! Property tests pinning the two execution-path equivalences of the
//! million-gate campaign engine:
//!
//! * the gate table's **level runs** evaluate every gate byte-for-byte
//!   as the oracle's gate table (`logic.rs`) does when applied gate by
//!   gate in `order`, for every supported lane width (`W ∈ {1, 2, 4,
//!   8}`), including ragged final chunks, on levelized and original-id
//!   arenas alike; so does the pin-forced single-gate kernel the cone
//!   walks and CPT chain ascent dispatch through;
//! * **`DropScope::Global`** (cross-worker fault dropping over the
//!   shared detected bitmap) reports exactly the masks-mode detected
//!   *set* for every schedule, worker count and engine family — only
//!   first-detection indices may differ, never membership.

use proptest::prelude::*;
use rescue_campaign::{Campaign, Schedule};
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::{generate, renumber, GateKind, Netlist};
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

/// Detected-set fingerprint of a campaign run: one bool per fault.
fn detected_set(first: &[Option<usize>]) -> Vec<bool> {
    first.iter().map(|d| d.is_some()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Level runs ≡ `logic.rs` gate by gate in `order`, byte for
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

    /// (b) `DropScope::Global` detected set ≡ masks-mode detected set
    /// across schedules, worker counts and both engine families.
    #[test]
    fn global_drop_set_matches_masks_mode(seed in 1u64..300, tracing in any::<bool>()) {
        let net: Netlist = generate::random_logic(6, 90, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 130, seed); // 3 chunks, ragged tail
        let sim = FaultSimulator::new(&net);
        let base_opts = if tracing {
            PackedOptions::default().traced()
        } else {
            PackedOptions::default()
        };
        // Masks mode (bit-identical reference): serial unit-scope run.
        let masks = sim.campaign_packed(&faults, &patterns, &Campaign::serial(), base_opts);
        let want = detected_set(masks.report.first_detection());
        for workers in [1usize, 2, 4] {
            for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 3 }] {
                let campaign = Campaign::new(7, workers).with_schedule(schedule);
                let global =
                    sim.campaign_packed(&faults, &patterns, &campaign, base_opts.global_drop());
                let got = detected_set(global.report.first_detection());
                prop_assert_eq!(
                    &got, &want,
                    "workers={} schedule={:?} tracing={}", workers, schedule, tracing
                );
                prop_assert_eq!(
                    global.report.detected_count(),
                    masks.report.detected_count()
                );
            }
        }
    }

    /// Global scope never invents or loses detections even at width 4
    /// with collapsing on — the expansion map composes with the shared
    /// bitmap exactly as with unit scope.
    #[test]
    fn global_drop_composes_with_collapse_and_width(seed in 1u64..150) {
        let net: Netlist = generate::random_logic(6, 70, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 300, seed); // ragged at W=4
        let sim = FaultSimulator::new(&net);
        let collapsed = rescue_faults::collapse::collapse(&net, &faults);
        let base = PackedOptions::wide(4).with_collapsed(&collapsed);
        let masks = sim.campaign_packed(&faults, &patterns, &Campaign::serial(), base);
        let global = sim.campaign_packed(
            &faults,
            &patterns,
            &Campaign::new(3, 4),
            base.global_drop(),
        );
        let want = detected_set(masks.report.first_detection());
        let got = detected_set(global.report.first_detection());
        prop_assert_eq!(got, want);
    }
}
