//! The gate semantics of the oracle and of the engine, pinned to each
//! other exhaustively.
//!
//! `logic.rs` (`eval_gate`, `eval_gate_bool`, `eval_gate_word`) is the
//! oracle's gate table: the reference fault simulator evaluates through
//! it. The engine has tables of its own: the `compiled.rs` folds
//! (`eval_bool_from`, `eval_logic_from`, `eval_word_from`) and the sweep
//! descriptors and level runs behind `CompiledNetlist::eval_word`,
//! `eval_word_pin_forced` and `eval_words_into`. The two stay separate
//! on purpose, so oracle and engine never share a bug. These tests
//! compare them on every combinational kind, every legal arity up to 4
//! and every input assignment, in every value domain, on a one-gate
//! arena with the sweep descriptors on and off, forcing each pin in
//! turn.

use rescue_netlist::{format, GateKind};
use rescue_sim::compiled::{eval_bool_from, eval_logic_from, eval_word_from, CompiledNetlist};
use rescue_sim::logic::{eval_gate, eval_gate_bool, eval_gate_word};
use rescue_sim::wide::{PackedWord, SimWord};
use rescue_sim::Logic;

/// Every combinational kind with each legal arity up to 4.
fn shapes() -> Vec<(GateKind, usize)> {
    GateKind::all()
        .iter()
        .filter(|k| !matches!(k, GateKind::Input | GateKind::Dff))
        .flat_map(|&k| {
            let arities = match k.fixed_arity() {
                Some(a) => a..=a,
                None => 2..=4,
            };
            arities.map(move |a| (k, a))
        })
        .collect()
}

/// One gate of `kind` reading inputs `g0..g{arity-1}`, compiled with the
/// sweep descriptors on (the ids ascend with level) and off. The gate
/// is `g{arity}`.
fn arenas(kind: GateKind, arity: usize) -> [CompiledNetlist; 2] {
    let mut text = String::from("circuit one_gate\n");
    for i in 0..arity {
        text += &format!("input i{i} g{i}\n");
    }
    text += &format!("g{arity} = {}", kind.mnemonic());
    for i in 0..arity {
        text += &format!(" g{i}");
    }
    text += &format!("\noutput y g{arity}\n");
    let swept = CompiledNetlist::new(&format::from_text(&text).unwrap());
    assert!(swept.sweep_plan().is_some(), "{kind}/{arity}: sweep is on");
    let mut plain = swept.clone();
    plain.set_sweep(false);
    [swept, plain]
}

#[test]
fn bool_domain_matches_the_oracle() {
    for (kind, arity) in shapes() {
        for c in arenas(kind, arity) {
            for j in 0..1usize << arity {
                let ins: Vec<bool> = (0..arity).map(|i| j >> i & 1 == 1).collect();
                let want = eval_gate_bool(kind, &ins);
                let at = format!("{kind}/{arity} {ins:?}");
                assert_eq!(eval_bool_from(kind, ins.iter().copied()), want, "{at}");
                let mut values = ins.clone();
                values.push(!want);
                assert_eq!(c.eval_bool(arity, &values), want, "{at}");
                for pin in 0..arity {
                    for v in [false, true] {
                        let mut forced = ins.clone();
                        forced[pin] = v;
                        assert_eq!(
                            c.eval_bool_pin_forced(arity, &values, pin, v),
                            eval_gate_bool(kind, &forced),
                            "{at}, pin {pin} forced to {v}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn logic_domain_matches_the_oracle() {
    const VALUES: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
    for (kind, arity) in shapes() {
        for c in arenas(kind, arity) {
            for j in 0..1usize << (2 * arity) {
                let ins: Vec<Logic> = (0..arity).map(|i| VALUES[j >> (2 * i) & 3]).collect();
                let want = eval_gate(kind, &ins);
                let at = format!("{kind}/{arity} {ins:?}");
                assert_eq!(eval_logic_from(kind, ins.iter().copied()), want, "{at}");
                let mut values = ins.clone();
                values.push(Logic::X);
                assert_eq!(c.eval_logic(arity, &values), want, "{at}");
            }
        }
    }
}

/// Input words of a gate with `arity` pins: lane `l` carries input
/// assignment `(l + l / 64) mod 2^arity`, so every assignment sits in
/// every 64-lane limb, rotated from one limb to the next.
fn input_words<Wd: SimWord>(arity: usize) -> Vec<Wd> {
    (0..arity)
        .map(|i| {
            let mut w = Wd::ZERO;
            for l in 0..Wd::LANES {
                if ((l + l / 64) % (1 << arity)) >> i & 1 == 1 {
                    w.set_lane(l);
                }
            }
            w
        })
        .collect()
}

/// Checks every word-domain entry point of the engine against `oracle`,
/// unforced and with each pin forced to all-zero, all-one and its own
/// complement.
fn word_domain_matches<Wd: SimWord>(oracle: impl Fn(GateKind, &[Wd]) -> Wd) {
    for (kind, arity) in shapes() {
        let words = input_words::<Wd>(arity);
        let want = oracle(kind, &words);
        assert_eq!(
            eval_word_from(kind, words.iter().copied()),
            want,
            "{kind}/{arity}"
        );
        for c in arenas(kind, arity) {
            let at = format!("{kind}/{arity}, sweep {}", c.sweep_plan().is_some());
            let mut values = words.clone();
            values.push(!want);
            assert_eq!(c.eval_word(arity, &values), want, "{at}");
            let mut full = Vec::new();
            c.eval_words_into(&words, None, &mut full).unwrap();
            assert_eq!(full[arity], want, "{at}: full evaluation");
            for pin in 0..arity {
                for word in [Wd::ZERO, Wd::ONES, !words[pin]] {
                    let mut forced = words.clone();
                    forced[pin] = word;
                    assert_eq!(
                        c.eval_word_pin_forced(arity, &values, pin, word),
                        oracle(kind, &forced),
                        "{at}, pin {pin} forced"
                    );
                }
            }
        }
    }
}

#[test]
fn u64_domain_matches_the_oracle() {
    word_domain_matches::<u64>(eval_gate_word);
}

#[test]
fn packed_word_domain_matches_the_oracle() {
    // The oracle has no wide-word table: it answers lane by lane.
    word_domain_matches::<PackedWord<4>>(|kind, words| {
        let mut out = PackedWord::ZERO;
        for l in 0..PackedWord::<4>::LANES {
            let ins: Vec<bool> = words.iter().map(|w| w.lane(l)).collect();
            if eval_gate_bool(kind, &ins) {
                out.set_lane(l);
            }
        }
        out
    });
}
