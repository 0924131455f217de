//! The gate semantics of the oracle and of the engine, pinned to each
//! other exhaustively.
//!
//! `logic.rs` (`eval_gate`, `eval_gate_bool`, `eval_gate_word`) is the
//! oracle's gate table: the reference fault simulator evaluates through
//! it. The engine has one table of its own, `sweep.rs`: the opcodes and
//! the generic `fold` behind `CompiledNetlist::eval`, `eval_pin_forced`
//! and the level runs of every full evaluation. The two stay separate on
//! purpose, so oracle and engine never share a bug. These tests compare
//! them on every combinational kind, every legal arity up to 4 and every
//! input assignment, in every value domain, on one arena per shape,
//! forcing each pin in turn to 0, to 1 and to its complement.

use rescue_netlist::{format, GateKind, Netlist};
use rescue_sim::comb::CombSimulator;
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::logic::{eval_gate, eval_gate_bool, eval_gate_word};
use rescue_sim::sweep::{fold, GateValue};
use rescue_sim::wide::{PackedWord, SimWord};
use rescue_sim::Logic;
use std::fmt::Debug;

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

/// One gate of `kind` reading inputs `g0..g{arity-1}`; the gate is
/// `g{arity}`.
fn one_gate(kind: GateKind, arity: usize) -> Netlist {
    let mut text = String::from("circuit one_gate\n");
    for i in 0..arity {
        text += &format!("input i{i} g{i}\n");
    }
    text += &format!("g{arity} = {}", kind.mnemonic());
    for i in 0..arity {
        text += &format!(" g{i}");
    }
    text += &format!("\noutput y g{arity}\n");
    format::from_text(&text).unwrap()
}

/// One value domain under test: its input assignments per arity, the
/// oracle's answer and the engine's full evaluation of a design.
struct Domain<V> {
    assignments: fn(usize) -> Vec<Vec<V>>,
    oracle: fn(GateKind, &[V]) -> V,
    full: fn(&Netlist, &CompiledNetlist, &[V]) -> Vec<V>,
}

/// Checks every engine entry point against the oracle: the generic
/// fold, single-gate `eval`, the full evaluation (level runs) and
/// `eval_pin_forced` with each pin forced to 0, 1 and its complement.
fn domain_matches<V: GateValue + PartialEq + Debug>(d: Domain<V>) {
    for (kind, arity) in shapes() {
        let net = one_gate(kind, arity);
        let c = CompiledNetlist::new(&net);
        for ins in (d.assignments)(arity) {
            let want = (d.oracle)(kind, &ins);
            let at = format!("{kind}/{arity} {ins:?}");
            assert_eq!(fold(kind, ins.iter().copied()), want, "{at}: fold");
            let mut values = ins.clone();
            values.push(!want);
            assert_eq!(c.eval(arity, &values), want, "{at}: eval");
            assert_eq!((d.full)(&net, &c, &ins)[arity], want, "{at}: level runs");
            for pin in 0..arity {
                for v in [V::ZERO, V::ONES, !ins[pin]] {
                    let mut forced = ins.clone();
                    forced[pin] = v;
                    assert_eq!(
                        c.eval_pin_forced(arity, &values, pin, v),
                        (d.oracle)(kind, &forced),
                        "{at}, pin {pin} forced to {v:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn bool_domain_matches_the_oracle() {
    domain_matches(Domain {
        assignments: |arity| {
            (0..1usize << arity)
                .map(|j| (0..arity).map(|i| j >> i & 1 == 1).collect())
                .collect()
        },
        oracle: eval_gate_bool,
        full: |_, c, ins| {
            let mut values = Vec::new();
            c.eval_bools_into(ins, &[], &mut values).unwrap();
            values
        },
    });
}

#[test]
fn logic_domain_matches_the_oracle() {
    const VALUES: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
    domain_matches(Domain {
        assignments: |arity| {
            (0..1usize << (2 * arity))
                .map(|j| (0..arity).map(|i| VALUES[j >> (2 * i) & 3]).collect())
                .collect()
        },
        oracle: eval_gate,
        full: |net, _, ins| CombSimulator::new(net).run(ins).unwrap(),
    });
}

/// Input words of a gate with `arity` pins: lane `l` carries input
/// assignment `(l + l / 64) mod 2^arity`, so every assignment sits in
/// every 64-lane limb, rotated from one limb to the next.
fn input_words<Wd: SimWord>(arity: usize) -> Vec<Vec<Wd>> {
    let words = (0..arity)
        .map(|i| {
            let mut w = Wd::ZERO;
            for l in 0..Wd::LANES {
                if ((l + l / 64) % (1 << arity)) >> i & 1 == 1 {
                    w.set_lane(l);
                }
            }
            w
        })
        .collect();
    vec![words]
}

fn full_words<Wd: SimWord>(_: &Netlist, c: &CompiledNetlist, ins: &[Wd]) -> Vec<Wd> {
    let mut values = Vec::new();
    c.eval_words_into(ins, &mut values).unwrap();
    values
}

#[test]
fn u64_domain_matches_the_oracle() {
    domain_matches(Domain {
        assignments: input_words::<u64>,
        oracle: eval_gate_word,
        full: full_words::<u64>,
    });
}

#[test]
fn packed_word_domain_matches_the_oracle() {
    // The oracle has no wide-word table: it answers lane by lane.
    domain_matches(Domain {
        assignments: input_words::<PackedWord<4>>,
        oracle: |kind, words| {
            let mut out = PackedWord::<4>::ZERO;
            for l in 0..PackedWord::<4>::LANES {
                let ins: Vec<bool> = words.iter().map(|w| w.lane(l)).collect();
                if eval_gate_bool(kind, &ins) {
                    out.set_lane(l);
                }
            }
            out
        },
        full: full_words::<PackedWord<4>>,
    });
}
