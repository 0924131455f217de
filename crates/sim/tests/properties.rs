//! Property-based tests for the simulation engines.

use proptest::prelude::*;
use rescue_netlist::{cone, format, generate, GateId, Netlist, NetlistBuilder};
use rescue_sim::comb::{eval, eval_bool};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::parallel::{pack_patterns, ParallelSimulator};
use rescue_sim::seq::SeqSimulator;
use rescue_sim::timed::{SetPulse, TimedSimulator};
use rescue_sim::Logic;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel-pattern simulation agrees with serial on every gate.
    #[test]
    fn parallel_matches_serial(seed in 1u64..500, pat_seed in 1u64..500) {
        let net = generate::random_logic(7, 50, 3, seed);
        let mut s = pat_seed;
        let patterns: Vec<Vec<bool>> = (0..32)
            .map(|_| {
                (0..7)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        s >> 33 & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let sim = ParallelSimulator::new(&net);
        let words = sim.run(&pack_patterns(&patterns)).unwrap();
        for (p, pat) in patterns.iter().enumerate() {
            let serial = eval_bool(&net, pat).unwrap();
            for id in net.ids() {
                prop_assert_eq!(words[id.index()] >> p & 1 == 1, serial[id.index()]);
            }
        }
    }

    /// Four-valued evaluation with binary inputs matches two-valued.
    #[test]
    fn four_valued_agrees_on_binary(seed in 1u64..500, bits in 0u32..128) {
        let net = generate::random_logic(7, 40, 3, seed);
        let inputs: Vec<bool> = (0..7).map(|i| bits >> i & 1 == 1).collect();
        let linputs: Vec<Logic> = inputs.iter().map(|&b| b.into()).collect();
        let b = eval_bool(&net, &inputs).unwrap();
        let l = eval(&net, &linputs).unwrap();
        for id in net.ids() {
            prop_assert_eq!(l[id.index()].to_bool(), Some(b[id.index()]), "gate {}", id);
        }
    }

    /// X inputs produce a sound abstraction: wherever the 4-valued result
    /// is binary, both completions of the X input agree with it.
    #[test]
    fn x_is_sound_abstraction(seed in 1u64..300, which in 0usize..7) {
        let net = generate::random_logic(7, 30, 2, seed);
        let mut linputs = vec![Logic::One; 7];
        linputs[which] = Logic::X;
        let l = eval(&net, &linputs).unwrap();
        for value in [false, true] {
            let mut binputs = vec![true; 7];
            binputs[which] = value;
            let b = eval_bool(&net, &binputs).unwrap();
            for id in net.ids() {
                if let Some(v) = l[id.index()].to_bool() {
                    prop_assert_eq!(v, b[id.index()], "gate {} under X={}", id, value);
                }
            }
        }
    }

    /// Timed simulation settles to the combinational steady state and a
    /// zero-pulse run never produces transitions.
    #[test]
    fn timed_steady_state(seed in 1u64..300, bits in 0u32..128) {
        let net = generate::random_logic(7, 40, 2, seed);
        let inputs: Vec<bool> = (0..7).map(|i| bits >> i & 1 == 1).collect();
        let sim = TimedSimulator::new(&net);
        let wave = sim.run(&net, &inputs, &[], 50).unwrap();
        prop_assert!(wave.transitions().is_empty());
        let serial = eval_bool(&net, &inputs).unwrap();
        prop_assert_eq!(wave.initial(), &serial[..]);
    }

    /// A SET pulse always ends: the struck gate returns to its steady
    /// value after the forcing window (no permanent corruption).
    #[test]
    fn set_pulse_is_transient(seed in 1u64..200, site in 0usize..30, width in 1u64..6) {
        let net = generate::random_logic(6, 30, 2, seed);
        let gate = rescue_netlist::GateId(6 + site % 30);
        if gate.index() >= net.len() {
            return Ok(());
        }
        let sim = TimedSimulator::new(&net);
        let inputs = vec![false; 6];
        let wave = sim
            .run(&net, &inputs, &[SetPulse::new(gate, 20, width)], 500)
            .unwrap();
        let final_time = 400;
        for id in net.ids() {
            prop_assert_eq!(
                wave.value_at(id, final_time),
                wave.initial()[id.index()],
                "gate {} stuck after the pulse",
                id
            );
        }
    }

    /// Sequential simulation is deterministic and reset really resets.
    #[test]
    fn seq_reset_reproduces(n in 2usize..8, cycles in 1usize..30) {
        let net = generate::lfsr(n, &[n - 1, n / 2]);
        let mut sim = SeqSimulator::new(&net);
        let first: Vec<u64> = (0..cycles)
            .map(|_| {
                sim.step(&[]).unwrap();
                sim.state_value()
            })
            .collect();
        sim.reset();
        let second: Vec<u64> = (0..cycles)
            .map(|_| {
                sim.step(&[]).unwrap();
                sim.state_value()
            })
            .collect();
        prop_assert_eq!(first, second);
    }
}

/// A random sequential design: `n_dffs` flip-flops fed back through
/// `n_gates` random gates of every kind over earlier signals.
fn random_sequential(n_dffs: usize, n_gates: usize, seed: u64) -> Netlist {
    let mut s = seed.max(1);
    let mut below = move |k: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % k as u64) as usize
    };
    let mut b = NetlistBuilder::new("rand_seq");
    let mut sigs = b.inputs("i", 5);
    let dffs: Vec<GateId> = (0..n_dffs).map(|_| b.dff_floating()).collect();
    sigs.extend(&dffs);
    for _ in 0..n_gates {
        let x = sigs[below(sigs.len())];
        let y = sigs[below(sigs.len())];
        let z = sigs[below(sigs.len())];
        let g = match below(6) {
            0 => b.nand(x, y),
            1 => b.or_n(&[x, y, z]),
            2 => b.xor(x, x),
            3 => b.not(x),
            4 => b.buf(y),
            _ => b.mux(x, y, z),
        };
        sigs.push(g);
    }
    for &q in &dffs {
        b.connect_dff(q, sigs[below(sigs.len())]);
    }
    b.output("o", sigs[sigs.len() - 1]);
    b.finish()
}

/// A pin-closed gate set of `c`, ascending: the fan-in closure (DFF `D`
/// pins included) of `picks` seeded random gates, plus every primary
/// input.
fn closed_set(c: &CompiledNetlist, picks: usize, seed: u64) -> Vec<u32> {
    let mut s = seed.max(1);
    let mut kept = vec![false; c.len()];
    let mut stack: Vec<u32> = c.primary_inputs().to_vec();
    for _ in 0..picks {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        stack.push((s >> 33) as u32 % c.len() as u32);
    }
    while let Some(g) = stack.pop() {
        if !std::mem::replace(&mut kept[g as usize], true) {
            stack.extend_from_slice(c.pins_of(g as usize));
        }
    }
    (0..c.len() as u32).filter(|&g| kept[g as usize]).collect()
}

/// Checks that every gate of `keep` evaluates in `sub` exactly as in
/// `c`, at lane width `Wd`, under input words built from `seed`.
fn kept_gates_agree<Wd: rescue_sim::wide::SimWord + std::fmt::Debug>(
    c: &CompiledNetlist,
    sub: &CompiledNetlist,
    keep: &[u32],
    seed: u64,
) {
    let mut s = seed.max(1);
    let patterns: Vec<Vec<bool>> = (0..Wd::LANES)
        .map(|_| {
            (0..c.primary_inputs().len())
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    s >> 33 & 1 == 1
                })
                .collect()
        })
        .collect();
    let words = rescue_sim::wide::pack_patterns_wide::<Wd>(&patterns);
    let (mut full, mut part) = (Vec::new(), Vec::new());
    c.eval_words_into(&words, &mut full).unwrap();
    sub.eval_words_into(&words, &mut part).unwrap();
    for (new, &g) in keep.iter().enumerate() {
        assert_eq!(part[new], full[g as usize], "kept gate {g} (now {new})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Restricting a random design with DFF feedback to a pin-closed set
    /// that keeps every primary input yields an arena that passes
    /// `validate`, round trips through its wire format and evaluates
    /// every kept gate bit-identically to the full arena at W ∈ {1, 4};
    /// restricting to every gate rebuilds the arena byte for byte.
    #[test]
    fn restricted_arenas_validate_and_evaluate_alike(
        seed in 1u64..500,
        n_dffs in 0usize..6,
        picks in 0usize..6,
        pat_seed in 1u64..500,
    ) {
        let c = CompiledNetlist::new(&random_sequential(n_dffs, 60, seed));
        let keep = closed_set(&c, picks, seed ^ 0x51);
        let sub = c.restrict(&keep);
        prop_assert!(sub.validate());
        prop_assert_eq!(sub.len(), keep.len());
        prop_assert_eq!(CompiledNetlist::from_bytes(&sub.to_bytes()).as_ref(), Some(&sub));
        kept_gates_agree::<u64>(&c, &sub, &keep, pat_seed);
        kept_gates_agree::<rescue_sim::wide::PackedWord<4>>(&c, &sub, &keep, pat_seed);
        let every: Vec<u32> = (0..c.len() as u32).collect();
        prop_assert_eq!(c.restrict(&every).to_bytes(), c.to_bytes());
    }
}

/// Restriction refuses a set that leaves out a pin of a kept gate.
#[test]
#[should_panic(expected = "left out")]
fn restriction_needs_a_pin_closed_set() {
    let c = CompiledNetlist::new(&generate::c17());
    let last = c.len() as u32 - 1;
    c.restrict(&[last]);
}

/// Decodes `bytes` as a compiled arena and, when that succeeds, checks
/// the arena validates and runs one packed evaluation. Whether it
/// decoded.
fn decode_and_eval(bytes: &[u8]) -> bool {
    let Some(c) = CompiledNetlist::from_bytes(bytes) else {
        return false;
    };
    assert!(
        c.validate(),
        "from_bytes returned an arena that fails validate"
    );
    let words = vec![0x9e37_79b9_7f4a_7c15u64; c.primary_inputs().len()];
    let mut values = Vec::new();
    c.eval_words_into(&words, &mut values).unwrap();
    assert_eq!(values.len(), c.len());
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncated, bit-flipped and spliced arena bytes of random designs
    /// with DFFs never panic: each decodes to nothing, or to an arena
    /// that passes `validate` and evaluates.
    #[test]
    fn mutated_arena_bytes_decode_or_miss(
        seed in 1u64..500,
        n_dffs in 1usize..8,
        cut in any::<u64>(),
        flip in any::<u64>(),
        splice in any::<u64>(),
    ) {
        let c = CompiledNetlist::new(&random_sequential(n_dffs, 40, seed));
        let wire = c.to_bytes();
        let donor = CompiledNetlist::new(&random_sequential(n_dffs + 1, 60, seed + 1)).to_bytes();
        prop_assert_eq!(CompiledNetlist::from_bytes(&wire), Some(c));
        let len = wire.len();
        prop_assert!(!decode_and_eval(&wire[..cut as usize % len]));
        let at = splice as usize % len;
        let mut spliced = wire[..at].to_vec();
        spliced.extend_from_slice(&donor[at.min(donor.len())..]);
        decode_and_eval(&spliced);
        // Eight single-bit flips per case, spread over the payload.
        for k in 0..8u64 {
            let mut bytes = wire.clone();
            let bit = (flip ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize % (len * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            decode_and_eval(&bytes);
        }
    }
}

/// Parses `text` and, when that succeeds, compiles, levelizes and walks
/// the observable set of the result. Whether it parsed.
fn parse_and_use(text: &str) -> bool {
    let Ok(net) = format::from_text(text) else {
        return false;
    };
    CompiledNetlist::try_new(&net).unwrap();
    net.levelize();
    cone::observable_set(&net);
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncated `.rnl` text, a dropped or duplicated line, or one `g<k>`
    /// token swapped for a random id (in range or not) never panics:
    /// each parses to an error, or to a netlist that compiles, levelizes
    /// and walks its observable cone.
    #[test]
    fn mutated_netlist_text_parses_or_errs(
        seed in 1u64..500,
        n_dffs in 1usize..8,
        cut in any::<u64>(),
        line in any::<u64>(),
        token in any::<u64>(),
        id in 0usize..100,
    ) {
        let text = format::to_text(&random_sequential(n_dffs, 40, seed));
        prop_assert!(parse_and_use(&text));
        parse_and_use(&text[..cut as usize % text.len()]);
        let lines: Vec<&str> = text.lines().collect();
        let at = line as usize % lines.len();
        let mut dropped = lines.clone();
        dropped.remove(at);
        parse_and_use(&dropped.join("\n"));
        let mut duplicated = lines.clone();
        duplicated.insert(at, lines[at]);
        parse_and_use(&duplicated.join("\n"));
        let mut words: Vec<Vec<String>> = lines
            .iter()
            .map(|l| l.split_whitespace().map(String::from).collect())
            .collect();
        let ids: Vec<(usize, usize)> = words
            .iter()
            .enumerate()
            .flat_map(|(i, w)| {
                w.iter()
                    .enumerate()
                    .filter(|(_, t)| t.strip_prefix('g').is_some_and(|k| k.parse::<usize>().is_ok()))
                    .map(move |(j, _)| (i, j))
            })
            .collect();
        let (i, j) = ids[token as usize % ids.len()];
        words[i][j] = format!("g{id}");
        let swapped: Vec<String> = words.iter().map(|w| w.join(" ")).collect();
        parse_and_use(&swapped.join("\n"));
    }
}
