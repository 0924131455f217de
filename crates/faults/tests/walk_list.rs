//! What a campaign's walk list keeps and drops: PO reachability (the
//! filter on every walked class) against its definition, and delay-kind
//! faults handed to a stuck-at campaign, which collapsing gives no slot.

mod common;

use common::random_patterns;
use proptest::prelude::*;
use rescue_campaign::Campaign;
use rescue_faults::engine::po_reachable;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::{collapse, universe, Fault, FaultKind, FaultSite};
use rescue_netlist::{renumber, GateId, GateKind, Netlist, NetlistBuilder};
use rescue_sim::compiled::CompiledNetlist;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The backward search marks exactly the gates the definition's
    /// reverse-topological sweep marks, on random DFF-feedback designs
    /// in original and level-order ids.
    #[test]
    fn po_reachable_matches_sweep(seed in 1u64..5000, gates in 8usize..80) {
        let net = feedback_design(seed, gates);
        for net in [renumber::levelized(&net).0, net] {
            let c = CompiledNetlist::new(&net);
            prop_assert_eq!(po_reachable(&c), reachable_by_sweep(&c), "{}", net.name());
        }
    }
}

/// The definition: a gate is reachable when it drives a primary output
/// or any non-DFF fanout is reachable. One sweep in reverse evaluation
/// order settles every combinational gate after its fanouts; the
/// sources (inputs and flops), outside that order, close it.
fn reachable_by_sweep(c: &CompiledNetlist) -> Vec<bool> {
    let feeds = |g: usize, reachable: &[bool]| {
        c.fanout_of(g)
            .iter()
            .any(|&s| c.kind(s as usize) != GateKind::Dff && reachable[s as usize])
    };
    let mut reachable: Vec<bool> = (0..c.len()).map(|g| c.is_po(g)).collect();
    for &g in c.eval_order().iter().rev() {
        let g = g as usize;
        reachable[g] = reachable[g] || feeds(g, &reachable);
    }
    for g in 0..c.len() {
        if matches!(c.kind(g), GateKind::Input | GateKind::Dff) {
            reachable[g] = reachable[g] || feeds(g, &reachable);
        }
    }
    reachable
}

/// Seeded xorshift draws.
struct Draw(u64);

impl Draw {
    fn below(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }
}

/// Random gates over inputs, flop outputs and earlier gates, three
/// flops fed back from random gates, and outputs on the last two gates,
/// a random gate and a flop. Flop 0 is fed by an output driver, so its
/// `D` cone is reachable logic the flop must not pass on, and flop 1
/// drives an output itself.
fn feedback_design(seed: u64, gates: usize) -> Netlist {
    let mut rng = Draw(seed.max(1) ^ 0x2545_f491_4f6c_dd1d);
    let mut b = NetlistBuilder::new(format!("feedback_{seed}_{gates}"));
    let mut pool = b.inputs("i", 4);
    let flops: Vec<GateId> = (0..3).map(|_| b.dff_floating()).collect();
    pool.extend(&flops);
    let first_gate = pool.len();
    for _ in 0..gates {
        let x = pool[rng.below(pool.len())];
        let y = pool[rng.below(pool.len())];
        let g = match rng.below(6) {
            0 => b.nand(x, y),
            1 => b.xor(x, y),
            2 => b.or(x, y),
            3 => b.not(x),
            4 => b.dff(x),
            _ => b.and(x, y),
        };
        pool.push(g);
    }
    let last = pool.len() - 1;
    b.connect_dff(flops[0], pool[last]);
    for &q in &flops[1..] {
        b.connect_dff(q, pool[first_gate + rng.below(gates)]);
    }
    b.output("o0", pool[last]);
    b.output("o1", pool[last - 1]);
    b.output("r", pool[first_gate + rng.below(gates)]);
    b.output("q1", flops[1]);
    b.finish()
}

/// `x AND y` drives the output; `x OR y` feeds only a flop nothing
/// reads, so no output observes it. Returns the design and both gates.
fn observed_and_dead() -> (Netlist, GateId, GateId) {
    let mut b = NetlistBuilder::new("observed_and_dead");
    let [x, y] = ["x", "y"].map(|n| b.input(n));
    let live = b.and(x, y);
    let dead = b.or(x, y);
    let _unread = b.dff(dead);
    b.output("z", live);
    (b.finish(), live, dead)
}

/// A stuck-at campaign handed a delay-kind fault at a gate an output
/// observes panics, collapsed or not: collapsing gives delay kinds no
/// slot, and its walk list must not retire such a fault as undetected.
#[test]
fn observable_delay_fault_is_rejected() {
    let (net, live, _) = observed_and_dead();
    let sim = FaultSimulator::new(&net);
    let patterns = random_patterns(2, 64, 3);
    let mut faults = universe::stuck_at_universe(&net);
    faults.push(Fault::new(FaultSite::Output(live), FaultKind::SlowToRise));
    let collapsed = collapse::collapse(&net, &faults);
    for (opts, workers) in [
        (PackedOptions::wide(1).with_collapsed(&collapsed), 1),
        (
            PackedOptions::wide(2).with_collapsed(&collapsed).traced(),
            2,
        ),
        (PackedOptions::wide(1), 1),
        (PackedOptions::wide(1).traced(), 1),
    ] {
        let run = catch_unwind(AssertUnwindSafe(|| {
            sim.campaign_packed(&faults, &patterns, &Campaign::new(0, workers), opts)
        }));
        let message = run.expect_err("a delay-kind fault must not be graded");
        let message = message
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| message.downcast_ref::<&str>().copied());
        assert_eq!(
            message,
            Some("stuck-at campaign requires stuck-at faults"),
            "{opts:?}"
        );
    }
}

/// A delay-kind fault no output observes retires as undetected, as every
/// fault of an unobservable class does, collapsed or not, and the
/// collapse keeps it as its own representative.
#[test]
fn unobservable_delay_fault_retires_undetected() {
    let (net, _, dead) = observed_and_dead();
    let sim = FaultSimulator::new(&net);
    let patterns = random_patterns(2, 64, 5);
    let mut faults = universe::stuck_at_universe(&net);
    let delay = Fault::new(FaultSite::Output(dead), FaultKind::SlowToFall);
    faults.insert(2, delay);
    let collapsed = collapse::collapse(&net, &faults);
    assert_eq!(collapsed.representative(delay), delay);
    assert!(collapsed.representatives().contains(&delay));
    let plain = sim.campaign(&faults, &patterns);
    assert_eq!(plain.first_detection()[2], None);
    for workers in [1, 2] {
        let opts = PackedOptions::wide(2).with_collapsed(&collapsed);
        let run = sim.campaign_packed(&faults, &patterns, &Campaign::new(0, workers), opts);
        assert_eq!(run.report, plain, "{workers} workers");
    }
}
