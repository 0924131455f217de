//! Campaigns on the output cone ≡ the full-resimulation oracle.
//!
//! A packed campaign over a design whose output cone
//! (`engine::output_cone`) holds at most half of the gates builds its
//! golden chunks, plan and scratch on the cone's arena
//! (`simulate::campaign_arena`) and retires walked faults outside
//! the cone as unobservable. The designs here are built to stress that
//! step: few outputs (cone under half) and many outputs (cone over
//! half), DFF feedback, flops whose `D` cone is dead or only reaches an
//! output through a flop, inputs nothing reads, live stems with dead
//! branches, and faults outside the design. Each is graded plain and
//! durable (cold, and resumed from a store holding every other unit), at
//! W ∈ {1, 4}, walked and traced, with collapsing on and off; the report
//! must equal `ReferenceFaultSimulator`'s and the stats tallies must
//! agree with the report.

use proptest::prelude::*;
use rescue_campaign::{Campaign, MemStore, ResultStore};
use rescue_faults::collapse::collapse;
use rescue_faults::engine::output_cone;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::simulate::{CampaignRun, FaultSimulator, PackedOptions};
use rescue_faults::{universe, Fault, FaultSite};
use rescue_netlist::{GateId, Netlist, NetlistBuilder};
use rescue_sim::compiled::CompiledNetlist;

/// Seeded xorshift draws below `k`.
struct Draw(u64);

impl Draw {
    fn below(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }
}

/// A random design: `gates` random gates, each dead with probability
/// `dead_pct`%; a live gate reads the inputs, the flop outputs and the
/// live gates before it, a dead one reads anything before it, and no
/// live gate or output reads a dead one, so live stems grow dead
/// branches. The last `outputs` live gates drive outputs, and so does
/// one flop. Each flop's `D` pin reads a live gate (feedback) or a dead
/// one (a dead `D` cone), and two spare inputs feed nothing.
fn design(seed: u64, gates: usize, dead_pct: usize, outputs: usize, dffs: usize) -> Netlist {
    let mut rng = Draw(seed.max(1) ^ 0x2545_f491_4f6c_dd1d);
    let mut b = NetlistBuilder::new(format!("cone_{seed}"));
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
    b.finish()
}

/// The stuck-at universe with faults outside the design spread through
/// it: outputs and pins past the last gate, and pins past a gate's
/// arity.
fn faults_of(net: &Netlist) -> Vec<Fault> {
    let n = net.len();
    let wide = net
        .ids()
        .find(|&g| net.gate(g).inputs().len() == 2)
        .expect("a two-input gate");
    let pin = |gate, pin, value| Fault::stuck_at(FaultSite::Pin { gate, pin }, value);
    let outside = [
        Fault::stuck_at(FaultSite::Output(GateId(n)), false),
        pin(GateId(n + 3), 1, true),
        pin(wide, 2, false),
        pin(wide, 5, true),
    ];
    let mut faults = universe::stuck_at_universe(net);
    for (k, &f) in outside.iter().enumerate() {
        faults.insert(k * faults.len() / (outside.len() - 1), f);
    }
    faults
}

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Draw(seed.max(1));
    (0..count)
        .map(|_| (0..n_inputs).map(|_| rng.below(2) == 1).collect())
        .collect()
}

/// The stats tallies a run's report implies: detected and undetected
/// faults, and those dropped before the last `lanes`-pattern word.
fn check_tallies(run: &CampaignRun, lanes: usize, what: &str) {
    let report = &run.report;
    let words = report.patterns().div_ceil(lanes);
    let detected = report.detected_count();
    let dropped = report
        .first_detection()
        .iter()
        .flatten()
        .filter(|&&p| p / lanes + 1 < words)
        .count();
    assert_eq!(run.stats.tally.detected, detected, "{what}: detected");
    assert_eq!(
        run.stats.tally.undetected,
        report.faults().len() - detected,
        "{what}: undetected"
    );
    assert_eq!(run.stats.dropped, dropped, "{what}: dropped");
    assert_eq!(run.stats.injections, report.faults().len(), "{what}");
}

/// Grades `net` in every configuration and checks each run against the
/// oracle. `under_half` says which side of the half-the-gates rule the
/// design must fall on.
fn check_design(net: &Netlist, under_half: bool, seed: u64) {
    let c = CompiledNetlist::new(net);
    let cone = output_cone(&c);
    assert_eq!(
        cone.len() * 2 <= c.len(),
        under_half,
        "{}: cone of {} of {} gates",
        net.name(),
        cone.len(),
        c.len()
    );
    let faults = faults_of(net);
    let patterns = random_patterns(net.primary_inputs().len(), 300, seed);
    let oracle = ReferenceFaultSimulator::new(net).campaign(net, &faults, &patterns);
    assert!(oracle.detected_count() > 0, "{}", net.name());
    let sim = FaultSimulator::new(net);
    let collapsed = collapse(net, &faults);
    let campaign = Campaign::new(seed, 2);
    let resumer = Campaign::new(seed ^ 0x5eed, 1);
    let grain = 24;
    for lane_width in [1, 4] {
        let lanes = 64 * lane_width;
        for collapse_on in [false, true] {
            for tracing in [false, true] {
                let mut opts = PackedOptions::wide(lane_width);
                if collapse_on {
                    opts = opts.with_collapsed(&collapsed);
                }
                if tracing {
                    opts = opts.traced();
                }
                let what = format!(
                    "{} W={lane_width} collapse={collapse_on} tracing={tracing}",
                    net.name()
                );
                let plain = sim.campaign_packed(&faults, &patterns, &campaign, opts);
                assert_eq!(plain.report, oracle, "{what}: plain");
                check_tallies(&plain, lanes, &what);

                let store = MemStore::new();
                let cold =
                    sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &store, grain);
                assert_eq!(cold.report, oracle, "{what}: durable cold");
                check_tallies(&cold, lanes, &what);
                assert_eq!(
                    cold.stats.faults_traced, plain.stats.faults_traced,
                    "{what}"
                );
                assert_eq!(
                    cold.stats.faults_walked, plain.stats.faults_walked,
                    "{what}"
                );

                let manifest = sim.durable_plan(&faults, &patterns, &opts, grain);
                let partial = MemStore::new();
                for unit in manifest.units.iter().step_by(2) {
                    partial.put(unit.id, &store.get(unit.id).expect("cold run stored it"));
                }
                let resumed = sim
                    .campaign_packed_durable(&faults, &patterns, &resumer, opts, &partial, grain);
                assert_eq!(resumed.report, oracle, "{what}: durable resumed");
                check_tallies(&resumed, lanes, &what);
                assert_eq!(
                    resumed.stats.units_executed,
                    manifest.units.len() / 2,
                    "{what}: resume executes the missing units"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Few outputs over mostly dead logic: the cone holds under half of
    /// the gates, so every campaign runs on the cone's arena.
    #[test]
    fn few_outputs_grade_on_the_cone(seed in 1u64..1000, dffs in 0usize..4) {
        check_design(&design(seed, 120, 60, 2, dffs), true, seed);
    }

    /// Many outputs over little dead logic: the cone holds over half of
    /// the gates, so every campaign keeps the full arena.
    #[test]
    fn many_outputs_grade_on_the_full_arena(seed in 1u64..1000, dffs in 0usize..4) {
        check_design(&design(seed, 60, 5, 40, dffs), false, seed);
    }
}

/// A hand-built corner: an output stem whose second branch is dead, a
/// flop whose `D` cone reaches the output only through the flop, a flop
/// nothing reads, and an input nothing reads.
#[test]
fn stems_with_dead_branches_and_dead_flops() {
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
    // Dead gates to push the cone under half of the design.
    let mut prev = dead_d;
    for _ in 0..12 {
        prev = b.xnor(prev, a);
    }
    b.output("out", out);
    check_design(&b.finish(), true, 7);
}
