//! E11 — ablations of the toolkit's own design choices.
//!
//! Quantifies the engineering decisions DESIGN.md calls out: fault
//! dropping, structural collapsing, 64-way parallel-pattern packing and
//! weighted random patterns. Each ablation compares the chosen design
//! against the naive alternative on the same inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescue_bench::{banner, blog};
use rescue_core::atpg::random::{random_tpg, weighted_random_tpg};
use rescue_core::faults::collapse::collapse;
use rescue_core::faults::{simulate::FaultSimulator, universe, Fault};
use rescue_core::netlist::{generate, Netlist};
use rescue_core::sim::parallel::pack_patterns;

fn patterns(n_in: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
    (0..count)
        .map(|_| {
            (0..n_in)
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

/// A campaign without fault dropping: every fault simulated against
/// every chunk (the naive baseline the real campaign improves on).
fn campaign_no_dropping(net: &Netlist, faults: &[Fault], pats: &[Vec<bool>]) -> usize {
    let sim = FaultSimulator::new(net);
    let mut detections = 0usize;
    for chunk in pats.chunks(64) {
        let words = pack_patterns(chunk);
        let golden = sim.golden(&words);
        for &f in faults {
            if sim.detection_mask(&golden, f) != 0 {
                detections += 1;
            }
        }
    }
    detections
}

/// A "serial" campaign: one pattern per word (wasting 63 of 64 lanes).
fn campaign_serial(net: &Netlist, faults: &[Fault], pats: &[Vec<bool>]) -> usize {
    let sim = FaultSimulator::new(net);
    let mut detected = vec![false; faults.len()];
    for pat in pats {
        let words = pack_patterns(std::slice::from_ref(pat));
        let golden = sim.golden(&words);
        for (fi, &f) in faults.iter().enumerate() {
            if !detected[fi] && sim.detection_mask(&golden, f) & 1 != 0 {
                detected[fi] = true;
            }
        }
    }
    detected.iter().filter(|&&d| d).count()
}

fn bench(c: &mut Criterion) {
    banner(
        "E11",
        "ablations: dropping, collapsing, parallel packing, weighting",
    );
    let net = generate::random_logic(10, 200, 5, 3);
    let faults = universe::stuck_at_universe(&net);
    let pats = patterns(10, 256, 7);

    // --- collapsing ablation (table) ---
    let coll = collapse(&net, &faults);
    blog!(
        "collapsing: {} faults -> {} representatives ({:.1}% of original)",
        coll.original_len(),
        coll.representatives().len(),
        coll.ratio() * 100.0
    );
    let sim = FaultSimulator::new(&net);
    let full_cov = sim.campaign(&faults, &pats).coverage();
    let coll_cov = sim.campaign(coll.representatives(), &pats).coverage();
    blog!(
        "  coverage: full universe {:.2}%, collapsed {:.2}% (same faults, fewer sims)",
        full_cov * 100.0,
        coll_cov * 100.0
    );

    // --- weighted random ablation (table) ---
    let mut b = rescue_core::netlist::NetlistBuilder::new("and12");
    let ins = b.inputs("i", 12);
    let g = b.and_n(&ins);
    b.output("y", g);
    let and_net = b.finish();
    let and_faults = universe::stuck_at_universe(&and_net);
    let unbiased = random_tpg(&and_net, &and_faults, 1.0, 2048, 5);
    let weighted = weighted_random_tpg(&and_net, &and_faults, 1.0, 2048, 5, 0.85);
    blog!(
        "weighted random (12-input AND tree): unbiased {:.1}% @ {} pats, w=0.85 {:.1}% @ {} pats",
        unbiased.coverage * 100.0,
        unbiased.patterns.len(),
        weighted.coverage * 100.0,
        weighted.patterns.len()
    );

    // --- timed ablations ---
    let mut group = c.benchmark_group("e11_fault_sim");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("dropping", "on"), |b| {
        b.iter(|| std::hint::black_box(sim.campaign(&faults, &pats)))
    });
    group.bench_function(BenchmarkId::new("dropping", "off"), |b| {
        b.iter(|| std::hint::black_box(campaign_no_dropping(&net, &faults, &pats)))
    });
    group.bench_function(BenchmarkId::new("packing", "64-way"), |b| {
        b.iter(|| std::hint::black_box(sim.campaign(&faults, &pats)))
    });
    group.bench_function(BenchmarkId::new("packing", "serial"), |b| {
        b.iter(|| std::hint::black_box(campaign_serial(&net, &faults, &pats)))
    });
    group.bench_function(BenchmarkId::new("universe", "collapsed"), |b| {
        b.iter(|| std::hint::black_box(sim.campaign(coll.representatives(), &pats)))
    });
    group.bench_function(BenchmarkId::new("universe", "full"), |b| {
        b.iter(|| std::hint::black_box(sim.campaign(&faults, &pats)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
