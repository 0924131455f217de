//! E2 — Section III.A: test generation and testability analysis.
//!
//! Rows: per circuit — random-TPG vs PODEM coverage and pattern counts,
//! untestable-fault identification shrinking the universe, and the CPU
//! SBST deterministic-vs-random comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue_bench::{banner, blog};
use rescue_core::atpg::compact::static_compaction;
use rescue_core::atpg::podem::{Podem, PodemOutcome};
use rescue_core::atpg::random::random_tpg;
use rescue_core::atpg::untestable;
use rescue_core::cpu::sbst;
use rescue_core::faults::{simulate::FaultSimulator, universe};
use rescue_core::gpgpu::sbst as gpu_sbst;
use rescue_core::netlist::generate;

fn bench(c: &mut Criterion) {
    banner("E2", "test generation & testability");
    blog!(
        "{:<10} {:>7} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "circuit",
        "faults",
        "untestable",
        "rand cov",
        "rand pat",
        "atpg cov",
        "atpg pat"
    );
    for net in [
        generate::c17(),
        generate::adder(8),
        generate::multiplier(4),
        generate::alu(8),
        generate::random_logic(10, 150, 5, 3),
    ] {
        let faults = universe::stuck_at_universe(&net);
        let report = untestable::identify(&net, &faults, true);
        let testable = report.testable().to_vec();
        let rand = random_tpg(&net, &testable, 0.99, 512, 7);
        let podem = Podem::new(&net);
        let cubes: Vec<_> = testable
            .iter()
            .filter_map(|&f| match podem.generate(&net, f) {
                PodemOutcome::Test(t) => Some(t),
                _ => None,
            })
            .collect();
        let compacted = static_compaction(&cubes);
        let patterns: Vec<Vec<bool>> = compacted.iter().map(|c| c.fill_with(false)).collect();
        let atpg_cov = FaultSimulator::new(&net)
            .campaign(&testable, &patterns)
            .coverage();
        blog!(
            "{:<10} {:>7} {:>10} {:>9.1}% {:>9} {:>8.1}% {:>10}",
            net.name(),
            faults.len(),
            report.untestable().len(),
            rand.coverage * 100.0,
            rand.patterns.len(),
            atpg_cov * 100.0,
            patterns.len()
        );
    }

    blog!("\nCPU SBST (sampled stuck-at universe, deterministic vs random):");
    let sbst_prog = sbst::generate_sbst(3000);
    let rnd_prog = sbst::generate_random_sbst(3000, sbst_prog.len(), 5);
    let sample: Vec<_> = sbst::cpu_fault_universe().into_iter().step_by(29).collect();
    let det = sbst::grade(&sbst_prog, &sample, 300_000);
    let rnd = sbst::grade(&rnd_prog, &sample, 300_000);
    blog!(
        "  deterministic {:.1}%   random {:.1}%   ({} faults)",
        det.coverage() * 100.0,
        rnd.coverage() * 100.0,
        sample.len()
    );

    blog!("\nGPGPU scheduler SBST:");
    let u = gpu_sbst::scheduler_fault_universe(8);
    let caught = u.iter().filter(|&&f| gpu_sbst::detects(f, 8, 8)).count();
    blog!("  {caught}/{} select-stuck faults detected", u.len());

    blog!("\nGPGPU pipeline-latch stuck-at campaign (saxpy, 64 faults):");
    use rescue_core::gpgpu::kernels::{load_saxpy_data, saxpy, SAXPY_Y_BASE};
    use rescue_core::gpgpu::pipeline::{latch_campaign, PipelineEffect};
    let report = latch_campaign(&saxpy(3, 4), 2, 4, SAXPY_Y_BASE, 8, |gpu| {
        load_saxpy_data(gpu, 3)
    });
    blog!(
        "  masked {:.0}%  DUE {:.0}%  SDC {:.0}%",
        report.fraction(PipelineEffect::Masked) * 100.0,
        report.fraction(PipelineEffect::Due) * 100.0,
        report.fraction(PipelineEffect::Sdc) * 100.0
    );

    let net = generate::multiplier(4);
    let faults = universe::stuck_at_universe(&net);
    let podem = Podem::new(&net);
    c.bench_function("e02_podem_mult4", |b| {
        b.iter(|| {
            let f = faults[37];
            std::hint::black_box(podem.generate(&net, f))
        })
    });
    let sim = FaultSimulator::new(&net);
    let patterns: Vec<Vec<bool>> = (0..64u32)
        .map(|p| (0..8).map(|i| p >> i & 1 == 1).collect())
        .collect();
    c.bench_function("e02_fault_sim_mult4", |b| {
        b.iter(|| std::hint::black_box(sim.campaign(&faults, &patterns)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
