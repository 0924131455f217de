//! Ad-hoc timing probe for the e17 big rung (not part of the test suite).
use rescue_faults::collapse::collapse;
use rescue_faults::engine::CampaignPlan;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::trace::TracePlan;
use rescue_faults::universe;
use rescue_netlist::generate;
use std::time::Instant;

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1) ^ 0x5851_f42d_4c95_7f2d;
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

fn main() {
    let net = generate::random_logic(32, 50_000, 8, 17);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(32, 512, 17 ^ 0x9e37);
    let sim = FaultSimulator::new(&net);
    let c = sim.compiled();
    let t = Instant::now();
    let collapsed = collapse(&net, &faults);
    println!("collapse: {:?}", t.elapsed());
    // Reproduce the campaign's walk list.
    let reachable = rescue_faults::engine::po_reachable(c);
    let mut slot = std::collections::HashMap::new();
    let mut walk = Vec::new();
    for &f in &faults {
        let rep = collapsed.representative(f);
        if !reachable[rep.site().gate().index()] {
            continue;
        }
        slot.entry(rep).or_insert_with(|| {
            walk.push(rep);
            walk.len() as u32 - 1
        });
    }
    println!("walk list: {} faults", walk.len());
    let t = Instant::now();
    CampaignPlan::build(c, &walk);
    println!("CampaignPlan::build(walk): {:?}", t.elapsed());
    let sites: std::collections::HashSet<usize> =
        walk.iter().map(|f| f.site().gate().index()).collect();
    println!("distinct sites: {}", sites.len());
    let t = Instant::now();
    let tplan = TracePlan::build(c, &walk);
    println!(
        "TracePlan::build(walk): {:?} (stems {}, statically traced {})",
        t.elapsed(),
        tplan.stems(),
        tplan.statically_traced()
    );
    let driver = rescue_campaign::Campaign::new(0, 1);
    for (name, opts) in [
        ("walk  ", PackedOptions::wide(4).with_collapsed(&collapsed)),
        (
            "hybrid",
            PackedOptions::wide(4).with_collapsed(&collapsed).traced(),
        ),
    ] {
        let t = Instant::now();
        let run = sim.campaign_packed(&faults, &patterns, &driver, opts);
        println!(
            "{name} campaign: {:?} (detected {})",
            t.elapsed(),
            run.report.detected_count()
        );
    }
}
