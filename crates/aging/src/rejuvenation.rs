//! Evolutionary generation of stress-balancing (rejuvenation) stimuli.
//!
//! The RESCUE baseline \[7\] showed that unbalanced logic can be
//! "rejuvenated" by running generated programs that invert the dominant
//! stress. At the netlist level the equivalent question is: *find input
//! patterns whose application drives every gate's one-probability
//! towards 0.5*. A small genetic algorithm evolves a pattern set that
//! minimizes the worst duty-cycle imbalance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_campaign::{Campaign, CampaignStats};
use rescue_netlist::{GateKind, Netlist};
use rescue_sim::parallel::{pack_patterns, ParallelSimulator};
use std::time::Instant;

/// Duty statistics of a stimulus over a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct DutyStats {
    /// Per-gate one-probability under the stimulus.
    pub p_one: Vec<f64>,
    /// Worst-case imbalance `max |p - 0.5| * 2` in `[0, 1]`.
    pub worst_imbalance: f64,
    /// Mean imbalance.
    pub mean_imbalance: f64,
}

/// Measures per-gate duty cycles of `patterns` (combinational view).
///
/// # Panics
///
/// Panics when a pattern width mismatches.
pub fn duty_of(netlist: &Netlist, patterns: &[Vec<bool>]) -> DutyStats {
    let sim = ParallelSimulator::new(netlist);
    let mut ones = vec![0usize; netlist.len()];
    let mut total = 0usize;
    for chunk in patterns.chunks(64) {
        let words = pack_patterns(chunk);
        let values = sim.run(&words).expect("pattern width");
        let live = chunk.len();
        for (i, w) in values.iter().enumerate() {
            let masked = if live < 64 {
                w & ((1u64 << live) - 1)
            } else {
                *w
            };
            ones[i] += masked.count_ones() as usize;
        }
        total += live;
    }
    let eligible: Vec<usize> = netlist
        .iter()
        .filter(|(_, g)| {
            !matches!(
                g.kind(),
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff
            )
        })
        .map(|(id, _)| id.index())
        .collect();
    let p_one: Vec<f64> = ones
        .iter()
        .map(|&o| o as f64 / total.max(1) as f64)
        .collect();
    let imbalances: Vec<f64> = eligible
        .iter()
        .map(|&i| (p_one[i] - 0.5).abs() * 2.0)
        .collect();
    let worst = imbalances.iter().copied().fold(0.0, f64::max);
    let mean = imbalances.iter().sum::<f64>() / imbalances.len().max(1) as f64;
    DutyStats {
        p_one,
        worst_imbalance: worst,
        mean_imbalance: mean,
    }
}

/// Result of the evolutionary search.
#[derive(Debug, Clone, PartialEq)]
pub struct RejuvenationResult {
    /// The evolved balancing patterns.
    pub patterns: Vec<Vec<bool>>,
    /// Duty statistics of a random baseline of the same size.
    pub baseline: DutyStats,
    /// Duty statistics of the evolved set.
    pub evolved: DutyStats,
    /// Generations executed.
    pub generations: usize,
    /// Observability record of the search: `injections` counts duty
    /// evaluations, lanes reflect the 64-pattern word packing of each.
    pub stats: CampaignStats,
}

impl RejuvenationResult {
    /// Relative improvement of mean imbalance (`0.3` = 30 % better).
    pub fn improvement(&self) -> f64 {
        if self.baseline.mean_imbalance == 0.0 {
            return 0.0;
        }
        1.0 - self.evolved.mean_imbalance / self.baseline.mean_imbalance
    }
}

/// Evolves `set_size` patterns over `generations` generations with a
/// (μ+λ) GA (population 16, tournament selection, bit-flip mutation).
/// Serial convenience wrapper over [`evolve_on`].
///
/// # Panics
///
/// Panics when `set_size == 0`.
pub fn evolve(
    netlist: &Netlist,
    set_size: usize,
    generations: usize,
    seed: u64,
) -> RejuvenationResult {
    evolve_on(netlist, set_size, generations, seed, &Campaign::serial())
}

/// [`evolve`] with the initial-population fitness evaluation sharded
/// over the shared [`Campaign`] driver. The GA main loop stays serial
/// (each child depends on the previous selection), so results are
/// identical for every worker count; the attached [`CampaignStats`]
/// reports duty-evaluation throughput either way.
///
/// # Panics
///
/// Panics when `set_size == 0`.
pub fn evolve_on(
    netlist: &Netlist,
    set_size: usize,
    generations: usize,
    seed: u64,
    campaign: &Campaign,
) -> RejuvenationResult {
    assert!(set_size > 0, "need at least one pattern");
    let start = Instant::now();
    let n_in = netlist.primary_inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let random_set = |rng: &mut StdRng| -> Vec<Vec<bool>> {
        (0..set_size)
            .map(|_| (0..n_in).map(|_| rng.gen()).collect())
            .collect()
    };
    let fitness = |set: &Vec<Vec<bool>>| -> f64 {
        let d = duty_of(netlist, set);
        // Lower is better: weighted mean + worst.
        d.mean_imbalance + 0.5 * d.worst_imbalance
    };
    let baseline_set = random_set(&mut rng);
    let baseline = duty_of(netlist, &baseline_set);

    let seeds: Vec<Vec<Vec<bool>>> = (0..16).map(|_| random_set(&mut rng)).collect();
    let sharded = campaign.run_sharded(&seeds, |_| (), |_, _, set| fitness(set));
    let mut stats = CampaignStats::from_run(seeds.len(), &sharded);
    let mut population: Vec<(Vec<Vec<bool>>, f64)> =
        seeds.into_iter().zip(sharded.results).collect();
    for _ in 0..generations {
        // Tournament pick two parents.
        let pick = |rng: &mut StdRng, pop: &[(Vec<Vec<bool>>, f64)]| -> usize {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            if pop[a].1 <= pop[b].1 {
                a
            } else {
                b
            }
        };
        let pa = pick(&mut rng, &population);
        let pb = pick(&mut rng, &population);
        // Uniform crossover at pattern granularity + bit mutation.
        let mut child: Vec<Vec<bool>> = (0..set_size)
            .map(|i| {
                if rng.gen() {
                    population[pa].0[i].clone()
                } else {
                    population[pb].0[i].clone()
                }
            })
            .collect();
        for pat in child.iter_mut() {
            for b in pat.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = !*b;
                }
            }
        }
        let f = fitness(&child);
        // Replace the worst individual if the child improves on it.
        let worst = population
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite fitness"))
            .map(|(i, _)| i)
            .expect("non-empty population");
        if f < population[worst].1 {
            population[worst] = (child, f);
        }
    }
    let best = population
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
        .expect("non-empty population");
    let evolved = duty_of(netlist, &best.0);
    // Baseline + 16 initial + one child per generation + final measure.
    let evaluations = 2 + 16 + generations;
    stats.injections = evaluations;
    stats.elapsed_ns = (start.elapsed().as_nanos() as u64).max(1);
    for _ in 0..evaluations {
        let mut remaining = set_size;
        while remaining > 0 {
            let live = remaining.min(64);
            stats.record_lanes(live as u64, 64);
            remaining -= live;
        }
    }
    RejuvenationResult {
        patterns: best.0,
        baseline,
        evolved,
        generations,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn duty_stats_bounds() {
        let net = generate::c17();
        let pats: Vec<Vec<bool>> = (0..32u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let d = duty_of(&net, &pats);
        assert!(d.worst_imbalance <= 1.0);
        assert!(d.mean_imbalance <= d.worst_imbalance);
        for p in &d.p_one {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn evolution_improves_balance() {
        // An AND-tree is naturally skewed (deep gates rarely 1): good
        // target for balancing.
        let mut b = rescue_netlist::NetlistBuilder::new("skewed");
        let ins = b.inputs("i", 8);
        let g1 = b.and_n(&ins[0..4]);
        let g2 = b.and_n(&ins[4..8]);
        let g = b.and(g1, g2);
        b.output("y", g);
        let net = b.finish();
        let r = evolve(&net, 16, 150, 42);
        assert!(
            r.evolved.mean_imbalance <= r.baseline.mean_imbalance,
            "evolved {} vs baseline {}",
            r.evolved.mean_imbalance,
            r.baseline.mean_imbalance
        );
        assert!(r.improvement() >= 0.0);
        assert_eq!(r.patterns.len(), 16);
        assert_eq!(r.generations, 150);
    }

    #[test]
    fn deterministic_in_seed() {
        let net = generate::parity(6);
        let a = evolve(&net, 8, 40, 7);
        let b = evolve(&net, 8, 40, 7);
        assert_eq!(a.patterns, b.patterns);
    }

    #[test]
    fn parallel_evolution_matches_serial() {
        let net = generate::parity(6);
        let serial = evolve(&net, 8, 40, 7);
        for workers in [2usize, 4] {
            let par = evolve_on(&net, 8, 40, 7, &Campaign::new(0, workers));
            assert_eq!(par.patterns, serial.patterns, "workers = {workers}");
            assert_eq!(par.evolved, serial.evolved);
        }
        assert_eq!(serial.stats.injections, 2 + 16 + 40);
        assert!(serial.stats.injections_per_sec() > 0.0);
        assert!(serial.stats.lane_occupancy() > 0.0);
    }
}
