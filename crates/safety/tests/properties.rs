//! Property-based tests for the functional-safety analyses.

use proptest::prelude::*;
use rescue_campaign::Campaign;
use rescue_faults::reference::ReferenceFaultSimulator;
use rescue_faults::{simulate::FaultSimulator, universe, Fault, FaultKind, FaultSite};
use rescue_netlist::{generate, Netlist};
use rescue_safety::classify::{classify, classify_with_stats, FaultClass};
use rescue_safety::duplication::duplicate_with_comparator;
use rescue_safety::metrics::SafetyMetrics;
use rescue_safety::pruning::prune;
use rescue_safety::slicing::{dynamic_slice, sliced_campaign};
use rescue_safety::transition::classify_transitions_with_stats;
use rescue_sim::parallel::{live_mask, pack_patterns};

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

/// The ISO 26262 class of a fault from what the oracle saw: per word,
/// the lanes on which a functional / checker output differed from
/// golden (dead and unlaunched lanes cleared).
fn class_of(seen: impl IntoIterator<Item = (u64, u64)>) -> FaultClass {
    let (mut corrupts, mut undetected, mut alarms) = (false, false, false);
    for (func, chk) in seen {
        corrupts |= func != 0;
        undetected |= func & !chk != 0;
        alarms |= chk != 0;
    }
    match (corrupts, undetected, alarms) {
        (true, true, _) => FaultClass::Residual,
        (true, false, _) => FaultClass::Detected,
        (false, _, true) => FaultClass::Latent,
        (false, _, false) => FaultClass::Safe,
    }
}

/// Drivers of the named outputs.
fn drivers(net: &Netlist, names: &[String]) -> Vec<usize> {
    names
        .iter()
        .map(|name| {
            let (_, d) = net
                .primary_outputs()
                .iter()
                .find(|(n, _)| n == name)
                .unwrap();
            d.index()
        })
        .collect()
}

/// A packed pattern word with its oracle golden values.
fn oracle_word(
    oracle: &ReferenceFaultSimulator,
    net: &Netlist,
    pats: &[Vec<bool>],
) -> (Vec<u64>, Vec<u64>) {
    let words = pack_patterns(pats);
    let golden = oracle.golden(net, &words);
    (words, golden)
}

/// The lanes on which `fault`, injected by full resimulation of
/// `words`, changes a functional / a checker output.
fn oracle_seen(
    oracle: &ReferenceFaultSimulator,
    net: &Netlist,
    groups: &(Vec<usize>, Vec<usize>),
    (words, golden): &(Vec<u64>, Vec<u64>),
    fault: Fault,
) -> (u64, u64) {
    let faulty = oracle.with_stuck(net, words, fault);
    let diff = |ds: &[usize]| ds.iter().fold(0, |m, &d| m | (golden[d] ^ faulty[d]));
    (diff(&groups.0), diff(&groups.1))
}

/// Stuck-at classes by full resimulation of every 64-pattern word.
fn oracle_stuck_classes(
    net: &Netlist,
    faults: &[Fault],
    groups: &(Vec<usize>, Vec<usize>),
    pats: &[Vec<bool>],
) -> Vec<FaultClass> {
    let oracle = ReferenceFaultSimulator::new(net);
    let words: Vec<_> = pats
        .chunks(64)
        .map(|c| (oracle_word(&oracle, net, c), live_mask(c.len())))
        .collect();
    faults
        .iter()
        .map(|&f| {
            class_of(words.iter().map(|(word, live)| {
                let (func, chk) = oracle_seen(&oracle, net, groups, word, f);
                (func & live, chk & live)
            }))
        })
        .collect()
}

/// Transition classes by full resimulation: on every pair that launches
/// the transition at the site, the stuck-at equivalent is applied to
/// the capture pattern.
fn oracle_transition_classes(
    net: &Netlist,
    faults: &[Fault],
    groups: &(Vec<usize>, Vec<usize>),
    pats: &[Vec<bool>],
) -> Vec<FaultClass> {
    let oracle = ReferenceFaultSimulator::new(net);
    let n_pairs = pats.len().saturating_sub(1);
    let words: Vec<_> = (0..n_pairs)
        .step_by(64)
        .map(|start| {
            let end = (start + 64).min(n_pairs);
            let launch = oracle_word(&oracle, net, &pats[start..end]);
            let capture = oracle_word(&oracle, net, &pats[start + 1..end + 1]);
            (launch.1, capture, live_mask(end - start))
        })
        .collect();
    faults
        .iter()
        .map(|&f| {
            let site = f.site().gate().index();
            let rising = f.kind() == FaultKind::SlowToRise;
            let eq = Fault::stuck_at(FaultSite::Output(f.site().gate()), !rising);
            class_of(words.iter().map(|(g_launch, capture, live)| {
                let (from, to) = (g_launch[site], capture.1[site]);
                let launched = live & if rising { !from & to } else { from & !to };
                let (func, chk) = oracle_seen(&oracle, net, groups, capture, eq);
                (func & launched, chk & launched)
            }))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Classification classes partition the fault list, and metrics stay
    /// within their definitional bounds.
    #[test]
    fn classification_partitions(seed in 1u64..200) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let outs: Vec<String> = net.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let pats = patterns(6, 48, seed);
        let r = classify(&net, &faults, &outs, &[], &pats);
        let total = r.count(FaultClass::Safe)
            + r.count(FaultClass::Detected)
            + r.count(FaultClass::Residual)
            + r.count(FaultClass::Latent);
        prop_assert_eq!(total, faults.len());
        let m = SafetyMetrics::from_classification(&r, rescue_radiation::Fit::new(100.0));
        prop_assert!((0.0..=1.0).contains(&m.spfm));
        prop_assert!((0.0..=1.0).contains(&m.lfm));
        prop_assert!(m.pmhf.value() <= 100.0);
    }

    /// Without checkers there can be no Detected or Latent faults.
    #[test]
    fn no_checker_no_detection(seed in 1u64..200) {
        let net = generate::random_logic(6, 40, 2, seed);
        let faults = universe::stuck_at_universe(&net);
        let outs: Vec<String> = net.primary_outputs().iter().map(|(n, _)| n.clone()).collect();
        let r = classify(&net, &faults, &outs, &[], &patterns(6, 32, seed));
        prop_assert_eq!(r.count(FaultClass::Detected), 0);
        prop_assert_eq!(r.count(FaultClass::Latent), 0);
    }

    /// Pruned faults never corrupt a safety output under any stimulus
    /// (checked exhaustively for small input counts).
    #[test]
    fn pruning_is_sound(seed in 1u64..100) {
        let net = generate::random_logic(6, 50, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let safety_out = vec![net.primary_outputs()[0].0.clone()];
        let report = prune(&net, &faults, &safety_out);
        let sim = FaultSimulator::new(&net);
        let exhaustive: Vec<Vec<bool>> = (0..64u32)
            .map(|p| (0..6).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let words = rescue_sim::parallel::pack_patterns(&exhaustive);
        let golden = sim.golden(&words);
        let driver = net.primary_outputs()[0].1;
        for f in report.pruned_coi.iter().chain(&report.pruned_constant) {
            let faulty = sim.with_stuck(&words, *f);
            prop_assert_eq!(
                golden[driver.index()], faulty[driver.index()],
                "pruned fault {} is not safe", f
            );
        }
    }

    /// Slicing equals the oracle's naive campaign and every slice
    /// contains all the primary outputs' drivers.
    #[test]
    fn slicing_equivalence(seed in 1u64..60) {
        let net = generate::random_logic(6, 40, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let pats = patterns(6, 32, seed);
        let sliced = sliced_campaign(&net, &faults, &pats);
        let naive = ReferenceFaultSimulator::new(&net).campaign(&net, &faults, &pats);
        prop_assert_eq!(sliced.report.first_detection(), naive.first_detection());
        for p in &pats {
            let slice = dynamic_slice(&net, p);
            for (_, out) in net.primary_outputs() {
                prop_assert!(slice.contains(out));
            }
        }
    }

    /// Both classification front-ends, on the packed walk, agree with
    /// the full-resimulation oracle class for every fault: on random
    /// designs with the outputs split into functional and checker
    /// groups and on a duplicated design with its comparator, for 1 and
    /// 2 workers, with a ragged last pattern word.
    #[test]
    fn classification_matches_oracle(
        seed in 1u64..200,
        n_patterns in 65usize..140,
        duplicated: bool,
    ) {
        let (net, functional, checkers) = if duplicated {
            let p = duplicate_with_comparator(&generate::random_logic(3, 16, 2, seed));
            (p.netlist, p.functional_outputs, p.checker_outputs)
        } else {
            let net = generate::random_logic(6, 50, 4, seed);
            let (f, c): (Vec<_>, Vec<_>) = net
                .primary_outputs()
                .iter()
                .map(|(n, _)| n.clone())
                .enumerate()
                .partition(|(i, _)| i % 2 == 0);
            let names = |v: Vec<(usize, String)>| v.into_iter().map(|(_, n)| n).collect();
            (net, names(f), names(c))
        };
        let groups = (drivers(&net, &functional), drivers(&net, &checkers));
        let pats = patterns(net.primary_inputs().len(), n_patterns, seed);
        let faults = universe::stuck_at_universe(&net);
        let transitions = universe::transition_universe(&net);
        let want = oracle_stuck_classes(&net, &faults, &groups, &pats);
        let want_t = oracle_transition_classes(&net, &transitions, &groups, &pats);
        for workers in [1usize, 2] {
            let campaign = Campaign::new(seed, workers);
            let run = classify_with_stats(&net, &faults, &functional, &checkers, &pats, &campaign);
            prop_assert_eq!(run.report.classes(), &want[..], "workers = {}", workers);
            let run = classify_transitions_with_stats(
                &net, &transitions, &functional, &checkers, &pats, &campaign,
            );
            prop_assert_eq!(run.report.classes(), &want_t[..], "workers = {}", workers);
        }
    }
}
