//! Collapsing against its definition: the sharded rule pass yields the
//! same representatives and the same per-fault mapping as the serial
//! one, and both agree with an independent reference collapse — the
//! textbook rules on a `HashMap<Fault, Fault>`, chains followed to their
//! end — for every fault of the design, listed or not.
//!
//! These properties are the correctness argument for the slot map and
//! for sharding the million-gate collapse — the benchmarks only measure
//! speed because this suite pins equivalence.

use proptest::prelude::*;
use rescue_faults::{collapse, universe, Fault, FaultKind, FaultSite};
use rescue_netlist::{generate, GateId, GateKind, Netlist, NetlistBuilder};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded collapse produces the same representatives and the same
    /// per-fault representative mapping as the serial rule pass, and the
    /// representative list is exactly the faults that represent
    /// themselves, sorted and deduplicated. The universe mixes in
    /// duplicates, transition faults and faults outside the design.
    #[test]
    fn parallel_collapse_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let faults = mixed_universe(&net, seed);
        let serial = collapse::collapse(&net, &faults);
        let parallel = collapse::collapse_with(&net, &faults, workers);
        prop_assert_eq!(serial.representatives(), parallel.representatives());
        for &f in &faults {
            prop_assert_eq!(serial.representative(f), parallel.representative(f));
        }
        let mut spec: Vec<Fault> = faults
            .iter()
            .copied()
            .filter(|&f| serial.representative(f) == f)
            .collect();
        spec.sort();
        spec.dedup();
        prop_assert_eq!(serial.representatives(), &spec[..]);
    }

    /// `collapse_with` at 1–4 workers agrees with the reference collapse
    /// on designs with BUF/NOT chains, flops and single-load output
    /// drivers, over mixed lists cut to a seeded subset: every fault of
    /// the full universe (stuck-at, transition and outside faults,
    /// listed or not) has the same representative, and the
    /// representative list and ratio match.
    #[test]
    fn collapse_matches_reference(seed in 1u64..2000, keep in 0usize..4) {
        let net = chain_design(seed);
        let full = mixed_universe(&net, seed);
        // keep = 0: every fault; otherwise drop a seeded quarter, third
        // or half, so chains end at unlisted faults.
        let mut rng = Draw::new(seed);
        let listed: Vec<Fault> = full
            .iter()
            .copied()
            .filter(|_| keep == 0 || rng.below(keep + 1) != 0)
            .collect();
        let want = ReferenceCollapse::new(&net, &listed);
        for workers in 1..=4 {
            let got = collapse::collapse_with(&net, &listed, workers);
            for &f in &full {
                prop_assert_eq!(got.representative(f), want.representative(f), "{} at {} workers", f, workers);
            }
            prop_assert_eq!(got.representatives(), &want.representatives[..]);
            prop_assert_eq!(got.ratio(), want.ratio(listed.len()));
            prop_assert_eq!(got.original_len(), listed.len());
        }
    }
}

/// The textbook equivalence rules over a `HashMap<Fault, Fault>`: each
/// listed stuck-at fault inside the design that a rule folds maps to the
/// output fault it folds into, and a representative is the end of the
/// chain of listed faults from a fault.
struct ReferenceCollapse {
    next: HashMap<Fault, Fault>,
    representatives: Vec<Fault>,
}

impl ReferenceCollapse {
    fn new(net: &Netlist, listed: &[Fault]) -> ReferenceCollapse {
        // Load pins of every gate output, one entry per consuming pin.
        let mut loads: HashMap<GateId, Vec<GateId>> = HashMap::new();
        for (id, g) in net.iter() {
            for &d in g.inputs() {
                loads.entry(d).or_default().push(id);
            }
        }
        let drives_po = |g: GateId| net.primary_outputs().iter().any(|&(_, o)| o == g);
        // The only load of `d`, when it has one pin load and no output.
        let sole_load = |d: GateId| match loads.get(&d).map(Vec::as_slice) {
            Some(&[h]) if !drives_po(d) => Some(h),
            _ => None,
        };
        let stuck = |site, value| Fault::stuck_at(site, value);
        // A value stuck on an input of `kind` that forces its output.
        let controlling = |kind: GateKind, value: bool| match (kind, value) {
            (GateKind::And, false) => Some(false),
            (GateKind::Nand, false) => Some(true),
            (GateKind::Or, true) => Some(true),
            (GateKind::Nor, true) => Some(false),
            _ => None,
        };
        let mut next = HashMap::new();
        for &f in listed {
            let Some(value) = f.kind().stuck_value() else {
                continue;
            };
            let target = match f.site() {
                FaultSite::Pin { gate, pin } => {
                    let Some(g) = net.get(gate).filter(|g| pin < g.inputs().len()) else {
                        continue;
                    };
                    match controlling(g.kind(), value) {
                        Some(out) => Some(stuck(FaultSite::Output(gate), out)),
                        None => {
                            let d = g.inputs()[pin];
                            sole_load(d).map(|_| stuck(FaultSite::Output(d), value))
                        }
                    }
                }
                FaultSite::Output(d) => {
                    if net.get(d).is_none() {
                        continue;
                    }
                    sole_load(d).and_then(|h| {
                        let out = match net.gate(h).kind() {
                            GateKind::Buf => Some(value),
                            GateKind::Not => Some(!value),
                            kind => controlling(kind, value),
                        };
                        out.map(|v| stuck(FaultSite::Output(h), v))
                    })
                }
            };
            if let Some(t) = target {
                next.insert(f, t);
            }
        }
        let mut representatives: Vec<Fault> = listed
            .iter()
            .copied()
            .filter(|f| !next.contains_key(f))
            .collect();
        representatives.sort();
        representatives.dedup();
        ReferenceCollapse {
            next,
            representatives,
        }
    }

    fn representative(&self, mut f: Fault) -> Fault {
        while let Some(&t) = self.next.get(&f) {
            f = t;
        }
        f
    }

    fn ratio(&self, listed: usize) -> f64 {
        if listed == 0 {
            1.0
        } else {
            self.representatives.len() as f64 / listed as f64
        }
    }
}

/// Seeded xorshift draws for the design and list generators.
struct Draw(u64);

impl Draw {
    fn new(seed: u64) -> Draw {
        Draw(seed.max(1) ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn below(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }
}

/// A random design of 2-input gates, BUF/NOT chains of one to four
/// gates (which fold end to end), multi-input gates and flops, each
/// reading earlier signals. The last three gates drive outputs, and so
/// do three random ones: a gate with one load that also drives an output
/// is where the wire rules must not fold.
fn chain_design(seed: u64) -> Netlist {
    let mut rng = Draw::new(seed);
    let mut b = NetlistBuilder::new(format!("chains_{seed}"));
    let mut pool = b.inputs("i", 4);
    for _ in 0..40 {
        let x = pool[rng.below(pool.len())];
        let y = pool[rng.below(pool.len())];
        let g = match rng.below(9) {
            0 => b.and(x, y),
            1 => b.nand(x, y),
            2 => b.or(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => {
                let ins = [x, y, pool[rng.below(pool.len())]];
                if rng.below(2) == 0 {
                    b.and_n(&ins)
                } else {
                    b.or_n(&ins)
                }
            }
            6 => b.dff(x),
            _ => (0..1 + rng.below(4)).fold(x, |g, _| {
                if rng.below(2) == 0 {
                    b.buf(g)
                } else {
                    b.not(g)
                }
            }),
        };
        pool.push(g);
    }
    for (k, &g) in pool[pool.len() - 3..].iter().enumerate() {
        b.output(format!("o{k}"), g);
    }
    for k in 0..3 {
        b.output(format!("r{k}"), pool[4 + rng.below(pool.len() - 4)]);
    }
    b.finish()
}

/// The stuck-at universe of `net`, then its transition universe, then a
/// seeded third of the stuck-at faults again, then faults outside the
/// design: an output past the last gate, a pin past the last gate's
/// arity and a pin on a primary input, stuck at both values, and
/// transition faults on a pin and past the last gate.
fn mixed_universe(net: &Netlist, seed: u64) -> Vec<Fault> {
    let stuck = universe::stuck_at_universe(net);
    let mut faults = stuck.clone();
    faults.extend(universe::transition_universe(net));
    faults.extend(stuck.iter().skip(seed as usize % 3).step_by(3));
    let last = GateId(net.len() - 1);
    let pin = |gate, pin| FaultSite::Pin { gate, pin };
    let outside = [
        FaultSite::Output(GateId(net.len() + 2)),
        pin(last, net.gate(last).inputs().len()),
        pin(GateId(0), 0),
    ];
    for site in outside {
        faults.extend([false, true].map(|value| Fault::stuck_at(site, value)));
    }
    faults.extend([
        Fault::new(pin(last, 0), FaultKind::SlowToRise),
        Fault::new(FaultSite::Output(GateId(net.len())), FaultKind::SlowToFall),
    ]);
    faults
}

/// The small-design proptest above stays under the collapse's
/// serial-fallback threshold; this one design is big enough to force
/// the sharded rule pass.
#[test]
fn parallel_paths_engage_above_thresholds() {
    let net = generate::random_logic(24, 40_000, 8, 11);
    let faults = universe::stuck_at_universe(&net);
    assert!(
        faults.len() > 1 << 14,
        "universe must cross the collapse threshold"
    );
    let serial = collapse::collapse(&net, &faults);
    let parallel = collapse::collapse_with(&net, &faults, 4);
    assert_eq!(serial.representatives(), parallel.representatives());
    let mixed = mixed_universe(&net, 11);
    assert_eq!(
        collapse::collapse(&net, &mixed).representatives(),
        collapse::collapse_with(&net, &mixed, 4).representatives()
    );
}

/// The reference collapse on one design big enough for the sharded rule
/// pass, over a list with a dropped fault in every seventh place.
#[test]
fn sharded_collapse_matches_reference() {
    let net = generate::random_logic(24, 8_000, 8, 5);
    let full = mixed_universe(&net, 5);
    let listed: Vec<Fault> = full
        .iter()
        .enumerate()
        .filter(|(k, _)| k % 7 != 3)
        .map(|(_, &f)| f)
        .collect();
    assert!(listed.len() > 1 << 14, "must cross the collapse threshold");
    let want = ReferenceCollapse::new(&net, &listed);
    let got = collapse::collapse_with(&net, &listed, 3);
    for &f in &full {
        assert_eq!(got.representative(f), want.representative(f), "{f}");
    }
    assert_eq!(got.representatives(), &want.representatives[..]);
    assert_eq!(got.ratio(), want.ratio(listed.len()));
}
