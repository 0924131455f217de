//! Parallel plan construction and the compiled-artifact cache must be
//! invisible: sharded builds byte-identical to serial ones, cache reloads
//! byte-identical to fresh builds, verdicts unchanged through both.
//!
//! These properties are the entire correctness argument for the
//! million-gate scaling work — the benchmarks only measure speed because
//! this suite pins equivalence.

use proptest::prelude::*;
use rescue_campaign::{ArtifactStore, Campaign, ContentHash};
use rescue_faults::engine::{po_reachable, po_reachable_with, CampaignPlan, FaultScratch};
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::trace::{TracePlan, TraceScratch};
use rescue_faults::{collapse, universe, Fault, FaultSite};
use rescue_netlist::{generate, GateId, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_sim::wide::pack_patterns_wide;
use rescue_telemetry::{metrics, TelemetryConfig};

fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
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

fn scratch_store(tag: &str, seed: u64) -> (std::path::PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!(
        "rescue-plan-eq-{tag}-{seed}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir);
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded cone construction concatenates to exactly the serial CSR.
    #[test]
    fn parallel_plan_build_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let serial = CampaignPlan::build(&c, &faults);
        let parallel = CampaignPlan::build_with(&c, &faults, workers);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.to_bytes(), parallel.to_bytes());
    }

    /// Trace-plan construction (net classification, PO-reachability
    /// sweep and chain ascent) shards without changing a byte.
    #[test]
    fn parallel_trace_build_matches_serial(seed in 1u64..500, workers in 2usize..5) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let serial = TracePlan::build(&c, &faults);
        let parallel = TracePlan::build_with(&c, &faults, workers);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.to_bytes(), parallel.to_bytes());
    }

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

    /// Wire round trips reconstruct plans exactly, so a cache hit is
    /// indistinguishable from a fresh build.
    #[test]
    fn plan_wire_round_trips(seed in 1u64..500) {
        let net = generate::random_logic(8, 120, 4, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let plan = CampaignPlan::build(&c, &faults);
        prop_assert_eq!(CampaignPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
        let tplan = TracePlan::build(&c, &faults);
        prop_assert_eq!(TracePlan::from_bytes(&tplan.to_bytes()).unwrap(), tplan);
        let compiled_bytes = c.to_bytes();
        prop_assert_eq!(CompiledNetlist::from_bytes(&compiled_bytes).unwrap(), c);
    }

    /// End to end through the artifact store: a cold campaign publishes
    /// its plans, a warm one reloads them, and verdicts are identical to
    /// running with no cache at all — across lane widths, collapse and
    /// tracing settings.
    #[test]
    fn cached_campaign_matches_uncached(
        seed in 1u64..200,
        wide in any::<bool>(),
        tracing in any::<bool>(),
        collapsed in any::<bool>(),
    ) {
        let lane_width = if wide { 4 } else { 1 };
        let net = generate::random_logic(6, 80, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(6, 48, seed);
        let campaign = Campaign::new(seed, 2);
        let cu = collapse::collapse(&net, &faults);
        let mut opts = PackedOptions::wide(lane_width);
        if tracing {
            opts = opts.traced();
        }
        if collapsed {
            opts = opts.with_collapsed(&cu);
        }
        let baseline =
            FaultSimulator::new(&net).campaign_packed(&faults, &patterns, &campaign, opts);

        let (dir, store) = scratch_store("e2e", seed);
        for pass in ["cold", "warm"] {
            let sim = FaultSimulator::new_cached(&net, &store);
            let run = sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
            prop_assert_eq!(
                run.report.first_detection(),
                baseline.report.first_detection(),
                "{} cache pass diverged",
                pass
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncated, bit-flipped and spliced plan bytes never panic: through
    /// the cache decode path (decode, then validate against the design)
    /// each yields nothing or a plan that detects every fault without
    /// panicking. A payload of the previous wire version reads as a miss.
    #[test]
    fn mutated_plan_bytes_decode_or_miss(
        seed in 1u64..500,
        cut in any::<u64>(),
        flip in any::<u64>(),
        splice in any::<u64>(),
    ) {
        let net = generate::random_logic(6, 60, 3, seed);
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let donor_net = generate::random_logic(6, 90, 3, seed + 1);
        let donor_c = CompiledNetlist::new(&donor_net);
        let donor = universe::stuck_at_universe(&donor_net);
        let words = pack_patterns_wide::<u64>(&random_patterns(6, 64, seed));
        let mut golden = Vec::new();
        c.eval_words_into(&words, None, &mut golden).unwrap();
        let wires = [
            (
                CampaignPlan::build(&c, &faults).to_bytes(),
                CampaignPlan::build(&donor_c, &donor).to_bytes(),
            ),
            (
                TracePlan::build(&c, &faults).to_bytes(),
                TracePlan::build(&donor_c, &donor).to_bytes(),
            ),
        ];
        for (kind, (wire, donor_wire)) in wires.iter().enumerate() {
            let len = wire.len();
            // Eight single-bit flips per case, spread over the payload.
            let flipped = (0..8u64).map(|k| {
                let mut bytes = wire.clone();
                let bit = (flip ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize % (len * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            });
            let at = splice as usize % len;
            let mut spliced = wire[..at].to_vec();
            spliced.extend_from_slice(&donor_wire[at.min(donor_wire.len())..]);
            let mut stale = wire.clone();
            stale[0] = 1;
            prop_assert!(decode_and_use(kind, &stale, &c, &golden, &faults).is_none());
            decode_and_use(kind, &wire[..cut as usize % len], &c, &golden, &faults);
            decode_and_use(kind, &spliced, &c, &golden, &faults);
            for bytes in flipped {
                decode_and_use(kind, &bytes, &c, &golden, &faults);
            }
        }
    }
}

/// The stuck-at universe of `net`, then its transition universe, then a
/// seeded third of the stuck-at faults again, then faults outside the
/// design: an output past the last gate, a pin past the last gate's
/// arity and a pin on a primary input.
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
    faults
}

/// Decodes `bytes` as a campaign plan (`kind == 0`) or a trace plan the
/// way the artifact cache does, then runs every fault through it; the
/// count of detecting faults, or `None` on a cache miss.
fn decode_and_use(
    kind: usize,
    bytes: &[u8],
    c: &CompiledNetlist,
    golden: &[u64],
    faults: &[Fault],
) -> Option<usize> {
    if kind == 0 {
        let plan = CampaignPlan::from_bytes(bytes).filter(|p| p.validate(c))?;
        // Every cone the scalar walks would scan slices in bounds and
        // names real gates.
        let cones = (0..c.len()).filter_map(|g| plan.cone_of(g));
        assert!(cones.flatten().all(|&m| (m as usize) < c.len()));
        let mut scratch = FaultScratch::new(c.len());
        scratch.load_golden(golden);
        let detect = |&f: &Fault| plan.detect_packed(c, golden, &mut scratch, f).ok();
        Some(faults.iter().filter_map(detect).filter(|&m| m != 0).count())
    } else {
        let tplan = TracePlan::from_bytes(bytes).filter(|p| p.validate(c))?;
        let mut scratch = TraceScratch::new(c.len());
        scratch.load_golden(golden);
        let detect = |&f: &Fault| tplan.detect_traced(c, golden, &mut scratch, f).ok();
        Some(faults.iter().filter_map(detect).filter(|&m| m != 0).count())
    }
}

/// A checksum-valid cache entry holding a plan of another design is
/// rejected by validation and rebuilt, never used.
#[test]
fn foreign_plans_in_the_cache_are_rebuilt() {
    let net = generate::random_logic(6, 80, 3, 9);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(6, 48, 9);
    let campaign = Campaign::new(9, 2);
    let foreign_net = generate::random_logic(6, 40, 3, 10);
    let foreign = CompiledNetlist::new(&foreign_net);
    let foreign_faults = universe::stuck_at_universe(&foreign_net);
    let (dir, store) = scratch_store("foreign", 9);
    for opts in [PackedOptions::wide(4), PackedOptions::wide(4).traced()] {
        let fresh = FaultSimulator::new(&net).campaign_packed(&faults, &patterns, &campaign, opts);
        let sim = FaultSimulator::new_cached(&net, &store);
        sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
        // Swap every published plan for a well-formed plan of `foreign`.
        for entry in std::fs::read_dir(store.dir()).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let key = ContentHash(u128::from_str_radix(&name[..32], 16).unwrap());
            let bytes = store.load(key).unwrap();
            let swapped = if CampaignPlan::from_bytes(&bytes).is_some() {
                CampaignPlan::build(&foreign, &foreign_faults).to_bytes()
            } else if TracePlan::from_bytes(&bytes).is_some() {
                TracePlan::build(&foreign, &foreign_faults).to_bytes()
            } else {
                continue;
            };
            store.save(key, &swapped).unwrap();
        }
        let run = sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
        assert_eq!(run.report.first_detection(), fresh.report.first_detection());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache directory that cannot be written (a plain file stands where
/// the artifact directory should be) costs rebuilds, counted as write
/// errors, and never a verdict.
#[test]
fn unwritable_artifact_cache_never_stops_a_campaign() {
    let _exclusive = rescue_telemetry::exclusive();
    let net = generate::random_logic(6, 80, 3, 5);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(6, 48, 5);
    let campaign = Campaign::new(5, 2);
    let opts = PackedOptions::wide(4);
    let baseline = FaultSimulator::new(&net).campaign_packed(&faults, &patterns, &campaign, opts);
    let (dir, store) = scratch_store("unwritable", 5);
    std::fs::remove_dir_all(store.dir()).unwrap();
    std::fs::write(store.dir(), b"not a directory").unwrap();
    TelemetryConfig::on().install();
    let before = metrics::counter("plan.cache_write_errors").get();
    for opts in [opts, opts.traced()] {
        let sim = FaultSimulator::new_cached(&net, &store);
        let run = sim.campaign_packed(&faults, &patterns, &campaign, opts.with_artifacts(&store));
        assert_eq!(
            run.report.first_detection(),
            baseline.report.first_detection()
        );
    }
    let errors = metrics::counter("plan.cache_write_errors").get() - before;
    TelemetryConfig::off().install();
    std::fs::remove_dir_all(&dir).ok();
    // Two arena publishes and one plan publish per engine.
    assert_eq!(errors, 4);
}

/// The small-design proptests above stay under the serial-fallback
/// thresholds for the level sweep, net classification and collapse; this
/// one design is big enough to force every parallel code path.
#[test]
fn parallel_paths_engage_above_thresholds() {
    let net = generate::random_logic(24, 40_000, 8, 11);
    let c = CompiledNetlist::new(&net);
    assert_eq!(po_reachable(&c), po_reachable_with(&c, 4));

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

    // A strided fault subset keeps the cone DFS affordable while still
    // exercising the sharded builders on a >2^15-gate design.
    let subset: Vec<_> = faults.iter().copied().step_by(97).collect();
    assert_eq!(
        CampaignPlan::build(&c, &subset).to_bytes(),
        CampaignPlan::build_with(&c, &subset, 4).to_bytes()
    );
    assert_eq!(
        TracePlan::build(&c, &subset).to_bytes(),
        TracePlan::build_with(&c, &subset, 4).to_bytes()
    );
}
