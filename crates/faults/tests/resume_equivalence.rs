//! Durable campaigns ≡ plain campaigns, under every interruption.
//!
//! The acceptance bar for the content-addressed work-unit refactor: a
//! durable campaign must reproduce the plain engine's verdicts and
//! outcome tallies bit for bit whether it starts cold, resumes a store
//! holding any subset of finished units (a killed run), shares the
//! store with a concurrent writer, or re-submits against a complete
//! store (executing zero units) — across lane widths, collapse/tracing
//! settings, schedules, worker counts and unit grains. A
//! forged, misfiled, torn or spliced record is re-executed, never
//! trusted, and a store directory that cannot hold claims or records
//! costs persistence, never a verdict. The plan itself must be
//! engine-configuration-stable so any process can resume it.

use proptest::prelude::*;
use rescue_campaign::{
    Campaign, ContentHash, FsStore, MemStore, ResultStore, Schedule, UnitRecord,
};
use rescue_faults::collapse::collapse;
use rescue_faults::simulate::{FaultSimulator, PackedOptions};
use rescue_faults::universe;
use rescue_netlist::generate;
use rescue_telemetry::{metrics, TelemetryConfig};

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

/// A workload whose collapsed/traced variants all exercise dropping,
/// expansion and undetected faults.
struct Workload {
    net: rescue_netlist::Netlist,
    patterns: Vec<Vec<bool>>,
}

impl Workload {
    fn new(seed: u64) -> Self {
        Workload {
            net: generate::random_logic(7, 110, 4, seed),
            patterns: random_patterns(7, 200, seed),
        }
    }
}

/// A fresh directory under the system temp dir, unique per call.
fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "rescue-resume-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Runs the plain and durable engines over the same workload and
/// checks cold/resume/warm equivalence for one engine configuration.
fn check_resume(seed: u64, lane_width: usize, collapsed: bool, tracing: bool, workers: usize) {
    let w = Workload::new(seed);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let cu = collapsed.then(|| collapse(&w.net, &faults));
    let mk_opts = || {
        let mut opts = PackedOptions::wide(lane_width);
        if let Some(cu) = &cu {
            opts = opts.with_collapsed(cu);
        }
        if tracing {
            opts = opts.traced();
        }
        opts
    };
    let campaign = Campaign::new(seed, workers);
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, mk_opts());

    // Cold durable run: everything executes, verdicts match plain.
    let store = MemStore::new();
    let grain = 32;
    let cold =
        sim.campaign_packed_durable(&faults, &w.patterns, &campaign, mk_opts(), &store, grain);
    assert_eq!(cold.report, plain.report, "cold durable ≡ plain");
    assert_eq!(cold.stats.tally, plain.stats.tally);
    assert_eq!(cold.stats.dropped, plain.stats.dropped);
    let manifest = sim.durable_plan(&faults, &w.patterns, &mk_opts(), grain);
    assert_eq!(cold.stats.units_total, manifest.units.len());
    assert_eq!(cold.stats.units_executed, manifest.units.len());

    // Kill simulation: keep every other unit (as if the process died
    // mid-campaign), resume under a different worker count and
    // schedule — verdicts and tallies must not move.
    let partial = MemStore::new();
    for (ui, unit) in manifest.units.iter().enumerate() {
        if ui % 2 == 0 {
            partial.put(unit.id, &store.get(unit.id).expect("cold run stored it"));
        }
    }
    let kept = manifest.units.len().div_ceil(2);
    let resumer = Campaign {
        schedule: Schedule::Dynamic { chunk: 1 },
        ..Campaign::new(seed ^ 0xdead, workers % 3 + 1)
    };
    let resumed =
        sim.campaign_packed_durable(&faults, &w.patterns, &resumer, mk_opts(), &partial, grain);
    assert_eq!(resumed.report, plain.report, "resumed ≡ uninterrupted");
    assert_eq!(resumed.stats.tally, plain.stats.tally);
    assert_eq!(resumed.stats.units_cached, kept);
    assert_eq!(
        resumed.stats.units_executed,
        manifest.units.len() - kept,
        "resume executes only the missing units"
    );

    // Warm re-submission: the store is now complete → zero executions.
    let warm =
        sim.campaign_packed_durable(&faults, &w.patterns, &campaign, mk_opts(), &partial, grain);
    assert_eq!(warm.report, plain.report);
    assert_eq!(warm.stats.units_executed, 0, "warm run executes nothing");
    assert_eq!(warm.stats.units_cached, manifest.units.len());
    assert_eq!(warm.stats.cache_hit_ratio(), 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scalar-width durable campaigns resume bit-identically across
    /// collapse settings and worker counts.
    #[test]
    fn resume_is_bit_identical_w1(seed in 1u64..500, collapsed: bool, workers in 1usize..5) {
        check_resume(seed, 1, collapsed, false, workers);
    }

    /// Wide-word (W=4) durable campaigns resume bit-identically, with
    /// and without critical-path tracing.
    #[test]
    fn resume_is_bit_identical_w4(seed in 1u64..500, tracing: bool, workers in 1usize..5) {
        check_resume(seed, 4, true, tracing, workers);
    }
}

/// The plan is a pure function of campaign content: stable across
/// processes (same ids every time), insensitive to workers/schedule,
/// and keyed on everything that changes verdict identity.
#[test]
fn durable_plan_is_content_addressed() {
    let w = Workload::new(42);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let opts = PackedOptions::wide(2);
    let a = sim.durable_plan(&faults, &w.patterns, &opts, 16);
    let b = sim.durable_plan(&faults, &w.patterns, &opts, 16);
    assert_eq!(a, b, "same campaign, same plan");
    assert_eq!(
        a.total_items,
        faults.len(),
        "uncollapsed plan covers the universe"
    );
    // Patterns are part of the identity...
    let other = sim.durable_plan(&faults, &w.patterns[..100], &opts, 16);
    assert_ne!(a.campaign, other.campaign);
    // ...and so is the engine configuration.
    let traced = sim.durable_plan(&faults, &w.patterns, &opts.traced(), 16);
    assert_ne!(a.campaign, traced.campaign);
    // Collapsing shrinks the plan to the walk list.
    let cu = collapse(&w.net, &faults);
    let collapsed = sim.durable_plan(&faults, &w.patterns, &opts.with_collapsed(&cu), 16);
    assert!(collapsed.total_items < faults.len());
}

/// Two concurrent writers on one filesystem store partition the units
/// between them — no unit executes twice, both reproduce the plain
/// verdicts.
#[test]
fn two_processes_share_one_fs_store() {
    let w = Workload::new(7);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let plain = sim.campaign_packed(
        &faults,
        &w.patterns,
        &Campaign::serial(),
        PackedOptions::default(),
    );
    let root = temp_root("eq");
    let grain = 8;
    let (a, b) = std::thread::scope(|scope| {
        let spawn = |seed: u64| {
            let root = root.clone();
            let sim = &sim;
            let faults = &faults;
            let patterns = &w.patterns;
            scope.spawn(move || {
                let store = FsStore::open(root);
                sim.campaign_packed_durable(
                    faults,
                    patterns,
                    &Campaign::new(seed, 2),
                    PackedOptions::default(),
                    &store,
                    grain,
                )
            })
        };
        let ha = spawn(1);
        let hb = spawn(2);
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.report, plain.report);
    assert_eq!(b.report, plain.report);
    let units = sim
        .durable_plan(&faults, &w.patterns, &PackedOptions::default(), grain)
        .units
        .len();
    assert_eq!(
        a.stats.units_executed + b.stats.units_executed,
        units,
        "claims partition the units: nothing double-executed, nothing lost"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A checksum-valid unit record whose verdicts name patterns past the
/// end of the campaign is corrupt: the resumed run re-executes that unit
/// and counts it in `store.corrupt_records`, and no forged detection
/// reaches the report.
#[test]
fn forged_out_of_range_verdicts_are_re_executed() {
    let _exclusive = rescue_telemetry::exclusive();
    let w = Workload::new(5);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let campaign = Campaign::serial();
    let opts = PackedOptions::default();
    let grain = 32;
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
    let root = temp_root("forged");
    let store = FsStore::open(&root);
    sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
    let manifest = sim.durable_plan(&faults, &w.patterns, &opts, grain);
    let unit = &manifest.units[0];
    let honest = store.get(unit.id).expect("the cold run stored unit 0");
    let mut payload = (unit.range.len() as u64).to_le_bytes().to_vec();
    for _ in unit.range.clone() {
        payload.extend_from_slice(&1_000_000u64.to_le_bytes());
    }
    store.put(
        unit.id,
        &UnitRecord {
            unit: unit.id,
            stats: honest.stats,
            payload,
        },
    );

    TelemetryConfig::on().install();
    let before = metrics::counter("store.corrupt_records").get();
    let resumed = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
    let corrupt = metrics::counter("store.corrupt_records").get() - before;
    TelemetryConfig::off().install();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(
        resumed.report, plain.report,
        "forged verdicts reached the report"
    );
    assert_eq!(
        resumed.stats.units_executed, 1,
        "only the forged unit re-executes"
    );
    assert_eq!(resumed.stats.units_cached, manifest.units.len() - 1);
    assert_eq!(corrupt, 1);
}

/// A store whose `units/` directory cannot be written (a plain file
/// stands where it should be) loses every record, counted in
/// `store.write_errors`, and never a verdict: the durable report equals
/// the plain one, and every claim is released.
#[test]
fn unwritable_store_never_stops_a_durable_campaign() {
    let _exclusive = rescue_telemetry::exclusive();
    let w = Workload::new(7);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let campaign = Campaign::new(7, 2);
    let opts = PackedOptions::default();
    let grain = 32;
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
    let root = temp_root("unwritable");
    let store = FsStore::open(&root);
    std::fs::remove_dir_all(root.join("units")).unwrap();
    std::fs::write(root.join("units"), b"not a directory").unwrap();

    TelemetryConfig::on().install();
    let before = metrics::counter("store.write_errors").get();
    let run = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
    let errors = metrics::counter("store.write_errors").get() - before;
    TelemetryConfig::off().install();
    let claims_left = std::fs::read_dir(root.join("claims")).unwrap().count();
    let _ = std::fs::remove_dir_all(&root);

    let units = sim
        .durable_plan(&faults, &w.patterns, &opts, grain)
        .units
        .len();
    assert!(units > 1);
    assert_eq!(run.report, plain.report, "a lost record changed a verdict");
    assert_eq!(run.stats.units_executed, units);
    assert_eq!(errors, units as u64, "every failed write is counted");
    assert_eq!(claims_left, 0, "every claim is released");
}

/// Runs the serial cold durable campaign of `Workload::new(5)` at grain
/// 32 into `store`, files unit 0's record under unit 1's id with
/// `misfile`, and resumes: the misfiled record must read as corrupt
/// (`store.corrupt_records`) and re-execute, and the report must equal
/// the plain one.
fn check_misfiled_record(store: &dyn ResultStore, misfile: impl FnOnce(ContentHash, ContentHash)) {
    let w = Workload::new(5);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let campaign = Campaign::serial();
    let opts = PackedOptions::default();
    let grain = 32;
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
    sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, store, grain);
    let manifest = sim.durable_plan(&faults, &w.patterns, &opts, grain);
    let (u0, u1) = (&manifest.units[0], &manifest.units[1]);
    assert_eq!(u0.range.len(), u1.range.len(), "same-length records");
    misfile(u0.id, u1.id);

    TelemetryConfig::on().install();
    let before = metrics::counter("store.corrupt_records").get();
    let resumed = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, store, grain);
    let corrupt = metrics::counter("store.corrupt_records").get() - before;
    TelemetryConfig::off().install();

    assert_eq!(
        resumed.report, plain.report,
        "a misfiled record was trusted"
    );
    assert_eq!(
        resumed.stats.units_executed, 1,
        "only the misfiled unit re-runs"
    );
    assert_eq!(resumed.stats.units_cached, manifest.units.len() - 1);
    assert_eq!(corrupt, 1);
    assert_eq!(store.get(u1.id).expect("healed").unit, u1.id);
}

/// A record filed under another unit's id in a [`MemStore`] is caught by
/// the id the record carries.
#[test]
fn record_filed_under_another_unit_is_re_executed_mem_store() {
    let _exclusive = rescue_telemetry::exclusive();
    let store = MemStore::new();
    check_misfiled_record(&store, |from, to| {
        store.put(to, &store.get(from).expect("the cold run stored it"));
    });
}

/// A unit file copied over another unit's file in an [`FsStore`] is
/// caught by the id in the record envelope.
#[test]
fn record_filed_under_another_unit_is_re_executed_fs_store() {
    let _exclusive = rescue_telemetry::exclusive();
    let root = temp_root("misfiled");
    let store = FsStore::open(&root);
    let unit = |id: ContentHash| root.join("units").join(format!("{id}.unit"));
    check_misfiled_record(&store, |from, to| {
        std::fs::copy(unit(from), unit(to)).unwrap();
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// A store whose `claims/` directory is a regular file cannot hold a
/// claim for anyone: every failed claim is counted in
/// `store.write_errors`, every unit executes unclaimed instead of
/// waiting on a peer that cannot exist, and the report equals the plain
/// one.
#[test]
fn unusable_claims_directory_executes_every_unit() {
    let _exclusive = rescue_telemetry::exclusive();
    let w = Workload::new(9);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let campaign = Campaign::new(9, 2);
    let opts = PackedOptions::default();
    let grain = 32;
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
    let root = temp_root("claims-file");
    let store = FsStore::open(&root);
    std::fs::remove_dir_all(root.join("claims")).unwrap();
    std::fs::write(root.join("claims"), b"not a directory").unwrap();

    TelemetryConfig::on().install();
    let before = metrics::counter("store.write_errors").get();
    let run = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
    let errors = metrics::counter("store.write_errors").get() - before;
    TelemetryConfig::off().install();
    let stored = store.completed_units();
    let _ = std::fs::remove_dir_all(&root);

    let units = sim
        .durable_plan(&faults, &w.patterns, &opts, grain)
        .units
        .len();
    assert_eq!(run.report, plain.report);
    assert_eq!(run.stats.units_executed, units);
    assert_eq!(errors, units as u64, "one failed claim per unit");
    assert_eq!(stored, units, "records still land");
}

/// A store opened under a regular file has no directory at all: the
/// open is counted, not fatal, and the campaign returns the plain
/// report.
#[test]
fn store_under_a_regular_file_still_grades() {
    // Its failed writes count toward the counters sibling tests read.
    let _exclusive = rescue_telemetry::exclusive();
    let w = Workload::new(11);
    let faults = universe::stuck_at_universe(&w.net);
    let sim = FaultSimulator::new(&w.net);
    let campaign = Campaign::new(11, 2);
    let opts = PackedOptions::wide(4).traced();
    let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
    let file = temp_root("regular-file");
    std::fs::write(&file, b"a regular file").unwrap();
    let store = FsStore::open(file.join("store"));
    let run = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, 32);
    let _ = std::fs::remove_file(&file);
    assert_eq!(run.report, plain.report);
    assert_eq!(run.stats.units_executed, run.stats.units_total);
}

/// One seeded mutation of the unit file at `target`: truncation, a
/// flipped bit, a splice with the record at `other`, or a copy of it.
fn mutate_unit_file(target: &[u8], other: &[u8], kind: usize, pick: u64) -> Vec<u8> {
    match kind {
        0 => target[..pick as usize % target.len()].to_vec(),
        1 => {
            let bit = pick as usize % (target.len() * 8);
            let mut out = target.to_vec();
            out[bit / 8] ^= 1 << (bit % 8);
            out
        }
        2 => {
            let cut = pick as usize % (target.len() + 1);
            let mut out = target[..cut].to_vec();
            out.extend_from_slice(&other[cut.min(other.len())..]);
            out
        }
        _ => other.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mutated `FsStore` unit files after a cold run: each case mutates
    /// one to three unit files (truncate, flip one bit, splice two
    /// records, or copy another unit's file). The resumed report equals
    /// the plain one, exactly the units whose files changed re-execute,
    /// and nothing panics.
    #[test]
    fn mutated_unit_files_re_execute_exactly_the_changed_units(
        seed in 1u64..500,
        lane_width in prop_oneof![Just(1usize), Just(4usize)],
        tracing: bool,
        workers in 1usize..3,
        mutations in proptest::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..4),
    ) {
        // Its corrupt records count toward the counters sibling tests read.
        let _exclusive = rescue_telemetry::exclusive();
        let w = Workload::new(seed);
        let faults = universe::stuck_at_universe(&w.net);
        let sim = FaultSimulator::new(&w.net);
        let campaign = Campaign::new(seed, workers);
        let opts = if tracing {
            PackedOptions::wide(lane_width).traced()
        } else {
            PackedOptions::wide(lane_width)
        };
        let grain = 32;
        let plain = sim.campaign_packed(&faults, &w.patterns, &campaign, opts);
        let root = temp_root("mutated");
        let store = FsStore::open(&root);
        sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
        let manifest = sim.durable_plan(&faults, &w.patterns, &opts, grain);
        let path = |ui: usize| root.join("units").join(format!("{}.unit", manifest.units[ui].id));
        let n = manifest.units.len();
        prop_assert!(n > 1);
        let original: Vec<Vec<u8>> = (0..n).map(|ui| std::fs::read(path(ui)).unwrap()).collect();
        for &(kind, target, pick) in &mutations {
            let t = target as usize % n;
            let o = (t + 1 + pick as usize % (n - 1)) % n;
            let mutated = mutate_unit_file(&original[t], &original[o], kind, pick);
            std::fs::write(path(t), mutated).unwrap();
        }
        let changed = (0..n)
            .filter(|&ui| std::fs::read(path(ui)).unwrap() != original[ui])
            .count();

        let resumed = sim.campaign_packed_durable(&faults, &w.patterns, &campaign, opts, &store, grain);
        let _ = std::fs::remove_dir_all(&root);
        prop_assert_eq!(&resumed.report, &plain.report);
        prop_assert_eq!(resumed.stats.units_executed, changed);
        prop_assert_eq!(resumed.stats.units_cached, n - changed);
    }
}
