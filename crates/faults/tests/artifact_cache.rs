//! The plan cache under file-level faults: truncated, bit-flipped,
//! spliced, swapped and misfiled `.art` files, and a cache root that
//! cannot hold a directory. Whatever happens to the files, the next
//! campaign must equal the uncached one, count each bad file as a miss
//! (and rebuild it), and never panic. Compiled arenas are not cached:
//! `FaultSimulator::new_cached` compiles and leaves the files alone.
//!
//! Every test here reads the global `plan.*` counters, so each holds
//! [`rescue_telemetry::exclusive`] while it runs.

use proptest::prelude::*;
use rescue_campaign::store::CanonicalHasher;
use rescue_campaign::{ArtifactStore, Campaign, ContentHash};
use rescue_faults::collapse::{collapse, CollapsedUniverse};
use rescue_faults::simulate::{CampaignReport, FaultSimulator, PackedOptions};
use rescue_faults::{content, universe, Fault};
use rescue_netlist::{generate, Netlist};
use rescue_sim::compiled::CompiledNetlist;
use rescue_telemetry::journal::{self, Journal};
use rescue_telemetry::{metrics, TelemetryConfig};
use std::path::PathBuf;

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

fn temp_root(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rescue-artifact-cache-{tag}-{seed}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A design with its collapsed campaigns, walked and traced.
struct Design {
    net: Netlist,
    faults: Vec<Fault>,
    patterns: Vec<Vec<bool>>,
    collapsed: CollapsedUniverse,
}

impl Design {
    /// `random_logic(6, 80, 3, seed)`.
    fn new(seed: u64) -> Design {
        let net = generate::random_logic(6, 80, 3, seed);
        let faults = universe::stuck_at_universe(&net);
        let patterns = random_patterns(net.primary_inputs().len(), 100, seed);
        let collapsed = collapse(&net, &faults);
        Design {
            net,
            faults,
            patterns,
            collapsed,
        }
    }

    /// The walked (`tracing == false`) or traced campaign, its plan
    /// through `artifacts` when given.
    fn campaign(&self, tracing: bool, artifacts: Option<&ArtifactStore>) -> CampaignReport {
        let mut opts = PackedOptions::wide(2).with_collapsed(&self.collapsed);
        if tracing {
            opts = opts.traced();
        }
        if let Some(store) = artifacts {
            opts = opts.with_artifacts(store);
        }
        let sim = FaultSimulator::new(&self.net);
        sim.campaign_packed(&self.faults, &self.patterns, &Campaign::new(7, 2), opts)
            .report
    }

    /// Both campaigns: through a cache they read or publish one walk
    /// plan and one trace plan.
    fn run(&self, artifacts: Option<&ArtifactStore>) -> [CampaignReport; 2] {
        [false, true].map(|tracing| self.campaign(tracing, artifacts))
    }
}

/// `(hits, misses, write errors)` of the artifact cache so far.
fn counters() -> (u64, u64, u64) {
    let get = |name| metrics::counter(name).get();
    (
        get("plan.cache_hits"),
        get("plan.cache_misses"),
        get("plan.cache_write_errors"),
    )
}

/// Runs `f` with telemetry on; returns its output and how far the
/// artifact counters moved.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    TelemetryConfig::on().install();
    let before = counters();
    let out = f();
    let after = counters();
    TelemetryConfig::off().install();
    (
        out,
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    )
}

/// The artifact files of `store`, by key.
fn files(store: &ArtifactStore) -> Vec<ContentHash> {
    let mut keys: Vec<ContentHash> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            ContentHash(u128::from_str_radix(&name[..32], 16).unwrap())
        })
        .collect();
    keys.sort();
    keys
}

fn path(store: &ArtifactStore, key: ContentHash) -> PathBuf {
    store.dir().join(format!("{key}.art"))
}

/// The gate table is derived state: both constructors build it, under
/// a `sim.gate_table` span inside `sim.compile`.
#[test]
fn the_gate_table_builds_inside_sim_compile_on_every_path() {
    let _exclusive = rescue_telemetry::exclusive();
    let d = Design::new(3);
    let root = temp_root("table", 3);
    let store = ArtifactStore::open(&root);
    for path in ["new", "new_cached"] {
        let mark = journal::mark();
        counted(|| match path {
            "new" => FaultSimulator::new(&d.net),
            _ => FaultSimulator::new_cached(&d.net, &store),
        });
        let spans = Journal::snapshot_since(mark).spans();
        let [compile] = spans
            .iter()
            .filter(|s| s.name == "sim.compile")
            .collect::<Vec<_>>()[..]
        else {
            panic!("{path}: one sim.compile span");
        };
        let tables: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "sim.gate_table")
            .collect();
        assert_eq!(tables.len(), 1, "{path}: one table build");
        let t = tables[0];
        assert!(
            t.tid == compile.tid
                && compile.start_ns <= t.start_ns
                && t.start_ns + t.dur_ns <= compile.start_ns + compile.dur_ns,
            "{path}: the table build sits inside sim.compile"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The key builds that cached compiled arenas filed one under.
fn arena_key(net: &Netlist) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.compiled.v1");
    h.write_u128(content::hash_netlist_source(net).0);
    h.finish()
}

/// A cache that older builds filled with arenas as well as plans: one
/// design's arena file intact, the other's truncated. `new_cached`
/// equals `new`, moves no `plan.*` counter and leaves every file
/// byte-identical, so it never reads them.
#[test]
fn new_cached_compiles_and_never_reads_the_cache() {
    let _exclusive = rescue_telemetry::exclusive();
    let designs = [11, 12].map(Design::new);
    let root = temp_root("arenas", 11);
    let store = ArtifactStore::open(&root);
    for d in &designs {
        d.run(Some(&store));
        let arena = CompiledNetlist::new(&d.net).to_bytes();
        store.save(arena_key(&d.net), &arena).unwrap();
    }
    let truncated = path(&store, arena_key(&designs[1].net));
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let snapshot = |store: &ArtifactStore| -> Vec<(ContentHash, Vec<u8>)> {
        let read = |k| (k, std::fs::read(path(store, k)).unwrap());
        files(store).into_iter().map(read).collect()
    };
    let before = snapshot(&store);
    assert_eq!(before.len(), 6, "two plans and an arena per design");
    for d in &designs {
        let (sim, moved) = counted(|| FaultSimulator::new_cached(&d.net, &store));
        assert_eq!(moved, (0, 0, 0), "no plan.* counter moves");
        assert_eq!(sim.compiled(), FaultSimulator::new(&d.net).compiled());
    }
    assert_eq!(snapshot(&store), before, "every file byte-identical");
    std::fs::remove_dir_all(&root).ok();
}

/// A cache root under a regular file: `open` counts the directory it
/// cannot create, every save fails and is counted, and the campaign
/// equals the uncached one.
#[test]
fn a_cache_root_under_a_file_costs_rebuilds_not_the_campaign() {
    let _exclusive = rescue_telemetry::exclusive();
    let d = Design::new(5);
    let root = temp_root("blocked", 5);
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("plain-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let (report, (hits, misses, errors)) = counted(|| {
        let store = ArtifactStore::open(&file);
        d.campaign(true, Some(&store))
    });
    assert_eq!(report, d.campaign(true, None));
    assert_eq!((hits, misses), (0, 1), "the plan misses");
    assert_eq!(errors, 2, "the directory, then the plan");
    std::fs::remove_dir_all(&root).ok();
}

/// One file-level fault: `(kind, file, salt)`. Kinds: 0 truncate, 1 bit
/// flip, 2 splice with another file, 3 swap with another file.
type Mutation = (usize, usize, u64);

/// Applies `m` to `bytes`, the current contents of the four files.
fn mutate(bytes: &mut [Vec<u8>], (kind, at, salt): Mutation) {
    let other = (at + 1 + salt as usize % (bytes.len() - 1)) % bytes.len();
    let len = bytes[at].len();
    if len == 0 && kind < 2 {
        return; // nothing left to cut or flip
    }
    match kind {
        0 => bytes[at].truncate(salt as usize % len),
        1 => {
            let bit = salt as usize % (len * 8);
            bytes[at][bit / 8] ^= 1 << (bit % 8);
        }
        2 => {
            let cut = salt as usize % len.max(1);
            let tail = bytes[other].get(cut..).unwrap_or_default().to_vec();
            bytes[at].truncate(cut);
            bytes[at].extend_from_slice(&tail);
        }
        _ => bytes.swap(at, other),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm a cache with two designs (a walk plan and a trace plan
    /// each), then truncate, flip, splice or swap 1–3 of the four files.
    /// The next campaigns of each design equal the uncached ones, each
    /// changed file is one miss and every other file a hit, and a third
    /// pass hits everywhere: the misses were rebuilt.
    #[test]
    fn mutated_artifact_files_rebuild_and_count_as_misses(
        seed in 1u64..300,
        mutations in proptest::collection::vec((0usize..4, 0usize..4, any::<u64>()), 1..4),
    ) {
        let _exclusive = rescue_telemetry::exclusive();
        let designs = [seed, seed + 1000].map(Design::new);
        let want = designs.each_ref().map(|d| d.run(None));
        let root = temp_root("mutate", seed);
        let store = ArtifactStore::open(&root);
        prop_assert_eq!(&designs.each_ref().map(|d| d.run(Some(&store))), &want);
        let keys = files(&store);
        prop_assert_eq!(keys.len(), 4, "two walk plans and two trace plans");
        let original: Vec<Vec<u8>> = keys.iter().map(|&k| std::fs::read(path(&store, k)).unwrap()).collect();
        let mut bytes = original.clone();
        for &m in &mutations {
            mutate(&mut bytes, m);
        }
        for (&k, b) in keys.iter().zip(&bytes) {
            std::fs::write(path(&store, k), b).unwrap();
        }
        let bad = bytes.iter().zip(&original).filter(|(b, o)| b != o).count() as u64;

        let (reports, (hits, misses, _)) =
            counted(|| designs.each_ref().map(|d| d.run(Some(&store))));
        prop_assert_eq!(&reports, &want, "mutations {:?}", &mutations);
        prop_assert_eq!((hits, misses), (4 - bad, bad), "mutations {:?}", &mutations);
        let (_, (hits, misses, _)) = counted(|| designs.each_ref().map(|d| d.run(Some(&store))));
        prop_assert_eq!((hits, misses), (4, 0), "every bad file was rebuilt");
        std::fs::remove_dir_all(&root).ok();
    }
}
