//! The compiled-artifact cache under file-level faults: truncated,
//! bit-flipped, spliced, swapped and misfiled `.art` files, and a cache
//! root that cannot hold a directory. Whatever happens to the files, the
//! next campaign must equal the uncached one, count each bad file as a
//! miss (and rebuild it), and never panic.
//!
//! Every test here reads the global `plan.*` counters, so each holds
//! [`rescue_telemetry::exclusive`] while it runs.

use proptest::prelude::*;
use rescue_campaign::{ArtifactStore, Campaign, ContentHash};
use rescue_faults::collapse::{collapse, CollapsedUniverse};
use rescue_faults::simulate::{CampaignReport, FaultSimulator, PackedOptions};
use rescue_faults::{content, universe, Fault};
use rescue_netlist::{generate, Netlist};
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

/// A design with its traced, collapsed campaign.
struct Design {
    net: Netlist,
    faults: Vec<Fault>,
    patterns: Vec<Vec<bool>>,
    collapsed: CollapsedUniverse,
}

impl Design {
    /// `random_logic(6, 80, 3, seed)`.
    fn new(seed: u64) -> Design {
        Design::of(generate::random_logic(6, 80, 3, seed), seed)
    }

    fn of(net: Netlist, seed: u64) -> Design {
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

    /// The campaign through `artifacts`: the arena from `new_cached`,
    /// the trace plan from the campaign.
    fn run(&self, artifacts: Option<&ArtifactStore>) -> CampaignReport {
        let opts = PackedOptions::wide(2)
            .with_collapsed(&self.collapsed)
            .traced();
        let campaign = Campaign::new(7, 2);
        let run = match artifacts {
            Some(store) => FaultSimulator::new_cached(&self.net, store).campaign_packed(
                &self.faults,
                &self.patterns,
                &campaign,
                opts.with_artifacts(store),
            ),
            None => FaultSimulator::new(&self.net).campaign_packed(
                &self.faults,
                &self.patterns,
                &campaign,
                opts,
            ),
        };
        run.report
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

/// Two designs cached side by side, their arena files swapped: each
/// `new_cached` must see a misfiled file, drop it and rebuild its own
/// arena, never run on the other design's.
#[test]
fn swapped_arena_files_are_rebuilt_not_used() {
    let _exclusive = rescue_telemetry::exclusive();
    let [a, b] = [1, 2].map(|seed| Design::of(generate::random_logic(8, 200, 4, seed), seed));
    let want = [a.run(None), b.run(None)];
    let root = temp_root("swap", 1);
    let store = ArtifactStore::open(&root);
    assert_eq!(
        [a.run(Some(&store)), b.run(Some(&store))],
        want,
        "cold pass"
    );
    let (ka, kb) = (content::compiled_key(&a.net), content::compiled_key(&b.net));
    let (bytes_a, bytes_b) = (
        std::fs::read(path(&store, ka)).unwrap(),
        std::fs::read(path(&store, kb)).unwrap(),
    );
    std::fs::write(path(&store, ka), &bytes_b).unwrap();
    std::fs::write(path(&store, kb), &bytes_a).unwrap();

    let (sim, (_, misses, _)) = counted(|| FaultSimulator::new_cached(&a.net, &store));
    assert_eq!(misses, 1, "the misfiled arena is a miss");
    assert_eq!(sim.compiled(), FaultSimulator::new(&a.net).compiled());
    assert_eq!([a.run(Some(&store)), b.run(Some(&store))], want);
    assert_eq!(
        std::fs::read(path(&store, ka)).unwrap(),
        bytes_a,
        "a rebuilt"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The gate table is derived state: every way to a compiled arena
/// builds it, under a `sim.gate_table` span inside `sim.compile`.
#[test]
fn the_gate_table_builds_inside_sim_compile_on_every_path() {
    let _exclusive = rescue_telemetry::exclusive();
    let d = Design::new(3);
    let root = temp_root("table", 3);
    let store = ArtifactStore::open(&root);
    for path in ["fresh", "cold cache", "warm cache"] {
        let mark = journal::mark();
        let (_, (hits, _, _)) = counted(|| match path {
            "fresh" => FaultSimulator::new(&d.net),
            _ => FaultSimulator::new_cached(&d.net, &store),
        });
        let spans = Journal::snapshot_since(mark).spans();
        assert_eq!(hits, u64::from(path == "warm cache"), "{path}");
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
        d.run(Some(&store))
    });
    assert_eq!(report, d.run(None));
    assert_eq!((hits, misses), (0, 2), "arena and plan both miss");
    assert_eq!(errors, 3, "the directory, then the arena and the plan");
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

    /// Warm a cache with two designs (two arenas, two trace plans), then
    /// truncate, flip, splice or swap 1–3 of the four files. The next
    /// `new_cached` plus campaign of each design equals the uncached
    /// campaign, each changed file is one miss and every other file a
    /// hit, and a third pass hits everywhere: the misses were rebuilt.
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
        prop_assert_eq!(keys.len(), 4, "two arenas and two trace plans");
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
