//! The artifact-cache shims are inert. Nothing derived from a netlist is
//! cached: every campaign builds its plan afresh and every simulator
//! compiles its arena. `ArtifactStore::open`, `FaultSimulator::new_cached`
//! and `PackedOptions::with_artifacts` remain only for callers that
//! still pass a cache, and a root that older builds filled with plan and
//! arena files is neither read nor written through them.

use rescue_campaign::store::CanonicalHasher;
use rescue_campaign::{ArtifactStore, Campaign, ContentHash, MemStore};
use rescue_faults::engine::po_reachable;
use rescue_faults::simulate::{campaign_arena, CampaignRun, FaultSimulator, PackedOptions};
use rescue_faults::trace::{NetClass, TracePlan};
use rescue_faults::{content, universe, Fault};
use rescue_netlist::generate;
use rescue_sim::codec::{put_bits, put_len};
use rescue_sim::compiled::CompiledNetlist;
use rescue_telemetry::{metrics, TelemetryConfig};
use std::path::{Path, PathBuf};

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

/// FNV-1a over bytes, the envelope checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Files `payload` under `key` in `dir` the way the artifact cache did:
/// an `RSCA` version-2 envelope (magic, version, key, checksum, length)
/// in `<key>.art`.
fn file_artifact(dir: &Path, key: ContentHash, payload: &[u8]) -> PathBuf {
    let mut bytes = b"RSCA".to_vec();
    bytes.push(2);
    bytes.extend(key.0.to_le_bytes());
    bytes.extend(fnv64(payload).to_le_bytes());
    bytes.extend((payload.len() as u64).to_le_bytes());
    bytes.extend(payload);
    let path = dir.join(format!("{key}.art"));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The key a campaign's plan was cached under: its arena, its walk list
/// in that arena's ids and the plan family.
fn plan_key(arena: &CompiledNetlist, walk: &[Fault], tracing: bool) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.plan.v1");
    h.write_u128(content::hash_netlist(arena).0);
    h.write_u128(content::hash_faults(walk).0);
    h.write_bool(tracing);
    h.finish()
}

/// A walk plan in its version-3 wire format: the planned roots (a fault
/// past the last gate plans nothing), then PO reachability.
fn walk_plan_bytes(arena: &CompiledNetlist, walk: &[Fault]) -> Vec<u8> {
    let mut planned = vec![false; arena.len()];
    for f in walk {
        if let Some(p) = planned.get_mut(f.site().gate().index()) {
            *p = true;
        }
    }
    let mut bytes = vec![3];
    put_bits(&mut bytes, &planned);
    put_bits(&mut bytes, &po_reachable(arena));
    bytes
}

/// A trace plan in its version-2 wire format: the stem and statically
/// traced counts, the packed net classes, PO reachability and the
/// planned roots.
fn trace_plan_bytes(arena: &CompiledNetlist, walk: &[Fault]) -> Vec<u8> {
    let plan = TracePlan::build(arena, walk);
    let n = arena.len();
    let mut bytes = vec![2];
    bytes.extend((plan.stems() as u64).to_le_bytes());
    bytes.extend((plan.statically_traced() as u64).to_le_bytes());
    put_len(&mut bytes, n);
    for g in 0..n {
        let class = match plan.class_of(g) {
            NetClass::Po => 0,
            NetClass::Dead => 1,
            NetClass::Chain { consumer, pin } => {
                2 | u64::from(consumer) << 2 | u64::from(pin) << 34
            }
            NetClass::Stem => 3,
        };
        bytes.extend(class.to_le_bytes());
    }
    let reachable: Vec<bool> = (0..n).map(|g| plan.po_reachable_gate(g)).collect();
    let planned: Vec<bool> = (0..n).map(|g| plan.planned(g)).collect();
    put_bits(&mut bytes, &reachable);
    put_bits(&mut bytes, &planned);
    bytes
}

/// Every file under `dir`, by name, with its bytes.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap_or_default();
            (e.file_name().into_string().unwrap(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// The `plan.*` counters so far.
fn plan_counters() -> Vec<(String, u64)> {
    let counters = metrics::snapshot().counters.into_iter();
    counters
        .filter(|(name, _)| name.starts_with("plan."))
        .collect()
}

/// A root filled as the artifact cache left it: the traced campaign's
/// plan intact, the walked campaign's plan truncated, and a compiled
/// arena. Walked and traced campaigns, plain and durable, through
/// `new_cached` and `with_artifacts` equal the same campaigns without
/// the shims, move no `plan.*` counter, and leave every file
/// byte-identical with none added.
#[test]
fn the_cache_shims_read_and_write_nothing() {
    let _exclusive = rescue_telemetry::exclusive();
    let net = generate::random_logic(6, 80, 3, 11);
    let faults = universe::stuck_at_universe(&net);
    let patterns = random_patterns(net.primary_inputs().len(), 150, 11);
    let campaign = Campaign::new(11, 2);
    let run = |sim: &FaultSimulator, opts: PackedOptions, durable: bool| -> CampaignRun {
        if durable {
            sim.campaign_packed_durable(&faults, &patterns, &campaign, opts, &MemStore::new(), 8)
        } else {
            sim.campaign_packed(&faults, &patterns, &campaign, opts)
        }
    };
    let configs = [(false, false), (false, true), (true, false), (true, true)];
    let options = |tracing: bool| {
        let opts = PackedOptions::wide(2);
        if tracing {
            opts.traced()
        } else {
            opts
        }
    };
    let sim = FaultSimulator::new(&net);
    let want = configs.map(|(tracing, durable)| run(&sim, options(tracing), durable));

    let root = std::env::temp_dir().join(format!("rescue-artifact-shims-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    let c = CompiledNetlist::new(&net);
    let (arena, walk) = campaign_arena(&c, &faults);
    file_artifact(
        &dir,
        plan_key(&arena, &walk, true),
        &trace_plan_bytes(&arena, &walk),
    );
    let walk_plan = file_artifact(
        &dir,
        plan_key(&arena, &walk, false),
        &walk_plan_bytes(&arena, &walk),
    );
    let bytes = std::fs::read(&walk_plan).unwrap();
    std::fs::write(&walk_plan, &bytes[..bytes.len() / 2]).unwrap();
    let mut arena_key = CanonicalHasher::new("rescue.compiled.v1");
    arena_key.write_u128(content::hash_netlist_source(&net).0);
    file_artifact(&dir, arena_key.finish(), &c.to_bytes());
    let before = snapshot(&dir);
    assert_eq!(before.len(), 3, "two plans and an arena");

    TelemetryConfig::on().install();
    let counters = plan_counters();
    let got = configs.map(|(tracing, durable)| {
        let store = ArtifactStore::open(&root);
        let sim = FaultSimulator::new_cached(&net, &store);
        run(&sim, options(tracing).with_artifacts(&store), durable)
    });
    let moved = plan_counters();
    TelemetryConfig::off().install();
    for (((tracing, durable), got), want) in configs.iter().zip(&got).zip(&want) {
        let config = format!("tracing={tracing} durable={durable}");
        assert_eq!(got.report, want.report, "{config}");
        assert_eq!(got.stats.tally, want.stats.tally, "{config}");
        assert_eq!(
            got.stats.faults_traced, want.stats.faults_traced,
            "{config}"
        );
    }
    assert_eq!(moved, counters, "no plan.* counter moves");
    assert_eq!(snapshot(&root).len(), 1, "nothing added beside artifacts/");
    assert_eq!(snapshot(&dir), before, "every file byte-identical");
    std::fs::remove_dir_all(&root).ok();
}
