//! Content-addressed result storage for durable campaigns.
//!
//! A durable campaign is a deterministic plan of *work units* (see
//! [`crate::manifest`]), each keyed by a [`ContentHash`] over everything
//! that determines its verdicts: netlist, fault universe, engine options
//! and pattern block. Unit results — the verdict payload plus a
//! [`StatsDelta`] of the deterministic campaign counters — persist
//! through the [`ResultStore`] trait, so a restarted process (or a second
//! concurrent process pointed at the same store) re-executes only the
//! units that are actually missing and reassembles everything else from
//! the store, bit-identically to an uninterrupted run.
//!
//! Two backends ship with the crate:
//!
//! * [`MemStore`] — a mutex-guarded map, the warm-cache backend for
//!   in-process reuse and tests;
//! * [`FsStore`] — one file per unit under `<root>/units/`, written via
//!   temp-file + atomic rename so a killed writer never leaves a torn
//!   record, with create-exclusive claim files under `<root>/claims/`
//!   coordinating concurrent processes and `<root>/journal/` shared with
//!   the telemetry journal exporters.
//!
//! Hashing is dependency-free FNV-1a over a canonical little-endian byte
//! encoding ([`CanonicalHasher`]); the golden-hash tests in
//! `rescue-faults::content` pin the format.

use rescue_telemetry::metrics;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cached handles for the store's hot-path metrics: looked up once, so
/// `get`/`put`/`claim` never take the registry lock (the e14 overhead
/// budget covers these paths).
struct StoreMetrics {
    puts: metrics::Counter,
    probes: metrics::Counter,
    claims: metrics::Counter,
    claims_contended: metrics::Counter,
    claims_broken: metrics::Counter,
    corrupt_records: metrics::Counter,
    write_errors: metrics::Counter,
    claim_age_ms: metrics::Histogram,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StoreMetrics {
        puts: metrics::counter("store.puts"),
        probes: metrics::counter("store.probes"),
        claims: metrics::counter("store.claims"),
        claims_contended: metrics::counter("store.claims_contended"),
        claims_broken: metrics::counter("store.claims_broken"),
        corrupt_records: metrics::counter("store.corrupt_records"),
        write_errors: metrics::counter("store.write_errors"),
        // Claim-to-publish latency from µs-scale MemStore units up to
        // the stale-claim horizon (2^20 ms ≈ 17 min).
        claim_age_ms: metrics::histogram("store.claim_age_ms", &metrics::pow2_bounds(21)),
    })
}

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime (2^88 + 2^8 + 0x3b).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;
/// `FNV128_PRIME^k` for `k` in `0..=8`. FNV-1a absorbs a zero byte as a
/// bare multiply by the prime, so `k` zero bytes are one multiply by
/// entry `k`.
const FNV128_PRIME_POW: [u128; 9] = {
    let mut pow = [1u128; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV128_PRIME);
        k += 1;
    }
    pow
};

/// Content hash of a campaign, unit or payload: 128-bit FNV-1a over the
/// canonical byte encoding produced by [`CanonicalHasher`].
///
/// Displayed (and used as the on-disk unit file stem) as 32 lowercase
/// hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentHash(pub u128);

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming canonical encoder + FNV-1a-128 hasher.
///
/// Every integer is written fixed-width little-endian, byte strings are
/// length-prefixed, and each hasher starts from a caller-chosen domain
/// tag — so two different encodings can never collide by concatenation
/// ambiguity, and the same logical content hashes identically across
/// runs, processes and machines. This is the byte-stability contract the
/// golden-hash tests pin.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u128,
}

impl CanonicalHasher {
    /// Starts a hasher in the `tag` domain (e.g. `"rescue.unit.v1"`).
    /// Bump the tag's version suffix whenever the encoding changes.
    pub fn new(tag: &str) -> Self {
        let mut h = CanonicalHasher {
            state: FNV128_OFFSET,
        };
        h.write_str(tag);
        h
    }

    /// Absorbs raw bytes (no length prefix — building block only).
    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs the low `width` bytes of `v`, little-endian: the
    /// significant bytes one at a time, then the zero high bytes as one
    /// multiply. The state equals absorbing all `width` bytes.
    fn absorb_le(&mut self, v: u64, width: usize) {
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        self.absorb(&v.to_le_bytes()[..significant]);
        self.state = self
            .state
            .wrapping_mul(FNV128_PRIME_POW[width - significant]);
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.absorb(&[v]);
    }

    /// Writes a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.absorb_le(v.into(), 4);
    }

    /// Writes a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.absorb_le(v, 8);
    }

    /// Writes a `u128`, little-endian (e.g. a nested [`ContentHash`]).
    pub fn write_u128(&mut self, v: u128) {
        self.absorb(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a bool as one byte (0/1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_u64(v.len() as u64);
        self.absorb(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Finishes the hash.
    pub fn finish(self) -> ContentHash {
        ContentHash(self.state)
    }
}

/// 64-bit FNV-1a over raw bytes — the [`UnitRecord`] envelope checksum
/// (torn-write detection beyond what atomic rename already guarantees).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The deterministic slice of [`crate::CampaignStats`] a work unit
/// contributes: pure counters, no wall-clock, so a resumed campaign can
/// merge stored deltas with freshly executed ones and land on figures
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Injections (or faults) this unit evaluated.
    pub injections: u64,
    /// Faults detected by at least one pattern.
    pub detected: u64,
    /// Faults that escaped every pattern.
    pub undetected: u64,
    /// Masked SEU/SET injections.
    pub masked: u64,
    /// Latent SEU injections.
    pub latent: u64,
    /// Failing SEU/SET injections.
    pub failures: u64,
    /// Faults retired early by fault dropping.
    pub dropped: u64,
    /// Faults the engine actually walked.
    pub faults_walked: u64,
    /// Walked faults resolved purely by critical-path tracing.
    pub faults_traced: u64,
}

impl StatsDelta {
    const ENCODED_LEN: usize = 9 * 8;

    /// Adds another unit's counters into this delta.
    pub fn merge(&mut self, other: &StatsDelta) {
        self.injections += other.injections;
        self.detected += other.detected;
        self.undetected += other.undetected;
        self.masked += other.masked;
        self.latent += other.latent;
        self.failures += other.failures;
        self.dropped += other.dropped;
        self.faults_walked += other.faults_walked;
        self.faults_traced += other.faults_traced;
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.injections,
            self.detected,
            self.undetected,
            self.masked,
            self.latent,
            self.failures,
            self.dropped,
            self.faults_walked,
            self.faults_traced,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut vals = [0u64; 9];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().ok()?);
        }
        Some(StatsDelta {
            injections: vals[0],
            detected: vals[1],
            undetected: vals[2],
            masked: vals[3],
            latent: vals[4],
            failures: vals[5],
            dropped: vals[6],
            faults_walked: vals[7],
            faults_traced: vals[8],
        })
    }
}

/// Magic + version of the serialized unit record envelope. Version 2
/// added the unit id; a version-1 record reads as corrupt.
const RECORD_MAGIC: &[u8; 4] = b"RSCU";
const RECORD_VERSION: u16 = 2;

/// One persisted work-unit result: the id of the unit it answers, an
/// engine-defined verdict payload and the unit's [`StatsDelta`].
///
/// The record names its unit so that one filed under another unit's id
/// (a copied file, a misplaced `put`) is caught: [`Campaign::run_store`]
/// treats a record whose `unit` differs from the key it was fetched
/// under as corrupt and re-executes the unit.
///
/// The byte envelope ([`UnitRecord::encode`]) carries magic, version,
/// unit id, delta, length-prefixed payload and an FNV-64 checksum;
/// [`UnitRecord::decode`] rejects anything torn, truncated or from a
/// different format version. Records written before version 2 (which
/// did not name their unit) therefore read as corrupt, and each such
/// unit re-executes once.
///
/// [`Campaign::run_store`]: crate::Campaign::run_store
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    /// The unit this record answers (its [`crate::UnitSpec::id`]).
    pub unit: ContentHash,
    /// Deterministic stats contribution of the unit.
    pub stats: StatsDelta,
    /// Engine-defined verdict encoding (e.g. packed first-detection
    /// indices).
    pub payload: Vec<u8>,
}

impl UnitRecord {
    /// Envelope bytes before the payload: magic, version, unit id, delta
    /// and payload length.
    const HEADER_LEN: usize = 4 + 2 + 16 + StatsDelta::ENCODED_LEN + 8;

    /// Serializes the record envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len() + 8);
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&RECORD_VERSION.to_le_bytes());
        out.extend_from_slice(&self.unit.0.to_le_bytes());
        self.stats.encode_into(&mut out);
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes an envelope; `None` on any corruption (bad magic,
    /// version, length or checksum).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < Self::HEADER_LEN + 8 || &bytes[..4] != RECORD_MAGIC {
            return None;
        }
        if u16::from_le_bytes(bytes[4..6].try_into().ok()?) != RECORD_VERSION {
            return None;
        }
        let body = &bytes[..bytes.len() - 8];
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
        if fnv64(body) != sum {
            return None;
        }
        let unit = ContentHash(u128::from_le_bytes(bytes[6..22].try_into().ok()?));
        let stats = StatsDelta::decode(&bytes[22..22 + StatsDelta::ENCODED_LEN])?;
        let len_at = 22 + StatsDelta::ENCODED_LEN;
        let payload_len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().ok()?) as usize;
        let payload = &body[Self::HEADER_LEN..];
        if payload.len() != payload_len {
            return None;
        }
        Some(UnitRecord {
            unit,
            stats,
            payload: payload.to_vec(),
        })
    }
}

/// Result of trying to claim a unit for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// This caller owns the unit and must execute + `put` (or `release`).
    Acquired,
    /// Another live claimant holds the unit; poll the store for its
    /// result (or break stale claims if the owner died).
    Busy,
    /// The unit's result is already in the store.
    Done,
}

/// A content-addressed store of work-unit results.
///
/// Implementations must be safe to share across campaign workers
/// (`Sync`) and must guarantee that [`ResultStore::claim`] hands
/// `Acquired` for a given id to at most one caller at a time — the
/// property that makes multi-process campaigns never double-execute a
/// unit. `put` publishes a result atomically (readers see either nothing
/// or the whole record) and releases any claim the writer held.
pub trait ResultStore: Sync {
    /// Fetches a unit's record; `None` when missing or unreadable
    /// (corrupt records count toward `store.corrupt_records` and read as
    /// missing, so the unit is simply re-executed).
    fn get(&self, id: ContentHash) -> Option<UnitRecord>;

    /// Publishes a unit's result and releases the caller's claim.
    ///
    /// A record the store fails to persist is lost, not fatal: the claim
    /// is still released, and the campaign keeps the unit's results in
    /// memory, so only a later resume pays for it (by re-executing the
    /// unit). [`FsStore`] counts such failures in `store.write_errors`.
    fn put(&self, id: ContentHash, record: &UnitRecord);

    /// Tries to take exclusive execution rights for a unit.
    fn claim(&self, id: ContentHash) -> ClaimOutcome;

    /// Abandons a claim without publishing a result.
    fn release(&self, id: ContentHash);

    /// Breaks claims whose owner is provably gone (e.g. dead pid);
    /// returns how many were broken. In-memory stores have no foreign
    /// owners, so the default is a no-op.
    fn break_stale_claims(&self) -> usize {
        0
    }

    /// Number of completed unit records in the store.
    fn completed_units(&self) -> usize;

    /// Filesystem root of the store, when it has one — lets the fleet
    /// status registry scan live claims ([`scan_claims`]). In-memory
    /// stores return `None` (the default).
    fn root_dir(&self) -> Option<&Path> {
        None
    }
}

/// In-memory [`ResultStore`]: the warm-cache backend for in-process
/// re-submission and the fast backend for resume-equivalence tests.
#[derive(Debug, Default)]
pub struct MemStore {
    units: Mutex<HashMap<u128, UnitRecord>>,
    /// Claim id → acquisition time (feeds `store.claim_age_ms`).
    claims: Mutex<HashMap<u128, Instant>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Ids of every completed unit (test/introspection helper).
    pub fn ids(&self) -> Vec<ContentHash> {
        self.units
            .lock()
            .expect("store mutex")
            .keys()
            .map(|&k| ContentHash(k))
            .collect()
    }
}

impl ResultStore for MemStore {
    fn get(&self, id: ContentHash) -> Option<UnitRecord> {
        store_metrics().probes.incr();
        self.units.lock().expect("store mutex").get(&id.0).cloned()
    }

    fn put(&self, id: ContentHash, record: &UnitRecord) {
        store_metrics().puts.incr();
        self.units
            .lock()
            .expect("store mutex")
            .insert(id.0, record.clone());
        if let Some(acquired) = self.claims.lock().expect("claim mutex").remove(&id.0) {
            store_metrics()
                .claim_age_ms
                .record(acquired.elapsed().as_millis() as u64);
        }
    }

    fn claim(&self, id: ContentHash) -> ClaimOutcome {
        if self.units.lock().expect("store mutex").contains_key(&id.0) {
            return ClaimOutcome::Done;
        }
        let mut claims = self.claims.lock().expect("claim mutex");
        match claims.entry(id.0) {
            std::collections::hash_map::Entry::Occupied(_) => {
                store_metrics().claims_contended.incr();
                ClaimOutcome::Busy
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Instant::now());
                store_metrics().claims.incr();
                ClaimOutcome::Acquired
            }
        }
    }

    fn release(&self, id: ContentHash) {
        if let Some(acquired) = self.claims.lock().expect("claim mutex").remove(&id.0) {
            store_metrics()
                .claim_age_ms
                .record(acquired.elapsed().as_millis() as u64);
        }
    }

    fn completed_units(&self) -> usize {
        self.units.lock().expect("store mutex").len()
    }
}

/// Filesystem [`ResultStore`]: one file per unit, shared by concurrent
/// processes.
///
/// Layout under the root directory:
///
/// ```text
/// <root>/units/<hash>.unit    completed records (atomic tmp + rename)
/// <root>/claims/<hash>.claim  create-exclusive lock files carrying the
///                             owner pid
/// <root>/journal/             JSONL journal exports of runs against
///                             this store (shared with the telemetry
///                             sinks)
/// ```
///
/// Claims are broken when the recorded pid is provably dead
/// (`/proc/<pid>` missing on Linux) or, where no `/proc` exists, when
/// the claim file is older than [`FsStore::STALE_CLAIM_SECS`].
#[derive(Debug)]
pub struct FsStore {
    root: PathBuf,
}

impl FsStore {
    /// Age beyond which a claim is considered stale on hosts without a
    /// `/proc` to check owner liveness against.
    pub const STALE_CLAIM_SECS: u64 = 300;

    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// A layout directory that cannot be created (say, `root` sits under
    /// a regular file) is counted in `store.write_errors`, not fatal.
    /// Such a store persists nothing: reads miss, and failed claims and
    /// writes are counted as well. A campaign run against it executes
    /// every unit and keeps the verdicts in memory, so its report stays
    /// correct and only persistence is lost.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        for sub in ["units", "claims", "journal"] {
            if std::fs::create_dir_all(root.join(sub)).is_err() {
                store_metrics().write_errors.incr();
            }
        }
        FsStore { root }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path for a journal export named `name` (e.g. `"resume.jsonl"`)
    /// inside the store's shared journal directory.
    pub fn journal_path(&self, name: &str) -> PathBuf {
        self.root.join("journal").join(name)
    }

    fn unit_path(&self, id: ContentHash) -> PathBuf {
        self.root.join("units").join(format!("{id}.unit"))
    }

    fn claim_path(&self, id: ContentHash) -> PathBuf {
        self.root.join("claims").join(format!("{id}.claim"))
    }

    /// True when `pid` is still alive as far as this host can tell;
    /// `None` when the host has no `/proc` to ask.
    fn pid_alive(pid: u32) -> Option<bool> {
        if !Path::new("/proc").is_dir() {
            return None;
        }
        Some(Path::new(&format!("/proc/{pid}")).exists())
    }
}

/// Writes `bytes` to `path` via a sibling temp file + atomic rename, so
/// readers (and crashed writers) never observe a torn file.
///
/// The temp name is unique per call (pid + a process-wide counter), so
/// concurrent writers of the same path — threads or processes — never
/// share a temp file; the last rename wins.
///
/// # Errors
///
/// The I/O error when the temp file cannot be written or renamed (the
/// temp file is removed).
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    let seq = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{stem}.tmp-{}-{seq}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

impl ResultStore for FsStore {
    fn get(&self, id: ContentHash) -> Option<UnitRecord> {
        store_metrics().probes.incr();
        let path = self.unit_path(id);
        let bytes = std::fs::read(&path).ok()?;
        match UnitRecord::decode(&bytes) {
            Some(rec) => Some(rec),
            None => {
                // A torn or foreign-format record reads as missing; drop
                // it so a subsequent claim can re-execute the unit.
                let _ = std::fs::remove_file(&path);
                store_metrics().corrupt_records.incr();
                None
            }
        }
    }

    fn put(&self, id: ContentHash, record: &UnitRecord) {
        store_metrics().puts.incr();
        let claim = self.claim_path(id);
        if write_file_atomic(&self.unit_path(id), &record.encode()).is_err() {
            store_metrics().write_errors.incr();
            let _ = std::fs::remove_file(claim);
            return;
        }
        // Claim-to-publish latency from the claim file's age; the extra
        // stat is only paid while telemetry records anything.
        if rescue_telemetry::enabled() {
            if let Some(age) = std::fs::metadata(&claim)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
            {
                store_metrics().claim_age_ms.record(age.as_millis() as u64);
            }
        }
        let _ = std::fs::remove_file(claim);
    }

    /// Takes the unit through a create-exclusive file under `claims/`:
    /// `Done` once its record has landed, `Busy` only when the claim file
    /// already exists (a peer holds the unit), `Acquired` otherwise. A
    /// claim file that cannot be created for any other reason (the claims
    /// directory is missing or is not a directory) is counted in
    /// `store.write_errors` and answers `Acquired`, so the unit executes
    /// unclaimed instead of waiting on a peer that cannot exist.
    fn claim(&self, id: ContentHash) -> ClaimOutcome {
        if self.unit_path(id).exists() {
            return ClaimOutcome::Done;
        }
        let claim = self.claim_path(id);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&claim)
        {
            Ok(mut f) => {
                // The owner publishes the record before it drops the
                // claim, so a unit finished between the check above and
                // this create is visible now: take it as done instead of
                // executing it twice.
                if self.unit_path(id).exists() {
                    drop(f);
                    let _ = std::fs::remove_file(&claim);
                    return ClaimOutcome::Done;
                }
                use std::io::Write as _;
                let _ = writeln!(f, "pid {}", std::process::id());
                store_metrics().claims.incr();
                ClaimOutcome::Acquired
            }
            // Lost the race: either someone is executing the unit or its
            // result landed between our two checks.
            Err(_) if self.unit_path(id).exists() => ClaimOutcome::Done,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                store_metrics().claims_contended.incr();
                ClaimOutcome::Busy
            }
            Err(_) => {
                // The claims directory is unusable (missing, or not a
                // directory), so no peer can hold a claim in it either.
                // Execute unclaimed: records are content-addressed and
                // published by atomic rename, so two writers of one unit
                // land the same bytes.
                store_metrics().write_errors.incr();
                ClaimOutcome::Acquired
            }
        }
    }

    fn release(&self, id: ContentHash) {
        let _ = std::fs::remove_file(self.claim_path(id));
    }

    fn break_stale_claims(&self) -> usize {
        let claims = self.root.join("claims");
        let Ok(entries) = std::fs::read_dir(&claims) else {
            return 0;
        };
        let mut broken = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("claim") {
                continue;
            }
            let stale = match std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| text.strip_prefix("pid ")?.trim().parse::<u32>().ok())
                .and_then(FsStore::pid_alive)
            {
                Some(alive) => !alive,
                // No pid or no /proc: fall back to claim age.
                None => entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .map(|age| age.as_secs() > FsStore::STALE_CLAIM_SECS)
                    .unwrap_or(false),
            };
            if !stale {
                continue;
            }
            // Steal-by-rename: only one process wins the rename, so two
            // breakers can never both "free" the claim and race a third
            // claimant into double execution.
            let steal = claims.join(format!(
                ".{}.stale-{}",
                entry.file_name().to_string_lossy(),
                std::process::id()
            ));
            if std::fs::rename(&path, &steal).is_ok() {
                let _ = std::fs::remove_file(&steal);
                broken += 1;
            }
        }
        if broken > 0 {
            store_metrics().claims_broken.add(broken as u64);
        }
        broken
    }

    fn completed_units(&self) -> usize {
        std::fs::read_dir(self.root.join("units"))
            .map(|d| {
                d.flatten()
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("unit"))
                    .count()
            })
            .unwrap_or(0)
    }

    fn root_dir(&self) -> Option<&Path> {
        Some(&self.root)
    }
}

/// One live claim under an [`FsStore`] root, as surfaced by
/// [`scan_claims`]: which unit is held, by whom, for how long, and
/// whether the owner is still alive as far as this host can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimInfo {
    /// Claimed unit's content hash (32 hex digits).
    pub unit: String,
    /// Owner pid recorded in the claim file, when parseable.
    pub pid: Option<u32>,
    /// Claim age in milliseconds (from the claim file's mtime).
    pub age_ms: u64,
    /// Owner liveness: `Some(false)` means the claim is dead weight a
    /// [`FsStore::break_stale_claims`] pass will reclaim; `None` when
    /// the host has no `/proc` to ask (or no pid was recorded).
    pub alive: Option<bool>,
}

/// Scans the live claims under an [`FsStore`] root — the straggler /
/// dead-peer view the fleet status registry folds into `/status`.
/// Unreadable entries are skipped; a store root with no claims
/// directory scans as empty.
pub fn scan_claims(root: &Path) -> Vec<ClaimInfo> {
    let Ok(entries) = std::fs::read_dir(root.join("claims")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("claim") {
            continue;
        }
        let unit = match path.file_stem().and_then(|s| s.to_str()) {
            Some(stem) => stem.to_string(),
            None => continue,
        };
        let pid = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| text.strip_prefix("pid ")?.trim().parse::<u32>().ok());
        let age_ms = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .map(|age| age.as_millis() as u64)
            .unwrap_or(0);
        let alive = pid.and_then(FsStore::pid_alive);
        out.push(ClaimInfo {
            unit,
            pid,
            age_ms,
            alive,
        });
    }
    out.sort_by(|a, b| b.age_ms.cmp(&a.age_ms).then(a.unit.cmp(&b.unit)));
    out
}

impl FsStore {
    /// [`scan_claims`] over this store's root.
    pub fn scan_claims(&self) -> Vec<ClaimInfo> {
        scan_claims(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> FsStore {
        let dir = std::env::temp_dir().join(format!(
            "rescue-store-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        FsStore::open(dir)
    }

    fn sample_record(seed: u8) -> UnitRecord {
        UnitRecord {
            unit: ContentHash(0x5eed_0000 + seed as u128),
            stats: StatsDelta {
                injections: 10 + seed as u64,
                detected: 7,
                undetected: 3,
                dropped: 2,
                faults_walked: 10,
                ..StatsDelta::default()
            },
            payload: (0..32).map(|i| i ^ seed).collect(),
        }
    }

    #[test]
    fn canonical_hasher_is_stable_and_tag_separated() {
        let mut a = CanonicalHasher::new("t.v1");
        a.write_u64(42);
        a.write_str("abc");
        let mut b = CanonicalHasher::new("t.v1");
        b.write_u64(42);
        b.write_str("abc");
        assert_eq!(a.finish(), b.finish(), "same content, same hash");
        let mut c = CanonicalHasher::new("t.v2");
        c.write_u64(42);
        c.write_str("abc");
        assert_ne!(
            CanonicalHasher::new("t.v1").finish(),
            c.finish(),
            "domain tags separate"
        );
        // Length prefixes prevent concatenation ambiguity.
        let mut d = CanonicalHasher::new("t.v1");
        d.write_str("ab");
        d.write_str("c");
        let mut e = CanonicalHasher::new("t.v1");
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    /// One canonical write, for the zero-run property below.
    #[derive(Debug, Clone)]
    enum Write {
        U8(u8),
        U32(u32),
        U64(u64),
        Usize(usize),
        Bytes(Vec<u8>),
        Str(String),
    }

    /// Writes of every kind; integers of every significant width,
    /// zero included, so every zero-run length is exercised.
    fn write() -> impl Strategy<Value = Write> {
        prop_oneof![
            any::<u8>().prop_map(Write::U8),
            (any::<u32>(), 0u32..=32).prop_map(|(v, s)| Write::U32(v.checked_shr(s).unwrap_or(0))),
            (any::<u64>(), 0u32..=64).prop_map(|(v, s)| Write::U64(v.checked_shr(s).unwrap_or(0))),
            (any::<usize>(), 0u32..=64)
                .prop_map(|(v, s)| Write::Usize(v.checked_shr(s).unwrap_or(0))),
            collection::vec(0u8..=2, 0..12).prop_map(Write::Bytes),
            collection::vec(b'a'..=b'z', 0..12)
                .prop_map(|b| Write::Str(String::from_utf8(b).expect("ASCII"))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn zero_runs_hash_like_byte_at_a_time(writes in collection::vec(write(), 0..24)) {
            // The canonical encoding, written out byte by byte.
            fn prefixed(enc: &mut Vec<u8>, v: &[u8]) {
                enc.extend_from_slice(&(v.len() as u64).to_le_bytes());
                enc.extend_from_slice(v);
            }
            let mut h = CanonicalHasher::new("t.v1");
            let mut enc = Vec::new();
            prefixed(&mut enc, b"t.v1");
            for w in &writes {
                match w {
                    Write::U8(v) => {
                        h.write_u8(*v);
                        enc.push(*v);
                    }
                    Write::U32(v) => {
                        h.write_u32(*v);
                        enc.extend_from_slice(&v.to_le_bytes());
                    }
                    Write::U64(v) => {
                        h.write_u64(*v);
                        enc.extend_from_slice(&v.to_le_bytes());
                    }
                    Write::Usize(v) => {
                        h.write_usize(*v);
                        enc.extend_from_slice(&(*v as u64).to_le_bytes());
                    }
                    Write::Bytes(v) => {
                        h.write_bytes(v);
                        prefixed(&mut enc, v);
                    }
                    Write::Str(v) => {
                        h.write_str(v);
                        prefixed(&mut enc, v.as_bytes());
                    }
                }
            }
            let reference = enc.iter().fold(FNV128_OFFSET, |state, &b| {
                (state ^ b as u128).wrapping_mul(FNV128_PRIME)
            });
            prop_assert_eq!(h.finish(), ContentHash(reference));
        }
    }

    #[test]
    fn record_envelope_round_trips_and_rejects_corruption() {
        let rec = sample_record(3);
        let bytes = rec.encode();
        assert_eq!(UnitRecord::decode(&bytes), Some(rec.clone()));
        // Any single flipped byte must fail the checksum.
        for i in [0usize, 5, 20, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(UnitRecord::decode(&bad), None, "flip at {i}");
        }
        // Truncation fails too.
        assert_eq!(UnitRecord::decode(&bytes[..bytes.len() - 3]), None);
        assert_eq!(UnitRecord::decode(b""), None);
        // The unit id is part of the checksummed body.
        let mut other = bytes.clone();
        other[6] ^= 1;
        assert_eq!(UnitRecord::decode(&other), None);
    }

    #[test]
    fn version_one_records_read_as_corrupt() {
        // A version-1 envelope (no unit id) with a valid checksum.
        let rec = sample_record(4);
        let mut v1 = RECORD_MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        rec.stats.encode_into(&mut v1);
        v1.extend_from_slice(&(rec.payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&rec.payload);
        let sum = fnv64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(UnitRecord::decode(&v1), None);
    }

    #[test]
    fn stats_delta_merges_counterwise() {
        let mut a = StatsDelta {
            injections: 5,
            detected: 3,
            undetected: 2,
            dropped: 1,
            faults_walked: 5,
            ..StatsDelta::default()
        };
        a.merge(&StatsDelta {
            injections: 4,
            masked: 2,
            latent: 1,
            failures: 1,
            faults_walked: 4,
            faults_traced: 2,
            ..StatsDelta::default()
        });
        assert_eq!(a.injections, 9);
        assert_eq!(a.detected, 3);
        assert_eq!(a.masked, 2);
        assert_eq!(a.faults_walked, 9);
        assert_eq!(a.faults_traced, 2);
    }

    #[test]
    fn mem_store_claim_protocol() {
        let store = MemStore::new();
        let id = ContentHash(7);
        assert_eq!(store.get(id), None);
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        assert_eq!(store.claim(id), ClaimOutcome::Busy, "double claim refused");
        store.release(id);
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        let rec = sample_record(1);
        store.put(id, &rec);
        assert_eq!(store.claim(id), ClaimOutcome::Done);
        assert_eq!(store.get(id), Some(rec));
        assert_eq!(store.completed_units(), 1);
    }

    #[test]
    fn fs_store_round_trip_claims_and_atomicity() {
        let store = temp_store("roundtrip");
        let id = ContentHash(0xfeed);
        assert_eq!(store.get(id), None);
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        assert_eq!(store.claim(id), ClaimOutcome::Busy);
        let rec = sample_record(9);
        store.put(id, &rec);
        assert_eq!(store.claim(id), ClaimOutcome::Done, "put releases claim");
        assert_eq!(store.get(id), Some(rec));
        assert_eq!(store.completed_units(), 1);
        // No temp droppings left behind in the units dir.
        let tmp_files = std::fs::read_dir(store.root().join("units"))
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .count();
        assert_eq!(tmp_files, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fs_store_corrupt_record_reads_as_missing_and_is_dropped() {
        let store = temp_store("corrupt");
        let id = ContentHash(0xbad);
        write_file_atomic(&store.unit_path(id), b"RSCU torn garbage").unwrap();
        assert_eq!(store.get(id), None, "corrupt record is not a result");
        assert!(
            !store.unit_path(id).exists(),
            "corrupt record is dropped so the unit can be reclaimed"
        );
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn scan_claims_reports_owner_pid_age_and_liveness() {
        let store = temp_store("scan");
        let mine = ContentHash(0x51);
        let dead = ContentHash(0x52);
        assert_eq!(store.claim(mine), ClaimOutcome::Acquired);
        std::fs::write(store.claim_path(dead), "pid 3999999999\n").unwrap();
        let claims = store.scan_claims();
        assert_eq!(claims.len(), 2);
        let ours = claims
            .iter()
            .find(|c| c.unit == mine.to_string())
            .expect("own claim visible");
        assert_eq!(ours.pid, Some(std::process::id()));
        let theirs = claims
            .iter()
            .find(|c| c.unit == dead.to_string())
            .expect("forged claim visible");
        assert_eq!(theirs.pid, Some(3999999999));
        if FsStore::pid_alive(std::process::id()).is_some() {
            assert_eq!(ours.alive, Some(true));
            assert_eq!(theirs.alive, Some(false));
        }
        // Publishing the unit clears its claim from the scan.
        store.put(mine, &sample_record(1));
        assert_eq!(store.scan_claims().len(), 1);
        // A rootless path scans as empty rather than erroring.
        assert!(scan_claims(Path::new("/nonexistent-rescue-store")).is_empty());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_counters_and_claim_age_feed_the_registry() {
        use rescue_telemetry::TelemetryConfig;
        let _serial = rescue_telemetry::exclusive();
        TelemetryConfig::on().install();
        metrics::reset();
        let store = MemStore::new();
        let id = ContentHash(0x77);
        assert_eq!(store.get(id), None);
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        assert_eq!(store.claim(id), ClaimOutcome::Busy);
        store.put(id, &sample_record(2));
        let snap = metrics::snapshot();
        TelemetryConfig::off().install();
        // Lower bounds, not equalities: the registry is process-global
        // and sibling tests running store operations on other threads
        // record into the same counters while telemetry is on here.
        assert!(snap.counter("store.probes") >= Some(1));
        assert!(snap.counter("store.claims") >= Some(1));
        assert!(snap.counter("store.claims_contended") >= Some(1));
        assert!(snap.counter("store.puts") >= Some(1));
        let ages = snap
            .histogram("store.claim_age_ms")
            .expect("claim age histogram registered");
        assert!(ages.total >= 1, "the put resolved this test's claim");
    }

    #[test]
    fn fs_store_claims_without_a_claims_directory() {
        use rescue_telemetry::TelemetryConfig;
        let _serial = rescue_telemetry::exclusive();
        let store = temp_store("no-claims-dir");
        let claims = store.root().join("claims");
        std::fs::remove_dir_all(&claims).unwrap();
        std::fs::write(&claims, b"not a directory").unwrap();
        TelemetryConfig::on().install();
        let before = metrics::counter("store.write_errors").get();
        let id = ContentHash(0xc1a1);
        assert_eq!(
            store.claim(id),
            ClaimOutcome::Acquired,
            "no peer can hold it"
        );
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        store.put(id, &sample_record(5));
        assert_eq!(store.claim(id), ClaimOutcome::Done);
        let errors = metrics::counter("store.write_errors").get() - before;
        TelemetryConfig::off().install();
        assert_eq!(errors, 2, "each failed claim is counted");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fs_store_opens_under_a_regular_file_without_panicking() {
        use rescue_telemetry::TelemetryConfig;
        let _serial = rescue_telemetry::exclusive();
        let file = std::env::temp_dir().join(format!(
            "rescue-store-file-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&file, b"a regular file").unwrap();
        TelemetryConfig::on().install();
        let before = metrics::counter("store.write_errors").get();
        let store = FsStore::open(file.join("store"));
        let opened = metrics::counter("store.write_errors").get() - before;
        let id = ContentHash(0xf11e);
        assert_eq!(store.get(id), None);
        assert_eq!(store.claim(id), ClaimOutcome::Acquired);
        store.put(id, &sample_record(6));
        assert_eq!(store.get(id), None, "nothing persists");
        let total = metrics::counter("store.write_errors").get() - before;
        TelemetryConfig::off().install();
        let _ = std::fs::remove_file(&file);
        assert_eq!(opened, 3, "one count per layout directory");
        assert_eq!(total, 5, "plus the failed claim and the failed put");
        assert_eq!(store.completed_units(), 0);
    }

    #[test]
    fn fs_store_breaks_dead_pid_claims_only() {
        let store = temp_store("stale");
        let live = ContentHash(1);
        let dead = ContentHash(2);
        assert_eq!(store.claim(live), ClaimOutcome::Acquired);
        // Forge a claim from a pid that cannot exist (> kernel max pid).
        std::fs::write(store.claim_path(dead), "pid 3999999999\n").unwrap();
        assert_eq!(store.claim(dead), ClaimOutcome::Busy);
        let broken = store.break_stale_claims();
        if FsStore::pid_alive(std::process::id()).is_some() {
            assert_eq!(broken, 1, "dead claim broken, live claim kept");
            assert_eq!(store.claim(dead), ClaimOutcome::Acquired);
        }
        assert_eq!(
            store.claim(live),
            ClaimOutcome::Busy,
            "our own live claim survives"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }
}
