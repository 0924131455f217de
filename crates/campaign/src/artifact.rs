//! Content-addressed artifact cache for campaign and trace plans.
//!
//! Durable campaigns ([`crate::store`]) already make *verdicts* resumable;
//! what a repeat campaign still pays before its first pattern is *setup*.
//! This store persists built plans (a PO-reachability sweep and a net
//! classification each) keyed by content hash, so a repeat campaign on an
//! unchanged design decodes its plan instead of rebuilding it. Compiled
//! arenas are not cached: compiling one costs less than reading it back.
//!
//! The store is deliberately dumb: opaque byte payloads under 128-bit
//! [`ContentHash`] keys. The *meaning* of a payload (campaign plan, trace
//! plan) lives in the key's domain tag — e.g. `rescue.plan.v1` — chosen
//! by the caller; this module only guarantees that what comes back is
//! byte-identical to what went in, or nothing.
//!
//! Layout: `<root>/artifacts/<hash>.art`, one file per artifact, written
//! via atomic rename. Each file wraps the payload in a small envelope
//! (magic, version, the key it was saved under, FNV-64 checksum, length)
//! so torn, foreign or misfiled files read as missing — a corrupt cache
//! degrades to a rebuild, never a panic — and are deleted on sight so
//! they cannot re-fail forever.

use crate::store::{fnv64, write_file_atomic, ContentHash};
use std::path::{Path, PathBuf};

/// Envelope magic: `RSCA` ("RESCUE artifact").
const MAGIC: [u8; 4] = *b"RSCA";
/// Envelope format version. Version 2 added the key.
const VERSION: u8 = 2;
/// Envelope overhead: magic + version + key + checksum + payload length.
const HEADER_LEN: usize = 4 + 1 + 16 + 8 + 8;

/// Filesystem store for content-addressed artifacts (built plans).
///
/// Safe to share between concurrent threads and processes: every write
/// goes through its own temp file and an atomic rename, and because keys
/// are content hashes, two writers racing to publish the same key write
/// identical bytes.
///
/// # Examples
///
/// ```
/// use rescue_campaign::{ArtifactStore, ContentHash};
///
/// let dir = std::env::temp_dir().join(format!("rescue-art-{}", std::process::id()));
/// let store = ArtifactStore::open(&dir);
/// let key = ContentHash(0x1234);
/// assert!(store.load(key).is_none());
/// store.save(key, b"compiled bytes").unwrap();
/// assert_eq!(store.load(key).as_deref(), Some(&b"compiled bytes"[..]));
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) an artifact cache under `root`.
    ///
    /// The same `root` can host an [`crate::store::FsStore`]; artifacts
    /// live in their own `artifacts/` subdirectory. A directory that
    /// cannot be created is counted in `plan.cache_write_errors`, and the
    /// store still opens: its loads miss and its saves fail (and are
    /// counted), so the work it would have sped up runs uncached.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        let dir = root.into().join("artifacts");
        if std::fs::create_dir_all(&dir).is_err() {
            rescue_telemetry::metrics::counter("plan.cache_write_errors").incr();
        }
        ArtifactStore { dir }
    }

    /// The directory artifacts are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: ContentHash) -> PathBuf {
        self.dir.join(format!("{key}.art"))
    }

    /// Persists `payload` under `key` (atomic tmp + rename).
    ///
    /// A cache is an optimization, so a failed write must not stop the
    /// work it would have sped up: the failure is counted in the
    /// `plan.cache_write_errors` metric and returned, and callers may
    /// carry on without it.
    ///
    /// # Errors
    ///
    /// The I/O error of the failed write.
    pub fn save(&self, key: ContentHash, payload: &[u8]) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&key.0.to_le_bytes());
        bytes.extend_from_slice(&fnv64(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let written = write_file_atomic(&self.path_of(key), &bytes);
        if written.is_err() {
            rescue_telemetry::metrics::counter("plan.cache_write_errors").incr();
        }
        written
    }

    /// Returns the payload stored under `key`, or `None` when the key is
    /// absent or its file fails envelope validation (wrong magic or
    /// version, saved under another key, truncated, checksum mismatch).
    /// Invalid files are removed so the next save repopulates them. The
    /// payload comes back in the buffer the file was read into, with the
    /// envelope header dropped in place.
    pub fn load(&self, key: ContentHash) -> Option<Vec<u8>> {
        let path = self.path_of(key);
        let mut bytes = std::fs::read(&path).ok()?;
        if decode(&bytes, key).is_none() {
            let _ = std::fs::remove_file(&path);
            return None;
        }
        bytes.drain(..HEADER_LEN);
        Some(bytes)
    }

    /// True when `key` has a stored artifact (without reading the
    /// payload; the envelope is not validated).
    pub fn contains(&self, key: ContentHash) -> bool {
        self.path_of(key).exists()
    }
}

/// Validates the envelope of a file read under `key` and returns the
/// payload slice.
fn decode(bytes: &[u8], key: ContentHash) -> Option<&[u8]> {
    if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC || bytes[4] != VERSION {
        return None;
    }
    let filed_under = u128::from_le_bytes(bytes[5..21].try_into().ok()?);
    let checksum = u64::from_le_bytes(bytes[21..29].try_into().ok()?);
    let len = u64::from_le_bytes(bytes[29..37].try_into().ok()?);
    let payload = &bytes[HEADER_LEN..];
    if filed_under != key.0 {
        return None;
    }
    if payload.len() as u64 != len || fnv64(payload) != checksum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rescue-artifact-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trip_and_miss() {
        let dir = scratch_dir("rt");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(42);
        assert!(store.load(key).is_none());
        assert!(!store.contains(key));
        store.save(key, b"payload").unwrap();
        assert!(store.contains(key));
        assert_eq!(store.load(key).as_deref(), Some(&b"payload"[..]));
        // Overwrite with different bytes (same key) is last-write-wins.
        store.save(key, b"other").unwrap();
        assert_eq!(store.load(key).as_deref(), Some(&b"other"[..]));
        // Empty payloads are valid artifacts.
        let empty = ContentHash(7);
        store.save(empty, b"").unwrap();
        assert_eq!(store.load(empty).as_deref(), Some(&b""[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_read_as_missing_and_are_removed() {
        let dir = scratch_dir("corrupt");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(9);
        store.save(key, b"good bytes").unwrap();
        let path = store.dir().join(format!("{key}.art"));

        // Flip one payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());
        assert!(!path.exists(), "corrupt artifact should be deleted");

        // Truncated header.
        std::fs::write(&path, b"RSC").unwrap();
        assert!(store.load(key).is_none());
        assert!(!path.exists());

        // Wrong version.
        store.save(key, b"good bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 0xee;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none());

        // A fresh save repopulates.
        store.save(key, b"good bytes").unwrap();
        assert_eq!(store.load(key).as_deref(), Some(&b"good bytes"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_filed_under_another_key_reads_as_missing() {
        let dir = scratch_dir("misfiled");
        let store = ArtifactStore::open(&dir);
        let (a, b) = (ContentHash(1), ContentHash(2));
        store.save(a, b"artifact of a").unwrap();
        let path_b = store.dir().join(format!("{b}.art"));
        std::fs::copy(store.dir().join(format!("{a}.art")), &path_b).unwrap();
        assert!(store.load(b).is_none(), "a's envelope is not b's artifact");
        assert!(!path_b.exists(), "the misfiled file is deleted");
        assert_eq!(store.load(a).as_deref(), Some(&b"artifact of a"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_root_that_cannot_hold_a_directory_opens_a_store_that_misses() {
        let dir = scratch_dir("blocked");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("a-file");
        std::fs::write(&file, b"not a directory").unwrap();
        let store = ArtifactStore::open(&file);
        let key = ContentHash(3);
        assert!(store.save(key, b"payload").is_err());
        assert!(store.load(key).is_none());
        assert!(!store.contains(key));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publishers_of_one_key_never_collide() {
        let dir = scratch_dir("race");
        let store = ArtifactStore::open(&dir);
        let key = ContentHash(0xace);
        let payload = vec![0x5a_u8; 64 << 10];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..100 {
                        store.save(key, &payload).expect("racing save");
                    }
                });
            }
        });
        assert_eq!(store.load(key).as_deref(), Some(&payload[..]));
        let leftovers = std::fs::read_dir(store.dir()).unwrap().count();
        assert_eq!(leftovers, 1, "temp files must not outlive their rename");
        std::fs::remove_dir_all(&dir).ok();
    }
}
