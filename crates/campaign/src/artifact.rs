//! An inert artifact-cache handle.
//!
//! Nothing derived from a netlist is cached: compiling an arena, and
//! building the plan of a campaign's output cone, both cost less than
//! the content key, the read and the validation a reload needs
//! (EXPERIMENTS E20 has the measurements), so every campaign builds its
//! plan in its prepare step. [`ArtifactStore`] remains only because
//! existing callers still open one and hand it to
//! `FaultSimulator::new_cached` and `PackedOptions::with_artifacts` in
//! `rescue-faults`, which ignore it. New code passes nothing.

use std::path::PathBuf;

/// An inert artifact-cache handle: [`ArtifactStore::open`] creates and
/// reads nothing, and no library code reads or writes through it.
///
/// # Examples
///
/// ```
/// use rescue_campaign::ArtifactStore;
///
/// let root = std::env::temp_dir().join(format!("rescue-art-{}", std::process::id()));
/// let _store = ArtifactStore::open(&root);
/// assert!(!root.exists(), "opening a store creates nothing");
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    _inert: (),
}

impl ArtifactStore {
    /// Returns the inert handle. `_root` is neither created nor read.
    pub fn open(_root: impl Into<PathBuf>) -> Self {
        ArtifactStore { _inert: () }
    }
}
