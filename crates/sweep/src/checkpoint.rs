//! Checkpointing policy for long full-system jobs.
//!
//! A sweep over paper-scale inputs runs individual jobs for tens of
//! millions of cycles; a killed process (preemption, OOM, ^C) would
//! otherwise forfeit all of them. A [`CheckpointStore`] makes full-system
//! jobs resumable: each job periodically snapshots its simulator state
//! under a file keyed by the job's *content hash* — the same identity the
//! result cache uses — so a re-run of the identical spec picks up from
//! the newest checkpoint, produces the bit-identical result, and lands in
//! the cache under the same address as an uninterrupted run would have.
//!
//! Enabled via `FLUMEN_SWEEP_CHECKPOINT=<cycles>` (checkpoint interval);
//! checkpoints live under `$FLUMEN_DATA_DIR/checkpoints` (default
//! `EXPERIMENTS-data/checkpoints`) and are deleted when their job
//! completes. A checkpoint that cannot be written is counted in the
//! store's statistics and the job runs on; one that cannot be restored
//! means a cold start.

use flumen::CheckpointPolicy;
use flumen_linalg::store::ByteStore;
use std::path::PathBuf;

/// Where and how often full-system sweep jobs checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Store holding the checkpoint files of every in-flight job. Every
    /// job's policy shares its counters.
    pub store: ByteStore,
    /// Cycles between snapshots.
    pub every_cycles: u64,
}

impl CheckpointStore {
    /// A store writing to `dir` every `every_cycles` cycles.
    pub fn new(dir: PathBuf, every_cycles: u64) -> Self {
        CheckpointStore {
            store: ByteStore::open(&dir),
            every_cycles,
        }
    }

    /// The default checkpoint directory, next to the result cache:
    /// `$FLUMEN_DATA_DIR/checkpoints`, falling back to
    /// `EXPERIMENTS-data/checkpoints`.
    pub fn default_dir() -> PathBuf {
        crate::cache::ResultCache::default_dir().with_file_name("checkpoints")
    }

    /// Reads `FLUMEN_SWEEP_CHECKPOINT` (interval in cycles). Unset, zero
    /// or unparsable means checkpointing stays off.
    pub fn from_env() -> Option<Self> {
        let every = std::env::var("FLUMEN_SWEEP_CHECKPOINT")
            .ok()?
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)?;
        Some(CheckpointStore::new(Self::default_dir(), every))
    }

    /// The [`CheckpointPolicy`] for the job with content hash `hash`.
    /// Keying by content hash means a resumed spec finds exactly its own
    /// checkpoints and a changed spec (different hash) never collides
    /// with a stale one.
    pub fn policy_for(&self, hash: &str) -> CheckpointPolicy {
        CheckpointPolicy {
            store: self.store.clone(),
            key: hash.to_string(),
            every_cycles: self.every_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_inherits_dir_interval_and_keys_by_hash() {
        let store = CheckpointStore::new(PathBuf::from("/tmp/ckpt"), 5_000);
        let p = store.policy_for("abc123");
        assert_eq!(p.store.dir(), PathBuf::from("/tmp/ckpt"));
        assert_eq!(p.key, "abc123");
        assert_eq!(p.every_cycles, 5_000);
        // Distinct hashes → distinct keys, same directory.
        assert_ne!(store.policy_for("other").key, p.key);
    }

    #[test]
    fn default_dir_is_under_data_root() {
        assert!(CheckpointStore::default_dir().ends_with("checkpoints"));
    }
}
