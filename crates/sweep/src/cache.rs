//! Content-addressed on-disk result cache.
//!
//! One JSON file per job under the cache directory, named by the job's
//! content hash (`<sha256>.json`). Because the hash covers every input
//! parameter *and* a code-version salt ([`crate::job::CODE_VERSION`]),
//! invalidation is automatic: change any knob and the job simply misses.
//! Entries embed the originating spec, so a cache directory is
//! self-describing and can be audited or replayed without the plan that
//! produced it.
//!
//! Entries live in a [`ByteStore`]: atomic publish, a trailing checksum,
//! size-bounded reads. A missing, corrupt or stale entry is a miss and a
//! failed write is counted, so cache trouble costs a re-simulation at
//! most and never stops a sweep.

use crate::job::{JobResult, JobSpec, CODE_VERSION};
use crate::json::{FromJson, Json, ToJson};
use flumen_linalg::store::{ByteStore, StoreStats};
use std::path::{Path, PathBuf};

/// A cache entry as stored on disk.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The spec that produced the result.
    pub spec: JobSpec,
    /// The simulation output.
    pub result: JobResult,
    /// Wall-clock time of the original (uncached) execution, ms.
    pub wall_ms: f64,
}

/// Handle to a cache directory. Clones share the I/O counters.
#[derive(Debug, Clone)]
pub struct ResultCache {
    store: ByteStore,
}

impl ResultCache {
    /// Opens a cache rooted at `dir` (created by the first store). Never
    /// panics: an unusable directory turns every lookup into a miss and
    /// every store into a counted write failure.
    pub fn open(dir: &Path) -> Self {
        ResultCache {
            store: ByteStore::open(dir),
        }
    }

    /// The default location: `$FLUMEN_DATA_DIR/cache`, falling back to
    /// `EXPERIMENTS-data/cache`.
    pub fn default_dir() -> PathBuf {
        let data = std::env::var("FLUMEN_DATA_DIR").unwrap_or_else(|_| "EXPERIMENTS-data".into());
        PathBuf::from(data).join("cache")
    }

    fn entry_name(hash: &str) -> String {
        format!("{hash}.json")
    }

    /// Path of the entry for `hash`.
    pub fn entry_path(&self, hash: &str) -> PathBuf {
        self.store.path(&Self::entry_name(hash))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Looks up a job by content hash. Returns `None` on miss *or* on an
    /// unreadable/corrupt entry (which then simply gets recomputed and
    /// rewritten — corruption is never fatal).
    pub fn load(&self, hash: &str) -> Option<CacheEntry> {
        self.store.load(&Self::entry_name(hash), |bytes| {
            let j = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
            // Defense in depth: the version is part of the hash already, but a
            // hand-edited or migrated entry should still never be served stale.
            if j.get("code_version").ok()?.as_str().ok()? != CODE_VERSION {
                return None;
            }
            Some(CacheEntry {
                spec: JobSpec::from_json(j.get("spec").ok()?).ok()?,
                result: JobResult::from_json(j.get("result").ok()?).ok()?,
                wall_ms: j.get("wall_ms").ok()?.as_f64().ok()?,
            })
        })
    }

    /// Stores a result under its spec's content hash and returns the
    /// hash. Concurrent writers of the same hash are safe because they
    /// write identical content; a failed write is counted in
    /// [`ResultCache::stats`].
    pub fn store(&self, spec: &JobSpec, result: &JobResult, wall_ms: f64) -> String {
        let hash = spec.content_hash();
        let entry = Json::obj([
            ("code_version", Json::Str(CODE_VERSION.into())),
            ("hash", Json::Str(hash.clone())),
            ("label", Json::Str(spec.label())),
            ("spec", spec.to_json()),
            ("result", result.to_json()),
            ("wall_ms", wall_ms.to_json()),
        ]);
        self.store
            .put(&Self::entry_name(&hash), entry.to_pretty().as_bytes());
        hash
    }

    /// Hit/miss/corrupt/write counters of this handle and its clones.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Removes every entry (used by `--force` style re-runs and tests).
    pub fn clear(&self) {
        for name in self.store.names(".json") {
            self.store.remove(&name);
        }
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        self.store.names(".json").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, NetSpec};
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use std::fs;

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("flumen-sweep-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(&dir)
    }

    fn tiny_noc_spec(seed: u64) -> JobSpec {
        JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 8 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig {
                warmup: 50,
                measure: 200,
                seed,
                ..RunConfig::default()
            },
        }
    }

    #[test]
    fn miss_store_hit_round_trip() {
        let cache = tmp_cache("roundtrip");
        let spec = tiny_noc_spec(1);
        let hash = spec.content_hash();
        assert!(cache.load(&hash).is_none(), "fresh cache must miss");

        let result = spec.execute();
        cache.store(&spec, &result, 12.5);
        let entry = cache.load(&hash).expect("stored entry must hit");
        assert_eq!(entry.spec, spec);
        assert_eq!(
            entry.result.latency().avg_latency,
            result.latency().avg_latency
        );
        assert_eq!(entry.wall_ms, 12.5);

        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn different_params_use_different_entries() {
        let cache = tmp_cache("invalidate");
        let a = tiny_noc_spec(1);
        let b = tiny_noc_spec(2); // seed differs → new hash → miss
        cache.store(&a, &a.execute(), 1.0);
        assert!(cache.load(&a.content_hash()).is_some());
        assert!(cache.load(&b.content_hash()).is_none());
        assert_ne!(a.content_hash(), b.content_hash());

        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let cache = tmp_cache("corrupt");
        let spec = tiny_noc_spec(3);
        let hash = cache.store(&spec, &spec.execute(), 1.0);
        fs::write(cache.entry_path(&hash), "{ not json").unwrap();
        assert!(cache.load(&hash).is_none());

        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn deeply_nested_entry_is_a_counted_corrupt_miss() {
        let cache = tmp_cache("deep");
        let hash = tiny_noc_spec(5).content_hash();
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        // Sealed with a valid checksum, so only the parser's depth bound
        // stands between this entry and a stack overflow.
        let store = ByteStore::open(cache.dir());
        assert!(store.put(&ResultCache::entry_name(&hash), deep.as_bytes()));
        assert!(cache.load(&hash).is_none());
        assert_eq!(cache.stats().corrupt, 1);
        assert_eq!(cache.stats().hits, 0);

        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = tmp_cache("clear");
        let spec = tiny_noc_spec(4);
        cache.store(&spec, &spec.execute(), 1.0);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());

        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
