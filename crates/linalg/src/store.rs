//! Atomic, checksummed, size-bounded byte store on disk.
//!
//! One directory of named entries shared by every on-disk cache in the
//! workspace: the sweep result cache, simulator checkpoints, and the
//! partition-program library. Callers own the encoding; the store owns
//! the bytes' integrity and the failure policy.
//!
//! * **Atomic publish** — an entry is written to a temp file named with
//!   the process id plus a per-process sequence number, then renamed into
//!   place. Readers see either nothing or a complete entry, and no two
//!   writers (threads or processes) ever share a temp file.
//! * **Checksummed** — every entry ends with the 64 ASCII hex digits of
//!   the SHA-256 of the bytes before them (see [`seal`]).
//! * **Size-bounded reads** — entries over [`MAX_ENTRY_BYTES`] are
//!   rejected before they are read into memory.
//! * **Never fatal** — nothing panics and nothing returns `io::Result`.
//!   A missing or unreadable entry is a miss; a truncated, garbled,
//!   oversized, or undecodable one is a corrupt miss; a failed write is a
//!   counted write failure. The caller recomputes and carries on.

use crate::sha256_hex;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Largest entry a read will accept, checksum included.
pub const MAX_ENTRY_BYTES: u64 = 256 << 20;

/// Length of the trailing checksum: SHA-256 as lowercase hex.
const DIGEST_LEN: usize = 64;

/// Counters of one store handle (shared by clones of the handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries read, verified and accepted by the caller's decoder.
    pub hits: u64,
    /// Lookups that found no readable entry.
    pub misses: u64,
    /// Entries present but rejected: oversized, truncated,
    /// checksum-mismatched, or refused by the decoder. Each is also a
    /// miss to the caller.
    pub corrupt: u64,
    /// Entries published (write + rename completed).
    pub writes: u64,
    /// Publishes that failed; the entry was not stored.
    pub write_failures: u64,
}

/// Discriminates temp-file names within one process (the pid separates
/// processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle to a store directory. Cheap to clone; clones share counters.
#[derive(Debug, Clone)]
pub struct ByteStore {
    dir: PathBuf,
    stats: Arc<Mutex<StoreStats>>,
}

impl ByteStore {
    /// A store rooted at `dir`. Never fails and touches nothing on disk:
    /// each write creates the directory if it is missing, and if it cannot
    /// be created every read misses and every write is a counted failure.
    pub fn open(dir: &Path) -> Self {
        ByteStore {
            dir: dir.to_path_buf(),
            stats: Arc::default(),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of entry `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Reads entry `name`, verifies its checksum, and hands the body to
    /// `decode`. `None` on a miss or on any rejection, each counted.
    pub fn load<T>(&self, name: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let Ok(bytes) = read_bounded(&self.path(name)) else {
            self.count(|s| &mut s.misses);
            return None;
        };
        let value = bytes.as_deref().and_then(unseal).and_then(decode);
        match value {
            Some(_) => self.count(|s| &mut s.hits),
            None => self.count(|s| &mut s.corrupt),
        }
        value
    }

    /// Publishes `body` as entry `name` (sealed with its checksum).
    /// Returns whether the entry landed; a failure is counted, never
    /// fatal. Concurrent writers of one name race benignly when they
    /// write identical bytes.
    pub fn put(&self, name: &str, body: &[u8]) -> bool {
        let tmp = self.dir.join(format!(
            "{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::create_dir_all(&self.dir).and_then(|()| fs::write(&tmp, seal(body)));
        let published = written.is_ok() && fs::rename(&tmp, self.path(name)).is_ok();
        if published {
            self.count(|s| &mut s.writes);
        } else {
            let _ = fs::remove_file(&tmp);
            self.count(|s| &mut s.write_failures);
        }
        published
    }

    /// Deletes entry `name` if present.
    pub fn remove(&self, name: &str) {
        let _ = fs::remove_file(self.path(name));
    }

    /// Names of the published entries ending in `suffix`, sorted (temp
    /// files excluded).
    pub fn names(&self, suffix: &str) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(suffix) && !n.contains(".tmp."))
            .collect();
        names.sort_unstable();
        names
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, field: impl FnOnce(&mut StoreStats) -> &mut u64) {
        *field(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner)) += 1;
    }
}

/// The file's bytes, or `None` when it is larger than [`MAX_ENTRY_BYTES`].
fn read_bounded(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    let file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len > MAX_ENTRY_BYTES {
        return Ok(None);
    }
    let mut buf = Vec::with_capacity(len as usize);
    // `take` also bounds a file that grew after the length check.
    file.take(MAX_ENTRY_BYTES + 1).read_to_end(&mut buf)?;
    Ok((buf.len() as u64 <= MAX_ENTRY_BYTES).then_some(buf))
}

/// `body` followed by the hex SHA-256 of `body`: the on-disk form of
/// every entry.
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + DIGEST_LEN);
    out.extend_from_slice(body);
    out.extend_from_slice(sha256_hex(body).as_bytes());
    out
}

/// The body of a sealed entry, or `None` if the trailing checksum is
/// missing or does not match.
pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let body_len = bytes.len().checked_sub(DIGEST_LEN)?;
    let (body, digest) = bytes.split_at(body_len);
    (sha256_hex(body).as_bytes() == digest).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_path(tag: &str) -> PathBuf {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("flumen-store-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn accept(b: &[u8]) -> Option<Vec<u8>> {
        Some(b.to_vec())
    }

    #[test]
    fn put_load_round_trip_and_counts() {
        let s = ByteStore::open(&scratch_path("roundtrip"));
        assert_eq!(s.load("a", accept), None);
        assert!(s.put("a", b"payload"));
        assert_eq!(s.load("a", accept).as_deref(), Some(&b"payload"[..]));
        assert_eq!(s.names(""), vec!["a".to_string()]);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.corrupt, st.writes), (1, 1, 0, 1));
        // A decoder refusal is a corrupt miss.
        assert_eq!(s.load("a", |_| None::<()>), None);
        assert_eq!(s.clone().stats().corrupt, 1, "clones share counters");
        s.remove("a");
        assert!(s.names("").is_empty());
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn truncated_flipped_and_oversized_entries_are_corrupt_misses() {
        let s = ByteStore::open(&scratch_path("damaged"));
        assert!(s.put("e", b"some entry body"));
        let bytes = fs::read(s.path("e")).unwrap();
        let n = bytes.len();
        let mut damaged: Vec<Vec<u8>> =
            [0, 1, n / 2, n - 1].map(|cut| bytes[..cut].to_vec()).into();
        for pos in [0, 5, n - DIGEST_LEN, n - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            damaged.push(bad);
        }
        for bad in &damaged {
            fs::write(s.path("e"), bad).unwrap();
            assert_eq!(s.load("e", accept), None, "{bad:?}");
        }
        // Oversized: refused from its length alone (a sparse file).
        let big = fs::File::create(s.path("e")).unwrap();
        big.set_len(MAX_ENTRY_BYTES + 1).unwrap();
        assert_eq!(s.load("e", accept), None);
        assert_eq!(s.stats().corrupt, damaged.len() as u64 + 1);
        assert_eq!(s.stats().hits, 0);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn failed_write_is_counted_not_fatal() {
        // A regular file where the directory should be: creating it and
        // writing under it both fail, whatever the process's privileges.
        let blocker = scratch_path("blocked");
        fs::write(&blocker, b"not a directory").unwrap();
        let s = ByteStore::open(&blocker);
        assert!(!s.put("e", b"body"));
        assert!(!s.put("f", b"body"));
        assert_eq!(s.load("e", accept), None);
        let st = s.stats();
        assert_eq!((st.writes, st.write_failures, st.misses), (0, 2, 1));
        assert!(s.names("").is_empty());
        let _ = fs::remove_file(&blocker);
    }

    #[test]
    fn failed_rename_is_counted_and_leaves_no_temp_file() {
        // A non-empty directory where the entry should land: the temp file
        // is written, but no rename can replace the directory, whatever
        // the process's privileges.
        let dir = scratch_path("rename");
        let s = ByteStore::open(&dir);
        fs::create_dir_all(s.path("e").join("occupant")).unwrap();
        assert!(!s.put("e", b"body"));
        let st = s.stats();
        assert_eq!((st.writes, st.write_failures), (0, 1));
        let left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        assert_eq!(left, vec!["e".to_string()], "the temp file is removed");
        // The blocked name reads as a miss; other names still publish.
        assert_eq!(s.load("e", accept), None);
        assert!(s.put("f", b"body"));
        assert_eq!(s.load("f", accept).as_deref(), Some(&b"body"[..]));
        let _ = fs::remove_dir_all(&dir);
    }
}
