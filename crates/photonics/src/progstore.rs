//! Persistent, content-addressed library of pre-decomposed partition
//! programs (ROADMAP item 5: "pre-routed cores for the mesh").
//!
//! Reconfiguring a compute partition is dominated by the SVD and the two
//! Clements decompositions; the resulting [`PartitionProgram`] is a pure
//! function of the weight matrix bits. This module persists that program
//! on disk, keyed by `(weight content hash, partition geometry,
//! PROGSTORE_VERSION)`, so every fresh process, sweep worker, and serve
//! replica pays the decomposition at most once per unique weight —
//! "fleet-warm" reconfiguration.
//!
//! Contracts:
//!
//! * **Bit-exactness** — the binary codec stores every `f64` as its raw
//!   bits, so a store hit replays a program byte-identical to a fresh
//!   [`derive_program`] run. The store can only change wall-clock time,
//!   never simulation results.
//! * **Lock-free concurrent sharing** — entries live in a
//!   [`ByteStore`]: atomic publish, readers see either nothing or a
//!   complete entry, and concurrent writers of the same key race benignly
//!   (they write identical bytes). No file locks anywhere.
//! * **Corruption degrades to a miss** — the store's trailing SHA-256
//!   checksum guards every entry; truncated, garbled, or
//!   version-mismatched files are counted in [`ProgStoreStats::corrupt`]
//!   and recomputed, never trusted and never fatal.

use crate::clements::MeshProgram;
use crate::mzi::MziPhase;
use crate::svd_circuit::with_program_work;
use crate::{PhotonicsError, Result};
use flumen_linalg::store::{seal, unseal, ByteStore, StoreStats};
use flumen_linalg::{sha256_hex, RMat};
use std::path::{Path, PathBuf};

/// Version salt of the on-disk binary format and of the decomposition
/// pipeline feeding it. Bump whenever either changes in a bit-affecting
/// way; old entries then miss (their file names embed the version) and
/// are lazily recompiled.
pub const PROGSTORE_VERSION: u32 = 1;

/// Magic prefix of every store entry.
const MAGIC: &[u8; 4] = b"FLPG";

/// Largest partition width the codec will believe when decoding. Corrupt
/// length fields beyond this are rejected before any allocation.
const MAX_DECODE_N: usize = 1 << 14;

/// Everything a compute partition needs, minus the mesh writes: the two
/// Clements programs for `Vᵀ` and `U`, the singular values for the Σ
/// attenuator column, and the folded-out spectral norm. Replaying a
/// `PartitionProgram` is deterministic, so any two holders of the same
/// program configure hardware bit-identically.
#[derive(Debug, Clone)]
pub struct PartitionProgram {
    /// Clements program realizing `Vᵀ` on the left half-columns.
    pub v_prog: MeshProgram,
    /// Clements program realizing `U` on the right half-columns.
    pub u_prog: MeshProgram,
    /// Singular values (attenuator amplitudes), descending.
    pub sigma: Vec<f64>,
    /// Spectral norm folded out of the weight matrix before the SVD.
    pub norm: f64,
}

impl PartitionProgram {
    /// The partition width `w` this program targets.
    pub fn width(&self) -> usize {
        self.v_prog.n
    }
}

/// Derives the full partition program for a `w×w` weight matrix: spectral
/// pre-scaling, SVD, and one Clements decomposition per unitary factor.
///
/// This is the cold path a [`ProgramStore`] hit short-circuits —
/// [`crate::FlumenFabric`] and [`crate::SvdCircuit`] both program through
/// it, so a store hit is bit-identical to a fresh derivation.
///
/// # Errors
///
/// * [`PhotonicsError::InvalidSize`] for non-square or sub-2×2 matrices.
/// * [`PhotonicsError::SingularValueTooLarge`] if pre-scaling left a
///   `σᵢ > 1` (numerically impossible after `spectral_scale`, checked
///   anyway).
/// * Propagates SVD / decomposition failures.
pub fn derive_program(m: &RMat) -> Result<PartitionProgram> {
    let n = m.rows();
    if m.cols() != n || n < 2 {
        return Err(PhotonicsError::InvalidSize {
            n,
            requirement: "partition programs need a square matrix, ≥ 2×2",
        });
    }
    with_program_work(|work| {
        work.derive(m, true)?;
        Ok(work.prog.clone())
    })
}

/// Content-address of a weight matrix: SHA-256 over dimensions plus the
/// little-endian `f64::to_bits` of every element (row-major). Bit-exact —
/// matrices differing only in `-0.0` vs `+0.0` or NaN payloads hash apart,
/// which errs on the side of a spurious miss, never a wrong hit.
pub fn matrix_key(m: &RMat) -> String {
    let mut bytes = Vec::with_capacity(16 + m.as_slice().len() * 8);
    bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for v in m.as_slice() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    sha256_hex(&bytes)
}

/// Counters of one store handle (shared by clones of the handle).
pub type ProgStoreStats = StoreStats;

/// Handle to an on-disk program library. Cheap to clone; clones share
/// the statistics counters, so a fleet of workers holding clones reports
/// one aggregate hit/miss/corrupt count.
#[derive(Debug, Clone)]
pub struct ProgramStore {
    store: ByteStore,
}

impl ProgramStore {
    /// Opens (creating if missing) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(ProgramStore {
            store: ByteStore::open(dir),
        })
    }

    /// Opens the store named by the `FLUMEN_PROGSTORE_DIR` environment
    /// variable; `None` when unset, empty, or uncreatable.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var("FLUMEN_PROGSTORE_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        ProgramStore::open(Path::new(&dir)).ok()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Path of the entry for a weight matrix key at partition width `w`.
    /// The name embeds the geometry and format version, so a version bump
    /// or a reshaped mesh misses cleanly instead of decoding garbage.
    pub fn entry_path(&self, m_key: &str, w: usize) -> PathBuf {
        self.store.path(&entry_name(m_key, w))
    }

    /// Loads the program for `(m_key, w)`. `None` on a miss *or* on a
    /// corrupt/mismatched entry — corruption is counted separately in
    /// the stats but always degrades to recomputation, never to a panic.
    pub fn load(&self, m_key: &str, w: usize) -> Option<PartitionProgram> {
        self.store.load(&entry_name(m_key, w), |body| {
            decode_body(body).filter(|p| p.width() == w && p.u_prog.n == w && p.sigma.len() == w)
        })
    }

    /// Publishes a program under `(m_key, w)`. Returns whether the entry
    /// was published; I/O failure is counted, not fatal (the caller
    /// already holds the derived program).
    pub fn store(&self, m_key: &str, w: usize, prog: &PartitionProgram) -> bool {
        self.store.put(&entry_name(m_key, w), &encode_body(prog))
    }

    /// Snapshot of the hit/miss/corrupt/write counters.
    pub fn stats(&self) -> ProgStoreStats {
        self.store.stats()
    }

    /// Number of program entries currently on disk (any format version).
    pub fn len(&self) -> usize {
        self.store.names(".prog").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every program entry (counters are preserved).
    pub fn clear(&self) {
        for name in self.store.names(".prog") {
            self.store.remove(&name);
        }
    }
}

/// Store entry name: the geometry and format version are part of it.
fn entry_name(m_key: &str, w: usize) -> String {
    format!("{m_key}-w{w}-v{PROGSTORE_VERSION}.prog")
}

// ---------------------------------------------------------------------
// Binary codec. All integers and float bits little-endian; on disk the
// store's trailing checksum (64 ASCII hex bytes of SHA-256) follows.
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_mesh_program(out: &mut Vec<u8>, p: &MeshProgram) {
    put_u64(out, p.n as u64);
    put_u64(out, p.ops.len() as u64);
    for &(mode, phase) in &p.ops {
        put_u64(out, mode as u64);
        put_f64(out, phase.theta);
        put_f64(out, phase.phi);
    }
    put_u64(out, p.output_phases.len() as u64);
    for &a in &p.output_phases {
        put_f64(out, a);
    }
}

/// Serializes a program to the checksummed binary entry format (the
/// bytes of a store entry).
pub fn encode_program(prog: &PartitionProgram) -> Vec<u8> {
    seal(&encode_body(prog))
}

fn encode_body(prog: &PartitionProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + (prog.v_prog.ops.len() + prog.u_prog.ops.len()) * 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&PROGSTORE_VERSION.to_le_bytes());
    put_f64(&mut out, prog.norm);
    put_u64(&mut out, prog.sigma.len() as u64);
    for &s in &prog.sigma {
        put_f64(&mut out, s);
    }
    put_mesh_program(&mut out, &prog.v_prog);
    put_mesh_program(&mut out, &prog.u_prog);
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        let b: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Option<u64> {
        let b: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A length field, bounded so corrupt entries cannot drive huge
    /// allocations before the checksum would have caught them.
    fn len(&mut self, max: usize) -> Option<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v).ok()?;
        (v <= max).then_some(v)
    }
}

fn read_mesh_program(r: &mut Reader<'_>) -> Option<MeshProgram> {
    let n = r.len(MAX_DECODE_N)?;
    if n < 2 {
        return None;
    }
    let op_count = r.len(n * n)?;
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let mode = r.len(n.checked_sub(2)?)?;
        let theta = r.f64()?;
        let phi = r.f64()?;
        // Raw-bit reconstruction: `MziPhase::new` would clamp/wrap, and a
        // decoded program must replay the stored bits exactly.
        ops.push((mode, MziPhase { theta, phi }));
    }
    let screen_len = r.len(MAX_DECODE_N)?;
    if screen_len != n {
        return None;
    }
    let mut output_phases = Vec::with_capacity(n);
    for _ in 0..n {
        output_phases.push(r.f64()?);
    }
    Some(MeshProgram {
        n,
        ops,
        output_phases,
    })
}

/// Decodes a store entry, verifying magic, version, and checksum.
/// `None` for anything that does not round-trip exactly.
pub fn decode_program(bytes: &[u8]) -> Option<PartitionProgram> {
    unseal(bytes).and_then(decode_body)
}

fn decode_body(body: &[u8]) -> Option<PartitionProgram> {
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(4)? != MAGIC || r.u32()? != PROGSTORE_VERSION {
        return None;
    }
    let norm = r.f64()?;
    let sigma_len = r.len(MAX_DECODE_N)?;
    let mut sigma = Vec::with_capacity(sigma_len);
    for _ in 0..sigma_len {
        sigma.push(r.f64()?);
    }
    let v_prog = read_mesh_program(&mut r)?;
    let u_prog = read_mesh_program(&mut r)?;
    if r.pos != body.len() || v_prog.n != u_prog.n || sigma.len() != v_prog.n {
        return None;
    }
    Some(PartitionProgram {
        v_prog,
        u_prog,
        sigma,
        norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Keeps scratch directories of concurrently running tests apart.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_matrix(seed: u64, n: usize) -> RMat {
        RMat::from_fn(n, n, |r, c| {
            ((seed as f64 + 1.0) * (r as f64 * 1.37 + c as f64 * 0.61 + 0.29)).sin()
        })
    }

    fn programs_bit_equal(a: &PartitionProgram, b: &PartitionProgram) -> bool {
        let mesh_eq = |x: &MeshProgram, y: &MeshProgram| {
            x.n == y.n
                && x.ops.len() == y.ops.len()
                && x.ops.iter().zip(y.ops.iter()).all(|(p, q)| {
                    p.0 == q.0
                        && p.1.theta.to_bits() == q.1.theta.to_bits()
                        && p.1.phi.to_bits() == q.1.phi.to_bits()
                })
                && x.output_phases.len() == y.output_phases.len()
                && x.output_phases
                    .iter()
                    .zip(y.output_phases.iter())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        };
        mesh_eq(&a.v_prog, &b.v_prog)
            && mesh_eq(&a.u_prog, &b.u_prog)
            && a.sigma.len() == b.sigma.len()
            && a.sigma
                .iter()
                .zip(b.sigma.iter())
                .all(|(p, q)| p.to_bits() == q.to_bits())
            && a.norm.to_bits() == b.norm.to_bits()
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        for n in [2usize, 3, 4, 6, 8] {
            let prog = derive_program(&test_matrix(n as u64, n)).unwrap();
            let decoded = decode_program(&encode_program(&prog)).unwrap();
            assert!(programs_bit_equal(&prog, &decoded), "n={n}");
        }
    }

    #[test]
    fn decode_rejects_truncation_anywhere() {
        let prog = derive_program(&test_matrix(1, 4)).unwrap();
        let bytes = encode_program(&prog);
        assert!(decode_program(&bytes).is_some());
        for cut in [0, 1, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_any_flipped_byte() {
        let prog = derive_program(&test_matrix(2, 4)).unwrap();
        let bytes = encode_program(&prog);
        for pos in [0usize, 4, 7, 20, bytes.len() - 70, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x5A;
            assert!(decode_program(&bad).is_none(), "pos={pos}");
        }
    }

    #[test]
    fn decode_rejects_version_mismatch() {
        let prog = derive_program(&test_matrix(3, 4)).unwrap();
        let mut bytes = encode_program(&prog);
        // Bump the version field *and* re-checksum: a future-format entry
        // with a valid digest must still be refused by this reader.
        bytes[4] = bytes[4].wrapping_add(1);
        let body_len = bytes.len() - 64;
        let digest = sha256_hex(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(digest.as_bytes());
        assert!(decode_program(&bytes).is_none());
    }

    #[test]
    fn store_load_round_trip_and_stats() {
        let dir = std::env::temp_dir().join(format!(
            "flumen-progstore-unit-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = ProgramStore::open(&dir).unwrap();
        let m = test_matrix(7, 4);
        let key = matrix_key(&m);

        assert!(store.load(&key, 4).is_none());
        assert_eq!(store.stats().misses, 1);

        let prog = derive_program(&m).unwrap();
        assert!(store.store(&key, 4, &prog));
        assert_eq!(store.len(), 1);
        let loaded = store.load(&key, 4).unwrap();
        assert!(programs_bit_equal(&prog, &loaded));
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().writes, 1);

        // A clone shares the counters and the directory.
        let clone = store.clone();
        assert!(clone.load(&key, 4).is_some());
        assert_eq!(store.stats().hits, 2);

        // Garbage on disk degrades to a counted miss.
        fs::write(store.entry_path(&key, 4), b"not a program").unwrap();
        assert!(store.load(&key, 4).is_none());
        assert_eq!(store.stats().corrupt, 1);

        store.clear();
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_width_request_misses() {
        let dir = std::env::temp_dir().join(format!(
            "flumen-progstore-width-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = ProgramStore::open(&dir).unwrap();
        let m = test_matrix(9, 4);
        let key = matrix_key(&m);
        store.store(&key, 4, &derive_program(&m).unwrap());
        // Different geometry = different entry name = plain miss.
        assert!(store.load(&key, 8).is_none());
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn derive_rejects_bad_shapes() {
        assert!(matches!(
            derive_program(&RMat::zeros(3, 4)),
            Err(PhotonicsError::InvalidSize { .. })
        ));
        assert!(matches!(
            derive_program(&RMat::identity(1)),
            Err(PhotonicsError::InvalidSize { .. })
        ));
    }
}
