//! Integration tests for the persistent program library: proptest
//! round-trips, corrupted-store robustness, and genuine two-process store
//! sharing through its one client, `SvdCircuit::program_with_store`.

use flumen_linalg::{sha256_hex, RMat};
use flumen_photonics::progstore::{
    decode_program, derive_program, encode_program, matrix_key, ProgramStore,
};
use flumen_photonics::SvdCircuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per call (tests run concurrently in one
/// process, and the two-process test shares the pid).
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "flumen-progstore-it-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn random_mat(seed: u64, n: usize) -> RMat {
    let mut rng = StdRng::seed_from_u64(seed);
    RMat::from_fn(n, n, |_, _| rng.gen_range(-2.0..2.0))
}

/// Canonical fingerprint of a circuit's complete transfer function: the
/// bits of its response to every unit input.
fn circuit_hash(c: &SvdCircuit) -> String {
    let mut bytes = Vec::new();
    for i in 0..c.n() {
        let mut e = vec![0.0; c.n()];
        e[i] = 1.0;
        for y in c.apply(&e) {
            bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        }
    }
    sha256_hex(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Store → load round-trips bit-identical programs for random
    /// weights and geometries, and a circuit built from the loaded
    /// program computes bit-identically to a cold one.
    #[test]
    fn store_load_round_trip_bit_identical(seed in any::<u32>(), n_half in 1usize..5) {
        let n = n_half * 2; // 2..=8
        let m = random_mat(seed as u64, n);
        let prog = derive_program(&m).unwrap();

        // Codec round-trip.
        let decoded = decode_program(&encode_program(&prog)).unwrap();
        prop_assert_eq!(decoded.norm.to_bits(), prog.norm.to_bits());
        prop_assert_eq!(decoded.sigma.len(), prog.sigma.len());
        for (a, b) in decoded.sigma.iter().zip(prog.sigma.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (x, y) in [(&decoded.v_prog, &prog.v_prog), (&decoded.u_prog, &prog.u_prog)] {
            prop_assert_eq!(x.n, y.n);
            prop_assert_eq!(x.ops.len(), y.ops.len());
            for ((ma, pa), (mb, pb)) in x.ops.iter().zip(y.ops.iter()) {
                prop_assert_eq!(ma, mb);
                prop_assert_eq!(pa.theta.to_bits(), pb.theta.to_bits());
                prop_assert_eq!(pa.phi.to_bits(), pb.phi.to_bits());
            }
            for (a, b) in x.output_phases.iter().zip(y.output_phases.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Disk round-trip drives an identical circuit.
        let dir = scratch_dir("prop");
        let store = ProgramStore::open(&dir).unwrap();
        let key = matrix_key(&m);
        prop_assert!(store.store(&key, n, &prog));
        let loaded = store.load(&key, n).unwrap();
        let cold = SvdCircuit::from_program(&prog).unwrap();
        let warm = SvdCircuit::from_program(&loaded).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.83 + 0.21).sin()).collect();
        let yc = cold.apply(&x);
        let yw = warm.apply(&x);
        for (a, b) in yc.iter().zip(yw.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_and_truncated_entries_degrade_to_miss() {
    let dir = scratch_dir("corrupt");
    let store = ProgramStore::open(&dir).unwrap();
    let m = random_mat(77, 4);
    let key = matrix_key(&m);
    let prog = derive_program(&m).unwrap();
    assert!(store.store(&key, 4, &prog));
    let path = store.entry_path(&key, 4);
    let good = std::fs::read(&path).unwrap();

    // Random garbage.
    std::fs::write(&path, b"\x00\xffgarbage in the program library\x17").unwrap();
    assert!(store.load(&key, 4).is_none());
    // Truncation.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(store.load(&key, 4).is_none());
    // Single flipped byte in the payload.
    let mut flipped = good.clone();
    flipped[10] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    assert!(store.load(&key, 4).is_none());
    assert_eq!(store.stats().corrupt, 3);
    assert_eq!(store.stats().hits, 0);

    // A circuit programmed over the corrupt store recomputes, repairs the
    // entry, and stays bit-identical to a store-less cold run.
    std::fs::write(&path, b"still broken").unwrap();
    let plain = SvdCircuit::program(&m).unwrap();
    let repaired = SvdCircuit::program_with_store(&m, Some(&store)).unwrap();
    assert_eq!(circuit_hash(&plain), circuit_hash(&repaired));
    assert_eq!(store.stats().corrupt, 4);
    // The write-through replaced the garbage: next load is a clean hit.
    assert!(store.load(&key, 4).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic workload both sides of the two-process test agree on.
fn two_process_matrix() -> RMat {
    RMat::from_fn(4, 4, |r, c| ((r * 7 + c * 3) as f64 * 0.213 + 0.11).cos())
}

fn two_process_circuit(store: &ProgramStore) -> SvdCircuit {
    SvdCircuit::program_with_store(&two_process_matrix(), Some(store)).unwrap()
}

/// Child half of the two-process test: cold-programs through the shared
/// store and reports its result hash. Ignored in normal runs; the parent
/// test re-invokes this binary with `--ignored --exact` and the store
/// directory in the environment.
#[test]
#[ignore = "spawned by two_process_sharing_gets_disk_warm_hits"]
fn two_process_child_writer() {
    let Ok(dir) = std::env::var("FLUMEN_PROGSTORE_TWO_PROC") else {
        return;
    };
    let store = ProgramStore::open(std::path::Path::new(&dir)).unwrap();
    let c = two_process_circuit(&store);
    assert_eq!(
        store.stats().writes,
        1,
        "child pays the one cold derivation"
    );
    std::fs::write(
        std::path::Path::new(&dir).join("child_hash.txt"),
        circuit_hash(&c),
    )
    .unwrap();
}

#[test]
fn two_process_sharing_gets_disk_warm_hits() {
    let dir = scratch_dir("twoproc");
    std::fs::create_dir_all(&dir).unwrap();

    // Run the child writer in a genuinely separate process.
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(&exe)
        .args(["two_process_child_writer", "--exact", "--ignored"])
        .env("FLUMEN_PROGSTORE_TWO_PROC", &dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "child writer failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let child_hash = std::fs::read_to_string(dir.join("child_hash.txt")).unwrap();

    // This (second) process programs the same workload: disk-warm hits,
    // zero cold derivations, identical result hash.
    let store = ProgramStore::open(&dir).unwrap();
    let c = two_process_circuit(&store);
    let stats = store.stats();
    assert!(stats.hits > 0, "second process must get disk-warm hits");
    assert_eq!(stats.writes, 0, "second process never decomposes");
    assert_eq!(circuit_hash(&c), child_hash, "cross-process result hash");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_disabled_cold_and_warm_all_bit_identical() {
    let dir = scratch_dir("tiers");
    let store = ProgramStore::open(&dir).unwrap();
    let m = random_mat(123, 4);
    // Disabled: no store.
    let disabled = SvdCircuit::program_with_store(&m, None).unwrap();
    // Cold: store open but empty.
    let cold = SvdCircuit::program_with_store(&m, Some(&store)).unwrap();
    assert_eq!(store.stats().writes, 1, "cold derivation written through");
    // Warm: entry now on disk.
    let warm = SvdCircuit::program_with_store(&m, Some(&store)).unwrap();
    assert!(store.stats().hits > 0);

    let h = circuit_hash(&disabled);
    assert_eq!(h, circuit_hash(&cold));
    assert_eq!(h, circuit_hash(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}
