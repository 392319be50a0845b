//! Batched-MVM conservation: a batch is *exactly* the sequence of its
//! single-vector executions.
//!
//! The batched primitives ([`MzimMesh::propagate_batch`],
//! [`MeshProgram::apply_batch`], [`FlumenFabric::compute_batch_in`],
//! [`FlumenFabric::compute_batch_in_with_model`]) exist to amortize mesh
//! programming — one phase write, `B` propagations — and promise to change
//! scheduling and energy accounting only, never numerics. These property
//! tests pin that promise to the bit level: every batched result must have
//! the same `f64::to_bits` as the equivalent sequence of single MVMs
//! (including the per-vector noise-seed convention `seed + i`). The energy
//! half of the conservation law
//! (`batched_total == 1×programming + B×propagation`, exact) lives in
//! `flumen-power`'s `batched_energy_conservation_is_exact`, next to the
//! split it constrains; the system-level half (identical activity counts
//! and packet traffic for one B-vector offload vs B single-vector
//! offloads) is `crates/core/tests/batched_offload.rs`.

use flumen_linalg::{random_unitary, RMat, C64};
use flumen_photonics::clements::{apply_program, decompose};
use flumen_photonics::{AnalogModel, FlumenFabric, MzimMesh, PartitionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits_eq(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn real_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn field_batch(n: usize, batch: usize, rng: &mut StdRng) -> Vec<Vec<C64>> {
    (0..batch)
        .map(|_| {
            (0..n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mesh level: `propagate_batch` ≡ the sequence of `propagate` calls.
    #[test]
    fn mesh_batch_equals_singles(n in 2usize..11, batch in 0usize..9, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let u = random_unitary(n, &mut rng);
        let mut mesh = MzimMesh::new(n);
        apply_program(&mut mesh, &decompose(&u).unwrap()).unwrap();
        let inputs = field_batch(n, batch, &mut rng);
        let batched = mesh.propagate_batch(&inputs);
        prop_assert_eq!(batched.len(), batch);
        for (i, x) in inputs.iter().enumerate() {
            prop_assert!(bits_eq(&batched[i], &mesh.propagate(x)), "vector {i}");
        }
    }

    /// Program level: `apply_batch` programs once and matches programming
    /// followed by single propagations.
    #[test]
    fn apply_batch_equals_program_then_singles(
        n in 2usize..11, batch in 1usize..9, seed in any::<u32>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let prog = decompose(&random_unitary(n, &mut rng)).unwrap();
        let inputs = field_batch(n, batch, &mut rng);

        let mut mesh_batch = MzimMesh::new(n);
        let batched = prog.apply_batch(&mut mesh_batch, &inputs).unwrap();

        let mut mesh_single = MzimMesh::new(n);
        apply_program(&mut mesh_single, &prog).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            prop_assert!(bits_eq(&batched[i], &mesh_single.propagate(x)), "vector {i}");
        }
    }

    /// Fabric level, ideal model: `compute_batch_in` ≡ per-vector
    /// `compute_in` on the same programmed partition.
    #[test]
    fn fabric_batch_equals_singles(batch in 1usize..9, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let n = 8;
        let m = RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut fab = FlumenFabric::new(2 * n).unwrap();
        fab.set_partitions(&[
            (n, PartitionConfig::Compute(&m)),
            (n, PartitionConfig::Idle),
        ])
        .unwrap();
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let batched = fab.compute_batch_in(0, &xs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            prop_assert!(
                real_bits_eq(&batched[i], &fab.compute_in(0, x).unwrap()),
                "vector {i}"
            );
        }
    }

    /// Fabric level, noisy model: vector `i` of the batch uses noise seed
    /// `seed + i`, so the batch replays the exact single-call sequence.
    #[test]
    fn fabric_batch_with_model_uses_per_vector_seeds(
        batch in 1usize..7, seed in any::<u32>(), noise_seed in any::<u32>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let n = 6;
        let m = RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut fab = FlumenFabric::new(2 * n).unwrap();
        fab.set_partitions(&[
            (n, PartitionConfig::Compute(&m)),
            (n, PartitionConfig::Idle),
        ])
        .unwrap();
        let model = AnalogModel::eight_bit();
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let s0 = noise_seed as u64;
        let batched = fab.compute_batch_in_with_model(0, &xs, &model, s0).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let single = fab
                .compute_in_with_model(0, x, &model, s0.wrapping_add(i as u64))
                .unwrap();
            prop_assert!(real_bits_eq(&batched[i], &single), "vector {i}");
        }
    }
}

/// Batch errors are whole-batch: one bad vector aborts, and the length
/// check in `apply_batch` fires before any propagation is returned.
#[test]
fn batch_rejects_mismatched_vectors() {
    let mut rng = StdRng::seed_from_u64(11);
    let prog = decompose(&random_unitary(4, &mut rng)).unwrap();
    let mut mesh = MzimMesh::new(4);
    let bad = vec![vec![C64::ONE; 4], vec![C64::ONE; 3]];
    assert!(prog.apply_batch(&mut mesh, &bad).is_err());

    let m = RMat::from_fn(4, 4, |r, c| (r + c) as f64 * 0.1);
    let mut fab = FlumenFabric::new(8).unwrap();
    fab.set_partitions(&[
        (4, PartitionConfig::Compute(&m)),
        (4, PartitionConfig::Idle),
    ])
    .unwrap();
    assert!(fab
        .compute_batch_in(0, &[vec![0.5; 4], vec![0.5; 5]])
        .is_err());
}

/// A rejected batch leaves the mesh as it was: the lengths are checked
/// before the program is written, so the phases and output screen of the
/// previous programming survive bit for bit.
#[test]
fn rejected_batch_leaves_the_mesh_untouched() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut mesh = MzimMesh::new(4);
    apply_program(&mut mesh, &decompose(&random_unitary(4, &mut rng)).unwrap()).unwrap();
    let state = |mesh: &MzimMesh| {
        let phases: Vec<(u64, u64)> = mesh
            .iter()
            .map(|s| (s.phase.theta.to_bits(), s.phase.phi.to_bits()))
            .collect();
        let screen: Vec<u64> = mesh.output_phases().iter().map(|p| p.to_bits()).collect();
        (phases, screen)
    };
    let before = state(&mesh);
    let probe = vec![C64::new(0.3, -0.2); 4];
    let out_before = mesh.propagate(&probe);

    let other = decompose(&random_unitary(4, &mut rng)).unwrap();
    let bad = vec![vec![C64::ONE; 4], vec![C64::ONE; 5]];
    assert!(matches!(
        other.apply_batch(&mut mesh, &bad),
        Err(flumen_photonics::PhotonicsError::DimensionMismatch {
            expected: 4,
            actual: 5
        })
    ));
    assert_eq!(state(&mesh), before);
    assert!(bits_eq(&mesh.propagate(&probe), &out_before));
}
