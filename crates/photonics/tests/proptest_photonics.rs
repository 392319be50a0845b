//! Property-based tests for the photonic circuit stack.

use flumen_linalg::{random_unitary, RMat, C64};
use flumen_photonics::clements::program_mesh;
use flumen_photonics::{
    routing, AnalogModel, FlumenFabric, MziPhase, MzimMesh, PartitionConfig, SvdCircuit,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clements programming reproduces any Haar-random unitary.
    #[test]
    fn clements_round_trip(n in 2usize..11, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let u = random_unitary(n, &mut rng);
        let mut mesh = MzimMesh::new(n);
        program_mesh(&mut mesh, &u).unwrap();
        prop_assert!(mesh.transfer_matrix().approx_eq(&u, 1e-7));
    }

    /// Any permutation routes losslessly (non-blocking crossbar behaviour).
    #[test]
    fn permutation_routing_is_lossless(n_pow in 1usize..5, seed in any::<u32>()) {
        let n = 1usize << n_pow; // 2..16
        if n < 2 { return Ok(()); }
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let mut mesh = MzimMesh::new(n);
        routing::route_permutation(&mut mesh, &perm).unwrap();
        for i in 0..n {
            let mut x = vec![C64::ZERO; n];
            x[i] = C64::ONE;
            let y = mesh.propagate(&x);
            prop_assert!((y[perm[i]].norm_sqr() - 1.0).abs() < 1e-9);
        }
    }

    /// Multicast delivers exactly 1/|D| power to each destination and no
    /// power anywhere else, from any source to any non-empty subset.
    #[test]
    fn multicast_power_conservation(seed in any::<u32>(), mask in 1u16..255, src in 0usize..8) {
        let n = 8;
        let dests: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        prop_assume!(!dests.is_empty());
        let _ = seed;
        let mut mesh = MzimMesh::new(n);
        routing::route_multicast(&mut mesh, src, &dests).unwrap();
        let mut x = vec![C64::ZERO; n];
        x[src] = C64::ONE;
        let y = mesh.propagate(&x);
        let share = 1.0 / dests.len() as f64;
        for (w, f) in y.iter().enumerate() {
            if dests.contains(&w) {
                prop_assert!((f.norm_sqr() - share).abs() < 1e-9, "wire {w}");
            } else {
                prop_assert!(f.norm_sqr() < 1e-9, "leak on wire {w}");
            }
        }
    }

    /// The SVD circuit computes M·x for random matrices and inputs.
    #[test]
    fn svd_circuit_matches_dense(n in 2usize..7, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let m = RMat::from_fn(n, n, |_, _| rng.gen_range(-2.0..2.0));
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c = SvdCircuit::program(&m).unwrap();
        let y = c.apply(&x);
        let t = m.mul_vec(&x);
        for (a, b) in y.iter().zip(t.iter()) {
            prop_assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
        }
    }

    /// Fabric partitions are isolated: fields injected into one partition
    /// never leak power into another.
    #[test]
    fn fabric_partition_isolation(seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let m = RMat::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let mut fabric = FlumenFabric::new(8).unwrap();
        fabric
            .set_partitions(&[(4, PartitionConfig::Comm), (4, PartitionConfig::Compute(&m))])
            .unwrap();
        // Inject a random field pattern on the comm side only.
        let mut x = vec![C64::ZERO; 8];
        for slot in x.iter_mut().take(4) {
            *slot = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        }
        let y = fabric.propagate(&x);
        let leak: f64 = y[4..].iter().map(|f| f.norm_sqr()).sum();
        prop_assert!(leak < 1e-12);
        // And energy is conserved on the comm side (no attenuators engaged).
        let in_p: f64 = x.iter().map(|f| f.norm_sqr()).sum();
        let out_p: f64 = y[..4].iter().map(|f| f.norm_sqr()).sum();
        prop_assert!((in_p - out_p).abs() < 1e-9 * (1.0 + in_p));
    }

    /// 8-bit analog computation stays within a few LSBs of exact.
    #[test]
    fn eight_bit_precision_bound(seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let n = 8;
        let m = RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = SvdCircuit::program(&m).unwrap();
        let model = AnalogModel::eight_bit();
        c.quantize_phases(&model);
        let y = c.apply_with_model(&x, &model, seed as u64);
        let t = m.mul_vec(&x);
        let fs = t.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1e-9);
        for (a, b) in y.iter().zip(t.iter()) {
            prop_assert!((a - b).abs() < 0.08 * fs, "err {} vs fs {}", (a - b).abs(), fs);
        }
    }

    /// Unitary transfer matrices conserve total optical power.
    #[test]
    fn mesh_conserves_energy(n in 2usize..9, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let u = random_unitary(n, &mut rng);
        let mut mesh = MzimMesh::new(n);
        program_mesh(&mut mesh, &u).unwrap();
        let x: Vec<C64> = (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let y = mesh.propagate(&x);
        let pin: f64 = x.iter().map(|f| f.norm_sqr()).sum();
        let pout: f64 = y.iter().map(|f| f.norm_sqr()).sum();
        prop_assert!((pin - pout).abs() < 1e-9 * (1.0 + pin));
    }

    /// The mesh's cached transfers and output phasors never go stale: after
    /// any sequence of `set_phase`, `reset`, `set_output_phases` and the
    /// in-place maps, `propagate` gives the bits of the per-slot formula,
    /// on rectangular and deeper (Reck-depth) meshes alike.
    #[test]
    fn cached_propagation_matches_per_slot_formula(
        n in 2usize..9,
        deep in any::<bool>(),
        steps in 0usize..24,
        seed in any::<u32>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let depth = if deep { (2 * n).saturating_sub(3).max(1) } else { n };
        let mut mesh = MzimMesh::with_depth(n, depth);
        for _ in 0..steps {
            match rng.gen_range(0..5) {
                0 | 1 => {
                    let col = rng.gen_range(0..depth);
                    let mode = col % 2 + 2 * rng.gen_range(0..n / 2);
                    let phase = MziPhase::new(rng.gen_range(-1.0..4.0), rng.gen_range(-7.0..7.0));
                    // Slots that do not exist are rejected and change nothing.
                    let _ = mesh.set_phase(col, mode, phase);
                }
                2 => {
                    let phases: Vec<f64> = (0..n).map(|_| rng.gen_range(-7.0..7.0)).collect();
                    mesh.set_output_phases(&phases).unwrap();
                }
                3 => mesh.reset(),
                _ => {
                    let step = rng.gen_range(0.01..0.5);
                    mesh.map_phases(|p| MziPhase::new((p.theta / step).round() * step, p.phi + step));
                    mesh.map_output_phases(|p| p - step);
                }
            }
            let x: Vec<C64> = (0..n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let cached = mesh.propagate(&x);
            let formula = per_slot_propagate(&mesh, &x);
            for (a, b) in cached.iter().zip(&formula) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// Reprogramming a fabric with the same weight matrix leaves it in a
    /// bit-identical state — for any random matrix and any legal partition
    /// width.
    #[test]
    fn fabric_reprogram_bit_identical_to_fresh(half_w in 1usize..3, seed in any::<u32>()) {
        let w = 2 * half_w; // widths must be even and ≤ N/2 = 4
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let m = RMat::from_fn(w, w, |_, _| rng.gen_range(-1.0..1.0));
        let cfg = [
            (w, PartitionConfig::Compute(&m)),
            (8 - w, PartitionConfig::Idle),
        ];
        let mut fabric = FlumenFabric::new(8).unwrap();
        fabric.set_partitions(&cfg).unwrap();
        let fresh = fabric.transfer_matrix();
        fabric.set_partitions(&cfg).unwrap();
        let replayed = fabric.transfer_matrix();
        for r in 0..8 {
            for c in 0..8 {
                prop_assert_eq!(fresh[(r, c)].re.to_bits(), replayed[(r, c)].re.to_bits());
                prop_assert_eq!(fresh[(r, c)].im.to_bits(), replayed[(r, c)].im.to_bits());
            }
        }
    }
}

/// Propagation as the mesh defines it, recomputing every MZI's transfer
/// and every output phasor from the stored phases.
fn per_slot_propagate(mesh: &MzimMesh, input: &[C64]) -> Vec<C64> {
    let mut field = input.to_vec();
    for slot in mesh.iter() {
        let t = slot.phase.transfer();
        let (a, b) = (field[slot.mode], field[slot.mode + 1]);
        field[slot.mode] = t[0][0] * a + t[0][1] * b;
        field[slot.mode + 1] = t[1][0] * a + t[1][1] * b;
    }
    for (f, &p) in field.iter_mut().zip(mesh.output_phases()) {
        *f *= C64::cis(p);
    }
    field
}
