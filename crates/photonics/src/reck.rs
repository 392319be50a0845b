//! The Reck (triangular) mesh decomposition — the historical alternative
//! to the rectangular Clements arrangement.
//!
//! Reck et al. null the lower triangle of the target unitary using only
//! column (input-side) operations, so no diagonal commutation is needed,
//! but the resulting arrangement is triangular: its depth is `2N − 3`
//! columns versus Clements' `N`, and its worst path crosses about twice
//! as many MZIs — which is exactly why the paper's fabric uses the
//! rectangular layout (optical loss follows path length; see the
//! `abl_decomposition` study).

use crate::clements::MeshProgram;
use crate::mesh::MzimMesh;
use crate::mzi::MziPhase;
use crate::{PhotonicsError, Result};
use flumen_linalg::CMat;

/// Magnitudes below this are treated as zero during nulling.
const TINY: f64 = 1e-12;

/// Decomposes a unitary into a triangular (Reck) mesh program.
///
/// The returned [`MeshProgram`] fits a mesh of depth ≥ `2n − 3`
/// (`MzimMesh::with_depth(n, 2n - 3)`); apply it with
/// [`crate::clements::apply_program_in_range`] or [`program_reck_mesh`].
///
/// # Errors
///
/// Same contract as [`crate::clements::decompose`].
pub fn decompose(u: &CMat) -> Result<MeshProgram> {
    let n = u.rows();
    if !u.is_square() || n < 2 {
        return Err(PhotonicsError::InvalidSize {
            n,
            requirement: "unitary must be square, ≥ 2×2",
        });
    }
    let dev = crate::clements::deviation_from_unitary(u);
    if dev > 1e-8 {
        return Err(PhotonicsError::NotUnitary { deviation: dev });
    }

    let mut w = u.clone();
    let mut right_ops: Vec<(usize, MziPhase)> = Vec::new();
    // Null the lower triangle, bottom row first, left to right. Each null
    // of W[r, c] mixes columns (c, c+1); rows below r already hold zeros
    // in both columns, so they are preserved.
    for r in (1..n).rev() {
        for c in 0..r {
            let a = w[(r, c)];
            let b = w[(r, c + 1)];
            let phase = if a.abs() < TINY {
                MziPhase::bar()
            } else {
                let rho = -(b / a);
                MziPhase::new(2.0 * rho.abs().atan(), -rho.arg())
            };
            apply_dagger_right(&mut w, c, phase);
            debug_assert!(w[(r, c)].abs() < 1e-9);
            right_ops.push((c, phase));
        }
    }
    let output_phases: Vec<f64> = (0..n).map(|k| w[(k, k)].arg()).collect();
    Ok(MeshProgram {
        n,
        ops: right_ops,
        output_phases,
    })
}

/// Programs a triangular mesh (depth ≥ `2n − 3`) with the Reck
/// decomposition of `u`.
///
/// # Errors
///
/// Propagates [`decompose`] and scheduling failures; the mesh must have
/// enough columns.
pub fn program_reck_mesh(mesh: &mut MzimMesh, u: &CMat) -> Result<()> {
    let prog = decompose(u)?;
    mesh.reset();
    let depth = mesh.column_count();
    let phases = crate::clements::apply_program_in_range(mesh, &prog, 0, 0, depth)?;
    mesh.set_output_phases(&phases)
}

/// Worst-case MZIs on any input→output path of an ASAP-scheduled program
/// (proxy for optical loss; see `abl_decomposition`).
pub fn max_path_depth(prog: &MeshProgram) -> usize {
    // ASAP schedule and track the deepest column each wire reaches.
    let mut wire_free = vec![0usize; prog.n];
    let mut depth = 0usize;
    for &(mode, _) in &prog.ops {
        let mut col = wire_free[mode].max(wire_free[mode + 1]);
        if col % 2 != mode % 2 {
            col += 1;
        }
        wire_free[mode] = col + 1;
        wire_free[mode + 1] = col + 1;
        depth = depth.max(col + 1);
    }
    depth
}

fn apply_dagger_right(w: &mut CMat, mode: usize, phase: MziPhase) {
    let t = phase.transfer();
    let td = [
        [t[0][0].conj(), t[1][0].conj()],
        [t[0][1].conj(), t[1][1].conj()],
    ];
    w.apply_2x2_right(mode, td);
}

/// Convenience: a mesh deep enough for a Reck programming of size `n`.
pub fn reck_mesh(n: usize) -> MzimMesh {
    MzimMesh::with_depth(n, (2 * n).saturating_sub(3).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clements;
    use flumen_linalg::{random_unitary, C64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reck_reconstructs_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in 2..=10 {
            let u = random_unitary(n, &mut rng);
            let mut mesh = reck_mesh(n);
            program_reck_mesh(&mut mesh, &u).unwrap();
            assert!(mesh.transfer_matrix().approx_eq(&u, 1e-8), "n={n}");
        }
    }

    #[test]
    fn reck_op_count_matches_clements() {
        let mut rng = StdRng::seed_from_u64(22);
        let u = random_unitary(8, &mut rng);
        let reck = decompose(&u).unwrap();
        let clem = clements::decompose(&u).unwrap();
        assert_eq!(reck.ops.len(), clem.ops.len());
        assert_eq!(reck.ops.len(), 28);
    }

    #[test]
    fn reck_is_deeper_than_clements() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [6usize, 8, 12] {
            let u = random_unitary(n, &mut rng);
            let reck_d = max_path_depth(&decompose(&u).unwrap());
            let clem_d = max_path_depth(&clements::decompose(&u).unwrap());
            assert!(clem_d <= n, "clements fits the rectangle: {clem_d} vs {n}");
            assert!(
                reck_d > clem_d,
                "triangle must be deeper: reck {reck_d} vs clements {clem_d} (n={n})"
            );
            assert!(reck_d <= 2 * n - 3, "reck depth bound: {reck_d}");
        }
    }

    #[test]
    fn reck_identity_program_is_trivial() {
        let prog = decompose(&CMat::identity(4)).unwrap();
        assert!(prog.ops.iter().all(|(_, p)| p.is_bar()));
    }

    #[test]
    fn reck_rejects_non_unitary() {
        let bad = CMat::from_fn(3, 3, |r, c| C64::from_re((r * c) as f64));
        assert!(decompose(&bad).is_err());
    }

    #[test]
    fn both_decompositions_agree_on_transfer() {
        let mut rng = StdRng::seed_from_u64(24);
        let u = random_unitary(6, &mut rng);
        let mut reck_m = reck_mesh(6);
        program_reck_mesh(&mut reck_m, &u).unwrap();
        let mut clem_m = MzimMesh::new(6);
        clements::program_mesh(&mut clem_m, &u).unwrap();
        assert!(reck_m
            .transfer_matrix()
            .approx_eq(&clem_m.transfer_matrix(), 1e-8));
    }

    #[test]
    fn basis_propagation_matches_columns() {
        let mut rng = StdRng::seed_from_u64(25);
        let u = random_unitary(5, &mut rng);
        let mut mesh = reck_mesh(5);
        program_reck_mesh(&mut mesh, &u).unwrap();
        for c in 0..5 {
            let mut x = vec![C64::ZERO; 5];
            x[c] = C64::ONE;
            let out = mesh.propagate(&x);
            for r in 0..5 {
                assert!(out[r].approx_eq(u[(r, c)], 1e-8));
            }
        }
    }
}
