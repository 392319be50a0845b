//! Phase programming of rectangular MZI meshes (Clements decomposition).
//!
//! Implements the algorithm of Clements et al., *Optimal design for
//! universal multiport interferometers* (Optica 2016), which factors any
//! `N×N` unitary into `N(N−1)/2` MZI transfer matrices arranged in the
//! rectangular (brick-wall) layout of [`crate::MzimMesh`], plus a diagonal
//! output phase screen.
//!
//! The paper (§3.3.3) assumes compute-matrix phases are precomputed with
//! exactly this class of algorithm and stored in the MZIM control unit's
//! matrix memory; this module is that precomputation.

use crate::mesh::MzimMesh;
use crate::mzi::{MziPhase, Transfer};
use crate::{PhotonicsError, Result};
use flumen_linalg::{CMat, C64};

/// Tolerance for the unitarity check on input matrices.
const UNITARY_TOL: f64 = 1e-8;
/// Magnitudes below this are treated as zero during nulling.
const TINY: f64 = 1e-12;

/// A mesh program: MZI settings in application order plus the output phase
/// screen. Produced by [`decompose`] and consumed by [`program_mesh`].
#[derive(Debug, Clone)]
pub struct MeshProgram {
    /// Mesh size.
    pub n: usize,
    /// `(mode, phase)` pairs in the order the signal encounters them.
    pub ops: Vec<(usize, MziPhase)>,
    /// Output phase screen `α_i`.
    pub output_phases: Vec<f64>,
}

/// Decomposes a unitary into a rectangular-mesh program.
///
/// # Errors
///
/// * [`PhotonicsError::InvalidSize`] if `u` is smaller than 2×2.
/// * [`PhotonicsError::NotUnitary`] if `‖U*U − I‖_max > 1e-8`.
///
/// # Examples
///
/// ```
/// use flumen_photonics::clements::{decompose, program_mesh};
/// use flumen_photonics::MzimMesh;
/// use flumen_linalg::random_unitary;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), flumen_photonics::PhotonicsError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let u = random_unitary(6, &mut rng);
/// let mut mesh = MzimMesh::new(6);
/// program_mesh(&mut mesh, &u)?;
/// assert!(mesh.transfer_matrix().approx_eq(&u, 1e-8));
/// # Ok(())
/// # }
/// ```
pub fn decompose(u: &CMat) -> Result<MeshProgram> {
    let mut prog = MeshProgram::empty();
    decompose_into(u, &mut ClementsWork::new(), &mut prog)?;
    Ok(prog)
}

/// Reusable buffers of [`decompose_into`]: the nulled copy `W` and the op
/// lists. Once they have grown to a size, decomposing another unitary of
/// that size allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct ClementsWork {
    w: CMat,
    /// Column ops applied to `W` during nulling, in application order.
    right_ops: Vec<(usize, MziPhase)>,
    /// Row ops applied to `W` during nulling, in application order, as
    /// `(mode, transfer)`.
    left_ops: Vec<(usize, Transfer)>,
    diag: Vec<C64>,
    /// `transfers[k]` is the transfer of op `k` of the last program, so
    /// writing the program into a mesh needs no trigonometry for it.
    pub(crate) transfers: Vec<Transfer>,
}

impl ClementsWork {
    /// Empty buffers; they grow on first use.
    pub(crate) fn new() -> Self {
        ClementsWork {
            w: CMat::zeros(1, 1),
            right_ops: Vec::new(),
            left_ops: Vec::new(),
            diag: Vec::new(),
            transfers: Vec::new(),
        }
    }
}

/// [`decompose`] into a caller-owned program, over reusable buffers; `out`
/// is overwritten and is bit-identical to `decompose(u)`.
///
/// # Errors
///
/// See [`decompose`]; on error `out` is unchanged.
pub(crate) fn decompose_into(
    u: &CMat,
    work: &mut ClementsWork,
    out: &mut MeshProgram,
) -> Result<()> {
    let n = u.rows();
    if !u.is_square() || n < 2 {
        return Err(PhotonicsError::InvalidSize {
            n,
            requirement: "unitary must be square, ≥ 2×2",
        });
    }
    let dev = deviation_from_unitary(u);
    if dev > UNITARY_TOL {
        return Err(PhotonicsError::NotUnitary { deviation: dev });
    }

    let ClementsWork {
        w,
        right_ops,
        left_ops,
        diag,
        transfers,
    } = work;
    w.copy_from(u);
    right_ops.clear();
    left_ops.clear();
    transfers.clear();

    for i in 0..n - 1 {
        if i % 2 == 0 {
            // Null along the anti-diagonal from the bottom-left corner using
            // column operations W ← W · T†(m).
            for j in 0..=i {
                let r = n - 1 - j;
                let c = i - j;
                let (mode, phase, t) = null_right(w, r, c);
                right_ops.push((mode, phase));
                transfers.push(t);
            }
        } else {
            // Null using row operations W ← T(m) · W.
            for jj in 0..=i {
                let r = n + jj - i - 1;
                let c = jj;
                left_ops.push(null_left(w, r, c));
            }
        }
    }

    // W is now diagonal (unitary and upper triangular).
    diag.clear();
    diag.extend((0..n).map(|k| w[(k, k)]));
    debug_assert!(
        offdiag_max(w) < 1e-7,
        "nulling left residue {:.3e}",
        offdiag_max(w)
    );

    // U = T†_{L1} … T†_{Lq} · D · T_{Rp} … T_{R1}
    // (right-op daggers applied during nulling invert back to plain T's;
    // see null_right). Commute each left dagger through the diagonal:
    // T†(θ,φ)·D = D'·T(θ',φ'), processed from the factor adjacent to D
    // outwards, accumulating new T's that are applied *after* the right ops.
    out.n = n;
    out.ops.clear();
    out.ops.extend_from_slice(right_ops);
    for &(mode, t) in left_ops.iter().rev() {
        let (new_phase, tn, d_pair) = commute_dagger_through_diag(t, diag[mode], diag[mode + 1]);
        diag[mode] = d_pair.0;
        diag[mode + 1] = d_pair.1;
        out.ops.push((mode, new_phase));
        transfers.push(tn);
    }

    out.output_phases.clear();
    out.output_phases.extend(diag.iter().map(|d| d.arg()));
    Ok(())
}

impl MeshProgram {
    /// A program with no ops, to be filled by [`decompose_into`].
    pub(crate) fn empty() -> Self {
        MeshProgram {
            n: 0,
            ops: Vec::new(),
            output_phases: Vec::new(),
        }
    }

    /// Programs `mesh` **once** and streams a batch of input vectors
    /// through it — the batched-MVM primitive. In a photonic accelerator
    /// the expensive step is writing `n(n−1)/2` MZI phases (thermo-optic
    /// settling, DAC writes); per-vector propagation is cheap. This method
    /// makes that amortization explicit: one [`apply_program`] call, `B`
    /// propagations.
    ///
    /// **Contract:** output `i` is bit-identical to programming the mesh
    /// and then calling [`MzimMesh::propagate`] on `inputs[i]` alone —
    /// batching never changes numerics.
    ///
    /// # Errors
    ///
    /// * Propagates [`apply_program`] errors (size mismatch, unroutable).
    /// * [`PhotonicsError::DimensionMismatch`] if any input vector's
    ///   length differs from the program size `n`.
    pub fn apply_batch(&self, mesh: &mut MzimMesh, inputs: &[Vec<C64>]) -> Result<Vec<Vec<C64>>> {
        // Validate before programming, so a rejected batch leaves the mesh
        // as it was.
        for x in inputs {
            if x.len() != self.n {
                return Err(PhotonicsError::DimensionMismatch {
                    expected: self.n,
                    actual: x.len(),
                });
            }
        }
        apply_program(mesh, self)?;
        Ok(mesh.propagate_batch(inputs))
    }
}

/// Programs a physical mesh so its transfer matrix equals `u`.
///
/// The program's application-ordered ops are placed into physical columns by
/// as-soon-as-possible scheduling, which for Clements op order reproduces the
/// rectangular layout.
///
/// # Errors
///
/// Propagates [`decompose`] errors, and returns
/// [`PhotonicsError::DimensionMismatch`] if the mesh size differs from the
/// unitary's.
pub fn program_mesh(mesh: &mut MzimMesh, u: &CMat) -> Result<()> {
    if mesh.n() != u.rows() {
        return Err(PhotonicsError::DimensionMismatch {
            expected: mesh.n(),
            actual: u.rows(),
        });
    }
    let prog = decompose(u)?;
    apply_program(mesh, &prog)
}

/// Applies an existing [`MeshProgram`] (e.g. one precomputed and stored in
/// the MZIM control unit's matrix memory) to a mesh.
///
/// # Errors
///
/// Returns [`PhotonicsError::DimensionMismatch`] on size mismatch and
/// [`PhotonicsError::NotRoutable`] if the ops cannot be scheduled into the
/// mesh's columns.
pub fn apply_program(mesh: &mut MzimMesh, prog: &MeshProgram) -> Result<()> {
    apply_program_with(mesh, prog, None, &mut Vec::new())
}

/// [`apply_program`] with a caller-owned schedule buffer, so reprogramming
/// a mesh allocates nothing once `wire_free` has grown to the mesh size,
/// and optionally with each op's transfer already at hand
/// (`transfers[k]` for `prog.ops[k]`, as [`ClementsWork`] keeps them).
pub(crate) fn apply_program_with(
    mesh: &mut MzimMesh,
    prog: &MeshProgram,
    transfers: Option<&[Transfer]>,
    wire_free: &mut Vec<usize>,
) -> Result<()> {
    if mesh.n() != prog.n {
        return Err(PhotonicsError::DimensionMismatch {
            expected: mesh.n(),
            actual: prog.n,
        });
    }
    mesh.reset();
    // ASAP schedule: wire_free[w] = first column where wire w is available.
    wire_free.clear();
    wire_free.resize(prog.n, 0);
    for (k, &(mode, phase)) in prog.ops.iter().enumerate() {
        let mut col = wire_free[mode].max(wire_free[mode + 1]);
        if col % 2 != mode % 2 {
            col += 1;
        }
        if col >= mesh.column_count() {
            return Err(PhotonicsError::NotRoutable {
                reason: format!(
                    "op on mode {mode} needs column {col}, mesh has {}",
                    mesh.column_count()
                ),
            });
        }
        match transfers {
            Some(ts) => mesh.set_phase_with_transfer(col, mode, phase, ts[k])?,
            None => mesh.set_phase(col, mode, phase)?,
        }
        wire_free[mode] = col + 1;
        wire_free[mode + 1] = col + 1;
    }
    mesh.set_output_phases(&prog.output_phases)
}

/// Applies a `w`-mode [`MeshProgram`] to the wire range
/// `[base, base + w)` of a larger mesh, using columns `[col0, col0 + cols)`.
/// Returns the program's output phase screen (relative to the range) for the
/// caller to place — a sub-circuit's screen may sit mid-fabric (e.g. before
/// the Flumen attenuator column) rather than at the mesh outputs.
///
/// `base` and `col0` must have the same parity so that the program's
/// even/odd column structure lines up with the physical brick-wall.
///
/// # Errors
///
/// * [`PhotonicsError::DimensionMismatch`] if the range exceeds the mesh.
/// * [`PhotonicsError::NotRoutable`] if the ops do not fit in `cols`
///   columns or the parities mismatch.
pub fn apply_program_in_range(
    mesh: &mut MzimMesh,
    prog: &MeshProgram,
    base: usize,
    col0: usize,
    cols: usize,
) -> Result<Vec<f64>> {
    if base + prog.n > mesh.n() || col0 + cols > mesh.column_count() {
        return Err(PhotonicsError::DimensionMismatch {
            expected: mesh.n(),
            actual: base + prog.n,
        });
    }
    if base % 2 != col0 % 2 {
        return Err(PhotonicsError::NotRoutable {
            reason: format!("range base {base} and column origin {col0} have different parity"),
        });
    }
    // (No up-front depth check: rectangular programs need `prog.n` columns
    // but triangular ones can need up to `2·prog.n − 3`, and trivially
    // small programs need fewer — the scheduler below reports precisely
    // which op fails to fit.)
    // Pass 1: ASAP-schedule each op into a column.
    let w = prog.n;
    let mut assigned: Vec<Vec<(usize, MziPhase)>> = vec![Vec::new(); col0 + cols];
    let mut wire_free = vec![col0; w];
    for &(mode, phase) in &prog.ops {
        let gmode = base + mode;
        let mut col = wire_free[mode].max(wire_free[mode + 1]);
        if col % 2 != gmode % 2 {
            col += 1;
        }
        if col >= col0 + cols {
            return Err(PhotonicsError::NotRoutable {
                reason: format!(
                    "op on mode {gmode} needs column {col}, range ends at {}",
                    col0 + cols
                ),
            });
        }
        assigned[col].push((gmode, phase));
        wire_free[mode] = col + 1;
        wire_free[mode + 1] = col + 1;
    }

    // Pass 2: walk the physical columns in order, folding parasitic phases
    // from un-programmed bar MZIs (partition barriers and idle in-range
    // slots) into the programmed φ's. A phase ψ on an MZI's top input is
    // absorbed as φ → φ − ψ + χ with the bottom input's χ re-emitted as a
    // common phase on both outputs; a bar MZI contributes −1 (i.e. +π) to
    // whatever rides its bottom port.
    let in_range = |wire: usize| wire >= base && wire < base + w;
    let mut pending = vec![0.0f64; w];
    for col in col0..col0 + cols {
        let programmed: &[(usize, MziPhase)] = &assigned[col];
        for slot in mesh.column(col).to_vec() {
            let m = slot.mode;
            if let Some(&(_, phase)) = programmed.iter().find(|(g, _)| *g == m) {
                let psi = pending[m - base];
                let chi = pending[m + 1 - base];
                let adjusted = MziPhase::new(phase.theta, phase.phi - psi + chi);
                mesh.set_phase(col, m, adjusted)?;
                pending[m - base] = chi;
                pending[m + 1 - base] = chi;
            } else if in_range(m + 1) {
                // Bottom port of an un-programmed (bar) MZI flips sign.
                pending[m + 1 - base] += std::f64::consts::PI;
            }
        }
    }

    Ok(prog
        .output_phases
        .iter()
        .zip(pending.iter())
        .map(|(&alpha, &psi)| alpha - psi)
        .collect())
}

/// Max deviation of `U*U` from the identity.
///
/// Gram elements `(U*U)[r,c] = Σ_k conj(u[k,r])·u[k,c]` are computed on the
/// fly with the same ascending-`k` fold and zero-term skip as the matmul
/// kernels, so the deviation is bit-identical to the old
/// `adjoint().matmul()` path while allocating nothing — this runs on every
/// `decompose` call, i.e. twice per cold compute-partition program.
pub fn deviation_from_unitary(u: &CMat) -> f64 {
    let mut dev: f64 = 0.0;
    for r in 0..u.cols() {
        for c in 0..u.cols() {
            let mut acc = C64::ZERO;
            for k in 0..u.rows() {
                let a = u[(k, r)].conj();
                if a == C64::ZERO {
                    continue;
                }
                acc += a * u[(k, c)];
            }
            let target = if r == c { C64::ONE } else { C64::ZERO };
            dev = dev.max((acc - target).abs());
        }
    }
    dev
}

fn offdiag_max(w: &CMat) -> f64 {
    let mut m: f64 = 0.0;
    for r in 0..w.rows() {
        for c in 0..w.cols() {
            if r != c {
                m = m.max(w[(r, c)].abs());
            }
        }
    }
    m
}

/// Nulls `W[r, c]` by right-multiplying `W ← W · T†(c)` (mixes columns
/// `c, c+1`). Returns the `(mode, phase)` of the **un-daggered** `T`, which
/// is what ends up in the physical mesh.
fn null_right(w: &mut CMat, r: usize, c: usize) -> (usize, MziPhase, Transfer) {
    let a = w[(r, c)];
    let b = w[(r, c + 1)];
    // (W·T†)[r, c] = conj(g)·(a·e^{-jφ}·sin(θ/2) + b·cos(θ/2)); null it.
    let phase = if a.abs() < TINY {
        MziPhase::bar()
    } else {
        let rho = -(b / a); // e^{-jφ}·tan(θ/2) = ρ
        MziPhase::new(2.0 * rho.abs().atan(), -rho.arg())
    };
    let t = phase.transfer();
    apply_dagger_right(w, c, &t);
    debug_assert!(
        w[(r, c)].abs() < 1e-9,
        "right null failed: {:.3e}",
        w[(r, c)].abs()
    );
    (c, phase, t)
}

/// Nulls `W[r, c]` by left-multiplying `W ← T(r−1) · W` (mixes rows
/// `r−1, r`). Returns the mode and transfer of the applied `T`.
fn null_left(w: &mut CMat, r: usize, c: usize) -> (usize, Transfer) {
    let m = r - 1;
    let a = w[(m, c)];
    let b = w[(r, c)];
    // (T·W)[r, c] = g·(e^{jφ}·cos(θ/2)·a − sin(θ/2)·b); null it.
    let phase = if b.abs() < TINY {
        MziPhase::bar()
    } else {
        let rho = a / b; // e^{jφ}·ρ = tan(θ/2)
        MziPhase::new(2.0 * rho.abs().atan(), -rho.arg())
    };
    let t = phase.transfer();
    w.apply_2x2_left(m, t);
    debug_assert!(
        w[(r, c)].abs() < 1e-9,
        "left null failed: {:.3e}",
        w[(r, c)].abs()
    );
    (m, t)
}

fn apply_dagger_right(w: &mut CMat, mode: usize, t: &Transfer) {
    // T† entries.
    let td = [
        [t[0][0].conj(), t[1][0].conj()],
        [t[0][1].conj(), t[1][1].conj()],
    ];
    w.apply_2x2_right(mode, td);
}

/// Rewrites `T†(θ,φ) · diag(d0, d1)` as `diag(d0', d1') · T(θ', φ')`,
/// given `t = T(θ,φ)`. Returns `(θ', φ')`, `T(θ', φ')` and `(d0', d1')`.
///
/// Both sides are 2×2 unitary; matching magnitudes gives `θ'` directly and
/// the remaining phases follow from element ratios.
fn commute_dagger_through_diag(t: Transfer, d0: C64, d1: C64) -> (MziPhase, Transfer, (C64, C64)) {
    // A = T† · diag(d0, d1)
    let a00 = t[0][0].conj() * d0;
    let a01 = t[1][0].conj() * d1;
    let a10 = t[0][1].conj() * d0;
    let a11 = t[1][1].conj() * d1;
    let (abs00, abs01) = (a00.abs(), a01.abs());

    // atan2 of the two magnitudes is well conditioned at both endpoints and
    // consistent with row unitarity (|a00|² + |a01|² = 1).
    let half = abs00.atan2(abs01);
    let theta = 2.0 * half;
    let (sp, cp) = (half.sin(), half.cos());
    let g = C64::I * C64::cis(-half);

    let (alpha, phi) = if abs01 > TINY {
        let alpha = a01 / (g * cp);
        let phi = if abs00 > TINY {
            (a00 / (alpha * g * sp)).arg()
        } else {
            0.0
        };
        (alpha, phi)
    } else {
        // θ' = π (bar-like): T01 = 0; pick φ' = 0 and recover α from A00.
        (a00 / (g * sp), 0.0)
    };
    let beta = if a11.abs() > TINY {
        a11 / (-(g * sp))
    } else {
        a10 / (g * C64::cis(phi) * cp)
    };

    let new_phase = MziPhase::new(theta, phi);
    // T(θ', φ') reuses sin, cos and g of θ'/2 when θ' was not clamped.
    let tn = if (new_phase.theta / 2.0).to_bits() == half.to_bits() {
        MziPhase::transfer_from_parts(g, C64::cis(new_phase.phi), sp, cp)
    } else {
        new_phase.transfer()
    };
    // Verify the refactorization in debug builds.
    #[cfg(debug_assertions)]
    {
        let checks = [
            (alpha * tn[0][0] * C64::cis(new_phase.phi - phi), a00),
            (alpha * tn[0][1], a01),
            (beta * tn[1][0] * C64::cis(new_phase.phi - phi), a10),
            (beta * tn[1][1], a11),
        ];
        for (lhs, rhs) in checks {
            debug_assert!(
                lhs.approx_eq(rhs, 1e-7),
                "diagonal commutation failed: {lhs} vs {rhs}"
            );
        }
    }
    (new_phase, tn, (alpha, beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_linalg::random_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn decompose_identity() {
        let prog = decompose(&CMat::identity(4)).unwrap();
        let mut mesh = MzimMesh::new(4);
        apply_program(&mut mesh, &prog).unwrap();
        assert!(mesh.transfer_matrix().approx_eq(&CMat::identity(4), 1e-9));
    }

    #[test]
    fn decompose_random_unitaries_many_sizes() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in 2..=12 {
            let u = random_unitary(n, &mut rng);
            let mut mesh = MzimMesh::new(n);
            program_mesh(&mut mesh, &u).unwrap();
            let rebuilt = mesh.transfer_matrix();
            assert!(
                rebuilt.approx_eq(&u, 1e-8),
                "reconstruction failed for n={n}, err={:.3e}",
                (&rebuilt - &u).max_abs()
            );
        }
    }

    #[test]
    fn decompose_permutation() {
        let u = CMat::permutation(&[3, 0, 2, 1]).unwrap();
        let mut mesh = MzimMesh::new(4);
        program_mesh(&mut mesh, &u).unwrap();
        assert!(mesh.transfer_matrix().approx_eq(&u, 1e-8));
    }

    #[test]
    fn op_count_is_n_choose_2() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in 2..=10 {
            let prog = decompose(&random_unitary(n, &mut rng)).unwrap();
            assert_eq!(prog.ops.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn rejects_non_unitary() {
        let m = CMat::from_fn(3, 3, |r, c| C64::from_re((r + c) as f64));
        assert!(matches!(
            decompose(&m),
            Err(PhotonicsError::NotUnitary { .. })
        ));
    }

    #[test]
    fn rejects_too_small() {
        let m = CMat::identity(1);
        assert!(matches!(
            decompose(&m),
            Err(PhotonicsError::InvalidSize { .. })
        ));
    }

    #[test]
    fn program_mesh_checks_dimensions() {
        let mut mesh = MzimMesh::new(4);
        let u = CMat::identity(6);
        assert!(matches!(
            program_mesh(&mut mesh, &u),
            Err(PhotonicsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn broadcast_unitary_from_paper_fig6b() {
        // The 4×4 unitary whose first column has |e|² = 1/4 everywhere:
        // build it by completing a Householder basis from the uniform vector.
        let n = 4;
        let uniform: Vec<C64> = vec![C64::from_re(0.5); n];
        // Columns: uniform vector plus an orthonormal completion.
        let mut cols = vec![uniform];
        for k in 1..n {
            // Fourier-like columns are orthonormal to the uniform one.
            let col: Vec<C64> = (0..n)
                .map(|r| C64::cis(2.0 * std::f64::consts::PI * (r * k) as f64 / n as f64) * 0.5)
                .collect();
            cols.push(col);
        }
        let u = CMat::from_fn(n, n, |r, c| cols[c][r]);
        assert!(u.is_unitary(1e-9));
        let mut mesh = MzimMesh::new(n);
        program_mesh(&mut mesh, &u).unwrap();
        // Injecting on input 0 broadcasts 1/4 power to every output.
        let mut input = vec![C64::ZERO; n];
        input[0] = C64::ONE;
        let out = mesh.propagate(&input);
        for o in &out {
            assert!((o.norm_sqr() - 0.25).abs() < 1e-8);
        }
    }

    #[test]
    fn deviation_metric() {
        assert!(deviation_from_unitary(&CMat::identity(3)) < 1e-12);
        let bad = CMat::identity(3).scale(C64::from_re(2.0));
        assert!(deviation_from_unitary(&bad) > 1.0);
    }

    #[test]
    fn reprogramming_overwrites_cleanly() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut mesh = MzimMesh::new(6);
        let u1 = random_unitary(6, &mut rng);
        let u2 = random_unitary(6, &mut rng);
        program_mesh(&mut mesh, &u1).unwrap();
        program_mesh(&mut mesh, &u2).unwrap();
        assert!(mesh.transfer_matrix().approx_eq(&u2, 1e-8));
    }
}
