//! Real singular value decomposition via one-sided Jacobi.
//!
//! The SVD is the mathematical heart of the Flumen computation path: an
//! arbitrary weight block `M` is realized photonically as `M = U Σ Vᵀ`
//! (paper §3.1.1, Fig. 4) with `U`/`Vᵀ` programmed into unitary MZIM sections
//! and `Σ` into the attenuating-MZI column. The attenuators can only
//! *attenuate*, which forces `0 ≤ σᵢ ≤ 1` and motivates the spectral-norm
//! pre-scaling implemented in [`spectral_scale`].

use crate::{LinalgError, RMat, Result};

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 64;

/// The result of a singular value decomposition `A = U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m×m`, orthogonal).
    pub u: RMat,
    /// Singular values, non-negative, sorted in descending order
    /// (`min(m, n)` entries).
    pub sigma: Vec<f64>,
    /// Right singular vectors (`n×n`, orthogonal). Note this is `V`, not `Vᵀ`.
    pub v: RMat,
}

impl Svd {
    /// Reconstructs `U · diag(σ) · Vᵀ`.
    pub fn reconstruct(&self) -> RMat {
        let m = self.u.rows();
        let n = self.v.rows();
        let k = self.sigma.len();
        let mut us = RMat::zeros(m, n);
        for r in 0..m {
            for c in 0..k {
                us[(r, c)] = self.u[(r, c)] * self.sigma[c];
            }
        }
        us.matmul(&self.v.transpose())
    }

    /// The spectral norm `‖A‖₂ = σ_max` (0 for an all-zero matrix).
    pub fn spectral_norm(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }
}

/// Computes the SVD of a real matrix using one-sided Jacobi rotations.
///
/// One-sided Jacobi orthogonalizes pairs of columns of a working copy of `A`
/// with plane rotations accumulated into `V`; on convergence the column norms
/// are the singular values and the normalized columns are `U`.
///
/// This is [`SvdWork::factor`] on fresh buffers; a caller factorizing many
/// matrices keeps one [`SvdWork`] instead.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if the sweep budget is exhausted —
/// in practice this does not happen for finite inputs.
///
/// # Examples
///
/// ```
/// use flumen_linalg::{svd, RMat};
/// let a = RMat::from_rows(2, 2, vec![3.0, 0.0, 4.0, 5.0])?;
/// let f = svd(&a)?;
/// assert!(f.reconstruct().approx_eq(&a, 1e-9));
/// # Ok::<(), flumen_linalg::LinalgError>(())
/// ```
pub fn svd(a: &RMat) -> Result<Svd> {
    let mut work = SvdWork::new();
    work.factor(a)?;
    Ok(Svd {
        u: work.u,
        sigma: work.sigma,
        v: work.v,
    })
}

/// Reusable buffers of the one-sided Jacobi SVD: the working copy, the `V`
/// accumulator, `U`, and the sort scratch. Once they have grown to a shape,
/// factorizing another matrix of that shape allocates nothing, which is what
/// a loop programming one circuit per weight block needs.
///
/// # Examples
///
/// ```
/// use flumen_linalg::{svd, RMat, SvdWork};
/// let a = RMat::from_rows(2, 2, vec![3.0, 0.0, 4.0, 5.0])?;
/// let mut work = SvdWork::new();
/// work.factor(&a)?;
/// assert_eq!(work.sigma(), svd(&a)?.sigma.as_slice());
/// # Ok::<(), flumen_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SvdWork {
    /// Working copy (`a`, or `aᵀ` for wide input) whose columns the
    /// sweeps orthogonalize.
    work: RMat,
    /// Accumulated rotations, in sweep column order.
    rot: RMat,
    /// Left singular vectors of the last [`SvdWork::factor`].
    u: RMat,
    /// Right singular vectors of the last factor, in σ order.
    v: RMat,
    /// Column norms of `work`, in sweep column order.
    norms: Vec<f64>,
    /// Singular values of the last factor, descending.
    sigma: Vec<f64>,
    /// Sweep column of each descending σ.
    order: Vec<usize>,
    /// One column under Gram-Schmidt.
    col: Vec<f64>,
}

impl Default for SvdWork {
    fn default() -> Self {
        Self::new()
    }
}

impl SvdWork {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Self {
        SvdWork {
            work: RMat::zeros(1, 1),
            rot: RMat::zeros(1, 1),
            u: RMat::zeros(1, 1),
            v: RMat::zeros(1, 1),
            norms: Vec::new(),
            sigma: Vec::new(),
            order: Vec::new(),
            col: Vec::new(),
        }
    }

    /// Factorizes `a = U · diag(σ) · Vᵀ` into these buffers, bit-identical
    /// to [`svd`]; read the factors with [`SvdWork::u`], [`SvdWork::sigma`]
    /// and [`SvdWork::v`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] if the sweep budget is
    /// exhausted.
    pub fn factor(&mut self, a: &RMat) -> Result<()> {
        // Wide input: work on the transpose and swap the factors.
        let wide = a.rows() < a.cols();
        self.load(a, wide);
        self.sweep(true)?;
        self.finish();
        if wide {
            std::mem::swap(&mut self.u, &mut self.v);
        }
        Ok(())
    }

    /// The spectral norm `‖a‖₂`, bit-identical to `svd(a)?.sigma[0]`. It
    /// runs the same Jacobi sweeps on the working copy alone: no `V`
    /// accumulation, no `U`, no sort.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NoConvergence`] exactly when [`svd`] does.
    pub fn spectral_norm(&mut self, a: &RMat) -> Result<f64> {
        self.load(a, a.rows() < a.cols());
        self.sweep(false)?;
        self.column_norms();
        // The first maximum is what the stable descending sort puts first.
        Ok(self
            .norms
            .iter()
            .fold(self.norms[0], |best, &s| if s > best { s } else { best }))
    }

    /// Left singular vectors (`m×m`) of the last [`SvdWork::factor`].
    pub fn u(&self) -> &RMat {
        &self.u
    }

    /// Singular values of the last [`SvdWork::factor`], descending.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Right singular vectors (`n×n`, `V` not `Vᵀ`) of the last
    /// [`SvdWork::factor`].
    pub fn v(&self) -> &RMat {
        &self.v
    }

    /// Copies `a` (or `aᵀ`) into the working copy.
    fn load(&mut self, a: &RMat, transpose: bool) {
        if transpose {
            self.work.reshape_zeroed(a.cols(), a.rows());
            for r in 0..a.cols() {
                for c in 0..a.rows() {
                    self.work[(r, c)] = a[(c, r)];
                }
            }
        } else {
            self.work.copy_from(a);
        }
    }

    /// Jacobi sweeps until no pair rotates; `V` accumulates the rotations
    /// only if `accumulate_v`.
    fn sweep(&mut self, accumulate_v: bool) -> Result<()> {
        let work = &mut self.work;
        let rot = &mut self.rot;
        let m = work.rows();
        let n = work.cols();
        if accumulate_v {
            rot.reshape_zeroed(n, n);
            for i in 0..n {
                rot[(i, i)] = 1.0;
            }
        }
        let eps = 1e-12;
        let scale_floor = 1e-28 * work.frobenius_norm().max(1e-300).powi(2);

        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries for columns p, q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for r in 0..m {
                        let x = work[(r, p)];
                        let y = work[(r, q)];
                        app += x * x;
                        aqq += y * y;
                        apq += x * y;
                    }
                    if apq.abs() <= eps * (app * aqq).sqrt() + scale_floor {
                        continue;
                    }
                    rotated = true;
                    // Jacobi rotation that annihilates the off-diagonal entry.
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let cs = 1.0 / (1.0 + t * t).sqrt();
                    let sn = cs * t;
                    for r in 0..m {
                        let x = work[(r, p)];
                        let y = work[(r, q)];
                        work[(r, p)] = cs * x - sn * y;
                        work[(r, q)] = sn * x + cs * y;
                    }
                    if accumulate_v {
                        for r in 0..n {
                            let x = rot[(r, p)];
                            let y = rot[(r, q)];
                            rot[(r, p)] = cs * x - sn * y;
                            rot[(r, q)] = sn * x + cs * y;
                        }
                    }
                }
            }
            if !rotated {
                return Ok(());
            }
        }
        Err(LinalgError::NoConvergence { sweeps: MAX_SWEEPS })
    }

    /// Column norms of the working copy: the unsorted singular values.
    fn column_norms(&mut self) {
        let work = &self.work;
        let m = work.rows();
        self.norms.clear();
        self.norms.extend((0..work.cols()).map(|c| {
            (0..m)
                .map(|r| work[(r, c)] * work[(r, c)])
                .sum::<f64>()
                .sqrt()
        }));
    }

    /// Sorts σ descending and builds `U` and the σ-ordered `V` from the
    /// converged working copy.
    fn finish(&mut self) {
        self.column_norms();
        let SvdWork {
            work,
            rot,
            u,
            v,
            norms,
            sigma,
            order,
            col,
        } = self;
        let m = work.rows();
        let n = work.cols();
        order.clear();
        order.extend(0..n);
        // Stable insertion sort, descending: ties keep column order, the
        // same permutation a stable library sort gives, with no buffer.
        // (Every norm compared is a number: a NaN column never converges.)
        for k in 1..n {
            let mut p = k;
            while p > 0 && norms[order[p - 1]] < norms[order[p]] {
                order.swap(p - 1, p);
                p -= 1;
            }
        }

        u.reshape_zeroed(m, m);
        v.reshape_zeroed(n, n);
        sigma.clear();
        sigma.resize(n, 0.0);
        let sigma_max = order.first().map(|&c| norms[c]).unwrap_or(0.0);
        // Build U columns by modified Gram-Schmidt over the (σ-descending)
        // work columns: normalizing `work/σ` directly would amplify round-off
        // into wildly non-orthogonal columns whenever σ is tiny.
        let mut rank = 0usize;
        for (new_c, &old_c) in order.iter().enumerate() {
            sigma[new_c] = norms[old_c];
            for r in 0..n {
                v[(r, new_c)] = rot[(r, old_c)];
            }
            col.clear();
            col.extend((0..m).map(|r| work[(r, old_c)]));
            for p in 0..rank {
                let dot: f64 = (0..m).map(|r| col[r] * u[(r, p)]).sum();
                for r in 0..m {
                    col[r] -= dot * u[(r, p)];
                }
            }
            let norm: f64 = col.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 * sigma_max.max(1e-300) && norm > 1e-300 {
                debug_assert_eq!(rank, new_c, "nonzero σ columns must be a prefix");
                for r in 0..m {
                    u[(r, rank)] = col[r] / norm;
                }
                rank += 1;
            }
        }
        // Numerically-zero directions (and the tall-matrix null space) get an
        // orthonormal completion; they contribute ≤ 1e-12·σ_max to the product.
        complete_orthonormal_basis(u, rank, col);
    }
}

/// Fills columns `rank..m` of `u` with an orthonormal completion via
/// modified Gram-Schmidt against the standard basis; `vec` is scratch.
fn complete_orthonormal_basis(u: &mut RMat, rank: usize, vec: &mut Vec<f64>) {
    let m = u.rows();
    let mut next = rank;
    let mut candidate = 0usize;
    while next < m && candidate < 2 * m {
        // Start from a standard basis vector (cycled), orthogonalize.
        vec.clear();
        vec.extend((0..m).map(|r| if r == candidate % m { 1.0 } else { 0.0 }));
        for c in 0..next {
            let dot: f64 = (0..m).map(|r| vec[r] * u[(r, c)]).sum();
            for r in 0..m {
                vec[r] -= dot * u[(r, c)];
            }
        }
        let norm: f64 = vec.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-8 {
            for r in 0..m {
                u[(r, next)] = vec[r] / norm;
            }
            next += 1;
        }
        candidate += 1;
    }
    debug_assert_eq!(next, m, "failed to complete orthonormal basis");
}

/// The spectral norm `‖A‖₂` (largest singular value), bit-identical to
/// `svd(a)?.sigma[0]` at a fraction of its cost (see
/// [`SvdWork::spectral_norm`]).
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] exactly when [`svd`] does.
pub fn spectral_norm(a: &RMat) -> Result<f64> {
    SvdWork::new().spectral_norm(a)
}

/// Scales `M` so its largest singular value is exactly 1 (paper §3.3.1):
/// `M_s = M / ‖M‖₂`, which guarantees all `σᵢ(M_s) ∈ [0, 1]` and hence that
/// `M_s` is implementable in a passive (non-amplifying) SVD MZIM.
///
/// Returns the scaled matrix and the scale factor `‖M‖₂` needed to recover
/// true outputs (`b = ‖M‖₂ · b_s`). An all-zero matrix is returned unchanged
/// with scale 1.
///
/// # Errors
///
/// Propagates [`LinalgError::NoConvergence`] from the underlying SVD.
pub fn spectral_scale(m: &RMat) -> Result<(RMat, f64)> {
    let norm = spectral_norm(m)?;
    if norm <= 1e-300 {
        return Ok((m.clone(), 1.0));
    }
    Ok((m.scale(1.0 / norm), norm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_orthogonal;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_mat(rng: &mut StdRng, m: usize, n: usize) -> RMat {
        RMat::from_fn(m, n, |_, _| rng.gen_range(-2.0..2.0))
    }

    #[test]
    fn reconstruct_square() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 4, 8] {
            let a = random_mat(&mut rng, n, n);
            let f = svd(&a).unwrap();
            assert!(f.reconstruct().approx_eq(&a, 1e-9), "n={n}");
        }
    }

    #[test]
    fn reconstruct_rectangular() {
        let mut rng = StdRng::seed_from_u64(12);
        for (m, n) in [(5usize, 3usize), (3, 5), (8, 2), (2, 8)] {
            let a = random_mat(&mut rng, m, n);
            let f = svd(&a).unwrap();
            assert!(f.reconstruct().approx_eq(&a, 1e-9), "{m}x{n}");
            assert_eq!(f.u.rows(), m);
            assert_eq!(f.v.rows(), n);
            assert_eq!(f.sigma.len(), m.min(n));
        }
    }

    #[test]
    fn factors_are_orthogonal() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_mat(&mut rng, 6, 4);
        let f = svd(&a).unwrap();
        assert!(f
            .u
            .transpose()
            .matmul(&f.u)
            .approx_eq(&RMat::identity(6), 1e-9));
        assert!(f
            .v
            .transpose()
            .matmul(&f.v)
            .approx_eq(&RMat::identity(4), 1e-9));
    }

    #[test]
    fn sigma_sorted_nonnegative() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = random_mat(&mut rng, 7, 7);
        let f = svd(&a).unwrap();
        for w in f.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(f.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = RMat::from_fn(3, 3, |r, c| if r == c { [3.0, 1.0, 2.0][r] } else { 0.0 });
        let f = svd(&a).unwrap();
        assert!((f.sigma[0] - 3.0).abs() < 1e-10);
        assert!((f.sigma[1] - 2.0).abs() < 1e-10);
        assert!((f.sigma[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix_svd() {
        let a = RMat::zeros(3, 3);
        let f = svd(&a).unwrap();
        assert!(f.sigma.iter().all(|&s| s == 0.0));
        assert!(f
            .u
            .transpose()
            .matmul(&f.u)
            .approx_eq(&RMat::identity(3), 1e-9));
        assert!(f.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn rank_one_matrix() {
        let a = RMat::from_fn(4, 4, |r, c| ((r + 1) * (c + 1)) as f64);
        let f = svd(&a).unwrap();
        assert!(
            f.sigma[1] < 1e-9,
            "rank-1 matrix should have one nonzero sigma"
        );
        assert!(f.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn orthogonal_matrix_has_unit_sigmas() {
        let mut rng = StdRng::seed_from_u64(15);
        let q = random_orthogonal(5, &mut rng);
        let f = svd(&q).unwrap();
        for s in &f.sigma {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spectral_norm_of_scaled_identity() {
        let a = RMat::identity(4).scale(2.5);
        assert!((spectral_norm(&a).unwrap() - 2.5).abs() < 1e-10);
    }

    #[test]
    fn spectral_scale_caps_sigma_at_one() {
        let mut rng = StdRng::seed_from_u64(16);
        let a = RMat::from_fn(6, 6, |_, _| rng.gen_range(-5.0..5.0));
        let (scaled, norm) = spectral_scale(&a).unwrap();
        let f = svd(&scaled).unwrap();
        assert!((f.sigma[0] - 1.0).abs() < 1e-9);
        assert!(scaled.scale(norm).approx_eq(&a, 1e-9));
    }

    #[test]
    fn spectral_scale_zero_matrix() {
        let a = RMat::zeros(2, 2);
        let (scaled, norm) = spectral_scale(&a).unwrap();
        assert_eq!(norm, 1.0);
        assert!(scaled.approx_eq(&a, 0.0));
    }

    #[test]
    fn singular_values_match_gram_eigen() {
        // σᵢ² are eigenvalues of AᵀA; check trace identity Σσ² = ‖A‖_F².
        let mut rng = StdRng::seed_from_u64(17);
        let a = random_mat(&mut rng, 5, 5);
        let f = svd(&a).unwrap();
        let fro2: f64 = a.frobenius_norm().powi(2);
        let sum_s2: f64 = f.sigma.iter().map(|s| s * s).sum();
        assert!((fro2 - sum_s2).abs() < 1e-9 * fro2.max(1.0));
    }
}
