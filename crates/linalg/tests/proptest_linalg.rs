//! Property-based tests for the linear-algebra substrate.

use flumen_linalg::{
    qr, random_orthogonal, random_unitary, spectral_norm, spectral_scale, svd, BlockMatrix, CMat,
    RMat, C64,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn svd_reconstructs((rows, cols) in (small_dim(), small_dim()), seed in any::<u32>()) {
        let m = rmat_from_seed(rows, cols, seed);
        let f = svd(&m).unwrap();
        prop_assert!(f.reconstruct().approx_eq(&m, 1e-8 * (1.0 + m.max_abs())));
    }

    #[test]
    fn svd_sigma_sorted_and_nonnegative((rows, cols) in (small_dim(), small_dim()), seed in any::<u32>()) {
        let m = rmat_from_seed(rows, cols, seed);
        let f = svd(&m).unwrap();
        prop_assert!(f.sigma.iter().all(|&s| s >= 0.0));
        prop_assert!(f.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn svd_factors_orthogonal((rows, cols) in (small_dim(), small_dim()), seed in any::<u32>()) {
        let m = rmat_from_seed(rows, cols, seed);
        let f = svd(&m).unwrap();
        prop_assert!(f.u.transpose().matmul(&f.u).approx_eq(&RMat::identity(rows), 1e-8));
        prop_assert!(f.v.transpose().matmul(&f.v).approx_eq(&RMat::identity(cols), 1e-8));
    }

    #[test]
    fn spectral_scale_bounds_sigma(n in 1usize..8, seed in any::<u32>()) {
        let m = rmat_from_seed(n, n, seed);
        let (scaled, norm) = spectral_scale(&m).unwrap();
        let top = spectral_norm(&scaled).unwrap();
        prop_assert!(top <= 1.0 + 1e-9);
        prop_assert!(norm >= 0.0);
        // Scaling back reproduces the original.
        prop_assert!(scaled.scale(norm).approx_eq(&m, 1e-8 * (1.0 + m.max_abs())));
    }

    /// The sweep-only spectral norm gives the same bits as the full SVD's
    /// σ_max on random, rank-deficient, all-zero, tall and wide matrices.
    #[test]
    fn spectral_norm_is_svd_sigma_max_bit_for_bit(
        (rows, cols) in (small_dim(), small_dim()),
        rank in 0usize..9,
        seed in any::<u32>(),
    ) {
        let m = low_rank_from_seed(rows, cols, rank, seed);
        let top = svd(&m).unwrap().sigma[0];
        prop_assert_eq!(spectral_norm(&m).unwrap().to_bits(), top.to_bits());
        let zero = RMat::zeros(rows, cols);
        prop_assert_eq!(
            spectral_norm(&zero).unwrap().to_bits(),
            svd(&zero).unwrap().sigma[0].to_bits()
        );
    }

    #[test]
    fn spectral_norm_submultiplicative(n in 2usize..6, s1 in any::<u32>(), s2 in any::<u32>()) {
        let a = rmat_from_seed(n, n, s1);
        let b = rmat_from_seed(n, n, s2);
        let nab = spectral_norm(&a.matmul(&b)).unwrap();
        let na = spectral_norm(&a).unwrap();
        let nb = spectral_norm(&b).unwrap();
        prop_assert!(nab <= na * nb + 1e-7 * (1.0 + na * nb));
    }

    #[test]
    fn qr_reconstructs(n in 1usize..9, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let a = CMat::from_fn(n, n, |_, _| {
            use rand::Rng;
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let f = qr(&a);
        prop_assert!(f.q.is_unitary(1e-8));
        prop_assert!(f.q.matmul(&f.r).approx_eq(&a, 1e-8));
    }

    #[test]
    fn random_unitary_preserves_norm(n in 1usize..10, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let u = random_unitary(n, &mut rng);
        prop_assert!(u.is_unitary(1e-8));
        // Unitaries preserve vector 2-norm (energy conservation of E-fields).
        use rand::Rng;
        let x: Vec<C64> = (0..n).map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let y = u.mul_vec(&x);
        let nx: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ny: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((nx - ny).abs() < 1e-8 * (1.0 + nx));
    }

    #[test]
    fn orthogonal_has_det_magnitude_one_columns(n in 1usize..8, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let q = random_orthogonal(n, &mut rng);
        for c in 0..n {
            let col_norm: f64 = (0..n).map(|r| q[(r, c)] * q[(r, c)]).sum::<f64>().sqrt();
            prop_assert!((col_norm - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn block_mvm_matches_dense((rows, cols) in (1usize..12, 1usize..12), n in 1usize..6, seed in any::<u32>()) {
        let m = rmat_from_seed(rows, cols, seed);
        let x: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.37).sin()).collect();
        let blocks = BlockMatrix::decompose(&m, n);
        let yb = blocks.mul_vec_exact(&x);
        let yd = m.mul_vec(&x);
        prop_assert_eq!(yb.len(), yd.len());
        for (a, b) in yb.iter().zip(yd.iter()) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn matmul_associative(n in 1usize..6, s1 in any::<u32>(), s2 in any::<u32>(), s3 in any::<u32>()) {
        let a = rmat_from_seed(n, n, s1);
        let b = rmat_from_seed(n, n, s2);
        let c = rmat_from_seed(n, n, s3);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-6 * (1.0 + left.max_abs())));
    }

    #[test]
    fn adjoint_reverses_products(n in 1usize..6, seed in any::<u32>()) {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let u = random_unitary(n, &mut rng);
        let v = random_unitary(n, &mut rng);
        let lhs = u.matmul(&v).adjoint();
        let rhs = v.adjoint().matmul(&u.adjoint());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }
}

fn rmat_from_seed(rows: usize, cols: usize, seed: u32) -> RMat {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed as u64);
    RMat::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0))
}

/// A `rows×cols` matrix of rank at most `rank` (a sum of `rank` outer
/// products); `rank ≥ min(rows, cols)` is a generic full-rank matrix, and
/// rank 0 is all zero.
fn low_rank_from_seed(rows: usize, cols: usize, rank: usize, seed: u32) -> RMat {
    if rank >= rows.min(cols) {
        return rmat_from_seed(rows, cols, seed);
    }
    let left = rmat_from_seed(rows, rank.max(1), seed);
    let right = rmat_from_seed(rank.max(1), cols, seed.wrapping_add(1));
    let product = left.matmul(&right);
    if rank == 0 {
        product.scale(0.0)
    } else {
        product
    }
}
