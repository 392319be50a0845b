//! Kernel-equivalence harness: every matmul/MVM variant against a shared
//! fixed-accumulation-order reference.
//!
//! * **Seed order** (`seed_matmul` / `seed_mul_vec`): ascending-`k` fold
//!   with each complex product rounded before accumulation and exact-zero
//!   `A` elements skipped. `CMat::matmul`, `matmul_into`, `mul_vec` and
//!   `mul_vec_into` promise **bit-exact** agreement with it — asserted
//!   here with `f64::to_bits`, including adversarial shapes (`n = 1`, odd
//!   `n`, 127/129, non-square) and denormal/overflow inputs.
//!
//! Batched-MVM equivalence (batch == sequence of singles, bit-exact) is
//! the photonics layer's contract and is pinned in
//! `crates/photonics/tests/batched_conservation.rs`.

use flumen_linalg::{CMat, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Regular shapes plus the adversarial ones: 1, odd, power-of-two ± 1.
/// (The vendored proptest stand-in has no `prop_oneof`, so this is a
/// hand-rolled weighted strategy.)
struct Dim;

impl Strategy for Dim {
    type Value = usize;
    fn generate(&self, rng: &mut proptest::TestRng) -> usize {
        match rng.gen_range(0u32..7) {
            0 => 31,
            1 => 127,
            2 => 129,
            _ => rng.gen_range(1usize..17),
        }
    }
}

fn dim() -> Dim {
    Dim
}

fn cmat_from_seed(rows: usize, cols: usize, seed: u32, zeros: bool) -> CMat {
    let mut rng = StdRng::seed_from_u64(seed as u64);
    CMat::from_fn(rows, cols, |_, _| {
        if zeros && rng.gen_bool(0.15) {
            C64::ZERO
        } else {
            C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))
        }
    })
}

/// The seed's kernel: k-outer, per-term rounding, zero-`A` skip.
fn seed_matmul(a: &CMat, b: &CMat) -> CMat {
    let mut out = CMat::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(r, k)];
            if av == C64::ZERO {
                continue;
            }
            for c in 0..b.cols() {
                let t = out[(r, c)] + av * b[(k, c)];
                out[(r, c)] = t;
            }
        }
    }
    out
}

/// The seed's MVM fold: ascending-`k`, per-term rounding, no skip.
fn seed_mul_vec(a: &CMat, x: &[C64]) -> Vec<C64> {
    (0..a.rows())
        .map(|r| {
            let mut acc = C64::ZERO;
            for c in 0..a.cols() {
                acc += a[(r, c)] * x[c];
            }
            acc
        })
        .collect()
}

fn bit_identical(a: &CMat, b: &CMat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|r| {
            (0..a.cols()).all(|c| {
                a[(r, c)].re.to_bits() == b[(r, c)].re.to_bits()
                    && a[(r, c)].im.to_bits() == b[(r, c)].im.to_bits()
            })
        })
}

proptest! {
    // The adversarial dims reach n=129 (≈2·129³ FLAM per case), so keep
    // the case count moderate; the shapes are what matter here.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seed-order family: `matmul` and `matmul_into` are bit-exact
    /// against the seed reference on every shape.
    #[test]
    fn seed_family_bit_exact(
        (m, k, n) in (dim(), dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, true);
        let b = cmat_from_seed(k, n, s2, true);
        let reference = seed_matmul(&a, &b);
        prop_assert!(bit_identical(&reference, &a.matmul(&b)));
        let mut out = CMat::from_fn(m, n, |_, _| C64::new(7.0, -7.0));
        a.matmul_into(&b, &mut out);
        prop_assert!(bit_identical(&reference, &out));
    }

    /// An MVM is a 1-column matmul: for zero-free `A` (so the zero-skip
    /// never fires) the seed-order matmul of a single column bit-equals
    /// `mul_vec` / `mul_vec_into` — the MVM and matmul variants share one
    /// accumulation order.
    #[test]
    fn mvm_is_one_column_matmul(
        (m, k) in (dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, false);
        let xm = cmat_from_seed(k, 1, s2, false);
        let x: Vec<C64> = (0..k).map(|i| xm[(i, 0)]).collect();
        let via_matmul = a.matmul(&xm);
        let via_vec = a.mul_vec(&x);
        let mut via_into = vec![C64::new(9.0, 9.0); m];
        a.mul_vec_into(&x, &mut via_into);
        for r in 0..m {
            prop_assert_eq!(via_matmul[(r, 0)].re.to_bits(), via_vec[r].re.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].im.to_bits(), via_vec[r].im.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].re.to_bits(), via_into[r].re.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].im.to_bits(), via_into[r].im.to_bits());
        }
        let reference = seed_mul_vec(&a, &x);
        for r in 0..m {
            prop_assert_eq!(reference[r].re.to_bits(), via_vec[r].re.to_bits());
            prop_assert_eq!(reference[r].im.to_bits(), via_vec[r].im.to_bits());
        }
    }
}

/// Denormal and near-overflow magnitudes mixed into one product: the
/// kernel must still match the seed reference bit-for-bit (the reference
/// makes no finiteness assumptions).
#[test]
fn extreme_magnitude_inputs_stay_bit_exact() {
    let vals = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,           // smallest normal
        f64::MIN_POSITIVE / 1024.0,  // denormal
        -f64::MIN_POSITIVE / 4096.0, // denormal, negative
        1.0e308,                     // near overflow
        -1.0e308,
        1.0e-300,
        3.5,
        -0.125,
    ];
    for n in [1usize, 2, 5, 8, 13] {
        let a = CMat::from_fn(n, n, |r, c| {
            C64::new(
                vals[(r * 3 + c) % vals.len()],
                vals[(r + c * 5) % vals.len()],
            )
        });
        let b = CMat::from_fn(n, n, |r, c| {
            C64::new(
                vals[(r * 7 + c + 1) % vals.len()],
                vals[(r + c + 2) % vals.len()],
            )
        });
        assert!(bit_identical(&seed_matmul(&a, &b), &a.matmul(&b)), "n={n}");
    }
}
