//! # flumen-linalg
//!
//! Complex and real dense linear algebra for the Flumen photonic-interconnect
//! simulator — written from scratch so the workspace has no external
//! linear-algebra dependencies.
//!
//! The crate provides exactly what the photonic stack needs:
//!
//! * [`C64`] — complex numbers for E-field arithmetic.
//! * [`CMat`] / [`RMat`] — dense matrices (transfer matrices / weights).
//! * [`qr`] and [`random_unitary`] — Householder QR and Haar-random
//!   unitaries for testing phase-programming algorithms.
//! * [`svd`], [`spectral_norm`], [`spectral_scale`] — one-sided Jacobi SVD,
//!   used to lower arbitrary weight blocks onto SVD-MZIM circuits
//!   (paper §3.3.1).
//! * [`BlockMatrix`] — zero-padding and `N×N` block decomposition for block
//!   matrix multiplication on an `N`-input fabric (paper Eqs. 2–3).
//! * [`sha256_hex`] and [`store`] — content addressing and the atomic,
//!   checksummed on-disk store every cache in the workspace sits on.
//!
//! # Example: lowering a weight matrix for an 8-input MZIM
//!
//! ```
//! use flumen_linalg::{spectral_scale, BlockMatrix, RMat};
//!
//! # fn main() -> Result<(), flumen_linalg::LinalgError> {
//! let weights = RMat::from_fn(10, 12, |r, c| ((r + c) % 5) as f64 / 5.0);
//! let (scaled, norm) = spectral_scale(&weights)?;   // σ_max(scaled) == 1
//! let blocks = BlockMatrix::decompose(&scaled, 8);  // 2×2 grid of 8×8 blocks
//! let x = vec![0.25; 12];
//! let y = blocks.mul_vec_exact(&x);                 // photonic-style block MVM
//! let y_true = weights.mul_vec(&x);
//! for (a, b) in y.iter().zip(y_true.iter()) {
//!     assert!((a * norm - b).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```

// Indexed loops mirror the paper's matrix notation; iterator-chain
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod cmat;
mod complex;
mod error;
mod hash;
mod qr;
mod rmat;
pub mod store;
mod svd;

pub use block::BlockMatrix;
pub use cmat::CMat;
pub use complex::C64;
pub use error::{LinalgError, Result};
pub use hash::sha256_hex;
pub use qr::{qr, random_orthogonal, random_unitary, Qr};
pub use rmat::RMat;
pub use svd::{spectral_norm, spectral_scale, svd, Svd, SvdWork};
