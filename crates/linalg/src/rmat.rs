//! Dense real matrices (row-major).
//!
//! Weight matrices, images and activations in the benchmark workloads are
//! real-valued; [`RMat`] carries them up to the point where they are lowered
//! onto the photonic fabric (which works in [`crate::CMat`] E-field space).

use crate::{CMat, LinalgError, Result, C64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major real matrix.
///
/// # Examples
///
/// ```
/// use flumen_linalg::RMat;
///
/// let a = RMat::from_fn(2, 2, |r, c| (r + c) as f64);
/// let x = vec![1.0, 1.0];
/// assert_eq!(a.mul_vec(&x), vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMat {
    /// Creates an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        RMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = RMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = RMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(RMat { rows, cols, data })
    }

    /// Reshapes to `rows×cols` and zeroes every element, reusing the
    /// storage: it allocates only when the new shape is larger than any
    /// before it.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with a copy of `other`, reusing the storage like
    /// [`RMat::reshape_zeroed`].
    pub fn copy_from(&mut self, other: &RMat) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A borrowed view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> RMat {
        RMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Allocation-free matrix-vector product: `y ← A·x`.
    ///
    /// Summation order per element is the ascending-column left-to-right
    /// fold, identical to [`RMat::mul_vec`] bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector/matrix dimension mismatch");
        assert_eq!(y.len(), self.rows, "output/matrix dimension mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let row = self.row(r);
            *out = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        }
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &RMat) -> RMat {
        let mut out = RMat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Allocation-free matrix product: `out ← A·B`.
    ///
    /// k-outer kernel streaming contiguous `B` rows; per output element the
    /// accumulation order is ascending `k` with zero-`A` terms skipped —
    /// bit-identical to the naive triple loop (see
    /// `tests/proptest_kernels.rs`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &RMat, out: &mut RMat) {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions do not match: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "output must be {}×{}, got {}×{}",
            self.rows,
            other.cols,
            out.rows,
            out.cols
        );
        out.data.fill(0.0);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// Scales every element by `k`.
    pub fn scale(&self, k: f64) -> RMat {
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * k).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Element-wise approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &RMat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Lifts into complex E-field space (imaginary parts zero).
    pub fn to_cmat(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |r, c| C64::from_re(self[(r, c)]))
    }

    /// Extracts the real parts of a complex matrix.
    pub fn from_cmat_re(m: &CMat) -> RMat {
        RMat::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)].re)
    }

    /// Zero-pads to `new_rows × new_cols` (paper Eq. 2), placing `self` in
    /// the top-left corner.
    ///
    /// # Panics
    ///
    /// Panics if the new shape is smaller than the current shape.
    pub fn zero_pad(&self, new_rows: usize, new_cols: usize) -> RMat {
        assert!(
            new_rows >= self.rows && new_cols >= self.cols,
            "zero_pad target must not shrink the matrix"
        );
        let mut out = RMat::zeros(new_rows, new_cols);
        for r in 0..self.rows {
            out.data[r * new_cols..r * new_cols + self.cols].copy_from_slice(self.row(r));
        }
        out
    }

    /// Extracts the `rows×cols` sub-block whose top-left corner is
    /// `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn sub_block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> RMat {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        RMat::from_fn(rows, cols, |r, c| self[(r0 + r, c0 + c)])
    }
}

impl Index<(usize, usize)> for RMat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for RMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &RMat {
    type Output = RMat;
    fn add(self, rhs: &RMat) -> RMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &RMat {
    type Output = RMat;
    fn sub(self, rhs: &RMat) -> RMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        RMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &RMat {
    type Output = RMat;
    fn mul(self, rhs: &RMat) -> RMat {
        self.matmul(rhs)
    }
}

impl fmt::Display for RMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul() {
        let a = RMat::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(RMat::identity(3).matmul(&a), a);
    }

    #[test]
    fn known_product() {
        let a = RMat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = RMat::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let p = a.matmul(&b);
        assert_eq!(
            p,
            RMat::from_rows(2, 2, vec![19.0, 22.0, 43.0, 50.0]).unwrap()
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let a = RMat::from_fn(2, 5, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = RMat::from_fn(3, 4, |r, c| (r + 2 * c) as f64);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let xm = RMat::from_rows(4, 1, x.clone()).unwrap();
        let y1 = a.mul_vec(&x);
        let y2 = a.matmul(&xm);
        for r in 0..3 {
            assert!((y1[r] - y2[(r, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_pad_places_top_left() {
        let a = RMat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = a.zero_pad(3, 4);
        assert_eq!(p[(0, 0)], 1.0);
        assert_eq!(p[(1, 1)], 4.0);
        assert_eq!(p[(2, 3)], 0.0);
        assert_eq!(p[(0, 2)], 0.0);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 4);
    }

    #[test]
    fn sub_block_roundtrip() {
        let a = RMat::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let b = a.sub_block(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], 6.0);
        assert_eq!(b[(1, 1)], 11.0);
    }

    #[test]
    fn pad_then_extract_is_identity() {
        let a = RMat::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let padded = a.zero_pad(8, 8);
        assert!(padded.sub_block(0, 0, 3, 5).approx_eq(&a, 0.0));
    }

    #[test]
    fn complex_roundtrip() {
        let a = RMat::from_fn(2, 3, |r, c| r as f64 - c as f64);
        assert!(RMat::from_cmat_re(&a.to_cmat()).approx_eq(&a, 0.0));
    }

    #[test]
    fn row_col_access() {
        let a = RMat::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(a.col(2), vec![2.0, 5.0]);
    }

    #[test]
    fn norms() {
        let a = RMat::from_rows(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn operators() {
        let a = RMat::identity(2);
        let b = a.scale(2.0);
        assert_eq!((&a + &a), b);
        assert_eq!((&b - &a), a);
        assert_eq!((&a * &b), b);
    }
}
