//! Block decomposition of matrices for N-input MZIM execution.
//!
//! An `N`-input Flumen MZIM implements one `N×N` matrix at a time, so an
//! arbitrary `n×m` matrix must be zero-padded to multiples of `N` and split
//! into `N×N` sub-blocks (paper Eqs. 2–3). The product is then evaluated as a
//! block matrix multiplication in which the fabric performs each
//! `N×N · N×p` product and the cores accumulate partial sums.

use crate::RMat;

/// An `n×m` matrix zero-padded and partitioned into `N×N` blocks.
///
/// # Examples
///
/// ```
/// use flumen_linalg::{BlockMatrix, RMat};
///
/// let m = RMat::from_fn(5, 6, |r, c| (r * 6 + c) as f64);
/// let blocks = BlockMatrix::decompose(&m, 4);
/// assert_eq!(blocks.block_rows(), 2); // ceil(5/4)
/// assert_eq!(blocks.block_cols(), 2); // ceil(6/4)
/// ```
#[derive(Debug, Clone)]
pub struct BlockMatrix {
    /// Original (unpadded) row count.
    orig_rows: usize,
    /// Original (unpadded) column count.
    orig_cols: usize,
    /// Block side length (the MZIM input count `N`).
    n: usize,
    /// Blocks in row-major block order; `blocks[i * block_cols + j]`.
    blocks: Vec<RMat>,
    block_rows: usize,
    block_cols: usize,
}

impl BlockMatrix {
    /// Zero-pads `m` along both dimensions to the nearest multiple of `n`
    /// and splits it into `n×n` sub-blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn decompose(m: &RMat, n: usize) -> Self {
        assert!(n > 0, "block size must be non-zero");
        let block_rows = m.rows().div_ceil(n);
        let block_cols = m.cols().div_ceil(n);
        let padded = m.zero_pad(block_rows * n, block_cols * n);
        let mut blocks = Vec::with_capacity(block_rows * block_cols);
        for bi in 0..block_rows {
            for bj in 0..block_cols {
                blocks.push(padded.sub_block(bi * n, bj * n, n, n));
            }
        }
        BlockMatrix {
            orig_rows: m.rows(),
            orig_cols: m.cols(),
            n,
            blocks,
            block_rows,
            block_cols,
        }
    }

    /// Number of block rows `⌈rows/N⌉`.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns `⌈cols/N⌉`.
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// The `(i, j)` block.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn block(&self, i: usize, j: usize) -> &RMat {
        assert!(i < self.block_rows && j < self.block_cols);
        &self.blocks[i * self.block_cols + j]
    }

    /// Iterator over `((i, j), block)` pairs in row-major block order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &RMat)> {
        self.blocks
            .iter()
            .enumerate()
            .map(move |(k, b)| ((k / self.block_cols, k % self.block_cols), b))
    }

    /// Total number of `N×N` sub-block multiplications needed to multiply
    /// this matrix by a vector (`block_rows × block_cols`).
    pub fn mvm_block_ops(&self) -> usize {
        self.block_rows * self.block_cols
    }

    /// Multiplies the original matrix by vector `x` via block products plus
    /// partial-sum accumulation, exactly as the Flumen cores would. Returns
    /// the unpadded result.
    ///
    /// `block_mvm(i, j, chunk)` must return `block(i,j) · chunk`; the default
    /// exact evaluator is [`RMat::mul_vec`], but the photonic crate passes a
    /// closure that routes through the (noisy, quantized) MZIM model.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the original column count.
    pub fn mul_vec_via_blocks<F>(&self, x: &[f64], mut block_mvm: F) -> Vec<f64>
    where
        F: FnMut(usize, usize, &RMat, &[f64]) -> Vec<f64>,
    {
        assert_eq!(x.len(), self.orig_cols, "input vector length mismatch");
        let n = self.n;
        // Zero-pad the input vector.
        let mut xp = vec![0.0; self.block_cols * n];
        xp[..x.len()].copy_from_slice(x);

        let mut y = vec![0.0; self.block_rows * n];
        for i in 0..self.block_rows {
            for j in 0..self.block_cols {
                let chunk = &xp[j * n..(j + 1) * n];
                let partial = block_mvm(i, j, self.block(i, j), chunk);
                debug_assert_eq!(partial.len(), n);
                for (acc, p) in y[i * n..(i + 1) * n].iter_mut().zip(partial) {
                    *acc += p;
                }
            }
        }
        y.truncate(self.orig_rows);
        y
    }

    /// Exact block MVM using in-core arithmetic (reference path).
    pub fn mul_vec_exact(&self, x: &[f64]) -> Vec<f64> {
        self.mul_vec_via_blocks(x, |_, _, block, chunk| block.mul_vec(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn exact_block_mvm_matches_dense() {
        let mut rng = StdRng::seed_from_u64(21);
        for (rows, cols, n) in [
            (5usize, 6usize, 4usize),
            (8, 8, 4),
            (3, 10, 4),
            (16, 4, 8),
            (1, 1, 4),
        ] {
            let m = RMat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let blocks = BlockMatrix::decompose(&m, n);
            let y_blocks = blocks.mul_vec_exact(&x);
            let y_dense = m.mul_vec(&x);
            assert_eq!(y_blocks.len(), y_dense.len());
            for (a, b) in y_blocks.iter().zip(y_dense.iter()) {
                assert!((a - b).abs() < 1e-10, "{rows}x{cols} n={n}");
            }
        }
    }

    #[test]
    fn block_counts() {
        let m = RMat::zeros(9, 13);
        let b = BlockMatrix::decompose(&m, 4);
        assert_eq!(b.block_rows(), 3);
        assert_eq!(b.block_cols(), 4);
        assert_eq!(b.mvm_block_ops(), 12);
    }

    #[test]
    fn exact_multiple_needs_no_padding() {
        let m = RMat::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
        let b = BlockMatrix::decompose(&m, 4);
        assert_eq!(b.block_rows(), 2);
        assert_eq!(b.block_cols(), 2);
        // Top-left block is the original top-left corner.
        assert_eq!(b.block(0, 0)[(0, 0)], 0.0);
        assert_eq!(b.block(1, 1)[(3, 3)], 63.0);
    }

    #[test]
    fn iter_visits_all_blocks() {
        let m = RMat::zeros(5, 5);
        let b = BlockMatrix::decompose(&m, 4);
        let coords: Vec<(usize, usize)> = b.iter().map(|(ij, _)| ij).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn padded_region_is_zero() {
        let m = RMat::from_fn(3, 3, |_, _| 1.0);
        let b = BlockMatrix::decompose(&m, 4);
        let blk = b.block(0, 0);
        assert_eq!(blk[(3, 3)], 0.0);
        assert_eq!(blk[(0, 3)], 0.0);
        assert_eq!(blk[(3, 0)], 0.0);
        assert_eq!(blk[(2, 2)], 1.0);
    }

    #[test]
    fn custom_block_evaluator_is_used() {
        let m = RMat::identity(4);
        let b = BlockMatrix::decompose(&m, 4);
        // An evaluator that doubles everything.
        let y = b.mul_vec_via_blocks(&[1.0, 2.0, 3.0, 4.0], |_, _, blk, x| {
            blk.mul_vec(x).into_iter().map(|v| 2.0 * v).collect()
        });
        assert_eq!(y, vec![2.0, 4.0, 6.0, 8.0]);
    }
}
