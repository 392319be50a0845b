//! JPEG benchmark (paper §4.2): compression of a 256×384 24-bit image —
//! 1536 8×8 2-D DCTs (≈1.6 M MACs) plus core-side quantization, zigzag
//! and run-length encoding.
//!
//! A 2-D DCT factors as `C = D·B·Dᵀ`: two matrix passes per block. The
//! orthonormal 8×8 DCT matrix maps onto the **full 8-input unitary MZIM**
//! (no Σ attenuation needed — paper §5.4.1 makes exactly this point), and
//! the second pass depends on the first, giving a two-wave job graph.

use crate::data::Image;
use crate::jobs::{is_orthogonal, Benchmark, JobShape, MvmJob, WorkloadPlan};
use flumen_linalg::RMat;

const NAME: &str = "jpeg";

/// Builds the orthonormal 8×8 DCT-II matrix.
pub fn dct8_matrix() -> RMat {
    let n = 8usize;
    RMat::from_fn(n, n, |k, i| {
        let scale = if k == 0 {
            (1.0 / n as f64).sqrt()
        } else {
            (2.0 / n as f64).sqrt()
        };
        scale * ((std::f64::consts::PI / n as f64) * (i as f64 + 0.5) * k as f64).cos()
    })
}

/// The JPEG compression benchmark (luma-plane DCT stage).
#[derive(Debug)]
pub struct Jpeg {
    blocks: usize,
    jobs: Vec<MvmJob>,
    /// Golden DCT coefficients per block (row-major 8×8 each).
    golden: Vec<Vec<f64>>,
    epilogue_ops: u64,
}

impl Jpeg {
    /// The paper's configuration: 256×384 → 1536 blocks.
    pub fn paper() -> Self {
        Self::with_size(256, 384, 0x77E6)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(16, 24, 0x77E6)
    }

    /// The shapes of an `h×w` image's two DCT passes: the 8×8 DCT matrix
    /// times eight vectors per block in each wave, the second pass reading
    /// the first's outputs.
    ///
    /// # Panics
    ///
    /// Panics unless `h` and `w` are multiples of 8.
    pub fn plan(h: usize, w: usize) -> WorkloadPlan {
        assert!(
            h.is_multiple_of(8) && w.is_multiple_of(8),
            "JPEG needs 8-aligned dimensions"
        );
        let blocks = (h / 8) * (w / 8);
        let orthogonal = is_orthogonal(&dct8_matrix());
        let pass = |id: usize, input_base: u64, output_base: u64| JobShape {
            id,
            wave: id,
            rows: 8,
            cols: 8,
            vectors: blocks * 8,
            weight_base: 0x1000_0000,
            input_base,
            output_base,
            orthogonal,
        };
        WorkloadPlan {
            name: NAME,
            // Quantization (divide+round), zigzag and RLE per coefficient.
            epilogue_ops: (blocks * 64 * 5) as u64,
            jobs: vec![
                pass(0, 0x2000_0000, 0x3000_0000),
                // Wave 1 consumes wave-0 outputs.
                pass(1, 0x3000_0000, 0x4000_0000),
            ],
        }
    }

    /// Builds the benchmark for an `h×w` image (both multiples of 8).
    ///
    /// # Panics
    ///
    /// Panics unless `h` and `w` are multiples of 8.
    pub fn with_size(h: usize, w: usize, seed: u64) -> Self {
        let plan = Self::plan(h, w);
        let image = Image::synthetic(h, w, 1, seed);
        let d = dct8_matrix();
        let blocks_y = h / 8;
        let blocks_x = w / 8;
        let blocks = blocks_y * blocks_x;

        // Wave 0: Y = D·B — inputs are the 8 columns of each block.
        let mut wave0_vectors = Vec::with_capacity(blocks * 8);
        // Store per-block column-major Y to derive wave-1 inputs.
        let mut golden = Vec::with_capacity(blocks);
        let mut wave1_vectors = Vec::with_capacity(blocks * 8);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let block = RMat::from_fn(8, 8, |r, c| {
                    image.get(by * 8 + r, bx * 8 + c, 0) - 0.5 // level shift
                });
                let y = d.matmul(&block);
                let c_coeff = y.matmul(&d.transpose());
                golden.push(c_coeff.as_slice().to_vec());
                for col in 0..8 {
                    wave0_vectors.push(block.col(col));
                }
                // Wave 1 computes Cᵀ = D·Yᵀ: inputs are the rows of Y.
                for row in 0..8 {
                    wave1_vectors.push(y.row(row).to_vec());
                }
            }
        }

        let jobs = vec![
            plan.jobs[0].with_data(d.clone(), wave0_vectors),
            plan.jobs[1].with_data(d, wave1_vectors),
        ];
        Jpeg {
            blocks,
            jobs,
            golden,
            epilogue_ops: plan.epilogue_ops,
        }
    }
}

impl Benchmark for Jpeg {
    fn name(&self) -> &'static str {
        NAME
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.jobs
    }

    fn epilogue_ops(&self) -> u64 {
        self.epilogue_ops
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        if results.len() != 2 {
            return false;
        }
        // Wave 1 outputs are the columns of Cᵀ, i.e. the rows of C.
        let w1 = &results[1];
        if w1.len() != self.blocks * 8 {
            return false;
        }
        for (b, gold) in self.golden.iter().enumerate() {
            for row in 0..8 {
                let out = &w1[b * 8 + row];
                for col in 0..8 {
                    if (out[col] - gold[row * 8 + col]).abs() > tol {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_matrix_is_orthonormal() {
        let d = dct8_matrix();
        let dtd = d.transpose().matmul(&d);
        assert!(dtd.approx_eq(&RMat::identity(8), 1e-12));
    }

    #[test]
    fn paper_block_and_mac_counts() {
        let j = Jpeg::paper();
        assert_eq!(j.blocks, 1536);
        // Two 8×8×8 passes per block: 1536 × 2 × 512 ≈ 1.57 M MACs.
        assert_eq!(j.total_macs(), 1536 * 2 * 512);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let j = Jpeg::small();
        let results: Vec<_> = j.jobs().iter().map(MvmJob::golden).collect();
        assert!(j.verify(&results, 1e-9));
    }

    #[test]
    fn verify_rejects_corruption() {
        let j = Jpeg::small();
        let mut results: Vec<_> = j.jobs().iter().map(MvmJob::golden).collect();
        results[1][3][2] += 1.0;
        assert!(!j.verify(&results, 1e-6));
    }

    #[test]
    fn dc_coefficient_matches_block_mean() {
        // C[0,0] = 8 × mean(levels) for an orthonormal DCT-II.
        let j = Jpeg::small();
        let gold = &j.golden[0];
        // Reconstruct the block mean from the DC coefficient.
        let dc = gold[0];
        assert!(dc.abs() < 8.0, "level-shifted DC must be bounded: {dc}");
    }

    #[test]
    fn two_waves_with_dependency() {
        let j = Jpeg::small();
        assert_eq!(j.jobs()[0].wave, 0);
        assert_eq!(j.jobs()[1].wave, 1);
        // No partial sums: 8×8 fits the 8-input fabric exactly.
        assert_eq!(j.jobs()[0].shape().partial_sum_adds(8), 0);
    }
}
