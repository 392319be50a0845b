//! VGG16 FC benchmark (paper §4.2): the FC-1000 layer of an 8-bit
//! quantized VGG16 — a (1000 × 4096) weight matrix times a 4096-element
//! activation vector plus bias, ≈4.1 M MACs.

use crate::data::{quantize_u8, synthetic_weights};
use crate::jobs::{Benchmark, JobShape, MvmJob, WorkloadPlan};
use flumen_linalg::RMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAME: &str = "vgg16_fc";

/// The VGG16 FC-1000 benchmark.
#[derive(Debug)]
pub struct Vgg16Fc {
    job: [MvmJob; 1],
    bias: Vec<f64>,
    golden: Vec<f64>,
    epilogue_ops: u64,
}

impl Vgg16Fc {
    /// The paper's configuration: 1000 × 4096, batch 1.
    pub fn paper() -> Self {
        Self::with_size(1000, 4096, 0xF0C)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(10, 32, 0xF0C)
    }

    /// Builds an `out_dim × in_dim` FC layer with batch 1.
    pub fn with_size(out_dim: usize, in_dim: usize, seed: u64) -> Self {
        Self::with_batch(out_dim, in_dim, 1, seed)
    }

    /// The shape of an `out_dim × in_dim` FC layer over `batch` inputs.
    ///
    /// The weights are taken as not orthogonal, so a square layer never
    /// takes a unitary partition. Every weight is 8-bit quantized with
    /// `|w| ≤ 0.25`: below 16 inputs no column can reach unit norm, and
    /// beyond that each column would need its quantized levels `q` to
    /// give `Σq² = 16·127²` exactly, with every pair of columns exactly
    /// orthogonal, which seeded random weights do not produce. Debug
    /// builds check every instantiated layer.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn plan(out_dim: usize, in_dim: usize, batch: usize) -> WorkloadPlan {
        assert!(batch > 0, "batch must be positive");
        WorkloadPlan {
            name: NAME,
            // Bias add per output.
            epilogue_ops: out_dim as u64,
            jobs: vec![JobShape {
                id: 0,
                wave: 0,
                rows: out_dim,
                cols: in_dim,
                vectors: batch,
                weight_base: 0x1000_0000,
                input_base: 0x2000_0000,
                output_base: 0x3000_0000,
                orthogonal: false,
            }],
        }
    }

    /// **Extension (beyond the paper):** a batched FC layer. The paper
    /// identifies VGG16-FC as Flumen's weakest benchmark *because* batch-1
    /// inference reuses each weight block exactly once; batching restores
    /// the operand reuse that the WDM compute path thrives on; the
    /// `abl_batch_reuse` study runs its [`Vgg16Fc::plan`].
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(out_dim: usize, in_dim: usize, batch: usize, seed: u64) -> Self {
        let plan = Self::plan(out_dim, in_dim, batch);
        let weights = synthetic_weights(out_dim * in_dim, 0.25, seed);
        let matrix = RMat::from_rows(out_dim, in_dim, weights).expect("sized");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let vectors: Vec<Vec<f64>> = (0..batch)
            .map(|_| {
                (0..in_dim)
                    .map(|_| quantize_u8(rng.gen_range(0.0..1.0)))
                    .collect()
            })
            .collect();
        let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
        // Golden output for the first batch element (bias included); the
        // verifier checks every element against the job's exact products.
        let golden: Vec<f64> = matrix
            .mul_vec(&vectors[0])
            .into_iter()
            .zip(bias.iter())
            .map(|(v, b)| v + b)
            .collect();
        Vgg16Fc {
            job: [plan.jobs[0].with_data(matrix, vectors)],
            bias,
            golden,
            epilogue_ops: plan.epilogue_ops,
        }
    }

    /// The layer's golden output for the first batch element (with bias).
    pub fn golden_output(&self) -> &[f64] {
        &self.golden
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.job[0].vectors.len()
    }
}

impl Benchmark for Vgg16Fc {
    fn name(&self) -> &'static str {
        NAME
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.job
    }

    fn epilogue_ops(&self) -> u64 {
        self.epilogue_ops
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        if results.len() != 1 || results[0].len() != self.job[0].vectors.len() {
            return false;
        }
        // First batch element checks through the bias against the app's
        // golden output; remaining elements against the exact products.
        let first = &results[0][0];
        let first_ok = first.len() == self.golden.len()
            && first
                .iter()
                .zip(self.bias.iter())
                .zip(self.golden.iter())
                .all(|((v, b), g)| (v + b - g).abs() <= tol);
        let exact = self.job[0].golden();
        first_ok
            && results[0]
                .iter()
                .zip(exact.iter())
                .all(|(r, g)| r.iter().zip(g.iter()).all(|(a, b)| (a - b).abs() <= tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mac_count_matches() {
        // 1000 × 4096 ≈ 4.1 M MACs.
        let b = Vgg16Fc::paper();
        assert_eq!(b.total_macs(), 4_096_000);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = Vgg16Fc::small();
        let results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = Vgg16Fc::small();
        let mut results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        results[0][0][3] += 0.1;
        assert!(!b.verify(&results, 1e-9));
    }

    #[test]
    fn low_reuse_single_vector() {
        // The paper identifies VGG FC as the lowest-speedup benchmark:
        // a large kernel with a single input vector (no operand reuse).
        let b = Vgg16Fc::small();
        assert_eq!(b.jobs()[0].vectors.len(), 1);
    }

    #[test]
    fn heavy_partial_sums_on_small_fabric() {
        let b = Vgg16Fc::paper();
        // 4096 columns / 4 = 1024 block columns → deep accumulation.
        let shape = b.jobs()[0].shape();
        let (br, bc) = shape.block_grid(4);
        assert_eq!(br, 250);
        assert_eq!(bc, 1024);
        assert!(shape.partial_sum_adds(4) > 1_000_000);
    }
}
