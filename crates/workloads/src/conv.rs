//! ResNet50 Conv3 benchmark (paper §4.2): one 3×3 convolutional layer
//! from the conv3_x group of an 8-bit quantized ResNet50 over a
//! 56×56×128 activation volume with 128 3×3 kernels, ≈8 M
//! multiply/accumulate operations.
//!
//! **Op-count note.** A full-depth 3×3×128 convolution at this shape
//! costs ~460 M MACs; the paper's stated ~8 M corresponds to kernels with
//! a narrow channel extent. We implement a channel-grouped convolution
//! (64 groups, each pairing 2 kernels with 2 input channels), which
//! matches the stated input volume, kernel count and op count while
//! exercising the same im2col-to-MZIM lowering (Fig. 7).

use crate::data::{synthetic_weights, Image};
use crate::jobs::{Benchmark, JobShape, MvmJob, WorkloadPlan};
use flumen_linalg::RMat;

const NAME: &str = "resnet50_conv3";
/// Kernels per group.
const KERNELS: usize = 2;
/// Patch length: 3×3 × 2 channels.
const PATCH: usize = 9 * 2;

/// The grouped ResNet50 Conv3 benchmark.
#[derive(Debug)]
pub struct ResnetConv3 {
    h: usize,
    w: usize,
    groups: usize,
    jobs: Vec<MvmJob>,
    golden: Vec<f64>, // groups × 2 kernels × h × w
    epilogue_ops: u64,
}

impl ResnetConv3 {
    /// The paper's configuration: 56×56×128, 128 kernels.
    pub fn paper() -> Self {
        Self::with_size(56, 56, 64, 0xC3)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(8, 8, 4, 0xC3)
    }

    /// The shapes of the layer: one 2×18 kernel job per group with one
    /// patch vector per output pixel.
    pub fn plan(h: usize, w: usize, groups: usize) -> WorkloadPlan {
        let hw = h * w;
        let jobs = (0..groups)
            .map(|g| JobShape {
                id: g,
                wave: 0,
                rows: KERNELS,
                cols: PATCH,
                vectors: hw,
                weight_base: 0x1000_0000 + (g * 1024) as u64,
                input_base: 0x2000_0000 + (g * hw * 32) as u64,
                output_base: 0x3000_0000 + (g * hw * 16) as u64,
                orthogonal: false,
            })
            .collect();
        WorkloadPlan {
            name: NAME,
            // ReLU + store per output activation.
            epilogue_ops: (groups * KERNELS * hw) as u64,
            jobs,
        }
    }

    /// Builds the layer: `groups` groups of (2 kernels × 2 channels),
    /// same-padded 3×3 convolution over an `h×w` spatial extent.
    pub fn with_size(h: usize, w: usize, groups: usize, seed: u64) -> Self {
        let plan = Self::plan(h, w, groups);
        let input = Image::synthetic(h, w, groups * 2, seed);

        let mut jobs = Vec::with_capacity(groups);
        let mut golden = vec![0.0; groups * KERNELS * h * w];
        let mut out = vec![0.0; KERNELS];
        for shape in &plan.jobs {
            let g = shape.id;
            let weights = synthetic_weights(KERNELS * PATCH, 0.3, seed ^ (g as u64 + 1));
            let kmat = RMat::from_rows(KERNELS, PATCH, weights).expect("sized");
            let mut vectors = Vec::with_capacity(shape.vectors);
            for y in 0..h {
                for x in 0..w {
                    let mut patch = Vec::with_capacity(PATCH);
                    for ch in 0..2 {
                        let c = g * 2 + ch;
                        for ky in -1isize..=1 {
                            for kx in -1isize..=1 {
                                patch.push(input.get_padded(y as isize + ky, x as isize + kx, c));
                            }
                        }
                    }
                    kmat.mul_vec_into(&patch, &mut out);
                    for (k, v) in out.iter().enumerate() {
                        golden[((g * KERNELS + k) * h + y) * w + x] = *v;
                    }
                    vectors.push(patch);
                }
            }
            jobs.push(shape.with_data(kmat, vectors));
        }
        ResnetConv3 {
            h,
            w,
            groups,
            jobs,
            golden,
            epilogue_ops: plan.epilogue_ops,
        }
    }

    /// The golden output volume (kernel-major).
    pub fn golden_output(&self) -> &[f64] {
        &self.golden
    }
}

impl Benchmark for ResnetConv3 {
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
        if results.len() != self.groups {
            return false;
        }
        let (h, w) = (self.h, self.w);
        for (g, res) in results.iter().enumerate() {
            if res.len() != h * w {
                return false;
            }
            for (i, out) in res.iter().enumerate() {
                let (y, x) = (i / w, i % w);
                for (k, v) in out.iter().enumerate() {
                    let gold = self.golden[((g * 2 + k) * h + y) * w + x];
                    if (v - gold).abs() > tol {
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
    fn paper_op_count_is_about_eight_million() {
        // 56 × 56 × 128 kernels × 18-element patches ≈ 7.2 M MACs
        // (the paper rounds to ~8 M).
        let b = ResnetConv3::paper();
        let macs = b.total_macs();
        assert!((7_000_000..9_000_000).contains(&macs), "{macs}");
        assert_eq!(b.jobs().len(), 64);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = ResnetConv3::small();
        let results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = ResnetConv3::small();
        let mut results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        results[1][5][0] += 0.25;
        assert!(!b.verify(&results, 1e-9));
    }

    #[test]
    fn high_reuse_many_vectors_per_kernel() {
        // The paper credits Conv3's speedup to kernel-weight reuse: many
        // receptive fields stream through one configured matrix.
        let b = ResnetConv3::small();
        assert!(b.jobs()[0].vectors.len() >= 64);
    }
}
