//! Image Blur benchmark (paper §4.2): a 3×3 Gaussian kernel over a
//! 256×256 24-bit colour image, ≈1.7 M MACs.
//!
//! The kernel weights are implemented in the MZIM and receptive-field
//! patches stream as the optical inputs (convolution organization of
//! paper Fig. 7): one job per colour channel with a stationary 1×9 kernel
//! matrix and H·W patch vectors.

use crate::data::Image;
use crate::jobs::{Benchmark, JobShape, MvmJob, WorkloadPlan};
use flumen_linalg::RMat;

const NAME: &str = "image_blur";

/// The 3×3 Gaussian blur kernel, normalized.
pub const GAUSSIAN_3X3: [f64; 9] = [
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    4.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
];

/// The Image Blur benchmark.
#[derive(Debug)]
pub struct ImageBlur {
    image: Image,
    jobs: Vec<MvmJob>,
    golden: Vec<f64>, // H×W×C blurred output
    epilogue_ops: u64,
}

impl ImageBlur {
    /// The paper's configuration: 256×256×3.
    pub fn paper() -> Self {
        Self::with_size(256, 256, 0xB10B)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(16, 16, 0xB10B)
    }

    /// The shapes of an `h×w` RGB blur: one 1×9 kernel job per channel
    /// with one patch vector per pixel.
    pub fn plan(h: usize, w: usize) -> WorkloadPlan {
        let hw = h * w;
        let jobs = (0..3)
            .map(|c| JobShape {
                id: c,
                wave: 0,
                rows: 1,
                cols: 9,
                vectors: hw,
                weight_base: 0x1000_0000,
                input_base: 0x2000_0000 + (c * hw * 16) as u64,
                output_base: 0x3000_0000 + (c * hw * 4) as u64,
                orthogonal: false,
            })
            .collect();
        WorkloadPlan {
            name: NAME,
            // Clamp + store per output pixel.
            epilogue_ops: (hw * 3) as u64,
            jobs,
        }
    }

    /// Builds the benchmark for an `h×w` RGB image.
    pub fn with_size(h: usize, w: usize, seed: u64) -> Self {
        let plan = Self::plan(h, w);
        let image = Image::synthetic(h, w, 3, seed);
        let kernel = RMat::from_rows(1, 9, GAUSSIAN_3X3.to_vec()).expect("9 weights");

        let mut golden = vec![0.0; h * w * 3];
        let mut jobs = Vec::with_capacity(plan.jobs.len());
        for shape in &plan.jobs {
            let c = shape.id;
            let mut vectors = Vec::with_capacity(shape.vectors);
            for y in 0..h {
                for x in 0..w {
                    // Raveled 3×3 receptive field, zero padded.
                    let mut patch = Vec::with_capacity(9);
                    let mut acc = 0.0;
                    for ky in -1isize..=1 {
                        for kx in -1isize..=1 {
                            let v = image.get_padded(y as isize + ky, x as isize + kx, c);
                            patch.push(v);
                            acc += v * GAUSSIAN_3X3[((ky + 1) * 3 + (kx + 1)) as usize];
                        }
                    }
                    golden[c * h * w + y * w + x] = acc;
                    vectors.push(patch);
                }
            }
            jobs.push(shape.with_data(kernel.clone(), vectors));
        }
        ImageBlur {
            image,
            jobs,
            golden,
            epilogue_ops: plan.epilogue_ops,
        }
    }

    /// The input image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The golden blurred output (channel-major).
    pub fn golden_output(&self) -> &[f64] {
        &self.golden
    }
}

impl Benchmark for ImageBlur {
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
        if results.len() != self.jobs.len() {
            return false;
        }
        let hw = self.image.height * self.image.width;
        for (c, res) in results.iter().enumerate() {
            if res.len() != hw {
                return false;
            }
            for (i, out) in res.iter().enumerate() {
                if out.len() != 1 || (out[0] - self.golden[c * hw + i]).abs() > tol {
                    return false;
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
    fn paper_mac_count_matches() {
        // 256 × 256 × 3 × 9 ≈ 1.77 M MACs (paper: ~1.7 M).
        let b = ImageBlur::paper();
        assert_eq!(b.total_macs(), 256 * 256 * 3 * 9);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = ImageBlur::small();
        let results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = ImageBlur::small();
        let mut results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        results[0][0][0] += 0.5;
        assert!(!b.verify(&results, 1e-6));
    }

    #[test]
    fn blur_smooths_the_image() {
        // Total variation of the blurred image must not exceed the input's.
        let b = ImageBlur::small();
        let (h, w) = (16usize, 16usize);
        let tv = |f: &dyn Fn(usize, usize) -> f64| -> f64 {
            let mut t = 0.0;
            for y in 0..h {
                for x in 1..w {
                    t += (f(y, x) - f(y, x - 1)).abs();
                }
            }
            t
        };
        let img = b.image();
        let tv_in = tv(&|y, x| img.get(y, x, 0));
        let g = b.golden_output();
        let tv_out = tv(&|y, x| g[y * w + x]);
        assert!(tv_out < tv_in);
    }

    #[test]
    fn kernel_is_normalized() {
        assert!((GAUSSIAN_3X3.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_structure_has_partial_sums() {
        // 1×9 kernel on a 4-input partition: 1 row-strip × 3 column blocks
        // → partial sums required (paper: blur accumulates partials).
        let b = ImageBlur::small();
        assert!(b.jobs()[0].shape().partial_sum_adds(4) > 0);
    }
}
