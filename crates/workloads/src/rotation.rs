//! 3D Rotation benchmark (paper §4.2): a homogeneous 4×4 transform over a
//! 306-vertex wireframe object.
//!
//! The 4×4 rotation matrix maps onto two 4-input SVD sub-MZIMs with no
//! partial-sum accumulation at the cores (paper §5.4.1 credits this for
//! the benchmark's best-in-class energy reduction).

use crate::jobs::{is_orthogonal, Benchmark, JobShape, MvmJob, WorkloadPlan};
use flumen_linalg::RMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAME: &str = "rotation_3d";

/// The 3D rotation benchmark.
#[derive(Debug)]
pub struct Rotation3d {
    job: [MvmJob; 1],
    golden: Vec<Vec<f64>>,
}

impl Rotation3d {
    /// The paper's configuration: 306 vertices.
    pub fn paper() -> Self {
        Self::with_vertices(306, 0x3D)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_vertices(24, 0x3D)
    }

    /// The shape of `count` vertices through the seeded transform: one
    /// 4×4 job. The transform itself (16 numbers) is built to test its
    /// orthogonality.
    pub fn plan(count: usize, seed: u64) -> WorkloadPlan {
        let m = transform(&mut StdRng::seed_from_u64(seed));
        WorkloadPlan {
            name: NAME,
            epilogue_ops: 0,
            jobs: vec![JobShape {
                id: 0,
                wave: 0,
                rows: 4,
                cols: 4,
                vectors: count,
                weight_base: 0x1000_0000,
                input_base: 0x2000_0000,
                output_base: 0x3000_0000,
                orthogonal: is_orthogonal(&m),
            }],
        }
    }

    /// Builds the benchmark with a seeded wireframe and transform.
    pub fn with_vertices(count: usize, seed: u64) -> Self {
        let plan = Self::plan(count, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = transform(&mut rng);
        let vectors: Vec<Vec<f64>> = (0..count)
            .map(|_| {
                vec![
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    1.0,
                ]
            })
            .collect();
        let golden: Vec<Vec<f64>> = vectors.iter().map(|v| m.mul_vec(v)).collect();
        Rotation3d {
            job: [plan.jobs[0].with_data(m, vectors)],
            golden,
        }
    }

    /// Transformed vertices.
    pub fn golden_vertices(&self) -> &[Vec<f64>] {
        &self.golden
    }
}

/// The homogeneous transform drawn first from `rng`: a rotation about an
/// arbitrary axis plus a small translation.
fn transform(rng: &mut StdRng) -> RMat {
    let (ax, ay, az) = random_unit_axis(rng);
    let angle: f64 = rng.gen_range(0.1..1.5);
    let (s, c) = angle.sin_cos();
    let t = 1.0 - c;
    #[rustfmt::skip]
    let entries = vec![
        t*ax*ax + c,      t*ax*ay - s*az, t*ax*az + s*ay, rng.gen_range(-0.5..0.5),
        t*ax*ay + s*az,   t*ay*ay + c,    t*ay*az - s*ax, rng.gen_range(-0.5..0.5),
        t*ax*az - s*ay,   t*ay*az + s*ax, t*az*az + c,    rng.gen_range(-0.5..0.5),
        0.0,              0.0,            0.0,            1.0,
    ];
    RMat::from_rows(4, 4, entries).expect("16 entries")
}

fn random_unit_axis(rng: &mut StdRng) -> (f64, f64, f64) {
    loop {
        let v: (f64, f64, f64) = (
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        let n = (v.0 * v.0 + v.1 * v.1 + v.2 * v.2).sqrt();
        if n > 1e-3 {
            return (v.0 / n, v.1 / n, v.2 / n);
        }
    }
}

impl Benchmark for Rotation3d {
    fn name(&self) -> &'static str {
        NAME
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.job
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        results.len() == 1
            && results[0].len() == self.golden.len()
            && results[0].iter().zip(self.golden.iter()).all(|(r, g)| {
                r.len() == g.len() && r.iter().zip(g.iter()).all(|(a, b)| (a - b).abs() <= tol)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mac_count() {
        let b = Rotation3d::paper();
        assert_eq!(b.total_macs(), 306 * 16);
    }

    #[test]
    fn rotation_preserves_rigid_distance() {
        let b = Rotation3d::paper();
        let (v, g) = (&b.job[0].vectors, &b.golden);
        // Distances between transformed vertex pairs match the originals
        // (rotation + translation is an isometry).
        let d = |a: &[f64], b: &[f64]| -> f64 {
            (0..3).map(|i| (a[i] - b[i]).powi(2)).sum::<f64>().sqrt()
        };
        for k in 1..5 {
            let before = d(&v[0], &v[k]);
            let after = d(&g[0], &g[k]);
            assert!((before - after).abs() < 1e-9);
        }
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = Rotation3d::small();
        let results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn no_partial_sums_on_4_input_partition() {
        // 4×4 matrix in a 4-input partition: single block — the property
        // the paper credits for the benchmark's top energy reduction.
        let b = Rotation3d::paper();
        let shape = b.jobs()[0].shape();
        assert_eq!(shape.partial_sum_adds(4), 0);
        assert_eq!(shape.block_grid(4), (1, 1));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = Rotation3d::small();
        let mut results: Vec<_> = b.jobs().iter().map(MvmJob::golden).collect();
        results[0][0][1] += 0.01;
        assert!(!b.verify(&results, 1e-9));
    }
}
