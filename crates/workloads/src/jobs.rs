//! Offloadable linear-algebra jobs and their data-free plans.
//!
//! Every benchmark reduces its heavy math to a list of [`MvmJob`]s: a
//! stationary matrix times a set of input vectors (paper §3.3). Jobs in a
//! later *wave* depend on results of the previous wave (JPEG's two DCT
//! passes); waves are separated by barriers in the generated task graphs.
//!
//! The cycle simulator reads only a job's [`JobShape`] — dimensions,
//! vector count, base addresses and whether the matrix is orthogonal —
//! so a [`WorkloadPlan`] of shapes drives a full-system run without the
//! tensors ever being generated. Each benchmark's data constructor takes
//! its shapes from the same shape function that builds its plan.

use flumen_linalg::RMat;

/// One matrix-times-many-vectors job.
#[derive(Debug, Clone)]
pub struct MvmJob {
    /// Job id, unique within a benchmark.
    pub id: usize,
    /// Dependency wave (0 first).
    pub wave: usize,
    /// The stationary matrix (kernel / weights), arbitrary shape.
    pub matrix: RMat,
    /// Input vectors, each of length `matrix.cols()`.
    pub vectors: Vec<Vec<f64>>,
    /// Base byte address of the weights (8-bit elements).
    pub weight_base: u64,
    /// Base byte address of the inputs (8-bit elements).
    pub input_base: u64,
    /// Base byte address of the outputs (32-bit accumulators).
    pub output_base: u64,
}

impl MvmJob {
    /// Multiply-accumulate count: `rows × cols × vectors`.
    pub fn macs(&self) -> u64 {
        (self.matrix.rows() * self.matrix.cols() * self.vectors.len()) as u64
    }

    /// Exact results, one output vector per input vector.
    pub fn golden(&self) -> Vec<Vec<f64>> {
        self.vectors
            .iter()
            .map(|v| self.matrix.mul_vec(v))
            .collect()
    }

    /// The job's shape, with the matrix's orthogonality tested.
    pub fn shape(&self) -> JobShape {
        JobShape {
            id: self.id,
            wave: self.wave,
            rows: self.matrix.rows(),
            cols: self.matrix.cols(),
            vectors: self.vectors.len(),
            weight_base: self.weight_base,
            input_base: self.input_base,
            output_base: self.output_base,
            orthogonal: is_orthogonal(&self.matrix),
        }
    }
}

/// Whether `m` is square and orthogonal: every element of `MᵀM` within
/// 1e-9 of the identity's. The diagonal of `MᵀM` (each column's squared
/// norm, summed as `RMat::matmul` sums it: ascending, zero terms skipped)
/// is checked first, so a matrix whose columns are not unit vectors costs
/// O(n²) instead of the O(n³) product, with the same answer.
pub(crate) fn is_orthogonal(m: &RMat) -> bool {
    const TOL: f64 = 1e-9;
    let n = m.rows();
    if m.cols() != n {
        return false;
    }
    let unit_columns = (0..n).all(|c| {
        let mut norm = 0.0;
        for r in 0..n {
            let a = m[(r, c)];
            if a != 0.0 {
                norm += a * a;
            }
        }
        (norm - 1.0_f64).abs() <= TOL
    });
    unit_columns && m.transpose().matmul(m).approx_eq(&RMat::identity(n), TOL)
}

/// Everything task generation reads of one [`MvmJob`]: its dimensions,
/// vector count and addresses, but no data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobShape {
    /// Job id, unique within a benchmark.
    pub id: usize,
    /// Dependency wave (0 first).
    pub wave: usize,
    /// Rows of the stationary matrix.
    pub rows: usize,
    /// Columns of the stationary matrix (the input vector length).
    pub cols: usize,
    /// Number of input vectors.
    pub vectors: usize,
    /// Base byte address of the weights (8-bit elements).
    pub weight_base: u64,
    /// Base byte address of the inputs (8-bit elements).
    pub input_base: u64,
    /// Base byte address of the outputs (32-bit accumulators).
    pub output_base: u64,
    /// Whether the matrix is square and orthogonal (`MᵀM = I` to 1e-9),
    /// which lets it run on a unitary partition without Σ attenuation.
    pub orthogonal: bool,
}

impl JobShape {
    /// `(block_rows, block_cols)` when lowered onto an `n`-input fabric
    /// partition (paper Eq. 2).
    pub fn block_grid(&self, n: usize) -> (usize, usize) {
        (self.rows.div_ceil(n), self.cols.div_ceil(n))
    }

    /// Total `n×n` block MVMs needed for all vectors.
    pub fn block_mvms(&self, n: usize) -> u64 {
        let (br, bc) = self.block_grid(n);
        (br * bc * self.vectors) as u64
    }

    /// Partial-sum additions the cores must perform (paper §3.3.1):
    /// accumulating `block_cols` partial vectors per output row-strip.
    pub fn partial_sum_adds(&self, n: usize) -> u64 {
        let (br, bc) = self.block_grid(n);
        if bc <= 1 {
            return 0;
        }
        (br * n * (bc - 1) * self.vectors) as u64
    }

    /// Attaches data to this shape.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` or the vector count does not match the shape
    /// (and, in debug builds, if the matrix's orthogonality does not).
    pub fn with_data(&self, matrix: RMat, vectors: Vec<Vec<f64>>) -> MvmJob {
        assert_eq!(
            (matrix.rows(), matrix.cols(), vectors.len()),
            (self.rows, self.cols, self.vectors),
            "data does not fit job {}",
            self.id
        );
        debug_assert_eq!(is_orthogonal(&matrix), self.orthogonal, "job {}", self.id);
        MvmJob {
            id: self.id,
            wave: self.wave,
            matrix,
            vectors,
            weight_base: self.weight_base,
            input_base: self.input_base,
            output_base: self.output_base,
        }
    }
}

/// A benchmark reduced to what the cycle simulator reads: its name, the
/// core-side epilogue and one [`JobShape`] per job. Full-system results
/// depend only on these, so a plan runs without any tensor data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadPlan {
    /// Display name (the benchmark's [`Benchmark::name`]).
    pub name: &'static str,
    /// Core-side epilogue operations (the benchmark's
    /// [`Benchmark::epilogue_ops`]).
    pub epilogue_ops: u64,
    /// The jobs, in benchmark order.
    pub jobs: Vec<JobShape>,
}

/// A benchmark: named work that decomposes into MVM jobs plus some
/// core-side epilogue (bias, activation, entropy coding, …).
pub trait Benchmark {
    /// Display name.
    fn name(&self) -> &'static str;
    /// The offloadable jobs.
    fn jobs(&self) -> &[MvmJob];
    /// Core-side epilogue operations not expressible as MVMs.
    fn epilogue_ops(&self) -> u64 {
        0
    }
    /// Total MACs across jobs.
    fn total_macs(&self) -> u64 {
        self.jobs().iter().map(MvmJob::macs).sum()
    }
    /// The data-free plan, derived from [`jobs`](Self::jobs).
    fn plan(&self) -> WorkloadPlan {
        WorkloadPlan {
            name: self.name(),
            epilogue_ops: self.epilogue_ops(),
            jobs: self.jobs().iter().map(MvmJob::shape).collect(),
        }
    }
    /// Checks that per-job results assemble into the application's golden
    /// output within `tol` (absolute, on the benchmark's natural scale).
    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool;
}

/// Reference check helper: compares job results against each job's exact
/// product.
pub fn results_match_golden(jobs: &[MvmJob], results: &[Vec<Vec<f64>>], tol: f64) -> bool {
    if jobs.len() != results.len() {
        return false;
    }
    jobs.iter().zip(results.iter()).all(|(job, res)| {
        let gold = job.golden();
        gold.len() == res.len()
            && gold.iter().zip(res.iter()).all(|(g, r)| {
                g.len() == r.len() && g.iter().zip(r.iter()).all(|(a, b)| (a - b).abs() <= tol)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> MvmJob {
        MvmJob {
            id: 0,
            wave: 0,
            matrix: RMat::from_fn(3, 5, |r, c| (r + c) as f64),
            vectors: vec![vec![1.0; 5], vec![0.5; 5]],
            weight_base: 0,
            input_base: 0x1000,
            output_base: 0x2000,
        }
    }

    #[test]
    fn macs_count() {
        assert_eq!(job().macs(), 3 * 5 * 2);
    }

    #[test]
    fn block_grid_and_mvms() {
        let j = job().shape();
        assert_eq!(j.block_grid(4), (1, 2));
        assert_eq!(j.block_mvms(4), 4);
        // One row-strip, two column blocks → 1 partial add per output row
        // element per vector: 1 × 4 × 1 × 2 vectors.
        assert_eq!(j.partial_sum_adds(4), 8);
    }

    #[test]
    fn no_partials_when_single_block_column() {
        let j = MvmJob {
            matrix: RMat::identity(4),
            vectors: vec![vec![1.0; 4]],
            ..job()
        };
        assert_eq!(j.shape().partial_sum_adds(4), 0);
    }

    #[test]
    fn shape_mirrors_the_job() {
        let j = job();
        let s = j.shape();
        assert_eq!((s.rows, s.cols, s.vectors), (3, 5, 2));
        assert_eq!(
            (s.weight_base, s.input_base, s.output_base),
            (0, 0x1000, 0x2000)
        );
        assert!(!s.orthogonal);
        let back = s.with_data(j.matrix.clone(), j.vectors.clone());
        assert_eq!(back.shape(), s);
    }

    #[test]
    #[should_panic(expected = "data does not fit job 0")]
    fn with_data_rejects_a_misfit() {
        job()
            .shape()
            .with_data(RMat::identity(3), vec![vec![1.0; 3]]);
    }

    /// The full `MᵀM = I` test, without the column-norm prefilter.
    fn full_product_test(m: &RMat) -> bool {
        m.rows() == m.cols()
            && m.transpose()
                .matmul(m)
                .approx_eq(&RMat::identity(m.rows()), 1e-9)
    }

    #[test]
    fn orthogonality_prefilter_agrees_with_the_full_product() {
        let (s, c) = 0.6f64.sin_cos();
        let rotation = RMat::from_rows(2, 2, vec![c, -s, s, c]).unwrap();
        // Unit columns that are not orthogonal pass the prefilter and fail
        // the product.
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let skew = RMat::from_rows(2, 2, vec![1.0, h, 0.0, h]).unwrap();
        let mut signed_zero = RMat::identity(3);
        signed_zero[(0, 1)] = -0.0;
        let mut nan = RMat::identity(3);
        nan[(2, 0)] = f64::NAN;
        let mut off_by_tol = RMat::identity(2);
        off_by_tol[(0, 0)] = (1.0f64 + 2e-9).sqrt();
        let cases = [
            (RMat::identity(5), true),
            (rotation, true),
            (crate::jpeg::dct8_matrix(), true),
            (signed_zero, true),
            (skew, false),
            (nan, false),
            (off_by_tol, false),
            (RMat::zeros(4, 4), false),
            (RMat::identity(1).scale(-1.0), true),
            (RMat::from_fn(3, 4, |r, c| (r == c) as u8 as f64), false),
        ];
        for (m, want) in cases {
            assert_eq!(is_orthogonal(&m), want, "{m:?}");
            assert_eq!(full_product_test(&m), want, "{m:?}");
        }
    }

    #[test]
    fn golden_matches_manual() {
        let j = job();
        let g = j.golden();
        assert_eq!(g[0], j.matrix.mul_vec(&[1.0; 5]));
    }

    #[test]
    fn results_checker() {
        let j = job();
        let good = vec![j.golden()];
        assert!(results_match_golden(std::slice::from_ref(&j), &good, 1e-12));
        let mut bad = good.clone();
        bad[0][0][0] += 1.0;
        assert!(!results_match_golden(std::slice::from_ref(&j), &bad, 1e-12));
    }
}
