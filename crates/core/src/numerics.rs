//! Numerical execution of benchmark jobs on the photonic circuit model.
//!
//! The system simulator models offload *timing and energy*; this module
//! closes the loop on *correctness*: it lowers each [`MvmJob`] onto `N×N`
//! SVD-MZIM blocks (paper Eqs. 2–3), runs the actual E-field simulation
//! per block, accumulates partial sums like the cores would, and hands
//! back results that can be checked against each benchmark's golden
//! output — ideally exact, and within a few LSBs under the 8-bit analog
//! model.
//!
//! The work is split into tiles — one block row of one job over at most
//! `TILE_VECTORS` vectors — spread over the [`par_map_with`] worker
//! pool. A tile programs each block of its row in turn on its worker's
//! one circuit, streams its vectors through it, and accumulates the
//! partials; nothing outlives the tile. Results are bit-identical to the
//! circuit-major reference (program every block, then
//! `BlockMatrix::mul_vec_via_blocks` per vector) for any worker count:
//! each (vector, block row) partial starts from `0.0` and adds blocks in
//! ascending column order, and each block product draws readout seed
//! `vi·br·bc + i·bc + j` (DESIGN.md §13).

use flumen_linalg::RMat;
use flumen_photonics::{AnalogModel, PhotonicsError, ProgramStore, SvdCircuit, SvdScratch};
use flumen_sim::par_map_with;
use flumen_workloads::{Benchmark, MvmJob};
use std::ops::Range;

/// Most vectors one tile streams through its block row. Big enough that
/// programming a row's blocks costs little next to the applies, small
/// enough that a propagation-bound job still splits into many tiles.
const TILE_VECTORS: usize = 1024;

/// Executes jobs on programmed SVD-MZIM blocks.
#[derive(Debug, Clone)]
pub struct PhotonicExecutor {
    /// Partition width `N` (4 for SVD partitions, 8 for full-fabric
    /// unitary jobs).
    pub n: usize,
    /// Analog precision model.
    pub model: AnalogModel,
    /// Optional shared program library: block decompositions are served
    /// from / written through to the store. Store entries replay
    /// bit-identically to cold decomposition, so attaching a store never
    /// changes job results — only host-side programming time.
    pub store: Option<ProgramStore>,
}

impl PhotonicExecutor {
    /// An executor with ideal analog behaviour.
    pub fn ideal(n: usize) -> Self {
        PhotonicExecutor {
            n,
            model: AnalogModel::ideal(),
            store: None,
        }
    }

    /// An executor at the paper's 8-bit operating point.
    pub fn eight_bit(n: usize) -> Self {
        PhotonicExecutor {
            n,
            model: AnalogModel::eight_bit(),
            store: None,
        }
    }

    /// Attaches a shared on-disk program library (builder style).
    pub fn with_store(mut self, store: ProgramStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs one job: programs a circuit per matrix sub-block, streams
    /// every vector through the block grid, and accumulates partials.
    ///
    /// `max_vectors` caps the number of vectors executed (photonic
    /// simulation of every receptive field of a full-size benchmark is
    /// exact but slow; sampling suffices for accuracy checks). `None`
    /// runs all.
    ///
    /// # Errors
    ///
    /// Propagates circuit programming failures.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the matrix's column count.
    pub fn run_job(
        &self,
        job: &MvmJob,
        max_vectors: Option<usize>,
    ) -> Result<Vec<Vec<f64>>, PhotonicsError> {
        let mut out = self.run_jobs(
            std::slice::from_ref(job),
            max_vectors,
            default_workers(),
            TILE_VECTORS,
        )?;
        Ok(out.pop().expect("one job in, one result out"))
    }

    /// Runs every job of a benchmark (optionally vector-sampled) and
    /// returns per-job results suitable for `Benchmark::verify` when run
    /// unsampled.
    ///
    /// # Errors
    ///
    /// Propagates circuit programming failures.
    pub fn run_benchmark(
        &self,
        bench: &dyn Benchmark,
        max_vectors: Option<usize>,
    ) -> Result<Vec<Vec<Vec<f64>>>, PhotonicsError> {
        self.run_jobs(bench.jobs(), max_vectors, default_workers(), TILE_VECTORS)
    }

    /// Runs `jobs` as tiles of at most `tile_vectors` vectors on `workers`
    /// threads. The result does not depend on either number. On failure
    /// it returns the error of the first failing block in job, block-row,
    /// block-column order, which is the one the reference loop meets
    /// first.
    pub(crate) fn run_jobs(
        &self,
        jobs: &[MvmJob],
        max_vectors: Option<usize>,
        workers: usize,
        tile_vectors: usize,
    ) -> Result<Vec<Vec<Vec<f64>>>, PhotonicsError> {
        let n = self.n;
        let mut tiles = Vec::new();
        let mut out = Vec::with_capacity(jobs.len());
        for (job, spec) in jobs.iter().enumerate() {
            let limit = max_vectors
                .unwrap_or(spec.vectors.len())
                .min(spec.vectors.len());
            for x in &spec.vectors[..limit] {
                assert_eq!(x.len(), spec.matrix.cols(), "input vector length mismatch");
            }
            for row in 0..spec.matrix.rows().div_ceil(n) {
                // An empty job still gets a tile per block row: it programs
                // its blocks, as the reference does, and fails on the same
                // block.
                for start in (0..limit.max(1)).step_by(tile_vectors) {
                    tiles.push(Tile {
                        job,
                        row,
                        vectors: start..(start + tile_vectors).min(limit),
                    });
                }
            }
            out.push(
                (0..limit)
                    .map(|_| Vec::with_capacity(spec.matrix.rows()))
                    .collect::<Vec<_>>(),
            );
        }
        let outcomes = par_map_with(
            &tiles,
            workers,
            |_| Worker::new(n),
            |worker, tile| self.run_tile(&jobs[tile.job], tile, worker),
        );
        for (tile, outcome) in tiles.iter().zip(outcomes) {
            let partials = match outcome {
                Ok(partials) => partials?,
                Err(panic) => panic!("photonic executor tile panicked: {panic}"),
            };
            // The rows of this block row inside the unpadded matrix.
            let keep = jobs[tile.job].matrix.rows().min((tile.row + 1) * n) - tile.row * n;
            let results = &mut out[tile.job][tile.vectors.clone()];
            for (y, partial) in results.iter_mut().zip(partials.chunks_exact(n)) {
                y.extend_from_slice(&partial[..keep]);
            }
        }
        Ok(out)
    }

    /// Runs one tile: for each block column `j` in ascending order,
    /// programs block `(tile.row, j)` and adds its product with every
    /// vector's chunk `j` to that vector's partial. Returns the partials,
    /// `n` per vector.
    fn run_tile(
        &self,
        job: &MvmJob,
        tile: &Tile,
        w: &mut Worker,
    ) -> Result<Vec<f64>, PhotonicsError> {
        let n = self.n;
        let (br, bc) = (job.matrix.rows().div_ceil(n), job.matrix.cols().div_ceil(n));
        let mut partials = vec![0.0; tile.vectors.len() * n];
        for j in 0..bc {
            fill_block(&job.matrix, n, tile.row, j, &mut w.block);
            w.circuit
                .reprogram_with_store(&w.block, self.store.as_ref(), &mut w.scratch)?;
            if !self.model.is_ideal() {
                w.circuit.quantize_phases(&self.model);
            }
            for (vi, partial) in tile.vectors.clone().zip(partials.chunks_exact_mut(n)) {
                let x = &job.vectors[vi];
                let cols = j * n..((j + 1) * n).min(x.len());
                let chunk = if cols.len() == n {
                    &x[cols]
                } else {
                    // The zero-padded last chunk.
                    w.chunk.clear();
                    w.chunk.extend_from_slice(&x[cols]);
                    w.chunk.resize(n, 0.0);
                    &w.chunk
                };
                let seed = (vi * br * bc + tile.row * bc + j) as u64;
                w.circuit
                    .apply_into(chunk, &self.model, seed, &mut w.scratch, &mut w.out);
                for (acc, p) in partial.iter_mut().zip(&w.out) {
                    *acc += p;
                }
            }
        }
        Ok(partials)
    }
}

/// One unit of executor work: block row `row` of job `job` over the
/// vectors `vectors`.
struct Tile {
    job: usize,
    row: usize,
    vectors: Range<usize>,
}

/// A pool worker's reusable state: one circuit, reprogrammed per block,
/// and the buffers that keep the block loop off the heap. (With glibc's
/// allocator capped at one arena, per-block allocations would serialize
/// the workers on its lock.)
struct Worker {
    circuit: SvdCircuit,
    scratch: SvdScratch,
    block: RMat,
    chunk: Vec<f64>,
    out: Vec<f64>,
}

impl Worker {
    fn new(n: usize) -> Self {
        Worker {
            // A circuit of another width is rebuilt on first use; an
            // invalid width then fails there, like the reference.
            circuit: SvdCircuit::new(n.max(2)),
            scratch: SvdScratch::new(),
            block: RMat::zeros(n.max(1), n.max(1)),
            chunk: Vec::with_capacity(n),
            out: vec![0.0; n],
        }
    }
}

/// Copies block `(i, j)` of `m`, zero-padded to `n×n`, into `block`: the
/// same values as `BlockMatrix::decompose(m, n).block(i, j)`.
fn fill_block(m: &RMat, n: usize, i: usize, j: usize, block: &mut RMat) {
    block.reshape_zeroed(n, n);
    for r in 0..n.min(m.rows() - i * n) {
        let row = &m.row(i * n + r)[j * n..((j + 1) * n).min(m.cols())];
        block.as_mut_slice()[r * n..r * n + row.len()].copy_from_slice(row);
    }
}

/// Worker threads for the executor: the host's available parallelism, as
/// the sweep defaults to.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_linalg::BlockMatrix;
    use flumen_workloads::{small_benchmarks, Jpeg, Rotation3d};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The circuit-major reference loop (the one perfbench's traced
    /// replay times): program every block, then stream each vector
    /// through `BlockMatrix::mul_vec_via_blocks` with `apply_with_model`.
    fn reference(
        exec: &PhotonicExecutor,
        job: &MvmJob,
        max_vectors: Option<usize>,
    ) -> Vec<Vec<f64>> {
        let blocks = BlockMatrix::decompose(&job.matrix, exec.n);
        let (br, bc) = (blocks.block_rows(), blocks.block_cols());
        let mut circuits = Vec::new();
        for i in 0..br {
            for j in 0..bc {
                let mut c = SvdCircuit::program_with_store(blocks.block(i, j), None).unwrap();
                if !exec.model.is_ideal() {
                    c.quantize_phases(&exec.model);
                }
                circuits.push(c);
            }
        }
        let limit = max_vectors.unwrap_or(usize::MAX).min(job.vectors.len());
        job.vectors[..limit]
            .iter()
            .enumerate()
            .map(|(vi, x)| {
                blocks.mul_vec_via_blocks(x, |i, j, _, chunk| {
                    let seed = (vi * br * bc + i * bc + j) as u64;
                    circuits[i * bc + j].apply_with_model(chunk, &exec.model, seed)
                })
            })
            .collect()
    }

    /// A `rows×cols` job with `count` vectors. Its top-left `n×n` block is
    /// all zero, and some inputs are `-0.0` (one vector entirely).
    fn job(rows: usize, cols: usize, count: usize, n: usize, seed: u64) -> MvmJob {
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = RMat::from_fn(rows, cols, |r, c| {
            if r < n && c < n {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        });
        let vectors = (0..count)
            .map(|v| {
                (0..cols)
                    .map(|_| match (v, rng.gen_range(0..4)) {
                        (1, _) | (_, 0) => -0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
            .collect();
        MvmJob {
            id: 0,
            wave: 0,
            matrix,
            vectors,
            weight_base: 0,
            input_base: 0,
            output_base: 0,
        }
    }

    fn bits(out: &[Vec<f64>]) -> Vec<Vec<u64>> {
        out.iter()
            .map(|y| y.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn tiles_match_the_circuit_major_reference_bit_for_bit() {
        let jobs = [
            job(9, 11, 10, 4, 1),
            job(5, 6, 7, 4, 2),
            job(8, 8, 4, 4, 3),
            job(3, 10, 0, 4, 4),
            job(10, 13, 9, 8, 5),
        ];
        for model in [AnalogModel::ideal(), AnalogModel::eight_bit()] {
            for spec in &jobs {
                let n = if spec.matrix.rows() == 10 { 8 } else { 4 };
                let exec = PhotonicExecutor {
                    n,
                    model: model.clone(),
                    store: None,
                };
                for max_vectors in [None, Some(0), Some(5), Some(100)] {
                    let want = bits(&reference(&exec, spec, max_vectors));
                    for workers in [1, 2, 3] {
                        for tile in [1, 3, 4, TILE_VECTORS] {
                            let got = exec
                                .run_jobs(std::slice::from_ref(spec), max_vectors, workers, tile)
                                .unwrap();
                            assert_eq!(
                                bits(&got[0]),
                                want,
                                "{}x{} n={n} {max_vectors:?} workers={workers} tile={tile} \
                                 ideal={}",
                                spec.matrix.rows(),
                                spec.matrix.cols(),
                                model.is_ideal()
                            );
                        }
                    }
                }
            }
            // Several jobs in one run share the pool and keep job order.
            let exec = PhotonicExecutor {
                n: 4,
                model: model.clone(),
                store: None,
            };
            let both = exec.run_jobs(&jobs[..3], None, 3, 2).unwrap();
            for (spec, got) in jobs.iter().zip(&both) {
                assert_eq!(bits(got), bits(&reference(&exec, spec, None)));
            }
        }
    }

    #[test]
    fn programming_failures_surface_as_errors() {
        // A 1-wide executor cannot program its 1×1 blocks, with or without
        // vectors to run.
        let exec = PhotonicExecutor::ideal(1);
        for count in [0, 3] {
            let spec = job(3, 3, count, 1, 9);
            for workers in [1, 2] {
                assert!(matches!(
                    exec.run_jobs(std::slice::from_ref(&spec), None, workers, 2),
                    Err(PhotonicsError::InvalidSize { .. })
                ));
            }
        }
    }

    #[test]
    fn ideal_executor_reproduces_every_small_benchmark() {
        for bench in small_benchmarks() {
            let n = if bench.name() == "jpeg" { 8 } else { 4 };
            let exec = PhotonicExecutor::ideal(n);
            let results = exec.run_benchmark(bench.as_ref(), None).unwrap();
            assert!(bench.verify(&results, 1e-7), "{} diverged", bench.name());
        }
    }

    #[test]
    fn eight_bit_rotation_within_lsbs() {
        let bench = Rotation3d::small();
        let exec = PhotonicExecutor::eight_bit(4);
        let results = exec.run_benchmark(&bench, None).unwrap();
        // 8-bit analog: a few percent of full scale.
        assert!(
            bench.verify(&results, 0.1),
            "8-bit rotation error too large"
        );
        // But not exact — the analog model must actually perturb values.
        assert!(!bench.verify(&results, 1e-12));
    }

    #[test]
    fn jpeg_uses_full_fabric_exactly() {
        let bench = Jpeg::small();
        let exec = PhotonicExecutor::ideal(8);
        let results = exec.run_benchmark(&bench, None).unwrap();
        assert!(bench.verify(&results, 1e-7));
    }

    #[test]
    fn store_backed_executor_is_bit_identical_and_fleet_warm() {
        let dir = std::env::temp_dir().join(format!("flumen-exec-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProgramStore::open(&dir).unwrap();
        let bench = Rotation3d::small();
        let plain = PhotonicExecutor::ideal(4);
        let baseline = plain.run_benchmark(&bench, Some(4)).unwrap();

        // Cold store: results identical, entries written through.
        let cold = PhotonicExecutor::ideal(4).with_store(store.clone());
        assert_eq!(cold.run_benchmark(&bench, Some(4)).unwrap(), baseline);
        assert!(store.stats().writes > 0);

        // A second "replica" sharing the store never decomposes.
        let warm = PhotonicExecutor::ideal(4).with_store(store.clone());
        let writes_before = store.stats().writes;
        assert_eq!(warm.run_benchmark(&bench, Some(4)).unwrap(), baseline);
        assert!(store.stats().hits > 0, "fleet-warm replica hits the store");
        assert_eq!(store.stats().writes, writes_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vector_sampling_caps_work() {
        let bench = Rotation3d::small();
        let exec = PhotonicExecutor::ideal(4);
        let results = exec.run_job(&bench.jobs()[0], Some(5)).unwrap();
        assert_eq!(results.len(), 5);
        let gold = bench.jobs()[0].golden();
        for (r, g) in results.iter().zip(gold.iter()) {
            for (a, b) in r.iter().zip(g.iter()) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
