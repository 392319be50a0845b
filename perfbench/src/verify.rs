//! `photonic_verify`: the correctness path. `PhotonicExecutor::ideal`
//! runs every paper-size benchmark unsampled through programmed SVD-MZIM
//! blocks and `Benchmark::verify` checks the outputs at 1e-7. It is the
//! only workload that calls `linalg` block decomposition and the
//! `photonics` circuits: the grid's control unit uses an analytic
//! service cost instead.

use crate::digests;
use crate::probe::Tally;
use crate::report::{median, Layers, Outcome};
use crate::{guarded, shuffled, timed_loop, RunSpec};
use flumen::PhotonicExecutor;
use flumen_linalg::BlockMatrix;
use flumen_photonics::SvdCircuit;
use flumen_sweep::{BenchSize, BenchSpec};
use flumen_workloads::{Benchmark, MvmJob};
use std::time::Instant;

/// Tolerance `Benchmark::verify` is checked at.
pub const TOLERANCE: f64 = 1e-7;

/// Per-job outputs of one benchmark.
type Outputs = Vec<Vec<Vec<f64>>>;

/// Partition width for a benchmark: the full 8-wide fabric for the JPEG
/// DCT, 4-wide SVD partitions otherwise.
fn width(bench: &dyn Benchmark) -> usize {
    if bench.name() == "jpeg" {
        8
    } else {
        4
    }
}

/// The paper-size benchmarks, instantiated, in seed order.
fn instantiate(seed: u64, tally: &Tally) -> Vec<Box<dyn Benchmark>> {
    shuffled(BenchSpec::all(BenchSize::Paper), seed)
        .iter()
        .map(|b| tally.time(|| b.instantiate()))
        .collect()
}

/// Counts one benchmark run: it passed `verify` (`verified`) and its
/// output bits match the recorded digest.
fn check(out: &mut Outcome, name: &str, outputs: Option<&Outputs>, verified: bool) {
    if !verified {
        println!("  {name} failed to run or to verify at {TOLERANCE:e}");
    }
    let recorded = outputs.is_some_and(|o| {
        digests::matches(
            digests::VERIFY,
            name,
            &digests::of_bits(o.iter().flatten().flatten()),
        )
    });
    out.check(verified && recorded);
}

/// Runs `PhotonicExecutor::run_benchmark` and `verify` on each benchmark;
/// returns the seconds spent in them.
fn untraced_pass(benches: &[Box<dyn Benchmark>], out: &mut Outcome) -> f64 {
    let mut wall = 0.0;
    for bench in benches {
        let exec = PhotonicExecutor::ideal(width(bench.as_ref()));
        let t = Instant::now();
        let outputs = guarded(|| exec.run_benchmark(bench.as_ref(), None).ok()).flatten();
        let verified = outputs.as_ref().is_some_and(|o| bench.verify(o, TOLERANCE));
        wall += t.elapsed().as_secs_f64();
        check(out, bench.name(), outputs.as_ref(), verified);
    }
    wall
}

/// The untraced run: repeated passes, medians reported.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let unused = Tally::default();
    let times = timed_loop(
        spec.seconds,
        || instantiate(spec.seed, &unused),
        |benches| untraced_pass(&benches, &mut out),
    );
    times.print();
    out.end_to_end = vec![
        ("wall_s", median(&times.passes)),
        ("setup_s", median(&times.setups)),
    ];
    out
}

/// Host time of the traced path's layers.
#[derive(Debug, Default)]
struct Tallies {
    decompose: Tally,
    program: Tally,
    apply: Tally,
    verify: Tally,
}

/// `PhotonicExecutor::run_job` for the ideal model, replayed from
/// outside with each layer call timed.
fn traced_job(job: &MvmJob, n: usize, t: &Tallies) -> Vec<Vec<f64>> {
    let exec = PhotonicExecutor::ideal(n);
    let blocks = t.decompose.time(|| BlockMatrix::decompose(&job.matrix, n));
    let (br, bc) = (blocks.block_rows(), blocks.block_cols());
    let mut circuits = Vec::with_capacity(br * bc);
    for i in 0..br {
        for j in 0..bc {
            let block = blocks.block(i, j);
            let c = t
                .program
                .time(|| SvdCircuit::program_with_store(block, None))
                .expect("block programs");
            circuits.push(c);
        }
    }
    job.vectors
        .iter()
        .enumerate()
        .map(|(vi, vector)| {
            blocks.mul_vec_via_blocks(vector, |i, j, _, chunk| {
                let seed = (vi * br * bc + i * bc + j) as u64;
                t.apply
                    .time(|| circuits[i * bc + j].apply_with_model(chunk, &exec.model, seed))
            })
        })
        .collect()
}

/// The traced run: per benchmark, the untraced executor and the traced
/// replay, whose outputs must be bit-identical.
pub fn run_traced(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let instantiate_tally = Tally::default();
    let benches = instantiate(spec.seed, &instantiate_tally);
    let t = Tallies::default();
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for bench in &benches {
        let n = width(bench.as_ref());
        let start = Instant::now();
        let plain = guarded(|| {
            PhotonicExecutor::ideal(n)
                .run_benchmark(bench.as_ref(), None)
                .expect("benchmark programs")
        });
        let plain_ok = plain.as_ref().is_some_and(|o| bench.verify(o, TOLERANCE));
        plain_wall += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let traced: Option<Outputs> = guarded(|| {
            bench
                .jobs()
                .iter()
                .map(|job| traced_job(job, n, &t))
                .collect()
        });
        let traced_ok = traced
            .as_ref()
            .is_some_and(|o| t.verify.time(|| bench.verify(o, TOLERANCE)));
        traced_wall += start.elapsed().as_secs_f64();

        let bits = |o: &Option<Outputs>| {
            o.as_ref()
                .map(|o| digests::of_bits(o.iter().flatten().flatten()))
        };
        let same = bits(&plain) == bits(&traced);
        if !same {
            println!(
                "  traced replay of {} differs from run_benchmark",
                bench.name()
            );
        }
        check(
            &mut out,
            bench.name(),
            plain.as_ref(),
            plain_ok && traced_ok && same,
        );
    }
    layers.set("workloads.instantiate_s", instantiate_tally.secs());
    layers.set("workloads.verify_s", t.verify.secs());
    layers.set("linalg.block_decompose_s", t.decompose.secs());
    layers.set("photonics.program_s", t.program.secs());
    layers.set("photonics.programs", t.program.calls() as f64);
    layers.set("photonics.program_us", t.program.mean_ns() * 1e-3);
    layers.set("photonics.apply_s", t.apply.secs());
    layers.set("photonics.applies", t.apply.calls() as f64);
    layers.set("photonics.apply_ns", t.apply.mean_ns());
    layers.set(
        "bench.trace_overhead_frac",
        (traced_wall - plain_wall) / plain_wall,
    );
    out.layers = Some(layers);
    out
}
