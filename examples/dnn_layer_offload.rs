//! DNN layer offload: lower a quantized fully-connected layer onto SVD
//! MZIM blocks (spectral-norm scaling → zero padding → N×N block matmul,
//! paper §3.3) and compare the photonic result — ideal and 8-bit analog —
//! against the exact layer output. Then run the full VGG16-FC benchmark
//! through the system simulator on every topology.
//!
//! Run with: `cargo run --release --example dnn_layer_offload`

use flumen::{run_benchmark, PhotonicExecutor, RuntimeConfig, SystemTopology};
use flumen_linalg::{spectral_norm, BlockMatrix};
use flumen_workloads::{Benchmark, Vgg16Fc};

fn main() {
    // A reduced FC layer for the explicit E-field walk-through.
    let layer = Vgg16Fc::with_size(24, 64, 0xF0C);
    let job = &layer.jobs()[0];
    let shape = job.shape();
    println!(
        "FC layer {}×{}: ‖W‖₂ = {:.3}, blocked into {:?} grid of 4×4 sub-MZIMs",
        job.matrix.rows(),
        job.matrix.cols(),
        spectral_norm(&job.matrix).expect("svd converges"),
        shape.block_grid(4),
    );
    let blocks = BlockMatrix::decompose(&job.matrix, 4);
    println!(
        "  {} block MVMs per input vector, {} partial-sum adds on the cores",
        blocks.mvm_block_ops(),
        shape.partial_sum_adds(4),
    );

    let exact = job.golden();
    for (label, exec) in [
        ("ideal analog", PhotonicExecutor::ideal(4)),
        ("8-bit analog", PhotonicExecutor::eight_bit(4)),
    ] {
        let out = exec.run_job(job, None).expect("photonic run");
        let mut max_err = 0.0f64;
        let mut scale = 0.0f64;
        for (o, g) in out.iter().zip(exact.iter()) {
            for (a, b) in o.iter().zip(g.iter()) {
                max_err = max_err.max((a - b).abs());
                scale = scale.max(b.abs());
            }
        }
        println!(
            "  {label}: max |error| = {max_err:.2e} ({:.3}% of full scale)",
            100.0 * max_err / scale
        );
    }

    // Full-size system runs.
    println!("\nVGG16 FC-1000 (1000×4096) across topologies:");
    let bench = Vgg16Fc::paper();
    let cfg = RuntimeConfig::paper();
    let mut mesh_cycles = 0u64;
    for topo in SystemTopology::all() {
        let r = run_benchmark(&bench, topo, &cfg);
        if topo == SystemTopology::Mesh {
            mesh_cycles = r.cycles;
        }
        let speedup = if mesh_cycles > 0 {
            mesh_cycles as f64 / r.cycles as f64
        } else {
            0.0
        };
        println!(
            "  {:9} {:>9} cycles ({:>7.1} µs)  {:>8.1} µJ   {:>5.2}x vs mesh",
            topo.name(),
            r.cycles,
            r.seconds * 1e6,
            r.total_energy_j() * 1e6,
            speedup,
        );
    }
    println!("\npaper: VGG16 FC is Flumen-A's weakest benchmark (2.0x vs mesh) —");
    println!("a single large kernel with no operand reuse and deep partial sums.");
}
