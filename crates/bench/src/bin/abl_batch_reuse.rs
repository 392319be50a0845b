//! Extension study — batched FC inference.
//!
//! The paper attributes VGG16-FC's low speedup to batch-1 inference: each
//! weight block is configured once and used for a single vector. Batching
//! restores operand reuse, amortizing block configuration over the batch —
//! this study quantifies how quickly Flumen-A's advantage recovers.

use flumen::{run_benchmark_plan, RuntimeConfig, SystemTopology};
use flumen_bench::{quick_mode, speedup, write_csv, Table};
use flumen_trace::TraceHandle;
use flumen_workloads::Vgg16Fc;

fn main() {
    let (out_dim, in_dim) = if quick_mode() {
        (64, 256)
    } else {
        (1000, 4096)
    };
    println!("batched VGG16-FC ({out_dim}×{in_dim}): Flumen-A speedup vs mesh");
    let mut table = Table::new(&["batch", "mesh_cycles", "fa_cycles", "speedup", "energyX"]);
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 8] {
        let plan = Vgg16Fc::plan(out_dim, in_dim, batch);
        let mut cfg = RuntimeConfig::paper();
        cfg.max_cycles = 400_000_000;
        let mesh = run_benchmark_plan(
            &plan,
            SystemTopology::Mesh,
            &cfg,
            &TraceHandle::disabled(),
            None,
        );
        let fa = run_benchmark_plan(
            &plan,
            SystemTopology::FlumenA,
            &cfg,
            &TraceHandle::disabled(),
            None,
        );
        let s = speedup(mesh.cycles, fa.cycles);
        let e = mesh.total_energy_j() / fa.total_energy_j();
        table.row(vec![
            batch.to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.2}x"),
            format!("{e:.2}x"),
        ]);
        rows.push(vec![
            batch.to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.4}"),
            format!("{e:.4}"),
        ]);
    }
    table.print();
    write_csv(
        "abl_batch_reuse.csv",
        &[
            "batch",
            "mesh_cycles",
            "fa_cycles",
            "speedup",
            "energy_ratio",
        ],
        &rows,
    );
    println!("\n  batch 1 is the paper's weakest case; reuse scales the win with batch");
    println!("  size until the cores' partial-sum accumulation becomes the bottleneck.");
}
