//! §5.2/E14 ablation — reconfiguration overheads.
//!
//! Two studies:
//! 1. The phase-DAC double-buffering assumption: sweep the fraction of the
//!    6 ns per-block switch that pipelining hides. At 0 the fabric spends
//!    almost all its time settling phases and block-heavy kernels lose;
//!    the paper's reported speedups imply a deeply pipelined control path.
//! 2. The communication impact of compute partitions: average packet
//!    latency on Flumen-A vs Flumen-I (paper: ~9 % increase).

use flumen::{run_benchmark_plan, ControlUnitParams, RuntimeConfig, SystemTopology};
use flumen_bench::{quick_mode, speedup, write_csv, Table};
use flumen_trace::TraceHandle;
use flumen_workloads::{ImageBlur, Vgg16Fc};

fn main() {
    let plans = if quick_mode() {
        vec![Vgg16Fc::plan(10, 32, 1)]
    } else {
        vec![Vgg16Fc::plan(1000, 4096, 1), ImageBlur::plan(256, 256)]
    };

    println!("E14a: sensitivity to phase-DAC pipelining (per-block switch hiding)");
    let mut table = Table::new(&["bench", "pipeline", "fa_cycles", "vs_mesh"]);
    let mut rows = Vec::new();
    for plan in &plans {
        let mesh = run_benchmark_plan(
            plan,
            SystemTopology::Mesh,
            &RuntimeConfig::paper(),
            &TraceHandle::disabled(),
            None,
        );
        for pipeline in [0.0f64, 0.5, 0.9, 0.95, 0.995] {
            let mut cfg = RuntimeConfig::paper();
            cfg.control = ControlUnitParams {
                config_pipeline: pipeline,
                ..ControlUnitParams::paper()
            };
            cfg.max_cycles = 400_000_000;
            let fa = run_benchmark_plan(
                plan,
                SystemTopology::FlumenA,
                &cfg,
                &TraceHandle::disabled(),
                None,
            );
            let s = speedup(mesh.cycles, fa.cycles);
            table.row(vec![
                plan.name.into(),
                format!("{pipeline:.3}"),
                fa.cycles.to_string(),
                format!("{s:.2}x"),
            ]);
            rows.push(vec![
                plan.name.to_string(),
                format!("{pipeline:.3}"),
                fa.cycles.to_string(),
                format!("{s:.4}"),
            ]);
        }
    }
    table.print();
    write_csv(
        "abl_reconfig_pipelining.csv",
        &["bench", "pipeline", "fa_cycles", "speedup_vs_mesh"],
        &rows,
    );

    println!("\nE14b: packet-latency impact of compute partitions (paper: ~9% increase)");
    let mut table2 = Table::new(&["bench", "flumen_i_lat", "flumen_a_lat", "increase"]);
    let mut rows2 = Vec::new();
    for plan in &plans {
        let cfg = RuntimeConfig::paper();
        let fi = run_benchmark_plan(
            plan,
            SystemTopology::FlumenI,
            &cfg,
            &TraceHandle::disabled(),
            None,
        );
        let fa = run_benchmark_plan(
            plan,
            SystemTopology::FlumenA,
            &cfg,
            &TraceHandle::disabled(),
            None,
        );
        let (li, la) = (
            fi.avg_packet_latency().unwrap_or(0.0),
            fa.avg_packet_latency().unwrap_or(0.0),
        );
        let inc = 100.0 * (la - li) / li.max(1e-9);
        table2.row(vec![
            plan.name.into(),
            format!("{li:.1}"),
            format!("{la:.1}"),
            format!("{inc:+.1}%"),
        ]);
        rows2.push(vec![
            plan.name.to_string(),
            format!("{li:.3}"),
            format!("{la:.3}"),
            format!("{inc:.2}"),
        ]);
    }
    table2.print();
    write_csv(
        "abl_partition_latency.csv",
        &[
            "bench",
            "flumen_i_latency",
            "flumen_a_latency",
            "increase_pct",
        ],
        &rows2,
    );
}
