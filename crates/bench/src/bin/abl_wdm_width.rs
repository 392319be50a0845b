//! Ablation — WDM width for computation: how many wavelengths the compute
//! path uses (Table 1 fixes 8; this sweeps 1…8 and reports Flumen-A
//! runtime, photonic energy and speedup on ResNet50 Conv3).

use flumen::{run_benchmark_plan, ControlUnitParams, RuntimeConfig, SystemTopology};
use flumen_bench::{quick_mode, speedup, write_csv, Table};
use flumen_power::compute;
use flumen_trace::TraceHandle;
use flumen_workloads::ResnetConv3;

fn main() {
    let plan = if quick_mode() {
        ResnetConv3::plan(8, 8, 4)
    } else {
        ResnetConv3::plan(56, 56, 64)
    };
    let mesh = run_benchmark_plan(
        &plan,
        SystemTopology::Mesh,
        &RuntimeConfig::paper(),
        &TraceHandle::disabled(),
        None,
    );

    println!(
        "WDM compute width on {} (mesh baseline: {} cycles)",
        plan.name, mesh.cycles
    );
    let mut table = Table::new(&["lambdas", "fa_cycles", "speedup", "pj_per_mac_model"]);
    let mut rows = Vec::new();
    for lambdas in [1usize, 2, 4, 8] {
        let mut cfg = RuntimeConfig::paper();
        cfg.control = ControlUnitParams {
            compute_lambdas: lambdas,
            ..ControlUnitParams::paper()
        };
        cfg.max_cycles = 400_000_000;
        let fa = run_benchmark_plan(
            &plan,
            SystemTopology::FlumenA,
            &cfg,
            &TraceHandle::disabled(),
            None,
        );
        let s = speedup(mesh.cycles, fa.cycles);
        let pj = compute::flumen_mac_pj(4, lambdas);
        table.row(vec![
            lambdas.to_string(),
            fa.cycles.to_string(),
            format!("{s:.2}x"),
            format!("{pj:.4}"),
        ]);
        rows.push(vec![
            lambdas.to_string(),
            fa.cycles.to_string(),
            format!("{s:.4}"),
            format!("{pj:.5}"),
        ]);
    }
    table.print();
    write_csv(
        "abl_wdm_width.csv",
        &["lambdas", "fa_cycles", "speedup_vs_mesh", "pj_per_mac"],
        &rows,
    );
    println!("\n  more compute wavelengths = more parallel MVMs per pass: both the");
    println!("  streaming time and the per-MAC energy fall (Fig. 12c's mechanism).");
}
