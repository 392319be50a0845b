//! Fig. 1 — link utilization and bandwidth sensitivity of a 16-node
//! photonic network during Image Blur and VGG16-FC execution, at 16, 32
//! and 64 wavelengths.
//!
//! Pass `--trace` to additionally run a small Image Blur offload on
//! Flumen-A with the structured tracer attached and dump the event
//! stream as Chrome-trace JSON (+ JSONL) under the data directory; load
//! the `.trace.json` in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` to see scheduler decisions, packet flights and
//! core offloads on separate tracks.

use flumen::{run_benchmark_plan, run_utilization_trace, RuntimeConfig, SystemTopology};
use flumen_bench::{out_dir, quick_mode, write_csv, Table};
use flumen_trace::RecordingTracer;
use flumen_workloads::{ImageBlur, Vgg16Fc};

/// Runs a small traced Flumen-A benchmark and writes both trace formats.
fn dump_trace(cfg: &RuntimeConfig) {
    let plan = ImageBlur::plan(16, 16);
    let rec = RecordingTracer::new();
    // Sample the system counters too (utilization, cache misses).
    let cfg = RuntimeConfig {
        trace_interval: 100,
        ..cfg.clone()
    };
    let r = run_benchmark_plan(&plan, SystemTopology::FlumenA, &cfg, &rec.handle(), None);
    let events = rec.events();
    let (chrome, jsonl) =
        flumen_sweep::sink::write_trace_files(&out_dir(), "fig01_flumen_a", &events);
    println!(
        "  traced {} on flumen_a: {} cycles, {} events ({} dropped)",
        plan.name,
        r.cycles,
        events.len(),
        rec.dropped()
    );
    println!("  → wrote {} (open in Perfetto)", chrome.display());
    println!("  → wrote {}", jsonl.display());
}

fn main() {
    let cfg = RuntimeConfig::paper();
    if std::env::args().any(|a| a == "--trace") {
        dump_trace(&cfg);
    }
    let plans = if quick_mode() {
        vec![ImageBlur::plan(16, 16), Vgg16Fc::plan(10, 32, 1)]
    } else {
        vec![ImageBlur::plan(256, 256), Vgg16Fc::plan(1000, 4096, 1)]
    };

    println!("Fig. 1: photonic link utilization during execution (16-node network)");
    let mut summary = Table::new(&["bench", "lambdas", "avg_util", "peak_util", "cycles"]);
    let mut trace_rows = Vec::new();
    for plan in &plans {
        for lambdas in [16usize, 32, 64] {
            let r = run_utilization_trace(plan, lambdas, 500, &cfg);
            let avg = if r.utilization_trace.is_empty() {
                0.0
            } else {
                r.utilization_trace.iter().sum::<f64>() / r.utilization_trace.len() as f64
            };
            let peak = r.utilization_trace.iter().fold(0.0f64, |a, &b| a.max(b));
            summary.row(vec![
                plan.name.into(),
                lambdas.to_string(),
                format!("{:.1}%", avg * 100.0),
                format!("{:.1}%", peak * 100.0),
                r.cycles.to_string(),
            ]);
            for (i, u) in r.utilization_trace.iter().enumerate() {
                trace_rows.push(vec![
                    plan.name.to_string(),
                    lambdas.to_string(),
                    (i * 500).to_string(),
                    format!("{u:.5}"),
                ]);
            }
        }
    }
    summary.print();
    write_csv(
        "fig01_link_utilization.csv",
        &["bench", "lambdas", "cycle", "utilization"],
        &trace_rows,
    );
    println!("\n  paper: avg utilization 19.7%/7.5% at 16λ and 5.5%/1.9% at 64λ for");
    println!("  Image Blur / VGG16 FC — low even when underprovisioned, leaving");
    println!("  ample idle capacity for in-network computation.");
}
