//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every `fig*`/`tab*`/`abl*` binary prints a human-readable table to
//! stdout and writes a CSV under `EXPERIMENTS-data/` so the results can be
//! plotted or diffed. `fig_all` runs the whole battery.

use flumen::{FullRunResult, RuntimeConfig, SystemTopology};
use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{
    run_plan, sink, BenchSize, BenchSpec, JobSpec, NetSpec, SweepOptions, SweepPlan, SweepReport,
};
use flumen_workloads::{paper_benchmarks, small_benchmarks, Benchmark};
use std::fs;
use std::path::PathBuf;

/// Directory where experiment CSVs land.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("FLUMEN_DATA_DIR").unwrap_or_else(|_| "EXPERIMENTS-data".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create data dir");
    p
}

/// Writes a CSV file (headers + rows) into the data directory.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut s = headers.join(",") + "\n";
    for r in rows {
        s.push_str(&r.join(","));
        s.push('\n');
    }
    let path = out_dir().join(name);
    fs::write(&path, s).expect("write csv");
    println!("  → wrote {}", path.display());
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Whether `--quick` was passed (reduced benchmark sizes for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The benchmark set honouring `--quick`.
pub fn benchmarks() -> Vec<Box<dyn Benchmark>> {
    if quick_mode() {
        small_benchmarks()
    } else {
        paper_benchmarks()
    }
}

/// The benchmark *specs* honouring `--quick` (for sweep plans).
pub fn bench_specs() -> Vec<BenchSpec> {
    BenchSpec::all(if quick_mode() {
        BenchSize::Small
    } else {
        BenchSize::Paper
    })
}

/// Executor options for figure binaries: environment-driven threads and
/// cache location, progress lines on.
pub fn sweep_options() -> SweepOptions {
    SweepOptions {
        verbose: true,
        ..SweepOptions::from_env()
    }
}

/// The benchmark × topology plan behind Figs. 13–15 (benchmark outer,
/// topology inner — the row order every figure binary expects).
pub fn grid_plan() -> SweepPlan {
    let cfg = RuntimeConfig::paper();
    let mut plan = SweepPlan::new();
    for bench in bench_specs() {
        for topology in SystemTopology::all() {
            plan.push(JobSpec::FullRun {
                bench,
                topology,
                cfg: cfg.clone(),
            });
        }
    }
    plan
}

/// Runs `plan` through the sweep engine, records it in the manifest and
/// prints the cache/wall summary.
pub fn run_sweep(name: &str, plan: &SweepPlan) -> SweepReport {
    let opts = sweep_options();
    let report = run_plan(plan, &opts);
    sink::append_manifest(&out_dir(), name, &report);
    eprintln!(
        "  [sweep] {name}: {} jobs, {} cached, {} simulated, {:.0} ms on {} thread(s)",
        report.records.len(),
        report.cache_hits(),
        report.executed(),
        report.wall_ms,
        opts.threads,
    );
    report
}

/// Runs the full benchmark × topology grid (the data behind Figs. 13–15)
/// through the parallel, cache-backed sweep engine.
pub fn run_grid() -> Vec<FullRunResult> {
    let report = run_sweep("grid", &grid_plan());
    let grid: Vec<FullRunResult> = report
        .results
        .iter()
        .map(|r| r.full_run().clone())
        .collect();
    warn_truncated(&grid);
    grid
}

/// Warns on stderr about any run that hit its cycle budget: a truncated
/// run's counters describe an incomplete execution, so its rows in the
/// printed tables must not be read as finished-benchmark numbers.
pub fn warn_truncated(grid: &[FullRunResult]) {
    for r in grid.iter().filter(|r| r.truncated) {
        eprintln!(
            "  [warn] {} on {} truncated at {} cycles — figures using this row are partial",
            r.benchmark,
            r.topology.name(),
            r.cycles,
        );
    }
}

/// The distinct benchmark names of a grid, in first-appearance order
/// (shared by the Figs. 13–15 binaries).
pub fn bench_names(grid: &[FullRunResult]) -> Vec<String> {
    let mut names: Vec<String> = grid.iter().map(|r| r.benchmark.clone()).collect();
    names.dedup();
    names
}

/// Harness parameters for the Fig. 11 synthetic-traffic sweep, honouring
/// `--quick`.
pub fn fig11_run_config() -> RunConfig {
    if quick_mode() {
        RunConfig {
            warmup: 300,
            measure: 2_000,
            ..RunConfig::default()
        }
    } else {
        RunConfig::default()
    }
}

/// The offered-load axis of Fig. 11 (0.05 … 0.50).
pub fn fig11_loads() -> Vec<f64> {
    (1..=10).map(|k| 0.05 * k as f64).collect()
}

/// The traffic patterns evaluated in Fig. 11.
pub fn fig11_patterns() -> [TrafficPattern; 3] {
    [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitReversal,
        TrafficPattern::Shuffle,
    ]
}

/// The Fig. 11 plan: pattern × load × network latency points (pattern
/// outer, load middle, network inner — the binary's table order).
pub fn fig11_plan() -> SweepPlan {
    let cfg = fig11_run_config();
    let mut plan = SweepPlan::new();
    for pattern in fig11_patterns() {
        for load in fig11_loads() {
            for net in NetSpec::fig11() {
                plan.push(JobSpec::NocPoint {
                    net,
                    pattern,
                    load,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    plan
}

/// Looks up a grid row.
pub fn grid_row<'a>(
    grid: &'a [FullRunResult],
    bench: &str,
    topo: SystemTopology,
) -> &'a FullRunResult {
    grid.iter()
        .find(|r| r.benchmark == bench && r.topology == topo)
        .expect("grid row exists")
}

/// Cycle-count speedup of `subject` over `baseline` (`baseline ÷
/// subject`) — the one blessed cycles→float site for the figure binaries.
pub fn speedup(baseline_cycles: u64, subject_cycles: u64) -> f64 {
    // flumen-check: allow(no-bare-cast) — dimensionless cycle ratio; the units cancel
    baseline_cycles as f64 / subject_cycles as f64
}

/// Simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let s: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("  {}", s.join("  "));
        };
        line(&self.headers);
        for r in &self.rows {
            line(r);
        }
    }

    /// The rows as CSV-ready strings.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        self.rows.clone()
    }

    /// The headers as &str slices for [`write_csv`].
    pub fn csv_headers(&self) -> Vec<&str> {
        self.headers.iter().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn table_formats() {
        let mut t = Table::new(&["a", "bench"]);
        t.row(vec!["1".into(), "x".into()]);
        assert_eq!(t.csv_headers(), vec!["a", "bench"]);
        assert_eq!(t.csv_rows().len(), 1);
        t.print();
    }
}
