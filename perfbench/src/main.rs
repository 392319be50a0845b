//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! env MALLOC_ARENA_MAX=1 cargo run --release --offline --quiet \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|noc_load|photonic_verify|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `MALLOC_ARENA_MAX=1` keeps glibc from giving the sweep's worker
//! threads arenas of their own, which otherwise makes `peak_rss_mib`
//! jump between runs by whether a new arena was taken.
//!
//! Human-readable rows come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones (tracing off);
//! with `--trace 1` they are the per-layer ones of a traced run.

use flumen_perfbench::report::{peak_rss_mib, print_row, result_line, Outcome, END_TO_END};
use flumen_perfbench::{grid, noc_load, serve_mix, verify, RunSpec, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["paper_grid", "noc_load", "photonic_verify", "serve_mix"];

const USAGE: &str = "usage: flumen-perfbench --workload <paper_grid|noc_load|photonic_verify|serve_mix> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Caches live in a per-process scratch directory under the working
    // directory and are removed before exit.
    let work_dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let spec = RunSpec {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: work_dir.clone(),
    };
    println!(
        "{} · seed {} · {} s · {} · {} host threads",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "tracing off" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("paper_grid", false) => grid::run(&spec),
        ("paper_grid", true) => grid::run_traced(&spec),
        ("noc_load", false) => noc_load::run(&spec),
        ("noc_load", true) => noc_load::run_traced(&spec),
        ("photonic_verify", false) => verify::run(&spec),
        ("photonic_verify", true) => verify::run_traced(&spec),
        ("serve_mix", false) => serve_mix::run(&spec),
        (_, _) => serve_mix::run_traced(&spec),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench-work");

    let metrics: Vec<(&str, f64, &str)> = match &outcome.layers {
        Some(layers) => layers.rows(),
        None => {
            let rss = peak_rss_mib();
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let value = match name {
                        "peak_rss_mib" => rss,
                        _ => outcome
                            .end_to_end
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map_or(0.0, |(_, v)| *v),
                    };
                    (name, value, unit)
                })
                .collect()
        }
    };
    println!(
        "  attempted {} · failed {} · failed_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        print_row(name, *value, unit);
    }
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
