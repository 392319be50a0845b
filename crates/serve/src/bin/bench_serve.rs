//! `bench_serve` — saturation curves for the serving subsystem.
//!
//! Sweeps offered load over each scenario family (Poisson, bursty,
//! diurnal) and writes `BENCH_serve.json` (repo root, or
//! `FLUMEN_BENCH_OUT_SERVE`). Offered load is expressed as utilization
//! ρ relative to measured capacity: the distinct payloads of the
//! standard mix are executed once, their simulated service demands
//! averaged under the mix weights, and each sweep point then offers
//! `ρ · workers / mean_service` requests per cycle. p99 latency versus ρ
//! bends sharply as ρ approaches 1 — the saturation knee the admission
//! controller is built to survive.
//!
//! Everything in the output file is derived from simulated time, never
//! wall clock, so two runs with the same flags produce byte-identical
//! files — the property the `serve-smoke` CI job asserts with `cmp`.
//!
//! `--quick` sweeps 3 points per family over a shorter horizon (CI); a
//! full run sweeps 6.

use flumen_serve::exec::execute_payloads;
use flumen_serve::{
    serve_requests, AdmissionConfig, ArrivalProcess, ClassPolicy, JobMix, ScenarioSpec,
    ServeConfig, ServeReport, ShedPolicy, MCYCLE,
};
use flumen_sim::Cycles;
use flumen_sweep::hash::sha256_hex;
use flumen_trace::TraceHandle;

/// One measured sweep point.
struct Point {
    family: &'static str,
    rho: f64,
    rate: f64,
    report: ServeReport,
}

/// The family template at unit mean rate; each point scales it.
fn family_process(family: &str, rate: f64, horizon: f64) -> ArrivalProcess {
    match family {
        "bursty" => ArrivalProcess::Bursty {
            base: 0.6 * rate,
            burst: 2.2 * rate,
            dwell_base: 300_000.0,
            dwell_burst: 100_000.0,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            trough: 0.4 * rate,
            peak: 1.6 * rate,
            period: (horizon / 2.0).max(1.0),
        },
        _ => ArrivalProcess::Poisson { rate },
    }
}

fn main() {
    let quick = flumen_serve_quick_mode();
    let threads = std::env::var("FLUMEN_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    let mix = JobMix::standard();
    let workers = 4u32;

    // Execute the distinct payloads once; every sweep point reuses the
    // table (the queueing model is cheap, the payloads are not).
    let jobs: Vec<_> = mix.choices().iter().map(|(_, j)| j.clone()).collect();
    let table = execute_payloads(&jobs, threads, None);
    let mean_service = mix.weighted_mean(|job| {
        table
            .get(&job.content_hash())
            .map(|p| p.service.count_f64())
            .expect("mix payload executed")
    });
    println!(
        "bench_serve: {} distinct payloads · mean service {:.0} cycles · {} workers",
        table.len(),
        mean_service,
        workers
    );

    // Capacity: workers / mean_service requests per cycle.
    let capacity_per_mcycle = f64::from(workers) * MCYCLE / mean_service;
    let rhos: &[f64] = if quick {
        &[0.3, 0.8, 1.3]
    } else {
        &[0.2, 0.4, 0.6, 0.8, 1.0, 1.3]
    };
    let target_requests = if quick { 60.0 } else { 240.0 };
    let timeout = Cycles::new((mean_service * 64.0) as u64);

    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 64,
            shed: ShedPolicy::Newest,
            mvm: ClassPolicy {
                timeout: Some(timeout),
            },
            traffic: ClassPolicy {
                timeout: Some(timeout),
            },
        },
        workers,
        exec_threads: threads,
    };

    let mut points: Vec<Point> = Vec::new();
    for family in ["poisson", "bursty", "diurnal"] {
        for &rho in rhos {
            let rate = rho * capacity_per_mcycle;
            let horizon = (target_requests * MCYCLE / rate).max(MCYCLE);
            let spec = ScenarioSpec {
                name: format!("{family}/rho{rho:.2}"),
                process: family_process(family, rate, horizon),
                horizon: Cycles::new(horizon as u64),
                clients: 4,
                seed: 0xF1,
                mix: mix.clone(),
            };
            let requests = spec.generate();
            let report = serve_requests(&spec, &requests, &cfg, &table, &TraceHandle::disabled())
                .expect("scenario serves");
            assert!(
                report.counters.conserved(),
                "disposition counters must be conserved at {family} ρ={rho}"
            );
            let p99 = report.percentile(0.99).unwrap_or(0);
            println!(
                "  {family} ρ={rho:.2}: offered {} · served {} · shed {} · timed_out {} · p99 {}",
                report.counters.offered,
                report.counters.admitted,
                report.counters.shed,
                report.counters.timed_out,
                p99,
            );
            points.push(Point {
                family,
                rho,
                rate,
                report,
            });
        }
    }

    // Saturation knee per family: the first ρ whose p99 exceeds 3× the
    // lowest-ρ baseline.
    let mut derived: Vec<(String, String)> = Vec::new();
    for family in ["poisson", "bursty", "diurnal"] {
        let fam: Vec<&Point> = points.iter().filter(|p| p.family == family).collect();
        let base = fam
            .first()
            .and_then(|p| p.report.percentile(0.99))
            .unwrap_or(0)
            .max(1) as f64;
        let knee = fam
            .iter()
            .find(|p| p.report.percentile(0.99).unwrap_or(0) as f64 > 3.0 * base)
            .map(|p| p.rho);
        derived.push((
            format!("knee_rho_{family}"),
            knee.map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "null".into()),
        ));
    }
    let combined = {
        let concat: String = points
            .iter()
            .map(|p| p.report.result_hash())
            .collect::<Vec<_>>()
            .join("\n");
        sha256_hex(concat.as_bytes())
    };
    derived.push(("mean_service_cycles".into(), format!("{mean_service:.1}")));
    derived.push(("result_hash".into(), format!("\"{combined}\"")));

    // Hand-rendered JSON; every field is sim-derived so the bytes are
    // run-to-run identical.
    let mut json = String::from("{\n");
    json.push_str("  \"suite\": \"flumen-serve\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        let pct = |q: f64| r.percentile(q).unwrap_or(0);
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"rho\": {:.2}, \"rate_per_mcycle\": {:.3}, \
             \"offered\": {}, \"admitted\": {}, \"shed\": {}, \"timed_out\": {}, \
             \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max_queue_depth\": {}, \
             \"result_hash\": \"{}\"}}{}\n",
            p.family,
            p.rho,
            p.rate,
            r.counters.offered,
            r.counters.admitted,
            r.counters.shed,
            r.counters.timed_out,
            pct(0.50),
            pct(0.99),
            pct(0.999),
            r.max_queue_depth,
            r.result_hash(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"derived\": {\n");
    for (i, (k, v)) in derived.iter().enumerate() {
        json.push_str(&format!(
            "    \"{k}\": {v}{}\n",
            if i + 1 < derived.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    let out = std::env::var("FLUMEN_BENCH_OUT_SERVE").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("  → wrote {out}");
    for (k, v) in &derived {
        println!("  {k}: {v}");
    }
}

/// `--quick` flag or `FLUMEN_BENCH_QUICK=1` (same contract as the other
/// bench trajectory binaries).
fn flumen_serve_quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("FLUMEN_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}
