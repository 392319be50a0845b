//! `serve_mix`: the `bench_serve` sweep, lengthened. `JobMix::standard`
//! payloads are executed once on two threads, then three arrival
//! families × six utilizations ρ are served by four simulated workers
//! through `serve_requests`. The load is open-loop in simulated time;
//! on the host each scenario is one batch, so there is no generator
//! lateness to report. The scenario seed comes from the command line.

use crate::digests;
use crate::probe::Tally;
use crate::report::{median, print_row, Layers, Outcome};
use crate::{guarded, timed_loop, RunSpec, DEFAULT_SEED};
use flumen_serve::exec::execute_payloads;
use flumen_serve::{
    serve_requests, AdmissionConfig, ArrivalProcess, ClassPolicy, JobMix, PayloadTable, Request,
    ScenarioSpec, ServeConfig, ServeReport, ShedPolicy, MCYCLE,
};
use flumen_sim::Cycles;
use flumen_sweep::hash::sha256_hex;
use flumen_trace::TraceHandle;
use std::time::Instant;

/// Arrival families, as in `bench_serve`.
pub const FAMILIES: [&str; 3] = ["poisson", "bursty", "diurnal"];

/// Offered utilizations, as in a full `bench_serve` run.
pub const RHOS: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.3];

/// Requests each scenario targets (`bench_serve` uses 240).
pub const TARGET_REQUESTS: f64 = 2_400.0;

/// Simulated service workers.
pub const WORKERS: u32 = 4;

/// OS threads that execute the payload table.
pub const EXEC_THREADS: usize = 2;

/// The `bench_serve` family template at mean rate `rate`.
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

/// Everything a pass consumes: the payload table, the serving policy
/// and every scenario's generated requests.
#[derive(Debug)]
pub struct Prepared {
    table: PayloadTable,
    cfg: ServeConfig,
    scenarios: Vec<(ScenarioSpec, Vec<Request>)>,
}

/// Executes the payload table and generates every scenario from `seed`,
/// charging the two steps to `execute` and `generate`.
fn prepare(seed: u64, execute: &Tally, generate: &Tally) -> Prepared {
    let mix = JobMix::standard();
    let jobs: Vec<_> = mix.choices().iter().map(|(_, j)| j.clone()).collect();
    let table = execute.time(|| execute_payloads(&jobs, EXEC_THREADS, None));
    let mean_service = mix.weighted_mean(|job| {
        table
            .get(&job.content_hash())
            .map(|p| p.service.count_f64())
            .expect("mix payload executed")
    });
    let capacity_per_mcycle = f64::from(WORKERS) * MCYCLE / mean_service;
    let timeout = Some(Cycles::new((mean_service * 64.0) as u64));
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 64,
            shed: ShedPolicy::Newest,
            mvm: ClassPolicy { timeout },
            traffic: ClassPolicy { timeout },
        },
        workers: WORKERS,
        exec_threads: EXEC_THREADS,
    };
    let mut scenarios = Vec::new();
    for family in FAMILIES {
        for rho in RHOS {
            let rate = rho * capacity_per_mcycle;
            let horizon = (TARGET_REQUESTS * MCYCLE / rate).max(MCYCLE);
            let spec = ScenarioSpec {
                name: format!("{family}/rho{rho:.2}"),
                process: family_process(family, rate, horizon),
                horizon: Cycles::new(horizon as u64),
                clients: 4,
                seed,
                mix: mix.clone(),
            };
            let requests = generate.time(|| spec.generate());
            scenarios.push((spec, requests));
        }
    }
    Prepared {
        table,
        cfg,
        scenarios,
    }
}

/// The checks every report must pass: each request is accounted for
/// exactly once and the disposition counters are conserved.
pub fn conserved(report: &ServeReport, requests: usize) -> bool {
    report.counters.conserved()
        && report.counters.offered == requests as u64
        && report.records.len() == requests
}

/// Serves every scenario once. Returns the seconds inside
/// `serve_requests`, the request count and the reports; counts each
/// request as attempted, and a whole scenario as failed when it panics
/// or breaks conservation.
fn serve_all(p: &Prepared, out: &mut Outcome) -> (f64, u64, Vec<ServeReport>) {
    let mut wall = 0.0;
    let mut requests = 0;
    let mut reports = Vec::new();
    for (spec, reqs) in &p.scenarios {
        let t = Instant::now();
        let report =
            guarded(|| serve_requests(spec, reqs, &p.cfg, &p.table, &TraceHandle::disabled()).ok())
                .flatten();
        wall += t.elapsed().as_secs_f64();
        requests += reqs.len() as u64;
        let ok = report.as_ref().is_some_and(|r| conserved(r, reqs.len()));
        if !ok {
            println!("  {} broke request conservation", spec.name);
        }
        out.check_many(reqs.len() as u64, ok);
        reports.extend(report);
    }
    (wall, requests, reports)
}

/// At the default seed, the combined result hash must match the
/// recorded one; the scenario is counted once more, failed on mismatch.
fn check_digest(seed: u64, reports: &[ServeReport], out: &mut Outcome) {
    if seed != DEFAULT_SEED {
        return;
    }
    let joined: Vec<String> = reports.iter().map(ServeReport::result_hash).collect();
    let got = sha256_hex(joined.join("\n").as_bytes());
    let ok = got == digests::SERVE;
    if !ok {
        println!(
            "  digest mismatch serve_mix: got {got}, recorded {:?}",
            digests::SERVE
        );
    }
    out.check(ok);
}

/// The untraced run: repeated passes, medians reported.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let unused = Tally::default();
    let mut per_request = Vec::new();
    let times = timed_loop(
        spec.seconds,
        || prepare(spec.seed, &unused, &unused),
        |p| {
            let (wall, requests, reports) = serve_all(&p, &mut out);
            check_digest(spec.seed, &reports, &mut out);
            per_request.push(1e6 * wall / requests.max(1) as f64);
            wall
        },
    );
    times.print();
    println!("  workload-specific end-to-end rows:");
    print_row("us_per_request", median(&per_request), "us");
    out.end_to_end = vec![
        ("wall_s", median(&times.passes)),
        ("setup_s", median(&times.setups)),
    ];
    out
}

/// The traced run: set-up with each layer call timed, serving twice
/// (the second pass must reproduce the first's result hashes), and the
/// per-request `JobSpec::content_hash` that `serve_requests` makes
/// (twice per request) timed on its own. Serving is timed per call in
/// both passes, so `bench.trace_overhead_frac` reads only noise here.
pub fn run_traced(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let (execute, generate, hash) = (Tally::default(), Tally::default(), Tally::default());
    let p = prepare(spec.seed, &execute, &generate);
    let (plain_wall, _, plain) = serve_all(&p, &mut Outcome::default());
    let (traced_wall, requests, reports) = serve_all(&p, &mut out);
    check_digest(spec.seed, &reports, &mut out);
    let same = plain.len() == reports.len()
        && plain
            .iter()
            .zip(&reports)
            .all(|(a, b)| a.result_hash() == b.result_hash());
    if !same {
        println!("  traced serving differs from the untraced pass");
    }
    out.check(same);
    for (_, reqs) in &p.scenarios {
        for r in reqs {
            hash.time(|| r.job.content_hash());
        }
    }
    let (offered, admitted) = reports.iter().fold((0, 0), |(o, a), r| {
        (o + r.counters.offered, a + r.counters.admitted)
    });
    layers.set("serve.generate_s", generate.secs());
    layers.set("serve.execute_payloads_s", execute.secs());
    layers.set("serve.payloads", p.table.len() as f64);
    layers.set("serve.serve_requests_s", traced_wall);
    layers.set("serve.requests", requests as f64);
    layers.set(
        "serve.admitted_frac",
        admitted as f64 / offered.max(1) as f64,
    );
    layers.set("sweep.content_hash_s", hash.secs());
    layers.set("sweep.content_hash_us", hash.mean_ns() * 1e-3);
    layers.set(
        "bench.trace_overhead_frac",
        (traced_wall - plain_wall) / plain_wall,
    );
    out.layers = Some(layers);
    out
}
