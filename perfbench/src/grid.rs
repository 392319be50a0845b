//! `paper_grid`: the Figs. 13–15 grid — five paper-size benchmarks on
//! five system topologies, one `flumen_sweep::run_plan` call per
//! topology column, serial, each with a fresh empty result cache.
//!
//! The traced run replays every job from outside the library with the
//! same public calls `flumen::run_benchmark` makes, but with the network
//! and the control unit wrapped by [`crate::probe`], and checks that the
//! replay gives the same result bits as `run_plan`.

use crate::digests;
use crate::probe::{self_time_ns, NetProbe, ServerProbe, Tally, TimedNet, TimedServer};
use crate::report::{median, print_row, Layers, Outcome};
use crate::{guarded, shuffled, timed_loop, RunSpec};
use flumen::{FullRunResult, MzimControlUnit, RuntimeConfig, SystemTopology};
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, RoutedConfig, RoutedNetwork,
    RoutedTopology,
};
use flumen_power::system_energy;
use flumen_sweep::{
    run_plan, BenchSize, BenchSpec, JobResult, JobSpec, ResultCache, SweepOptions, SweepPlan,
};
use flumen_system::{ExternalServer, NullServer, RunResult, SystemSim};
use flumen_trace::{RecordingTracer, TraceHandle};
use flumen_workloads::taskgen::{self, ExecMode};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Paper Fig. 14: Flumen-A speedup over mesh per benchmark.
pub const PAPER_SPEEDUP_VS_MESH: [(&str, f64); 5] = [
    ("image_blur", 3.3),
    ("vgg16_fc", 2.0),
    ("resnet50_conv3", 4.5),
    ("jpeg", 4.0),
    ("rotation_3d", 5.2),
];

/// Paper Fig. 14: geometric-mean Flumen-A speedup over mesh.
pub const PAPER_GEOMEAN_VS_MESH: f64 = 3.6;

/// One topology column: its plan and the jobs' content hashes.
#[derive(Debug)]
struct Column {
    topology: SystemTopology,
    plan: SweepPlan,
    hashes: Vec<String>,
}

/// The grid in seed order: topology columns shuffled, benchmarks
/// shuffled within each column. Results do not depend on the order.
fn columns(seed: u64) -> Vec<Column> {
    let cfg = RuntimeConfig::paper();
    shuffled(SystemTopology::all().to_vec(), seed)
        .into_iter()
        .enumerate()
        .map(|(i, topology)| {
            let mut plan = SweepPlan::new();
            for bench in shuffled(BenchSpec::all(BenchSize::Paper), seed ^ (i as u64 + 1)) {
                plan.push(JobSpec::FullRun {
                    bench,
                    topology,
                    cfg: cfg.clone(),
                });
            }
            let hashes = plan.jobs().iter().map(JobSpec::content_hash).collect();
            Column {
                topology,
                plan,
                hashes,
            }
        })
        .collect()
}

/// The digest a job's result is recorded under.
fn result_digest(r: &FullRunResult) -> String {
    digests::of_json(&JobResult::FullRun(r.clone()))
}

/// One untraced pass over the grid.
#[derive(Debug, Default)]
struct GridPass {
    /// Seconds inside `run_plan`, summed over columns.
    wall: f64,
    /// `(topology, seconds, simulated cycles)` per column.
    columns: Vec<(SystemTopology, f64, u64)>,
    /// Every job's `(label, result)`; a failed column contributes none.
    results: Vec<(String, FullRunResult)>,
}

/// Runs every column through `run_plan` with a fresh empty cache under
/// `cache_root`, checking each job against its recorded digest.
fn untraced_pass(cols: &[Column], cache_root: &Path, out: &mut Outcome) -> GridPass {
    let mut pass = GridPass::default();
    for col in cols {
        let dir = cache_root.join(col.topology.name());
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions::serial_in(dir);
        let t = Instant::now();
        let report = guarded(|| run_plan(&col.plan, &opts));
        let secs = t.elapsed().as_secs_f64();
        pass.wall += secs;
        let Some(report) = report else {
            println!("  run_plan panicked on the {} column", col.topology.name());
            out.check_many(col.plan.len() as u64, false);
            continue;
        };
        let mut cycles = 0;
        for ((rec, result), hash) in report.records.iter().zip(&report.results).zip(&col.hashes) {
            let r = result.full_run();
            cycles += r.cycles;
            let fresh = !rec.cached && rec.hash == *hash;
            out.check(
                fresh
                    && !r.truncated
                    && digests::matches(digests::GRID, &rec.label, &result_digest(r)),
            );
            pass.results.push((rec.label.clone(), r.clone()));
        }
        pass.columns.push((col.topology, secs, cycles));
    }
    pass
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints the simulated Fig. 14 Flumen-A speedup over mesh beside the
/// paper's values.
fn print_fig14(results: &[(String, FullRunResult)]) {
    let cycles = |bench: &str, topo: SystemTopology| {
        results
            .iter()
            .find(|(_, r)| r.benchmark == bench && r.topology == topo)
            .map(|(_, r)| r.cycles)
    };
    println!("  Fig. 14, Flumen-A speedup over mesh (simulated vs paper):");
    let mut sims = Vec::new();
    for (bench, paper) in PAPER_SPEEDUP_VS_MESH {
        let (Some(mesh), Some(fa)) = (
            cycles(bench, SystemTopology::Mesh),
            cycles(bench, SystemTopology::FlumenA),
        ) else {
            continue;
        };
        let sim = mesh as f64 / fa as f64;
        sims.push(sim);
        println!(
            "    {bench:<15} {sim:>6.2}x  paper {paper:.1}x  error {:+6.1}%",
            100.0 * (sim - paper) / paper
        );
    }
    if sims.len() == PAPER_SPEEDUP_VS_MESH.len() {
        let g = geomean(&sims);
        println!(
            "    {:<15} {g:>6.2}x  paper {PAPER_GEOMEAN_VS_MESH:.1}x  error {:+6.1}%",
            "geomean",
            100.0 * (g - PAPER_GEOMEAN_VS_MESH) / PAPER_GEOMEAN_VS_MESH
        );
    }
    println!(
        "    (an analytic model, not validated against hardware; the modelled \
         caches and the sweep cache start empty on every job)"
    );
}

/// The untraced run: repeated passes, medians reported.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let cache_root = spec.work_dir.join("grid");
    let mut passes: Vec<GridPass> = Vec::new();
    let times = timed_loop(
        spec.seconds,
        || columns(spec.seed),
        |cols| {
            let pass = untraced_pass(&cols, &cache_root, &mut out);
            let wall = pass.wall;
            passes.push(pass);
            wall
        },
    );
    let _ = std::fs::remove_dir_all(&cache_root);

    print_fig14(&passes[0].results);
    for p in &passes {
        let cols: Vec<String> = p
            .columns
            .iter()
            .map(|(t, s, _)| format!("{}={s:.3}", t.name()))
            .collect();
        println!("  column s: {}", cols.join(" "));
    }
    let per_topology = |topo: Option<SystemTopology>| {
        let samples: Vec<f64> = passes
            .iter()
            .map(|p| {
                let (s, c) = p
                    .columns
                    .iter()
                    .filter(|(t, _, _)| topo.is_none_or(|x| x == *t))
                    .fold((0.0, 0u64), |(s, c), (_, ts, tc)| (s + ts, c + tc));
                1e9 * s / c.max(1) as f64
            })
            .collect();
        median(&samples)
    };
    times.print();
    println!("  workload-specific end-to-end rows:");
    print_row("ns_per_cycle", per_topology(None), "ns");
    for topo in SystemTopology::all() {
        print_row(
            &format!("ns_per_cycle.{}", topo.name()),
            per_topology(Some(topo)),
            "ns",
        );
    }
    out.end_to_end = vec![
        ("wall_s", median(&times.passes)),
        ("setup_s", median(&times.setups)),
    ];
    out
}

/// The private `mesh_dims` of `flumen::runtime`, rebuilt: the most
/// square `w × h` factorization of `n` with both sides at least 2.
pub fn mesh_dims(n: usize) -> Option<(usize, usize)> {
    let mut w = (n as f64).sqrt() as usize;
    while w >= 2 {
        if n.is_multiple_of(w) && n / w >= 2 {
            return Some((w, n / w));
        }
        w -= 1;
    }
    None
}

/// Host time and counts of the traced replay, summed over jobs.
#[derive(Debug, Default)]
struct ReplayTallies {
    instantiate: Tally,
    taskgen: Tally,
    energy: Tally,
    engine_self_ns: u64,
    step_ns: u64,
    step_calls: u64,
    inject_ns: u64,
    injects: u64,
    idle_steps: u64,
    control_unit_ns: u64,
    requests: u64,
    outcomes: u64,
    accepted: u64,
}

fn simulate<N: Network, S: ExternalServer<N>>(
    cfg: &RuntimeConfig,
    net: N,
    server: S,
    tasks: Vec<Vec<flumen_system::CoreTask>>,
) -> RunResult {
    let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks);
    sim.set_tracer(TraceHandle::disabled());
    sim.set_trace_interval(cfg.trace_interval);
    sim.run(cfg.max_cycles)
}

/// Replays one job through wrapped network and control unit, doing what
/// `flumen::run_benchmark` does with the library's public pieces.
fn replay(
    bench: &BenchSpec,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    t: &mut ReplayTallies,
) -> FullRunResult {
    let workload = t.instantiate.time(|| bench.instantiate());
    let mode = match topology {
        SystemTopology::FlumenA => ExecMode::Offload,
        _ => ExecMode::Local,
    };
    let tasks = t
        .taskgen
        .time(|| taskgen::generate(workload.as_ref(), &cfg.system, mode, &cfg.taskgen));
    let np = Rc::new(NetProbe::default());
    let sp = Rc::new(ServerProbe::default());
    let chiplets = cfg.system.chiplets;
    let routed = |topology| {
        RoutedNetwork::new(topology, RoutedConfig::default()).expect("routed topology is valid")
    };
    let crossbar =
        || MzimCrossbar::new(chiplets, CrossbarConfig::default()).expect("crossbar is valid");
    let start = Instant::now();
    let r = match topology {
        SystemTopology::Ring => simulate(
            cfg,
            TimedNet::new(routed(RoutedTopology::Ring { nodes: chiplets }), np.clone()),
            NullServer::default(),
            tasks,
        ),
        SystemTopology::Mesh => {
            let (width, height) = mesh_dims(chiplets).expect("chiplets form a mesh");
            simulate(
                cfg,
                TimedNet::new(routed(RoutedTopology::Mesh { width, height }), np.clone()),
                NullServer::default(),
                tasks,
            )
        }
        SystemTopology::OptBus => {
            let bus = OpticalBus::new(chiplets, BusConfig::default()).expect("bus is valid");
            simulate(
                cfg,
                TimedNet::new(bus, np.clone()),
                NullServer::default(),
                tasks,
            )
        }
        SystemTopology::FlumenI => simulate(
            cfg,
            TimedNet::new(crossbar(), np.clone()),
            NullServer::default(),
            tasks,
        ),
        SystemTopology::FlumenA => {
            let mut cu = MzimControlUnit::new(cfg.control.clone());
            cu.set_tracer(TraceHandle::disabled());
            simulate(
                cfg,
                TimedNet::new(crossbar(), np.clone()),
                TimedServer::new(cu, sp.clone()),
                tasks,
            )
        }
    };
    t.engine_self_ns += self_time_ns(start.elapsed().as_nanos() as u64, &np, &sp);
    t.step_ns += np.step.nanos();
    t.step_calls += np.step.calls();
    t.inject_ns += np.inject.nanos();
    t.injects += np.inject.calls();
    t.idle_steps += np.idle_steps.get();
    t.control_unit_ns += sp.step.nanos() + sp.request.nanos();
    t.requests += sp.request.calls();
    t.outcomes += sp.outcomes.get();
    t.accepted += sp.accepted.get();

    let seconds = cfg.system.cycles_to_seconds(r.cycles);
    let energy = t.energy.time(|| {
        system_energy(
            &r.counts,
            &r.net_stats,
            seconds,
            cfg.system.cores,
            topology.nop_kind(),
            &cfg.energy,
        )
    });
    FullRunResult {
        topology,
        benchmark: workload.name().to_string(),
        cycles: r.cycles,
        seconds,
        truncated: r.truncated,
        counts: r.counts,
        net_stats: r.net_stats,
        energy,
        utilization_trace: r.utilization_trace,
    }
}

/// Total size of the files in `dir`, bytes.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `run_benchmark_traced` on the Flumen-A column with a disabled handle
/// and with a `RecordingTracer`: `(disabled s, recording s)`. Results
/// must not change with the tracer.
fn recording_overhead(cols: &[Column], cfg: &RuntimeConfig, out: &mut Outcome) -> (f64, f64) {
    let (mut off, mut on) = (0.0, 0.0);
    let column = cols
        .iter()
        .find(|c| c.topology == SystemTopology::FlumenA)
        .expect("grid has a Flumen-A column");
    for job in column.plan.jobs() {
        let JobSpec::FullRun { bench, .. } = job else {
            continue;
        };
        let workload = bench.instantiate();
        let t = Instant::now();
        let plain = flumen::run_benchmark_traced(
            workload.as_ref(),
            SystemTopology::FlumenA,
            cfg,
            TraceHandle::disabled(),
        );
        off += t.elapsed().as_secs_f64();
        let recorder = RecordingTracer::new();
        let t = Instant::now();
        let traced = flumen::run_benchmark_traced(
            workload.as_ref(),
            SystemTopology::FlumenA,
            cfg,
            recorder.handle(),
        );
        on += t.elapsed().as_secs_f64();
        out.check(result_digest(&plain) == result_digest(&traced));
    }
    (off, on)
}

/// The traced run: one untraced pass, the traced replay of every job
/// (compared bit for bit), a warm-cache pass, and the program's own
/// tracer on the Flumen-A column.
pub fn run_traced(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let cache_root = spec.work_dir.join("grid");
    let cfg = RuntimeConfig::paper();

    let cols = columns(spec.seed);
    let plain = untraced_pass(&cols, &cache_root, &mut out);

    // Traced replay, plus the hashing and cache stores run_plan does.
    let store_dir = spec.work_dir.join("grid-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ResultCache::open(&store_dir);
    let mut t = ReplayTallies::default();
    let (hash, cache_store) = (Tally::default(), Tally::default());
    let mut step_by_topo: Vec<(SystemTopology, u64, u64)> = Vec::new();
    let mut replayed: Vec<(String, Option<JobResult>)> = Vec::new();
    let start = Instant::now();
    for col in &cols {
        let (ns0, calls0) = (t.step_ns, t.step_calls);
        for job in col.plan.jobs() {
            let JobSpec::FullRun {
                bench, topology, ..
            } = job
            else {
                continue;
            };
            hash.time(|| job.content_hash());
            let result = guarded(|| JobResult::FullRun(replay(bench, *topology, &cfg, &mut t)));
            if let Some(result) = &result {
                cache_store.time(|| store.store(job, result, 0.0));
            }
            replayed.push((job.label(), result));
        }
        step_by_topo.push((col.topology, t.step_ns - ns0, t.step_calls - calls0));
    }
    let traced_wall = start.elapsed().as_secs_f64();
    for (label, result) in &replayed {
        let untraced = plain.results.iter().find(|(l, _)| l == label);
        let same = match (untraced, result) {
            (Some((_, r)), Some(result)) => result_digest(r) == digests::of_json(result),
            _ => false,
        };
        if !same {
            println!("  traced replay of {label} differs from run_plan");
        }
        out.check(same);
    }

    // Warm second pass: every job must come back from the cache.
    let warm = Instant::now();
    for col in &cols {
        let opts = SweepOptions::serial_in(cache_root.join(col.topology.name()));
        let report = guarded(|| run_plan(&col.plan, &opts));
        out.check(report.is_some_and(|r| r.cache_hits() == col.plan.len()));
    }
    let cache_load = warm.elapsed().as_secs_f64();

    let (off, on) = recording_overhead(&cols, &cfg, &mut out);
    let cache_bytes = dir_bytes(&store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&cache_root);

    layers.set("noc.step_s", t.step_ns as f64 * 1e-9);
    layers.set("noc.step_calls", t.step_calls as f64);
    for (topo, ns, calls) in step_by_topo {
        layers.set(
            &format!("noc.step_ns.{}", topo.name()),
            ns as f64 / calls.max(1) as f64,
        );
    }
    layers.set("noc.inject_s", t.inject_ns as f64 * 1e-9);
    layers.set("noc.injects", t.injects as f64);
    layers.set(
        "noc.idle_step_frac",
        t.idle_steps as f64 / t.step_calls.max(1) as f64,
    );
    layers.set("system.engine_self_s", t.engine_self_ns as f64 * 1e-9);
    layers.set("core.control_unit.step_s", t.control_unit_ns as f64 * 1e-9);
    layers.set("core.control_unit.requests", t.requests as f64);
    layers.set(
        "core.control_unit.admit_frac",
        t.accepted as f64 / t.outcomes.max(1) as f64,
    );
    layers.set("workloads.instantiate_s", t.instantiate.secs());
    layers.set("workloads.taskgen_s", t.taskgen.secs());
    layers.set("power.energy_s", t.energy.secs());
    layers.set("sweep.content_hash_s", hash.secs());
    layers.set("sweep.content_hash_us", hash.mean_ns() * 1e-3);
    layers.set("sweep.cache_store_s", cache_store.secs());
    layers.set("sweep.cache_load_s", cache_load);
    layers.set("sweep.cache_bytes", cache_bytes as f64);
    layers.set("trace.recording_overhead_frac", (on - off) / off);
    layers.set(
        "bench.trace_overhead_frac",
        (traced_wall - plain.wall) / plain.wall,
    );
    out.layers = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_dims_matches_the_runtime_layout() {
        assert_eq!(mesh_dims(16), Some((4, 4)));
        assert_eq!(mesh_dims(8), Some((2, 4)));
        assert_eq!(mesh_dims(12), Some((3, 4)));
        assert_eq!(mesh_dims(7), None);
    }

    #[test]
    fn replay_gives_run_benchmark_bits_on_every_topology() {
        let cfg = RuntimeConfig::paper();
        let bench = BenchSpec {
            kind: flumen_sweep::BenchKind::Rotation3d,
            size: BenchSize::Small,
        };
        for topology in SystemTopology::all() {
            let mut t = ReplayTallies::default();
            let replayed = replay(&bench, topology, &cfg, &mut t);
            let direct = flumen::run_benchmark(bench.instantiate().as_ref(), topology, &cfg);
            assert_eq!(
                result_digest(&replayed),
                result_digest(&direct),
                "{topology:?}"
            );
            assert!(t.step_calls > 0 && t.step_ns > 0 && t.engine_self_ns > 0);
            assert_eq!(t.requests > 0, topology == SystemTopology::FlumenA);
        }
    }

    #[test]
    fn columns_cover_the_grid_in_any_seed_order() {
        for seed in [0, 1, 99] {
            let cols = columns(seed);
            assert_eq!(cols.len(), 5);
            let mut labels: Vec<String> = cols
                .iter()
                .flat_map(|c| c.plan.jobs().iter().map(JobSpec::label))
                .collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), 25);
        }
    }
}
