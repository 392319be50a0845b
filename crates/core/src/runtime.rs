//! Full-system runtime: one call runs a benchmark on a topology and
//! returns runtime, activity, network statistics and the energy breakdown
//! — the data behind paper Figs. 13/14/15.

use crate::control_unit::{ControlUnitParams, MzimControlUnit};
use flumen_linalg::store::ByteStore;
use flumen_noc::{CrossbarConfig, MzimCrossbar, NetStats, OpticalBus, RoutedNetwork};
use flumen_power::{system_energy, EnergyBreakdown, EnergyParams, NopKind};
use flumen_sim::{run_until, Clock, Cycles, SimCtx, Snapshot, Snapshotable};
use flumen_system::{ActivityCounts, NullServer, RunResult, SystemConfig, SystemSim};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};
use flumen_workloads::taskgen::{self, ExecMode, TaskGenConfig};
use flumen_workloads::{Benchmark, WorkloadPlan};
use std::path::PathBuf;

/// The five evaluated system configurations (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTopology {
    /// Electrical ring NoP.
    Ring,
    /// Electrical mesh NoP.
    Mesh,
    /// Optical bus NoP.
    OptBus,
    /// Flumen fabric, communication only.
    FlumenI,
    /// Flumen fabric with compute acceleration.
    FlumenA,
}

impl SystemTopology {
    /// All five configurations in the paper's order.
    pub fn all() -> [SystemTopology; 5] {
        [
            SystemTopology::Ring,
            SystemTopology::Mesh,
            SystemTopology::OptBus,
            SystemTopology::FlumenI,
            SystemTopology::FlumenA,
        ]
    }

    /// Display name (paper Fig. 13 abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            SystemTopology::Ring => "ring",
            SystemTopology::Mesh => "mesh",
            SystemTopology::OptBus => "optbus",
            SystemTopology::FlumenI => "flumen_i",
            SystemTopology::FlumenA => "flumen_a",
        }
    }

    /// The matching energy model.
    pub fn nop_kind(&self) -> NopKind {
        match self {
            SystemTopology::Ring => NopKind::Ring,
            SystemTopology::Mesh => NopKind::Mesh,
            SystemTopology::OptBus => NopKind::OptBus,
            SystemTopology::FlumenI => NopKind::FlumenComm,
            SystemTopology::FlumenA => NopKind::FlumenAccel,
        }
    }
}

/// End-to-end runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// System (cores/caches) parameters.
    pub system: SystemConfig,
    /// Task-generation tuning.
    pub taskgen: TaskGenConfig,
    /// MZIM control unit parameters (Flumen-A).
    pub control: ControlUnitParams,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Simulation cycle budget.
    pub max_cycles: u64,
    /// Link-utilization sampling window (0 = off).
    pub trace_interval: u64,
}

/// The most-square factorization of `n` for a mesh layout.
///
/// # Panics
///
/// Panics when `n` has no `≥2 × ≥2` factorization (e.g. primes).
fn mesh_dims(n: usize) -> (usize, usize) {
    let mut w = (n as f64).sqrt() as usize;
    while w >= 2 {
        if n.is_multiple_of(w) && n / w >= 2 {
            return (w, n / w);
        }
        w -= 1;
    }
    panic!("{n} chiplets cannot form a ≥2×2 mesh");
}

impl RuntimeConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RuntimeConfig {
            system: SystemConfig::paper(),
            taskgen: TaskGenConfig::default(),
            control: ControlUnitParams::paper(),
            energy: EnergyParams::paper_7nm(),
            max_cycles: 80_000_000,
            trace_interval: 0,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::paper()
    }
}

/// Result of one benchmark × topology run.
#[derive(Debug, Clone)]
pub struct FullRunResult {
    /// Which topology ran.
    pub topology: SystemTopology,
    /// Benchmark name.
    pub benchmark: String,
    /// Runtime in core cycles.
    pub cycles: u64,
    /// Runtime in seconds.
    pub seconds: f64,
    /// Whether the run hit `max_cycles` before the system quiesced. A
    /// truncated run's counters describe an incomplete execution; result
    /// tables and sweep records flag it rather than silently reporting
    /// the numbers as a finished benchmark.
    pub truncated: bool,
    /// Activity counters.
    pub counts: ActivityCounts,
    /// Network statistics.
    pub net_stats: NetStats,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Link-utilization trace (when enabled).
    pub utilization_trace: Vec<f64>,
}

impl FullRunResult {
    /// Total energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.energy.edp(self.seconds)
    }

    /// Mean packet latency over the run, cycles.
    pub fn avg_packet_latency(&self) -> Option<f64> {
        self.net_stats.avg_latency()
    }
}

/// Runs `bench` on `topology`.
///
/// A simulation that exceeds `cfg.max_cycles` without quiescing (deadlock
/// or an undersized cycle budget) returns with
/// [`FullRunResult::truncated`] set instead of panicking; consumers decide
/// whether a partial run is usable.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
) -> FullRunResult {
    run_benchmark_traced(bench, topology, cfg, TraceHandle::disabled())
}

/// Runs `bench` on `topology` with a structured-event tracer installed:
/// the system engine, attached network and (for Flumen-A) the MZIM
/// control unit all emit through `tracer`. With the disabled handle this
/// is exactly [`run_benchmark`].
pub fn run_benchmark_traced(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    tracer: TraceHandle,
) -> FullRunResult {
    run_benchmark_plan(&bench.plan(), topology, cfg, &tracer, None)
}

/// Runs a workload plan on `topology`: builds the topology's network and
/// server, traces through `tracer` and checkpoints through `policy` when
/// one is given. A full-system run reads only job shapes, so this is
/// every `run_benchmark*` call with the benchmark's data left out; the
/// result is the same as running the benchmark the plan came from.
pub fn run_benchmark_plan(
    plan: &WorkloadPlan,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    tracer: &TraceHandle,
    policy: Option<&CheckpointPolicy>,
) -> FullRunResult {
    let mode = match topology {
        SystemTopology::FlumenA => ExecMode::Offload,
        _ => ExecMode::Local,
    };
    let tasks = taskgen::generate_plan(plan, &cfg.system, mode, &cfg.taskgen);

    let chiplets = cfg.system.chiplets;
    let crossbar = || MzimCrossbar::new(chiplets, CrossbarConfig::default()).expect("crossbar");
    let r = match topology {
        SystemTopology::Ring | SystemTopology::Mesh => {
            let shape = if topology == SystemTopology::Ring {
                flumen_noc::RoutedTopology::Ring { nodes: chiplets }
            } else {
                let (width, height) = mesh_dims(chiplets);
                flumen_noc::RoutedTopology::Mesh { width, height }
            };
            let net = || {
                RoutedNetwork::new(shape, flumen_noc::RoutedConfig::default())
                    .expect("ring of ≥3 or mesh of ≥2×2 chiplets")
            };
            run_sim(net, NullServer::default, cfg, tasks, tracer, policy)
        }
        SystemTopology::OptBus => {
            let net =
                || OpticalBus::new(chiplets, flumen_noc::BusConfig::default()).expect("optbus");
            run_sim(net, NullServer::default, cfg, tasks, tracer, policy)
        }
        SystemTopology::FlumenI => {
            run_sim(crossbar, NullServer::default, cfg, tasks, tracer, policy)
        }
        SystemTopology::FlumenA => {
            let server = || {
                let mut server = MzimControlUnit::new(cfg.control.clone());
                server.set_tracer(tracer.clone());
                server
            };
            run_sim(crossbar, server, cfg, tasks, tracer, policy)
        }
    };

    finish_result(plan.name, topology, cfg, r)
}

fn finish_result(
    benchmark: &str,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    r: RunResult,
) -> FullRunResult {
    let seconds = cfg.system.cycles_to_seconds(r.cycles);
    let energy = system_energy(
        &r.counts,
        &r.net_stats,
        seconds,
        cfg.system.cores,
        topology.nop_kind(),
        &cfg.energy,
    );
    FullRunResult {
        topology,
        benchmark: benchmark.to_string(),
        cycles: r.cycles,
        seconds,
        truncated: r.truncated,
        counts: r.counts,
        net_stats: r.net_stats,
        energy,
        utilization_trace: r.utilization_trace,
    }
}

/// Runs a benchmark on a photonic crossbar with a reduced wavelength count
/// (Fig. 1's bandwidth sensitivity: 16/32/64 λ ↔ 64/128/256 bits/cycle),
/// recording the link-utilization trace.
pub fn run_utilization_trace(
    bench: &dyn Benchmark,
    lambdas: usize,
    trace_interval: u64,
    cfg: &RuntimeConfig,
) -> FullRunResult {
    let bits_per_cycle = (lambdas * 4) as u32; // 10 Gbps/λ at 2.5 GHz
    let net = || {
        let xbar = CrossbarConfig {
            bits_per_cycle,
            ..CrossbarConfig::default()
        };
        MzimCrossbar::new(cfg.system.chiplets, xbar).expect("16-node crossbar")
    };
    let tasks = taskgen::generate(bench, &cfg.system, ExecMode::Local, &cfg.taskgen);
    let cfg = RuntimeConfig {
        trace_interval,
        ..cfg.clone()
    };
    let r = run_sim(
        net,
        NullServer::default,
        &cfg,
        tasks,
        &TraceHandle::disabled(),
        None,
    );
    finish_result(bench.name(), SystemTopology::FlumenI, &cfg, r)
}

/// Where and how often a checkpointed run snapshots itself.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Store the checkpoint files live in; its counters record failed
    /// writes and rejected snapshots.
    pub store: ByteStore,
    /// Configuration fingerprint stamped into every envelope — typically
    /// the sweep job's content hash, which commits to the full runtime
    /// configuration. A checkpoint written under a different key (or
    /// snapshot version) never restores.
    pub key: String,
    /// Snapshot interval in cycles (minimum 1).
    pub every_cycles: u64,
}

/// Runs `bench` on `topology`, writing a checkpoint every
/// `policy.every_cycles` cycles and resuming from the newest valid
/// checkpoint if one exists. Completion deletes the job's checkpoints.
///
/// Checkpoints are published atomically, so a run killed at any point —
/// including mid-write — resumes from the last complete snapshot and
/// produces bit-identical results to an uninterrupted run. Checkpoint
/// I/O never stops the run: a failed write is counted in the policy's
/// store and the run continues, and a snapshot that does not restore
/// means a cold start.
pub fn run_benchmark_checkpointed(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    policy: &CheckpointPolicy,
    tracer: TraceHandle,
) -> FullRunResult {
    run_benchmark_plan(&bench.plan(), topology, cfg, &tracer, Some(policy))
}

/// Runs one system simulation. `net` and `server` build the components;
/// they are called again only if a checkpoint fails to restore, since a
/// failed restore may have applied part of the snapshot.
fn run_sim<N, S>(
    net: impl Fn() -> N,
    server: impl Fn() -> S,
    cfg: &RuntimeConfig,
    tasks: Vec<Vec<flumen_system::CoreTask>>,
    tracer: &TraceHandle,
    policy: Option<&CheckpointPolicy>,
) -> RunResult
where
    N: flumen_noc::Network + Snapshotable,
    S: flumen_system::ExternalServer<N> + Snapshotable,
{
    let build = |tasks| {
        let mut sim = SystemSim::new(cfg.system.clone(), net(), server(), tasks);
        sim.set_tracer(tracer.clone());
        sim.set_trace_interval(cfg.trace_interval);
        sim
    };
    let Some(policy) = policy else {
        return build(tasks).run(cfg.max_cycles);
    };
    let mut sim = match policy.load_latest() {
        None => build(tasks),
        Some(snap) => {
            let mut sim = build(tasks.clone());
            if sim.restore(&snap.state).is_ok() {
                let now = sim.cycle();
                tracer.emit(|| TraceEvent::instant(TraceCategory::System, "resume", now, 0));
                sim
            } else {
                build(tasks)
            }
        }
    };

    // Run to each multiple of `every` in turn so the simulation can be
    // snapshotted there; an idle skip never jumps past one. The final
    // consuming `run` call finds the system already finished (or already
    // out of budget) and only performs result finalization, so the outcome
    // is identical to an uninterrupted `SystemSim::run`.
    let every = policy.every_cycles.max(1);
    let mut ctx = SimCtx::new(0);
    while !sim.finished() && sim.cycle() < cfg.max_cycles {
        let boundary = (sim.cycle() / every + 1) * every;
        let mut clock = Clock::at(Cycles::new(sim.cycle()));
        run_until(
            &mut sim,
            &mut ctx,
            &mut clock,
            Cycles::new(boundary.min(cfg.max_cycles)),
        );
        let now = sim.cycle();
        if now.is_multiple_of(every)
            && !sim.finished()
            && now < cfg.max_cycles
            && policy.write(now, sim.snapshot())
        {
            tracer.emit(|| TraceEvent::instant(TraceCategory::System, "checkpoint", now, 0));
        }
    }
    let result = sim.run(cfg.max_cycles);
    policy.clear();
    result
}

impl CheckpointPolicy {
    /// Checkpoint entry name: fixed-width decimal cycle so lexicographic
    /// order is cycle order.
    fn name(&self, cycle: u64) -> String {
        format!("{}.{cycle:020}.ckpt.json", self.key)
    }

    /// This job's checkpoint entry names, oldest first.
    fn names(&self) -> Vec<String> {
        let prefix = format!("{}.", self.key);
        let mut names = self.store.names(".ckpt.json");
        names.retain(|n| n.starts_with(&prefix));
        names
    }

    /// This job's checkpoint files, oldest first.
    pub fn files(&self) -> Vec<PathBuf> {
        self.names().iter().map(|n| self.store.path(n)).collect()
    }

    /// The newest checkpoint whose envelope validates (checksum, version
    /// and key). Unreadable or foreign files are skipped, not fatal: a
    /// damaged or stale checkpoint simply falls back to the previous one
    /// (or a cold start).
    pub fn load_latest(&self) -> Option<Snapshot> {
        self.names().iter().rev().find_map(|name| {
            self.store.load(name, |bytes| {
                let j = flumen_sim::Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
                Snapshot::from_json(&j, &self.key).ok()
            })
        })
    }

    /// Atomically writes component `state` captured at `cycle` as this
    /// job's newest checkpoint, then prunes older ones. Returns whether
    /// the checkpoint landed; a failure is counted in the store and leaves
    /// the older checkpoints in place.
    pub fn write(&self, cycle: u64, state: flumen_sim::Json) -> bool {
        let snap = Snapshot::new(self.key.clone(), flumen_units::Cycles::new(cycle), state);
        let name = self.name(cycle);
        if !self
            .store
            .put(&name, snap.to_json().to_canonical().as_bytes())
        {
            return false;
        }
        // Prune everything older: the entry just published is complete,
        // so earlier checkpoints only waste space.
        for old in self.names() {
            if old != name {
                self.store.remove(&old);
            }
        }
        true
    }

    /// Removes every checkpoint of this job (called on completion).
    pub fn clear(&self) {
        for name in self.names() {
            self.store.remove(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_workloads::Rotation3d;

    #[test]
    fn topology_names_and_kinds_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SystemTopology::all().iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(SystemTopology::FlumenA.nop_kind(), NopKind::FlumenAccel);
        assert_eq!(SystemTopology::Mesh.nop_kind(), NopKind::Mesh);
    }

    #[test]
    fn paper_config_is_consistent() {
        let cfg = RuntimeConfig::paper();
        assert_eq!(cfg.system.chiplets, 16);
        assert_eq!(
            cfg.control.fabric_n * cfg.control.chiplets_per_wire,
            cfg.system.chiplets
        );
        assert!(cfg.max_cycles > 1_000_000);
    }

    #[test]
    fn result_accessors_are_consistent() {
        let cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        let r = run_benchmark(&Rotation3d::small(), SystemTopology::Mesh, &cfg);
        assert!((r.edp() - r.total_energy_j() * r.seconds).abs() < 1e-18);
        assert!((r.seconds - r.cycles as f64 / 2.5e9).abs() < 1e-15);
        assert_eq!(r.topology, SystemTopology::Mesh);
        assert_eq!(r.benchmark, "rotation_3d");
    }

    #[test]
    fn truncation_is_surfaced_not_fatal() {
        let cfg = RuntimeConfig {
            max_cycles: 50,
            ..RuntimeConfig::paper()
        };
        let r = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenA, &cfg);
        assert!(r.truncated);
        assert_eq!(r.cycles, 50);
    }

    #[test]
    fn checkpointed_run_resumes_identically() {
        let cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        let bench = Rotation3d::small();
        let dir = std::env::temp_dir().join(format!("flumen-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            store: ByteStore::open(&dir),
            key: "job".into(),
            every_cycles: 1000,
        };
        let reference = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);

        // Interrupted run: drive the same simulation partway by hand and
        // leave its checkpoint on disk, as if the process died right after
        // writing it.
        {
            let tasks = taskgen::generate(&bench, &cfg.system, ExecMode::Offload, &cfg.taskgen);
            let net = MzimCrossbar::new(cfg.system.chiplets, CrossbarConfig::default()).unwrap();
            let server = MzimControlUnit::new(cfg.control.clone());
            let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks);
            for _ in 0..reference.cycles / 2 {
                sim.step();
            }
            assert!(!sim.finished(), "checkpoint must land mid-run");
            assert!(policy.write(sim.cycle(), sim.snapshot()));
        }

        let resumed = run_benchmark_checkpointed(
            &bench,
            SystemTopology::FlumenA,
            &cfg,
            &policy,
            TraceHandle::disabled(),
        );
        assert!(!resumed.truncated);
        assert_eq!(resumed.cycles, reference.cycles);
        assert_eq!(resumed.counts, reference.counts);
        assert_eq!(resumed.seconds.to_bits(), reference.seconds.to_bits());
        assert_eq!(
            resumed.total_energy_j().to_bits(),
            reference.total_energy_j().to_bits()
        );
        assert_eq!(resumed.net_stats.delivered, reference.net_stats.delivered);
        assert_eq!(
            resumed.net_stats.latency_sum,
            reference.net_stats.latency_sum
        );
        // Completion removed the job's checkpoints.
        assert!(policy.files().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_io_failures_never_change_the_result() {
        let cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        let bench = Rotation3d::small();
        let reference = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);
        let run = |store: ByteStore| {
            let policy = CheckpointPolicy {
                store,
                key: "job".into(),
                every_cycles: 50,
            };
            let tracer = TraceHandle::disabled();
            let r =
                run_benchmark_checkpointed(&bench, SystemTopology::FlumenA, &cfg, &policy, tracer);
            assert_eq!(r.cycles, reference.cycles);
            assert_eq!(r.counts, reference.counts);
            assert_eq!(
                r.total_energy_j().to_bits(),
                reference.total_energy_j().to_bits()
            );
            policy.store.stats()
        };

        // Unwritable store (a regular file where the directory should be):
        // every checkpoint write fails, is counted, and the run goes on.
        let tmp = std::env::temp_dir();
        let blocked = tmp.join(format!("flumen-ckpt-blocked-{}", std::process::id()));
        std::fs::write(&blocked, b"not a directory").unwrap();
        let stats = run(ByteStore::open(&blocked));
        assert!(stats.write_failures > 0);
        assert_eq!(stats.writes, 0);
        let _ = std::fs::remove_file(&blocked);

        // A checkpoint whose envelope validates but whose state does not
        // restore: the run starts cold.
        let dir = tmp.join(format!("flumen-ckpt-bad-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ByteStore::open(&dir);
        let bad = Snapshot::new(
            "job",
            flumen_units::Cycles::new(500),
            flumen_sim::Json::Null,
        );
        assert!(store.put(
            &format!("job.{:020}.ckpt.json", 500),
            bad.to_json().to_canonical().as_bytes()
        ));
        assert_eq!(run(store).hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_interval_controls_sampling() {
        let mut cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        cfg.trace_interval = 0;
        let r0 = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenI, &cfg);
        assert!(r0.utilization_trace.is_empty());
        cfg.trace_interval = 100;
        let r1 = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenI, &cfg);
        assert!(!r1.utilization_trace.is_empty());
    }
}

// JSON bridges (canonical serialized form; field names feed sweep job
// hashes and result files). Topologies serialize as their established
// display names.
impl flumen_sim::ToJson for SystemTopology {
    fn to_json(&self) -> flumen_sim::Json {
        flumen_sim::Json::Str(self.name().to_string())
    }
}

impl flumen_sim::FromJson for SystemTopology {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        let name = j.as_str()?;
        SystemTopology::all()
            .into_iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| flumen_sim::JsonError(format!("unknown topology {name:?}")))
    }
}

flumen_sim::json_struct!(RuntimeConfig {
    system,
    taskgen,
    control,
    energy,
    max_cycles,
    trace_interval
});

flumen_sim::json_struct!(FullRunResult {
    topology,
    benchmark,
    cycles,
    seconds,
    truncated,
    counts,
    net_stats,
    energy,
    utilization_trace,
});
