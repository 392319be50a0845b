//! Checkpoints land on the same cycles with the engine's idle skip as they
//! did tick by tick: on every multiple of the interval that the run passes
//! before it finishes. A run killed right after one resumes from it
//! bit-identically.

use flumen::{
    run_benchmark, run_benchmark_checkpointed, CheckpointPolicy, FullRunResult, RuntimeConfig,
    SystemTopology,
};
use flumen_linalg::store::ByteStore;
use flumen_trace::{TraceEvent, TraceHandle, Tracer};
use flumen_workloads::Rotation3d;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

const EVERY: u64 = 40;

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    }
}

/// Records the cycle of every `checkpoint` event, and panics (a kill)
/// right after the `kill_after`-th.
#[derive(Default)]
struct Checkpoints {
    cycles: Mutex<Vec<u64>>,
    kill_after: Option<usize>,
}

impl Tracer for Checkpoints {
    fn record(&self, ev: TraceEvent) {
        if ev.name != "checkpoint" {
            return;
        }
        let written = {
            let mut cycles = self.cycles.lock().unwrap();
            cycles.push(ev.ts);
            cycles.len()
        };
        assert_ne!(Some(written), self.kill_after, "killed after a checkpoint");
    }
}

fn policy(tag: &str) -> CheckpointPolicy {
    let dir = std::env::temp_dir().join(format!("flumen-cadence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointPolicy {
        store: ByteStore::open(&dir),
        key: "job".into(),
        every_cycles: EVERY,
    }
}

fn run(
    topology: SystemTopology,
    policy: &CheckpointPolicy,
    tracer: &Arc<Checkpoints>,
) -> FullRunResult {
    let handle = TraceHandle::new(tracer.clone());
    run_benchmark_checkpointed(&Rotation3d::small(), topology, &cfg(), policy, handle)
}

fn assert_same(a: &FullRunResult, b: &FullRunResult) {
    assert_eq!(a.cycles, b.cycles);
    assert!(!a.truncated && !b.truncated);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.net_stats.latency_sum, b.net_stats.latency_sum);
    assert_eq!(a.net_stats.link_busy, b.net_stats.link_busy);
    assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
}

#[test]
fn checkpoints_land_on_every_interval_multiple() {
    for topology in SystemTopology::all() {
        let reference = run_benchmark(&Rotation3d::small(), topology, &cfg());
        let policy = policy(topology.name());
        let tracer = Arc::new(Checkpoints::default());
        let r = run(topology, &policy, &tracer);
        assert_same(&r, &reference);
        let want: Vec<u64> = (1..)
            .map(|k| k * EVERY)
            .take_while(|&c| c < reference.cycles)
            .collect();
        assert!(want.len() >= 3, "{} cycles is too short", reference.cycles);
        assert_eq!(*tracer.cycles.lock().unwrap(), want, "{}", topology.name());
        assert!(policy.files().is_empty());
        let _ = std::fs::remove_dir_all(policy.store.dir());
    }
}

#[test]
fn run_killed_after_a_checkpoint_resumes_bit_identically() {
    let topology = SystemTopology::FlumenA;
    let reference = run_benchmark(&Rotation3d::small(), topology, &cfg());
    let policy = policy("killed");

    let killer = Arc::new(Checkpoints {
        kill_after: Some(2),
        ..Checkpoints::default()
    });
    let killed = catch_unwind(AssertUnwindSafe(|| run(topology, &policy, &killer)));
    assert!(killed.is_err(), "the run must die at its second checkpoint");
    assert_eq!(policy.files().len(), 1, "the newest checkpoint survives");

    let tracer = Arc::new(Checkpoints::default());
    let resumed = run(topology, &policy, &tracer);
    assert_same(&resumed, &reference);
    // The resumed run goes on from the third interval multiple.
    let written = tracer.cycles.lock().unwrap().clone();
    assert_eq!(written.first(), Some(&(3 * EVERY)));
    assert!(policy.files().is_empty());
    let _ = std::fs::remove_dir_all(policy.store.dir());
}
