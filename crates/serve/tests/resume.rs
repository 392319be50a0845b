//! A serve worker killed mid-payload resumes the checkpointed request
//! to the same result hash.
//!
//! Serving executes payloads as checkpointable `flumen-sim` work items.
//! The kill is fabricated the way `flumen-sweep`'s resume test does it:
//! the same full-system simulation is driven partway by hand and its
//! snapshot written under the payload's content hash — exactly what a
//! worker process leaves on disk when it dies after a periodic
//! checkpoint. A serve run pointed at that store must resume the
//! payload, finish it, and record the *same* per-request result hash as
//! an uninterrupted run.

use flumen::{MzimControlUnit, RuntimeConfig, SystemTopology};
use flumen_noc::{CrossbarConfig, MzimCrossbar};
use flumen_serve::exec::execute_payloads;
use flumen_serve::{run_scenario, ArrivalProcess, JobMix, ScenarioSpec, ServeConfig};
use flumen_sim::{Cycles, Snapshotable};
use flumen_sweep::{BenchKind, BenchSize, BenchSpec, CheckpointStore, JobSpec};
use flumen_system::SystemSim;
use flumen_trace::TraceHandle;
use flumen_workloads::taskgen::{self, ExecMode};
use flumen_workloads::Rotation3d;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flumen-serve-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_worker_resumes_request_to_the_same_hash() {
    let cfg = RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    };
    let payload = JobSpec::FullRun {
        bench: BenchSpec {
            kind: BenchKind::Rotation3d,
            size: BenchSize::Small,
        },
        topology: SystemTopology::FlumenA,
        cfg: cfg.clone(),
    };
    let spec = ScenarioSpec {
        name: "resume".into(),
        process: ArrivalProcess::Poisson { rate: 30.0 },
        horizon: Cycles::new(500_000),
        clients: 2,
        seed: 0x5E,
        mix: JobMix::new(vec![(1.0, payload.clone())]),
    };
    let serve_cfg = ServeConfig {
        workers: 2,
        exec_threads: 2,
        ..ServeConfig::default()
    };
    let trace = TraceHandle::disabled();

    // Uninterrupted reference run (no checkpoint store).
    let reference = run_scenario(&spec, &serve_cfg, None, &trace).expect("reference serve");
    let ref_hash = reference.result_hash();
    let ref_cycles = execute_payloads(std::slice::from_ref(&payload), 1, None)
        .get(&payload.content_hash())
        .expect("payload executed")
        .service
        .value();

    // Fabricate the kill: drive the identical payload simulation halfway
    // and leave its snapshot under the payload's content hash.
    let ckpt_dir = tmp_dir("store");
    let store = CheckpointStore::new(ckpt_dir.clone(), 1_000);
    {
        let bench = Rotation3d::small();
        let tasks = taskgen::generate(&bench, &cfg.system, ExecMode::Offload, &cfg.taskgen);
        let net = MzimCrossbar::new(cfg.system.chiplets, CrossbarConfig::default()).unwrap();
        let server = MzimControlUnit::new(cfg.control.clone());
        let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks);
        for _ in 0..ref_cycles / 2 {
            sim.step();
        }
        assert!(!sim.finished(), "checkpoint must land mid-run");
        let policy = store.policy_for(&payload.content_hash());
        assert!(policy.write(sim.cycle(), sim.snapshot()));
        assert_eq!(policy.files().len(), 1);
    }

    // Serve again, resuming the payload from the checkpoint: identical
    // per-request result hashes, hence an identical report hash.
    let resumed = run_scenario(&spec, &serve_cfg, Some(&store), &trace).expect("resumed serve");
    assert_eq!(resumed.result_hash(), ref_hash);
    assert!(
        resumed.counters.admitted > 0,
        "scenario must serve requests"
    );
    for (a, b) in reference.records.iter().zip(&resumed.records) {
        assert_eq!(a.result_hash, b.result_hash, "request {}", a.id);
    }

    // Completion cleared the payload's checkpoints.
    assert!(store.policy_for(&payload.content_hash()).files().is_empty());
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
