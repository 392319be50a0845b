//! A sweep job killed mid-run resumes from its checkpoint and produces
//! the *same content-addressed result* as an uninterrupted run.
//!
//! The interruption is fabricated the way a real one looks on disk: the
//! same simulation is driven partway by hand and its snapshot written
//! under the job's content hash, as if the worker process died right
//! after a periodic checkpoint. The re-run must pick that checkpoint up,
//! finish the remaining cycles, produce bit-identical output (verified
//! through the canonical result JSON), and clean its checkpoints up.

use flumen::{MzimControlUnit, RuntimeConfig, SystemTopology};
use flumen_noc::{CrossbarConfig, MzimCrossbar};
use flumen_sim::Snapshotable;
use flumen_sweep::hash::sha256_hex;
use flumen_sweep::{
    run_plan, BenchKind, BenchSize, BenchSpec, CheckpointStore, JobSpec, SweepOptions, SweepPlan,
    ToJson,
};
use flumen_system::SystemSim;
use flumen_workloads::taskgen::{self, ExecMode};
use flumen_workloads::Rotation3d;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flumen-sweep-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_job_resumes_to_the_same_result_hash() {
    let cfg = RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    };
    let spec = JobSpec::FullRun {
        bench: BenchSpec {
            kind: BenchKind::Rotation3d,
            size: BenchSize::Small,
        },
        topology: SystemTopology::FlumenA,
        cfg: cfg.clone(),
    };
    let mut plan = SweepPlan::new();
    plan.push(spec.clone());

    // Uninterrupted reference run.
    let cache_a = tmp_dir("cache-a");
    let reference = run_plan(&plan, &SweepOptions::serial_in(cache_a.clone()));
    let ref_json = reference.results[0].to_json().to_canonical();
    let ref_cycles = reference.results[0].full_run().cycles;

    // Fabricate the kill: drive the identical simulation halfway and
    // leave its checkpoint on disk under the job's content hash.
    let ckpt_dir = tmp_dir("ckpts");
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
        let policy = store.policy_for(&spec.content_hash());
        assert!(policy.write(sim.cycle(), sim.snapshot()));
        assert_eq!(policy.files().len(), 1);
    }

    // Re-run with checkpointing on and a fresh cache, so the job really
    // executes and must resume rather than start cold or hit the cache.
    let cache_b = tmp_dir("cache-b");
    let resumed = run_plan(
        &plan,
        &SweepOptions {
            checkpoint: Some(store.clone()),
            ..SweepOptions::serial_in(cache_b.clone())
        },
    );
    assert_eq!(resumed.executed(), 1);

    // Same spec → same job hash; resumed run → byte-identical result,
    // hence the same content-addressed result hash.
    assert_eq!(resumed.records[0].hash, reference.records[0].hash);
    let resumed_json = resumed.results[0].to_json().to_canonical();
    assert_eq!(
        sha256_hex(resumed_json.as_bytes()),
        sha256_hex(ref_json.as_bytes())
    );
    assert!(!resumed.results[0].full_run().truncated);

    // Completion cleared the job's checkpoints.
    assert!(store.policy_for(&spec.content_hash()).files().is_empty());

    for d in [cache_a, cache_b, ckpt_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
