//! Engine-level guarantees: parallel == serial, order-independence, and
//! cache hit/miss/invalidation across whole plans.
//!
//! The jobs are tiny NoC latency points (hundreds of cycles), so the
//! whole file runs in well under a second while still exercising the real
//! simulator, the worker pool, and the on-disk cache.

use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{run_plan, JobSpec, NetSpec, ResultCache, SweepOptions, SweepPlan, ToJson};
use std::path::{Path, PathBuf};

fn tiny_cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup: 50,
        measure: 300,
        seed,
        ..RunConfig::default()
    }
}

/// A 12-job plan mixing networks, patterns, loads and seeds.
fn sample_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    for (i, net) in [
        NetSpec::Ring { nodes: 8 },
        NetSpec::Mesh {
            width: 2,
            height: 4,
        },
        NetSpec::OptBus { nodes: 8 },
        NetSpec::Flumen { nodes: 8 },
    ]
    .into_iter()
    .enumerate()
    {
        for (j, pattern) in [
            TrafficPattern::UniformRandom,
            TrafficPattern::Shuffle,
            TrafficPattern::Transpose,
        ]
        .into_iter()
        .enumerate()
        {
            plan.push(JobSpec::NocPoint {
                net,
                pattern,
                load: 0.05 + 0.05 * j as f64,
                cfg: tiny_cfg((i * 3 + j) as u64),
            });
        }
    }
    plan
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flumen-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(threads: usize, dir: &Path) -> SweepOptions {
    SweepOptions {
        threads,
        force: false,
        cache_dir: dir.to_path_buf(),
        verbose: false,
        checkpoint: None,
    }
}

/// Latency points compare exactly: the simulator is integer-cycle based
/// and fully seeded, so equal specs must give bit-equal floats.
fn assert_same_results(a: &flumen_sweep::SweepReport, b: &flumen_sweep::SweepReport) {
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.results.iter().zip(&b.results) {
        let (p, q) = (x.latency(), y.latency());
        assert_eq!(p.avg_latency.to_bits(), q.avg_latency.to_bits());
        assert_eq!(p.throughput.to_bits(), q.throughput.to_bits());
        assert_eq!(p.link_utilization.to_bits(), q.link_utilization.to_bits());
        assert_eq!(p.saturated, q.saturated);
    }
}

#[test]
fn parallel_matches_serial_bit_for_bit() {
    let plan = sample_plan();
    let d1 = tmp_dir("serial");
    let d4 = tmp_dir("par4");

    let serial = run_plan(&plan, &opts(1, &d1));
    let parallel = run_plan(&plan, &opts(4, &d4));
    assert_eq!(serial.executed(), plan.len());
    assert_eq!(parallel.executed(), plan.len());
    assert_same_results(&serial, &parallel);
    // Same specs → same hashes, independent of thread count.
    for (r, s) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(r.hash, s.hash);
    }

    std::fs::remove_dir_all(&d1).unwrap();
    std::fs::remove_dir_all(&d4).unwrap();
}

#[test]
fn shuffled_plan_order_gives_identical_per_job_results() {
    let plan = sample_plan();
    // Deterministic shuffle: reverse + interleave halves.
    let mut shuffled = SweepPlan::new();
    let jobs = plan.jobs();
    let half = jobs.len() / 2;
    for i in 0..half {
        shuffled.push(jobs[jobs.len() - 1 - i].clone());
        shuffled.push(jobs[i].clone());
    }
    assert_eq!(shuffled.len(), plan.len());

    let da = tmp_dir("order-a");
    let db = tmp_dir("order-b");
    let a = run_plan(&plan, &opts(2, &da));
    let b = run_plan(&shuffled, &opts(2, &db));

    // Match jobs across the two orders by content hash.
    for (rec, res) in a.records.iter().zip(&a.results) {
        let pos = b
            .records
            .iter()
            .position(|r| r.hash == rec.hash)
            .expect("job present");
        assert_eq!(
            res.latency().avg_latency.to_bits(),
            b.results[pos].latency().avg_latency.to_bits()
        );
    }

    std::fs::remove_dir_all(&da).unwrap();
    std::fs::remove_dir_all(&db).unwrap();
}

#[test]
fn second_run_is_all_cache_hits_and_identical() {
    let plan = sample_plan();
    let dir = tmp_dir("rerun");

    let first = run_plan(&plan, &opts(2, &dir));
    assert_eq!(first.cache_hits(), 0);

    let second = run_plan(&plan, &opts(2, &dir));
    assert_eq!(second.cache_hits(), plan.len());
    assert_eq!(second.executed(), 0);
    assert!((second.hit_rate() - 1.0).abs() < 1e-12);
    assert_same_results(&first, &second);

    // Force bypasses the cache but still lands on the same numbers.
    let forced = run_plan(
        &plan,
        &SweepOptions {
            threads: 2,
            force: true,
            cache_dir: dir.clone(),
            verbose: false,
            checkpoint: None,
        },
    );
    assert_eq!(forced.cache_hits(), 0);
    assert_same_results(&first, &forced);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn changed_parameter_invalidates_only_affected_jobs() {
    let dir = tmp_dir("invalidate");
    let plan = sample_plan();
    run_plan(&plan, &opts(2, &dir));

    // Nudge the seed of the first job only: exactly one miss on re-run.
    let mut tweaked = SweepPlan::new();
    for (i, job) in plan.jobs().iter().enumerate() {
        if i == 0 {
            let JobSpec::NocPoint {
                net,
                pattern,
                load,
                cfg,
            } = job.clone()
            else {
                unreachable!("sample plan is all NoC points");
            };
            tweaked.push(JobSpec::NocPoint {
                net,
                pattern,
                load,
                cfg: RunConfig {
                    seed: cfg.seed + 1000,
                    ..cfg
                },
            });
        } else {
            tweaked.push(job.clone());
        }
    }
    let rerun = run_plan(&tweaked, &opts(2, &dir));
    assert_eq!(rerun.executed(), 1);
    assert_eq!(rerun.cache_hits(), plan.len() - 1);
    assert!(!rerun.records[0].cached);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_jobs_execute_once_and_share_the_result() {
    let dir = tmp_dir("dedup");
    let job = JobSpec::NocPoint {
        net: NetSpec::Ring { nodes: 8 },
        pattern: TrafficPattern::UniformRandom,
        load: 0.1,
        cfg: tiny_cfg(42),
    };
    let mut plan = SweepPlan::new();
    for _ in 0..5 {
        plan.push(job.clone());
    }
    let report = run_plan(&plan, &opts(4, &dir));
    // All five positions resolve, but only one entry was ever simulated
    // and cached.
    assert_eq!(report.results.len(), 5);
    assert_eq!(ResultCache::open(&dir).len(), 1);
    let first = report.results[0].latency().avg_latency.to_bits();
    for r in &report.results {
        assert_eq!(r.latency().avg_latency.to_bits(), first);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_cache_dir_only_counts_write_failures() {
    let plan = sample_plan();
    let good = tmp_dir("writable");
    let reference = run_plan(&plan, &opts(2, &good));

    // A regular file where the cache directory should be: every write
    // fails, whatever the process's privileges.
    let blocked = tmp_dir("blocked");
    std::fs::write(&blocked, b"not a directory").unwrap();
    let report = run_plan(&plan, &opts(2, &blocked));
    assert_eq!(report.executed(), plan.len());
    assert_eq!(report.cache.write_failures, plan.len() as u64);
    assert_eq!(report.cache.writes, 0);
    for (a, b) in reference.results.iter().zip(&report.results) {
        assert_eq!(a.to_json().to_canonical(), b.to_json().to_canonical());
    }

    std::fs::remove_dir_all(&good).unwrap();
    std::fs::remove_file(&blocked).unwrap();
}

#[test]
fn failed_renames_only_count_write_failures() {
    let plan = sample_plan();
    let good = tmp_dir("rename-reference");
    let reference = run_plan(&plan, &opts(2, &good));

    // A non-empty directory at every job's entry name: each result's temp
    // file is written, but the rename that publishes it fails, whatever
    // the process's privileges.
    let blocked = tmp_dir("rename-blocked");
    let cache = ResultCache::open(&blocked);
    for job in plan.jobs() {
        std::fs::create_dir_all(cache.entry_path(&job.content_hash()).join("occupant")).unwrap();
    }
    let report = run_plan(&plan, &opts(2, &blocked));
    assert_eq!(report.executed(), plan.len());
    assert_eq!(report.cache.write_failures, plan.len() as u64);
    assert_eq!(report.cache.writes, 0);
    for (a, b) in reference.results.iter().zip(&report.results) {
        assert_eq!(a.to_json().to_canonical(), b.to_json().to_canonical());
    }
    let temps = std::fs::read_dir(&blocked)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .count();
    assert_eq!(temps, 0, "failed publishes leave no temp files");

    std::fs::remove_dir_all(&good).unwrap();
    std::fs::remove_dir_all(&blocked).unwrap();
}
