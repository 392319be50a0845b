//! `bench_perf` — the performance trajectory of the photonic compute
//! pipeline, before vs after the cache-efficiency work.
//!
//! Measures four layers with the vendored criterion stand-in and writes
//! `BENCH_perf.json` (repo root, or `FLUMEN_BENCH_OUT`):
//!
//! * **matmul** — the seed's indexed-write k-outer kernel (reimplemented
//!   here as `naive_matmul`) vs the production slice-based `CMat::matmul`
//!   / `matmul_into`. (The transposed-B `matmul_blocked` variant was
//!   deleted: the paired gate showed it consistently below naive at mesh
//!   sizes, and a losing kernel in the gate is noise.)
//! * **mvm_batched** — the batched-MVM primitive at batch 1/8/64: each
//!   round programs the fabric cold (`clear_program_cache` +
//!   `set_partitions`) and streams the batch, so the row measures
//!   1×programming + B×propagation and the per-vector cost shows the
//!   amortization the power model splits the same way.
//! * **decompose** — an embed-materializing Clements baseline (every 2×2
//!   Givens rotation built as an `N×N` matrix and applied with the naive
//!   kernel, the seed's cost profile) vs the in-place `clements::decompose`.
//! * **fabric program** — the three-tier programming trajectory:
//!   `FlumenFabric::set_partitions` cold (SVD + two Clements
//!   decompositions per call), in-memory cache hit, disk-warm (program
//!   library load + replay), and fleet-warm (a fresh fabric sharing the
//!   library).
//! * **delta reprogram** — full state restore vs the incremental MZI
//!   phase-diff path on adjacent (one shared partition) and disjoint
//!   partition states.
//! * **offload taskgen** — per-core task-queue generation in offload mode
//!   (now content-addresses every weight strip) plus a reduced Fig. 14
//!   Mesh-vs-Flumen-A run for an end-to-end wall-clock anchor.
//!
//! `--quick` runs one sample per benchmark and the smallest fig14 subset
//! (the CI smoke configuration); a full run takes a few minutes.

use criterion::{BenchResult, BenchmarkId, Criterion};
use flumen::SystemTopology;
use flumen_bench::{quick_mode, speedup};
use flumen_linalg::{random_unitary, CMat, RMat, C64};
use flumen_photonics::clements;
use flumen_photonics::{FlumenFabric, PartitionConfig, ProgStoreStats, ProgramStore};
use flumen_sweep::{BenchSize, BenchSpec, JobSpec};
use flumen_system::SystemConfig;
use flumen_trace::{RecordingTracer, TraceCategory, TraceEvent};
use flumen_workloads::taskgen::{generate, ExecMode, TaskGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The seed's dense kernel: k-outer loop accumulating straight into the
/// indexed output element. Kept here as the "before" measurement; the
/// proptest suite pins `CMat::matmul` bit-identical to this ordering.
fn naive_matmul(a: &CMat, b: &CMat) -> CMat {
    assert_eq!(a.cols(), b.rows());
    let mut out = CMat::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(r, k)];
            if av == C64::ZERO {
                continue;
            }
            for c in 0..b.cols() {
                let t = out[(r, c)] + av * b[(k, c)];
                out[(r, c)] = t;
            }
        }
    }
    out
}

/// Cost model of the pre-optimization Clements decomposition: each of the
/// `n(n−1)/2` Givens rotations materialized as an embedded `n×n` matrix
/// and applied with the naive kernel. The rotation angles are arbitrary —
/// only the arithmetic shape (allocation + full matmul per rotation)
/// matters for the before/after comparison.
fn decompose_embed_baseline(u: &CMat) -> CMat {
    let n = u.rows();
    let mut work = u.clone();
    let mut step = 0usize;
    for sweep in 0..n {
        for i in 0..n.saturating_sub(1 + sweep % 2) {
            if step >= n * (n - 1) / 2 {
                return work;
            }
            step += 1;
            let (theta, phi) = (0.3 + 0.01 * step as f64, 0.7 + 0.02 * step as f64);
            let (c, s) = (theta.cos(), theta.sin());
            let w = C64::cis(phi);
            let rot = CMat::from_fn(n, n, |r, col| {
                if r == i && col == i {
                    w * C64::from_re(c)
                } else if r == i && col == i + 1 {
                    w * C64::from_re(-s)
                } else if r == i + 1 && col == i {
                    C64::from_re(s)
                } else if r == i + 1 && col == i + 1 {
                    C64::from_re(c)
                } else if r == col {
                    C64::from_re(1.0)
                } else {
                    C64::ZERO
                }
            });
            work = naive_matmul(&rot, &work);
        }
    }
    work
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(30);
    // The matmul rows feed the <0.95× regression gate, so even the CI
    // smoke run takes enough samples for a stable min-time estimate.
    group.min_samples(7);
    for n in [16usize, 32, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = CMat::from_fn(n, n, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let b = CMat::from_fn(n, n, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        // The optimized seed-order kernel must stay bit-identical to the
        // seed's.
        assert_eq!(naive_matmul(&a, &b), a.matmul(&b));
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| naive_matmul(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("k_outer", n), &n, |bch, _| {
            bch.iter(|| a.matmul(&b))
        });
        let mut out = CMat::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("k_outer_into", n), &n, |bch, _| {
            bch.iter(|| a.matmul_into(&b, &mut out))
        });
    }
    group.finish();
}

/// The batched-MVM trajectory: each iteration programs the fabric cold
/// and streams a `B`-vector batch through `compute_batch_in`, so the
/// measured cost is exactly 1×programming + B×propagation. The derived
/// per-vector ratio (batch-1 cost vs batch-64 cost / 64) is the
/// wall-clock analogue of the power model's programming/propagation
/// split, and the regression gate holds it at ≥ 5×.
fn bench_mvm_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvm_batched");
    group.sample_size(30);
    group.min_samples(7);
    let mut rng = StdRng::seed_from_u64(17);
    let n = 8usize;
    let m = RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    let cfg = [
        (n, PartitionConfig::Compute(&m)),
        (n, PartitionConfig::Idle),
    ];
    let mut fab = FlumenFabric::new(2 * n).unwrap();
    for batch in [1usize, 8, 64] {
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bch, _| {
            bch.iter(|| {
                fab.clear_program_cache();
                fab.set_partitions(&cfg).unwrap();
                criterion::black_box(fab.compute_batch_in(0, &xs).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(20);
    for n in [16usize, 32] {
        let mut rng = StdRng::seed_from_u64(100 + n as u64);
        let u = random_unitary(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("embed_baseline", n), &n, |bch, _| {
            bch.iter(|| decompose_embed_baseline(&u))
        });
        group.bench_with_input(BenchmarkId::new("in_place", n), &n, |bch, _| {
            bch.iter(|| clements::decompose(&u).unwrap())
        });
    }
    group.finish();
}

/// The three-tier programming trajectory: cold (SVD + two Clements
/// decompositions), in-memory cache hit, disk-warm (program library
/// load and replay, memory tier cleared each round), and fleet-warm (a
/// brand-new fabric sharing the library — the replica-startup cost).
/// Returns the store's counters for the trace mirror.
fn bench_fabric_program(c: &mut Criterion) -> ProgStoreStats {
    let mut group = c.benchmark_group("fabric_program");
    group.sample_size(30);
    // 16-wide compute partitions: the decomposition cost a library entry
    // saves grows O(n³) while load+replay grows O(n²), so the tier split
    // is measured at a size where programming is actually expensive.
    let mut rng = StdRng::seed_from_u64(7);
    let m = RMat::from_fn(16, 16, |_, _| rng.gen_range(-1.0..1.0));
    let cfg = [
        (16usize, PartitionConfig::Compute(&m)),
        (16, PartitionConfig::Idle),
    ];
    let mut fab = FlumenFabric::new(32).unwrap();
    group.bench_function(BenchmarkId::from_parameter("cold"), |bch| {
        bch.iter(|| {
            fab.clear_program_cache();
            fab.set_partitions(&cfg).unwrap();
        })
    });
    let golden = fab.transfer_matrix();
    // Prime once, then every reprogram replays the cached phase lists.
    fab.set_partitions(&cfg).unwrap();
    group.bench_function(BenchmarkId::from_parameter("mem_hit"), |bch| {
        bch.iter(|| fab.set_partitions(&cfg).unwrap())
    });
    assert!(fab.program_cache_stats().hits > 0);

    // Disk-warm: the program library holds the decomposition; clearing
    // the memory tier each round makes every reprogram a store load.
    let dir = std::env::temp_dir().join(format!("flumen-bench-progstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProgramStore::open(&dir).expect("bench store dir");
    fab.set_program_store(store.clone());
    fab.clear_program_cache();
    fab.set_partitions(&cfg).unwrap(); // one cold pass writes through to disk
    assert_eq!(
        fab.transfer_matrix(),
        golden,
        "store tier must replay bit-identically"
    );
    group.bench_function(BenchmarkId::from_parameter("disk_warm"), |bch| {
        bch.iter(|| {
            fab.clear_program_cache();
            fab.set_partitions(&cfg).unwrap();
        })
    });
    assert!(store.stats().hits > 0);

    // Fleet-warm: a brand-new fabric (a fresh sweep worker / serve
    // replica) attaches the shared library and programs without ever
    // decomposing — the whole replica-startup path.
    group.bench_function(BenchmarkId::from_parameter("fleet_warm"), |bch| {
        bch.iter(|| {
            let mut f = FlumenFabric::new(32).unwrap();
            f.set_program_store(store.clone());
            f.set_partitions(&cfg).unwrap();
            criterion::black_box(&f);
        })
    });
    let mut replica = FlumenFabric::new(32).unwrap();
    replica.set_program_store(store.clone());
    replica.set_partitions(&cfg).unwrap();
    assert_eq!(
        replica.transfer_matrix(),
        golden,
        "fleet-warm replica must replay bit-identically"
    );
    group.finish();
    let stats = store.stats();
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

/// Full reprogramming vs the incremental delta path: transition a
/// programmed fabric between two partition layouts that share one
/// partition (adjacent) or nothing (disjoint). The `full` row is the
/// status-quo transition — mem-warm `set_partitions`, which replays and
/// rewrites every element even for the unchanged partition — and the
/// delta rows program only the MZIs whose phase bits differ
/// ([`FlumenFabric::apply_program_state_delta`]), the minimal set that
/// feeds the `mzim_programmed_mzis` energy term. Returns the adjacent
/// transition's changed-MZI count for the trace mirror.
fn bench_delta_reprogram(c: &mut Criterion) -> usize {
    let mut group = c.benchmark_group("delta_reprogram");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(21);
    let mat = |rng: &mut StdRng| RMat::from_fn(8, 8, |_, _| rng.gen_range(-1.0..1.0));
    let (ma, mb, mc, md, shared) = (
        mat(&mut rng),
        mat(&mut rng),
        mat(&mut rng),
        mat(&mut rng),
        mat(&mut rng),
    );
    let cfg_a = [
        (8usize, PartitionConfig::Compute(&ma)),
        (8, PartitionConfig::Compute(&shared)),
    ];
    let cfg_adj = [
        (8usize, PartitionConfig::Compute(&mb)),
        (8, PartitionConfig::Compute(&shared)), // bottom partition shared
    ];
    let mut fab = FlumenFabric::new(16).unwrap();
    fab.set_partitions(&cfg_a).unwrap();
    let state_a = fab.capture_program_state();
    fab.set_partitions(&cfg_adj).unwrap();
    let state_adj = fab.capture_program_state();
    fab.set_partitions(&[
        (8, PartitionConfig::Compute(&mc)),
        (8, PartitionConfig::Compute(&md)), // nothing shared
    ])
    .unwrap();
    let state_dis = fab.capture_program_state();

    // Equivalence spot-check (the progstore suite pins it bit-for-bit):
    // the delta path must land on exactly the state a full restore writes,
    // and the adjacent diff must be a strict subset of the mesh.
    fab.restore_program_state(&state_a).unwrap();
    let adj = fab.apply_program_state_delta(&state_adj).unwrap();
    let via_delta = fab.transfer_matrix();
    fab.restore_program_state(&state_adj).unwrap();
    assert_eq!(
        fab.transfer_matrix(),
        via_delta,
        "delta diverged from full restore"
    );
    assert!(
        adj.changed_mzis > 0 && adj.changed_mzis < adj.total_mzis,
        "adjacent transition must change some but not all MZIs ({}/{})",
        adj.changed_mzis,
        adj.total_mzis
    );

    // Both layouts are already in the program cache, so the full row
    // measures pure reprogramming (replay + rewrite everything), not
    // decomposition — the delta rows must beat *that*, not a cold pass.
    let mut flip = false;
    group.bench_function(BenchmarkId::from_parameter("full"), |bch| {
        bch.iter(|| {
            flip = !flip;
            fab.set_partitions(if flip { &cfg_adj } else { &cfg_a })
                .unwrap();
        })
    });
    let mut flip = false;
    group.bench_function(BenchmarkId::from_parameter("adjacent"), |bch| {
        bch.iter(|| {
            flip = !flip;
            fab.apply_program_state_delta(if flip { &state_adj } else { &state_a })
                .unwrap();
        })
    });
    let mut flip = false;
    group.bench_function(BenchmarkId::from_parameter("disjoint"), |bch| {
        bch.iter(|| {
            flip = !flip;
            fab.apply_program_state_delta(if flip { &state_dis } else { &state_a })
                .unwrap();
        })
    });
    group.finish();
    adj.changed_mzis
}

fn bench_offload_taskgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("offload_taskgen");
    group.sample_size(10);
    let sys = SystemConfig::paper();
    let cfg = TaskGenConfig::default();
    let bench = flumen_workloads::Vgg16Fc::small();
    group.bench_function(BenchmarkId::from_parameter("vgg_fc_small"), |bch| {
        bch.iter(|| generate(&bench, &sys, ExecMode::Offload, &cfg))
    });
    group.finish();
}

/// Reduced Fig. 14: Mesh vs Flumen-A on the small benchmark set, executed
/// directly (no result cache) so the wall time is a real end-to-end
/// anchor. Returns (geomean speedup, wall milliseconds).
fn reduced_fig14(quick: bool) -> (f64, f64) {
    let cfg = flumen::RuntimeConfig::paper();
    let mut specs = BenchSpec::all(BenchSize::Small);
    if quick {
        specs.truncate(1);
    }
    let t0 = Instant::now();
    let mut speedups = Vec::new();
    for bench in specs {
        let mut per_topo = Vec::new();
        for topology in [SystemTopology::Mesh, SystemTopology::FlumenA] {
            let job = JobSpec::FullRun {
                bench,
                topology,
                cfg: cfg.clone(),
            };
            per_topo.push(job.execute().full_run().clone());
        }
        speedups.push(speedup(per_topo[0].cycles, per_topo[1].cycles));
        println!(
            "  fig14[{}]: mesh {} / flumen-a {} cycles → {:.2}x",
            per_topo[0].benchmark,
            per_topo[0].cycles,
            per_topo[1].cycles,
            speedups.last().unwrap()
        );
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (flumen_bench::geomean(&speedups), wall_ms)
}

fn median_nanos(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.median.as_secs_f64() * 1e9)
        .unwrap_or(f64::NAN)
}

/// The regression gate: every optimized matmul variant must run at least
/// `MATMUL_REGRESSION_FLOOR` × the naive kernel's speed at every size —
/// this is the check that would have caught `k_outer_into/128` at 0.64×.
const MATMUL_REGRESSION_FLOOR: f64 = 0.95;

/// Measures the gate with *interleaved paired* sampling: every round
/// times naive and each variant back-to-back, and the verdict is each
/// variant's **best per-round ratio** against the naive time of the same
/// round. The grouped criterion rows run each variant's samples
/// consecutively, so frequency drift between groups shows up as a fake
/// 5–10% "regression" of whichever kernel ran later; pairing removes that
/// bias. Best-of-rounds makes the estimator one-sided in the right way:
/// an equal-speed kernel only needs one clean round to clear the floor
/// (machine noise here is ±5%, exactly at the threshold), while a real
/// regression is slow in *every* round and cannot luck past it.
///
/// Returns `(name, speedup-vs-naive)` for every variant/size below the
/// floor (empty when the gate passes). A failing pair is re-measured
/// once with 3× the rounds before it is declared regressed — a real
/// regression (the 0.64× bug this gate exists for) fails both passes,
/// while a one-process scheduling skew almost never survives the retry.
fn matmul_regressions(quick: bool) -> Vec<(String, f64)> {
    // NaN ratios (a zero-duration fluke) count as regressed rather than
    // silently passing the gate.
    let below_floor = |ratio: f64| !(ratio.is_finite() && ratio >= MATMUL_REGRESSION_FLOOR);
    let rounds = if quick { 9 } else { 25 };
    let variants = ["k_outer", "k_outer_into"];
    let measure = |n: usize, rounds: usize| -> [f64; 2] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a = CMat::from_fn(n, n, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let b = CMat::from_fn(n, n, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let mut out = CMat::zeros(n, n);
        let time = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e9
        };
        let mut best = [0.0f64; 2];
        for _ in 0..rounds {
            let naive = time(&mut || {
                criterion::black_box(naive_matmul(&a, &b));
            });
            let round = [
                time(&mut || {
                    criterion::black_box(a.matmul(&b));
                }),
                time(&mut || {
                    a.matmul_into(&b, &mut out);
                    criterion::black_box(&out);
                }),
            ];
            for (b, &t) in best.iter_mut().zip(round.iter()) {
                *b = b.max(naive / t);
            }
        }
        best
    };
    let mut slow = Vec::new();
    for n in [16usize, 32, 64, 128] {
        let first = measure(n, rounds);
        let mut confirm: Option<[f64; 2]> = None;
        for (i, variant) in variants.iter().enumerate() {
            let mut ratio = first[i];
            if below_floor(ratio) {
                let second = *confirm.get_or_insert_with(|| measure(n, rounds * 3));
                ratio = ratio.max(second[i]);
            }
            if below_floor(ratio) {
                slow.push((format!("matmul/{variant}/{n}"), ratio));
            }
        }
    }
    slow
}

fn main() {
    let quick = quick_mode();
    let mut c = Criterion::with_smoke(quick);
    bench_matmul(&mut c);
    bench_mvm_batched(&mut c);
    bench_decompose(&mut c);
    let progstore_stats = bench_fabric_program(&mut c);
    let delta_mzis = bench_delta_reprogram(&mut c);
    bench_offload_taskgen(&mut c);
    let results = c.take_results();

    let (fig14_geomean, fig14_wall_ms) = reduced_fig14(quick);

    let cold = median_nanos(&results, "fabric_program/cold");
    let hit = median_nanos(&results, "fabric_program/mem_hit");
    let cache_speedup = cold / hit;
    let disk_warm_speedup = cold / median_nanos(&results, "fabric_program/disk_warm");
    let fleet_warm_speedup = cold / median_nanos(&results, "fabric_program/fleet_warm");
    let delta_full = median_nanos(&results, "delta_reprogram/full");
    let delta_speedup = delta_full / median_nanos(&results, "delta_reprogram/adjacent");
    let delta_speedup_disjoint = delta_full / median_nanos(&results, "delta_reprogram/disjoint");
    let mut regressions = matmul_regressions(quick);

    // Optimized-kernel speedups vs naive (median/median).
    let matmul_speedup = |n: usize| {
        median_nanos(&results, &format!("matmul/naive/{n}"))
            / median_nanos(&results, &format!("matmul/k_outer_into/{n}"))
    };
    let (matmul_n16, matmul_n32) = (matmul_speedup(16), matmul_speedup(32));

    // Batched-MVM amortization: cost of a batch-1 round (1×programming +
    // 1×propagation) vs the per-vector cost at batch 64. Wall-clock
    // analogue of the power model's programming/propagation split; gated
    // at ≥5× (programming dominates a single propagation by far more).
    let mvm_b1 = median_nanos(&results, "mvm_batched/1");
    let mvm_b64_per_vec = median_nanos(&results, "mvm_batched/64") / 64.0;
    let mvm_per_vec_speedup = mvm_b1 / mvm_b64_per_vec;
    if !(mvm_per_vec_speedup.is_finite() && mvm_per_vec_speedup >= 5.0) {
        regressions.push(("mvm_batched/per_vec_b64".into(), mvm_per_vec_speedup));
    }
    let worst_ratio = regressions
        .iter()
        .map(|&(_, r)| r)
        .fold(f64::INFINITY, f64::min);
    let derived = [
        ("matmul_speedup_n16", matmul_n16),
        ("matmul_speedup_n32", matmul_n32),
        ("mvm_batched_per_vec_speedup_b64", mvm_per_vec_speedup),
        (
            "decompose_speedup_n16",
            median_nanos(&results, "decompose/embed_baseline/16")
                / median_nanos(&results, "decompose/in_place/16"),
        ),
        (
            "decompose_speedup_n32",
            median_nanos(&results, "decompose/embed_baseline/32")
                / median_nanos(&results, "decompose/in_place/32"),
        ),
        ("fabric_program_cache_speedup", cache_speedup),
        ("fabric_program_disk_warm_speedup", disk_warm_speedup),
        ("fabric_program_fleet_warm_speedup", fleet_warm_speedup),
        ("delta_reprogram_speedup", delta_speedup),
        ("delta_reprogram_speedup_disjoint", delta_speedup_disjoint),
        ("fig14_reduced_geomean_speedup", fig14_geomean),
        ("fig14_reduced_wall_ms", fig14_wall_ms),
        // 1.0 when any matmul variant ran slower than
        // MATMUL_REGRESSION_FLOOR × naive (min-time comparison); the
        // binary then exits non-zero, failing the CI bench-smoke job.
        ("regression", if regressions.is_empty() { 0.0 } else { 1.0 }),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"suite\": \"flumen-perf\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let nanos = r.median.as_secs_f64() * 1e9;
        let min_ns = r.min.as_secs_f64() * 1e9;
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {nanos:.1}, \"min_ns\": {min_ns:.1}}}{}\n",
            r.name,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"regressions\": [\n");
    for (i, (name, ratio)) in regressions.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"speedup_vs_naive\": {ratio:.3}}}{}\n",
            if i + 1 < regressions.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"derived\": {\n");
    for (i, (k, v)) in derived.iter().enumerate() {
        json.push_str(&format!(
            "    \"{k}\": {v:.3}{}\n",
            if i + 1 < derived.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    let out = std::env::var("FLUMEN_BENCH_OUT").unwrap_or_else(|_| "BENCH_perf.json".into());
    std::fs::write(&out, &json).expect("write BENCH_perf.json");
    println!("\n  → wrote {out}");
    for (k, v) in derived {
        println!("  {k}: {v:.3}");
    }

    // Mirror the headline metrics onto the trace bus under the registered
    // `perf::*` names so sweep tooling can overlay bench trajectories on
    // simulation traces. `FLUMEN_BENCH_TRACE=<path>` archives them as
    // canonical JSONL.
    let rec = RecordingTracer::new();
    let th = rec.handle();
    for (n, s) in [(16u64, matmul_n16), (32, matmul_n32)] {
        th.emit(|| TraceEvent::counter(TraceCategory::Sweep, "perf::matmul", 0, 0, s).with_id(n));
    }
    for (b, per_vec) in [(1u64, mvm_b1), (64, mvm_b64_per_vec)] {
        th.emit(|| {
            TraceEvent::counter(TraceCategory::Sweep, "perf::mvm_batched", 0, 0, per_vec)
                .with_id(b)
                .with_arg("per_vec_speedup_b64", mvm_per_vec_speedup)
        });
    }
    // Program-library counters from the fabric_program rows, under the
    // registered `progstore::*` names, so the library's hit/miss/delta
    // behaviour is overlayable on simulation traces alongside `perf::*`.
    for (name, v) in [
        ("progstore::hit", progstore_stats.hits),
        ("progstore::miss", progstore_stats.misses),
        ("progstore::corrupt", progstore_stats.corrupt),
        ("progstore::delta_mzis", delta_mzis as u64),
    ] {
        th.emit(|| TraceEvent::counter(TraceCategory::Sweep, name, 0, 0, v as f64));
    }
    if let Ok(path) = std::env::var("FLUMEN_BENCH_TRACE") {
        let mut buf = Vec::new();
        flumen_trace::jsonl::write_jsonl(&mut buf, &rec.events()).expect("encode perf trace");
        std::fs::write(&path, &buf).expect("write perf trace");
        println!("  → wrote {path}");
    }

    assert!(
        quick || cache_speedup >= 5.0,
        "program cache hit must be ≥5x faster than cold programming (got {cache_speedup:.2}x)"
    );
    assert!(
        quick || disk_warm_speedup >= 3.0,
        "disk-warm programming must be ≥3x faster than cold (got {disk_warm_speedup:.2}x)"
    );
    assert!(
        quick || delta_speedup >= 2.0,
        "delta reprogramming must be ≥2x faster than a full restore on adjacent states (got {delta_speedup:.2}x)"
    );
    if !regressions.is_empty() {
        for (name, ratio) in &regressions {
            let floor = if name.starts_with("mvm_batched/") {
                5.0
            } else {
                MATMUL_REGRESSION_FLOOR
            };
            eprintln!("  REGRESSION {name}: {ratio:.3}x vs baseline (floor {floor})");
        }
        panic!(
            "{} benchmark(s) regressed below their floor (worst {worst_ratio:.3}x)",
            regressions.len()
        );
    }
}
