//! Sweep plans and the parallel, cache-backed executor.
//!
//! A [`SweepPlan`] is an ordered list of [`JobSpec`]s (built from
//! cartesian grids and/or explicit job lists). [`run_plan`] fans the
//! cache misses across the [`par_map`] worker pool, then reassembles
//! results **by job index**, so the output is bit-identical whatever the
//! thread count or completion order: each job is a pure function of its
//! spec (own seed, no shared mutable state), and position in the plan —
//! not scheduling — decides where its result lands. Duplicate specs within one plan are executed once and fanned
//! out to every position that requested them.

use crate::cache::ResultCache;
use crate::checkpoint::CheckpointStore;
use crate::job::{JobResult, JobSpec};
use crate::pool::{dedup_positions, expect_all, par_map};
use flumen_linalg::store::StoreStats;
use flumen_trace::{EventKind, TraceCategory, TraceEvent};
use std::path::PathBuf;
use std::time::Instant;

/// An ordered collection of jobs to run.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    jobs: Vec<JobSpec>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> Self {
        SweepPlan::default()
    }

    /// Appends one job; returns its index in the plan.
    pub fn push(&mut self, job: JobSpec) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Appends every job from an iterator.
    pub fn extend(&mut self, jobs: impl IntoIterator<Item = JobSpec>) {
        self.jobs.extend(jobs);
    }

    /// The jobs, in plan order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Executor options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads. 1 = serial.
    pub threads: usize,
    /// Ignore cached results and re-simulate everything.
    pub force: bool,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Per-job progress lines on stderr.
    pub verbose: bool,
    /// Periodic simulator checkpointing for full-system jobs (`None` =
    /// off). Interrupted jobs resume bit-identically on the next run.
    pub checkpoint: Option<CheckpointStore>,
}

impl SweepOptions {
    /// Environment-driven defaults: `FLUMEN_SWEEP_THREADS` (default: all
    /// available cores), `FLUMEN_SWEEP_FORCE=1` to bypass the cache,
    /// `FLUMEN_SWEEP_CHECKPOINT=<cycles>` to checkpoint long jobs, and
    /// the cache under [`ResultCache::default_dir`].
    pub fn from_env() -> Self {
        let threads = std::env::var("FLUMEN_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let force = std::env::var("FLUMEN_SWEEP_FORCE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        SweepOptions {
            threads,
            force,
            cache_dir: ResultCache::default_dir(),
            verbose: false,
            checkpoint: CheckpointStore::from_env(),
        }
    }

    /// Single-threaded, quiet, cache in `dir` (handy for tests).
    pub fn serial_in(dir: PathBuf) -> Self {
        SweepOptions {
            threads: 1,
            force: false,
            cache_dir: dir,
            verbose: false,
            checkpoint: None,
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

/// Per-job accounting, aligned with the plan's job order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Human-readable job label.
    pub label: String,
    /// Content hash (the cache key).
    pub hash: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Wall-clock execution time, ms (the *original* run's time when
    /// served from cache).
    pub wall_ms: f64,
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepReport {
    /// One result per plan job, in plan order.
    pub results: Vec<JobResult>,
    /// One record per plan job, in plan order.
    pub records: Vec<JobRecord>,
    /// Total sweep wall time, ms.
    pub wall_ms: f64,
    /// Wall-clock executor timeline: one [`TraceCategory::Sweep`]
    /// span per executed job (track = worker index, ts = µs since the
    /// sweep started) and one `cache_hit` instant per cache-served job.
    /// Feed to [`crate::sink::write_trace_files`] or the
    /// `flumen_trace` exporters directly.
    pub trace_events: Vec<TraceEvent>,
    /// The result cache's I/O counters for this run. A failed write
    /// costs only a later re-simulation, so it is counted, not raised.
    pub cache: StoreStats,
}

impl SweepReport {
    /// Jobs served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.records.iter().filter(|r| r.cached).count()
    }

    /// Jobs actually simulated.
    pub fn executed(&self) -> usize {
        self.records.len() - self.cache_hits()
    }

    /// Fraction of jobs served from the cache (0 for an empty plan).
    pub fn hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.cache_hits() as f64 / self.records.len() as f64
        }
    }
}

/// Runs every job in the plan and returns results in plan order.
///
/// Cache hits are resolved up front; the misses are deduplicated by
/// content hash and distributed over `opts.threads` [`par_map`]
/// workers. Each executed result is written back to the cache before the
/// report is assembled; cache I/O failures are counted in
/// [`SweepReport::cache`], never fatal.
///
/// # Panics
///
/// Panics if any job panics, after every other job finishes, listing
/// every failing job.
pub fn run_plan(plan: &SweepPlan, opts: &SweepOptions) -> SweepReport {
    // Wall-clock feeds only the `wall_ms` / trace-timestamp metadata;
    // result bytes come from the seeded JobResult JSON alone.
    let t0 = Instant::now(); // flumen-check: allow(det-wall-clock)
    let cache = ResultCache::open(&opts.cache_dir);

    let hashes: Vec<String> = plan.jobs().iter().map(JobSpec::content_hash).collect();
    let mut slots: Vec<Option<(JobResult, bool, f64)>> = vec![None; plan.len()];

    let mut trace_events: Vec<TraceEvent> = Vec::new();

    // Resolve cache hits first (serial: this is pure file I/O).
    if !opts.force {
        for (i, hash) in hashes.iter().enumerate() {
            if let Some(entry) = cache.load(hash) {
                if opts.verbose {
                    eprintln!("  [sweep] cached  {}", plan.jobs()[i].label());
                }
                trace_events.push(
                    TraceEvent::instant(
                        TraceCategory::Sweep,
                        "cache_hit",
                        t0.elapsed().as_micros() as u64,
                        0,
                    )
                    .with_id(i as u64)
                    .with_arg("orig_wall_ms", entry.wall_ms),
                );
                slots[i] = Some((entry.result, true, entry.wall_ms));
            }
        }
    }

    // Deduplicate the misses: one execution per distinct hash, fanned out
    // to every plan position that asked for it.
    let unique = dedup_positions(
        hashes
            .iter()
            .enumerate()
            .filter(|&(i, _)| slots[i].is_none())
            .map(|(i, h)| (i, h.as_str())),
    );

    let outcomes = par_map(&unique, opts.threads, |w, (_, positions)| {
        let spec = &plan.jobs()[positions[0]];
        if opts.verbose {
            eprintln!("  [sweep] running {}", spec.label());
        }
        let begin_us = t0.elapsed().as_micros() as u64;
        // Per-job timing is reporting metadata, never result bytes.
        let tj = Instant::now(); // flumen-check: allow(det-wall-clock)
        let result = spec.execute_with(opts.checkpoint.as_ref());
        let wall = tj.elapsed().as_secs_f64() * 1e3;
        cache.store(spec, &result, wall);
        let end_us = t0.elapsed().as_micros() as u64;
        (result, wall, w as u32, begin_us, end_us)
    });

    let executed = expect_all(outcomes, "sweep job(s) failed", |u| {
        plan.jobs()[unique[u].1[0]].label()
    });

    // Fan executed results out to their plan positions.
    let mut spans = Vec::new();
    for (u, ((_, positions), done)) in unique.iter().zip(executed).enumerate() {
        let (result, wall, track, begin_us, end_us) = done;
        let label = plan.jobs()[positions[0]].label();
        let span = |kind, ts| {
            TraceEvent::new(TraceCategory::Sweep, label.clone(), kind, ts, track).with_id(u as u64)
        };
        spans.push(span(EventKind::SpanBegin, begin_us));
        spans.push(span(EventKind::SpanEnd, end_us.max(begin_us + 1)).with_arg("wall_ms", wall));
        for &i in positions {
            slots[i] = Some((result.clone(), false, wall));
        }
    }
    spans.sort_by_key(|e| e.ts);
    trace_events.extend(spans);

    let mut results = Vec::with_capacity(plan.len());
    let mut records = Vec::with_capacity(plan.len());
    for ((slot, hash), spec) in slots.into_iter().zip(hashes).zip(plan.jobs()) {
        let (result, cached, wall_ms) = slot.expect("every job resolved");
        results.push(result);
        records.push(JobRecord {
            label: spec.label(),
            hash,
            cached,
            wall_ms,
        });
    }

    SweepReport {
        results,
        records,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        trace_events,
        cache: cache.stats(),
    }
}
