//! Deduplicated parallel execution of request payloads.
//!
//! The serve engine separates the *queueing model* (deterministic,
//! single-threaded, sim-time) from *payload execution* (wall-clock,
//! parallel). Payloads are pure functions of their [`JobSpec`] — every
//! job carries its own seed — so requests sharing a spec share one
//! execution, and the worker count can only change how fast the table
//! fills, never what it contains. That is the property the
//! serial-vs-parallel determinism tests pin down.
//!
//! Jobs run as checkpointable `flumen-sim` work items: with a
//! [`CheckpointStore`] attached, a full-system payload periodically
//! snapshots under its content hash and a restarted worker resumes it
//! bit-identically (see `tests/resume.rs`).

use flumen_sim::{Cycles, ToJson};
use flumen_sweep::hash::sha256_hex;
use flumen_sweep::{dedup_positions, expect_all, par_map, CheckpointStore, JobResult, JobSpec};
use std::collections::BTreeMap;

/// The memoized outcome of one distinct payload.
#[derive(Debug, Clone)]
pub struct Payload {
    /// SHA-256 over the result's canonical JSON — the per-request
    /// result hash recorded for completed requests.
    pub result_hash: String,
    /// Simulated service demand: how long one worker is occupied
    /// serving a request with this payload.
    pub service: Cycles,
}

/// Content-hash-keyed table of executed payloads.
#[derive(Debug, Default)]
pub struct PayloadTable {
    map: BTreeMap<String, Payload>,
}

impl PayloadTable {
    /// Looks up a payload by job content hash.
    pub fn get(&self, hash: &str) -> Option<&Payload> {
        self.map.get(hash)
    }

    /// Number of distinct payloads executed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Simulated service demand of a finished payload: a full-system run
/// occupies a worker for its measured runtime; a traffic measurement
/// occupies it for the harness's warmup + measure window. Clamped to at
/// least one cycle so completions always move time forward.
fn service_of(spec: &JobSpec, result: &JobResult) -> Cycles {
    let raw = match (spec, result) {
        (_, JobResult::FullRun(r)) => r.cycles,
        (JobSpec::NocPoint { cfg, .. }, JobResult::NocPoint(_))
        | (JobSpec::NocStats { cfg, .. }, JobResult::NocStats(_)) => cfg.warmup + cfg.measure,
        // A traffic result can only come from the matching traffic spec;
        // keep the fallback total anyway.
        (_, JobResult::NocPoint(_)) | (_, JobResult::NocStats(_)) => 1,
    };
    Cycles::new(raw.max(1))
}

/// Executes every distinct job among `specs` and returns the memo table.
///
/// Work is deduplicated by content hash and run on `threads`
/// [`par_map`] workers (no async runtime exists in this tree). With
/// `store` set, full-system jobs checkpoint under their content hash and
/// resume from the newest valid snapshot.
///
/// # Panics
///
/// Panics after every payload has run if any payload panicked (a payload
/// that cannot execute is a bug in the spec, not an admission-control
/// condition), listing every failing payload.
pub fn execute_payloads(
    specs: &[JobSpec],
    threads: usize,
    store: Option<&CheckpointStore>,
) -> PayloadTable {
    // Dedup in first-seen order so the work list is deterministic.
    let distinct = dedup_positions(specs.iter().map(JobSpec::content_hash).enumerate());
    let outcomes = par_map(&distinct, threads, |_, (_, positions)| {
        let spec = &specs[positions[0]];
        let result = spec.execute_with(store);
        Payload {
            result_hash: sha256_hex(result.to_json().to_canonical().as_bytes()),
            service: service_of(spec, &result),
        }
    });

    let payloads = expect_all(outcomes, "payload(s) failed", |u| {
        specs[distinct[u].1[0]].label()
    });
    let hashes = distinct.into_iter().map(|(hash, _)| hash);
    PayloadTable {
        map: hashes.zip(payloads).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;

    fn noc_job(seed: u64) -> JobSpec {
        JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 8 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig {
                warmup: 100,
                measure: 400,
                seed,
                ..RunConfig::default()
            },
        }
    }

    #[test]
    fn dedups_and_is_thread_count_invariant() {
        let specs = vec![noc_job(1), noc_job(2), noc_job(1), noc_job(2), noc_job(1)];
        let serial = execute_payloads(&specs, 1, None);
        let parallel = execute_payloads(&specs, 4, None);
        assert_eq!(serial.len(), 2);
        assert_eq!(parallel.len(), 2);
        for spec in &specs {
            let h = spec.content_hash();
            let a = serial.get(&h).expect("payload executed");
            let b = parallel.get(&h).expect("payload executed");
            assert_eq!(a.result_hash, b.result_hash);
            assert_eq!(a.service, b.service);
            // NocPoint service demand is the harness window.
            assert_eq!(a.service, Cycles::new(500));
        }
    }
}
