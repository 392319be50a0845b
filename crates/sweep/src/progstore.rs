//! Fleet-warm pre-compilation of partition programs for sweep plans.
//!
//! A sweep plan's full-system jobs all lower their weight matrices onto
//! the same `N×N` SVD-MZIM blocks; across a grid of topologies and
//! configs, the *distinct* block set is tiny compared to the job count.
//! [`precompile_plan`] walks a plan (or any spec list), deduplicates the
//! blocks by content hash, and fans the cold decompositions across the
//! [`par_map`] pool sharing one [`ProgramStore`] — so a whole fleet of sweep
//! workers (or serve replicas, see `flumen-serve`) pays each unique
//! decomposition exactly once, and every later process starts disk-warm.
//!
//! Pre-compilation is host-side only: it populates the store consulted by
//! `FlumenFabric` / `SvdCircuit` / `PhotonicExecutor`, whose entries
//! replay bit-identically to cold derivation. Simulated results, golden
//! grids, and result hashes are unchanged whether or not this ran.

use crate::job::JobSpec;
use crate::pool::{expect_all, par_map};
use flumen_linalg::{BlockMatrix, RMat};
use flumen_photonics::progstore::{derive_program, matrix_key, ProgramStore};
use std::collections::BTreeSet;

/// What one pre-compilation pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecompileReport {
    /// Distinct weight blocks found in the plan.
    pub distinct_blocks: usize,
    /// Blocks decomposed cold and published to the store.
    pub compiled: usize,
    /// Blocks already resident (another worker/process paid for them).
    pub warm_hits: usize,
}

/// Collects the distinct `width×width` weight blocks of every full-system
/// job among `specs`, deduplicated by content hash in first-seen order.
/// Blocks smaller than 2×2 (degenerate tails) are skipped — no circuit
/// exists for them.
pub fn plan_weight_blocks(specs: &[JobSpec], width: usize) -> Vec<RMat> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut blocks: Vec<RMat> = Vec::new();
    for spec in specs {
        let JobSpec::FullRun { bench, .. } = spec else {
            continue;
        };
        let workload = bench.instantiate();
        for job in workload.jobs() {
            let grid = BlockMatrix::decompose(&job.matrix, width);
            for i in 0..grid.block_rows() {
                for j in 0..grid.block_cols() {
                    let b = grid.block(i, j);
                    if b.rows() < 2 || b.cols() != b.rows() {
                        continue;
                    }
                    if seen.insert(matrix_key(b)) {
                        blocks.push(b.clone());
                    }
                }
            }
        }
    }
    blocks
}

/// Compiles every block into `store` (skipping resident entries) on
/// `threads` [`par_map`] workers. Safe to run concurrently from many
/// processes against one store directory: entries are written atomically
/// and racing writers produce identical bytes.
///
/// # Panics
///
/// Panics after every block has been tried if any block fails to
/// decompose (a weight block that cannot be decomposed is a workload bug,
/// not a runtime condition), listing every failing block.
pub fn precompile_blocks(
    blocks: &[RMat],
    store: &ProgramStore,
    threads: usize,
) -> PrecompileReport {
    let outcomes = par_map(blocks, threads, |_, b| {
        let key = matrix_key(b);
        let w = b.rows();
        if store.load(&key, w).is_some() {
            return false;
        }
        let prog = derive_program(b).expect("plan weight block decomposes");
        store.store(&key, w, &prog);
        true
    });
    let compiled = expect_all(outcomes, "precompile failed", |i| format!("block {i}"));
    let cold = compiled.iter().filter(|&&c| c).count();
    PrecompileReport {
        distinct_blocks: blocks.len(),
        compiled: cold,
        warm_hits: blocks.len() - cold,
    }
}

/// [`plan_weight_blocks`] + [`precompile_blocks`] in one call: pre-warms
/// `store` with every distinct partition program a spec list needs at
/// partition width `width`.
pub fn precompile_plan(
    specs: &[JobSpec],
    width: usize,
    store: &ProgramStore,
    threads: usize,
) -> PrecompileReport {
    precompile_blocks(&plan_weight_blocks(specs, width), store, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{BenchKind, BenchSize, BenchSpec};
    use flumen::{RuntimeConfig, SystemTopology};

    fn small_run(kind: BenchKind) -> JobSpec {
        JobSpec::FullRun {
            bench: BenchSpec {
                kind,
                size: BenchSize::Small,
            },
            topology: SystemTopology::FlumenA,
            cfg: RuntimeConfig::paper(),
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "flumen-sweep-progstore-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn plan_blocks_dedup_across_jobs_and_specs() {
        let specs = vec![
            small_run(BenchKind::Rotation3d),
            small_run(BenchKind::Rotation3d), // duplicate spec: no new blocks
        ];
        let blocks = plan_weight_blocks(&specs, 4);
        assert!(!blocks.is_empty());
        let mut keys: Vec<String> = blocks.iter().map(matrix_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), blocks.len(), "blocks are distinct");
        // NocPoint specs contribute nothing.
        assert!(plan_weight_blocks(&[], 4).is_empty());
    }

    #[test]
    fn precompile_cold_then_fleet_warm() {
        let dir = scratch_dir("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProgramStore::open(&dir).unwrap();
        let specs = vec![small_run(BenchKind::Rotation3d)];

        let first = precompile_plan(&specs, 4, &store, 4);
        assert!(first.distinct_blocks > 0);
        assert_eq!(first.compiled, first.distinct_blocks);
        assert_eq!(first.warm_hits, 0);
        assert_eq!(store.len(), first.compiled);

        // A second worker/process sharing the store compiles nothing.
        let second_store = ProgramStore::open(&dir).unwrap();
        let second = precompile_plan(&specs, 4, &second_store, 2);
        assert_eq!(second.compiled, 0);
        assert_eq!(second.warm_hits, second.distinct_blocks);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
