//! # flumen-sim — the unified discrete-event simulation kernel
//!
//! Every cycle-accurate loop in the workspace (the full-system engine, the
//! NoC latency harness, the MZIM control unit's partition timing) runs on
//! this one substrate:
//!
//! * [`Clock`] — a single `u64` cycle domain, surfaced as unit-checked
//!   [`flumen_units::Cycles`].
//! * [`Component`] — the typed step interface the kernel drives, with
//!   shared services ([`SimRng`], tracing) threaded through [`SimCtx`].
//! * [`EventQueue`] — deterministic `(deadline, FIFO)` scheduled wakeups
//!   for DRAM returns, phase-programming completions, and reconfiguration
//!   guard times.
//! * [`SimPhase`] + [`kernel`] loops — the warmup/measure/drain structure
//!   previously duplicated per harness.
//! * [`Snapshotable`] + [`Snapshot`] — versioned canonical-JSON
//!   checkpoints that resume bit-identically mid-run, extending the
//!   sweep's content-addressed result cache to in-progress jobs.
//! * [`par_map`] — the one worker pool, shared by sweeps, serving and the
//!   photonic executor.
//!
//! The [`json`] module (canonical serialization, previously private to
//! `flumen-sweep`) lives here so snapshots and job hashes share one
//! canonical byte form.

#![warn(missing_docs)]

pub mod clock;
pub mod component;
pub mod event;
pub mod json;
pub mod kernel;
pub mod phase;
pub mod pool;
pub mod rng;
pub mod snapshot;

pub use clock::Clock;
pub use component::{Component, SimCtx};
pub use event::EventQueue;
/// Re-exported so kernel consumers can name simulation time without a
/// separate `flumen-units` dependency.
pub use flumen_units::Cycles;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use kernel::{run_for, run_phase, run_until, RunOutcome};
pub use phase::SimPhase;
pub use pool::{dedup_positions, expect_all, par_map, par_map_with};
pub use rng::SimRng;
pub use snapshot::{Snapshot, Snapshotable, SNAPSHOT_VERSION};
