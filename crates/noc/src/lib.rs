//! # flumen-noc
//!
//! A cycle-level network-on-package simulator standing in for Booksim in
//! the Flumen reproduction. Four topologies are modelled (paper Fig. 10):
//!
//! * [`RoutedNetwork`] — electrical **ring** and **mesh** with input-queued
//!   routers, XY / shortest-direction routing, bubble flow control and
//!   finite buffers.
//! * [`OpticalBus`] — shared circular waveguides with token arbitration
//!   (Corona-style), native optical multicast.
//! * [`MzimCrossbar`] — the Flumen fabric as a non-blocking crossbar with a
//!   wavefront arbiter, per-connection reconfiguration cost, physical
//!   multicast, and wire reservation for compute partitions.
//!
//! The [`harness`] module measures latency-vs-load curves (paper Fig. 11)
//! and runs explicit packet schedules (paper Fig. 1). Both drive any
//! [`Network`], including fabrics composed from the latency-insensitive
//! ready/valid combinators in [`fabric`] — see [`fabric::torus`] for a
//! 2-D torus defined in under 100 lines of composition.
//!
//! # Example
//!
//! ```
//! use flumen_noc::harness::{measure_point, RunConfig};
//! use flumen_noc::traffic::TrafficPattern;
//! use flumen_noc::MzimCrossbar;
//!
//! let cfg = RunConfig { warmup: 200, measure: 1_000, ..RunConfig::default() };
//! let mut net = MzimCrossbar::flumen_16();
//! let pt = measure_point(&mut net, TrafficPattern::UniformRandom, 0.1, &cfg);
//! assert!(!pt.saturated);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod crossbar;
mod error;
pub mod fabric;
pub mod harness;
mod packet;
mod routed;
mod stats;
pub mod traffic;
mod wavefront;

pub use bus::{BusConfig, OpticalBus};
pub use crossbar::{CrossbarConfig, MzimCrossbar};
pub use error::{NocError, Result};
pub use fabric::{torus, ComposedFabric};
pub use packet::{Delivery, Packet};
pub use routed::{RoutedConfig, RoutedNetwork, RoutedTopology};
pub use stats::NetStats;
pub use wavefront::WavefrontArbiter;

/// A cycle-steppable network.
///
/// All four topologies implement this; the system simulator drives them
/// interchangeably.
pub trait Network {
    /// Installs a trace sink. Every topology emits per-packet `pkt` async
    /// spans (inject → one end per destination) through it; the disabled
    /// default handle makes instrumentation free. The default method
    /// ignores the handle so minimal implementations stay valid.
    fn set_tracer(&mut self, _tracer: flumen_trace::TraceHandle) {}
    /// Endpoint count.
    fn num_nodes(&self) -> usize;
    /// Queues a packet at its source (open-loop: the source queue is
    /// unbounded and latency is measured from `Packet::created_at`).
    fn inject(&mut self, pkt: Packet);
    /// Advances one cycle; returns packets delivered during it.
    fn step(&mut self) -> Vec<Delivery>;
    /// Current cycle.
    fn cycle(&self) -> u64;
    /// Statistics accumulated so far.
    fn stats(&self) -> &NetStats;
    /// Mutable statistics (for warmup resets).
    fn stats_mut(&mut self) -> &mut NetStats;
    /// Packets somewhere in the network (source queues + in flight).
    fn pending(&self) -> usize;
    /// The earliest cycle `>= cycle()` whose `step` may do more than
    /// [`Network::advance_idle`] replays, or `None` if no step will until
    /// the next `inject`. The default says every cycle acts while
    /// anything is pending.
    fn next_activity(&self) -> Option<u64> {
        (self.pending() > 0).then(|| self.cycle())
    }
    /// Replays `k` cycles that all fall before [`Network::next_activity`]:
    /// afterwards the state must equal that of `k` calls to `step`, none
    /// of which would deliver anything. The default makes those calls.
    fn advance_idle(&mut self, k: u64) {
        for _ in 0..k {
            let delivered = self.step();
            debug_assert!(delivered.is_empty(), "advance_idle over a delivery");
        }
    }
}
