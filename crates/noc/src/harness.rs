//! Measurement harness: warmup / measurement phases, latency-vs-load
//! sweeps and saturation detection (regenerates paper Fig. 11).
//!
//! The cycle loops here run on the `flumen-sim` kernel: a synthetic-traffic
//! driver implements [`flumen_sim::Component`] and the phase structure is
//! the shared [`SimPhase`] enum rather than hand-rolled `for` loops. The
//! RNG sequence is unchanged from the pre-kernel harness — one stream
//! seeded from [`RunConfig::seed`] spans warmup and measurement — so every
//! measured point is bit-identical to the legacy loops.
//!
//! Every entry point is generic over `N: Network + ?Sized`, so the same
//! harness drives hand-written fabrics, `&mut dyn Network` trait objects,
//! and combinator-composed fabrics from [`crate::fabric`] (e.g.
//! [`crate::torus`]) without adaptation.

use crate::traffic::{BernoulliInjector, TrafficPattern};
use crate::Network;
use flumen_sim::{run_phase, Clock, Component, Cycles, SimCtx, SimPhase};

/// One measured operating point of a latency-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyPoint {
    /// Offered load, fraction of per-node link bandwidth.
    pub offered_load: f64,
    /// Mean packet latency in cycles (`f64::INFINITY` when saturated and
    /// nothing representative was delivered).
    pub avg_latency: f64,
    /// Delivered throughput, packets/node/cycle.
    pub throughput: f64,
    /// Mean link utilization in `[0, 1]`.
    pub link_utilization: f64,
    /// Whether the network failed to keep up with the offered load.
    pub saturated: bool,
}

/// Parameters for a measurement run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Warmup cycles excluded from statistics.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Packet size in bits.
    pub packet_bits: u32,
    /// Link bandwidth used to express load (bits/cycle).
    pub link_bits_per_cycle: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 2_000,
            measure: 10_000,
            // Multi-flit packets, as in typical Booksim evaluations; they
            // also amortize the MZIM reconfiguration cost.
            packet_bits: 1024,
            link_bits_per_cycle: 256,
            seed: 0xF1u64,
        }
    }
}

/// A network under synthetic load: injects Bernoulli traffic each cycle,
/// then steps the network. The kernel's shared [`SimCtx`] RNG drives
/// destination and injection draws.
struct TrafficDriver<'a, N: Network + ?Sized> {
    net: &'a mut N,
    inj: BernoulliInjector,
    n: usize,
}

impl<N: Network + ?Sized> Component for TrafficDriver<'_, N> {
    fn step(&mut self, now: Cycles, ctx: &mut SimCtx) {
        for p in self.inj.generate(self.n, now.value(), &mut ctx.rng) {
            self.net.inject(p);
        }
        self.net.step();
    }
    // Synthetic load never quiesces; phases are fixed windows.
}

/// Runs one offered-load point on a network.
pub fn measure_point<N: Network + ?Sized>(
    net: &mut N,
    pattern: TrafficPattern,
    offered_load: f64,
    cfg: &RunConfig,
) -> LatencyPoint {
    let n = net.num_nodes();
    let mut driver = TrafficDriver {
        net,
        inj: BernoulliInjector::new(
            offered_load,
            cfg.packet_bits,
            cfg.link_bits_per_cycle,
            pattern,
        ),
        n,
    };
    let mut ctx = SimCtx::new(cfg.seed);
    let mut clock = Clock::new();

    run_phase(
        SimPhase::Warmup,
        &mut driver,
        &mut ctx,
        &mut clock,
        Cycles::new(cfg.warmup),
    );
    driver.net.stats_mut().reset();
    let backlog_before = driver.net.pending();

    run_phase(
        SimPhase::Measure,
        &mut driver,
        &mut ctx,
        &mut clock,
        Cycles::new(cfg.measure),
    );

    let stats = driver.net.stats();
    let backlog_after = driver.net.pending();
    // Saturated when the backlog grows materially over the measured window.
    let saturated = backlog_after > backlog_before + (n * 8) || stats.avg_latency().is_none();
    LatencyPoint {
        offered_load,
        avg_latency: stats.avg_latency().unwrap_or(f64::INFINITY),
        throughput: stats.throughput(n),
        link_utilization: stats.avg_link_utilization(),
        saturated,
    }
}

/// A network with no new injections, counting deliveries as in-flight
/// packets complete.
struct DrainDriver<'a, N: Network + ?Sized> {
    net: &'a mut N,
    delivered: u64,
}

impl<N: Network + ?Sized> Component for DrainDriver<'_, N> {
    fn step(&mut self, _now: Cycles, _ctx: &mut SimCtx) {
        self.delivered += self.net.step().len() as u64;
    }

    fn done(&self, _now: Cycles) -> bool {
        self.net.pending() == 0
    }
}

/// Steps the network until it drains (no pending packets) or `max_cycles`
/// elapse; returns the number of deliveries observed while draining.
/// Conservation-style tests run this after their injection phase so every
/// in-flight packet reaches its trace `AsyncEnd` before the stream is
/// checked.
pub fn drain<N: Network + ?Sized>(net: &mut N, max_cycles: u64) -> u64 {
    let mut driver = DrainDriver { net, delivered: 0 };
    let mut ctx = SimCtx::new(0);
    let mut clock = Clock::new();
    run_phase(
        SimPhase::Drain,
        &mut driver,
        &mut ctx,
        &mut clock,
        Cycles::new(max_cycles),
    );
    driver.delivered
}

// JSON bridges (canonical serialized form; field names feed sweep job
// hashes and result files).
flumen_sim::json_struct!(RunConfig {
    warmup,
    measure,
    packet_bits,
    link_bits_per_cycle,
    seed
});

flumen_sim::json_struct!(LatencyPoint {
    offered_load,
    avg_latency,
    throughput,
    link_utilization,
    saturated
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::OpticalBus;
    use crate::crossbar::MzimCrossbar;
    use crate::routed::RoutedNetwork;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            warmup: 500,
            measure: 3_000,
            ..RunConfig::default()
        }
    }

    #[test]
    fn low_load_latency_is_low_everywhere() {
        let cfg = quick_cfg();
        let p = measure_point(
            &mut MzimCrossbar::flumen_16(),
            TrafficPattern::UniformRandom,
            0.05,
            &cfg,
        );
        assert!(!p.saturated);
        assert!(p.avg_latency < 20.0, "{}", p.avg_latency);
    }

    #[test]
    fn latency_monotone_with_load_on_mesh() {
        let cfg = quick_cfg();
        let pts: Vec<LatencyPoint> = [0.05, 0.3, 0.6]
            .iter()
            .map(|&load| {
                let mut net = RoutedNetwork::mesh_4x4();
                measure_point(&mut net, TrafficPattern::UniformRandom, load, &cfg)
            })
            .collect();
        assert!(pts[0].avg_latency < pts[1].avg_latency);
        assert!(pts[1].avg_latency <= pts[2].avg_latency * 1.5);
    }

    #[test]
    fn ring_saturates_before_crossbar() {
        // Same absolute offered load (fraction of 256 bits/cycle) on both.
        let cfg = quick_cfg();
        let load = 0.5;
        let ring = measure_point(
            &mut RoutedNetwork::ring_16(),
            TrafficPattern::UniformRandom,
            load,
            &cfg,
        );
        let xbar = measure_point(
            &mut MzimCrossbar::flumen_16(),
            TrafficPattern::UniformRandom,
            load,
            &cfg,
        );
        assert!(!xbar.saturated, "crossbar saturated at load {load}");
        assert!(
            ring.saturated || ring.avg_latency > xbar.avg_latency,
            "ring {:.1} vs crossbar {:.1}",
            ring.avg_latency,
            xbar.avg_latency
        );
    }

    #[test]
    fn optbus_saturates_above_half_load() {
        let cfg = quick_cfg();
        let p = measure_point(
            &mut OpticalBus::optbus_16(),
            TrafficPattern::UniformRandom,
            0.8,
            &cfg,
        );
        assert!(p.saturated);
    }
}
