//! Timing from outside the library: a stopwatch tally per wrapped entry
//! point, and wrappers around the public `Network` and `ExternalServer`
//! traits that forward every call and charge its host time.
//!
//! The wrappers keep their counters in an `Rc` shared with the caller,
//! so the counters outlive `SystemSim::run`, which consumes the
//! simulator (and the wrapped network and server with it).

use flumen_noc::{Delivery, NetStats, Network, Packet};
use flumen_system::{ActivityCounts, ExternalOutcome, ExternalPayload, ExternalServer};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Host time and call count accumulated at one call site.
#[derive(Debug, Default)]
pub struct Tally {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Tally {
    /// Runs `f`, charging its wall time as one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    /// Charges one call of duration `d`.
    pub fn add(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get().saturating_add(ns));
        self.calls.set(self.calls.get() + 1);
    }

    /// Total charged time, seconds.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    /// Total charged time, nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.ns.get()
    }

    /// Calls charged.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean time per call, nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        match self.calls.get() {
            0 => 0.0,
            n => self.ns.get() as f64 / n as f64,
        }
    }
}

/// Counters of a [`TimedNet`].
#[derive(Debug, Default)]
pub struct NetProbe {
    /// `Network::step` calls.
    pub step: Tally,
    /// `Network::inject` calls.
    pub inject: Tally,
    /// Steps taken while `pending() == 0` (nothing to move).
    pub idle_steps: Cell<u64>,
}

/// A network that forwards every call to `inner` and times `step` and
/// `inject`.
#[derive(Debug)]
pub struct TimedNet<N> {
    /// The wrapped network; a wrapped server forwards `&mut inner`.
    pub inner: N,
    probe: Rc<NetProbe>,
}

impl<N> TimedNet<N> {
    /// Wraps `inner`, charging into `probe`.
    pub fn new(inner: N, probe: Rc<NetProbe>) -> Self {
        TimedNet { inner, probe }
    }
}

impl<N: Network> Network for TimedNet<N> {
    fn set_tracer(&mut self, tracer: flumen_trace::TraceHandle) {
        self.inner.set_tracer(tracer);
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn inject(&mut self, pkt: Packet) {
        let inner = &mut self.inner;
        self.probe.inject.time(|| inner.inject(pkt));
    }
    fn step(&mut self) -> Vec<Delivery> {
        if self.inner.pending() == 0 {
            self.probe.idle_steps.set(self.probe.idle_steps.get() + 1);
        }
        let inner = &mut self.inner;
        self.probe.step.time(|| inner.step())
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut NetStats {
        self.inner.stats_mut()
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A boxed network behind a local type, so [`TimedNet`] can wrap the
/// `Box<dyn Network>` that `NetSpec::build` returns.
pub struct DynNet(pub Box<dyn Network>);

impl std::fmt::Debug for DynNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DynNet({} nodes)", self.0.num_nodes())
    }
}

impl Network for DynNet {
    fn set_tracer(&mut self, tracer: flumen_trace::TraceHandle) {
        self.0.set_tracer(tracer);
    }
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn inject(&mut self, pkt: Packet) {
        self.0.inject(pkt);
    }
    fn step(&mut self) -> Vec<Delivery> {
        self.0.step()
    }
    fn cycle(&self) -> u64 {
        self.0.cycle()
    }
    fn stats(&self) -> &NetStats {
        self.0.stats()
    }
    fn stats_mut(&mut self) -> &mut NetStats {
        self.0.stats_mut()
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// Self time of a simulation run: its wall time `run_ns` minus the time
/// charged to the wrapped network and server calls made inside it.
pub fn self_time_ns(run_ns: u64, net: &NetProbe, server: &ServerProbe) -> u64 {
    let outside =
        net.step.nanos() + net.inject.nanos() + server.step.nanos() + server.request.nanos();
    run_ns.saturating_sub(outside)
}

/// Counters of a [`TimedServer`].
#[derive(Debug, Default)]
pub struct ServerProbe {
    /// `ExternalServer::step` calls.
    pub step: Tally,
    /// `ExternalServer::on_request` calls.
    pub request: Tally,
    /// Outcomes returned by `step`.
    pub outcomes: Cell<u64>,
    /// Outcomes with `accepted == true`.
    pub accepted: Cell<u64>,
}

/// An external server that forwards every call to `inner` and times
/// `step` and `on_request`. Its `step` hands `inner` the network inside
/// the [`TimedNet`], so the server's own network calls are charged to
/// the server, not to the network.
#[derive(Debug)]
pub struct TimedServer<S> {
    inner: S,
    probe: Rc<ServerProbe>,
}

impl<S> TimedServer<S> {
    /// Wraps `inner`, charging into `probe`.
    pub fn new(inner: S, probe: Rc<ServerProbe>) -> Self {
        TimedServer { inner, probe }
    }
}

impl<N: Network, S: ExternalServer<N>> ExternalServer<TimedNet<N>> for TimedServer<S> {
    fn on_request(
        &mut self,
        now: u64,
        core: usize,
        chiplet: usize,
        tag: u64,
        payload: ExternalPayload,
    ) {
        let inner = &mut self.inner;
        self.probe
            .request
            .time(|| inner.on_request(now, core, chiplet, tag, payload));
    }
    fn step(&mut self, now: u64, net: &mut TimedNet<N>) -> Vec<ExternalOutcome> {
        let inner = &mut self.inner;
        let out = self.probe.step.time(|| inner.step(now, &mut net.inner));
        let accepted = out.iter().filter(|o| o.accepted).count() as u64;
        self.probe
            .outcomes
            .set(self.probe.outcomes.get() + out.len() as u64);
        self.probe
            .accepted
            .set(self.probe.accepted.get() + accepted);
        out
    }
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn drain_counts(&mut self, counts: &mut ActivityCounts) {
        self.inner.drain_counts(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::{RoutedConfig, RoutedNetwork, RoutedTopology};

    fn ring() -> RoutedNetwork {
        RoutedNetwork::new(RoutedTopology::Ring { nodes: 4 }, RoutedConfig::default()).unwrap()
    }

    /// Injects one packet at cycle 0 and steps until the network drains.
    fn drive(net: &mut impl Network) -> (u64, Vec<u64>) {
        net.step();
        net.inject(Packet::new(7, 0, 2, 256, 1));
        let mut delivered = Vec::new();
        for _ in 0..50 {
            delivered.extend(net.step().into_iter().map(|d| d.packet.id));
        }
        (net.cycle(), delivered)
    }

    #[test]
    fn timed_net_forwards_every_call_and_counts_them() {
        let mut plain = ring();
        let probe = Rc::new(NetProbe::default());
        let mut timed = TimedNet::new(ring(), probe.clone());
        assert_eq!(drive(&mut plain), drive(&mut timed));
        assert_eq!(timed.stats().delivered, plain.stats().delivered);
        assert_eq!(timed.pending(), 0);
        assert_eq!(probe.inject.calls(), 1);
        assert_eq!(probe.step.calls(), 51);
        // The first step and every step after the packet drained saw an
        // empty network.
        assert!(probe.idle_steps.get() >= 1 && probe.idle_steps.get() < 51);
        assert!(probe.step.nanos() > 0);
    }

    #[test]
    fn dyn_net_forwards_to_the_boxed_network() {
        let mut plain = ring();
        let mut boxed = DynNet(Box::new(ring()));
        assert_eq!(drive(&mut plain), drive(&mut boxed));
        assert_eq!(boxed.num_nodes(), 4);
    }

    /// A server that injects a packet into whatever network it is handed
    /// and answers each request on the next step.
    #[derive(Default)]
    struct Echo {
        queued: Vec<u64>,
    }

    impl ExternalServer<RoutedNetwork> for Echo {
        fn on_request(&mut self, _: u64, _: usize, _: usize, tag: u64, _: ExternalPayload) {
            self.queued.push(tag);
        }
        fn step(&mut self, now: u64, net: &mut RoutedNetwork) -> Vec<ExternalOutcome> {
            net.inject(Packet::new(now, 1, 3, 64, now));
            self.queued
                .drain(..)
                .map(|tag| ExternalOutcome {
                    tag,
                    accepted: tag % 2 == 0,
                })
                .collect()
        }
        fn outstanding(&self) -> usize {
            self.queued.len()
        }
        fn drain_counts(&mut self, counts: &mut ActivityCounts) {
            counts.core_ops += 1;
        }
    }

    #[test]
    fn timed_server_forwards_the_inner_network_and_counts_outcomes() {
        let np = Rc::new(NetProbe::default());
        let sp = Rc::new(ServerProbe::default());
        let mut net = TimedNet::new(ring(), np.clone());
        let mut server = TimedServer::new(Echo::default(), sp.clone());
        for tag in 0..3 {
            server.on_request(0, 0, 0, tag, [0; 5]);
        }
        assert_eq!(server.outstanding(), 3);
        let out = server.step(0, &mut net);
        assert_eq!(out.len(), 3);
        assert_eq!(server.outstanding(), 0);
        // The server's own injection reached the network but is charged
        // to the server, not to the network probe.
        assert_eq!(net.pending(), 1);
        assert_eq!(np.inject.calls(), 0);
        assert_eq!((sp.request.calls(), sp.step.calls()), (3, 1));
        assert_eq!((sp.outcomes.get(), sp.accepted.get()), (3, 2));
        let mut counts = ActivityCounts::default();
        server.drain_counts(&mut counts);
        assert_eq!(counts.core_ops, 1);
    }

    #[test]
    fn self_time_subtracts_the_wrapped_calls() {
        let (np, sp) = (NetProbe::default(), ServerProbe::default());
        np.step.add(Duration::from_nanos(300));
        np.inject.add(Duration::from_nanos(50));
        sp.step.add(Duration::from_nanos(100));
        sp.request.add(Duration::from_nanos(25));
        assert_eq!(self_time_ns(1_000, &np, &sp), 525);
        assert_eq!(self_time_ns(100, &np, &sp), 0);
    }

    #[test]
    fn tally_means_are_zero_before_any_call() {
        let t = Tally::default();
        assert_eq!(t.mean_ns(), 0.0);
        assert_eq!(t.time(|| 5), 5);
        assert_eq!(t.calls(), 1);
    }
}
