//! Electrical packet-switched networks: bidirectional ring and 2-D mesh
//! (paper Fig. 10a/b).
//!
//! Cycle-level model: input-queued routers, round-robin port arbitration,
//! per-hop serialization over finite-bandwidth links, finite input buffers
//! with backpressure, and bubble flow control on the ring to avoid cyclic
//! buffer deadlock.

use crate::fabric::{Fifo, FlightBuffer, RrToken};
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::{Network, NocError, Result};
use flumen_trace::{EventKind, TraceCategory, TraceEvent, TraceHandle};

/// Shape of a routed electrical network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedTopology {
    /// Bidirectional ring of `nodes` routers.
    Ring {
        /// Router count.
        nodes: usize,
    },
    /// `width × height` mesh with XY dimension-ordered routing.
    Mesh {
        /// Routers per row.
        width: usize,
        /// Rows.
        height: usize,
    },
}

impl RoutedTopology {
    /// Total router/endpoint count.
    pub fn nodes(&self) -> usize {
        match self {
            RoutedTopology::Ring { nodes } => *nodes,
            RoutedTopology::Mesh { width, height } => width * height,
        }
    }
}

/// Tuning parameters for a routed network.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedConfig {
    /// Link bandwidth in bits per core cycle (Table 1: 800 Gbps at 2.5 GHz
    /// = 320 bits/cycle).
    pub link_bits_per_cycle: u32,
    /// Router pipeline delay per hop, cycles.
    pub router_delay: u64,
    /// Wire/time-of-flight latency per hop, cycles.
    pub link_latency: u64,
    /// Input buffer capacity per port, packets.
    pub input_queue_pkts: usize,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        RoutedConfig {
            link_bits_per_cycle: 320,
            router_delay: 2,
            link_latency: 1,
            input_queue_pkts: 8,
        }
    }
}

#[derive(Debug, Clone)]
struct TimedPkt {
    pkt: Packet,
    ready_at: u64,
}

#[derive(Debug)]
struct Router {
    /// Input queues: one per neighbor in-port plus one local (last index).
    /// Capacity is enforced at the sender via the bubble rule, so the
    /// [`Fifo`]s stay unbounded and serialize like the raw queues.
    inputs: Vec<Fifo<TimedPkt>>,
    /// Output-port busy horizon (serialization), indexed like out ports.
    out_busy_until: Vec<u64>,
    /// Round-robin token over input ports.
    rr: RrToken,
}

/// An electrical ring or mesh NoP.
///
/// Built from the [`crate::fabric`] primitives with the exact cycle
/// behavior and checkpoint bytes of the original hand-wired version.
#[derive(Debug)]
pub struct RoutedNetwork {
    topo: RoutedTopology,
    cfg: RoutedConfig,
    routers: Vec<Router>,
    /// Unbounded per-node source queues (open-loop injection).
    src_queues: Vec<Fifo<Packet>>,
    /// Packets on the wire, tagged `(dest_router, dest_in_port, pkt)`.
    in_flight: FlightBuffer<(usize, usize, TimedPkt)>,
    cycle: u64,
    stats: NetStats,
    tracer: TraceHandle,
}

/// Out-port indices: neighbors first, local ejection last.
const EJECT: usize = usize::MAX;

impl RoutedNetwork {
    /// Builds a routed network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] for degenerate shapes.
    pub fn new(topo: RoutedTopology, cfg: RoutedConfig) -> Result<Self> {
        match topo {
            RoutedTopology::Ring { nodes } if nodes < 3 => {
                return Err(NocError::InvalidTopology {
                    reason: "ring needs ≥ 3 nodes".into(),
                })
            }
            RoutedTopology::Mesh { width, height } if width < 2 || height < 2 => {
                return Err(NocError::InvalidTopology {
                    reason: "mesh needs ≥ 2×2".into(),
                })
            }
            _ => {}
        }
        let n = topo.nodes();
        let ports = Self::neighbor_ports(&topo);
        let routers = (0..n)
            .map(|_| Router {
                inputs: (0..=ports).map(|_| Fifo::unbounded()).collect(),
                out_busy_until: vec![0; ports + 1],
                rr: RrToken::new(),
            })
            .collect();
        Ok(RoutedNetwork {
            topo,
            cfg,
            routers,
            src_queues: (0..n).map(|_| Fifo::unbounded()).collect(),
            in_flight: FlightBuffer::new(),
            cycle: 0,
            stats: NetStats::new(n * (ports + 1)),
            tracer: TraceHandle::disabled(),
        })
    }

    /// A 16-node ring with Table 1 parameters.
    ///
    /// # Panics
    ///
    /// Never panics for this fixed shape.
    pub fn ring_16() -> Self {
        RoutedNetwork::new(RoutedTopology::Ring { nodes: 16 }, RoutedConfig::default())
            // flumen-check: allow(no-panic-hot-path) — fixed 16-node shape, valid by construction
            .expect("16-node ring is valid")
    }

    /// A 4×4 mesh with Table 1 parameters.
    pub fn mesh_4x4() -> Self {
        RoutedNetwork::new(
            RoutedTopology::Mesh {
                width: 4,
                height: 4,
            },
            RoutedConfig::default(),
        )
        // flumen-check: allow(no-panic-hot-path) — fixed 4×4 shape, valid by construction
        .expect("4x4 mesh is valid")
    }

    fn neighbor_ports(topo: &RoutedTopology) -> usize {
        match topo {
            RoutedTopology::Ring { .. } => 2, // CW, CCW
            RoutedTopology::Mesh { .. } => 4, // E, W, N, S
        }
    }

    /// Output port toward `dst` from `at` (EJECT when `at == dst`).
    fn route(&self, at: usize, dst: usize) -> usize {
        if at == dst {
            return EJECT;
        }
        match self.topo {
            RoutedTopology::Ring { nodes } => {
                let fwd = (dst + nodes - at) % nodes;
                if fwd <= nodes / 2 {
                    0 // clockwise
                } else {
                    1 // counter-clockwise
                }
            }
            RoutedTopology::Mesh { width, .. } => {
                let (ax, ay) = (at % width, at / width);
                let (dx, dy) = (dst % width, dst / width);
                if ax < dx {
                    0 // east
                } else if ax > dx {
                    1 // west
                } else if ay < dy {
                    3 // south
                } else {
                    2 // north
                }
            }
        }
    }

    /// `(next_router, in_port_at_next)` over out port `p` from router `at`.
    fn link_endpoint(&self, at: usize, p: usize) -> (usize, usize) {
        match self.topo {
            RoutedTopology::Ring { nodes } => match p {
                0 => ((at + 1) % nodes, 1),         // CW arrives on the CCW-side port
                1 => ((at + nodes - 1) % nodes, 0), // CCW arrives on the CW-side port
                // flumen-check: allow(no-panic-hot-path) — p < neighbor_ports() == 2 by caller
                _ => unreachable!("ring has 2 neighbor ports"),
            },
            RoutedTopology::Mesh { width, .. } => match p {
                0 => (at + 1, 1),     // east, arrives on west port
                1 => (at - 1, 0),     // west
                2 => (at - width, 3), // north, arrives on south port
                3 => (at + width, 2), // south
                // flumen-check: allow(no-panic-hot-path) — p < neighbor_ports() == 4 by caller
                _ => unreachable!("mesh has 4 neighbor ports"),
            },
        }
    }

    fn link_id(&self, router: usize, port: usize) -> usize {
        let ports = Self::neighbor_ports(&self.topo) + 1;
        router * ports + port.min(ports - 1)
    }

    fn queue_len(&self, router: usize, port: usize) -> usize {
        self.routers[router].inputs[port].len()
    }

    /// Advances router `r`, moving at most one packet per input port.
    fn step_router(&mut self, r: usize) {
        let nports = self.routers[r].inputs.len();
        let local_port = nports - 1;
        let now = self.cycle;
        let start = self.routers[r].rr.pos();
        for k in 0..nports {
            let in_port = (start + k) % nports;
            let Some(head) = self.routers[r].inputs[in_port].front() else {
                continue;
            };
            if head.ready_at > now {
                continue;
            }
            let dst = head.pkt.dst;
            let out = self.route(r, dst);
            if out == EJECT {
                // One ejection per cycle through the local out port.
                let eject_port = local_port;
                if self.routers[r].out_busy_until[eject_port] > now {
                    continue;
                }
                let Some(tp) = self.routers[r].inputs[in_port].pop_front() else {
                    continue;
                };
                self.routers[r].out_busy_until[eject_port] = now + 1;
                self.in_flight.push(now + 1, (r, usize::MAX, tp));
                continue;
            }
            if self.routers[r].out_busy_until[out] > now {
                continue;
            }
            let (next, next_in) = self.link_endpoint(r, out);
            // Backpressure: bubble flow control needs one spare slot for
            // through-traffic and two for injections (prevents ring
            // deadlock; harmless on the mesh).
            let spare_needed = if in_port == local_port { 2 } else { 1 };
            if self.queue_len(next, next_in) + spare_needed > self.cfg.input_queue_pkts {
                continue;
            }
            let Some(mut tp) = self.routers[r].inputs[in_port].pop_front() else {
                continue;
            };
            let ser = tp.pkt.ser_cycles(self.cfg.link_bits_per_cycle);
            self.routers[r].out_busy_until[out] = now + ser;
            let lid = self.link_id(r, out);
            self.stats.link_busy[lid] += ser;
            self.stats.bit_hops += tp.pkt.bits as u64;
            #[cfg(feature = "deep-trace")]
            {
                let busy = self.stats.link_busy[lid];
                self.tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Noc,
                        "link_busy",
                        EventKind::Counter(busy as f64),
                        now,
                        lid as u32,
                    )
                });
            }
            tp.ready_at = now + ser + self.cfg.link_latency + self.cfg.router_delay;
            self.in_flight
                .push(now + ser + self.cfg.link_latency, (next, next_in, tp));
        }
        self.routers[r].rr.rotate(nports);
    }
}

impl Network for RoutedNetwork {
    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn num_nodes(&self) -> usize {
        self.topo.nodes()
    }

    fn inject(&mut self, pkt: Packet) {
        // Electrical networks replicate multicasts at the source; each
        // replica gets its own id and its own trace span.
        if pkt.is_multicast() {
            for (i, d) in pkt.dests().into_iter().enumerate() {
                let mut p = pkt.clone();
                p.dst = d;
                p.extra_dests.clear();
                p.id = pkt.id.wrapping_add((i as u64) << 48);
                self.inject(p);
            }
            return;
        }
        self.stats.injected += 1;
        self.stats.bits_injected += pkt.bits as u64;
        let now = self.cycle;
        self.tracer.emit(|| {
            TraceEvent::new(
                TraceCategory::Noc,
                "pkt",
                EventKind::AsyncBegin,
                now,
                pkt.src as u32,
            )
            .with_id(pkt.id)
            .with_arg("ndest", 1.0)
            .with_arg("bits", pkt.bits as f64)
        });
        self.src_queues[pkt.src].push_back(pkt);
    }

    fn step(&mut self) -> Vec<Delivery> {
        let now = self.cycle;
        // Move source-queue heads into the local input port.
        for node in 0..self.num_nodes() {
            let local = self.routers[node].inputs.len() - 1;
            if self.routers[node].inputs[local].len() < self.cfg.input_queue_pkts {
                if let Some(pkt) = self.src_queues[node].pop_front() {
                    self.routers[node].inputs[local].push_back(TimedPkt { pkt, ready_at: now });
                }
            }
        }
        for r in 0..self.routers.len() {
            self.step_router(r);
        }
        // Deliver / hand over arrivals that are due.
        let mut deliveries = Vec::new();
        let Self {
            in_flight,
            routers,
            stats,
            tracer,
            ..
        } = self;
        in_flight.drain_due(now, |(node, in_port, tp)| {
            if in_port == usize::MAX {
                let lat = now.saturating_sub(tp.pkt.created_at);
                stats.record_latency(lat);
                tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Noc,
                        "pkt",
                        EventKind::AsyncEnd,
                        now,
                        node as u32,
                    )
                    .with_id(tp.pkt.id)
                    .with_arg("lat", lat as f64)
                });
                deliveries.push(Delivery {
                    packet: tp.pkt,
                    at: now,
                });
            } else {
                routers[node].inputs[in_port].push_back(tp);
            }
        });
        self.cycle += 1;
        self.stats.cycles += 1;
        deliveries
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn pending(&self) -> usize {
        self.src_queues.iter().map(|q| q.len()).sum::<usize>()
            + self.in_flight.len()
            + self
                .routers
                .iter()
                .map(|r| r.inputs.iter().map(|q| q.len()).sum::<usize>())
                .sum::<usize>()
    }

    fn next_activity(&self) -> Option<u64> {
        let queued = self.src_queues.iter().any(|q| !q.is_empty())
            || self
                .routers
                .iter()
                .any(|r| r.inputs.iter().any(|q| !q.is_empty()));
        if queued {
            return Some(self.cycle);
        }
        self.in_flight.next_due().map(|at| at.max(self.cycle))
    }

    fn advance_idle(&mut self, k: u64) {
        // Every router rotates its token once per cycle, grant or not.
        debug_assert!(self.next_activity().is_none_or(|t| t >= self.cycle + k));
        for r in &mut self.routers {
            let nports = r.inputs.len();
            r.rr.rotate_by(k, nports);
        }
        self.cycle += k;
        self.stats.cycles += k;
    }
}

flumen_sim::json_struct!(TimedPkt { pkt, ready_at });
flumen_sim::json_struct!(Router {
    inputs,
    out_busy_until,
    rr
});

// Checkpoint support. `in_flight` entries are `(arrival, router, in_port,
// pkt)`; the in-port is `usize::MAX` for ejections, beyond f64's exact
// integer range, so it rides as hex. Vec order is preserved — the arrival
// scan uses `swap_remove`, making delivery order position-dependent.
impl flumen_sim::Snapshotable for RoutedNetwork {
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::ToJson;
        let in_flight = flumen_sim::Json::Arr(
            self.in_flight
                .entries()
                .iter()
                .map(|(at, (node, port, tp))| {
                    flumen_sim::Json::Arr(vec![
                        at.to_json(),
                        node.to_json(),
                        flumen_sim::json::u64_hex(*port as u64),
                        tp.to_json(),
                    ])
                })
                .collect(),
        );
        flumen_sim::Json::obj([
            ("cycle", self.cycle.to_json()),
            ("in_flight", in_flight),
            ("routers", self.routers.to_json()),
            ("src_queues", self.src_queues.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> std::result::Result<(), flumen_sim::JsonError> {
        use flumen_sim::{FromJson, JsonError};
        self.cycle = u64::from_json(j.get("cycle")?)?;
        let mut in_flight = Vec::new();
        for e in j.get("in_flight")?.as_arr()? {
            let arr = e.as_arr()?;
            let [at, node, port, tp] = arr else {
                return Err(JsonError(format!(
                    "RoutedNetwork.in_flight: expected 4 elements, got {}",
                    arr.len()
                )));
            };
            in_flight.push((
                u64::from_json(at)?,
                (
                    usize::from_json(node)?,
                    flumen_sim::json::u64_from_hex(port)? as usize,
                    TimedPkt::from_json(tp)?,
                ),
            ));
        }
        self.in_flight = FlightBuffer::from_entries(in_flight);
        self.routers = Vec::from_json(j.get("routers")?)?;
        self.src_queues = Vec::from_json(j.get("src_queues")?)?;
        self.stats = NetStats::from_json(j.get("stats")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut RoutedNetwork, cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            out.extend(net.step());
        }
        out
    }

    #[test]
    fn ring_delivers_a_packet() {
        let mut net = RoutedNetwork::ring_16();
        net.inject(Packet::new(1, 0, 4, 512, 0));
        let got = drain(&mut net, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.dst, 4);
        assert!(got[0].latency() > 0);
    }

    #[test]
    fn ring_takes_shorter_direction() {
        // 0 -> 15 is one hop CCW; latency should be far less than 15 hops.
        let mut net = RoutedNetwork::ring_16();
        net.inject(Packet::new(1, 0, 15, 512, 0));
        let got = drain(&mut net, 200);
        let lat_short = got[0].latency();
        let mut net2 = RoutedNetwork::ring_16();
        net2.inject(Packet::new(2, 0, 8, 512, 0));
        let got2 = drain(&mut net2, 400);
        assert!(lat_short < got2[0].latency());
    }

    #[test]
    fn mesh_xy_routing_delivers() {
        let mut net = RoutedNetwork::mesh_4x4();
        for dst in 1..16 {
            net.inject(Packet::new(dst as u64, 0, dst, 512, 0));
        }
        let got = drain(&mut net, 500);
        assert_eq!(got.len(), 15);
        let mut seen: Vec<usize> = got.iter().map(|d| d.packet.dst).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..16).collect::<Vec<_>>());
    }

    #[test]
    fn mesh_farther_is_slower() {
        let mut near = RoutedNetwork::mesh_4x4();
        near.inject(Packet::new(1, 0, 1, 512, 0));
        let l_near = drain(&mut near, 200)[0].latency();
        let mut far = RoutedNetwork::mesh_4x4();
        far.inject(Packet::new(1, 0, 15, 512, 0));
        let l_far = drain(&mut far, 200)[0].latency();
        assert!(l_far > l_near, "{l_far} vs {l_near}");
    }

    #[test]
    fn trace_spans_cover_inject_to_eject() {
        use flumen_trace::RecordingTracer;
        let rec = RecordingTracer::new();
        let mut net = RoutedNetwork::ring_16();
        net.set_tracer(rec.handle());
        net.inject(Packet::multicast(1, 0, &[2, 4], 512, 0));
        drain(&mut net, 200);
        let evs = rec.events();
        let begins = evs
            .iter()
            .filter(|e| e.kind == EventKind::AsyncBegin)
            .count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::AsyncEnd).count();
        assert_eq!(begins, 2, "replicated multicast begins one span per copy");
        assert_eq!(ends, 2);
        assert_eq!(flumen_trace::invariants::packet_conservation(&evs), Ok(2));
    }

    #[test]
    fn multicast_is_replicated_on_electrical() {
        let mut net = RoutedNetwork::mesh_4x4();
        net.inject(Packet::multicast(1, 0, &[1, 2, 3], 512, 0));
        assert_eq!(net.stats().injected, 3);
        let got = drain(&mut net, 500);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn heavy_load_saturates_but_drains() {
        // Flood the ring, then stop injecting; everything must drain
        // (deadlock freedom via bubble flow control).
        let mut net = RoutedNetwork::ring_16();
        let mut id = 0u64;
        for c in 0..200u64 {
            for src in 0..16 {
                net.inject(Packet::new(id, src, (src + 8) % 16, 512, c));
                id += 1;
            }
            net.step();
        }
        for _ in 0..200_000 {
            net.step();
            if net.pending() == 0 {
                break;
            }
        }
        assert_eq!(net.pending(), 0, "network failed to drain");
        assert_eq!(net.stats().delivered, net.stats().injected);
    }

    #[test]
    fn utilization_counters_advance() {
        let mut net = RoutedNetwork::mesh_4x4();
        net.inject(Packet::new(1, 0, 15, 4096, 0));
        drain(&mut net, 300);
        assert!(net.stats().avg_link_utilization() > 0.0);
        assert!(net.stats().bit_hops >= 4096 * 6); // 6 hops minimum
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(
            RoutedNetwork::new(RoutedTopology::Ring { nodes: 2 }, RoutedConfig::default()).is_err()
        );
        assert!(RoutedNetwork::new(
            RoutedTopology::Mesh {
                width: 1,
                height: 4
            },
            RoutedConfig::default()
        )
        .is_err());
    }

    #[test]
    fn latency_grows_with_load() {
        use crate::traffic::{BernoulliInjector, TrafficPattern};
        use rand::SeedableRng;
        let mut lats = Vec::new();
        for rate in [0.05, 0.6] {
            let mut net = RoutedNetwork::ring_16();
            let mut inj = BernoulliInjector::new(rate, 512, 320, TrafficPattern::UniformRandom);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            for c in 0..4000u64 {
                for p in inj.generate(16, c, &mut rng) {
                    net.inject(p);
                }
                net.step();
            }
            lats.push(net.stats().avg_latency().unwrap());
        }
        assert!(lats[1] > lats[0] * 1.5, "{lats:?}");
    }
}
