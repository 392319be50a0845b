//! The MZIM control unit (paper §3.4, Fig. 8).
//!
//! Implemented as a `flumen-system` [`ExternalServer`] attached to the
//! [`MzimCrossbar`] network: cores submit offload descriptors over the
//! arbitration waveguide, Algorithm 1 decides at every τ boundary whether
//! a compute partition may be carved out of the fabric, and an admitted
//! request reserves the corresponding crossbar endpoints (which is exactly
//! how a compute partition blocks communication in the real fabric).
//!
//! ## Service-time model
//!
//! A request describes `configs` matrix sub-blocks, `vectors` input
//! vectors per block and the partition width `n`. Creating the partition
//! costs the full 6 ns (15-cycle) phase programming. Subsequent sub-block
//! reconfigurations are **double-buffered**: the control unit's matrix
//! memory preloads the next block's DAC codes while the current block
//! streams, hiding a configurable fraction of the switch time
//! (`config_pipeline`). Streaming moves one ≤8-λ batch of vectors per
//! modulation slot (5 GHz → 0.5 core cycles), once through the block for
//! inputs and once back for results. Without pipelining, a block-heavy
//! kernel like VGG-FC would spend 98 % of its fabric time waiting on phase
//! settling and could never reach the paper's reported speedups — the
//! ablation binary `abl_reconfig_overhead` quantifies exactly this.

use crate::scheduler::{admit, buffer_utilization, AdmissionOutcome, SchedulerParams};
use flumen_noc::MzimCrossbar;
use flumen_sim::EventQueue;
use flumen_system::{ActivityCounts, ExternalOutcome, ExternalPayload, ExternalServer};
use flumen_trace::{EventKind, TraceCategory, TraceEvent, TraceHandle};
use flumen_units::Cycles;
use std::collections::VecDeque;

/// Timing/shape parameters of the control unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlUnitParams {
    /// Algorithm 1 parameters.
    pub scheduler: SchedulerParams,
    /// Fabric input count (8 for the paper's 16-chiplet system).
    pub fabric_n: usize,
    /// Chiplets per fabric wire (16 chiplets on an 8×8 fabric → 2).
    pub chiplets_per_wire: usize,
    /// Full partition programming time, cycles (6 ns at 2.5 GHz).
    pub switch_cycles: f64,
    /// Fraction of per-block reconfiguration hidden by double-buffered
    /// phase DACs.
    pub config_pipeline: f64,
    /// Cycles to stream one ≤8-λ vector batch through a configured block
    /// (5 GHz modulation → 0.5 core cycles).
    pub stream_cycles_per_batch: f64,
    /// Wavelengths used for computation (Table 1: 8).
    pub compute_lambdas: usize,
    /// Round-trip latency of the arbitration waveguide, cycles.
    pub arbitration_cycles: u64,
    /// Maximum concurrently active compute partitions.
    pub max_partitions: usize,
}

impl ControlUnitParams {
    /// The paper's configuration.
    pub fn paper() -> Self {
        ControlUnitParams {
            scheduler: SchedulerParams::paper(),
            fabric_n: 8,
            chiplets_per_wire: 2,
            switch_cycles: 15.0,
            config_pipeline: 0.995,
            stream_cycles_per_batch: 0.5,
            compute_lambdas: 8,
            arbitration_cycles: 4,
            max_partitions: 2,
        }
    }

    /// Total fabric service cost of a request, in cycles.
    pub fn service_cost(&self, configs: u64, vectors: u64, _n: u64) -> f64 {
        let batches = vectors.div_ceil(self.compute_lambdas as u64).max(1) as f64;
        let per_config_switch = self.switch_cycles * (1.0 - self.config_pipeline);
        // Full-duplex streaming: while batch k's inputs modulate, batch
        // k−1's results stream back over the many-to-one return path, so
        // the forward pass sets the rate.
        let per_config_stream = batches * self.stream_cycles_per_batch;
        self.switch_cycles + configs as f64 * (per_config_switch + per_config_stream)
    }
}

impl Default for ControlUnitParams {
    fn default() -> Self {
        ControlUnitParams::paper()
    }
}

#[derive(Debug, Clone)]
struct CompRequest {
    tag: u64,
    chiplet: usize,
    configs: u64,
    vectors: u64,
    n: u64,
    arrived: u64,
}

#[derive(Debug, Clone)]
struct ActivePartition {
    tag: u64,
    wires: Vec<usize>,
    ports: Vec<usize>,
}

/// The MZIM control unit: request buffers + Algorithm 1 + fabric service.
#[derive(Debug)]
pub struct MzimControlUnit {
    params: ControlUnitParams,
    /// buff_comp: queued compute requests.
    queue: VecDeque<CompRequest>,
    /// Active partitions keyed by their completion deadline. The fractional
    /// fabric cost is rounded up once at admission (a partition holding its
    /// wires for `ceil(cost)` cycles is exactly what the old per-cycle
    /// `remaining -= 1.0` loop computed), so replacing the scan with
    /// scheduled wakeups is bit-identical.
    active: EventQueue<ActivePartition>,
    /// Fabric wires currently reserved for compute.
    wire_busy: Vec<bool>,
    counts: ActivityCounts,
    /// Completions to report on the next `step`.
    finished: Vec<ExternalOutcome>,
    /// Statistics: requests admitted / rejected.
    admitted: u64,
    rejected: u64,
    tracer: TraceHandle,
}

impl MzimControlUnit {
    /// Creates a control unit.
    pub fn new(params: ControlUnitParams) -> Self {
        let n = params.fabric_n;
        MzimControlUnit {
            params,
            queue: VecDeque::new(),
            active: EventQueue::new(),
            wire_busy: vec![false; n],
            counts: ActivityCounts::default(),
            finished: Vec::new(),
            admitted: 0,
            rejected: 0,
            tracer: TraceHandle::disabled(),
        }
    }

    /// Installs a scheduler-category tracer: per-wire `partition` async
    /// spans (grant → release) and an instant per Algorithm 1 decision
    /// (named by [`AdmissionOutcome::event_name`]).
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn emit_outcome(&self, outcome: AdmissionOutcome, now: u64, tag: u64, beta: f64) {
        self.tracer.emit(|| {
            TraceEvent::instant(TraceCategory::Scheduler, outcome.event_name(), now, 0)
                .with_id(tag)
                .with_arg("beta", beta)
        });
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far (computed locally instead).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Currently queued compute requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Finds a contiguous free wire range of `width`, preferring one that
    /// contains `prefer_wire` (the requester's fabric port).
    fn find_wires(&self, width: usize, prefer_wire: usize) -> Option<Vec<usize>> {
        let n = self.params.fabric_n;
        if width > n {
            return None;
        }
        let mut candidates = Vec::new();
        let mut start = 0;
        while start + width <= n {
            if (start..start + width).all(|w| !self.wire_busy[w]) {
                candidates.push(start);
            }
            // Partitions sit on width-aligned boundaries (paper Fig. 5).
            start += width;
        }
        candidates
            .iter()
            .find(|&&s| (s..s + width).contains(&prefer_wire))
            .or(candidates.first())
            .map(|&s| (s..s + width).collect())
    }

    fn try_admit(&mut self, now: u64, net: &mut MzimCrossbar) {
        let params = self.params.clone();
        while self.active.len() < params.max_partitions {
            let Some(head) = self.queue.front().cloned() else {
                break;
            };
            // Timed-out requests are bounced to local compute.
            if now.saturating_sub(head.arrived) > params.scheduler.max_wait {
                self.queue.pop_front();
                self.rejected += 1;
                self.emit_outcome(AdmissionOutcome::TimedOut, now, head.tag, f64::NAN);
                self.finished.push(ExternalOutcome {
                    tag: head.tag,
                    accepted: false,
                });
                continue;
            }
            let beta = buffer_utilization(
                &net.queue_depths(),
                params.scheduler.zeta,
                params.scheduler.buffer_capacity,
            );
            if !admit(beta, &params.scheduler) {
                self.emit_outcome(AdmissionOutcome::Deferred, now, head.tag, beta);
                break;
            }
            let width = (head.n as usize).min(params.fabric_n);
            let prefer = head.chiplet / params.chiplets_per_wire;
            let Some(wires) = self.find_wires(width, prefer) else {
                self.emit_outcome(AdmissionOutcome::Deferred, now, head.tag, beta);
                break;
            };
            let ports: Vec<usize> = wires
                .iter()
                .flat_map(|&w| {
                    (0..params.chiplets_per_wire).map(move |k| w * params.chiplets_per_wire + k)
                })
                .collect();
            if net.reserve_wires(&ports).is_err() {
                break;
            }
            self.queue.pop_front();
            for &w in &wires {
                self.wire_busy[w] = true;
                self.tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Scheduler,
                        "partition",
                        EventKind::AsyncBegin,
                        now,
                        w as u32,
                    )
                    .with_id(head.tag)
                });
            }
            let cost = params.service_cost(head.configs, head.vectors, head.n);
            self.emit_outcome(AdmissionOutcome::Admitted, now, head.tag, beta);
            self.admitted += 1;
            self.counts.mzim_reconfigs += head.configs;
            self.counts.mzim_mvms += head.configs * head.vectors;
            self.counts.mzim_input_samples += head.configs * head.vectors * head.n;
            self.counts.mzim_output_samples += head.configs * head.vectors * head.n;
            let charged = cost + Cycles::new(params.arbitration_cycles).count_f64();
            self.active.schedule(
                Cycles::new(now + charged.ceil() as u64),
                ActivePartition {
                    tag: head.tag,
                    wires,
                    ports,
                },
            );
        }
    }
}

impl ExternalServer<MzimCrossbar> for MzimControlUnit {
    fn on_request(
        &mut self,
        now: u64,
        _core: usize,
        chiplet: usize,
        tag: u64,
        payload: ExternalPayload,
    ) {
        let [configs, vectors, n, _macs] = payload;
        self.tracer.emit(|| {
            TraceEvent::instant(TraceCategory::Scheduler, "request", now, 0)
                .with_id(tag)
                .with_arg("configs", configs as f64)
                .with_arg("n", n as f64)
        });
        self.queue.push_back(CompRequest {
            tag,
            chiplet,
            configs,
            vectors,
            n,
            arrived: now,
        });
    }

    fn step(&mut self, now: u64, net: &mut MzimCrossbar) -> Vec<ExternalOutcome> {
        // Advance active partitions. The busy-cycle count is charged before
        // completions retire so the final cycle of a partition still counts
        // as fabric-active (matching the old decrement-then-remove scan).
        if !self.active.is_empty() {
            self.counts.mzim_active_cycles += 1;
        }
        while let Some(done) = self.active.pop_due(Cycles::new(now)) {
            for w in &done.wires {
                self.wire_busy[*w] = false;
                self.tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Scheduler,
                        "partition",
                        EventKind::AsyncEnd,
                        now,
                        *w as u32,
                    )
                    .with_id(done.tag)
                });
            }
            let _ = net.release_wires(&done.ports);
            self.finished.push(ExternalOutcome {
                tag: done.tag,
                accepted: true,
            });
        }
        // Reject requests that arrive under crushing network pressure.
        if !self.queue.is_empty() {
            let beta = buffer_utilization(
                &net.queue_depths(),
                self.params.scheduler.zeta,
                self.params.scheduler.buffer_capacity,
            );
            if beta > self.params.scheduler.reject_beta {
                while let Some(req) = self.queue.pop_front() {
                    self.rejected += 1;
                    self.emit_outcome(AdmissionOutcome::Rejected, now, req.tag, beta);
                    self.finished.push(ExternalOutcome {
                        tag: req.tag,
                        accepted: false,
                    });
                }
            }
        }
        // Partition evaluation every τ cycles (and opportunistically when
        // the fabric is idle and traffic is quiet).
        if now.is_multiple_of(self.params.scheduler.tau)
            || self.active.len() < self.params.max_partitions
        {
            self.try_admit(now, net);
        }
        std::mem::take(&mut self.finished)
    }

    fn outstanding(&self) -> usize {
        self.queue.len() + self.active.len() + self.finished.len()
    }

    /// Queued requests and unreported completions act now; otherwise
    /// the next partition completion is the only event.
    fn next_activity(&self, now: u64) -> Option<u64> {
        if !self.queue.is_empty() || !self.finished.is_empty() {
            return Some(now);
        }
        self.active.peek_deadline().map(|t| t.value().max(now))
    }

    fn advance_idle(&mut self, k: u64) {
        if !self.active.is_empty() {
            self.counts.mzim_active_cycles += k;
        }
    }

    fn drain_counts(&mut self, counts: &mut ActivityCounts) {
        counts.merge(&self.counts);
        self.counts = ActivityCounts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::{CrossbarConfig, Network, Packet};

    fn net16() -> MzimCrossbar {
        MzimCrossbar::new(16, CrossbarConfig::default()).unwrap()
    }

    fn unit() -> MzimControlUnit {
        MzimControlUnit::new(ControlUnitParams::paper())
    }

    fn drive(
        cu: &mut MzimControlUnit,
        net: &mut MzimCrossbar,
        cycles: u64,
    ) -> Vec<ExternalOutcome> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            let now = net.cycle();
            out.extend(cu.step(now, net));
            net.step();
        }
        out
    }

    #[test]
    fn idle_network_admits_quickly() {
        let mut cu = unit();
        let mut net = net16();
        cu.on_request(0, 0, 2, 77, [4, 16, 4, 0]);
        let outcomes = drive(&mut cu, &mut net, 300);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].accepted);
        assert_eq!(outcomes[0].tag, 77);
        assert_eq!(cu.admitted(), 1);
        // Wires were released after completion.
        assert!(net.reserved_wires().is_empty());
    }

    #[test]
    fn partition_reserves_requesters_half() {
        let mut cu = unit();
        let mut net = net16();
        // Requester on chiplet 13 → fabric wire 6 → bottom half (wires 4..8
        // → ports 8..16).
        cu.on_request(0, 52, 13, 1, [1, 1_000_000, 4, 0]);
        let _ = cu.step(0, &mut net);
        let reserved = net.reserved_wires();
        assert_eq!(reserved, vec![8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn service_cost_scales_with_configs_and_vectors() {
        let p = ControlUnitParams::paper();
        let small = p.service_cost(1, 8, 4);
        let more_cfg = p.service_cost(100, 8, 4);
        let more_vec = p.service_cost(1, 8000, 4);
        assert!(more_cfg > small);
        assert!(more_vec > small);
        // One config, one batch: partition setup dominates.
        assert!((small - (15.0 + 15.0 * 0.005 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn busy_network_defers_admission() {
        let mut cu = unit();
        let mut net = net16();
        // Saturate the request buffers well past η.
        for src in 0..16 {
            for k in 0..12 {
                net.inject(Packet::new(
                    (src * 100 + k) as u64,
                    src,
                    (src + 1) % 16,
                    1024,
                    0,
                ));
            }
        }
        cu.on_request(0, 0, 2, 5, [4, 16, 4, 0]);
        let _ = cu.step(0, &mut net);
        assert_eq!(cu.admitted(), 0, "β above η must defer");
        assert_eq!(cu.queued(), 1);
        // Drain the network; the request is eventually admitted.
        let outcomes = drive(&mut cu, &mut net, 3000);
        assert!(outcomes.iter().any(|o| o.accepted && o.tag == 5));
    }

    #[test]
    fn crushing_load_rejects_to_local_compute() {
        let params = ControlUnitParams {
            scheduler: SchedulerParams {
                reject_beta: 0.3,
                ..SchedulerParams::paper()
            },
            ..ControlUnitParams::paper()
        };
        let mut cu = MzimControlUnit::new(params);
        let mut net = net16();
        for src in 0..16 {
            for k in 0..16 {
                net.inject(Packet::new(
                    (src * 100 + k) as u64,
                    src,
                    (src + 3) % 16,
                    1024,
                    0,
                ));
            }
        }
        cu.on_request(0, 0, 2, 9, [4, 16, 4, 0]);
        let outcomes = cu.step(1, &mut net);
        assert!(outcomes.iter().any(|o| !o.accepted && o.tag == 9));
        assert_eq!(cu.rejected(), 1);
    }

    #[test]
    fn concurrent_partitions_capped() {
        let params = ControlUnitParams {
            max_partitions: 1,
            ..ControlUnitParams::paper()
        };
        let mut cu = MzimControlUnit::new(params);
        let mut net = net16();
        cu.on_request(0, 0, 1, 1, [100, 64, 4, 0]);
        cu.on_request(0, 4, 9, 2, [100, 64, 4, 0]);
        let _ = cu.step(0, &mut net);
        assert_eq!(cu.admitted(), 1);
        assert_eq!(cu.queued(), 1);
        // After the first completes, the second runs.
        let outcomes = drive(&mut cu, &mut net, 5_000);
        assert_eq!(outcomes.iter().filter(|o| o.accepted).count(), 2);
    }

    #[test]
    fn counts_accumulate_offload_activity() {
        let mut cu = unit();
        let mut net = net16();
        cu.on_request(0, 0, 2, 1, [10, 32, 4, 0]);
        drive(&mut cu, &mut net, 1000);
        let mut counts = ActivityCounts::default();
        cu.drain_counts(&mut counts);
        assert_eq!(counts.mzim_reconfigs, 10);
        assert_eq!(counts.mzim_mvms, 320);
        assert_eq!(counts.mzim_input_samples, 320 * 4);
        assert!(counts.mzim_active_cycles > 0);
    }

    #[test]
    fn trace_partition_spans_alternate_per_wire() {
        use flumen_trace::{invariants, RecordingTracer};
        let rec = RecordingTracer::new();
        let mut cu = unit();
        cu.set_tracer(rec.handle());
        let mut net = net16();
        cu.on_request(0, 0, 1, 1, [20, 64, 4, 0]);
        cu.on_request(0, 4, 9, 2, [20, 64, 4, 0]);
        drive(&mut cu, &mut net, 5_000);
        let evs = rec.events();
        assert!(evs.iter().any(|e| e.name == "request"));
        assert!(evs.iter().any(|e| e.name == "admit"));
        // Both requests ran; every wire was granted and released cleanly.
        let grants = invariants::partition_alternation(&evs).unwrap();
        assert!(
            grants >= 8,
            "two width-4 partitions grant ≥ 8 wires: {grants}"
        );
        // Every span closed: no wire still held after both completions.
        let begins = evs
            .iter()
            .filter(|e| e.kind == EventKind::AsyncBegin)
            .count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::AsyncEnd).count();
        assert_eq!(begins, ends);
    }

    /// The paper's control unit keeps no programs between offloads: a
    /// repeat of the same request pays the full programming time again.
    #[test]
    fn paper_params_disable_program_cache() {
        let mut cu = unit();
        let mut net = net16();
        let mut service = Vec::new();
        for tag in 1..=2 {
            let start = net.cycle();
            cu.on_request(start, 0, 2, tag, [4, 16, 4, 0]);
            let mut done = None;
            while done.is_none() {
                let now = net.cycle();
                if cu.step(now, &mut net).iter().any(|o| o.accepted) {
                    done = Some(now - start);
                }
                net.step();
            }
            service.extend(done);
        }
        assert_eq!(service[0], service[1], "a repeat costs the same");
        let mut counts = ActivityCounts::default();
        cu.drain_counts(&mut counts);
        assert_eq!(counts.mzim_programmed_mzis, 0);
    }

    #[test]
    fn snapshot_mid_service_resumes_bit_identically() {
        use flumen_sim::Snapshotable;
        let mut cu = unit();
        let mut net = net16();
        // Background traffic keeps β (and therefore Algorithm 1's
        // decisions) nontrivial across the checkpoint.
        for src in 0..16 {
            net.inject(Packet::new(src as u64, src, (src + 5) % 16, 2048, 0));
        }
        cu.on_request(0, 0, 2, 1, [20, 64, 4, 0]);
        cu.on_request(0, 4, 9, 2, [20, 64, 4, 0]);
        cu.on_request(0, 8, 5, 3, [4, 16, 4, 0]);
        let _ = drive(&mut cu, &mut net, 40);
        let (cu_snap, net_snap) = (cu.snapshot(), net.snapshot());

        let mut cu_b = unit();
        let mut net_b = net16();
        cu_b.restore(&cu_snap).unwrap();
        net_b.restore(&net_snap).unwrap();

        let out_a = drive(&mut cu, &mut net, 3000);
        let out_b = drive(&mut cu_b, &mut net_b, 3000);
        assert_eq!(out_a, out_b);
        assert_eq!(cu.admitted(), cu_b.admitted());
        assert_eq!(cu.rejected(), cu_b.rejected());
        assert_eq!(cu.snapshot().to_canonical(), cu_b.snapshot().to_canonical());
        let mut ca = ActivityCounts::default();
        let mut cb = ActivityCounts::default();
        cu.drain_counts(&mut ca);
        cu_b.drain_counts(&mut cb);
        assert_eq!(ca, cb);
    }

    #[test]
    fn restore_rejects_wrong_fabric_width() {
        use flumen_sim::Snapshotable;
        let snap = unit().snapshot();
        let mut narrow = MzimControlUnit::new(ControlUnitParams {
            fabric_n: 4,
            ..ControlUnitParams::paper()
        });
        assert!(narrow.restore(&snap).is_err());
    }

    #[test]
    fn timeout_rejects_stuck_requests() {
        let params = ControlUnitParams {
            scheduler: SchedulerParams {
                max_wait: 50,
                eta: -1.0,
                ..SchedulerParams::paper()
            },
            ..ControlUnitParams::paper()
        };
        // η = -1 means nothing is ever admitted; requests must time out.
        let mut cu = MzimControlUnit::new(params);
        let mut net = net16();
        cu.on_request(0, 0, 2, 3, [4, 16, 4, 0]);
        let outcomes = drive(&mut cu, &mut net, 200);
        assert!(outcomes.iter().any(|o| !o.accepted && o.tag == 3));
    }
}

// JSON bridge (canonical serialized form; field names feed sweep job
// hashes).
flumen_sim::json_struct!(ControlUnitParams {
    scheduler,
    fabric_n,
    chiplets_per_wire,
    switch_cycles,
    config_pipeline,
    stream_cycles_per_batch,
    compute_lambdas,
    arbitration_cycles,
    max_partitions,
});

flumen_sim::json_struct!(CompRequest {
    arrived,
    chiplet,
    configs,
    n,
    tag,
    vectors,
});

flumen_sim::json_struct!(ActivePartition { ports, tag, wires });

// Checkpoint support. Parameters and the tracer are reconstruction-time
// state and not serialized; restore validates the wire count against the
// already-configured instance.
impl flumen_sim::Snapshotable for MzimControlUnit {
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::{Json, ToJson};
        Json::obj([
            ("active", self.active.to_json()),
            ("admitted", self.admitted.to_json()),
            ("counts", self.counts.to_json()),
            ("finished", self.finished.to_json()),
            ("queue", self.queue.to_json()),
            ("rejected", self.rejected.to_json()),
            ("wire_busy", self.wire_busy.to_json()),
        ])
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> std::result::Result<(), flumen_sim::JsonError> {
        use flumen_sim::{FromJson, JsonError};
        let wire_busy = Vec::<bool>::from_json(j.get("wire_busy")?)?;
        if wire_busy.len() != self.params.fabric_n {
            return Err(JsonError(format!(
                "MzimControlUnit.wire_busy: snapshot has {} wires, instance has {}",
                wire_busy.len(),
                self.params.fabric_n
            )));
        }
        self.queue = VecDeque::from_json(j.get("queue")?)?;
        self.active = EventQueue::from_json(j.get("active")?)?;
        self.wire_busy = wire_busy;
        self.counts = ActivityCounts::from_json(j.get("counts")?)?;
        self.finished = Vec::from_json(j.get("finished")?)?;
        self.admitted = j.get("admitted")?.as_u64()?;
        self.rejected = j.get("rejected")?.as_u64()?;
        Ok(())
    }
}
