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
    /// Matrix-memory slots of the control unit's program cache (0 disables
    /// caching — the paper's baseline). When enabled, a request whose
    /// `matrix_key` matches a resident program skips the full partition
    /// programming time, and only cache misses charge per-MZI phase
    /// writes (incremental reprogramming).
    pub program_cache_entries: usize,
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
            program_cache_entries: 0,
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

    /// Fabric service cost when the request's phases are already resident
    /// in the program cache: the initial full-mesh programming
    /// (`switch_cycles`) is skipped, leaving only the pipelined per-config
    /// switches and streaming.
    pub fn service_cost_cached(&self, configs: u64, vectors: u64, n: u64) -> f64 {
        self.service_cost(configs, vectors, n) - self.switch_cycles
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
    /// Content address of the weight strip (0 = uncacheable).
    matrix_key: u64,
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
    /// FIFO of matrix keys resident in the program cache (matrix-memory
    /// model; bounded by `params.program_cache_entries`).
    cache_keys: VecDeque<u64>,
    program_cache_hits: u64,
    program_cache_misses: u64,
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
            cache_keys: VecDeque::new(),
            program_cache_hits: 0,
            program_cache_misses: 0,
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

    /// Admitted requests whose program was already resident in the cache.
    pub fn program_cache_hits(&self) -> u64 {
        self.program_cache_hits
    }

    /// Admitted requests that paid the full programming cost (and, cache
    /// enabled, were inserted).
    pub fn program_cache_misses(&self) -> u64 {
        self.program_cache_misses
    }

    /// Pre-seeds the program cache with an explicit resident set — the
    /// matrix-memory model of a fleet-warm replica whose programs were
    /// compiled elsewhere (e.g. a
    /// `flumen_photonics::ProgramStore::manifest_keys` manifest). Keys are
    /// deduplicated and bounded by `params.program_cache_entries`
    /// (FIFO: later keys win); zero keys are skipped (0 marks "no cache
    /// key" on tasks). Returns the number of keys resident afterwards.
    ///
    /// Determinism contract: simulation results depend only on the
    /// explicit `keys` slice passed here. Hash-checked flows (golden
    /// grid, sweep/serve result hashes) must not derive this list from
    /// ambient disk state, or cold and warm stores would diverge.
    pub fn preload_program_cache(&mut self, keys: &[u64]) -> usize {
        if self.params.program_cache_entries == 0 {
            return 0;
        }
        for &key in keys {
            if key == 0 || self.cache_keys.contains(&key) {
                continue;
            }
            while self.cache_keys.len() >= self.params.program_cache_entries {
                self.cache_keys.pop_front();
            }
            self.cache_keys.push_back(key);
        }
        self.cache_keys.len()
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
            let mut cost = params.service_cost(head.configs, head.vectors, head.n);
            if params.program_cache_entries > 0 && head.matrix_key != 0 {
                if self.cache_keys.contains(&head.matrix_key) {
                    // Program-cache hit: the phases are already in matrix
                    // memory, so the full-mesh programming is skipped and
                    // zero MZI writes are charged (incremental reprogram
                    // of an identical program is a no-op).
                    self.program_cache_hits += 1;
                    cost = params.service_cost_cached(head.configs, head.vectors, head.n);
                    self.tracer.emit(|| {
                        TraceEvent::instant(
                            TraceCategory::Scheduler,
                            "compute.program_cache_hit",
                            now,
                            0,
                        )
                        .with_id(head.tag)
                    });
                    self.tracer.emit(|| {
                        TraceEvent::counter(
                            TraceCategory::Scheduler,
                            "incremental_reprogram_mzis",
                            now,
                            0,
                            0.0,
                        )
                        .with_id(head.tag)
                    });
                } else {
                    self.program_cache_misses += 1;
                    while self.cache_keys.len() >= params.program_cache_entries {
                        self.cache_keys.pop_front();
                    }
                    self.cache_keys.push_back(head.matrix_key);
                    // Full SVD-circuit program: w(w−1)/2 mesh MZIs plus
                    // the w attenuator MZIs of the Σ column.
                    let programmed = (width * (width.saturating_sub(1)) / 2 + width) as u64;
                    self.counts.mzim_programmed_mzis += programmed;
                    self.tracer.emit(|| {
                        TraceEvent::instant(
                            TraceCategory::Scheduler,
                            "compute.program_cache_miss",
                            now,
                            0,
                        )
                        .with_id(head.tag)
                    });
                    self.tracer.emit(|| {
                        TraceEvent::counter(
                            TraceCategory::Scheduler,
                            "incremental_reprogram_mzis",
                            now,
                            0,
                            programmed as f64,
                        )
                        .with_id(head.tag)
                    });
                }
            }
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
        let [configs, vectors, n, _macs, matrix_key] = payload;
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
            matrix_key,
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
        cu.on_request(0, 0, 2, 77, [4, 16, 4, 0, 0]);
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
        cu.on_request(0, 52, 13, 1, [1, 1_000_000, 4, 0, 0]);
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
        cu.on_request(0, 0, 2, 5, [4, 16, 4, 0, 0]);
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
        cu.on_request(0, 0, 2, 9, [4, 16, 4, 0, 0]);
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
        cu.on_request(0, 0, 1, 1, [100, 64, 4, 0, 0]);
        cu.on_request(0, 4, 9, 2, [100, 64, 4, 0, 0]);
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
        cu.on_request(0, 0, 2, 1, [10, 32, 4, 0, 0]);
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
        cu.on_request(0, 0, 1, 1, [20, 64, 4, 0, 0]);
        cu.on_request(0, 4, 9, 2, [20, 64, 4, 0, 0]);
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

    fn cached_unit(entries: usize) -> MzimControlUnit {
        MzimControlUnit::new(ControlUnitParams {
            program_cache_entries: entries,
            ..ControlUnitParams::paper()
        })
    }

    #[test]
    fn paper_params_disable_program_cache() {
        let mut cu = unit();
        let mut net = net16();
        cu.on_request(0, 0, 2, 1, [4, 16, 4, 0, 42]);
        cu.on_request(0, 0, 2, 2, [4, 16, 4, 0, 42]);
        drive(&mut cu, &mut net, 1000);
        assert_eq!(cu.program_cache_hits(), 0);
        assert_eq!(cu.program_cache_misses(), 0);
        let mut counts = ActivityCounts::default();
        cu.drain_counts(&mut counts);
        assert_eq!(counts.mzim_programmed_mzis, 0);
    }

    #[test]
    fn repeated_key_hits_program_cache() {
        let mut cu = cached_unit(4);
        let mut net = net16();
        cu.on_request(0, 0, 2, 1, [4, 16, 4, 0, 42]);
        cu.on_request(0, 0, 2, 2, [4, 16, 4, 0, 42]);
        cu.on_request(0, 0, 2, 3, [4, 16, 4, 0, 42]);
        let outcomes = drive(&mut cu, &mut net, 2000);
        assert_eq!(outcomes.iter().filter(|o| o.accepted).count(), 3);
        assert_eq!(cu.program_cache_misses(), 1);
        assert_eq!(cu.program_cache_hits(), 2);
        // Only the miss charged phase writes: 4·3/2 + 4 = 10 MZIs, once.
        let mut counts = ActivityCounts::default();
        cu.drain_counts(&mut counts);
        assert_eq!(counts.mzim_programmed_mzis, 10);
    }

    #[test]
    fn zero_key_bypasses_program_cache() {
        let mut cu = cached_unit(4);
        let mut net = net16();
        cu.on_request(0, 0, 2, 1, [4, 16, 4, 0, 0]);
        cu.on_request(0, 0, 2, 2, [4, 16, 4, 0, 0]);
        drive(&mut cu, &mut net, 1000);
        assert_eq!(cu.program_cache_hits(), 0);
        assert_eq!(cu.program_cache_misses(), 0);
    }

    #[test]
    fn preloaded_keys_hit_on_first_access() {
        let mut cu = cached_unit(4);
        let mut net = net16();
        // A fleet-warm replica: keys 42 and 7 were compiled elsewhere.
        assert_eq!(cu.preload_program_cache(&[42, 7, 7, 0]), 2);
        cu.on_request(0, 0, 2, 1, [4, 16, 4, 0, 42]);
        cu.on_request(0, 0, 2, 2, [4, 16, 4, 0, 7]);
        cu.on_request(0, 0, 2, 3, [4, 16, 4, 0, 9]);
        drive(&mut cu, &mut net, 2000);
        assert_eq!(cu.program_cache_hits(), 2, "preloaded keys hit cold");
        assert_eq!(cu.program_cache_misses(), 1);
        // With the cache disabled, preloading is a no-op.
        let mut off = cached_unit(0);
        assert_eq!(off.preload_program_cache(&[1, 2, 3]), 0);
        // The resident set is bounded by the configured capacity.
        let mut tiny = cached_unit(2);
        assert_eq!(tiny.preload_program_cache(&[1, 2, 3, 4]), 2);
    }

    #[test]
    fn program_cache_evicts_fifo() {
        let mut cu = cached_unit(1);
        let mut net = net16();
        // Key 7, then key 8 (evicts 7), then key 7 again → miss.
        cu.on_request(0, 0, 2, 1, [1, 8, 4, 0, 7]);
        cu.on_request(0, 0, 2, 2, [1, 8, 4, 0, 8]);
        cu.on_request(0, 0, 2, 3, [1, 8, 4, 0, 7]);
        drive(&mut cu, &mut net, 2000);
        assert_eq!(cu.program_cache_misses(), 3);
        assert_eq!(cu.program_cache_hits(), 0);
    }

    #[test]
    fn cache_hit_shortens_service_and_emits_events() {
        use flumen_trace::RecordingTracer;
        let p = ControlUnitParams::paper();
        assert!(
            p.service_cost_cached(4, 16, 4) < p.service_cost(4, 16, 4),
            "cached cost must drop the initial programming"
        );
        let rec = RecordingTracer::new();
        let mut cu = cached_unit(4);
        cu.set_tracer(rec.handle());
        let mut net = net16();
        cu.on_request(0, 0, 2, 1, [4, 16, 4, 0, 42]);
        cu.on_request(0, 0, 2, 2, [4, 16, 4, 0, 42]);
        drive(&mut cu, &mut net, 2000);
        let evs = rec.events();
        assert!(evs.iter().any(|e| e.name == "compute.program_cache_miss"));
        assert!(evs.iter().any(|e| e.name == "compute.program_cache_hit"));
        let reprogram: Vec<f64> = evs
            .iter()
            .filter(|e| e.name == "incremental_reprogram_mzis")
            .filter_map(|e| match e.kind {
                EventKind::Counter(v) => Some(v),
                _ => None,
            })
            .collect();
        // Miss programs 10 MZIs, hit reprograms none.
        assert_eq!(reprogram, vec![10.0, 0.0]);
    }

    #[test]
    fn snapshot_mid_service_resumes_bit_identically() {
        use flumen_sim::Snapshotable;
        let mut cu = cached_unit(2);
        let mut net = net16();
        // Background traffic keeps β (and therefore Algorithm 1's
        // decisions) nontrivial across the checkpoint.
        for src in 0..16 {
            net.inject(Packet::new(src as u64, src, (src + 5) % 16, 2048, 0));
        }
        cu.on_request(0, 0, 2, 1, [20, 64, 4, 0, 42]);
        cu.on_request(0, 4, 9, 2, [20, 64, 4, 0, 42]);
        cu.on_request(0, 8, 5, 3, [4, 16, 4, 0, 7]);
        let _ = drive(&mut cu, &mut net, 40);
        let (cu_snap, net_snap) = (cu.snapshot(), net.snapshot());

        let mut cu_b = cached_unit(2);
        let mut net_b = net16();
        cu_b.restore(&cu_snap).unwrap();
        net_b.restore(&net_snap).unwrap();

        let out_a = drive(&mut cu, &mut net, 3000);
        let out_b = drive(&mut cu_b, &mut net_b, 3000);
        assert_eq!(out_a, out_b);
        assert_eq!(cu.admitted(), cu_b.admitted());
        assert_eq!(cu.rejected(), cu_b.rejected());
        assert_eq!(cu.program_cache_hits(), cu_b.program_cache_hits());
        assert_eq!(cu.program_cache_misses(), cu_b.program_cache_misses());
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
        cu.on_request(0, 0, 2, 3, [4, 16, 4, 0, 0]);
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
    program_cache_entries,
});

// Checkpoint bridges. `matrix_key` is a full-range content hash, so it
// rides as hex; everything else fits f64's exact integers.
impl flumen_sim::ToJson for CompRequest {
    fn to_json(&self) -> flumen_sim::Json {
        flumen_sim::Json::obj([
            ("arrived", self.arrived.to_json()),
            ("chiplet", self.chiplet.to_json()),
            ("configs", self.configs.to_json()),
            ("matrix_key", flumen_sim::json::u64_hex(self.matrix_key)),
            ("n", self.n.to_json()),
            ("tag", self.tag.to_json()),
            ("vectors", self.vectors.to_json()),
        ])
    }
}

impl flumen_sim::FromJson for CompRequest {
    fn from_json(j: &flumen_sim::Json) -> std::result::Result<Self, flumen_sim::JsonError> {
        Ok(CompRequest {
            tag: u64::from_json(j.get("tag")?)?,
            chiplet: usize::from_json(j.get("chiplet")?)?,
            configs: u64::from_json(j.get("configs")?)?,
            vectors: u64::from_json(j.get("vectors")?)?,
            n: u64::from_json(j.get("n")?)?,
            matrix_key: flumen_sim::json::u64_from_hex(j.get("matrix_key")?)?,
            arrived: u64::from_json(j.get("arrived")?)?,
        })
    }
}

flumen_sim::json_struct!(ActivePartition { ports, tag, wires });

// Checkpoint support. Parameters and the tracer are reconstruction-time
// state and not serialized; restore validates the wire count against the
// already-configured instance. The program cache rides as hex (content
// hashes use the full 64-bit range) in FIFO order.
impl flumen_sim::Snapshotable for MzimControlUnit {
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::{Json, ToJson};
        let keys: Vec<u64> = self.cache_keys.iter().copied().collect();
        Json::obj([
            ("active", self.active.to_json()),
            ("admitted", self.admitted.to_json()),
            ("cache_keys", flumen_sim::json::u64s_hex(&keys)),
            ("counts", self.counts.to_json()),
            ("finished", self.finished.to_json()),
            ("program_cache_hits", self.program_cache_hits.to_json()),
            ("program_cache_misses", self.program_cache_misses.to_json()),
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
        self.cache_keys = flumen_sim::json::u64s_from_hex(j.get("cache_keys")?)?.into();
        self.program_cache_hits = j.get("program_cache_hits")?.as_u64()?;
        self.program_cache_misses = j.get("program_cache_misses")?.as_u64()?;
        Ok(())
    }
}
