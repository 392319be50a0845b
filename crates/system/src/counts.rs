//! Activity counters consumed by the energy model.

/// Raw event counts accumulated over a simulation run. The energy model
/// (`flumen-power`) turns these into joules; keeping raw counts here keeps
/// the system simulator independent of device constants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityCounts {
    /// Arithmetic/logic operations executed by cores.
    pub core_ops: u64,
    /// Cycles any core spent busy (for static core power).
    pub core_busy_cycles: u64,
    /// L1 instruction fetches (≈ instructions).
    pub l1i_accesses: u64,
    /// L1 data accesses.
    pub l1d_accesses: u64,
    /// L1 data misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 slice accesses (local or remote).
    pub l3_accesses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Request/reply/writeback packets injected into the NoP.
    pub nop_packets: u64,
    /// Offload requests issued to the MZIM control unit (Flumen-A only).
    pub offload_requests: u64,
    /// Matrix-vector products executed photonically (Flumen-A only).
    pub mzim_mvms: u64,
    /// Analog input samples modulated (Flumen-A only): `N` per MVM.
    pub mzim_input_samples: u64,
    /// Analog output samples converted by ADCs (Flumen-A only).
    pub mzim_output_samples: u64,
    /// Cycles during which at least one compute partition was active.
    pub mzim_active_cycles: u64,
    /// MZIM partition (re)configurations for compute.
    pub mzim_reconfigs: u64,
    /// Always zero: the control unit programs every partition in full and
    /// charges that time in its service cost, not per MZI write. Kept
    /// because it is part of the serialized run result (and so of every
    /// recorded result digest).
    pub mzim_programmed_mzis: u64,
}

impl ActivityCounts {
    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &ActivityCounts) {
        self.core_ops += other.core_ops;
        self.core_busy_cycles += other.core_busy_cycles;
        self.l1i_accesses += other.l1i_accesses;
        self.l1d_accesses += other.l1d_accesses;
        self.l1d_misses += other.l1d_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.l3_accesses += other.l3_accesses;
        self.l3_misses += other.l3_misses;
        self.dram_accesses += other.dram_accesses;
        self.nop_packets += other.nop_packets;
        self.offload_requests += other.offload_requests;
        self.mzim_mvms += other.mzim_mvms;
        self.mzim_input_samples += other.mzim_input_samples;
        self.mzim_output_samples += other.mzim_output_samples;
        self.mzim_active_cycles += other.mzim_active_cycles;
        self.mzim_reconfigs += other.mzim_reconfigs;
        self.mzim_programmed_mzis += other.mzim_programmed_mzis;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ActivityCounts {
            core_ops: 5,
            dram_accesses: 2,
            ..Default::default()
        };
        let b = ActivityCounts {
            core_ops: 7,
            l2_misses: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.core_ops, 12);
        assert_eq!(a.dram_accesses, 2);
        assert_eq!(a.l2_misses, 3);
    }

    #[test]
    fn default_is_zero() {
        let c = ActivityCounts::default();
        assert_eq!(c.core_ops, 0);
        assert_eq!(c.mzim_mvms, 0);
    }
}

// JSON bridge (canonical serialized form for sweep results and snapshots).
flumen_sim::json_struct!(ActivityCounts {
    core_ops,
    core_busy_cycles,
    l1i_accesses,
    l1d_accesses,
    l1d_misses,
    l2_accesses,
    l2_misses,
    l3_accesses,
    l3_misses,
    dram_accesses,
    nop_packets,
    offload_requests,
    mzim_mvms,
    mzim_input_samples,
    mzim_output_samples,
    mzim_active_cycles,
    mzim_reconfigs,
    mzim_programmed_mzis,
});
