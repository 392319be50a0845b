//! Computation energy models (paper §5.3, Fig. 12b/c).
//!
//! Two competitors:
//!
//! * **Electrical MAC unit** — the 8-bit approximate multiplier of [13]:
//!   0.75 mW at 2.5 GHz. The paper's quoted 554 pJ for a 16×16×8-vector
//!   product pins the effective energy at 0.2705 pJ/MAC.
//! * **Flumen MZIM** — one `N×N` matrix product per fabric pass with `p`
//!   input vectors on `p` wavelengths. Energy =
//!   `t_op · (N²·P_phase-DAC)  +  p · (N·E_conv + t_op·P_laser(N))`, where
//!   `t_op` is the 6 ns partition programming plus the 5 GHz streaming
//!   time, and laser power grows exponentially with mesh depth.
//!
//! The three free constants (`P_PHASE_DAC_MW`, `E_CONV_PJ`,
//! `LASER_BASE_MW`/`COMPUTE_MZI_LOSS_DB`) are fitted to the six §5.3
//! operating points; four land within 2 % and the 8×8 points within ~2×
//! (see EXPERIMENTS.md for the paper-vs-measured table).

use flumen_units::{Decibels, GigaHertz, Milliwatts, Nanoseconds, Picojoules};

/// Electrical MAC energy per multiply-accumulate (derived from the
/// paper's 554 pJ @ 16×16×8 point).
pub const ELEC_MAC_PJ: Picojoules = Picojoules::new(554.0 / 2048.0);

/// Static power of one MZI phase-shifter DAC (fitted).
pub const P_PHASE_DAC_MW: Milliwatts = Milliwatts::new(0.0153);
/// Modulation + conversion energy per analog sample (fitted).
pub const E_CONV_PJ: Picojoules = Picojoules::new(0.3);
/// Laser scaling prefactor (receiver floor / wall-plug efficiency).
pub const LASER_BASE_MW: Milliwatts = Milliwatts::new(0.084);
/// Effective per-MZI insertion loss on the compute path (low-loss
/// assumption for the fitted model).
pub const COMPUTE_MZI_LOSS_DB: Decibels = Decibels::new(0.202);
/// Partition programming (switch) time (Table 1).
pub const SWITCH_NS: Nanoseconds = Nanoseconds::new(6.0);
/// Input modulation rate (Table 1).
pub const MOD_GHZ: GigaHertz = GigaHertz::new(5.0);
/// Wavelengths available for computation (Table 1).
pub const COMPUTE_LAMBDAS: usize = 8;

/// Energy of an `n×n` matrix times `p` input vectors on the electrical
/// MAC unit.
pub fn electrical_matmul_pj(n: usize, p: usize) -> Picojoules {
    ELEC_MAC_PJ.for_each((n * n * p) as u64)
}

/// Fabric occupancy for one `n×n × p`-vector product.
pub fn flumen_op_time_ns(p: usize) -> Nanoseconds {
    let passes = p.div_ceil(COMPUTE_LAMBDAS).max(1);
    SWITCH_NS + MOD_GHZ.ns_for(passes as f64)
}

/// Laser wall-plug power per compute wavelength for an `n`-input
/// partition.
pub fn flumen_laser_mw(n: usize) -> Milliwatts {
    let loss_db = (2 * n + 1) as f64 * COMPUTE_MZI_LOSS_DB;
    LASER_BASE_MW * loss_db.to_linear()
}

/// One-time **programming** energy of a `p`-vector batch on an `n`-input
/// Flumen partition: the `n²` phase DACs held for the whole fabric
/// occupancy window. Paid once per mesh configuration regardless of batch
/// size — the term batched MVM amortizes.
pub fn flumen_programming_pj(n: usize, p: usize) -> Picojoules {
    let t = flumen_op_time_ns(p);
    t * (n * n) as f64 * P_PHASE_DAC_MW
}

/// Per-vector **propagation** energy on an `n`-input Flumen partition:
/// DAC/ADC conversion of the `n` input/output samples plus the laser
/// wall-plug energy for one vector's traversal. Paid `p` times per batch.
pub fn flumen_propagation_pj(n: usize, p: usize) -> Picojoules {
    let t = flumen_op_time_ns(p);
    n as f64 * E_CONV_PJ + t * flumen_laser_mw(n)
}

/// Energy of an `n×n` matrix times `p` vectors on an `n`-input Flumen
/// partition.
///
/// Defined as exactly `1×programming + p×propagation` — the batched-MVM
/// conservation identity
/// `flumen_matmul_pj(n, p) == flumen_programming_pj(n, p) + p · flumen_propagation_pj(n, p)`
/// holds bit-exactly by construction (same operands, same order).
pub fn flumen_matmul_pj(n: usize, p: usize) -> Picojoules {
    flumen_programming_pj(n, p) + p as f64 * flumen_propagation_pj(n, p)
}

/// Energy per MAC for the Flumen fabric (Fig. 12c).
pub fn flumen_mac_pj(n: usize, p: usize) -> Picojoules {
    flumen_matmul_pj(n, p) / (n * n * p) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(measured: Picojoules, paper: f64) -> f64 {
        (measured.value() - paper).abs() / paper
    }

    #[test]
    fn electrical_anchor_points() {
        // §5.3: 69.2 pJ @ 8×8×4 and 554 pJ @ 16×16×8.
        assert!(rel_err(electrical_matmul_pj(8, 4), 69.2) < 0.01);
        assert!(rel_err(electrical_matmul_pj(16, 8), 554.0) < 0.001);
    }

    #[test]
    fn flumen_fitted_points() {
        // 16×16×8: paper 82 pJ.
        assert!(
            rel_err(flumen_matmul_pj(16, 8), 82.0) < 0.05,
            "{}",
            flumen_matmul_pj(16, 8)
        );
        // 64×64: paper 0.62 / 1.32 / 2.24 nJ for 1 / 4 / 8 MVMs.
        assert!(
            rel_err(flumen_matmul_pj(64, 1), 620.0) < 0.05,
            "{}",
            flumen_matmul_pj(64, 1)
        );
        assert!(
            rel_err(flumen_matmul_pj(64, 4), 1320.0) < 0.05,
            "{}",
            flumen_matmul_pj(64, 4)
        );
        assert!(
            rel_err(flumen_matmul_pj(64, 8), 2240.0) < 0.05,
            "{}",
            flumen_matmul_pj(64, 8)
        );
    }

    #[test]
    fn flumen_beats_electrical_at_paper_points() {
        // Paper ratios: 2× @ (8,4), ~7× @ (16,8), 1.8/3.4/4.0× @ 64.
        for (n, p, min_ratio) in [
            (8usize, 4usize, 1.8f64),
            (8, 8, 3.0),
            (16, 8, 6.0),
            (64, 1, 1.6),
            (64, 4, 3.0),
            (64, 8, 3.5),
        ] {
            let ratio = electrical_matmul_pj(n, p) / flumen_matmul_pj(n, p);
            assert!(ratio > min_ratio, "({n},{p}): ratio {ratio:.2}");
        }
    }

    #[test]
    fn advantage_grows_with_vectors() {
        let r1 = electrical_matmul_pj(16, 1) / flumen_matmul_pj(16, 1);
        let r8 = electrical_matmul_pj(16, 8) / flumen_matmul_pj(16, 8);
        assert!(r8 > r1);
    }

    #[test]
    fn mac_energy_decreases_with_size_and_wavelengths() {
        // Fig. 12c: more parallelism amortizes the static DAC power.
        assert!(flumen_mac_pj(16, 8) < flumen_mac_pj(8, 8));
        assert!(flumen_mac_pj(8, 8) < flumen_mac_pj(8, 1));
        assert!(flumen_mac_pj(32, 8) < flumen_mac_pj(16, 8));
    }

    #[test]
    fn flumen_energy_monotone_in_work() {
        for n in [4usize, 8, 16, 32, 64] {
            for p in 1..8 {
                assert!(flumen_matmul_pj(n, p + 1) > flumen_matmul_pj(n, p));
            }
        }
    }

    #[test]
    fn batched_energy_conservation_is_exact() {
        // batched_total == 1×programming + B×propagation, bit-exact —
        // the identity the batched-offload conservation suite relies on.
        for n in [4usize, 8, 16, 64, 128] {
            for p in [1usize, 2, 7, 8, 9, 64, 1024] {
                let total = flumen_matmul_pj(n, p).value();
                let split =
                    (flumen_programming_pj(n, p) + p as f64 * flumen_propagation_pj(n, p)).value();
                assert_eq!(total.to_bits(), split.to_bits(), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn batching_amortizes_programming() {
        // Per-vector energy must fall strictly with batch size, converging
        // toward the propagation floor as the fixed programming term is
        // spread over more vectors (at n=64 programming is ~63% of the
        // batch-1 energy, so the asymptotic ratio is ≈2.2×).
        let per_vec = |p: usize| flumen_matmul_pj(64, p).value() / p as f64;
        assert!(per_vec(8) < per_vec(4));
        assert!(per_vec(4) < per_vec(1));
        assert!(per_vec(1) / per_vec(64) > 2.0);
        let floor = flumen_propagation_pj(64, 64).value();
        assert!(per_vec(64) < 1.1 * floor);
    }

    #[test]
    fn op_time_includes_extra_passes() {
        assert!((flumen_op_time_ns(8).value() - 6.2).abs() < 1e-12);
        assert!((flumen_op_time_ns(16).value() - 6.4).abs() < 1e-12);
        assert!((flumen_op_time_ns(1).value() - 6.2).abs() < 1e-12);
    }
}
