//! The Mach-Zehnder interferometer (MZI) transfer function.
//!
//! The MZI is the unit cell of every mesh in this crate. Its transfer matrix
//! (paper Eq. 1) maps a pair of input E-fields to a pair of output E-fields:
//!
//! ```text
//! T(θ, φ) = j·e^{-jθ/2} · | e^{jφ}·sin(θ/2)   cos(θ/2) |
//!                         | e^{jφ}·cos(θ/2)  −sin(θ/2) |
//! ```
//!
//! with amplitude-modulating phase `θ ∈ [0, π]` and tuning phase
//! `φ ∈ [0, 2π)`. Two special states matter for communication:
//!
//! * **cross** (`θ = 0`): top input → bottom output and vice versa,
//! * **bar** (`θ = π`): both inputs pass straight through,
//!
//! and every intermediate `θ` is a beamsplitter (`θ = π/2` is 50:50),
//! used to build broadcast trees (paper Fig. 6b).

use flumen_linalg::C64;
use std::f64::consts::PI;

/// A 2×2 MZI transfer matrix, as [`MziPhase::transfer`] returns it.
pub(crate) type Transfer = [[C64; 2]; 2];

/// Phase settings of one MZI.
///
/// # Examples
///
/// ```
/// use flumen_photonics::MziPhase;
/// let cross = MziPhase::cross();
/// // Cross state routes all power from the top input to the bottom output.
/// let t = cross.transfer();
/// assert!((t[1][0].norm_sqr() - 1.0).abs() < 1e-12);
/// assert!(t[0][0].norm_sqr() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MziPhase {
    /// Amplitude-modulating phase shift, `[0, π]`.
    pub theta: f64,
    /// Tuning phase shift, `[0, 2π)`.
    pub phi: f64,
}

impl MziPhase {
    /// Creates a phase pair, clamping `θ` into `[0, π]` and wrapping `φ`
    /// into `[0, 2π)`.
    pub fn new(theta: f64, phi: f64) -> Self {
        MziPhase {
            theta: theta.clamp(0.0, PI),
            phi: phi.rem_euclid(2.0 * PI),
        }
    }

    /// The cross state (`θ = 0`): inputs swap outputs.
    pub const fn cross() -> Self {
        MziPhase {
            theta: 0.0,
            phi: 0.0,
        }
    }

    /// The bar state (`θ = π`): inputs pass straight through.
    pub const fn bar() -> Self {
        MziPhase {
            theta: PI,
            phi: 0.0,
        }
    }

    /// A splitting state sending fraction `frac_straight` of the *power*
    /// of each input to its same-numbered output (bar-like path), and the
    /// rest to the crossed output.
    ///
    /// `frac_straight = 1` is the bar state, `0` the cross state and `0.5`
    /// a 50:50 splitter (`θ = π/2`).
    ///
    /// # Panics
    ///
    /// Panics if `frac_straight` is outside `[0, 1]`.
    pub fn splitter(frac_straight: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac_straight),
            "power fraction must lie in [0, 1]"
        );
        // |T00|² = sin²(θ/2) = frac_straight
        MziPhase::new(2.0 * frac_straight.sqrt().asin(), 0.0)
    }

    /// Whether this is (numerically) the bar state.
    pub fn is_bar(&self) -> bool {
        (self.theta - PI).abs() < 1e-9
    }

    /// Whether this is (numerically) the cross state.
    pub fn is_cross(&self) -> bool {
        self.theta.abs() < 1e-9
    }

    /// The 2×2 complex transfer matrix (paper Eq. 1).
    pub fn transfer(&self) -> [[C64; 2]; 2] {
        let half = self.theta / 2.0;
        let (s, c) = (half.sin(), half.cos());
        let g = C64::I * C64::cis(-half); // j·e^{-jθ/2}
        Self::transfer_from_parts(g, C64::cis(self.phi), s, c)
    }

    /// The transfer matrix assembled from its trigonometric parts:
    /// `g = j·e^{-jθ/2}`, `e_phi = e^{jφ}`, `s = sin(θ/2)`, `c = cos(θ/2)`.
    /// [`MziPhase::transfer`] is this on freshly computed parts, so a
    /// caller that already holds them gets the same bits for less work.
    pub(crate) fn transfer_from_parts(g: C64, e_phi: C64, s: f64, c: f64) -> Transfer {
        [[g * e_phi * s, g * c], [g * e_phi * c, g * -s]]
    }

    /// Fraction of input power that stays on the same waveguide
    /// (`|T00|² = sin²(θ/2)`).
    pub fn straight_fraction(&self) -> f64 {
        let s = (self.theta / 2.0).sin();
        s * s
    }
}

/// An attenuating MZI used in the Σ column of an SVD mesh (paper Fig. 4,
/// open circles): only the top two ports are connected, so the device is a
/// programmable amplitude modulator with field transmission
/// `sin(θ/2) ∈ [0, 1]`.
///
/// The residual device phase `j·e^{-jθ/2}·e^{jφ}` is absorbed into the
/// adjacent unitary mesh's programming (a unitary right-multiplied by a
/// diagonal phase screen is still unitary), so the effective transmission
/// exposed here is the real amplitude `σ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attenuator {
    /// Field transmission amplitude in `[0, 1]`.
    amplitude: f64,
}

impl Attenuator {
    /// A fully-transparent attenuator (`σ = 1`).
    pub const fn transparent() -> Self {
        Attenuator { amplitude: 1.0 }
    }

    /// Creates an attenuator with field transmission `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PhotonicsError::SingularValueTooLarge`] when
    /// `sigma > 1` (a passive MZI cannot amplify), and treats negative
    /// values as invalid too.
    pub fn with_amplitude(sigma: f64) -> crate::Result<Self> {
        if !(0.0..=1.0 + 1e-9).contains(&sigma) {
            return Err(crate::PhotonicsError::SingularValueTooLarge { sigma });
        }
        Ok(Attenuator {
            amplitude: sigma.min(1.0),
        })
    }

    /// The field transmission amplitude `σ`.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The MZI internal phase `θ` realizing this transmission
    /// (`σ = sin(θ/2)`).
    pub fn theta(&self) -> f64 {
        2.0 * self.amplitude.asin()
    }

    /// Applies the attenuation to a field.
    pub fn apply(&self, field: C64) -> C64 {
        field * self.amplitude
    }
}

impl Default for Attenuator {
    fn default() -> Self {
        Attenuator::transparent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_linalg::CMat;

    fn as_cmat(t: [[C64; 2]; 2]) -> CMat {
        CMat::from_rows(2, 2, vec![t[0][0], t[0][1], t[1][0], t[1][1]]).unwrap()
    }

    #[test]
    fn transfer_is_unitary_for_many_phases() {
        for i in 0..=8 {
            for j in 0..8 {
                let p = MziPhase::new(i as f64 * PI / 8.0, j as f64 * PI / 4.0);
                assert!(as_cmat(p.transfer()).is_unitary(1e-12), "{p:?}");
            }
        }
    }

    #[test]
    fn cross_state_swaps() {
        let t = MziPhase::cross().transfer();
        assert!(t[0][0].norm_sqr() < 1e-15);
        assert!(t[1][1].norm_sqr() < 1e-15);
        assert!((t[0][1].norm_sqr() - 1.0).abs() < 1e-12);
        assert!((t[1][0].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bar_state_passes_straight() {
        let t = MziPhase::bar().transfer();
        assert!((t[0][0].norm_sqr() - 1.0).abs() < 1e-12);
        assert!((t[1][1].norm_sqr() - 1.0).abs() < 1e-12);
        assert!(t[0][1].norm_sqr() < 1e-15);
        assert!(t[1][0].norm_sqr() < 1e-15);
    }

    #[test]
    fn fifty_fifty_splitter() {
        let t = MziPhase::splitter(0.5).transfer();
        for row in &t {
            for z in row {
                assert!((z.norm_sqr() - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn splitter_power_fraction_respected() {
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = MziPhase::splitter(frac);
            assert!((p.straight_fraction() - frac).abs() < 1e-12);
            let t = p.transfer();
            assert!((t[0][0].norm_sqr() - frac).abs() < 1e-12);
            assert!((t[1][0].norm_sqr() - (1.0 - frac)).abs() < 1e-12);
        }
    }

    #[test]
    fn state_predicates() {
        assert!(MziPhase::bar().is_bar());
        assert!(!MziPhase::bar().is_cross());
        assert!(MziPhase::cross().is_cross());
        assert!(!MziPhase::splitter(0.5).is_bar());
    }

    #[test]
    fn new_clamps_and_wraps() {
        let p = MziPhase::new(4.0, -1.0);
        assert!(p.theta <= PI);
        assert!((0.0..2.0 * PI).contains(&p.phi));
    }

    #[test]
    fn energy_conservation_arbitrary_input() {
        let p = MziPhase::new(1.234, 2.345);
        let t = p.transfer();
        let a = C64::new(0.6, -0.2);
        let b = C64::new(-0.1, 0.7);
        let o0 = t[0][0] * a + t[0][1] * b;
        let o1 = t[1][0] * a + t[1][1] * b;
        let pin = a.norm_sqr() + b.norm_sqr();
        let pout = o0.norm_sqr() + o1.norm_sqr();
        assert!((pin - pout).abs() < 1e-12);
    }

    #[test]
    fn attenuator_bounds() {
        assert!(Attenuator::with_amplitude(0.5).is_ok());
        assert!(Attenuator::with_amplitude(1.0).is_ok());
        assert!(Attenuator::with_amplitude(1.5).is_err());
        assert!(Attenuator::with_amplitude(-0.1).is_err());
    }

    #[test]
    fn attenuator_theta_round_trip() {
        for sigma in [0.0, 0.3, 0.7, 1.0] {
            let a = Attenuator::with_amplitude(sigma).unwrap();
            assert!(((a.theta() / 2.0).sin() - sigma).abs() < 1e-12);
        }
    }

    #[test]
    fn attenuator_applies_amplitude() {
        let a = Attenuator::with_amplitude(0.5).unwrap();
        let f = a.apply(C64::new(2.0, 2.0));
        assert!(f.approx_eq(C64::new(1.0, 1.0), 1e-12));
        assert_eq!(Attenuator::default().amplitude(), 1.0);
    }
}
