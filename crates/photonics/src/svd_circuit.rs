//! The SVD MZIM compute circuit (paper §3.1.1, Fig. 4).
//!
//! A non-unitary matrix `M = U Σ Vᵀ` is realized photonically as three
//! stages: a unitary mesh programmed with `Vᵀ`, a column of attenuating MZIs
//! implementing the singular values `σᵢ`, and a unitary mesh programmed with
//! `U`. An `N`-input circuit uses `N(N−1)/2 + N + N(N−1)/2 = N²` MZIs.
//!
//! Because the attenuators are passive, `0 ≤ σᵢ ≤ 1` is required; arbitrary
//! matrices are pre-scaled by their spectral norm (paper §3.3.1,
//! [`flumen_linalg::spectral_scale`]) and the result is scaled back
//! digitally after readout.

use crate::analog::AnalogModel;
use crate::clements::{apply_program_with, decompose_into, ClementsWork, MeshProgram};
use crate::mesh::MzimMesh;
use crate::mzi::{Attenuator, MziPhase, Transfer};
use crate::progstore::{matrix_key, PartitionProgram, ProgramStore};
use crate::{PhotonicsError, Result};
use flumen_linalg::{CMat, RMat, SvdWork, C64};
use std::cell::RefCell;

/// A programmed `N`-input SVD MZIM circuit.
///
/// # Examples
///
/// ```
/// use flumen_photonics::SvdCircuit;
/// use flumen_linalg::RMat;
///
/// # fn main() -> Result<(), flumen_photonics::PhotonicsError> {
/// let m = RMat::from_fn(4, 4, |r, c| ((r * 4 + c) as f64).sin());
/// let circuit = SvdCircuit::program(&m)?;
/// let x = vec![0.5, -0.25, 0.125, 1.0];
/// let y = circuit.apply(&x);
/// let y_true = m.mul_vec(&x);
/// for (a, b) in y.iter().zip(y_true.iter()) {
///     assert!((a - b).abs() < 1e-8);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SvdCircuit {
    n: usize,
    v_mesh: MzimMesh,
    attens: Vec<Attenuator>,
    u_mesh: MzimMesh,
    scale: f64,
}

impl SvdCircuit {
    /// Programs the circuit for an arbitrary square matrix, applying
    /// spectral-norm pre-scaling automatically. The scale is folded back in
    /// [`SvdCircuit::apply`]. This is [`SvdCircuit::reprogram`] on a fresh
    /// circuit and scratch.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::InvalidSize`] for matrices smaller than 2×2 or
    ///   non-square.
    /// * Propagates decomposition failures.
    pub fn program(m: &RMat) -> Result<Self> {
        Self::programmed(m, true)
    }

    /// Programs the circuit like [`SvdCircuit::program`], consulting an
    /// optional [`ProgramStore`] first: a store hit replays the persisted
    /// decomposition (bit-identical to the cold path — both run the same
    /// [`crate::progstore::derive_program`] pipeline and the store
    /// round-trips every `f64` bit), a miss derives and writes the entry
    /// through for the next caller. With `store == None` this *is*
    /// [`SvdCircuit::program`].
    ///
    /// # Errors
    ///
    /// See [`SvdCircuit::program`].
    pub fn program_with_store(m: &RMat, store: Option<&ProgramStore>) -> Result<Self> {
        let Some(store) = store else {
            return Self::program(m);
        };
        check_square(m)?;
        let mut c = Self::new(m.rows());
        c.reprogram_with_store(m, Some(store), &mut SvdScratch::new())?;
        Ok(c)
    }

    /// Builds the circuit from a pre-derived [`PartitionProgram`]
    /// (typically a [`ProgramStore`] entry). Replaying the stored Clements
    /// programs is deterministic, so the result is bit-identical to
    /// [`SvdCircuit::program`] on the matrix the program was derived from.
    ///
    /// # Errors
    ///
    /// [`PhotonicsError::InvalidSize`] for inconsistent program
    /// dimensions; propagates mesh programming errors.
    pub fn from_program(prog: &PartitionProgram) -> Result<Self> {
        let n = prog.width();
        if n < 2 || prog.u_prog.n != n || prog.sigma.len() != n {
            return Err(PhotonicsError::InvalidSize {
                n,
                requirement: "partition program meshes and σ must agree, ≥ 2×2",
            });
        }
        let mut c = Self::new(n);
        c.load(prog, None, &mut Vec::new())?;
        Ok(c)
    }

    /// Programs the circuit for a matrix whose singular values are already
    /// all ≤ 1 (e.g. after [`flumen_linalg::spectral_scale`]).
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::SingularValueTooLarge`] if any `σᵢ > 1`.
    /// * [`PhotonicsError::InvalidSize`] for matrices smaller than 2×2 or
    ///   non-square.
    pub fn program_prescaled(m: &RMat) -> Result<Self> {
        Self::programmed(m, false)
    }

    /// A fresh circuit programmed for `m`, pre-scaled or not.
    fn programmed(m: &RMat, prescale: bool) -> Result<Self> {
        check_square(m)?;
        let mut c = Self::new(m.rows());
        with_program_work(|work| c.reprogram_from(m, prescale, work))?;
        Ok(c)
    }

    /// An idle `n`-wide circuit: both meshes in the bar state, transparent
    /// attenuators and scale 1. [`SvdCircuit::reprogram`] makes it compute.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        SvdCircuit {
            n,
            v_mesh: MzimMesh::new(n),
            attens: vec![Attenuator::transparent(); n],
            u_mesh: MzimMesh::new(n),
            scale: 1.0,
        }
    }

    /// Reprograms this circuit in place for the square matrix `m`, exactly
    /// as [`SvdCircuit::program`] would build it (bit for bit). All work
    /// happens in `scratch`: once the scratch and this circuit have been
    /// used at `m`'s width, reprogramming allocates nothing. A circuit of
    /// another width is rebuilt first.
    ///
    /// # Errors
    ///
    /// See [`SvdCircuit::program`]. After an error the circuit holds a
    /// partial program and must be reprogrammed before use.
    pub fn reprogram(&mut self, m: &RMat, scratch: &mut SvdScratch) -> Result<()> {
        check_square(m)?;
        self.reprogram_from(m, true, scratch.program_work())
    }

    /// [`SvdCircuit::reprogram`] through an optional [`ProgramStore`], as
    /// [`SvdCircuit::program_with_store`] does: a hit loads the stored
    /// program, a miss derives it in `scratch` and writes it through. With
    /// `store == None` this is [`SvdCircuit::reprogram`].
    ///
    /// # Errors
    ///
    /// See [`SvdCircuit::reprogram`].
    pub fn reprogram_with_store(
        &mut self,
        m: &RMat,
        store: Option<&ProgramStore>,
        scratch: &mut SvdScratch,
    ) -> Result<()> {
        let Some(store) = store else {
            return self.reprogram(m, scratch);
        };
        check_square(m)?;
        let key = matrix_key(m);
        let w = m.rows();
        let work = scratch.program_work();
        if let Some(prog) = store.load(&key, w) {
            return self.load(&prog, None, &mut work.wire_free);
        }
        work.derive(m, true)?;
        store.store(&key, w, &work.prog);
        work.load_into(self)
    }

    /// Derives `m`'s program in `work` and loads it.
    fn reprogram_from(&mut self, m: &RMat, prescale: bool, work: &mut ProgramWork) -> Result<()> {
        work.derive(m, prescale)?;
        work.load_into(self)
    }

    /// Writes a derived program into the meshes and attenuators, with the
    /// `Vᵀ` and `U` op transfers if the caller has them.
    fn load(
        &mut self,
        prog: &PartitionProgram,
        transfers: Option<(&[Transfer], &[Transfer])>,
        wire_free: &mut Vec<usize>,
    ) -> Result<()> {
        if self.n != prog.width() {
            *self = Self::new(prog.width());
        }
        let (v_ts, u_ts) = transfers.unzip();
        apply_program_with(&mut self.v_mesh, &prog.v_prog, v_ts, wire_free)?;
        apply_program_with(&mut self.u_mesh, &prog.u_prog, u_ts, wire_free)?;
        for (a, &s) in self.attens.iter_mut().zip(&prog.sigma) {
            *a = Attenuator::with_amplitude(s.min(1.0))?;
        }
        self.scale = prog.norm;
        Ok(())
    }

    /// Quantizes every programmed phase to the model's phase-DAC
    /// resolution (call once after programming; idempotent).
    pub fn quantize_phases(&mut self, model: &AnalogModel) {
        quantize_mesh_phases(&mut self.v_mesh, model);
        quantize_mesh_phases(&mut self.u_mesh, model);
    }

    /// The circuit size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The digital scale factor (`‖M‖₂` of the original matrix).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Total MZIs: `N²` (two meshes of `N(N−1)/2` plus `N` attenuators).
    pub fn mzi_count(&self) -> usize {
        self.n * self.n
    }

    /// The programmed singular values (attenuator amplitudes).
    pub fn sigmas(&self) -> Vec<f64> {
        self.attens.iter().map(|a| a.amplitude()).collect()
    }

    /// Ideal analog matrix-vector product `M·x`: encode `x` as E-field
    /// amplitudes, propagate through `Vᵀ`, Σ, `U`, then read out coherently
    /// and scale back digitally.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.apply_with_model(x, &AnalogModel::ideal(), 0)
    }

    /// Matrix-vector product through the analog precision model.
    ///
    /// Inputs are quantized by the input DACs, the propagation is an exact
    /// E-field simulation, and the readout adds noise and quantization per
    /// `model`. `seed` makes the readout noise deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn apply_with_model(&self, x: &[f64], model: &AnalogModel, seed: u64) -> Vec<f64> {
        let mut ys = vec![0.0; self.n];
        self.apply_into(x, model, seed, &mut SvdScratch::new(), &mut ys);
        ys
    }

    /// [`SvdCircuit::apply_with_model`] into a caller-owned output, with
    /// the E-field vector kept in `scratch`: once the scratch has been used
    /// at this width, applying allocates nothing. `out` receives exactly
    /// the bits `apply_with_model` returns.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or `out.len() != n`.
    pub fn apply_into(
        &self,
        x: &[f64],
        model: &AnalogModel,
        seed: u64,
        scratch: &mut SvdScratch,
        out: &mut [f64],
    ) {
        assert_eq!(x.len(), self.n, "input vector must match circuit size");
        assert_eq!(out.len(), self.n, "output vector must match circuit size");
        out.copy_from_slice(x);
        model.quantize_inputs(out);
        let fields = &mut scratch.fields;
        fields.clear();
        fields.extend(out.iter().map(|&v| C64::from_re(v)));
        self.v_mesh.propagate_in_place(fields);
        for (f, a) in fields.iter_mut().zip(self.attens.iter()) {
            *f = a.apply(*f);
        }
        self.u_mesh.propagate_in_place(fields);
        // Coherent (homodyne) readout recovers the signed amplitude.
        for (y, f) in out.iter_mut().zip(fields.iter()) {
            *y = f.re;
        }
        model.apply_readout(out, seed);
        for y in out.iter_mut() {
            *y *= self.scale;
        }
    }
}

fn quantize_mesh_phases(mesh: &mut MzimMesh, model: &AnalogModel) {
    if model.phase_bits == 0 {
        return;
    }
    mesh.map_phases(|p| MziPhase::new(model.quantize_phase(p.theta), model.quantize_phase(p.phi)));
    mesh.map_output_phases(|p| model.quantize_phase(p));
}

/// Rejects non-square and sub-2×2 matrices.
fn check_square(m: &RMat) -> Result<()> {
    let n = m.rows();
    if m.cols() != n || n < 2 {
        return Err(PhotonicsError::InvalidSize {
            n,
            requirement: "SVD circuit needs a square matrix, ≥ 2×2",
        });
    }
    Ok(())
}

/// Per-worker buffers for programming and applying [`SvdCircuit`]s off
/// the heap: the SVD work, the scaled block, the unitary under
/// decomposition, the Clements `W` and op lists, the derived program, the
/// mesh schedule and the E-field vector. One scratch serves circuits of
/// any width; its buffers grow to the widest seen. A new scratch allocates
/// nothing until first used.
///
/// # Examples
///
/// ```
/// use flumen_photonics::{AnalogModel, SvdCircuit, SvdScratch};
/// use flumen_linalg::RMat;
///
/// # fn main() -> Result<(), flumen_photonics::PhotonicsError> {
/// let mut scratch = SvdScratch::new();
/// let mut circuit = SvdCircuit::program(&RMat::identity(4))?;
/// let m = RMat::from_fn(4, 4, |r, c| ((r * 4 + c) as f64).cos());
/// circuit.reprogram(&m, &mut scratch)?;
/// let x = [0.5, -0.25, 0.125, 1.0];
/// let mut y = [0.0; 4];
/// circuit.apply_into(&x, &AnalogModel::ideal(), 0, &mut scratch, &mut y);
/// assert_eq!(y.to_vec(), SvdCircuit::program(&m)?.apply(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SvdScratch {
    /// Programming buffers, built on the first program.
    program: Option<ProgramWork>,
    /// E-field vector of [`SvdCircuit::apply_into`].
    fields: Vec<C64>,
}

impl SvdScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    fn program_work(&mut self) -> &mut ProgramWork {
        self.program.get_or_insert_with(ProgramWork::new)
    }
}

thread_local! {
    /// The derive buffers of this thread's one-shot programming calls
    /// ([`SvdCircuit::program`], [`crate::progstore::derive_program`]), so
    /// those wrappers allocate little beyond what they return.
    static PROGRAM_WORK: RefCell<ProgramWork> = RefCell::new(ProgramWork::new());
}

/// Runs `f` on this thread's [`ProgramWork`] (a fresh one if it is
/// already in use further up the stack).
pub(crate) fn with_program_work<R>(f: impl FnOnce(&mut ProgramWork) -> R) -> R {
    PROGRAM_WORK.with(|work| match work.try_borrow_mut() {
        Ok(mut work) => f(&mut work),
        Err(_) => f(&mut ProgramWork::new()),
    })
}

/// The derive pipeline of one partition program (paper §3.3.1 then
/// §3.1.1): spectral pre-scaling, SVD, and one Clements decomposition per
/// unitary factor, over reusable buffers. [`SvdCircuit`] programs through
/// it and [`crate::progstore::derive_program`] returns its result, so a
/// stored program and a cold one are the same bits.
#[derive(Debug, Clone)]
pub(crate) struct ProgramWork {
    svd: SvdWork,
    scaled: RMat,
    unitary: CMat,
    clements: ClementsWork,
    /// The last derived program.
    pub(crate) prog: PartitionProgram,
    /// Op transfers of `prog.v_prog` and `prog.u_prog`.
    v_transfers: Vec<Transfer>,
    u_transfers: Vec<Transfer>,
    wire_free: Vec<usize>,
}

impl ProgramWork {
    pub(crate) fn new() -> Self {
        ProgramWork {
            svd: SvdWork::new(),
            scaled: RMat::zeros(1, 1),
            unitary: CMat::zeros(1, 1),
            clements: ClementsWork::new(),
            prog: PartitionProgram {
                v_prog: MeshProgram::empty(),
                u_prog: MeshProgram::empty(),
                sigma: Vec::new(),
                norm: 1.0,
            },
            v_transfers: Vec::new(),
            u_transfers: Vec::new(),
            wire_free: Vec::new(),
        }
    }

    /// Loads the last derived program into `circuit`.
    fn load_into(&mut self, circuit: &mut SvdCircuit) -> Result<()> {
        let transfers = (&self.v_transfers[..], &self.u_transfers[..]);
        circuit.load(&self.prog, Some(transfers), &mut self.wire_free)
    }

    /// Derives the program of the square, at least 2×2 matrix `m` into
    /// `self.prog`. With `prescale`, `m` is first divided by its spectral
    /// norm (kept as `prog.norm`; an all-zero `m` keeps norm 1), as
    /// [`flumen_linalg::spectral_scale`] does; without, `m`'s singular
    /// values must already be at most 1.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::SingularValueTooLarge`] if some `σᵢ > 1`.
    /// * Propagates SVD and decomposition failures.
    pub(crate) fn derive(&mut self, m: &RMat, prescale: bool) -> Result<()> {
        let n = m.rows();
        debug_assert!(m.cols() == n && n >= 2, "callers check the shape");
        self.scaled.copy_from(m);
        let mut norm = 1.0;
        if prescale {
            let top = self.svd.spectral_norm(m)?;
            if top > 1e-300 {
                let k = 1.0 / top;
                for v in self.scaled.as_mut_slice() {
                    *v *= k;
                }
                norm = top;
            }
        }
        self.svd.factor(&self.scaled)?;
        if let Some(&top) = self.svd.sigma().first() {
            if top > 1.0 + 1e-9 {
                return Err(PhotonicsError::SingularValueTooLarge { sigma: top });
            }
        }
        // Vᵀ, then U, lifted into E-field space.
        let v = self.svd.v();
        self.unitary.reshape_zeroed(n, n);
        for r in 0..n {
            for c in 0..n {
                self.unitary[(r, c)] = C64::from_re(v[(c, r)]);
            }
        }
        decompose_into(&self.unitary, &mut self.clements, &mut self.prog.v_prog)?;
        self.v_transfers.clear();
        self.v_transfers.extend_from_slice(&self.clements.transfers);
        let u = self.svd.u();
        for r in 0..n {
            for c in 0..n {
                self.unitary[(r, c)] = C64::from_re(u[(r, c)]);
            }
        }
        decompose_into(&self.unitary, &mut self.clements, &mut self.prog.u_prog)?;
        self.u_transfers.clear();
        self.u_transfers.extend_from_slice(&self.clements.transfers);
        self.prog.sigma.clear();
        self.prog.sigma.extend_from_slice(self.svd.sigma());
        self.prog.norm = norm;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(seed: u64, n: usize) -> RMat {
        let mut rng = StdRng::seed_from_u64(seed);
        RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn ideal_mvm_matches_dense_many_sizes() {
        for n in [2usize, 3, 4, 6, 8] {
            let m = random_mat(n as u64, n);
            let c = SvdCircuit::program(&m).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.3).cos()).collect();
            let y = c.apply(&x);
            let y_true = m.mul_vec(&x);
            for (a, b) in y.iter().zip(y_true.iter()) {
                assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scale_is_spectral_norm() {
        let m = RMat::identity(4).scale(3.0);
        let c = SvdCircuit::program(&m).unwrap();
        assert!((c.scale() - 3.0).abs() < 1e-9);
        assert!(c.sigmas().iter().all(|&s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn prescaled_rejects_large_sigma() {
        let m = RMat::identity(4).scale(2.0);
        assert!(matches!(
            SvdCircuit::program_prescaled(&m),
            Err(PhotonicsError::SingularValueTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let m = RMat::zeros(3, 4);
        assert!(matches!(
            SvdCircuit::program(&m),
            Err(PhotonicsError::InvalidSize { .. })
        ));
    }

    #[test]
    fn mzi_count_is_n_squared() {
        let c = SvdCircuit::program(&random_mat(1, 6)).unwrap();
        assert_eq!(c.mzi_count(), 36);
        assert_eq!(c.n(), 6);
    }

    #[test]
    fn eight_bit_model_error_bounded() {
        let n = 8;
        let m = random_mat(7, n);
        let mut c = SvdCircuit::program(&m).unwrap();
        let model = AnalogModel::eight_bit();
        c.quantize_phases(&model);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9).sin()).collect();
        let y = c.apply_with_model(&x, &model, 42);
        let y_true = m.mul_vec(&x);
        let fs = y_true.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        for (a, b) in y.iter().zip(y_true.iter()) {
            assert!(
                (a - b).abs() < 0.05 * fs.max(1e-9),
                "8-bit error too large: {a} vs {b}"
            );
        }
    }

    #[test]
    fn zero_matrix_maps_to_zero() {
        let m = RMat::zeros(4, 4);
        let c = SvdCircuit::program(&m).unwrap();
        let y = c.apply(&[1.0, 2.0, 3.0, 4.0]);
        for v in y {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn store_hit_is_bit_identical_to_cold_program() {
        let dir = std::env::temp_dir().join(format!("flumen-svd-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProgramStore::open(&dir).unwrap();
        for n in [2usize, 4, 8] {
            let m = random_mat(40 + n as u64, n);
            let cold = SvdCircuit::program(&m).unwrap();
            // First store-backed program: miss + write-through.
            let written = SvdCircuit::program_with_store(&m, Some(&store)).unwrap();
            // Second: served from disk.
            let warm = SvdCircuit::program_with_store(&m, Some(&store)).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
            let y_cold = cold.apply(&x);
            assert_eq!(y_cold, written.apply(&x), "n={n} write-through path");
            assert_eq!(y_cold, warm.apply(&x), "n={n} disk-warm path");
            assert_eq!(cold.scale().to_bits(), warm.scale().to_bits());
            assert_eq!(cold.sigmas(), warm.sigmas());
        }
        assert_eq!(store.stats().hits, 3);
        assert_eq!(store.stats().writes, 3);
        // `None` delegates to the plain path.
        let m = random_mat(99, 4);
        let a = SvdCircuit::program(&m).unwrap();
        let b = SvdCircuit::program_with_store(&m, None).unwrap();
        assert_eq!(
            a.apply(&[0.1, 0.2, 0.3, 0.4]),
            b.apply(&[0.1, 0.2, 0.3, 0.4])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negative_entries_handled() {
        let m = RMat::from_rows(2, 2, vec![0.0, -1.0, 1.0, 0.0]).unwrap();
        let c = SvdCircuit::program(&m).unwrap();
        let y = c.apply(&[1.0, 0.5]);
        assert!((y[0] + 0.5).abs() < 1e-9);
        assert!((y[1] - 1.0).abs() < 1e-9);
    }
}
