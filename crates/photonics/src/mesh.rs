//! The rectangular Mach-Zehnder interferometer mesh (MZIM).
//!
//! An `N`-input MZIM is a brick-wall arrangement of `N(N−1)/2` MZIs in `N`
//! columns: even columns couple waveguide pairs `(0,1), (2,3), …` and odd
//! columns couple `(1,2), (3,4), …` (Clements layout). Together with a
//! diagonal phase screen at the outputs it can realize **any** `N×N` unitary
//! transfer matrix (paper §3.1.1), programmed here by
//! [`crate::clements::decompose`].

use crate::mzi::{MziPhase, Transfer};
use crate::{PhotonicsError, Result};
use flumen_linalg::{CMat, C64};
use std::ops::Range;
use std::sync::OnceLock;

/// Index in an `n`-wire mesh's slot list of column `c`'s first MZI, which
/// is also the MZI count of columns `0..c`: even columns hold `⌊n/2⌋` MZIs
/// and odd ones `⌊(n−1)/2⌋`.
fn column_start(n: usize, c: usize) -> usize {
    c.div_ceil(2) * (n / 2) + c / 2 * ((n - 1) / 2)
}

/// The bar state's transfer and the phasor `e^{j0}`: what every slot and
/// output of a reset mesh caches, computed once per process.
fn reset_values() -> (Transfer, C64) {
    static VALUES: OnceLock<(Transfer, C64)> = OnceLock::new();
    *VALUES.get_or_init(|| (MziPhase::bar().transfer(), C64::cis(0.0)))
}

/// One physical MZI slot in the mesh: the column it sits in and the upper
/// of the two waveguides it couples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MziSlot {
    /// Column index, `0..n`.
    pub col: usize,
    /// Upper waveguide index; the MZI couples `(mode, mode + 1)`.
    pub mode: usize,
    /// Current phase programming.
    pub phase: MziPhase,
}

/// A rectangular (Clements-layout) MZI mesh with `n` inputs.
///
/// Every phase write ([`MzimMesh::set_phase`], [`MzimMesh::reset`],
/// [`MzimMesh::set_output_phases`], [`MzimMesh::map_phases`],
/// [`MzimMesh::map_output_phases`]) also caches
/// the MZI's 2×2 transfer or the output phasor `e^{jα}`, so propagation
/// reads those caches and does no trigonometry. They hold exactly the bits
/// `MziPhase::transfer()` and `C64::cis(α)` give for the phases stored.
///
/// # Examples
///
/// ```
/// use flumen_photonics::MzimMesh;
/// let mesh = MzimMesh::new(8);
/// assert_eq!(mesh.mzi_count(), 28); // 8·7/2
/// assert_eq!(mesh.column_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct MzimMesh {
    n: usize,
    /// Flattened slots, ordered by column then by mode.
    slots: Vec<MziSlot>,
    /// Number of columns.
    depth: usize,
    /// Output phase screen: output `i` is multiplied by `e^{jα_i}`.
    output_phases: Vec<f64>,
    /// `transfers[k]` is `slots[k].phase.transfer()`.
    transfers: Vec<Transfer>,
    /// `phasors[i]` is `C64::cis(output_phases[i])`.
    phasors: Vec<C64>,
}

impl MzimMesh {
    /// Creates an `n`-input mesh with every MZI in the **bar** state
    /// (straight-through routing) and a zero output phase screen.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        Self::with_depth(n, n)
    }

    /// Creates an `n`-input mesh with `depth` brick-wall columns. The
    /// standard rectangular (Clements) mesh has `depth == n`; a triangular
    /// (Reck) programming needs `2n − 3` columns.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `depth < 1`.
    pub fn with_depth(n: usize, depth: usize) -> Self {
        assert!(n >= 2, "a mesh needs at least 2 waveguides");
        assert!(depth >= 1, "a mesh needs at least one column");
        let mut slots = Vec::with_capacity(column_start(n, depth));
        for col in 0..depth {
            let mut mode = col % 2;
            while mode + 1 < n {
                slots.push(MziSlot {
                    col,
                    mode,
                    phase: MziPhase::bar(),
                });
                mode += 2;
            }
        }
        let mut mesh = MzimMesh {
            n,
            transfers: Vec::with_capacity(slots.len()),
            slots,
            depth,
            output_phases: vec![0.0; n],
            phasors: Vec::with_capacity(n),
        };
        mesh.reset();
        mesh
    }

    /// Number of waveguides (inputs/outputs).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of MZIs, `n(n−1)/2`.
    pub fn mzi_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of columns (`n`).
    pub fn column_count(&self) -> usize {
        self.depth
    }

    /// The slots of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a column.
    pub fn column(&self, c: usize) -> &[MziSlot] {
        assert!(
            c < self.depth,
            "no column {c} in a {}-column mesh",
            self.depth
        );
        &self.slots[column_start(self.n, c)..column_start(self.n, c + 1)]
    }

    /// Iterator over all slots.
    pub fn iter(&self) -> impl Iterator<Item = &MziSlot> {
        self.slots.iter()
    }

    /// Sets the phase of the MZI in column `col` coupling `(mode, mode+1)`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::NotRoutable`] when no MZI exists at that
    /// position (wrong parity or out of range).
    pub fn set_phase(&mut self, col: usize, mode: usize, phase: MziPhase) -> Result<()> {
        self.set_phase_with_transfer(col, mode, phase, phase.transfer())
    }

    /// [`MzimMesh::set_phase`] for a caller that already holds
    /// `phase.transfer()` (the Clements decomposition computes it while
    /// nulling).
    pub(crate) fn set_phase_with_transfer(
        &mut self,
        col: usize,
        mode: usize,
        phase: MziPhase,
        transfer: Transfer,
    ) -> Result<()> {
        debug_assert!(
            transfer
                .iter()
                .flatten()
                .zip(phase.transfer().iter().flatten())
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()),
            "cached transfer must be the phase's own"
        );
        let idx = self.slot_index(col, mode)?;
        self.slots[idx].phase = phase;
        self.transfers[idx] = transfer;
        Ok(())
    }

    /// Replaces every MZI phase `p` with `f(p)`, in slot order (column,
    /// then mode).
    pub fn map_phases(&mut self, mut f: impl FnMut(MziPhase) -> MziPhase) {
        for (slot, t) in self.slots.iter_mut().zip(self.transfers.iter_mut()) {
            slot.phase = f(slot.phase);
            *t = slot.phase.transfer();
        }
    }

    /// Replaces every output phase `α` with `f(α)`.
    pub fn map_output_phases(&mut self, mut f: impl FnMut(f64) -> f64) {
        for (p, w) in self.output_phases.iter_mut().zip(self.phasors.iter_mut()) {
            *p = f(*p);
            *w = C64::cis(*p);
        }
    }

    /// The phase of the MZI at `(col, mode)`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::NotRoutable`] when no MZI exists there.
    pub fn phase(&self, col: usize, mode: usize) -> Result<MziPhase> {
        Ok(self.slots[self.slot_index(col, mode)?].phase)
    }

    fn slot_index(&self, col: usize, mode: usize) -> Result<usize> {
        if col >= self.depth || mode % 2 != col % 2 || mode + 1 >= self.n {
            return Err(PhotonicsError::NotRoutable {
                reason: format!("no MZI at column {col}, mode {mode} in a {}-mesh", self.n),
            });
        }
        Ok(column_start(self.n, col) + (mode - col % 2) / 2)
    }

    /// Sets every MZI to the bar state and clears the output phases.
    pub fn reset(&mut self) {
        let (bar, one) = reset_values();
        for s in &mut self.slots {
            s.phase = MziPhase::bar();
        }
        self.transfers.clear();
        self.transfers.resize(self.slots.len(), bar);
        self.output_phases.fill(0.0);
        self.phasors.clear();
        self.phasors.resize(self.n, one);
    }

    /// Sets the output phase screen.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::DimensionMismatch`] if `phases.len() != n`.
    pub fn set_output_phases(&mut self, phases: &[f64]) -> Result<()> {
        if phases.len() != self.n {
            return Err(PhotonicsError::DimensionMismatch {
                expected: self.n,
                actual: phases.len(),
            });
        }
        self.output_phases.copy_from_slice(phases);
        for (w, &p) in self.phasors.iter_mut().zip(phases) {
            *w = C64::cis(p);
        }
        Ok(())
    }

    /// The output phase screen.
    pub fn output_phases(&self) -> &[f64] {
        &self.output_phases
    }

    /// Propagates a vector of input E-fields through the mesh, returning the
    /// output fields. This is the physical forward computation: `O(n²)` per
    /// propagation, one 2×2 product per MZI.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn propagate(&self, input: &[C64]) -> Vec<C64> {
        let mut field = input.to_vec();
        self.propagate_in_place(&mut field);
        field
    }

    /// [`MzimMesh::propagate`] over a caller-owned field vector: the input
    /// fields are replaced by the output fields, and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `field.len() != n`.
    pub fn propagate_in_place(&self, field: &mut [C64]) {
        assert_eq!(field.len(), self.n, "input vector must have n elements");
        self.propagate_columns(0..self.column_count(), field);
        for (f, &w) in field.iter_mut().zip(self.phasors.iter()) {
            *f *= w;
        }
    }

    /// Propagates `field` through the MZIs of columns `cols` only, in
    /// column order, without the output phase screen. This is the one
    /// propagation kernel: [`MzimMesh::propagate`] runs it over every
    /// column, and `FlumenFabric` over each half of its mesh.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is out of range or `field.len() != n`.
    pub fn propagate_columns(&self, cols: Range<usize>, field: &mut [C64]) {
        assert_eq!(field.len(), self.n, "input vector must have n elements");
        assert!(cols.end <= self.depth, "columns {cols:?} exceed the mesh");
        if cols.is_empty() {
            return;
        }
        let (start, end) = (
            column_start(self.n, cols.start),
            column_start(self.n, cols.end),
        );
        for (slot, t) in self.slots[start..end]
            .iter()
            .zip(&self.transfers[start..end])
        {
            let a = field[slot.mode];
            let b = field[slot.mode + 1];
            field[slot.mode] = t[0][0] * a + t[0][1] * b;
            field[slot.mode + 1] = t[1][0] * a + t[1][1] * b;
        }
    }

    /// Propagates a batch of input vectors through the mesh with a single
    /// phase programming. The mesh state is read once and streamed over
    /// every vector — the photonic batched-MVM access pattern where one
    /// mesh configuration amortizes over `B` propagations.
    ///
    /// **Contract:** element `i` of the result is bit-identical to
    /// `self.propagate(&inputs[i])` — batching changes scheduling and
    /// energy accounting, never numerics.
    ///
    /// # Panics
    ///
    /// Panics if any input vector's length differs from `n`.
    pub fn propagate_batch(&self, inputs: &[Vec<C64>]) -> Vec<Vec<C64>> {
        inputs.iter().map(|x| self.propagate(x)).collect()
    }

    /// The full `n×n` complex transfer matrix of the mesh.
    pub fn transfer_matrix(&self) -> CMat {
        let mut u = CMat::identity(self.n);
        for (slot, &t) in self.slots.iter().zip(&self.transfers) {
            u.apply_2x2_left(slot.mode, t);
        }
        // Output phase screen as an in-place row scaling — the diagonal
        // matmul it replaces was the last O(n³) allocation on this path.
        for (i, &w) in self.phasors.iter().enumerate() {
            for c in 0..self.n {
                u[(i, c)] = w * u[(i, c)];
            }
        }
        u
    }

    /// Counts the MZIs traversed from input `src` to output `dst` when the
    /// mesh is programmed as a pure cross/bar routing fabric. Fields move to
    /// the partner wire at cross MZIs and stay put at bar MZIs; wires not
    /// covered by an MZI in a column pass straight through.
    ///
    /// Returns `None` if the signal does not arrive at `dst` (i.e. the mesh
    /// is not currently routing `src → dst`), or if any traversed MZI is in
    /// a splitting state (path tracing is only defined for cross/bar
    /// programming).
    pub fn trace_route(&self, src: usize, dst: usize) -> Option<RouteTrace> {
        assert!(src < self.n && dst < self.n);
        let mut wire = src;
        let mut mzis = 0usize;
        for c in 0..self.column_count() {
            for slot in self.column(c) {
                if slot.mode == wire || slot.mode + 1 == wire {
                    if slot.phase.is_bar() {
                        mzis += 1;
                    } else if slot.phase.is_cross() {
                        wire = if slot.mode == wire {
                            slot.mode + 1
                        } else {
                            slot.mode
                        };
                        mzis += 1;
                    } else {
                        return None; // splitting state: no single path
                    }
                    break;
                }
            }
        }
        if wire == dst {
            Some(RouteTrace {
                mzis_traversed: mzis,
                columns: self.column_count(),
            })
        } else {
            None
        }
    }
}

/// The devices traversed by a routed signal, used for loss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTrace {
    /// Number of MZIs the signal physically passed through.
    pub mzis_traversed: usize,
    /// Number of mesh columns crossed (for waveguide-length loss).
    pub columns: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mzi_counts_match_formula() {
        for n in 2..12 {
            let m = MzimMesh::new(n);
            assert_eq!(m.mzi_count(), n * (n - 1) / 2, "n={n}");
            assert_eq!(m.column_count(), n);
        }
    }

    #[test]
    fn column_parity_layout() {
        let m = MzimMesh::new(8);
        assert_eq!(m.column(0).len(), 4); // (0,1),(2,3),(4,5),(6,7)
        assert_eq!(m.column(1).len(), 3); // (1,2),(3,4),(5,6)
        for slot in m.column(1) {
            assert_eq!(slot.mode % 2, 1);
        }
    }

    #[test]
    fn bar_mesh_transfer_is_diagonal() {
        let m = MzimMesh::new(4);
        let u = m.transfer_matrix();
        for r in 0..4 {
            for c in 0..4 {
                if r != c {
                    assert!(u[(r, c)].abs() < 1e-12);
                } else {
                    assert!((u[(r, c)].abs() - 1.0).abs() < 1e-12);
                }
            }
        }
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn transfer_always_unitary() {
        let mut m = MzimMesh::new(6);
        m.set_phase(0, 0, MziPhase::new(1.0, 2.0)).unwrap();
        m.set_phase(1, 3, MziPhase::splitter(0.3)).unwrap();
        m.set_phase(5, 1, MziPhase::cross()).unwrap();
        m.set_output_phases(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
            .unwrap();
        assert!(m.transfer_matrix().is_unitary(1e-10));
    }

    #[test]
    fn propagate_matches_transfer_matrix() {
        let mut m = MzimMesh::new(5);
        m.set_phase(0, 2, MziPhase::splitter(0.7)).unwrap();
        m.set_phase(2, 0, MziPhase::cross()).unwrap();
        m.set_output_phases(&[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap();
        let x: Vec<C64> = (0..5).map(|i| C64::new(i as f64 * 0.2, -0.1)).collect();
        let via_prop = m.propagate(&x);
        let via_mat = m.transfer_matrix().mul_vec(&x);
        for (a, b) in via_prop.iter().zip(via_mat.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn set_phase_rejects_bad_slots() {
        let mut m = MzimMesh::new(4);
        assert!(m.set_phase(0, 1, MziPhase::bar()).is_err()); // parity mismatch
        assert!(m.set_phase(0, 3, MziPhase::bar()).is_err()); // mode+1 == n
        assert!(m.set_phase(9, 0, MziPhase::bar()).is_err()); // col out of range
        assert!(m.set_phase(1, 1, MziPhase::bar()).is_ok());
    }

    #[test]
    fn phase_round_trip() {
        let mut m = MzimMesh::new(4);
        let p = MziPhase::new(0.7, 1.1);
        m.set_phase(2, 0, p).unwrap();
        assert_eq!(m.phase(2, 0).unwrap(), p);
    }

    #[test]
    fn reset_restores_bar() {
        let mut m = MzimMesh::new(4);
        m.set_phase(0, 0, MziPhase::cross()).unwrap();
        m.set_output_phases(&[1.0; 4]).unwrap();
        m.reset();
        assert!(m.phase(0, 0).unwrap().is_bar());
        assert_eq!(m.output_phases(), &[0.0; 4]);
    }

    #[test]
    fn all_bar_routes_identity() {
        let m = MzimMesh::new(6);
        for i in 0..6 {
            let t = m.trace_route(i, i).expect("bar mesh routes straight");
            assert_eq!(t.columns, 6);
            assert!(m.trace_route(i, (i + 1) % 6).is_none());
        }
    }

    #[test]
    fn edge_wires_skip_some_columns() {
        // Wire 0 in a 4-mesh passes MZIs only in even columns (2 of 4).
        let m = MzimMesh::new(4);
        let t = m.trace_route(0, 0).unwrap();
        assert_eq!(t.mzis_traversed, 2);
        // Wire 1 has an MZI in every column.
        let t1 = m.trace_route(1, 1).unwrap();
        assert_eq!(t1.mzis_traversed, 4);
    }

    #[test]
    fn cross_moves_signal() {
        let mut m = MzimMesh::new(4);
        m.set_phase(0, 0, MziPhase::cross()).unwrap();
        // 0 -> 1 at column 0, then straight (bar) to output 1.
        assert!(m.trace_route(0, 1).is_some());
        assert!(m.trace_route(0, 0).is_none());
        // Power check via the transfer matrix.
        let u = m.transfer_matrix();
        let y = u.mul_vec(&[C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO]);
        assert!((y[1].norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splitter_defeats_trace() {
        let mut m = MzimMesh::new(4);
        m.set_phase(0, 0, MziPhase::splitter(0.5)).unwrap();
        assert!(m.trace_route(0, 0).is_none());
        assert!(m.trace_route(0, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn mesh_of_one_panics() {
        let _ = MzimMesh::new(1);
    }
}
