//! # flumen-photonics
//!
//! Photonic device and circuit models for the Flumen dual-purpose
//! interconnect: MZI transfer matrices, rectangular MZI meshes with Clements
//! phase programming, SVD compute circuits, the Flumen fabric with its
//! partition barrier, and the dB-domain loss / laser-power models that stand
//! in for the paper's Lumerical INTERCONNECT simulations.

// Indexed loops mirror the paper's matrix notation; iterator-chain
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analog;
pub mod clements;
mod device;
mod error;
mod fabric;
pub mod imperfection;
pub mod loss;
mod mesh;
mod mzi;
pub mod progstore;
pub mod reck;
pub mod routing;
mod svd_circuit;

pub use analog::AnalogModel;
pub use device::DeviceParams;
pub use error::{PhotonicsError, Result};
pub use fabric::{FabricTrace, FlumenFabric, Partition, PartitionConfig, PartitionRole};
pub use imperfection::{crosstalk_floor_db, CouplerImbalance, ThermalModel};
pub use mesh::{MziSlot, MzimMesh, RouteTrace};
pub use mzi::{Attenuator, MziPhase};
pub use progstore::{PartitionProgram, ProgStoreStats, ProgramStore};
pub use svd_circuit::{SvdCircuit, SvdScratch};
