//! # nplus-linalg
//!
//! Complex linear algebra substrate for the `nplus` workspace — the
//! reproduction of *"Random Access Heterogeneous MIMO Networks"*
//! (SIGCOMM 2011).
//!
//! The paper's machinery is linear algebra over small complex matrices:
//!
//! * **Interference nulling** picks pre-coding vectors in the null space of
//!   a channel matrix ([`null_space_into`]).
//! * **Interference alignment** constrains signals through the orthogonal
//!   complement of a receiver's unwanted space ([`Subspace::complement`]).
//! * **Multi-dimensional carrier sense** projects received samples onto the
//!   complement of the occupied signal space ([`Subspace::project`]).
//! * **Zero-forcing decoding** inverts the effective channel through its
//!   pseudo-inverse ([`pinv`]).
//!
//! No external linear-algebra crate is available in this build environment,
//! so the substrate is implemented here from first principles, sized and
//! tested for the small (≤ 4×4 per subcarrier) matrices MIMO LANs use.
//!
//! Each kernel has one implementation: the pooled split-storage
//! [`null_space_into`], [`pinv_into`] and [`row_echelon_into`] in [`soa`].
//! The allocating [`pinv`], [`rank`] and [`Subspace::complement`] are
//! thin wrappers over them.

#![forbid(unsafe_code)]

pub mod complex;
pub mod matrix;
#[cfg(test)]
mod nullspace;
pub mod pool;
pub mod qr;
pub mod soa;
pub mod solve;
pub mod subspace;
pub mod vector;

pub use complex::{c64, Complex64};
pub use matrix::CMatrix;
pub use pool::VecPool;
pub use qr::{orthonormalize, orthonormalize_into};
pub use soa::{
    mul_into, null_space_into, pinv_into, row_echelon_into, soa_default_tolerance, CMatrixSoA,
    NullspaceWorkspace, PinvWorkspace,
};
pub use solve::{pinv, rank, LinalgError};
pub use subspace::{Subspace, SubspaceWorkspace};
pub use vector::CVector;
