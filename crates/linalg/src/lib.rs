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
//! There is one dense matrix type, [`CMatrix`], in split (real/imaginary)
//! storage, with [`CMatrixRef`] its borrowed view, and each kernel has one
//! implementation: [`mul_into`], [`CMatrixRef::mul_vec_into`], and the
//! pooled [`null_space_into`], [`pinv_into`] and their shared row echelon
//! in [`soa`]. The allocating [`pinv`], [`rank`], [`CMatrix::mul_vec`] and
//! [`Subspace::complement`] are thin wrappers over them, and so is
//! [`CMatrix::mul_vec_into`], which multiplies through its view.

#![forbid(unsafe_code)]

pub mod complex;
pub mod matrix;
#[cfg(test)]
mod nullspace;
pub mod pool;
mod qr;
pub mod soa;
pub mod solve;
pub mod subspace;
pub mod vector;

pub use complex::{c64, Complex64};
pub use matrix::{CMatrix, CMatrixRef};
pub use pool::VecPool;
pub use soa::{mul_into, null_space_into, pinv_into, NullspaceWorkspace, PinvWorkspace};
pub use solve::{pinv, rank, LinalgError};
pub use subspace::{Subspace, SubspaceWorkspace};
pub use vector::CVector;

/// The former name of [`CMatrix`], kept only for perfbench (with
/// [`CMatrix::from_aos`]), which changes only together with the benchmark.
pub type CMatrixSoA = CMatrix;
