//! # nplus-linalg
//!
//! Complex linear algebra substrate for the `nplus` workspace — the
//! reproduction of *"Random Access Heterogeneous MIMO Networks"*
//! (SIGCOMM 2011).
//!
//! The paper's machinery is linear algebra over small complex matrices:
//!
//! * **Interference nulling** picks pre-coding vectors in the null space of
//!   a channel matrix ([`null_space`]).
//! * **Interference alignment** constrains signals through the orthogonal
//!   complement of a receiver's unwanted space ([`Subspace::complement`]).
//! * **Multi-dimensional carrier sense** projects received samples onto the
//!   complement of the occupied signal space ([`Subspace::coordinates`]).
//! * **Zero-forcing decoding** inverts the effective channel through its
//!   pseudo-inverse ([`pinv`]).
//!
//! No external linear-algebra crate is available in this build environment,
//! so the substrate is implemented here from first principles, sized and
//! tested for the small (≤ 4×4 per subcarrier) matrices MIMO LANs use.
//!
//! Each kernel has one implementation: the pooled split-storage
//! [`null_space_into`], [`pinv_into`] and [`row_echelon_into`] in [`soa`].
//! The allocating [`null_space`], [`pinv`], [`rank`] and
//! [`Subspace::complement`] are thin wrappers over them.

#![forbid(unsafe_code)]

pub mod complex;
pub mod matrix;
pub mod nullspace;
pub mod pool;
pub mod qr;
pub mod soa;
pub mod solve;
pub mod subspace;
pub mod vector;

pub use complex::{c64, Complex64};
pub use matrix::CMatrix;
pub use nullspace::{is_null_space_of, null_space};
pub use pool::VecPool;
pub use qr::{is_orthonormal, orthonormalize, orthonormalize_into};
pub use soa::{
    hermitian_into, mul_into, null_space_into, pinv_into, row_echelon_into, soa_default_tolerance,
    CMatrixSoA, NullspaceWorkspace, PinvWorkspace,
};
pub use solve::{pinv, rank, LinalgError};
pub use subspace::{principal_angle, residual_power_db, sin_angle, Subspace, SubspaceWorkspace};
pub use vector::CVector;

/// Converts a linear power ratio to decibels.
#[inline]
pub fn db_from_ratio(ratio: f64) -> f64 {
    10.0 * ratio.max(1e-300).log10()
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn ratio_from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for &db in &[-30.0, -3.0, 0.0, 10.0, 27.0] {
            assert!((db_from_ratio(ratio_from_db(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn db_of_unity_is_zero() {
        assert!(db_from_ratio(1.0).abs() < 1e-12);
    }
}
