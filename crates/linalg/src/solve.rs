//! Pseudo-inverse and rank, and the error type of the fallible kernels.
//!
//! Everything is built on Gaussian elimination with partial pivoting, which
//! is numerically adequate for the small, generically well-conditioned
//! channel matrices this workspace manipulates. Rank decisions use an
//! explicit tolerance scaled by the matrix magnitude, mirroring the usual
//! `eps * max(m, n) * max|a_ij|` convention. The arithmetic lives in the
//! split-storage kernels of [`crate::soa`]; the functions here are
//! allocating wrappers over them.

use crate::matrix::CMatrix;
use crate::soa::{pinv_into, row_echelon_into, soa_default_tolerance, PinvWorkspace};

/// Error type for linear algebra operations that can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the error type of the public `pinv`
pub enum LinalgError {
    /// The matrix is singular (or numerically so) and the operation
    /// requires full rank.
    Singular,
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Numerical rank via row echelon reduction with the given tolerance
/// (pass `None` for `soa_default_tolerance`). Allocating wrapper over
/// `row_echelon_into`.
pub fn rank(a: &CMatrix, tol: Option<f64>) -> usize {
    let tol = tol.unwrap_or_else(|| soa_default_tolerance(a));
    row_echelon_into(a, tol, &mut CMatrix::default())
}

/// Moore–Penrose style pseudo-inverse for full-column-rank matrices:
/// `(A^H A)^{-1} A^H`. `pinv(A) b` is the least-squares solution of
/// `A x = b` — the zero-forcing receiver's core operation. Allocating
/// wrapper over [`pinv_into`].
///
/// # Errors
/// [`LinalgError::Singular`] when `A^H A` is numerically singular.
pub fn pinv(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let mut ws = PinvWorkspace::default();
    pinv_into(a, &mut ws)?;
    Ok(ws.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::soa::matmul;
    use crate::vector::CVector;

    const TOL: f64 = 1e-9;

    fn well_conditioned_3x3() -> CMatrix {
        CMatrix::from_vec(
            3,
            3,
            vec![
                c64(2.0, 1.0),
                c64(0.0, -1.0),
                c64(1.0, 0.0),
                c64(1.0, 0.0),
                c64(3.0, 0.5),
                c64(0.0, 2.0),
                c64(0.0, 1.0),
                c64(1.0, -1.0),
                c64(4.0, 0.0),
            ],
        )
    }

    #[test]
    fn inverse_round_trip() {
        // For a square invertible matrix the pseudo-inverse is the
        // two-sided inverse.
        let a = well_conditioned_3x3();
        let inv = pinv(&a).unwrap();
        assert!(matmul(&a, &inv).approx_eq(&CMatrix::identity(3), TOL));
        assert!(matmul(&inv, &a).approx_eq(&CMatrix::identity(3), TOL));
    }

    #[test]
    fn singular_matrix_rejected() {
        // Row 2 = 2 * row 1.
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(pinv(&a), Err(LinalgError::Singular));
    }

    #[test]
    fn rank_detects_deficiency() {
        let full = well_conditioned_3x3();
        assert_eq!(rank(&full, None), 3);
        // Rank-1 outer-product style matrix.
        let r1 = CMatrix::from_reals(3, 3, &[1.0, 2.0, 3.0, 2.0, 4.0, 6.0, -1.0, -2.0, -3.0]);
        assert_eq!(rank(&r1, None), 1);
        let zero = CMatrix::zeros(3, 4);
        assert_eq!(rank(&zero, None), 0);
    }

    #[test]
    fn rank_of_rectangular() {
        let a = CMatrix::from_reals(2, 4, &[1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 2.0]);
        assert_eq!(rank(&a, None), 2);
    }

    #[test]
    fn lstsq_exact_for_square() {
        let a = well_conditioned_3x3();
        let x_true = CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(2.0, -2.0)]);
        let b = a.mul_vec(&x_true);
        let x = pinv(&a).unwrap().mul_vec(&b);
        assert!(x.approx_eq(&x_true, TOL));
    }

    #[test]
    fn lstsq_overdetermined_recovers_clean_solution() {
        // 4 equations, 2 unknowns, consistent system.
        let a = CMatrix::from_reals(4, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -1.0]);
        let x_true = CVector::from_reals(&[2.0, -1.0]);
        let b = a.mul_vec(&x_true);
        let x = pinv(&a).unwrap().mul_vec(&b);
        assert!(x.approx_eq(&x_true, TOL));
    }

    #[test]
    fn pinv_is_left_inverse_for_tall_full_rank() {
        let a = CMatrix::from_reals(3, 2, &[1.0, 2.0, 0.0, 1.0, 1.0, 0.0]);
        let p = pinv(&a).unwrap();
        assert!(matmul(&p, &a).approx_eq(&CMatrix::identity(2), TOL));
    }
}
