//! Linear system solving, inversion, pseudo-inverse and rank.
//!
//! Everything is built on Gaussian elimination with partial pivoting, which
//! is numerically adequate for the small, generically well-conditioned
//! channel matrices this workspace manipulates. Rank decisions use an
//! explicit tolerance scaled by the matrix magnitude, mirroring the usual
//! `eps * max(m, n) * max|a_ij|` convention.

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::vector::CVector;

/// Error type for linear algebra operations that can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Default rank tolerance for a matrix: `eps * max(rows, cols) * max|a|`.
pub fn default_tolerance(a: &CMatrix) -> f64 {
    let scale = a.max_abs();
    let dim = a.rows().max(a.cols()) as f64;
    (f64::EPSILON * dim * scale).max(1e-300)
}

/// Solves `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting.
pub fn solve(a: &CMatrix, b: &CVector) -> Result<CVector, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            what: "solve requires a square matrix",
        });
    }
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            what: "solve: rhs length must equal matrix dimension",
        });
    }
    let x = solve_many(a, &CMatrix::from_cols(std::slice::from_ref(b)))?;
    Ok(x.col(0))
}

/// Solves `A X = B` for square `A` with multiple right-hand sides.
pub fn solve_many(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            what: "solve_many requires a square matrix",
        });
    }
    if b.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            what: "solve_many: rhs rows must equal matrix dimension",
        });
    }
    let tol = default_tolerance(a);
    // Augmented elimination [A | B].
    let mut aug = a.hstack(b);
    let total_cols = aug.cols();
    for k in 0..n {
        // Partial pivot: pick the largest magnitude entry in column k.
        let mut pivot_row = k;
        let mut pivot_mag = aug[(k, k)].abs();
        for i in (k + 1)..n {
            let mag = aug[(i, k)].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        if pivot_mag <= tol {
            return Err(LinalgError::Singular);
        }
        aug.swap_rows(k, pivot_row);
        let pivot = aug[(k, k)];
        let pinv = pivot.inv();
        for j in k..total_cols {
            let v = aug[(k, j)] * pinv;
            aug[(k, j)] = v;
        }
        for i in 0..n {
            if i == k {
                continue;
            }
            let factor = aug[(i, k)];
            if factor == Complex64::ZERO {
                continue;
            }
            for j in k..total_cols {
                let sub = factor * aug[(k, j)];
                aug[(i, j)] -= sub;
            }
        }
    }
    Ok(aug.submatrix(0, n, n, total_cols))
}

/// Matrix inverse via [`solve_many`] against the identity.
pub fn inverse(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    solve_many(a, &CMatrix::identity(a.rows()))
}

/// Numerical rank via row echelon reduction with the given tolerance
/// (pass `None` for [`default_tolerance`]).
pub fn rank(a: &CMatrix, tol: Option<f64>) -> usize {
    let tol = tol.unwrap_or_else(|| default_tolerance(a));
    let (r, _) = row_echelon(a, tol);
    r
}

/// Reduces `a` to row echelon form.
///
/// Returns `(rank, echelon)` where `echelon` has its pivot rows first. The
/// pivot columns are normalized to a leading one; this is the backbone for
/// the null-space computation.
pub fn row_echelon(a: &CMatrix, tol: f64) -> (usize, CMatrix) {
    let mut m = a.clone();
    let rows = m.rows();
    let cols = m.cols();
    let mut pivot_row = 0usize;
    for col in 0..cols {
        if pivot_row >= rows {
            break;
        }
        // Find the largest pivot candidate in this column.
        let mut best = pivot_row;
        let mut best_mag = m[(pivot_row, col)].abs();
        for i in (pivot_row + 1)..rows {
            let mag = m[(i, col)].abs();
            if mag > best_mag {
                best_mag = mag;
                best = i;
            }
        }
        if best_mag <= tol {
            // No pivot in this column; zero it out below to avoid noise.
            for i in pivot_row..rows {
                m[(i, col)] = Complex64::ZERO;
            }
            continue;
        }
        m.swap_rows(pivot_row, best);
        let pinv = m[(pivot_row, col)].inv();
        for j in col..cols {
            let v = m[(pivot_row, j)] * pinv;
            m[(pivot_row, j)] = v;
        }
        for i in 0..rows {
            if i == pivot_row {
                continue;
            }
            let factor = m[(i, col)];
            if factor.abs() <= tol {
                m[(i, col)] = Complex64::ZERO;
                continue;
            }
            for j in col..cols {
                let sub = factor * m[(pivot_row, j)];
                m[(i, j)] -= sub;
            }
            m[(i, col)] = Complex64::ZERO;
        }
        pivot_row += 1;
    }
    (pivot_row, m)
}

/// Moore–Penrose style pseudo-inverse for full-column-rank matrices:
/// `(A^H A)^{-1} A^H`. `pinv(A) b` is the least-squares solution of
/// `A x = b` — the zero-forcing receiver's core operation.
pub fn pinv(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let ah = a.hermitian();
    let gram = &ah * a;
    let gram_inv = inverse(&gram)?;
    Ok(&gram_inv * &ah)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

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
    fn solve_round_trip() {
        let a = well_conditioned_3x3();
        let x_true = CVector::from_vec(vec![c64(1.0, -1.0), c64(0.5, 2.0), c64(-3.0, 0.0)]);
        let b = a.mul_vec(&x_true);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, TOL));
    }

    #[test]
    fn inverse_round_trip() {
        let a = well_conditioned_3x3();
        let inv = inverse(&a).unwrap();
        assert!((&a * &inv).approx_eq(&CMatrix::identity(3), TOL));
        assert!((&inv * &a).approx_eq(&CMatrix::identity(3), TOL));
    }

    #[test]
    fn singular_matrix_rejected() {
        // Row 2 = 2 * row 1.
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &CVector::zeros(2)), Err(LinalgError::Singular));
        assert_eq!(inverse(&a), Err(LinalgError::Singular));
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
        assert!((&p * &a).approx_eq(&CMatrix::identity(2), TOL));
    }

    #[test]
    fn solve_shape_errors() {
        let a = CMatrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &CVector::zeros(2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let sq = CMatrix::identity(3);
        assert!(matches!(
            solve(&sq, &CVector::zeros(2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
