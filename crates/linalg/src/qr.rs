//! Orthonormalization by modified Gram–Schmidt.
//!
//! Subspace manipulation in n+ (projection for multi-dimensional carrier
//! sense, unwanted-space bases `U` and complements `U^⊥`) needs
//! numerically stable orthonormal bases. We provide modified Gram–Schmidt
//! with re-orthogonalization — for the 1–4 dimensional spaces this system
//! works with, MGS with one re-orthogonalization pass is as stable as
//! Householder and considerably simpler.

use crate::vector::CVector;

/// Orthonormalizes the given vectors with modified Gram–Schmidt plus one
/// re-orthogonalization pass, dropping vectors that are linearly dependent
/// on earlier ones (relative tolerance `tol` against the input norm).
///
/// The output spans the same space as the input and is orthonormal to
/// machine precision.
pub(crate) fn orthonormalize(vectors: &[CVector], tol: f64) -> Vec<CVector> {
    let mut basis: Vec<CVector> = Vec::with_capacity(vectors.len());
    let mut w = CVector::default();
    let dim = orthonormalize_into(vectors, tol, &mut basis, &mut w);
    debug_assert_eq!(dim, basis.len());
    basis
}

/// Pooled sibling of [`orthonormalize`]: writes the basis into reusable
/// slots of `basis` (slots past the returned dimension are retained as
/// spare capacity, never shrunk) using `w` as the Gram–Schmidt work
/// vector. Performs the exact same floating-point operation sequence as
/// [`orthonormalize`], so results are bit-for-bit identical; the only
/// difference is that no allocation happens once the slots have grown to
/// their high-water capacity.
///
/// Returns the basis dimension; `basis[..dim]` is the orthonormal basis.
pub(crate) fn orthonormalize_into(
    vectors: &[CVector],
    tol: f64,
    basis: &mut Vec<CVector>,
    w: &mut CVector,
) -> usize {
    let mut dim = 0usize;
    for v in vectors {
        let original_norm = v.norm();
        if original_norm <= tol {
            continue;
        }
        w.copy_from(v);
        // Two passes of MGS ("twice is enough" — Kahan/Parlett).
        for _ in 0..2 {
            for b in &basis[..dim] {
                let k = w.dot(b);
                w.axpy(-k, b);
            }
        }
        // Drop if what remains is negligible relative to the input.
        if w.norm() <= tol.max(original_norm * 1e-12) {
            continue;
        }
        // `CVector::normalized` recomputes the norm and scales by its
        // reciprocal; replicate that exactly into the pooled slot.
        let n = w.norm();
        assert!(n > 1e-300, "cannot normalize a zero vector");
        if dim == basis.len() {
            basis.push(CVector::default());
        }
        basis[dim].assign_scale_re(w, 1.0 / n);
        dim += 1;
    }
    dim
}

/// Verifies that the columns of `q` are orthonormal within `tol`.
/// Intended for tests and debug assertions.
#[cfg(test)]
pub fn is_orthonormal(vectors: &[CVector], tol: f64) -> bool {
    for (i, a) in vectors.iter().enumerate() {
        for (j, b) in vectors.iter().enumerate() {
            let d = a.dot(b);
            let expect = if i == j { 1.0 } else { 0.0 };
            if (d.re - expect).abs() > tol || d.im.abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::CMatrix;
    use crate::soa::matmul;

    const TOL: f64 = 1e-10;

    /// Thin QR of `a` by [`orthonormalize`] on its columns: `Q` spans
    /// the column space and `R = Q^H A`.
    fn qr(a: &CMatrix) -> (CMatrix, CMatrix) {
        let tol = a.max_abs() * (a.rows().max(a.cols()) as f64) * f64::EPSILON;
        let q = CMatrix::from_cols(&orthonormalize(&a.columns(), tol));
        let r = matmul(&q.hermitian(), a);
        (q, r)
    }

    #[test]
    fn orthonormalize_independent_set() {
        let vs = vec![
            CVector::from_vec(vec![c64(1.0, 0.0), c64(1.0, 0.0), c64(0.0, 0.0)]),
            CVector::from_vec(vec![c64(0.0, 1.0), c64(1.0, 0.0), c64(1.0, 0.0)]),
            CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 2.0)]),
        ];
        let basis = orthonormalize(&vs, 1e-12);
        assert_eq!(basis.len(), 3);
        assert!(is_orthonormal(&basis, TOL));
    }

    #[test]
    fn orthonormalize_drops_dependent_vectors() {
        let a = CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 1.0)]);
        let b = a.scale(c64(2.0, -1.0)); // same direction
        let c = CVector::from_vec(vec![c64(0.0, 0.0), c64(1.0, 0.0)]);
        let basis = orthonormalize(&[a, b, c], 1e-12);
        assert_eq!(basis.len(), 2);
        assert!(is_orthonormal(&basis, TOL));
    }

    #[test]
    fn orthonormalize_skips_zero_vectors() {
        let vs = vec![
            CVector::zeros(3),
            CVector::from_vec(vec![c64(0.0, 3.0), c64(0.0, 0.0), c64(4.0, 0.0)]),
        ];
        let basis = orthonormalize(&vs, 1e-12);
        assert_eq!(basis.len(), 1);
        assert!((basis[0].norm() - 1.0).abs() < TOL);
    }

    #[test]
    fn qr_reconstructs_matrix() {
        let a = CMatrix::from_vec(
            3,
            3,
            vec![
                c64(1.0, 1.0),
                c64(2.0, 0.0),
                c64(0.0, -1.0),
                c64(0.0, 1.0),
                c64(1.0, 0.0),
                c64(3.0, 0.0),
                c64(2.0, 0.0),
                c64(0.0, 0.0),
                c64(1.0, 1.0),
            ],
        );
        let (q, r) = qr(&a);
        assert_eq!(q.cols(), 3);
        assert!(matmul(&q, &r).approx_eq(&a, TOL));
        // Q^H Q = I
        assert!(matmul(&q.hermitian(), &q).approx_eq(&CMatrix::identity(3), TOL));
    }

    #[test]
    fn qr_rank_deficient() {
        // Column 2 = 2 * column 0.
        let a = CMatrix::from_reals(3, 3, &[1.0, 0.0, 2.0, 2.0, 1.0, 4.0, 0.0, 1.0, 0.0]);
        let (q, r) = qr(&a);
        assert_eq!(q.cols(), 2);
        assert!(matmul(&q, &r).approx_eq(&a, TOL));
    }

    #[test]
    fn column_space_dimension() {
        let a = CMatrix::from_reals(4, 2, &[1.0, 2.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let cs = orthonormalize(&a.columns(), 1e-12);
        assert_eq!(cs.len(), 2);
        assert!(is_orthonormal(&cs, TOL));
    }

    #[test]
    fn row_space_dimension() {
        let a = CMatrix::from_reals(2, 4, &[1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 0.0]);
        // Rows are dependent -> row space has dimension 1, vectors live in C^4.
        let rs = orthonormalize(&a.hermitian().columns(), 1e-12);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].len(), 4);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = CMatrix::from_reals(3, 3, &[2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0]);
        let (_, r) = qr(&a);
        for i in 0..r.rows() {
            for j in 0..i.min(r.cols()) {
                assert!(r.get(i, j).abs() < TOL, "R[{i},{j}] not zero");
            }
        }
    }
}
