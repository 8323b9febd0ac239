//! Null-space checks (test-only).
//!
//! The heart of the n+ precoder (paper §3.3, Claim 3.5 / Eq. 7): the
//! pre-coding vectors of a joining transmitter are a basis of the null
//! space of the stacked nulling/alignment constraint matrix. An `M`-antenna
//! transmitter facing `K` independent constraints gets an `(M − K)`-
//! dimensional null space — exactly the `m = M − K` streams of Claim 3.2.
//! The kernel is [`null_space_into`]; these tests drive it through an
//! allocating form.

use crate::matrix::CMatrix;
use crate::soa::{null_space_into, NullspaceWorkspace};
use crate::vector::CVector;

/// Computes an orthonormal basis of the (right) null space of `a`, i.e.
/// all `v` with `A v = 0`.
///
/// Returns `a.cols() - rank(a)` vectors. For an empty constraint set
/// (zero rows), the whole space is returned (the standard basis,
/// trivially orthonormal). Allocating wrapper over [`null_space_into`].
fn null_space(a: &CMatrix) -> Vec<CVector> {
    let mut basis = Vec::new();
    let dim = null_space_into(a, &mut NullspaceWorkspace::default(), &mut basis);
    basis.truncate(dim);
    basis
}

/// Verifies `A v ≈ 0` for every vector, within `tol` relative to the
/// matrix scale. Used by tests and by debug assertions in the precoder.
fn is_null_space_of(a: &CMatrix, vectors: &[CVector], tol: f64) -> bool {
    vectors.iter().all(|v| a.mul_vec(v).is_negligible(tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};
    use crate::qr::is_orthonormal;

    const TOL: f64 = 1e-10;

    #[test]
    fn null_space_of_full_rank_square_is_empty() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(null_space(&a).is_empty());
    }

    #[test]
    fn null_space_of_wide_matrix() {
        // 1 equation, 3 unknowns -> 2-dimensional null space. This is the
        // tx2 nulling scenario from the paper's Fig. 2 generalized.
        let a = CMatrix::from_vec(1, 3, vec![c64(1.0, 1.0), c64(2.0, 0.0), c64(0.0, -1.0)]);
        let ns = null_space(&a);
        assert_eq!(ns.len(), 2);
        assert!(is_orthonormal(&ns, TOL));
        assert!(is_null_space_of(&a, &ns, TOL));
    }

    #[test]
    fn null_space_of_stacked_constraints() {
        // K=2 constraints on an M=3 antenna transmitter -> m = 1 stream
        // (Claim 3.2 with M=3, K=2).
        let a = CMatrix::from_vec(
            2,
            3,
            vec![
                c64(1.0, 0.5),
                c64(0.0, 1.0),
                c64(2.0, 0.0),
                c64(0.0, -1.0),
                c64(1.0, 1.0),
                c64(0.5, 0.0),
            ],
        );
        let ns = null_space(&a);
        assert_eq!(ns.len(), 1);
        assert!(is_null_space_of(&a, &ns, TOL));
    }

    #[test]
    fn null_space_of_zero_rows_is_identity_basis() {
        let a = CMatrix::zeros(0, 3);
        let ns = null_space(&a);
        assert_eq!(ns.len(), 3);
        assert!(is_orthonormal(&ns, TOL));
    }

    #[test]
    fn null_space_of_zero_matrix_is_full() {
        let a = CMatrix::zeros(2, 3);
        let ns = null_space(&a);
        assert_eq!(ns.len(), 3);
    }

    #[test]
    fn null_space_with_dependent_rows() {
        // Second row is a multiple of the first: rank 1, nullity 2.
        let r0 = [c64(1.0, 0.0), c64(0.0, 1.0), c64(1.0, 1.0)];
        let a = CMatrix::from_vec(
            2,
            3,
            vec![
                r0[0],
                r0[1],
                r0[2],
                r0[0] * c64(0.0, 2.0),
                r0[1] * c64(0.0, 2.0),
                r0[2] * c64(0.0, 2.0),
            ],
        );
        let ns = null_space(&a);
        assert_eq!(ns.len(), 2);
        assert!(is_null_space_of(&a, &ns, TOL));
    }

    #[test]
    fn nulling_three_antennas_at_three_receive_antennas_is_empty() {
        // The paper's §2 impossibility argument: tx3 with 3 antennas
        // nulling at 3 receive antennas (Eqs. 2a–2c) has only the zero
        // solution, i.e. an empty null space for a generic 3x3 channel.
        let h = CMatrix::from_vec(
            3,
            3,
            vec![
                c64(0.9, 0.1),
                c64(-0.3, 0.7),
                c64(0.2, -0.5),
                c64(0.1, -0.8),
                c64(0.6, 0.2),
                c64(-0.4, 0.3),
                c64(0.5, 0.5),
                c64(0.0, -0.2),
                c64(0.7, 0.1),
            ],
        );
        assert!(null_space(&h).is_empty());
    }

    #[test]
    fn rank_nullity_theorem() {
        use crate::solve::rank;
        // Random-ish fixed matrices of several shapes.
        let shapes = [(2usize, 4usize), (3, 3), (4, 2), (1, 5)];
        let mut seed = 1u64;
        let mut next = move || {
            // Tiny xorshift for deterministic pseudo-random entries.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 500.0 - 1.0
        };
        for &(r, c) in &shapes {
            let data: Vec<Complex64> = (0..r * c).map(|_| c64(next(), next())).collect();
            let a = CMatrix::from_vec(r, c, data);
            let rk = rank(&a, None);
            let ns = null_space(&a);
            assert_eq!(rk + ns.len(), c, "rank-nullity failed for {r}x{c}");
            assert!(is_null_space_of(&a, &ns, TOL));
        }
    }
}
