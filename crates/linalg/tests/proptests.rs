//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the invariants DESIGN.md §6 calls out, over randomly
//! generated complex matrices of the antenna-scale sizes the MIMO stack
//! uses (dimensions 1..=5).

use nplus_linalg::{
    c64, null_space_into, pinv, rank, CMatrix, CVector, Complex64, NullspaceWorkspace, Subspace,
};
use proptest::prelude::*;

const TOL: f64 = 1e-8;

/// An orthonormal basis of the null space of `a`, through the pooled kernel.
fn null_space(a: &CMatrix) -> Vec<CVector> {
    let mut basis = Vec::new();
    let dim = null_space_into(a, &mut NullspaceWorkspace::default(), &mut basis);
    basis.truncate(dim);
    basis
}

/// Strategy: a bounded complex scalar.
fn complex() -> impl Strategy<Value = Complex64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| c64(re, im))
}

/// Strategy: a complex matrix with the given shape.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = CMatrix> {
    proptest::collection::vec(complex(), rows * cols)
        .prop_map(move |data| CMatrix::from_vec(rows, cols, data))
}

/// Strategy: a complex vector with the given dimension.
fn vector(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec(complex(), n).prop_map(CVector::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rank–nullity theorem: rank(A) + dim null(A) == cols(A), and every
    /// null-space basis vector is annihilated by A.
    #[test]
    fn rank_nullity_and_annihilation(
        (rows, cols) in (1usize..5, 1usize..5),
        seed in proptest::collection::vec(complex(), 25),
    ) {
        let data: Vec<Complex64> = seed.into_iter().take(rows * cols).collect();
        prop_assume!(data.len() == rows * cols);
        let a = CMatrix::from_vec(rows, cols, data);
        let ns = null_space(&a);
        prop_assert_eq!(rank(&a, None) + ns.len(), cols);
        prop_assert!(ns.iter().all(|v| a.mul_vec(v).iter().all(|z| z.abs() <= TOL)));
    }

    /// Solving a random well-conditioned system through the
    /// pseudo-inverse round-trips.
    #[test]
    fn solve_round_trips(a in matrix(3, 3), x in vector(3)) {
        // Skip (rare) near-singular draws.
        prop_assume!(rank(&a, Some(1e-6)) == 3);
        let b = a.mul_vec(&x);
        let solved = pinv(&a).unwrap().mul_vec(&b);
        prop_assert!(solved.approx_eq(&x, 1e-6));
    }

    /// A subspace and its complement partition the ambient dimension, and
    /// projection onto the complement annihilates the subspace.
    #[test]
    fn complement_partitions_space(vs in proptest::collection::vec(vector(4), 1..4)) {
        let s = Subspace::span(4, &vs);
        let c = s.complement();
        prop_assert_eq!(s.dim() + c.dim(), 4);
        for b in s.basis() {
            for cb in c.basis() {
                prop_assert!(b.dot(cb).abs() < TOL);
            }
        }
    }

    /// Projection is idempotent and never increases power.
    #[test]
    fn projection_idempotent_contractive(
        vs in proptest::collection::vec(vector(4), 1..4),
        x in vector(4),
    ) {
        let s = Subspace::span(4, &vs);
        let p1 = s.project(&x);
        let p2 = s.project(&p1);
        prop_assert!(p1.approx_eq(&p2, TOL));
        prop_assert!(p1.norm_sqr() <= x.norm_sqr() + TOL);
    }

    /// Pythagoras: |x|^2 = |project(x)|^2 + |reject(x)|^2.
    #[test]
    fn projection_preserves_total_power(
        vs in proptest::collection::vec(vector(3), 1..3),
        x in vector(3),
    ) {
        let s = Subspace::span(3, &vs);
        let p = s.project(&x).norm_sqr();
        let r = s.reject(&x).norm_sqr();
        prop_assert!((p + r - x.norm_sqr()).abs() < TOL);
    }

    /// The Hermitian transpose is an involution and reverses products.
    #[test]
    fn hermitian_involution(a in matrix(3, 4)) {
        prop_assert!(a.hermitian().hermitian().approx_eq(&a, 0.0));
    }

    /// Claim 3.2 analogue at the matrix level: stacking K generic
    /// constraint rows against an M-column transmitter leaves an
    /// (M - K)-dimensional null space (generic channels are full rank).
    #[test]
    fn constraints_consume_exactly_one_dof_each(
        k in 1usize..4,
        seed in proptest::collection::vec(complex(), 16),
    ) {
        let m = 4usize;
        prop_assume!(seed.len() >= k * m);
        let a = CMatrix::from_vec(k, m, seed.into_iter().take(k * m).collect());
        // Generic random rows are independent with probability 1; guard
        // against the measure-zero degenerate draws.
        prop_assume!(rank(&a, Some(1e-9)) == k);
        prop_assert_eq!(null_space(&a).len(), m - k);
    }
}
