//! Subspaces, orthogonal complements and projections.
//!
//! Multi-dimensional carrier sense (paper §3.2) is literally "project the
//! received signal onto the orthogonal complement of the ongoing
//! transmissions and run 802.11 carrier sense there". The unwanted space
//! `U` and its complement `U^⊥` of §3.3 are the same machinery. This
//! module provides a [`Subspace`] type holding an orthonormal basis with
//! the operations both call sites need.

use crate::matrix::CMatrix;
use crate::qr::{orthonormalize, orthonormalize_into};
use crate::soa::{mul_into, null_space_into, NullspaceWorkspace};
use crate::vector::CVector;

/// A linear subspace of `C^n`, stored as an orthonormal basis.
///
/// The zero subspace is represented by an empty basis; the ambient
/// dimension is always tracked so complements remain well-defined.
///
/// Storage uses logical-length semantics so a `Subspace` slot can be
/// reused round after round without reallocating: `basis` may hold spare
/// vectors past `dim` retained from earlier, larger uses. All accessors
/// see only the live prefix `basis[..dim]`.
#[derive(Debug, Clone, Default)]
pub struct Subspace {
    ambient: usize,
    basis: Vec<CVector>,
    dim: usize,
}

impl Subspace {
    /// The zero subspace of `C^ambient`.
    pub fn zero(ambient: usize) -> Self {
        Subspace {
            ambient,
            basis: Vec::new(),
            dim: 0,
        }
    }

    /// The full space `C^ambient`.
    pub fn full(ambient: usize) -> Self {
        Subspace {
            ambient,
            basis: (0..ambient).map(|i| CVector::unit(ambient, i)).collect(),
            dim: ambient,
        }
    }

    /// Subspace spanned by the given vectors (they need not be independent
    /// or normalized; dependent and zero vectors are dropped).
    pub fn span(ambient: usize, vectors: &[CVector]) -> Self {
        for v in vectors {
            assert_eq!(v.len(), ambient, "span: vector dimension != ambient");
        }
        let tol = span_tolerance(ambient, vectors);
        let basis = orthonormalize(vectors, tol);
        let dim = basis.len();
        Subspace {
            ambient,
            basis,
            dim,
        }
    }

    /// Pooled sibling of [`Subspace::full`]: reuses `self`'s slots.
    pub(crate) fn assign_full(&mut self, ambient: usize) {
        self.ambient = ambient;
        for i in 0..ambient {
            if i == self.basis.len() {
                self.basis.push(CVector::default());
            }
            self.basis[i].assign_zeros(ambient);
            self.basis[i][i] = crate::complex::Complex64::ONE;
        }
        self.dim = ambient;
    }

    /// Pooled sibling of `clone_from` that keeps spare slots: copies the
    /// live basis of `src` into reusable slots of `self`.
    pub fn assign_from(&mut self, src: &Subspace) {
        self.ambient = src.ambient;
        for (i, b) in src.basis().iter().enumerate() {
            if i == self.basis.len() {
                self.basis.push(CVector::default());
            }
            self.basis[i].copy_from(b);
        }
        self.dim = src.dim;
    }

    /// Pooled sibling of [`Subspace::span`]: same tolerance and the same
    /// Gram–Schmidt operation sequence (via `orthonormalize_into`), so the
    /// resulting basis is bit-identical; `w` is the reusable work vector.
    pub fn assign_span(&mut self, ambient: usize, vectors: &[CVector], w: &mut CVector) {
        for v in vectors {
            assert_eq!(v.len(), ambient, "span: vector dimension != ambient");
        }
        let tol = span_tolerance(ambient, vectors);
        self.ambient = ambient;
        self.dim = orthonormalize_into(vectors, tol, &mut self.basis, w);
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn ambient_dim(&self) -> usize {
        self.ambient
    }

    /// Dimension of the subspace itself.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True for the zero subspace.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.dim == 0
    }

    /// The orthonormal basis vectors.
    #[inline]
    pub fn basis(&self) -> &[CVector] {
        &self.basis[..self.dim]
    }

    /// Basis as a matrix whose *columns* are the basis vectors
    /// (`ambient × dim`).
    pub(crate) fn basis_matrix(&self) -> CMatrix {
        if self.dim == 0 {
            CMatrix::zeros(self.ambient, 0)
        } else {
            CMatrix::from_cols(self.basis())
        }
    }

    /// Writes the basis as a matrix whose *rows* are the conjugated basis
    /// vectors (`dim × ambient`) into `out` — the `U^⊥` row operator of
    /// the paper's Eq. 6: applying it to a received vector extracts the
    /// coordinates along the subspace.
    pub fn row_operator_into(&self, out: &mut CMatrix) {
        out.reset(self.dim, self.ambient);
        for (i, b) in self.basis().iter().enumerate() {
            for (j, z) in b.iter().enumerate() {
                out.set(i, j, z.conj());
            }
        }
    }

    /// Orthogonal complement within the ambient space.
    ///
    /// Computed as the null space of the row operator, so
    /// `dim + complement.dim == ambient` always holds. Allocating wrapper
    /// over [`Subspace::complement_into`].
    pub fn complement(&self) -> Subspace {
        let mut out = Subspace::default();
        self.complement_into(&mut out, &mut SubspaceWorkspace::default());
        out
    }

    /// [`Subspace::complement`] into reusable slots of `out`, through the
    /// split-storage null-space kernel.
    pub fn complement_into(&self, out: &mut Subspace, ws: &mut SubspaceWorkspace) {
        if self.is_zero() {
            out.assign_full(self.ambient);
            return;
        }
        self.row_operator_into(&mut ws.rowop);
        out.ambient = self.ambient;
        out.dim = null_space_into(&ws.rowop, &mut ws.ns, &mut out.basis);
    }

    /// Projects `v` onto the subspace.
    pub fn project(&self, v: &CVector) -> CVector {
        assert_eq!(v.len(), self.ambient, "project: dimension mismatch");
        let mut out = CVector::zeros(self.ambient);
        for b in self.basis() {
            let k = v.dot(b);
            out.axpy(k, b);
        }
        out
    }

    /// Removes the component of `v` inside the subspace, i.e. projects `v`
    /// onto the orthogonal complement without materializing it.
    /// Allocating wrapper over [`Subspace::reject_into`].
    pub fn reject(&self, v: &CVector) -> CVector {
        let mut out = CVector::default();
        self.reject_into(v, &mut out);
        out
    }

    /// [`Subspace::reject`] into a reusable buffer.
    pub fn reject_into(&self, v: &CVector, out: &mut CVector) {
        assert_eq!(v.len(), self.ambient, "reject: dimension mismatch");
        out.copy_from(v);
        for b in self.basis() {
            let k = out.dot(b);
            out.axpy(-k, b);
        }
    }

    /// Coordinates of `v` in the subspace basis (a `dim`-vector). This is
    /// the "signal after projection" `y'` of §3.2: interference from the
    /// spanned directions is annihilated when applied to the complement.
    #[cfg(test)]
    pub fn coordinates(&self, v: &CVector) -> CVector {
        assert_eq!(v.len(), self.ambient, "coordinates: dimension mismatch");
        self.basis().iter().map(|b| v.dot(b)).collect()
    }

    /// Projection matrix `P = B B^H` onto the subspace (`ambient × ambient`).
    pub fn projector(&self) -> CMatrix {
        let b = self.basis_matrix();
        let mut p = CMatrix::default();
        mul_into(&b, &b.hermitian(), &mut p);
        p
    }

    /// True when `v` lies in the subspace within tolerance `tol`
    /// (relative to `|v|`).
    pub fn contains(&self, v: &CVector, tol: f64) -> bool {
        let resid = self.reject(v);
        resid.norm() <= tol * v.norm().max(1e-300)
    }

    /// The sum (union-span) of two subspaces of the same ambient space.
    pub fn sum(&self, other: &Subspace) -> Subspace {
        assert_eq!(self.ambient, other.ambient, "sum: ambient mismatch");
        let mut all = self.basis().to_vec();
        all.extend(other.basis().iter().cloned());
        Subspace::span(self.ambient, &all)
    }
}

/// The span tolerance shared by [`Subspace::span`] and
/// [`Subspace::assign_span`]: `max|v| · ambient · eps`, floored at
/// `1e-300`. Kept in one place so the two paths cannot drift.
fn span_tolerance(ambient: usize, vectors: &[CVector]) -> f64 {
    let scale = vectors
        .iter()
        .map(|v| v.norm())
        .fold(0.0f64, f64::max)
        .max(1e-300);
    scale * ambient as f64 * f64::EPSILON
}

/// Reusable buffers for [`Subspace::complement_into`].
#[derive(Debug, Clone, Default)]
pub struct SubspaceWorkspace {
    rowop: CMatrix,
    ns: NullspaceWorkspace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::soa::matmul;

    const TOL: f64 = 1e-10;

    fn v3(a: (f64, f64), b: (f64, f64), c: (f64, f64)) -> CVector {
        CVector::from_vec(vec![c64(a.0, a.1), c64(b.0, b.1), c64(c.0, c.1)])
    }

    #[test]
    fn complement_dimensions_add_up() {
        let s = Subspace::span(3, &[v3((1.0, 0.0), (1.0, 1.0), (0.0, 0.0))]);
        assert_eq!(s.dim(), 1);
        let c = s.complement();
        assert_eq!(c.dim(), 2);
        assert_eq!(s.dim() + c.dim(), 3);
    }

    #[test]
    fn complement_annihilates_original() {
        // This is exactly multi-dimensional carrier sense: a signal in the
        // occupied space has zero coordinates in the complement.
        let h = v3((0.8, 0.1), (-0.2, 0.6), (0.4, -0.3)); // channel of tx1
        let occupied = Subspace::span(3, std::slice::from_ref(&h));
        let comp = occupied.complement();
        // Any scalar multiple of h (any transmitted symbol p) vanishes.
        for &p in &[c64(1.0, 0.0), c64(-0.3, 2.0), c64(0.0, -1.0)] {
            let y = h.scale(p);
            let coords = comp.coordinates(&y);
            assert!(coords.is_negligible(TOL), "residual {coords:?}");
        }
    }

    #[test]
    fn complement_preserves_new_signal() {
        let h1 = v3((0.8, 0.1), (-0.2, 0.6), (0.4, -0.3));
        let h2 = v3((0.1, -0.5), (0.7, 0.2), (-0.3, 0.3));
        let occupied = Subspace::span(3, std::slice::from_ref(&h1));
        let comp = occupied.complement();
        // A second transmission not colinear with h1 must survive.
        let coords = comp.coordinates(&h2);
        assert!(coords.norm() > 0.1, "tx2 signal lost in projection");
        // And the survived power equals the rejected component's power.
        let rejected = occupied.reject(&h2);
        assert!((coords.norm_sqr() - rejected.norm_sqr()).abs() < TOL);
    }

    #[test]
    fn project_plus_reject_is_identity() {
        let s = Subspace::span(
            3,
            &[
                v3((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
                v3((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
            ],
        );
        let v = v3((0.3, -0.4), (1.2, 0.0), (0.0, 0.9));
        let p = s.project(&v);
        let r = s.reject(&v);
        assert!((&p + &r).approx_eq(&v, TOL));
        assert!(p.dot(&r).abs() < TOL);
    }

    #[test]
    fn power_fraction_bounds() {
        let s = Subspace::span(2, &[CVector::unit(2, 0)]);
        let fraction = |v: &CVector| s.project(v).norm_sqr() / v.norm_sqr();
        assert!((fraction(&CVector::unit(2, 0)) - 1.0).abs() < TOL);
        assert!(fraction(&CVector::unit(2, 1)) < TOL);
        let mixed = CVector::from_reals(&[1.0, 1.0]);
        assert!((fraction(&mixed) - 0.5).abs() < TOL);
    }

    #[test]
    fn projector_matrix_matches_project() {
        let s = Subspace::span(3, &[v3((1.0, 1.0), (0.0, 0.0), (2.0, -1.0))]);
        let v = v3((0.5, 0.0), (0.0, 0.5), (1.0, 1.0));
        let via_matrix = s.projector().mul_vec(&v);
        assert!(via_matrix.approx_eq(&s.project(&v), TOL));
        // Projector is idempotent: P^2 = P.
        let p = s.projector();
        assert!(matmul(&p, &p).approx_eq(&p, TOL));
    }

    #[test]
    fn contains_detects_membership() {
        let b = v3((1.0, 0.0), (2.0, 0.0), (0.0, 1.0));
        let s = Subspace::span(3, std::slice::from_ref(&b));
        assert!(s.contains(&b.scale(c64(0.0, -3.0)), 1e-9));
        assert!(!s.contains(&v3((1.0, 0.0), (0.0, 0.0), (0.0, 0.0)), 1e-6));
    }

    #[test]
    fn zero_and_full_subspace() {
        let z = Subspace::zero(4);
        assert!(z.is_zero());
        assert_eq!(z.complement().dim(), 4);
        let f = Subspace::full(4);
        assert_eq!(f.dim(), 4);
        assert_eq!(f.complement().dim(), 0);
        let v = CVector::unit(4, 2);
        assert!(z.reject(&v).approx_eq(&v, TOL));
        assert!(f.project(&v).approx_eq(&v, TOL));
    }

    #[test]
    fn sum_of_subspaces() {
        let a = Subspace::span(3, &[CVector::unit(3, 0)]);
        let b = Subspace::span(3, &[CVector::unit(3, 1)]);
        let s = a.sum(&b);
        assert_eq!(s.dim(), 2);
        // Sum with overlap doesn't over-count.
        let s2 = a.sum(&a);
        assert_eq!(s2.dim(), 1);
    }

    #[test]
    fn pooled_ops_match_allocating_ops_bitwise() {
        let vs = [
            v3((0.8, 0.1), (-0.2, 0.6), (0.4, -0.3)),
            v3((0.1, -0.5), (0.7, 0.2), (-0.3, 0.3)),
        ];
        let expect = Subspace::span(3, &vs);
        let mut s = Subspace::default();
        let mut w = CVector::default();
        s.assign_span(3, &vs, &mut w);
        assert_eq!(s.dim(), expect.dim());
        for (a, b) in s.basis().iter().zip(expect.basis()) {
            for i in 0..a.len() {
                assert_eq!(a[i].re.to_bits(), b[i].re.to_bits());
                assert_eq!(a[i].im.to_bits(), b[i].im.to_bits());
            }
        }
        // Reuse after a larger assignment must not leak stale slots.
        let mut reused = Subspace::default();
        reused.assign_full(3);
        reused.assign_from(&expect);
        assert_eq!(reused.dim(), expect.dim());
        assert_eq!(reused.basis().len(), expect.dim());
        reused.assign_from(&Subspace::zero(3));
        assert!(reused.is_zero());
        assert!(reused.basis().is_empty());
    }

    #[test]
    fn row_operator_into_matches_row_operator() {
        let vs = [v3((1.0, 0.0), (1.0, 1.0), (0.0, 0.0))];
        let s = Subspace::span(3, &vs);
        let expect = s.basis_matrix().hermitian();
        let mut out = CMatrix::default();
        s.row_operator_into(&mut out);
        assert_eq!(out.shape(), (expect.rows(), expect.cols()));
        for i in 0..expect.rows() {
            for j in 0..expect.cols() {
                assert_eq!(out.get(i, j).re.to_bits(), expect.get(i, j).re.to_bits());
                assert_eq!(out.get(i, j).im.to_bits(), expect.get(i, j).im.to_bits());
            }
        }
    }
}
