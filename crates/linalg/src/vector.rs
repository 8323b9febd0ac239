//! Complex column vectors.
//!
//! [`CVector`] is the workhorse for pre-coding vectors (`v_i` in the paper's
//! Eq. 7), per-antenna sample snapshots, and subspace bases. The inner
//! product is the Hermitian one (`<a, b> = sum a_k * conj(b_k)`), which is
//! the physically meaningful choice for signal spaces: projections computed
//! with it preserve power accounting.

use crate::complex::Complex64;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense complex column vector.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// Creates a vector from a `Vec` of complex entries.
    pub fn from_vec(data: Vec<Complex64>) -> Self {
        CVector { data }
    }

    /// Creates a vector from real entries (imaginary parts zero).
    #[cfg(test)]
    pub(crate) fn from_reals(re: &[f64]) -> Self {
        CVector {
            data: re.iter().map(|&r| crate::complex::c64(r, 0.0)).collect(),
        }
    }

    /// The zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![Complex64::ZERO; n],
        }
    }

    /// The `i`-th standard basis vector of dimension `n`.
    pub(crate) fn unit(n: usize, i: usize) -> Self {
        assert!(i < n, "unit index {i} out of range for dimension {n}");
        let mut v = Self::zeros(n);
        v[i] = Complex64::ONE;
        v
    }

    /// Vector dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the entries.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }

    /// Hermitian inner product `<self, other> = sum self_k * conj(other_k)`.
    ///
    /// Note the conjugate is taken on the *second* argument, so
    /// `v.dot(&v)` is real and equals `v.norm_sqr()`.
    pub fn dot(&self, other: &CVector) -> Complex64 {
        assert_eq!(self.len(), other.len(), "dot: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| *a * b.conj())
            .sum()
    }

    /// Squared Euclidean norm (total power of the vector).
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm.
    // nplus:allow(VIS001): the test kit's random_direction and the property suite crates/core/tests/proptests.rs measure vectors with it
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, k: f64) -> CVector {
        CVector {
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// In-place `self += k * other` (AXPY). The hot path of Gram–Schmidt.
    pub(crate) fn axpy(&mut self, k: Complex64, other: &CVector) {
        assert_eq!(self.len(), other.len(), "axpy: dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * *b;
        }
    }

    /// Reuses `self`'s buffer to become a copy of `src` — the pooled
    /// sibling of `clone()`. Allocation-free once the buffer has grown
    /// to `src.len()` capacity.
    pub fn copy_from(&mut self, src: &CVector) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reuses `self`'s buffer to become `src.scale_re(k)` without
    /// allocating at steady state. Entry arithmetic is identical to
    /// [`CVector::scale_re`] (each entry scaled by the same real factor).
    pub fn assign_scale_re(&mut self, src: &CVector, k: f64) {
        self.data.clear();
        self.data.extend(src.data.iter().map(|z| z.scale(k)));
    }

    /// Reuses `self`'s buffer to become the zero vector of dimension `n`.
    pub(crate) fn assign_zeros(&mut self, n: usize) {
        self.data.clear();
        self.data.resize(n, Complex64::ZERO);
    }

    /// Scales every entry by a real factor in place — the pooled sibling
    /// of [`CVector::scale_re`], with identical per-entry arithmetic.
    pub fn scale_re_in_place(&mut self, k: f64) {
        for z in &mut self.data {
            *z = z.scale(k);
        }
    }

    /// Approximate equality within absolute tolerance on every entry.
    // nplus:allow(VIS001): the test kit's assert macros and other crates' unit tests compare through it
    pub fn approx_eq(&self, other: &CVector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// True when every entry has magnitude below `tol`.
    #[cfg(test)]
    pub(crate) fn is_negligible(&self, tol: f64) -> bool {
        self.data.iter().all(|z| z.abs() <= tol)
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    #[inline]
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "add: dimension mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: &CVector) -> CVector {
        assert_eq!(self.len(), rhs.len(), "sub: dimension mismatch");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| -z).collect(),
        }
    }
}

impl Mul<Complex64> for &CVector {
    type Output = CVector;
    fn mul(self, k: Complex64) -> CVector {
        self.scale(k)
    }
}

impl FromIterator<Complex64> for CVector {
    fn from_iter<T: IntoIterator<Item = Complex64>>(iter: T) -> Self {
        CVector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    const TOL: f64 = 1e-12;

    fn v(entries: &[(f64, f64)]) -> CVector {
        CVector::from_vec(entries.iter().map(|&(r, i)| c64(r, i)).collect())
    }

    #[test]
    fn dot_is_hermitian() {
        let a = v(&[(1.0, 2.0), (0.0, -1.0)]);
        let b = v(&[(3.0, 0.0), (1.0, 1.0)]);
        // <a,b> = conj(<b,a>)
        assert!(a.dot(&b).approx_eq(b.dot(&a).conj(), TOL));
    }

    #[test]
    fn dot_with_self_is_norm_sqr() {
        let a = v(&[(1.0, 2.0), (0.0, -1.0), (3.0, 0.5)]);
        let d = a.dot(&a);
        assert!(d.im.abs() < TOL);
        assert!((d.re - a.norm_sqr()).abs() < TOL);
    }

    #[test]
    fn unit_vectors_orthonormal() {
        for i in 0..4 {
            for j in 0..4 {
                let d = CVector::unit(4, i).dot(&CVector::unit(4, j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(d.approx_eq(c64(expect, 0.0), TOL));
            }
        }
    }

    #[test]
    fn rejection_is_orthogonal_to_direction() {
        let a = v(&[(1.0, 1.0), (2.0, -1.0), (0.5, 0.0)]);
        let d = v(&[(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]);
        let line = crate::Subspace::span(3, std::slice::from_ref(&d));
        let r = line.reject(&a);
        assert!(r.dot(&d).abs() < TOL);
        // projection + rejection reassemble the original vector
        let p = line.project(&a);
        assert!((&p + &r).approx_eq(&a, TOL));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = v(&[(1.0, 0.0), (0.0, 1.0)]);
        let b = v(&[(1.0, 1.0), (2.0, 0.0)]);
        a.axpy(c64(0.0, 1.0), &b); // a += i*b
        assert!(a.approx_eq(&v(&[(0.0, 1.0), (0.0, 3.0)]), TOL));
    }

    #[test]
    fn arithmetic_ops() {
        let a = v(&[(1.0, 0.0), (2.0, 2.0)]);
        let b = v(&[(0.5, 0.5), (1.0, -1.0)]);
        assert!((&a + &b).approx_eq(&v(&[(1.5, 0.5), (3.0, 1.0)]), TOL));
        assert!((&a - &b).approx_eq(&v(&[(0.5, -0.5), (1.0, 3.0)]), TOL));
        assert!((-&a).approx_eq(&v(&[(-1.0, 0.0), (-2.0, -2.0)]), TOL));
    }

    #[test]
    fn negligible_detection() {
        assert!(CVector::zeros(5).is_negligible(1e-15));
        assert!(!v(&[(1e-3, 0.0)]).is_negligible(1e-6));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dimension_mismatch_panics() {
        let _ = CVector::zeros(2).dot(&CVector::zeros(3));
    }
}
