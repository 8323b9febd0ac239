//! Dense complex matrices in split storage.
//!
//! [`CMatrix`] stores the real and imaginary parts of a row-major
//! complex matrix in two separate `f64` arrays. Split storage keeps each
//! part contiguous, so the hot kernels (matrix–vector products, matmul
//! row updates, Gaussian elimination row operations) compile to straight
//! slice loops over `f64` that the auto-vectorizer handles well, and the
//! layout is FMA-friendly: each partial product is a chain of independent
//! mul/adds on separate lanes rather than interleaved re/im pairs.
//!
//! Channel matrices in the paper are small (at most a handful of antennas
//! per node); the kernels built on this type live in [`crate::soa`].
//!
//! [`CMatrixRef`] is the borrowed view of the same layout: a matrix whose
//! entries live in someone else's buffer (a channel table stores all its
//! bins' matrices in one), read without copying. The matrix–vector
//! product is implemented on the view alone.

use crate::complex::{c64, Complex64};
use crate::vector::CVector;

/// A dense complex matrix in split (structure-of-arrays) storage.
///
/// Entries are row-major, with real parts in one contiguous array and
/// imaginary parts in another. The fields are crate-visible so the
/// kernels in [`crate::soa`] can slice them; every writer keeps
/// `re.len() == im.len() == rows * cols`.
#[derive(Clone, Default, PartialEq)]
pub struct CMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
}

impl CMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            re: vec![0.0; rows * cols],
            im: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex64::ONE);
        }
        m
    }

    /// Creates a matrix from a row-major entry vector.
    ///
    /// Panics unless `data.len() == rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: expected {} entries, got {}",
            rows * cols,
            data.len()
        );
        CMatrix {
            rows,
            cols,
            re: data.iter().map(|z| z.re).collect(),
            im: data.iter().map(|z| z.im).collect(),
        }
    }

    /// An exact copy of `a`. Kept only for perfbench, which still spells
    /// the conversion from when matrices came in two storage layouts.
    pub fn from_aos(a: &CMatrix) -> Self {
        a.clone()
    }

    /// Creates a matrix whose rows are the given vectors (all must share a
    /// dimension).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[CVector]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged row lengths");
            data.extend_from_slice(r.as_slice());
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a matrix whose columns are the given vectors.
    // nplus:allow(VIS001): a stage of the sample-level join chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
    pub fn from_cols(cols: &[CVector]) -> Self {
        if cols.is_empty() {
            return Self::zeros(0, 0);
        }
        let rows = cols[0].len();
        let mut m = Self::zeros(rows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), rows, "from_cols: ragged column lengths");
            for i in 0..rows {
                m.set(i, j, c[i]);
            }
        }
        m
    }

    /// Creates a matrix from real entries in row-major order.
    #[cfg(test)]
    pub(crate) fn from_reals(rows: usize, cols: usize, re: &[f64]) -> Self {
        Self::from_vec(rows, cols, re.iter().map(|&r| c64(r, 0.0)).collect())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Entry `(i, j)` as a complex value.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        let idx = i * self.cols + j;
        c64(self.re[idx], self.im[idx])
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, z: Complex64) {
        debug_assert!(i < self.rows && j < self.cols);
        let idx = i * self.cols + j;
        self.re[idx] = z.re;
        self.im[idx] = z.im;
    }

    /// Real parts of row `i` as a contiguous slice (borrowed view — no
    /// copy).
    #[inline]
    pub(crate) fn row_re(&self, i: usize) -> &[f64] {
        &self.re[i * self.cols..(i + 1) * self.cols]
    }

    /// Imaginary parts of row `i` as a contiguous slice (borrowed view —
    /// no copy).
    #[inline]
    pub(crate) fn row_im(&self, i: usize) -> &[f64] {
        &self.im[i * self.cols..(i + 1) * self.cols]
    }

    /// Extracts row `i` as an owned vector.
    pub fn row(&self, i: usize) -> CVector {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        self.row_re(i)
            .iter()
            .zip(self.row_im(i))
            .map(|(&r, &im)| c64(r, im))
            .collect()
    }

    /// Extracts column `j` as an owned vector (cold-path helper).
    pub fn col(&self, j: usize) -> CVector {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Returns the columns as a list of vectors.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> Vec<CVector> {
        (0..self.cols).map(|j| self.col(j)).collect()
    }

    /// Hermitian (conjugate) transpose, written `A^H` in the paper.
    // nplus:allow(VIS001): the golden tests/kernel_regression.rs and other crates' unit tests take conjugate transposes with it
    pub fn hermitian(&self) -> CMatrix {
        let mut t = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j).conj());
            }
        }
        t
    }

    /// Entry-wise conjugate (no transpose).
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            re: self.re.clone(),
            im: self.im.iter().map(|&i| -i).collect(),
        }
    }

    /// Reshapes `self` to `rows × cols` filled with zeros, reusing the
    /// buffers. Allocation-free once grown to high-water capacity.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.re.clear();
        self.re.resize(rows * cols, 0.0);
        self.im.clear();
        self.im.resize(rows * cols, 0.0);
    }

    /// Reuses `self`'s buffers to become a copy of `src` — the pooled
    /// sibling of `clone()`. An owned source passes [`CMatrix::view`].
    pub fn assign_from(&mut self, src: CMatrixRef<'_>) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.re.clear();
        self.re.extend_from_slice(src.re);
        self.im.clear();
        self.im.extend_from_slice(src.im);
    }

    /// The whole matrix as a borrowed view.
    #[inline]
    pub fn view(&self) -> CMatrixRef<'_> {
        self.row_block(0, self.rows)
    }

    /// Rows `first..first + rows` as a borrowed `rows × cols` view.
    #[inline]
    pub fn row_block(&self, first: usize, rows: usize) -> CMatrixRef<'_> {
        let span = first * self.cols..(first + rows) * self.cols;
        CMatrixRef {
            rows,
            cols: self.cols,
            re: &self.re[span.clone()],
            im: &self.im[span],
        }
    }

    /// Appends the rows of `other` below `self` (in-place row concatenation).
    /// An empty `self` (zero rows) adopts `other`'s column count.
    pub fn append_rows(&mut self, other: &CMatrix) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            self.cols = other.cols;
            self.re.clear();
            self.im.clear();
        }
        assert_eq!(self.cols, other.cols, "append_rows: column count mismatch");
        self.re.extend_from_slice(&other.re);
        self.im.extend_from_slice(&other.im);
        self.rows += other.rows;
    }

    /// Swaps two rows in place.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.re.swap(a * self.cols + j, b * self.cols + j);
            self.im.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Matrix–vector product `A x` into a pooled output vector: the
    /// view's [`CMatrixRef::mul_vec_into`].
    #[inline]
    pub fn mul_vec_into(&self, x: &CVector, out: &mut CVector) {
        self.view().mul_vec_into(x, out);
    }

    /// Allocating convenience wrapper over [`CMatrix::mul_vec_into`].
    pub fn mul_vec(&self, x: &CVector) -> CVector {
        let mut out = CVector::default();
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            re: self.re.iter().map(|&r| r * k).collect(),
            im: self.im.iter().map(|&i| i * k).collect(),
        }
    }

    /// Frobenius norm — row-major `norm_sqr` sum then square root.
    pub fn frobenius_norm(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r * r + i * i)
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude — row-major `hypot` fold from `0.0`.
    pub(crate) fn max_abs(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r.hypot(i))
            .fold(0.0, f64::max)
    }

    /// Approximate equality within absolute tolerance on every entry.
    // nplus:allow(VIS001): the test kit's property suite and other crates' unit tests compare through it
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && (0..self.re.len())
                .all(|k| c64(self.re[k], self.im[k]).approx_eq(c64(other.re[k], other.im[k]), tol))
    }
}

/// A borrowed, read-only `rows × cols` matrix in the split layout of
/// [`CMatrix`]: row-major real parts in one slice, imaginary parts in
/// another. [`CMatrix::view`] and [`CMatrix::row_block`] make one.
#[derive(Debug, Clone, Copy)]
pub struct CMatrixRef<'a> {
    rows: usize,
    cols: usize,
    re: &'a [f64],
    im: &'a [f64],
}

impl CMatrixRef<'_> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Entry `(i, j)` as a complex value.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        let idx = i * self.cols + j;
        c64(self.re[idx], self.im[idx])
    }

    /// Matrix–vector product `A x` into a pooled output vector.
    ///
    /// Ascending `j` per row, each term the complex multiply
    /// `(ar·xr − ai·xi, ar·xi + ai·xr)` added onto split accumulators.
    pub fn mul_vec_into(&self, x: &CVector, out: &mut CVector) {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec: {}x{} matrix times {}-vector",
            self.rows,
            self.cols,
            x.len()
        );
        out.assign_zeros(self.rows);
        let xs = x.as_slice();
        for i in 0..self.rows {
            let re_row = &self.re[i * self.cols..(i + 1) * self.cols];
            let im_row = &self.im[i * self.cols..(i + 1) * self.cols];
            let mut acc_re = 0.0f64;
            let mut acc_im = 0.0f64;
            for (j, xv) in xs.iter().enumerate() {
                let ar = re_row[j];
                let ai = im_row[j];
                // (ar + i·ai)(xr + i·xi), expanded exactly as Complex64's
                // Mul, then accumulated exactly as its AddAssign.
                acc_re += ar * xv.re - ai * xv.im;
                acc_im += ar * xv.im + ai * xv.re;
            }
            out[i] = c64(acc_re, acc_im);
        }
    }
}

impl std::fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?}  ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::matmul;

    const TOL: f64 = 1e-12;

    fn sample() -> CMatrix {
        CMatrix::from_vec(
            2,
            3,
            vec![
                c64(1.0, 0.0),
                c64(0.0, 1.0),
                c64(2.0, -1.0),
                c64(-1.0, 0.5),
                c64(3.0, 0.0),
                c64(0.0, 0.0),
            ],
        )
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = sample();
        let i2 = CMatrix::identity(2);
        let i3 = CMatrix::identity(3);
        assert!(matmul(&i2, &a).approx_eq(&a, TOL));
        assert!(matmul(&a, &i3).approx_eq(&a, TOL));
    }

    #[test]
    fn matmul_known_product() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = CMatrix::from_reals(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert!(c.approx_eq(&CMatrix::from_reals(2, 2, &[19.0, 22.0, 43.0, 50.0]), TOL));
    }

    #[test]
    fn hermitian_reverses_products() {
        let a = sample(); // 2x3
        let b = CMatrix::from_vec(
            3,
            2,
            vec![
                c64(1.0, 1.0),
                c64(0.0, 0.0),
                c64(2.0, 0.0),
                c64(0.0, -1.0),
                c64(1.0, 0.0),
                c64(1.0, 1.0),
            ],
        );
        // (AB)^H = B^H A^H
        let lhs = matmul(&a, &b).hermitian();
        let rhs = matmul(&b.hermitian(), &a.hermitian());
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = sample();
        let x = CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(-1.0, 2.0)]);
        let as_mat = CMatrix::from_cols(std::slice::from_ref(&x));
        let prod = matmul(&a, &as_mat);
        let v = a.mul_vec(&x);
        for i in 0..2 {
            assert!(prod.get(i, 0).approx_eq(v[i], TOL));
        }
    }

    #[test]
    fn row_col_round_trip() {
        let a = sample();
        let rows: Vec<CVector> = (0..2).map(|i| a.row(i)).collect();
        assert!(CMatrix::from_rows(&rows).approx_eq(&a, TOL));
        let cols: Vec<CVector> = (0..3).map(|j| a.col(j)).collect();
        assert!(CMatrix::from_cols(&cols).approx_eq(&a, TOL));
    }

    #[test]
    fn from_cols_matches_from_rows_transposed() {
        let r0 = CVector::from_reals(&[1.0, 2.0]);
        let r1 = CVector::from_reals(&[3.0, 4.0]);
        let m = CMatrix::from_rows(&[r0.clone(), r1.clone()]);
        let t = CMatrix::from_cols(&[r0, r1]);
        assert!(m.hermitian().conj().approx_eq(&t, TOL));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = CMatrix::from_reals(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < TOL);
    }

    #[test]
    fn max_abs_is_the_largest_entry_magnitude() {
        let a = CMatrix::from_vec(1, 3, vec![c64(3.0, 4.0), c64(-6.0, 0.0), c64(0.0, -5.5)]);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(CMatrix::zeros(2, 0).max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
