//! Dense complex matrices.
//!
//! [`CMatrix`] stores entries in row-major order. Channel matrices in the
//! paper are small (at most a handful of antennas per node), so the
//! implementation favours clarity and robustness over blocking/SIMD — the
//! same trade-off smoltcp makes for its data path.

use crate::complex::Complex64;
use crate::vector::CVector;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense complex matrix (row-major).
#[derive(Clone, PartialEq, Default)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
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
        CMatrix { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given vectors (all must share a
    /// dimension).
    #[cfg(test)]
    pub fn from_rows(rows: &[CVector]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged row lengths");
            data.extend_from_slice(r.as_slice());
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
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
                m[(i, j)] = c[i];
            }
        }
        m
    }

    /// Creates a matrix from real entries in row-major order.
    #[cfg(test)]
    pub fn from_reals(rows: usize, cols: usize, re: &[f64]) -> Self {
        Self::from_vec(
            rows,
            cols,
            re.iter().map(|&r| Complex64::new(r, 0.0)).collect(),
        )
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

    /// True for a 0×0 matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable access to the raw row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Extracts row `i` as a vector.
    pub fn row(&self, i: usize) -> CVector {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        CVector::from_vec(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// Extracts column `j` as a vector.
    pub fn col(&self, j: usize) -> CVector {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Hermitian (conjugate) transpose, written `A^H` in the paper.
    // nplus:allow(VIS001): the golden tests/kernel_regression.rs and other crates' unit tests take conjugate transposes with it
    pub fn hermitian(&self) -> CMatrix {
        let mut t = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)].conj();
            }
        }
        t
    }

    /// Entry-wise conjugate (no transpose).
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix–vector product `A x`.
    pub fn mul_vec(&self, x: &CVector) -> CVector {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec: {}x{} matrix times {}-vector",
            self.rows,
            self.cols,
            x.len()
        );
        let mut out = CVector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = Complex64::ZERO;
            let base = i * self.cols;
            for (j, xv) in x.as_slice().iter().enumerate() {
                acc += self.data[base + j] * *xv;
            }
            out[i] = acc;
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Frobenius norm (square root of total entry power).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Approximate equality within absolute tolerance on every entry.
    // nplus:allow(VIS001): the test kit's assert macros and other crates' unit tests compare through it
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns the columns as a list of vectors.
    #[cfg(test)]
    pub fn columns(&self) -> Vec<CVector> {
        (0..self.cols).map(|j| self.col(j)).collect()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;

    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} times {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| -z).collect(),
        }
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?}  ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

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
        assert!((&i2 * &a).approx_eq(&a, TOL));
        assert!((&a * &i3).approx_eq(&a, TOL));
    }

    #[test]
    fn matmul_known_product() {
        let a = CMatrix::from_reals(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = CMatrix::from_reals(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = &a * &b;
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
        let lhs = (&a * &b).hermitian();
        let rhs = &b.hermitian() * &a.hermitian();
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = sample();
        let x = CVector::from_vec(vec![c64(1.0, 0.0), c64(0.0, 1.0), c64(-1.0, 2.0)]);
        let as_mat = CMatrix::from_cols(std::slice::from_ref(&x));
        let prod = &a * &as_mat;
        let v = a.mul_vec(&x);
        for i in 0..2 {
            assert!(prod[(i, 0)].approx_eq(v[i], TOL));
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
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
