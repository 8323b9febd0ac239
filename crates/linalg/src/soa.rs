//! Structure-of-arrays complex matrices and the kernel set built on them.
//!
//! [`CMatrixSoA`] stores the real and imaginary parts of a row-major
//! complex matrix in two separate `f64` arrays. Split storage keeps each
//! part contiguous, so the hot kernels (matrix–vector products, matmul
//! row updates, Gaussian elimination row operations) compile to straight
//! slice loops over `f64` that the auto-vectorizer handles well, and the
//! layout is FMA-friendly: each partial product is a chain of independent
//! mul/adds on separate lanes rather than interleaved re/im pairs.
//!
//! **One implementation per kernel.** Rank, pseudo-inverse and null space
//! exist only here (`row_echelon_into`, [`pinv_into`],
//! [`null_space_into`]); the allocating `rank`, `pinv` and `null_space`
//! are thin wrappers that convert with [`CMatrixSoA::from_aos`] and call
//! these with a fresh workspace. [`pinv_into`] is instantiated per column
//! count up to eight on stack arrays, all from one source. The products
//! ([`mul_into`], [`CMatrixSoA::mul_vec_into`]) execute the *exact
//! same floating-point operation sequence* as the `CMatrix` arithmetic the
//! sample-level PHY uses: the same complex-multiply expansion
//! `(ar·br − ai·bi, ar·bi + ai·br)`, the same accumulation order and the
//! same zero-skip tests. No operations are fused or re-associated — the
//! speedup comes from layout and allocation discipline, not from changed
//! arithmetic. The tests at the bottom pin the products with `to_bits`
//! comparisons; the kernel digest suite and the simulation-level golden
//! suites pin the rest end to end.

use crate::complex::{c64, Complex64};
use crate::matrix::CMatrix;
use crate::qr::orthonormalize_into;
use crate::solve::LinalgError;
use crate::vector::CVector;

/// A dense complex matrix in split (structure-of-arrays) storage.
///
/// Entries are row-major, with real parts in one contiguous array and
/// imaginary parts in another. See the module docs for the bit-identity
/// contract with [`CMatrix`].
#[derive(Clone, Default, PartialEq)]
pub struct CMatrixSoA {
    rows: usize,
    cols: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl CMatrixSoA {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrixSoA {
            rows,
            cols,
            re: vec![0.0; rows * cols],
            im: vec![0.0; rows * cols],
        }
    }

    /// Converts from interleaved storage. The conversion is a pure value
    /// copy — every entry keeps its exact bit pattern.
    pub fn from_aos(a: &CMatrix) -> Self {
        let mut m = CMatrixSoA {
            rows: a.rows(),
            cols: a.cols(),
            re: Vec::with_capacity(a.rows() * a.cols()),
            im: Vec::with_capacity(a.rows() * a.cols()),
        };
        for z in a.as_slice() {
            m.re.push(z.re);
            m.im.push(z.im);
        }
        m
    }

    /// Converts to interleaved storage (exact value copy).
    pub fn to_aos(&self) -> CMatrix {
        CMatrix::from_vec(
            self.rows,
            self.cols,
            self.re
                .iter()
                .zip(&self.im)
                .map(|(&r, &i)| c64(r, i))
                .collect(),
        )
    }

    /// Creates a matrix whose columns are the given vectors.
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

    /// True for a matrix with no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
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
    pub fn row_re(&self, i: usize) -> &[f64] {
        &self.re[i * self.cols..(i + 1) * self.cols]
    }

    /// Imaginary parts of row `i` as a contiguous slice (borrowed view —
    /// no copy).
    #[inline]
    pub fn row_im(&self, i: usize) -> &[f64] {
        &self.im[i * self.cols..(i + 1) * self.cols]
    }

    /// Extracts column `j` as an owned vector (cold-path helper).
    pub fn col(&self, j: usize) -> CVector {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
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
    /// sibling of `clone()`.
    pub fn assign_from(&mut self, src: &CMatrixSoA) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.re.clear();
        self.re.extend_from_slice(&src.re);
        self.im.clear();
        self.im.extend_from_slice(&src.im);
    }

    /// Appends the rows of `other` below `self` (in-place row concatenation).
    /// An empty `self` (zero rows) adopts `other`'s column count.
    pub fn append_rows(&mut self, other: &CMatrixSoA) {
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
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.re.swap(a * self.cols + j, b * self.cols + j);
            self.im.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Matrix–vector product `A x` into a pooled output vector.
    ///
    /// Same accumulation order as [`CMatrix::mul_vec`] (ascending `j`
    /// per row), decomposed onto split accumulators — bit-identical.
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
            let re_row = self.row_re(i);
            let im_row = self.row_im(i);
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

    /// Allocating convenience wrapper over [`CMatrixSoA::mul_vec_into`].
    pub fn mul_vec(&self, x: &CVector) -> CVector {
        let mut out = CVector::default();
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Scales every entry by a real factor (same per-entry arithmetic as
    /// [`CMatrix::scale_re`]).
    pub fn scale_re(&self, k: f64) -> CMatrixSoA {
        CMatrixSoA {
            rows: self.rows,
            cols: self.cols,
            re: self.re.iter().map(|&r| r * k).collect(),
            im: self.im.iter().map(|&i| i * k).collect(),
        }
    }

    /// Frobenius norm — row-major `norm_sqr` sum then square root,
    /// matching [`CMatrix::frobenius_norm`]'s fold order exactly.
    pub fn frobenius_norm(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r * r + i * i)
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude — row-major `hypot` fold from `0.0`,
    /// matching [`CMatrix::max_abs`] exactly.
    pub fn max_abs(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r.hypot(i))
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for CMatrixSoA {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CMatrixSoA {}x{} [", self.rows, self.cols)?;
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

/// `out = a * b` with the exact loop structure of `&CMatrix * &CMatrix`:
/// `i-k-j` order with the zero-skip on the left operand's `(i, k)` entry
/// (the test `re == 0.0 && im == 0.0` is the same comparison as
/// `a == Complex64::ZERO`). Bit-identical to the interleaved product.
pub fn mul_into(a: &CMatrixSoA, b: &CMatrixSoA, out: &mut CMatrixSoA) {
    assert_eq!(
        a.cols, b.rows,
        "matmul: {}x{} times {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    out.reset(a.rows, b.cols);
    let bc = b.cols;
    for i in 0..a.rows {
        for k in 0..a.cols {
            let ar = a.re[i * a.cols + k];
            let ai = a.im[i * a.cols + k];
            if ar == 0.0 && ai == 0.0 {
                continue;
            }
            let br = &b.re[k * bc..(k + 1) * bc];
            let bi = &b.im[k * bc..(k + 1) * bc];
            let or = &mut out.re[i * bc..(i + 1) * bc];
            let oi = &mut out.im[i * bc..(i + 1) * bc];
            for j in 0..bc {
                // out[(i,j)] += a[(i,k)] * b[(k,j)], expanded exactly.
                or[j] += ar * br[j] - ai * bi[j];
                oi[j] += ar * bi[j] + ai * br[j];
            }
        }
    }
}

/// Rank tolerance `eps * max(rows, cols) * max|a|`, with the
/// `hypot`-based [`CMatrixSoA::max_abs`].
pub fn soa_default_tolerance(a: &CMatrixSoA) -> f64 {
    tolerance(a.max_abs(), a.rows().max(a.cols()))
}

/// `eps * dim * scale`, floored away from zero.
fn tolerance(scale: f64, dim: usize) -> f64 {
    (f64::EPSILON * dim as f64 * scale).max(1e-300)
}

/// Reduces `a` to row echelon form into the pooled `out`, returning the
/// rank. Pivot rows come first, each normalized to a leading one (the
/// backbone of the null-space computation). Pivots are the largest
/// `hypot` magnitude in their column (first wins on ties); entries at or
/// below `tol` are zeroed.
pub fn row_echelon_into(a: &CMatrixSoA, tol: f64, out: &mut CMatrixSoA) -> usize {
    out.assign_from(a);
    let rows = out.rows();
    let cols = out.cols();
    let mut pivot_row = 0usize;
    for col in 0..cols {
        if pivot_row >= rows {
            break;
        }
        let mut best = pivot_row;
        let mut best_mag = out.get(pivot_row, col).abs();
        for i in (pivot_row + 1)..rows {
            let mag = out.get(i, col).abs();
            if mag > best_mag {
                best_mag = mag;
                best = i;
            }
        }
        if best_mag <= tol {
            for i in pivot_row..rows {
                out.set(i, col, Complex64::ZERO);
            }
            continue;
        }
        out.swap_rows(pivot_row, best);
        let pinv = out.get(pivot_row, col).inv();
        for j in col..cols {
            let v = out.get(pivot_row, j) * pinv;
            out.set(pivot_row, j, v);
        }
        for i in 0..rows {
            if i == pivot_row {
                continue;
            }
            let factor = out.get(i, col);
            if factor.abs() <= tol {
                out.set(i, col, Complex64::ZERO);
                continue;
            }
            for j in col..cols {
                let sub = factor * out.get(pivot_row, j);
                out.set(i, j, out.get(i, j) - sub);
            }
            out.set(i, col, Complex64::ZERO);
        }
        pivot_row += 1;
    }
    pivot_row
}

/// Reusable buffers for [`pinv_into`]. One per thread/engine; every
/// call reuses the high-water allocations.
#[derive(Debug, Clone, Default)]
pub struct PinvWorkspace {
    /// Left and right halves of the augmented elimination `[A^H A | I]`
    /// for shapes past the stack-resident ones.
    gram: Vec<Complex64>,
    inv: Vec<Complex64>,
    /// The pseudo-inverse `(A^H A)^{-1} A^H` after a successful
    /// [`pinv_into`] call.
    pub out: CMatrixSoA,
}

/// Moore–Penrose style pseudo-inverse `(A^H A)^{-1} A^H` into `ws.out`:
/// Gram matrix via the zero-skipping product, inversion by augmented
/// Gaussian elimination against the identity (partial pivoting), then
/// the final product.
///
/// Up to eight columns (every receive-space size a scenario node can
/// have) the Gram matrix and its inverse live in fixed-size stack
/// arrays, one instantiation per column count; wider operands take the
/// same arithmetic on `ws`'s heap buffers. Both run one source, so the
/// result does not depend on the path.
///
/// # Errors
/// [`LinalgError::Singular`] when a pivot magnitude falls below the
/// Gram matrix's default tolerance.
pub fn pinv_into(a: &CMatrixSoA, ws: &mut PinvWorkspace) -> Result<(), LinalgError> {
    let out = &mut ws.out;
    match a.cols() {
        1 => pinv_fixed::<1>(a, out),
        2 => pinv_fixed::<2>(a, out),
        3 => pinv_fixed::<3>(a, out),
        4 => pinv_fixed::<4>(a, out),
        5 => pinv_fixed::<5>(a, out),
        6 => pinv_fixed::<6>(a, out),
        7 => pinv_fixed::<7>(a, out),
        8 => pinv_fixed::<8>(a, out),
        n => {
            ws.gram.clear();
            ws.gram.resize(n * n, Complex64::ZERO);
            ws.inv.clear();
            ws.inv.resize(n * n, Complex64::ZERO);
            pinv_core(a, n, &mut ws.gram, &mut ws.inv, out)
        }
    }
}

/// [`pinv_core`] on stack arrays for an `N`-column operand.
fn pinv_fixed<const N: usize>(a: &CMatrixSoA, out: &mut CMatrixSoA) -> Result<(), LinalgError> {
    let mut gram = [[Complex64::ZERO; N]; N];
    let mut inv = [[Complex64::ZERO; N]; N];
    pinv_core(a, N, gram.as_flattened_mut(), inv.as_flattened_mut(), out)
}

/// The pseudo-inverse arithmetic of [`pinv_into`] for an `n`-column
/// `a`, with the augmented matrix `[gram | inv]` in two zeroed row-major
/// `n × n` slices. Always inlined, so each fixed-shape caller compiles
/// it with `n` a constant.
///
/// The operation sequence is that of the plain composition: `A^H`,
/// `mul_into(A^H, A)`, elimination of `[A^H A | I]` over columns
/// `k..2n`, then `mul_into(inv, A^H)`. `A^H` is read straight out of `a`
/// (`conj` is a sign flip, exact); the elimination visits the two halves
/// of each row separately, which changes no entry's own sequence of
/// operations; and the first column's pivot magnitudes are the ones the
/// tolerance fold already computed, not recomputed.
#[inline(always)]
fn pinv_core(
    a: &CMatrixSoA,
    n: usize,
    gram: &mut [Complex64],
    inv: &mut [Complex64],
    out: &mut CMatrixSoA,
) -> Result<(), LinalgError> {
    let m = a.rows();
    let (are, aim) = (&a.re[..m * n], &a.im[..m * n]);
    let (gram, inv) = (&mut gram[..n * n], &mut inv[..n * n]);

    // gram = A^H A, i-k-j with the zero-skip on A^H's (i, k) entry.
    for i in 0..n {
        let grow = &mut gram[i * n..(i + 1) * n];
        for k in 0..m {
            let ar = are[k * n + i];
            let ai = -aim[k * n + i];
            if ar == 0.0 && ai == 0.0 {
                continue;
            }
            let br = &are[k * n..(k + 1) * n];
            let bi = &aim[k * n..(k + 1) * n];
            for j in 0..n {
                grow[j].re += ar * br[j] - ai * bi[j];
                grow[j].im += ar * bi[j] + ai * br[j];
            }
        }
    }
    // The tolerance's row-major magnitude fold also runs the first
    // column's pivot search, which would otherwise recompute the same
    // magnitudes.
    let mut scale = 0.0;
    let mut first_pivot = (0, 0.0);
    for (idx, z) in gram.iter().enumerate() {
        let mag = z.abs();
        scale = f64::max(scale, mag);
        if idx % n == 0 && (idx == 0 || mag > first_pivot.1) {
            first_pivot = (idx / n, mag);
        }
    }
    let tol = tolerance(scale, n);

    for i in 0..n {
        inv[i * n + i] = Complex64::ONE;
    }
    for k in 0..n {
        let (pivot_row, pivot_mag) = if k == 0 {
            first_pivot
        } else {
            let mut best = (k, gram[k * n + k].abs());
            for i in (k + 1)..n {
                let mag = gram[i * n + k].abs();
                if mag > best.1 {
                    best = (i, mag);
                }
            }
            best
        };
        if pivot_mag <= tol {
            return Err(LinalgError::Singular);
        }
        if pivot_row != k {
            for j in 0..n {
                gram.swap(k * n + j, pivot_row * n + j);
                inv.swap(k * n + j, pivot_row * n + j);
            }
        }
        let pinv = gram[k * n + k].inv();
        for j in k..n {
            gram[k * n + j] *= pinv;
        }
        for j in 0..n {
            inv[k * n + j] *= pinv;
        }
        for i in 0..n {
            if i == k {
                continue;
            }
            let factor = gram[i * n + k];
            if factor == Complex64::ZERO {
                continue;
            }
            for j in k..n {
                let sub = factor * gram[k * n + j];
                gram[i * n + j] -= sub;
            }
            for j in 0..n {
                let sub = factor * inv[k * n + j];
                inv[i * n + j] -= sub;
            }
        }
    }

    // out = inv · A^H, i-k-j with the zero-skip on inv's (i, k) entry.
    out.reset(n, m);
    for i in 0..n {
        let or = &mut out.re[i * m..(i + 1) * m];
        let oi = &mut out.im[i * m..(i + 1) * m];
        for k in 0..n {
            let ar = inv[i * n + k].re;
            let ai = inv[i * n + k].im;
            if ar == 0.0 && ai == 0.0 {
                continue;
            }
            for j in 0..m {
                let br = are[j * n + k];
                let bi = -aim[j * n + k];
                or[j] += ar * br - ai * bi;
                oi[j] += ar * bi + ai * br;
            }
        }
    }
    Ok(())
}

/// Reusable buffers for [`null_space_into`].
#[derive(Debug, Clone, Default)]
pub struct NullspaceWorkspace {
    ech: CMatrixSoA,
    pivot_cols: Vec<usize>,
    is_pivot: Vec<bool>,
    cand: Vec<CVector>,
    w: CVector,
}

fn assign_units(n: usize, basis: &mut Vec<CVector>) -> usize {
    for i in 0..n {
        if i == basis.len() {
            basis.push(CVector::default());
        }
        basis[i].assign_zeros(n);
        basis[i][i] = Complex64::ONE;
    }
    n
}

/// Orthonormal null-space basis of `a` into reusable slots of `basis`
/// (same slot semantics as `qr::orthonormalize_into`); returns the
/// dimension `a.cols() - rank(a)`. Echelon reduction, then one candidate
/// per free column (free variable 1, pivots back-substituted), then a
/// Gram–Schmidt pass. A matrix with no rows or rank 0 yields the
/// standard basis.
pub fn null_space_into(
    a: &CMatrixSoA,
    ws: &mut NullspaceWorkspace,
    basis: &mut Vec<CVector>,
) -> usize {
    let n = a.cols();
    if a.rows() == 0 || n == 0 {
        return assign_units(n, basis);
    }
    let tol = soa_default_tolerance(a);
    let rank = row_echelon_into(a, tol, &mut ws.ech);
    if rank == 0 {
        return assign_units(n, basis);
    }

    ws.pivot_cols.clear();
    for i in 0..rank {
        let mut j = if let Some(&last) = ws.pivot_cols.last() {
            last + 1
        } else {
            0
        };
        while j < n && ws.ech.get(i, j).abs() <= tol {
            j += 1;
        }
        debug_assert!(j < n, "pivot row without pivot column");
        ws.pivot_cols.push(j);
    }
    ws.is_pivot.clear();
    ws.is_pivot.resize(n, false);
    for &j in &ws.pivot_cols {
        ws.is_pivot[j] = true;
    }

    let mut n_cand = 0usize;
    for free in 0..n {
        if ws.is_pivot[free] {
            continue;
        }
        if n_cand == ws.cand.len() {
            ws.cand.push(CVector::default());
        }
        let v = &mut ws.cand[n_cand];
        v.assign_zeros(n);
        v[free] = Complex64::ONE;
        for (row, &pc) in ws.pivot_cols.iter().enumerate() {
            v[pc] = -ws.ech.get(row, free);
        }
        n_cand += 1;
    }

    let dim = orthonormalize_into(&ws.cand[..n_cand], tol, basis, &mut ws.w);
    debug_assert_eq!(dim, n - rank, "null space dimension mismatch");
    dim
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random matrix with some exact zeros (to
    /// exercise the zero-skip branches).
    fn gen_matrix(rows: usize, cols: usize, seed: &mut u64) -> CMatrix {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        let data: Vec<Complex64> = (0..rows * cols)
            .map(|_| {
                let r = next();
                if r % 7 == 0 {
                    Complex64::ZERO
                } else {
                    c64(
                        (r % 1000) as f64 / 500.0 - 1.0,
                        (next() % 1000) as f64 / 500.0 - 1.0,
                    )
                }
            })
            .collect();
        CMatrix::from_vec(rows, cols, data)
    }

    fn assert_bitwise_eq(soa: &CMatrixSoA, aos: &CMatrix, what: &str) {
        assert_eq!(soa.shape(), aos.shape(), "{what}: shape");
        for i in 0..aos.rows() {
            for j in 0..aos.cols() {
                let a = soa.get(i, j);
                let b = aos[(i, j)];
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "{what}: entry ({i},{j}) differs: {a:?} vs {b:?}"
                );
            }
        }
    }

    fn assert_vec_bitwise_eq(a: &CVector, b: &CVector, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert!(
                a[i].re.to_bits() == b[i].re.to_bits() && a[i].im.to_bits() == b[i].im.to_bits(),
                "{what}: entry {i} differs"
            );
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let mut seed = 0x5EED_0001u64;
        let a = gen_matrix(3, 5, &mut seed);
        let s = CMatrixSoA::from_aos(&a);
        assert_bitwise_eq(&s, &a, "from_aos");
        let back = s.to_aos();
        for (x, y) in a.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn matmul_is_bit_identical() {
        let mut seed = 0x5EED_0002u64;
        for (r, k, c) in [(2usize, 3usize, 4usize), (4, 4, 4), (1, 5, 2), (3, 1, 3)] {
            let a = gen_matrix(r, k, &mut seed);
            let b = gen_matrix(k, c, &mut seed);
            let expect = &a * &b;
            let mut out = CMatrixSoA::default();
            mul_into(
                &CMatrixSoA::from_aos(&a),
                &CMatrixSoA::from_aos(&b),
                &mut out,
            );
            assert_bitwise_eq(&out, &expect, "matmul");
        }
    }

    #[test]
    fn mul_vec_is_bit_identical() {
        let mut seed = 0x5EED_0003u64;
        for (r, c) in [(2usize, 3usize), (4, 4), (1, 6), (5, 2)] {
            let a = gen_matrix(r, c, &mut seed);
            let x: CVector = gen_matrix(c, 1, &mut seed).col(0);
            let expect = a.mul_vec(&x);
            let mut out = CVector::default();
            CMatrixSoA::from_aos(&a).mul_vec_into(&x, &mut out);
            assert_vec_bitwise_eq(&out, &expect, "mul_vec");
        }
    }

    #[test]
    fn norms_are_bit_identical() {
        let mut seed = 0x5EED_0004u64;
        let a = gen_matrix(3, 4, &mut seed);
        let s = CMatrixSoA::from_aos(&a);
        assert_eq!(s.max_abs().to_bits(), a.max_abs().to_bits(), "max_abs");
        assert_eq!(
            s.frobenius_norm().to_bits(),
            a.frobenius_norm().to_bits(),
            "frobenius"
        );
    }

    /// Every stack-resident instantiation is the heap path bit for bit,
    /// on tall, square and rank-deficient operands.
    #[test]
    fn fixed_shape_pinv_matches_the_heap_path() {
        let mut seed = 0x5EED_000Bu64;
        let mut ws = PinvWorkspace::default();
        let mut singular = 0;
        for cols in 1..=8 {
            for rows in [cols, cols + 2] {
                let mut a = gen_matrix(rows, cols, &mut seed);
                if rows == cols {
                    for i in 0..rows {
                        a[(i, cols - 1)] = a[(i, 0)].scale(2.0);
                    }
                }
                let a = CMatrixSoA::from_aos(&a);
                let fixed = pinv_into(&a, &mut ws).map(|()| ws.out.to_aos());
                let mut gram = vec![Complex64::ZERO; cols * cols];
                let mut inv = vec![Complex64::ZERO; cols * cols];
                let mut out = CMatrixSoA::default();
                let heap = pinv_core(&a, cols, &mut gram, &mut inv, &mut out);
                match (fixed, heap) {
                    (Ok(p), Ok(())) => assert_bitwise_eq(&out, &p, "pinv"),
                    (Err(e), Err(f)) => {
                        assert_eq!(e, f);
                        singular += 1;
                    }
                    (p, q) => panic!("{rows}x{cols}: fixed {p:?}, heap {q:?}"),
                }
            }
        }
        assert!(singular > 0);
    }

    #[test]
    fn null_space_pool_reuse_is_stable() {
        // Re-running on a smaller matrix after the pools are warm must
        // give the fresh-workspace answer (stale slot contents must not
        // leak in).
        let mut seed = 0x5EED_0008u64;
        let big = CMatrixSoA::from_aos(&gen_matrix(3, 6, &mut seed));
        let small = CMatrixSoA::from_aos(&gen_matrix(1, 3, &mut seed));
        let mut expect = Vec::new();
        let dim_expect = null_space_into(&small, &mut NullspaceWorkspace::default(), &mut expect);
        let mut ws = NullspaceWorkspace::default();
        let mut basis = Vec::new();
        let dim_big = null_space_into(&big, &mut ws, &mut basis);
        assert!(dim_big >= 3);
        let dim = null_space_into(&small, &mut ws, &mut basis);
        assert_eq!(dim, dim_expect);
        for (got, want) in basis[..dim].iter().zip(&expect) {
            assert_vec_bitwise_eq(got, want, "reused-pool basis vector");
        }
    }

    #[test]
    fn append_rows_matches_vstack() {
        let mut seed = 0x5EED_000Au64;
        let a = gen_matrix(2, 3, &mut seed);
        let b = gen_matrix(3, 3, &mut seed);
        let mut s = CMatrixSoA::default();
        s.reset(0, 3);
        s.append_rows(&CMatrixSoA::from_aos(&a));
        s.append_rows(&CMatrixSoA::from_aos(&b));
        let stacked = CMatrix::from_vec(5, 3, [a.as_slice(), b.as_slice()].concat());
        assert_bitwise_eq(&s, &stacked, "stacked rows");
        // Empty other is a no-op.
        s.append_rows(&CMatrixSoA::zeros(0, 3));
        assert_eq!(s.rows(), 5);
    }
}
