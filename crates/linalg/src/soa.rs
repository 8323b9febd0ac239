//! The kernel set built on split-storage [`CMatrix`].
//!
//! **One implementation per kernel.** Matrix products, rank,
//! pseudo-inverse and null space exist only here (`mul_into`,
//! `row_echelon_into`, [`pinv_into`], [`null_space_into`]), together
//! with [`CMatrix::mul_vec_into`] on the type itself; the allocating
//! `rank`, `pinv`, `mul_vec` and [`Subspace::complement`] are thin
//! wrappers that call these with a fresh workspace. [`pinv_into`] is
//! instantiated per column count up to eight on stack arrays, all from
//! one source.
//!
//! The products replay the operation order of plain complex arithmetic
//! on row-major entries: the complex-multiply expansion
//! `(ar·br − ai·bi, ar·bi + ai·br)`, accumulation in ascending index
//! order, and [`mul_into`]'s zero-skip on an exactly zero left entry. No
//! operations are fused or re-associated — the speed comes from layout
//! and allocation discipline, not from changed arithmetic — so results
//! are the ones the goldens captured before storage was split. The kernel
//! digest suite and the simulation-level golden suites pin them end to
//! end.
//!
//! [`Subspace::complement`]: crate::Subspace::complement

use crate::complex::Complex64;
use crate::matrix::CMatrix;
use crate::qr::orthonormalize_into;
use crate::solve::LinalgError;
use crate::vector::CVector;

/// `out = a * b` in `i-k-j` order, skipping a left operand entry `(i, k)`
/// that is exactly zero (`re == 0.0 && im == 0.0`, the comparison
/// `a == Complex64::ZERO` makes).
pub fn mul_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix) {
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

/// Allocating [`mul_into`], for tests.
#[cfg(test)]
pub(crate) fn matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::default();
    mul_into(a, b, &mut out);
    out
}

/// Rank tolerance `eps * max(rows, cols) * max|a|`, with the
/// `hypot`-based [`CMatrix::max_abs`].
pub(crate) fn soa_default_tolerance(a: &CMatrix) -> f64 {
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
pub(crate) fn row_echelon_into(a: &CMatrix, tol: f64, out: &mut CMatrix) -> usize {
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
    pub out: CMatrix,
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
pub fn pinv_into(a: &CMatrix, ws: &mut PinvWorkspace) -> Result<(), LinalgError> {
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
fn pinv_fixed<const N: usize>(a: &CMatrix, out: &mut CMatrix) -> Result<(), LinalgError> {
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
    a: &CMatrix,
    n: usize,
    gram: &mut [Complex64],
    inv: &mut [Complex64],
    out: &mut CMatrix,
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
    ech: CMatrix,
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
    a: &CMatrix,
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
    use crate::complex::c64;

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

    fn assert_bitwise_eq(a: &CMatrix, b: &CMatrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let (x, y) = (a.get(i, j), b.get(i, j));
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{what}: entry ({i},{j}) differs: {x:?} vs {y:?}"
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
                        a.set(i, cols - 1, a.get(i, 0).scale(2.0));
                    }
                }
                let fixed = pinv_into(&a, &mut ws).map(|()| ws.out.clone());
                let mut gram = vec![Complex64::ZERO; cols * cols];
                let mut inv = vec![Complex64::ZERO; cols * cols];
                let mut out = CMatrix::default();
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
        let big = gen_matrix(3, 6, &mut seed);
        let small = gen_matrix(1, 3, &mut seed);
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

    /// A product into an output left over from a larger product is the
    /// fresh-output product bit for bit: the pooled kernels reshape and
    /// zero what they write into.
    #[test]
    fn pooled_products_ignore_stale_output() {
        let mut seed = 0x5EED_0002u64;
        let (mut stale, mut stale_v) = (CMatrix::default(), CVector::default());
        mul_into(
            &gen_matrix(4, 4, &mut seed),
            &gen_matrix(4, 5, &mut seed),
            &mut stale,
        );
        gen_matrix(5, 5, &mut seed).mul_vec_into(&gen_matrix(5, 1, &mut seed).col(0), &mut stale_v);
        for (r, k, c) in [(2usize, 3usize, 4usize), (1, 5, 2), (3, 1, 3)] {
            let a = gen_matrix(r, k, &mut seed);
            let b = gen_matrix(k, c, &mut seed);
            mul_into(&a, &b, &mut stale);
            assert_bitwise_eq(&stale, &matmul(&a, &b), "matmul");
            let x = b.col(0);
            a.mul_vec_into(&x, &mut stale_v);
            assert_vec_bitwise_eq(&stale_v, &a.mul_vec(&x), "mul_vec");
        }
    }

    /// Appending rows is `from_vec` of the stacked row-major entries.
    #[test]
    fn append_rows_matches_vstack() {
        let mut seed = 0x5EED_000Au64;
        let a = gen_matrix(2, 3, &mut seed);
        let b = gen_matrix(3, 3, &mut seed);
        let mut s = CMatrix::default();
        s.reset(0, 3);
        s.append_rows(&a);
        s.append_rows(&b);
        let entries: Vec<Complex64> = [a.row(0), a.row(1), b.row(0), b.row(1), b.row(2)]
            .iter()
            .flat_map(|r| r.iter().copied())
            .collect();
        let stacked = CMatrix::from_vec(5, 3, entries);
        assert_bitwise_eq(&s, &stacked, "stacked rows");
        // Empty other is a no-op.
        s.append_rows(&CMatrix::zeros(0, 3));
        assert_eq!(s.rows(), 5);
    }
}
