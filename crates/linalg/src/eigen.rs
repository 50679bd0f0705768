//! Symmetric eigendecomposition: Householder tridiagonalisation followed
//! by the implicit-shift QL iteration (the classic EISPACK `tred2`/`tql2`
//! pair). This is the numerical engine behind the Galerkin eigenproblem of
//! the paper (eq. 15) — the role Matlab's `eig` played for the authors.
//!
//! EISPACK's loops walk columns, which in this row-major storage are
//! `8n` bytes apart. Here every inner loop walks contiguous memory, while
//! every matrix entry still gets the same floating-point operations in
//! the same order, so the eigenvalues and eigenvectors are bit-identical
//! to EISPACK's operation order (the column-walking port is kept in the
//! tests as the oracle):
//!
//! - the reduction forms `p = A·u` in one pass over the rows of the lower
//!   triangle: row `k` first finishes its own prefix dot product with `u`
//!   for `p_k`, then adds its entries × `u_k` into `p_j` for every
//!   `j < k`, so each `p_j` still sums its terms in ascending `k`; four
//!   rows go at a time, their dot products side by side;
//! - the accumulation of the transform `Q` forms every
//!   `g_j = Σ_k u_k·Q[k][j]` of a step in one sweep over the rows `k`
//!   before applying the rank-one update row by row: updating one column
//!   never changes a value read for another column's `g`, so 64 columns
//!   at a time are taken through every step while they sit in cache, and
//!   written back as rows of `Qᵀ`;
//! - QL runs on that `Qᵀ`, so each Givens rotation updates two contiguous
//!   rows instead of two strided columns.

use crate::{LinalgError, Matrix};
use klest_runtime::CancelToken;

/// Maximum QL sweeps per eigenvalue before giving up.
const MAX_QL_ITERATIONS: usize = 64;

/// Eigendecomposition `A = Q Λ Qᵀ` of a real symmetric matrix.
///
/// Eigenvalues are sorted in **descending** order (the paper indexes
/// eigenpairs by decreasing λ) and eigenvectors are the matching columns
/// of [`eigenvectors`](SymmetricEigen::eigenvectors), each of unit
/// Euclidean norm.
///
/// ```
/// use klest_linalg::{Matrix, SymmetricEigen};
/// # fn main() -> Result<(), klest_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[
///     [6.0, 2.0, 0.0].as_slice(),
///     [2.0, 3.0, 0.0].as_slice(),
///     [0.0, 0.0, 1.0].as_slice(),
/// ])?;
/// let eig = SymmetricEigen::new(&a)?;
/// assert!((eig.eigenvalues()[0] - 7.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    values: Vec<f64>,
    /// Column `j` is the eigenvector for `values[j]`.
    vectors: Matrix,
    /// True when the QL iteration failed to converge and the cyclic
    /// Jacobi fallback produced the decomposition instead.
    used_fallback: bool,
}

impl SymmetricEigen {
    /// Computes the full eigendecomposition of symmetric `a`.
    ///
    /// Only symmetry up to rounding is assumed; the strictly lower triangle
    /// is used where the algorithm reads one of the two mirrored entries.
    /// If the implicit-QL iteration exhausts its budget, the slower but
    /// unconditionally convergent cyclic Jacobi solver takes over; check
    /// [`used_fallback`](SymmetricEigen::used_fallback) to observe that
    /// degradation.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes,
    /// - [`LinalgError::NonFinite`] if any entry is NaN or infinite,
    /// - [`LinalgError::NoConvergence`] if both QL and the Jacobi fallback
    ///   exceed their iteration budgets (does not happen for finite
    ///   symmetric input in practice).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::new_scaled(a, None, None)
    }

    /// Like [`new`](SymmetricEigen::new), but polling `token` once per
    /// Householder step, once per 64 columns of the accumulated transform
    /// and once per QL sweep (and per Jacobi sweep on the fallback path)
    /// so a deadline can cancel a long eigensolve cooperatively.
    ///
    /// # Errors
    ///
    /// Everything [`new`](SymmetricEigen::new) reports, plus
    /// [`LinalgError::Cancelled`] when the token trips: at stage
    /// `eigen/tridiagonalize` with `completed` = 0 during the Householder
    /// reduction, at `eigen/ql` with `completed` counting eigenvalues
    /// already converged.
    pub fn new_with_token(a: &Matrix, token: &CancelToken) -> Result<Self, LinalgError> {
        Self::new_scaled(a, Some(token), None)
    }

    /// The Householder/QL solve behind [`new`](SymmetricEigen::new) and
    /// [`DiagonalGep`](crate::DiagonalGep). With `row_scale`, row `i` of
    /// the eigenvector matrix is multiplied by `row_scale[i]` in the pass
    /// that sorts it, so a caller mapping the vectors back through a
    /// diagonal similarity needs no second `n × n` buffer (the columns
    /// are then no longer unit-norm).
    pub(crate) fn new_scaled(
        a: &Matrix,
        token: Option<&CancelToken>,
        row_scale: Option<&[f64]>,
    ) -> Result<Self, LinalgError> {
        Self::decompose(a, row_scale, |a| ql_or_jacobi(a, token))
    }

    /// Computes the eigendecomposition with the cyclic Jacobi solver
    /// directly, bypassing the Householder/QL path entirely.
    ///
    /// This is the degradation engine [`new`](SymmetricEigen::new) falls
    /// back to on QL non-convergence, exposed so differential test
    /// suites can cross-check the two independent algorithms on the same
    /// input (QL-vs-Jacobi equivalence is a standing workspace
    /// property). Results use the same contract as `new`: descending
    /// eigenvalues, unit-norm eigenvector columns.
    ///
    /// # Errors
    ///
    /// Same shape/finiteness errors as [`new`](SymmetricEigen::new), and
    /// [`LinalgError::NoConvergence`] if the Jacobi sweep budget is
    /// exhausted (does not happen for finite symmetric input in
    /// practice).
    pub fn new_jacobi(a: &Matrix) -> Result<Self, LinalgError> {
        Self::decompose(a, None, |a| {
            let (values, vectors) = jacobi_rows(a, None)?;
            Ok((values, vectors, false))
        })
    }

    /// Validates `a`, runs `solver` on it and sorts what it returns
    /// (eigenvalues, the eigenvectors as the *rows* of a matrix, and
    /// whether the fallback ran) into the contract of
    /// [`new`](SymmetricEigen::new).
    fn decompose(
        a: &Matrix,
        row_scale: Option<&[f64]>,
        solver: impl FnOnce(&Matrix) -> Result<(Vec<f64>, Matrix, bool), LinalgError>,
    ) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if !v.is_finite() {
                    return Err(LinalgError::NonFinite { row: i, col: j });
                }
            }
        }
        let (d, mut vectors, used_fallback) = solver(a)?;
        let values = sort_rows_into_columns(&d, &mut vectors, row_scale);
        Ok(SymmetricEigen {
            values,
            vectors,
            used_fallback,
        })
    }

    /// The eigenvalues and the eigenvector matrix, by value.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Matrix) {
        (self.values, self.vectors)
    }

    /// True when the decomposition came from the cyclic Jacobi fallback
    /// after the QL iteration failed to converge.
    pub fn used_fallback(&self) -> bool {
        self.used_fallback
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvector matrix; column `j` pairs with `eigenvalues()[j]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Copy of the `j`-th eigenvector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }

    /// Problem size.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Reconstructs `Q Λ Qᵀ`; mostly for tests and diagnostics.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        let mut scaled = self.vectors.clone();
        for i in 0..n {
            let row = scaled.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v *= self.values[j];
            }
        }
        scaled
            .mul(&self.vectors.transpose())
            .expect("square dimensions agree")
    }
}

/// Householder + QL on a copy of `a`, with the cyclic Jacobi solver on
/// the unmodified `a` as the fallback when QL exhausts its budget.
/// Returns the eigenvalues, the eigenvectors as rows (unsorted) and
/// whether the fallback ran.
fn ql_or_jacobi(
    a: &Matrix,
    token: Option<&CancelToken>,
) -> Result<(Vec<f64>, Matrix, bool), LinalgError> {
    let n = a.rows();
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    {
        let _span = klest_obs::span("tridiagonalize");
        tred2(&mut z, &mut d, &mut e, token)?;
    }
    let _span = klest_obs::span("ql");
    match tql2(&mut d, &mut e, &mut z, token) {
        Ok(()) => Ok((d, z, false)),
        Err(LinalgError::NoConvergence { .. }) => {
            // Degradation path: cyclic Jacobi converges unconditionally
            // for finite symmetric input, at higher cost.
            klest_obs::counter_add("eigen.ql_fallbacks", 1);
            // Free the working copy before Jacobi allocates its own two.
            drop(z);
            let (values, vectors) = jacobi_rows(a, token)?;
            Ok((values, vectors, true))
        }
        Err(other) => Err(other),
    }
}

/// The cyclic Jacobi solve of `a`, with the eigenvectors as rows.
fn jacobi_rows(a: &Matrix, token: Option<&CancelToken>) -> Result<(Vec<f64>, Matrix), LinalgError> {
    let (values, mut vectors) = crate::jacobi::jacobi_eigen(a, token)?;
    transpose_in_place(&mut vectors, None);
    Ok((values, vectors))
}

/// Sorts eigenpairs by descending eigenvalue, in place: `vectors` comes
/// in holding the eigenvector of `d[k]` in row `k` and leaves holding
/// the sorted eigenvectors as columns, row `i` scaled by `row_scale[i]`
/// when given. Returns the sorted eigenvalues.
fn sort_rows_into_columns(d: &[f64], vectors: &mut Matrix, row_scale: Option<&[f64]>) -> Vec<f64> {
    // total_cmp keeps the sort well-defined even if a rogue NaN slips
    // through the solver.
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&i, &j| f64::total_cmp(&d[j], &d[i]));
    permute_rows(vectors, &order);
    transpose_in_place(vectors, row_scale);
    order.iter().map(|&i| d[i]).collect()
}

/// Reorders the rows of `m` in place so that row `r` becomes the old row
/// `order[r]`, following each cycle of the permutation with one spare row.
fn permute_rows(m: &mut Matrix, order: &[usize]) {
    let n = m.cols();
    let a = m.as_mut_slice();
    let mut spare = vec![0.0; n];
    let mut placed = vec![false; order.len()];
    for start in 0..order.len() {
        if placed[start] || order[start] == start {
            continue;
        }
        spare.copy_from_slice(&a[start * n..(start + 1) * n]);
        let mut dst = start;
        loop {
            placed[dst] = true;
            let src = order[dst];
            if src == start {
                a[dst * n..(dst + 1) * n].copy_from_slice(&spare);
                break;
            }
            a.copy_within(src * n..(src + 1) * n, dst * n);
            dst = src;
        }
    }
}

/// Transposes the square `m` in place, one pair of 32 × 32 tiles at a
/// time so both sides of every swap stay in cache. With `row_scale`,
/// row `i` of the result is also multiplied by `row_scale[i]`.
fn transpose_in_place(m: &mut Matrix, row_scale: Option<&[f64]>) {
    const TILE: usize = 32;
    let n = m.rows();
    let a = m.as_mut_slice();
    for ib in (0..n).step_by(TILE) {
        for jb in (ib..n).step_by(TILE) {
            for i in ib..(ib + TILE).min(n) {
                for j in jb.max(i)..(jb + TILE).min(n) {
                    let (upper, lower) = (a[i * n + j], a[j * n + i]);
                    match row_scale {
                        Some(s) => {
                            a[i * n + j] = lower * s[i];
                            a[j * n + i] = upper * s[j];
                        }
                        None => {
                            a[i * n + j] = lower;
                            a[j * n + i] = upper;
                        }
                    }
                }
            }
        }
    }
}

/// Householder reduction of the symmetric matrix stored in `z` to
/// tridiagonal form. On exit `d` holds the diagonal, `e[1..]` the
/// subdiagonal, and `z` the *transpose* of the accumulated orthogonal
/// transform, the layout [`tql2`] takes.
///
/// EISPACK `tred2` (0-based) in row order; see the module docs. Polls
/// `token` (when supplied) once per reduction step and once per
/// accumulation panel; a trip surfaces as [`LinalgError::Cancelled`] at
/// stage `eigen/tridiagonalize` with `completed` = 0.
fn tred2(
    z: &mut Matrix,
    d: &mut [f64],
    e: &mut [f64],
    token: Option<&CancelToken>,
) -> Result<(), LinalgError> {
    let poll = || match token {
        Some(token) => token
            .checkpoint("eigen/tridiagonalize")
            .map_err(|c| LinalgError::Cancelled(c.with_completed(0))),
        None => Ok(()),
    };
    let n = d.len();
    let a = z.as_mut_slice();
    for i in (1..n).rev() {
        poll()?;
        let l = i - 1;
        let (above, below) = a.split_at_mut(i * n);
        // Row i left of the diagonal, scaled into the Householder vector u.
        let u = &mut below[..i];
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = u.iter().map(|v| v.abs()).sum();
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                // e[..i] = A·u, one pass over the rows of the lower triangle.
                let mut k = 0;
                while k + MATVEC_ROWS <= i {
                    lower_matvec_rows::<MATVEC_ROWS>(above, n, u, e, k);
                    k += MATVEC_ROWS;
                }
                for k in k..i {
                    lower_matvec_rows::<1>(above, n, u, e, k);
                }
                let mut f = 0.0;
                for j in 0..i {
                    e[j] /= h;
                    f += e[j] * u[j];
                }
                let hh = f / (h + h);
                for j in 0..i {
                    let f = u[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row = &mut above[j * n..=j * n + j];
                    for ((x, q), v) in row.iter_mut().zip(&e[..=j]).zip(&u[..=j]) {
                        *x -= f * q + g * v;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulation. Column j of the transform Q is the j-th unit vector
    // after step j; every later step i with h_i ≠ 0 updates it as
    // Q[k][j] -= g_j·w_k for k < i, with g_j = Σ_{k<i} u_k·Q[k][j] and
    // w = u / h_i. A column reads only itself and step i's Householder
    // vector, so the columns go through every step a panel at a time,
    // the panel held in cache, and each panel is written back as rows of
    // Qᵀ, the layout QL wants: no later panel reads the Householder
    // vectors in those rows.
    let h = d.to_vec();
    for (i, di) in d.iter_mut().enumerate() {
        *di = a[i * n + i];
    }
    let width = PANEL.min(n);
    let mut panel = vec![0.0; n * width];
    let mut g = [0.0; PANEL];
    for j0 in (0..n).step_by(width) {
        poll()?;
        let b = width.min(n - j0);
        // q[k * b + c] = Q[k][j0 + c].
        let q = &mut panel[..n * b];
        q.fill(0.0);
        for c in 0..b {
            q[(j0 + c) * b + c] = 1.0;
        }
        for i in j0 + 1..n {
            if h[i] == 0.0 {
                continue;
            }
            let u = &a[i * n..i * n + i];
            let cols = b.min(i - j0);
            let g = &mut g[..cols];
            g.fill(0.0);
            for (k, &uk) in u.iter().enumerate() {
                for (gc, x) in g.iter_mut().zip(&q[k * b..k * b + cols]) {
                    *gc += uk * x;
                }
            }
            for (k, &uk) in u.iter().enumerate() {
                let w = uk / h[i];
                for (x, gc) in q[k * b..k * b + cols].iter_mut().zip(g.iter()) {
                    *x -= gc * w;
                }
            }
        }
        for c in 0..b {
            let row = &mut a[(j0 + c) * n..(j0 + c + 1) * n];
            for (x, qk) in row.iter_mut().zip(q.chunks_exact(b)) {
                *x = qk[c];
            }
        }
    }
    Ok(())
}

/// Columns of the transform accumulated together: a panel is
/// `n × PANEL` doubles (784 KB at n = 1 532), small enough for L2.
const PANEL: usize = 64;

/// Rows of the lower triangle one call of [`lower_matvec_rows`] takes:
/// that many dot products run side by side, each still a sequential sum.
const MATVEC_ROWS: usize = 4;

/// Adds rows `k0..k0 + R` of the symmetric matrix's lower triangle
/// (row `k` holds `A[k][0..=k]` at `lower[k * stride..]`) to the
/// product `p = A·u`. Each row `k` first finishes its own prefix dot
/// product with `u` for `p[k]`, then adds `A[k][j]·u[k]` into `p[j]`
/// for every `j < k`, rows in ascending order; with earlier rows already
/// added, every `p[j]` sums its terms in ascending column order, as the
/// column-walking loop did.
fn lower_matvec_rows<const R: usize>(
    lower: &[f64],
    stride: usize,
    u: &[f64],
    p: &mut [f64],
    k0: usize,
) {
    let rows: [&[f64]; R] =
        std::array::from_fn(|r| &lower[(k0 + r) * stride..=(k0 + r) * stride + k0 + r]);
    // The R dot products over the columns every row has, interleaved.
    let mut dot = [0.0; R];
    let shared: [&[f64]; R] = std::array::from_fn(|r| &rows[r][..=k0]);
    for (m, &um) in u[..=k0].iter().enumerate() {
        for r in 0..R {
            dot[r] += shared[r][m] * um;
        }
    }
    for r in 1..R {
        for m in k0 + 1..=k0 + r {
            dot[r] += rows[r][m] * u[m];
        }
    }
    // Earlier entries of p take each row's term in row order.
    let heads: [&[f64]; R] = std::array::from_fn(|r| &rows[r][..k0]);
    let uk: [f64; R] = std::array::from_fn(|r| u[k0 + r]);
    for (j, pj) in p[..k0].iter_mut().enumerate() {
        let mut acc = *pj;
        for r in 0..R {
            acc += heads[r][j] * uk[r];
        }
        *pj = acc;
    }
    // Within the block, p[k0 + s] starts from its own dot product.
    for s in 0..R {
        let mut acc = dot[s];
        for r in s + 1..R {
            acc += rows[r][k0 + s] * uk[r];
        }
        p[k0 + s] = acc;
    }
}

/// Implicit-shift QL iteration on the tridiagonal matrix `(d, e)`,
/// accumulating rotations into the rows of `zt`, the transpose of the
/// transform [`tred2`] leaves: on exit row `k` is the eigenvector of
/// `d[k]`.
///
/// Port of EISPACK `tql2` (0-based). Polls `token` (when supplied) once per
/// QL sweep; a trip surfaces as [`LinalgError::Cancelled`] with `completed`
/// set to the number of eigenvalues already converged.
fn tql2(
    d: &mut [f64],
    e: &mut [f64],
    zt: &mut Matrix,
    token: Option<&CancelToken>,
) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    // Absolute deflation floor: subdiagonals below eps * ||T|| are
    // numerically zero. A purely relative test stalls in the
    // rank-deficient tail of smooth-kernel spectra, where neighbouring
    // d's are themselves ~eps² of the matrix norm.
    let anorm = (0..n).fold(0.0f64, |m, i| m.max(d[i].abs() + e[i].abs()));
    let floor = f64::EPSILON * anorm;
    // Total QL sweeps across all eigenvalues, reported as the
    // `eigen.ql_iterations` counter — the paper-replication diagnostic
    // for eigensolve effort versus mesh size (accumulated locally so the
    // hot loop stays untouched when the obs sink is off).
    let mut total_iterations: u64 = 0;
    let z = zt.as_mut_slice();
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a single small subdiagonal element to split.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd + floor {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            total_iterations += 1;
            if iter > MAX_QL_ITERATIONS {
                klest_obs::counter_add("eigen.ql_iterations", total_iterations);
                return Err(LinalgError::NoConvergence { index: l });
            }
            if let Some(token) = token {
                if let Err(c) = token.checkpoint("eigen/ql") {
                    klest_obs::counter_add("eigen.ql_iterations", total_iterations);
                    return Err(LinalgError::Cancelled(c.with_completed(l)));
                }
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.abs().copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflate: rotation underflowed.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into eigenvector rows i, i + 1.
                let (lo, hi) = z.split_at_mut((i + 1) * n);
                for (x, y) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let f = *y;
                    *y = s * *x + c * f;
                    *x = c * *x - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    klest_obs::counter_add("eigen.ql_iterations", total_iterations);
    Ok(())
}

/// The column-walking EISPACK port these routines replaced, kept
/// verbatim as the oracle for the bitwise lockdown: the row-order loops
/// must reproduce its every bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::{LinalgError, Matrix};
    use klest_runtime::CancelToken;

    use super::MAX_QL_ITERATIONS;

    /// Eigenvalues (descending) and eigenvector columns of symmetric
    /// `a`, by the original operation order.
    pub(crate) fn eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
        let n = a.rows();
        let mut z = a.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2(&mut z, &mut d, &mut e);
        tql2(&mut d, &mut e, &mut z, None).expect("reference QL converges");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| f64::total_cmp(&d[j], &d[i]));
        let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for row in 0..n {
                vectors[(row, new_col)] = z[(row, old_col)];
            }
        }
        (values, vectors)
    }

    /// Householder reduction of the symmetric matrix stored in `z` to
    /// tridiagonal form. On exit `d` holds the diagonal, `e[1..]` the
    /// subdiagonal, and `z` the accumulated orthogonal transform.
    ///
    /// Port of EISPACK `tred2` (0-based).
    fn tred2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
        let n = d.len();
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
                let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
                if scale == 0.0 {
                    e[i] = z[(i, l)];
                } else {
                    for k in 0..=l {
                        z[(i, k)] /= scale;
                        h += z[(i, k)] * z[(i, k)];
                    }
                    let mut f = z[(i, l)];
                    let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                    e[i] = scale * g;
                    h -= f * g;
                    z[(i, l)] = f - g;
                    f = 0.0;
                    for j in 0..=l {
                        z[(j, i)] = z[(i, j)] / h;
                        let mut g = 0.0;
                        for k in 0..=j {
                            g += z[(j, k)] * z[(i, k)];
                        }
                        for k in (j + 1)..=l {
                            g += z[(k, j)] * z[(i, k)];
                        }
                        e[j] = g / h;
                        f += e[j] * z[(i, j)];
                    }
                    let hh = f / (h + h);
                    for j in 0..=l {
                        let f = z[(i, j)];
                        let g = e[j] - hh * f;
                        e[j] = g;
                        for k in 0..=j {
                            let upd = f * e[k] + g * z[(i, k)];
                            z[(j, k)] -= upd;
                        }
                    }
                }
            } else {
                e[i] = z[(i, l)];
            }
            d[i] = h;
        }
        d[0] = 0.0;
        e[0] = 0.0;
        for i in 0..n {
            if d[i] != 0.0 {
                for j in 0..i {
                    let mut g = 0.0;
                    for k in 0..i {
                        g += z[(i, k)] * z[(k, j)];
                    }
                    for k in 0..i {
                        let upd = g * z[(k, i)];
                        z[(k, j)] -= upd;
                    }
                }
            }
            d[i] = z[(i, i)];
            z[(i, i)] = 1.0;
            for j in 0..i {
                z[(j, i)] = 0.0;
                z[(i, j)] = 0.0;
            }
        }
    }

    /// Implicit-shift QL iteration on the tridiagonal matrix `(d, e)`,
    /// accumulating rotations into the columns of `z`.
    ///
    /// Port of EISPACK `tql2` (0-based). Polls `token` (when supplied) once per
    /// QL sweep; a trip surfaces as [`LinalgError::Cancelled`] with `completed`
    /// set to the number of eigenvalues already converged.
    fn tql2(
        d: &mut [f64],
        e: &mut [f64],
        z: &mut Matrix,
        token: Option<&CancelToken>,
    ) -> Result<(), LinalgError> {
        let n = d.len();
        if n == 1 {
            return Ok(());
        }
        for i in 1..n {
            e[i - 1] = e[i];
        }
        e[n - 1] = 0.0;
        // Absolute deflation floor: subdiagonals below eps * ||T|| are
        // numerically zero. A purely relative test stalls in the
        // rank-deficient tail of smooth-kernel spectra, where neighbouring
        // d's are themselves ~eps² of the matrix norm.
        let anorm = (0..n).fold(0.0f64, |m, i| m.max(d[i].abs() + e[i].abs()));
        let floor = f64::EPSILON * anorm;
        // Total QL sweeps across all eigenvalues, reported as the
        // `eigen.ql_iterations` counter — the paper-replication diagnostic
        // for eigensolve effort versus mesh size (accumulated locally so the
        // hot loop stays untouched when the obs sink is off).
        let mut total_iterations: u64 = 0;
        for l in 0..n {
            let mut iter = 0;
            loop {
                // Look for a single small subdiagonal element to split.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd + floor {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                total_iterations += 1;
                if iter > MAX_QL_ITERATIONS {
                    klest_obs::counter_add("eigen.ql_iterations", total_iterations);
                    return Err(LinalgError::NoConvergence { index: l });
                }
                if let Some(token) = token {
                    if let Err(c) = token.checkpoint("eigen/ql") {
                        klest_obs::counter_add("eigen.ql_iterations", total_iterations);
                        return Err(LinalgError::Cancelled(c.with_completed(l)));
                    }
                }
                // Wilkinson shift.
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.abs().copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
                let mut s = 1.0;
                let mut c = 1.0;
                let mut p = 0.0;
                let mut underflow = false;
                for i in (l..m).rev() {
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        // Deflate: rotation underflowed.
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    // Accumulate the rotation into the eigenvector columns.
                    for k in 0..n {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
                if underflow {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        klest_obs::counter_add("eigen.ql_iterations", total_iterations);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn eigen_2x2_known() {
        let a = Matrix::from_rows(&[[2.0, 1.0].as_slice(), [1.0, 2.0].as_slice()]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_close(eig.eigenvalues()[0], 3.0, 1e-12);
        assert_close(eig.eigenvalues()[1], 1.0, 1e-12);
        // Eigenvector for λ=3 is (1,1)/sqrt(2) up to sign.
        let v = eig.eigenvector(0);
        assert_close(v[0].abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-12);
        assert_close(v[0], v[1], 1e-12);
    }

    #[test]
    fn eigen_diagonal() {
        let a = Matrix::from_rows(&[
            [3.0, 0.0, 0.0].as_slice(),
            [0.0, -1.0, 0.0].as_slice(),
            [0.0, 0.0, 7.0].as_slice(),
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[7.0, 3.0, -1.0]);
    }

    #[test]
    fn eigen_1x1_and_errors() {
        let a = Matrix::from_rows(&[[5.0].as_slice()]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[5.0]);
        assert_eq!(eig.dim(), 1);
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // Pseudo-random symmetric matrix.
        let n = 24;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rnd();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = SymmetricEigen::new(&a).unwrap();
        // Reconstruction.
        let back = eig.reconstruct();
        assert!(back.sub(&a).unwrap().max_abs() < 1e-10);
        // Orthonormal columns.
        for i in 0..n {
            let vi = eig.eigenvector(i);
            assert_close(vecops::norm(&vi), 1.0, 1e-10);
            for j in (i + 1)..n {
                let vj = eig.eigenvector(j);
                assert!(vecops::dot(&vi, &vj).abs() < 1e-10);
            }
        }
        // Descending order.
        for w in eig.eigenvalues().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn eigen_equation_residual() {
        let a = Matrix::from_rows(&[
            [4.0, 1.0, 0.5, 0.0].as_slice(),
            [1.0, 3.0, 0.2, 0.1].as_slice(),
            [0.5, 0.2, 2.0, 0.3].as_slice(),
            [0.0, 0.1, 0.3, 1.0].as_slice(),
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        for j in 0..4 {
            let v = eig.eigenvector(j);
            let av = a.mul_vec(&v).unwrap();
            for (avi, vi) in av.iter().zip(v.iter()) {
                assert_close(*avi, eig.eigenvalues()[j] * vi, 1e-10);
            }
        }
    }

    #[test]
    fn trace_and_sum_of_eigenvalues_agree() {
        let a = Matrix::from_rows(&[
            [1.0, 2.0, 3.0].as_slice(),
            [2.0, 5.0, 4.0].as_slice(),
            [3.0, 4.0, 9.0].as_slice(),
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let trace = 1.0 + 5.0 + 9.0;
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert_close(sum, trace, 1e-10);
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2*I has a doubly degenerate eigenvalue; vectors must still be
        // orthonormal.
        let a = Matrix::from_rows(&[[2.0, 0.0].as_slice(), [0.0, 2.0].as_slice()]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[2.0, 2.0]);
        let v0 = eig.eigenvector(0);
        let v1 = eig.eigenvector(1);
        assert!(vecops::dot(&v0, &v1).abs() < 1e-12);
    }

    #[test]
    fn nan_poisoned_input_returns_typed_error() {
        // Regression: the eigenvalue sort used partial_cmp + expect, so a
        // NaN reaching it panicked. NaN must now surface as a typed error
        // at the input gate, never a panic.
        let mut a = Matrix::from_rows(&[[2.0, 1.0].as_slice(), [1.0, 2.0].as_slice()]).unwrap();
        a[(0, 1)] = f64::NAN;
        match SymmetricEigen::new(&a) {
            Err(LinalgError::NonFinite { row: 0, col: 1 }) => {}
            other => panic!("expected NonFinite error, got {other:?}"),
        }
        a[(0, 1)] = f64::INFINITY;
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn healthy_input_does_not_use_fallback() {
        let a = Matrix::from_rows(&[[2.0, 1.0].as_slice(), [1.0, 2.0].as_slice()]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(!eig.used_fallback());
    }

    #[test]
    fn cancelled_token_surfaces_typed_error() {
        use klest_runtime::CancelToken;
        // An already-cancelled token must trip the very first checkpoint,
        // the first Householder step, and surface the runtime's typed
        // marker.
        let n = 32;
        let mut seed = 3u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rnd();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let token = CancelToken::unlimited();
        token.cancel();
        match SymmetricEigen::new_with_token(&a, &token) {
            Err(LinalgError::Cancelled(c)) => {
                assert_eq!(c.stage, "eigen/tridiagonalize");
                assert_eq!(c.completed, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // An untripped token changes nothing.
        let live = CancelToken::unlimited();
        let eig = SymmetricEigen::new_with_token(&a, &live).unwrap();
        let plain = SymmetricEigen::new(&a).unwrap();
        for (x, y) in eig.eigenvalues().iter().zip(plain.eigenvalues()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn trip_mid_solve_reports_progress() {
        use klest_runtime::CancelToken;
        let n = 48;
        let mut seed = 11u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rnd();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        // The Householder reduction polls once per step (n - 1) and once
        // per accumulation panel, so five checkpoints trip inside it.
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(5);
        match SymmetricEigen::new_with_token(&a, &token) {
            Err(LinalgError::Cancelled(c)) => {
                assert_eq!(c.stage, "eigen/tridiagonalize");
                assert_eq!(c.completed, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // A budget past the reduction trips in the QL sweeps.
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints((n - 1 + n.div_ceil(PANEL) + 5) as u64);
        match SymmetricEigen::new_with_token(&a, &token) {
            Err(LinalgError::Cancelled(c)) => {
                assert_eq!(c.stage, "eigen/ql");
                // Five sweeps cannot have converged 48 eigenvalues.
                assert!(c.completed < n, "completed {}", c.completed);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn moderately_large_random() {
        let n = 80;
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rnd();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = SymmetricEigen::new(&a).unwrap();
        let back = eig.reconstruct();
        assert!(back.sub(&a).unwrap().max_abs() < 1e-9);
    }

    /// Deterministic uniform draws in [-0.5, 0.5).
    fn lcg(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rnd = lcg(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rnd();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// `Φ^{-1/2} K Φ^{-1/2}` for the kernel `k(r²)` on `n` random points
    /// of the unit square with random areas: the matrix `DiagonalGep`
    /// hands the solver.
    fn scaled_gram(n: usize, seed: u64, k: impl Fn(f64) -> f64) -> Matrix {
        let mut rnd = lcg(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rnd() + 0.5, rnd() + 0.5)).collect();
        let inv_sqrt: Vec<f64> = (0..n)
            .map(|_| 1.0 / ((1.0 + rnd()) / n as f64).sqrt())
            .collect();
        Matrix::from_fn(n, n, |i, j| {
            let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
            k(dx * dx + dy * dy) * inv_sqrt[i] * inv_sqrt[j]
        })
    }

    /// The row-order solver reproduces the column-walking EISPACK port
    /// bit for bit: every eigenvalue and every eigenvector entry.
    fn assert_bitwise_reference(a: &Matrix, what: &str) {
        let (values, vectors) = reference::eigen(a);
        let eig = SymmetricEigen::new(a).unwrap();
        assert!(!eig.used_fallback(), "{what}: QL fell back to Jacobi");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(eig.eigenvalues()),
            bits(&values),
            "{what}: eigenvalues"
        );
        assert_eq!(
            bits(eig.eigenvectors().as_slice()),
            bits(vectors.as_slice()),
            "{what}: eigenvectors"
        );
    }

    #[test]
    fn bitwise_equal_to_reference_on_random_matrices() {
        for (n, seed) in [(1, 1), (2, 2), (3, 3), (17, 17), (64, 64), (257, 257)] {
            assert_bitwise_reference(&random_symmetric(n, seed), &format!("random n = {n}"));
        }
    }

    #[test]
    fn bitwise_equal_to_reference_on_structured_matrices() {
        // A zero row left of the diagonal takes the `scale == 0.0` branch
        // (and skips that step of the accumulation): zero the last row and
        // column, and a block-diagonal matrix hits it at the block edge.
        let mut a = random_symmetric(12, 5);
        for j in 0..11 {
            a[(11, j)] = 0.0;
            a[(j, 11)] = 0.0;
        }
        assert_bitwise_reference(&a, "zero last row");
        // Two copies of one block: block-diagonal with every eigenvalue
        // repeated.
        let block = random_symmetric(9, 6);
        let twin = Matrix::from_fn(18, 18, |i, j| {
            if i / 9 == j / 9 {
                block[(i % 9, j % 9)]
            } else {
                0.0
            }
        });
        assert_bitwise_reference(&twin, "repeated blocks");
        assert_bitwise_reference(
            &Matrix::from_fn(7, 7, |i, j| if i == j { (i as f64) - 3.0 } else { 0.0 }),
            "diagonal",
        );
        assert_bitwise_reference(&Matrix::from_fn(6, 6, |_, _| 1.0), "all ones");
        let mut two_i = Matrix::identity(5);
        two_i.scale(2.0);
        assert_bitwise_reference(&two_i, "2 I");
    }

    #[test]
    fn bitwise_equal_to_reference_on_kernel_gram_matrices() {
        // Gaussian kernel: a spectrum decaying to round-off, where the
        // absolute deflation floor ends most QL sweeps.
        for (n, seed) in [(150, 21), (320, 22)] {
            let a = scaled_gram(n, seed, |r2| (-2.0 * r2).exp());
            assert_bitwise_reference(&a, &format!("gaussian n = {n}"));
        }
        // Exponential kernel: slow decay and long QL sweeps.
        for (n, seed) in [(150, 31), (320, 32)] {
            let a = scaled_gram(n, seed, |r2| (-2.0 * r2.sqrt()).exp());
            assert_bitwise_reference(&a, &format!("exponential n = {n}"));
        }
    }

    #[test]
    fn jacobi_path_shares_the_sorted_contract() {
        let a = random_symmetric(9, 77);
        let jac = SymmetricEigen::new_jacobi(&a).unwrap();
        let (values, vectors) = crate::jacobi::jacobi_eigen(&a, None).unwrap();
        let mut order: Vec<usize> = (0..9).collect();
        order.sort_by(|&i, &j| f64::total_cmp(&values[j], &values[i]));
        for (new_col, &old_col) in order.iter().enumerate() {
            assert_eq!(
                jac.eigenvalues()[new_col].to_bits(),
                values[old_col].to_bits()
            );
            for row in 0..9 {
                assert_eq!(
                    jac.eigenvectors()[(row, new_col)].to_bits(),
                    vectors[(row, old_col)].to_bits()
                );
            }
        }
        assert!(!jac.used_fallback());
    }
}
