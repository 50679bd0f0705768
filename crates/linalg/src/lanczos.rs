//! Lanczos iteration for the leading eigenpairs of a symmetric matrix.
//!
//! The paper only needs the first ~200 eigenpairs of the n = 1546
//! Galerkin matrix (its authors used Matlab, whose `eigs` is
//! Lanczos-based). The full Householder+QL solve is O(n³); Lanczos with
//! `m ≪ n` iterations costs O(m n² + m² n) and recovers the leading
//! spectrum to high accuracy because KLE spectra decay fast.
//!
//! Full reorthogonalisation is used — at m ≤ a few hundred the extra
//! O(m² n) is cheap and removes the classic ghost-eigenvalue problem.
//!
//! Two engines share this module:
//!
//! - [`PartialEigen::lanczos`]: the in-memory tridiagonal reference over
//!   a dense [`Matrix`] (unchanged historical behaviour, bit for bit);
//! - [`PartialEigen::lanczos_op`]: the matrix-free engine over any
//!   [`LinearOperator`] — full reorthogonalisation plus thick restart,
//!   never materializing the matrix, with O(n·m) peak memory.

use crate::{vecops, LinalgError, LinearOperator, Matrix, SymmetricEigen};

/// Relative residual tolerance below which a Ritz pair counts as
/// converged in [`PartialEigen::lanczos_op`].
const RITZ_REL_TOL: f64 = 1e-10;

/// A residual norm below this is an invariant subspace: the Krylov space
/// cannot be extended from this start vector.
const INVARIANT_TOL: f64 = 1e-13;

/// Deterministic pseudo-random start vector (no RNG dependency),
/// normalized. Shared by both Lanczos engines so the dense and
/// matrix-free paths explore the same Krylov space.
fn seeded_start(n: usize) -> Vec<f64> {
    let mut q0 = vec![0.0; n];
    let mut state = 0x853c49e6748fea9bu64;
    for v in q0.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    }
    let norm = vecops::norm(&q0);
    vecops::scale(&mut q0, 1.0 / norm);
    q0
}

/// Orthogonalizes `v` against every vector in `basis` (one MGS pass),
/// normalizes and pushes it — unless it collapses below the invariant
/// tolerance, in which case it is linearly dependent and dropped.
fn push_orthonormalized(basis: &mut Vec<Vec<f64>>, mut v: Vec<f64>) {
    for q in basis.iter() {
        let proj = vecops::dot(&v, q);
        vecops::axpy(-proj, q, &mut v);
    }
    let norm = vecops::norm(&v);
    if norm >= INVARIANT_TOL {
        vecops::scale(&mut v, 1.0 / norm);
        basis.push(v);
    }
}

/// Checkpointable state of the matrix-free thick-restart engine, captured
/// at a cycle boundary.
///
/// A restart cycle of [`PartialEigen::lanczos_op`] is a pure function of
/// the basis it starts from and the remaining apply budget: the projected
/// (tridiagonal-plus-spikes) block, residual frontier and Ritz pairs are
/// all recomputed inside the cycle. So the only state that must survive a
/// crash is the restart basis and the apply count — resuming from a
/// captured state replays the remaining cycles **bitwise identically** to
/// the uninterrupted run (the serialization stores exact f64 bit
/// patterns, so a disk round-trip loses nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosState {
    basis: Vec<Vec<f64>>,
    applied: usize,
}

const STATE_HEADER: &str = "klest-lanczos-state/v1";

impl LanczosState {
    /// Operator applications consumed up to this checkpoint (counted
    /// against the `max_iters` budget on resume).
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Number of basis vectors in the restart frontier.
    pub fn basis_len(&self) -> usize {
        self.basis.len()
    }

    /// Dimension of the underlying operator.
    pub fn dim(&self) -> usize {
        self.basis.first().map_or(0, Vec::len)
    }

    /// Serializes the state as text with exact f64 bit patterns
    /// (hex-encoded `to_bits`), so deserialize→resume is bitwise
    /// indistinguishable from never having stopped.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(STATE_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "dim {}\nvectors {}\napplied {}\n",
            self.dim(),
            self.basis.len(),
            self.applied
        ));
        for v in &self.basis {
            let mut first = true;
            for &x in v {
                if !first {
                    out.push(' ');
                }
                out.push_str(&format!("{:016x}", x.to_bits()));
                first = false;
            }
            out.push('\n');
        }
        out
    }

    /// Parses a [`serialize`](Self::serialize)d state. `None` on any
    /// structural damage (wrong header, counts, word widths) — torn or
    /// corrupted checkpoints degrade to "no checkpoint", never a panic.
    pub fn deserialize(text: &str) -> Option<LanczosState> {
        let mut lines = text.lines();
        if lines.next()? != STATE_HEADER {
            return None;
        }
        let dim: usize = lines.next()?.strip_prefix("dim ")?.parse().ok()?;
        let vectors: usize = lines.next()?.strip_prefix("vectors ")?.parse().ok()?;
        let applied: usize = lines.next()?.strip_prefix("applied ")?.parse().ok()?;
        if dim == 0 || vectors == 0 {
            return None;
        }
        let mut basis = Vec::with_capacity(vectors);
        for _ in 0..vectors {
            let line = lines.next()?;
            let mut v = Vec::with_capacity(dim);
            for word in line.split(' ') {
                if word.len() != 16 {
                    return None;
                }
                v.push(f64::from_bits(u64::from_str_radix(word, 16).ok()?));
            }
            if v.len() != dim {
                return None;
            }
            basis.push(v);
        }
        if lines.next().is_some() {
            return None;
        }
        Some(LanczosState { basis, applied })
    }
}

/// Result of a partial (Lanczos) eigendecomposition: the leading `k`
/// eigenpairs in descending order.
#[derive(Debug, Clone)]
pub struct PartialEigen {
    values: Vec<f64>,
    /// `n x k`; column `j` pairs with `values[j]`.
    vectors: Matrix,
}

impl PartialEigen {
    /// Computes the `k` algebraically largest eigenpairs of symmetric
    /// `a` using `m >= k` Lanczos iterations (a small multiple of `k`,
    /// e.g. `2k`, is usually ample for decaying spectra).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad
    ///   shapes,
    /// - [`LinalgError::DimensionMismatch`] if `k == 0` or `k > m > n`
    ///   constraints are violated,
    /// - [`LinalgError::NoConvergence`] from the inner tridiagonal solve.
    pub fn lanczos(a: &Matrix, k: usize, m: usize) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let m = m.min(n);
        if k == 0 || k > m {
            return Err(LinalgError::DimensionMismatch {
                op: "lanczos",
                left: (k, 1),
                right: (m, 1),
            });
        }
        // Krylov basis, row `i` = Lanczos vector q_i (row-major friendly).
        let mut q = Matrix::zeros(m, n);
        let mut alpha = vec![0.0; m];
        let mut beta = vec![0.0; m]; // beta[i] couples q_{i} and q_{i+1}
        q.row_mut(0).copy_from_slice(&seeded_start(n));
        let mut w = vec![0.0; n];
        let mut steps = m;
        for i in 0..m {
            // w = A q_i
            {
                let qi = q.row(i);
                for (row, wv) in w.iter_mut().enumerate() {
                    *wv = vecops::dot(a.row(row), qi);
                }
            }
            alpha[i] = vecops::dot(&w, q.row(i));
            // w -= alpha_i q_i + beta_{i-1} q_{i-1}
            {
                let qi = q.row(i).to_vec();
                vecops::axpy(-alpha[i], &qi, &mut w);
            }
            if i > 0 {
                let qprev = q.row(i - 1).to_vec();
                vecops::axpy(-beta[i - 1], &qprev, &mut w);
            }
            // Full reorthogonalisation (twice is enough in practice).
            for _ in 0..2 {
                for j in 0..=i {
                    let proj = vecops::dot(&w, q.row(j));
                    let qj = q.row(j).to_vec();
                    vecops::axpy(-proj, &qj, &mut w);
                }
            }
            let b = vecops::norm(&w);
            if i + 1 < m {
                if b < 1e-13 {
                    // Invariant subspace found early; truncate the basis.
                    steps = i + 1;
                    break;
                }
                beta[i] = b;
                let qnext = q.row_mut(i + 1);
                for (dst, src) in qnext.iter_mut().zip(w.iter()) {
                    *dst = src / b;
                }
            }
        }

        // Solve the small tridiagonal problem T = tri(alpha, beta).
        let mut t = Matrix::zeros(steps, steps);
        for i in 0..steps {
            t[(i, i)] = alpha[i];
            if i + 1 < steps {
                t[(i, i + 1)] = beta[i];
                t[(i + 1, i)] = beta[i];
            }
        }
        let eig = SymmetricEigen::new(&t)?;
        let k = k.min(steps);
        // Ritz vectors: v_j = Qᵀ s_j (rows of q are the basis).
        let mut vectors = Matrix::zeros(n, k);
        for j in 0..k {
            let s = eig.eigenvector(j);
            for (i, &si) in s.iter().enumerate() {
                let qi = q.row(i);
                for (row, &qv) in qi.iter().enumerate() {
                    vectors[(row, j)] += si * qv;
                }
            }
            // Normalise against accumulated rounding.
            let col: Vec<f64> = (0..n).map(|r| vectors[(r, j)]).collect();
            let norm = vecops::norm(&col);
            for r in 0..n {
                vectors[(r, j)] /= norm;
            }
        }
        Ok(PartialEigen {
            values: eig.eigenvalues()[..k].to_vec(),
            vectors,
        })
    }

    /// Computes the `k` algebraically largest eigenpairs of a symmetric
    /// [`LinearOperator`] without ever materializing it: Lanczos with
    /// full reorthogonalisation and thick restart. Peak memory is
    /// O(n·m) for the Krylov basis (`m ≈ 2k + 10` per cycle), never
    /// O(n²).
    ///
    /// Each restart cycle grows the basis to `m` vectors, solves the
    /// projected (Rayleigh–Ritz) problem, and — if the leading `k` Ritz
    /// pairs have residual estimates above the convergence tolerance —
    /// restarts from those Ritz vectors plus the out-of-span residual
    /// direction. `max_iters` bounds the **total operator applications**
    /// across all cycles, so a non-converging (e.g. NaN-poisoned)
    /// operator surfaces a typed error instead of looping.
    ///
    /// Like [`lanczos`](Self::lanczos), a degenerate spectrum whose
    /// reachable Krylov space is smaller than `k` legitimately returns
    /// fewer pairs.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::Empty`] for a zero-dimensional operator,
    /// - [`LinalgError::DimensionMismatch`] if `k == 0`, `k > n` or
    ///   `max_iters == 0`,
    /// - [`LinalgError::NonFinite`] when an operator application
    ///   produces NaN/∞ (`row` = vector index, `col` = Lanczos step),
    /// - [`LinalgError::NoConvergence`] when `max_iters` applications
    ///   were spent without the leading pairs converging,
    /// - any error the operator itself reports (e.g.
    ///   [`LinalgError::Cancelled`] from a token-aware operator).
    pub fn lanczos_op<Op: LinearOperator + ?Sized>(
        op: &Op,
        k: usize,
        max_iters: usize,
    ) -> Result<Self, LinalgError> {
        Self::lanczos_op_with_state(op, k, max_iters, None, &mut |_| {})
    }

    /// [`lanczos_op`](Self::lanczos_op) with checkpoint/resume hooks.
    ///
    /// `on_cycle` is invoked at every thick-restart boundary with the
    /// [`LanczosState`] the next cycle starts from; persisting it (e.g.
    /// through a `CheckpointStore`) makes the eigensolve restartable.
    /// Passing a captured state back as `resume` continues the solve from
    /// that boundary and — because a cycle is a pure function of its
    /// restart basis and remaining apply budget — produces **bitwise
    /// identical** eigenpairs to the uninterrupted run with the same
    /// `(op, k, max_iters)`. Each boundary also passes the
    /// `lanczos/cycle` [`klest_runtime::crash_point`], the deterministic
    /// kill point the chaos suite aborts at.
    ///
    /// # Errors
    ///
    /// As for [`lanczos_op`](Self::lanczos_op), plus
    /// [`LinalgError::DimensionMismatch`] (`op = "lanczos_resume"`) when
    /// `resume` disagrees with the operator dimension or the cycle basis
    /// size implied by `k`.
    pub fn lanczos_op_with_state<Op: LinearOperator + ?Sized>(
        op: &Op,
        k: usize,
        max_iters: usize,
        resume: Option<&LanczosState>,
        on_cycle: &mut dyn FnMut(&LanczosState),
    ) -> Result<Self, LinalgError> {
        let n = op.dim();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if k == 0 || k > n || max_iters == 0 {
            return Err(LinalgError::DimensionMismatch {
                op: "lanczos_op",
                left: (k, 1),
                right: (n, max_iters),
            });
        }
        // Per-cycle Krylov dimension: the same small multiple of k the
        // dense KLE path uses, clamped to the space size.
        let m = (2 * k + 10).min(n);
        let (mut basis, mut applied) = match resume {
            Some(state) => {
                let fits = !state.basis.is_empty()
                    && state.basis.len() <= m
                    && state.basis.iter().all(|v| v.len() == n);
                if !fits {
                    return Err(LinalgError::DimensionMismatch {
                        op: "lanczos_resume",
                        left: (state.basis.len(), state.dim()),
                        right: (m, n),
                    });
                }
                (state.basis.clone(), state.applied)
            }
            None => (vec![seeded_start(n)], 0usize),
        };
        let mut u = vec![0.0; n];
        loop {
            // One restart cycle: fill the projected matrix column by
            // column, expanding the basis at the frontier. With full
            // reorthogonalisation the projection T = Qᵀ A Q is computed
            // exactly (dense, not assumed tridiagonal), which is what
            // makes restarting from Ritz vectors seamless.
            let mut t = Matrix::zeros(m, m);
            let mut beta_last = 0.0;
            let mut residual: Option<Vec<f64>> = None;
            let mut invariant = false;
            let mut i = 0usize;
            while i < basis.len() {
                if applied >= max_iters {
                    return Err(LinalgError::NoConvergence { index: 0 });
                }
                op.apply(&basis[i], &mut u)?;
                applied += 1;
                if let Some(row) = u.iter().position(|v| !v.is_finite()) {
                    return Err(LinalgError::NonFinite { row, col: i });
                }
                for (j, qj) in basis.iter().enumerate() {
                    let v = vecops::dot(qj, &u);
                    t[(j, i)] = v;
                    t[(i, j)] = v;
                }
                if i + 1 == basis.len() {
                    // Frontier: orthogonalize A q_i against the whole
                    // basis (two passes) to get the next direction.
                    let mut w = u.clone();
                    for _ in 0..2 {
                        for qj in &basis {
                            let proj = vecops::dot(&w, qj);
                            vecops::axpy(-proj, qj, &mut w);
                        }
                    }
                    let b = vecops::norm(&w);
                    beta_last = b;
                    if b < INVARIANT_TOL {
                        invariant = true;
                        i += 1;
                        break;
                    }
                    vecops::scale(&mut w, 1.0 / b);
                    if basis.len() < m {
                        basis.push(w);
                    } else {
                        // Basis full: keep the residual direction for
                        // the thick restart instead of growing.
                        residual = Some(w);
                    }
                }
                i += 1;
            }
            let s = basis.len().min(i);
            // Rayleigh–Ritz on span(basis).
            let ts = Matrix::from_fn(s, s, |r, c| t[(r, c)]);
            let eig = SymmetricEigen::new(&ts)?;
            let avail = k.min(s);
            // Residual estimate for Ritz pair j: the out-of-span defect
            // of the basis lives entirely in the last expansion
            // direction, so ‖A v_j − θ_j v_j‖ ≈ β · |s_{last,j}|.
            let head = eig.eigenvalues()[0].abs().max(f64::MIN_POSITIVE);
            let converged =
                |j: usize| beta_last * eig.eigenvector(j)[s - 1].abs() <= RITZ_REL_TOL * head;
            let done = invariant || s == n || (0..avail).all(converged);
            if done {
                let mut vectors = Matrix::zeros(n, avail);
                for j in 0..avail {
                    let sj = eig.eigenvector(j);
                    for (bi, &si) in basis.iter().zip(sj.iter()) {
                        for (row, &qv) in bi.iter().enumerate() {
                            vectors[(row, j)] += si * qv;
                        }
                    }
                    let col = vectors.col(j);
                    let norm = vecops::norm(&col);
                    for row in 0..n {
                        vectors[(row, j)] /= norm;
                    }
                }
                return Ok(PartialEigen {
                    values: eig.eigenvalues()[..avail].to_vec(),
                    vectors,
                });
            }
            // Thick restart: leading Ritz vectors plus the residual
            // direction seed the next cycle. One modified-Gram-Schmidt
            // pass guards against drift from near-degenerate Ritz pairs;
            // a vector that collapses under it is simply dropped.
            let mut next: Vec<Vec<f64>> = Vec::with_capacity(avail + 1);
            for j in 0..avail {
                let sj = eig.eigenvector(j);
                let mut v = vec![0.0; n];
                for (bi, &si) in basis.iter().zip(sj.iter()) {
                    vecops::axpy(si, bi, &mut v);
                }
                push_orthonormalized(&mut next, v);
            }
            if let Some(w) = residual {
                push_orthonormalized(&mut next, w);
            }
            if next.is_empty() {
                // Cannot happen for a finite spectrum (the leading Ritz
                // vector is unit norm), but stay typed rather than loop.
                return Err(LinalgError::NoConvergence { index: 0 });
            }
            basis = next;
            // Cycle boundary: the (basis, applied) pair now on hand is
            // the complete state of the solve — surface it to the
            // checkpoint observer, then pass the deterministic kill
            // point the chaos suite aborts at.
            on_cycle(&LanczosState {
                basis: basis.clone(),
                applied,
            });
            klest_runtime::crash_point("lanczos/cycle");
        }
    }

    /// The leading eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.values
    }

    /// Ritz vectors; column `j` pairs with `eigenvalues()[j]`.
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

    /// Number of converged pairs returned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no pairs were returned (cannot happen via
    /// [`lanczos`](PartialEigen::lanczos), which requires `k >= 1`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_spd(n: usize, seed: u64, decay: f64) -> Matrix {
        // SPD with controlled spectral decay: A = V diag(d) Vᵀ for a
        // random orthogonal-ish V via QR-free symmetrisation. Simpler:
        // start diagonal with decay, apply a few random Jacobi rotations.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = (-decay * i as f64).exp();
        }
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for _ in 0..4 * n {
            let p = (rnd().abs() * n as f64) as usize % n;
            let q = (rnd().abs() * n as f64) as usize % n;
            if p == q {
                continue;
            }
            let theta = rnd();
            let (c, s) = (theta.cos(), theta.sin());
            // A <- G A Gᵀ with Givens rotation in (p, q).
            for j in 0..n {
                let (apj, aqj) = (a[(p, j)], a[(q, j)]);
                a[(p, j)] = c * apj - s * aqj;
                a[(q, j)] = s * apj + c * aqj;
            }
            for i in 0..n {
                let (aip, aiq) = (a[(i, p)], a[(i, q)]);
                a[(i, p)] = c * aip - s * aiq;
                a[(i, q)] = s * aip + c * aiq;
            }
        }
        // Force exact symmetry against rounding.
        for i in 0..n {
            for j in 0..i {
                let v = 0.5 * (a[(i, j)] + a[(j, i)]);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn matches_full_solver_on_leading_pairs() {
        let a = random_spd(60, 42, 0.15);
        let full = SymmetricEigen::new(&a).unwrap();
        let partial = PartialEigen::lanczos(&a, 8, 30).unwrap();
        assert_eq!(partial.len(), 8);
        assert!(!partial.is_empty());
        for j in 0..8 {
            let rel = (partial.eigenvalues()[j] - full.eigenvalues()[j]).abs()
                / full.eigenvalues()[j].abs().max(1e-300);
            assert!(rel < 1e-8, "eigenvalue {j}: rel error {rel}");
        }
    }

    #[test]
    fn ritz_vectors_satisfy_eigen_equation() {
        let a = random_spd(40, 7, 0.3);
        let partial = PartialEigen::lanczos(&a, 5, 25).unwrap();
        for j in 0..5 {
            let v = partial.eigenvector(j);
            let av = a.mul_vec(&v).unwrap();
            let lam = partial.eigenvalues()[j];
            let residual: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(residual < 1e-7, "pair {j}: residual {residual}");
        }
    }

    #[test]
    fn ritz_vectors_are_orthonormal() {
        let a = random_spd(50, 11, 0.2);
        let partial = PartialEigen::lanczos(&a, 6, 24).unwrap();
        for i in 0..6 {
            let vi = partial.eigenvector(i);
            assert!((vecops::norm(&vi) - 1.0).abs() < 1e-10);
            for j in (i + 1)..6 {
                let vj = partial.eigenvector(j);
                assert!(vecops::dot(&vi, &vj).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn early_invariant_subspace_termination() {
        // Rank-2 matrix: Lanczos finds the invariant subspace in ~3 steps.
        let n = 20;
        let mut a = Matrix::zeros(n, n);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        let partial = PartialEigen::lanczos(&a, 2, 15).unwrap();
        assert!((partial.eigenvalues()[0] - 3.0).abs() < 1e-10);
        assert!((partial.eigenvalues()[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn input_validation() {
        let a = Matrix::identity(5);
        assert!(PartialEigen::lanczos(&a, 0, 3).is_err());
        assert!(PartialEigen::lanczos(&a, 4, 3).is_err());
        assert!(PartialEigen::lanczos(&Matrix::zeros(2, 3), 1, 2).is_err());
        assert!(PartialEigen::lanczos(&Matrix::zeros(0, 0), 1, 1).is_err());
        // k and m clamp to n (distinct spectrum, so the full Krylov
        // space is reachable — a degenerate spectrum like the identity
        // legitimately terminates after one step).
        let mut d = Matrix::zeros(5, 5);
        for i in 0..5 {
            d[(i, i)] = (i + 1) as f64;
        }
        let ok = PartialEigen::lanczos(&d, 3, 100).unwrap();
        assert_eq!(ok.len(), 3);
        assert!((ok.eigenvalues()[0] - 5.0).abs() < 1e-10);
        assert!((ok.eigenvalues()[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn degenerate_spectrum_terminates_early_with_fewer_pairs() {
        // Identity: the Krylov space from any start vector is 1-D, so a
        // single (correct) pair comes back even when more were asked.
        let a = Matrix::identity(5);
        let partial = PartialEigen::lanczos(&a, 3, 5).unwrap();
        assert_eq!(partial.len(), 1);
        assert!((partial.eigenvalues()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn operator_engine_matches_full_solver() {
        let a = random_spd(60, 42, 0.15);
        let full = SymmetricEigen::new(&a).unwrap();
        let partial = PartialEigen::lanczos_op(&a, 8, 500).unwrap();
        assert_eq!(partial.len(), 8);
        for j in 0..8 {
            let rel = (partial.eigenvalues()[j] - full.eigenvalues()[j]).abs()
                / full.eigenvalues()[j].abs().max(1e-300);
            assert!(rel < 1e-8, "eigenvalue {j}: rel error {rel}");
            let v = partial.eigenvector(j);
            let av = a.mul_vec(&v).unwrap();
            let lam = partial.eigenvalues()[j];
            let res: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-7, "pair {j}: residual {res}");
        }
    }

    #[test]
    fn operator_engine_restarts_on_slow_spectra() {
        // decay 0.02 over n = 80 gives eigenvalue ratios near 1, so a
        // single (2k+10)-step cycle does not converge and the thick
        // restart has to do real work.
        let a = random_spd(80, 5, 0.02);
        let full = SymmetricEigen::new(&a).unwrap();
        let partial = PartialEigen::lanczos_op(&a, 4, 500).unwrap();
        assert_eq!(partial.len(), 4);
        for j in 0..4 {
            let rel = (partial.eigenvalues()[j] - full.eigenvalues()[j]).abs()
                / full.eigenvalues()[j].abs().max(1e-300);
            assert!(rel < 1e-8, "eigenvalue {j}: rel error {rel}");
        }
    }

    #[test]
    fn operator_engine_handles_clustered_spectrum() {
        // Two near-degenerate clusters: {3, 3-1e-9} and {1, 1-1e-9}.
        let n = 30;
        let mut a = Matrix::zeros(n, n);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 3.0 - 1e-9;
        a[(2, 2)] = 1.0;
        a[(3, 3)] = 1.0 - 1e-9;
        for i in 4..n {
            a[(i, i)] = 0.1;
        }
        let partial = PartialEigen::lanczos_op(&a, 4, 500).unwrap();
        assert_eq!(partial.len(), 4);
        let want = [3.0, 3.0 - 1e-9, 1.0, 1.0 - 1e-9];
        for (j, w) in want.iter().enumerate() {
            assert!(
                (partial.eigenvalues()[j] - w).abs() < 1e-8,
                "clustered eigenvalue {j}: got {}",
                partial.eigenvalues()[j]
            );
        }
    }

    #[test]
    fn operator_engine_degenerate_spectrum_returns_fewer_pairs() {
        let a = Matrix::identity(5);
        let partial = PartialEigen::lanczos_op(&a, 3, 100).unwrap();
        assert_eq!(partial.len(), 1);
        assert!((partial.eigenvalues()[0] - 1.0).abs() < 1e-12);
    }

    struct NanOperator(usize);

    impl LinearOperator for NanOperator {
        fn dim(&self) -> usize {
            self.0
        }

        fn apply(&self, _x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
            y.fill(f64::NAN);
            Ok(())
        }
    }

    #[test]
    fn nan_operator_surfaces_typed_error_instead_of_looping() {
        let err = PartialEigen::lanczos_op(&NanOperator(10), 2, 50).unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite { .. }), "{err:?}");
    }

    #[test]
    fn exhausted_apply_budget_is_no_convergence() {
        // A healthy operator with a tiny budget: the first cycle cannot
        // even fill its basis, so the typed budget error comes back.
        let a = random_spd(40, 9, 0.05);
        let err = PartialEigen::lanczos_op(&a, 4, 3).unwrap_err();
        assert!(matches!(err, LinalgError::NoConvergence { .. }), "{err:?}");
    }

    fn bits_of(eig: &PartialEigen) -> (Vec<u64>, Vec<u64>) {
        let values = eig.eigenvalues().iter().map(|v| v.to_bits()).collect();
        let n = eig.eigenvectors().rows();
        let mut vec_bits = Vec::new();
        for j in 0..eig.len() {
            for r in 0..n {
                vec_bits.push(eig.eigenvectors()[(r, j)].to_bits());
            }
        }
        (values, vec_bits)
    }

    #[test]
    fn resume_from_every_cycle_is_bitwise_identical() {
        // Slow spectrum forces several thick-restart cycles, so there are
        // real checkpoints to resume from.
        let a = random_spd(80, 5, 0.02);
        let mut checkpoints: Vec<LanczosState> = Vec::new();
        let uninterrupted = PartialEigen::lanczos_op_with_state(&a, 4, 500, None, &mut |s| {
            checkpoints.push(s.clone())
        })
        .unwrap();
        assert!(
            checkpoints.len() >= 2,
            "expected several restart cycles, got {}",
            checkpoints.len()
        );
        let want = bits_of(&uninterrupted);
        for (i, cp) in checkpoints.iter().enumerate() {
            // Disk round-trip through the textual format, then resume.
            let wire = cp.serialize();
            let restored = LanczosState::deserialize(&wire).unwrap();
            assert_eq!(&restored, cp, "serialization must be lossless");
            let resumed =
                PartialEigen::lanczos_op_with_state(&a, 4, 500, Some(&restored), &mut |_| {})
                    .unwrap();
            assert_eq!(
                bits_of(&resumed),
                want,
                "resume from cycle {i} must be bitwise identical"
            );
        }
    }

    #[test]
    fn converged_solve_emits_no_checkpoints_and_wrapper_is_unchanged() {
        // Fast decay converges within the first cycle: no restart, no
        // checkpoint, and the thin wrapper must match bit for bit.
        let mut d = Matrix::zeros(5, 5);
        for i in 0..5 {
            d[(i, i)] = (i + 1) as f64;
        }
        let mut cycles = 0usize;
        let with_state =
            PartialEigen::lanczos_op_with_state(&d, 5, 100, None, &mut |_| cycles += 1).unwrap();
        let plain = PartialEigen::lanczos_op(&d, 5, 100).unwrap();
        assert_eq!(cycles, 0, "k = n fills the space in one cycle");
        assert_eq!(bits_of(&with_state), bits_of(&plain));
        // And on a case that does restart, the wrapper still matches the
        // hook-bearing engine bit for bit.
        let a = random_spd(60, 42, 0.15);
        let with_state =
            PartialEigen::lanczos_op_with_state(&a, 8, 500, None, &mut |_| {}).unwrap();
        let plain = PartialEigen::lanczos_op(&a, 8, 500).unwrap();
        assert_eq!(bits_of(&with_state), bits_of(&plain));
    }

    #[test]
    fn state_deserialize_rejects_damage() {
        let a = random_spd(80, 5, 0.02);
        let mut first: Option<LanczosState> = None;
        let _ = PartialEigen::lanczos_op_with_state(&a, 4, 500, None, &mut |s| {
            if first.is_none() {
                first = Some(s.clone());
            }
        })
        .unwrap();
        let wire = first.unwrap().serialize();
        // Torn tail, wrong header, truncated word, trailing garbage.
        assert!(LanczosState::deserialize(&wire[..wire.len() - 9]).is_none());
        assert!(LanczosState::deserialize(&wire.replacen("v1", "v9", 1)).is_none());
        let mangled = wire.replacen(" ", "  ", 1);
        assert!(LanczosState::deserialize(&mangled).is_none());
        let trailing = format!("{wire}deadbeefdeadbeef\n");
        assert!(LanczosState::deserialize(&trailing).is_none());
        assert!(LanczosState::deserialize("").is_none());
    }

    #[test]
    fn resume_rejects_mismatched_operator() {
        let a = random_spd(80, 5, 0.02);
        let mut first: Option<LanczosState> = None;
        let _ = PartialEigen::lanczos_op_with_state(&a, 4, 500, None, &mut |s| {
            if first.is_none() {
                first = Some(s.clone());
            }
        })
        .unwrap();
        let state = first.unwrap();
        // Wrong dimension: the state came from an 80-dim operator.
        let b = random_spd(40, 9, 0.05);
        let err =
            PartialEigen::lanczos_op_with_state(&b, 4, 500, Some(&state), &mut |_| {}).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::DimensionMismatch {
                op: "lanczos_resume",
                ..
            }
        ));
    }

    #[test]
    fn operator_engine_input_validation() {
        let a = Matrix::identity(5);
        assert!(PartialEigen::lanczos_op(&a, 0, 10).is_err());
        assert!(PartialEigen::lanczos_op(&a, 6, 10).is_err());
        assert!(PartialEigen::lanczos_op(&a, 2, 0).is_err());
        assert!(PartialEigen::lanczos_op(&Matrix::zeros(0, 0), 1, 10).is_err());
        // k == n is legal and exact.
        let mut d = Matrix::zeros(5, 5);
        for i in 0..5 {
            d[(i, i)] = (i + 1) as f64;
        }
        let ok = PartialEigen::lanczos_op(&d, 5, 100).unwrap();
        assert_eq!(ok.len(), 5);
        assert!((ok.eigenvalues()[0] - 5.0).abs() < 1e-10);
        assert!((ok.eigenvalues()[4] - 1.0).abs() < 1e-10);
    }
}
