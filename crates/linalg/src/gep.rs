//! Generalized eigenproblem `K d = λ Φ d` with diagonal `Φ` — the matrix
//! form of the paper's Galerkin system (eq. 13).
//!
//! With an orthogonal piecewise-constant basis, `Φ = diag(a_1, ..., a_n)`
//! (triangle areas). Rather than forming the *non-symmetric* `Φ⁻¹ K` of
//! eq. (15), we apply the symmetric similarity
//! `A = Φ^{-1/2} K Φ^{-1/2}`, solve the standard symmetric problem
//! `A u = λ u`, and map back `d = Φ^{-1/2} u`. The spectra coincide, and
//! staying symmetric keeps the solver robust (guaranteed real eigenpairs).

use crate::{LinalgError, Matrix, SymmetricEigen};
use klest_runtime::CancelToken;

/// Solution of `K d = λ Φ d` for symmetric `K` and positive diagonal `Φ`.
///
/// Eigenvalues are sorted descending, matching the KLE convention of the
/// paper. Each eigenvector `d_j` is normalized so that `Σ_i d_{ji}² Φ_ii
/// = 1`, which makes the corresponding piecewise-constant eigenfunction
/// `f_j` orthonormal in `L²(D)` (paper Sec. 2.2).
///
/// ```
/// use klest_linalg::{DiagonalGep, Matrix};
/// # fn main() -> Result<(), klest_linalg::LinalgError> {
/// let k = Matrix::from_rows(&[
///     [2.0, 0.0].as_slice(),
///     [0.0, 1.0].as_slice(),
/// ])?;
/// let gep = DiagonalGep::solve(&k, &[2.0, 1.0])?;
/// assert!((gep.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiagonalGep {
    values: Vec<f64>,
    /// Column `j` is the generalized eigenvector `d_j`.
    vectors: Matrix,
}

impl DiagonalGep {
    /// Solves the generalized problem.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes,
    /// - [`LinalgError::DimensionMismatch`] if `phi_diag.len() != n`,
    /// - [`LinalgError::NonPositiveEntry`] if any `Φ_ii <= 0`,
    /// - [`LinalgError::NoConvergence`] from the inner eigensolver.
    pub fn solve(k: &Matrix, phi_diag: &[f64]) -> Result<Self, LinalgError> {
        Self::solve_inner(k, phi_diag, None)
    }

    /// Like [`solve`](DiagonalGep::solve), but polling `token` inside the
    /// eigensolver so a deadline can cancel the solve cooperatively;
    /// additionally reports [`LinalgError::Cancelled`].
    pub fn solve_with_token(
        k: &Matrix,
        phi_diag: &[f64],
        token: &CancelToken,
    ) -> Result<Self, LinalgError> {
        Self::solve_inner(k, phi_diag, Some(token))
    }

    fn solve_inner(
        k: &Matrix,
        phi_diag: &[f64],
        token: Option<&CancelToken>,
    ) -> Result<Self, LinalgError> {
        if !k.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (k.rows(), k.cols()),
            });
        }
        let n = k.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if phi_diag.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "gep",
                left: (n, n),
                right: (phi_diag.len(), 1),
            });
        }
        let mut inv_sqrt = Vec::with_capacity(n);
        for (i, &p) in phi_diag.iter().enumerate() {
            if p <= 0.0 || !p.is_finite() {
                return Err(LinalgError::NonPositiveEntry { index: i, value: p });
            }
            inv_sqrt.push(1.0 / p.sqrt());
        }
        // A = Φ^{-1/2} K Φ^{-1/2}
        let a = Matrix::from_fn(n, n, |i, j| k[(i, j)] * inv_sqrt[i] * inv_sqrt[j]);
        // d = Φ^{-1/2} u, applied as the solver sorts its eigenvectors
        // into the buffer it worked in.
        let (values, vectors) =
            SymmetricEigen::new_scaled(&a, token, Some(&inv_sqrt))?.into_parts();
        Ok(DiagonalGep { values, vectors })
    }

    /// Generalized eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.values
    }

    /// Generalized eigenvectors; column `j` pairs with `eigenvalues()[j]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Copy of the `j`-th generalized eigenvector.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mass_reduces_to_standard() {
        let k = Matrix::from_rows(&[[2.0, 1.0].as_slice(), [1.0, 2.0].as_slice()]).unwrap();
        let gep = DiagonalGep::solve(&k, &[1.0, 1.0]).unwrap();
        let eig = SymmetricEigen::new(&k).unwrap();
        for (a, b) in gep.eigenvalues().iter().zip(eig.eigenvalues()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn satisfies_generalized_equation() {
        let k = Matrix::from_rows(&[
            [3.0, 1.0, 0.2].as_slice(),
            [1.0, 2.0, 0.4].as_slice(),
            [0.2, 0.4, 1.5].as_slice(),
        ])
        .unwrap();
        let phi = [0.5, 1.5, 2.0];
        let gep = DiagonalGep::solve(&k, &phi).unwrap();
        for j in 0..3 {
            let d = gep.eigenvector(j);
            let kd = k.mul_vec(&d).unwrap();
            let lam = gep.eigenvalues()[j];
            for i in 0..3 {
                assert!(
                    (kd[i] - lam * phi[i] * d[i]).abs() < 1e-10,
                    "K d = λ Φ d violated at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn phi_normalization() {
        // Σ_i d_i² Φ_ii = 1 for every eigenvector.
        let k = Matrix::from_rows(&[
            [3.0, 1.0, 0.2].as_slice(),
            [1.0, 2.0, 0.4].as_slice(),
            [0.2, 0.4, 1.5].as_slice(),
        ])
        .unwrap();
        let phi = [0.5, 1.5, 2.0];
        let gep = DiagonalGep::solve(&k, &phi).unwrap();
        for j in 0..3 {
            let d = gep.eigenvector(j);
            let weighted: f64 = d.iter().zip(phi.iter()).map(|(di, pi)| di * di * pi).sum();
            assert!((weighted - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phi_orthogonality_between_eigenvectors() {
        let k = Matrix::from_rows(&[
            [3.0, 1.0, 0.2].as_slice(),
            [1.0, 2.0, 0.4].as_slice(),
            [0.2, 0.4, 1.5].as_slice(),
        ])
        .unwrap();
        let phi = [0.5, 1.5, 2.0];
        let gep = DiagonalGep::solve(&k, &phi).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                let di = gep.eigenvector(i);
                let dj = gep.eigenvector(j);
                let w: f64 = di
                    .iter()
                    .zip(dj.iter())
                    .zip(phi.iter())
                    .map(|((a, b), p)| a * b * p)
                    .sum();
                assert!(w.abs() < 1e-12, "Φ-orthogonality violated ({i},{j})");
            }
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let k = Matrix::identity(2);
        assert!(matches!(
            DiagonalGep::solve(&k, &[1.0]).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            DiagonalGep::solve(&k, &[1.0, 0.0]).unwrap_err(),
            LinalgError::NonPositiveEntry { index: 1, .. }
        ));
        assert!(matches!(
            DiagonalGep::solve(&k, &[1.0, -2.0]).unwrap_err(),
            LinalgError::NonPositiveEntry { index: 1, .. }
        ));
        assert!(DiagonalGep::solve(&Matrix::zeros(2, 3), &[1.0, 1.0]).is_err());
        assert!(DiagonalGep::solve(&Matrix::zeros(0, 0), &[]).is_err());
    }

    #[test]
    fn bitwise_equal_to_reference_solve_and_back_transform() {
        // The scale folded into the sort reproduces solving A = Φ^{-1/2}
        // K Φ^{-1/2} by the EISPACK operation order, then scaling each
        // eigenvector entry by Φ^{-1/2}, bit for bit.
        let n = 90;
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rnd(), rnd())).collect();
        let phi: Vec<f64> = (0..n).map(|_| (0.5 + rnd()) / n as f64).collect();
        let k = Matrix::from_fn(n, n, |i, j| {
            let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
            (-3.0 * (dx * dx + dy * dy)).exp()
        });
        let gep = DiagonalGep::solve(&k, &phi).unwrap();
        let inv_sqrt: Vec<f64> = phi.iter().map(|p| 1.0 / p.sqrt()).collect();
        let a = Matrix::from_fn(n, n, |i, j| k[(i, j)] * inv_sqrt[i] * inv_sqrt[j]);
        let (values, u) = crate::eigen::reference::eigen(&a);
        for (x, y) in gep.eigenvalues().iter().zip(&values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for i in 0..n {
            for j in 0..n {
                let want = u[(i, j)] * inv_sqrt[i];
                assert_eq!(
                    gep.eigenvectors()[(i, j)].to_bits(),
                    want.to_bits(),
                    "({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn diagonal_k_diagonal_phi() {
        // K = diag(2, 1), Φ = diag(2, 1) → λ = {1, 1}
        let k = Matrix::from_rows(&[[2.0, 0.0].as_slice(), [0.0, 1.0].as_slice()]).unwrap();
        let gep = DiagonalGep::solve(&k, &[2.0, 1.0]).unwrap();
        assert!((gep.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((gep.eigenvalues()[1] - 1.0).abs() < 1e-12);
        assert_eq!(gep.dim(), 2);
    }
}
