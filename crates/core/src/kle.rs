//! The Galerkin KLE solver (paper Secs. 3.2 and 4).

use crate::{GalerkinOperator, KleError, QuadratureRule, TruncationCriterion};
use klest_geometry::Point2;
use klest_kernels::CovarianceKernel;
use klest_linalg::{DiagonalGep, LinearOperator, Matrix, PartialEigen, ScaledOperator};
use klest_mesh::{Mesh, TriangleLocator};
use klest_runtime::CancelToken;

/// Which eigensolver backs the KLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenSolver {
    /// Full Householder + QL decomposition: all `n` eigenvalues, O(n³).
    #[default]
    Full,
    /// Lanczos iteration for the leading `max_eigenpairs` only — the
    /// paper's actual situation ("we have computed only the first 200",
    /// via Matlab's `eigs`). O(m n² ) for `m` retained pairs; the
    /// truncation criterion then uses its `λ_m (n - m)` bound for the
    /// unseen tail.
    Lanczos,
    /// Matrix-free thick-restart Lanczos over a [`GalerkinOperator`]:
    /// kernel entries are evaluated per matrix–vector product and the
    /// O(n²) Galerkin matrix is **never assembled**, so peak memory is
    /// O(n·k) and 10⁵-element meshes fit where the dense path cannot
    /// even allocate. Spectra match the dense solvers within solver
    /// tolerance (the operator's matvec is bitwise identical to the
    /// dense one). `k ≥ n` falls back to the dense full solve — at that
    /// point the "partial" problem is the whole spectrum and dense is
    /// both exact and cheaper.
    MatrixFree {
        /// Number of leading eigenpairs to compute.
        k: usize,
        /// Budget of operator applications across all restart cycles;
        /// exhausting it yields a typed [`KleError::Linalg`]
        /// (`NoConvergence`) instead of looping.
        max_iters: usize,
    },
}

/// Options for [`GalerkinKle::compute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KleOptions {
    /// Quadrature rule for the Galerkin integrals (paper: centroid).
    pub quadrature: QuadratureRule,
    /// How many leading eigenpairs to retain (paper: 200, from which the
    /// truncation criterion then picks r = 25). With [`EigenSolver::Full`]
    /// all `n` eigen*values* are kept for the tail bound and this caps
    /// only the stored eigen*vectors*; with [`EigenSolver::Lanczos`] this
    /// is the number of pairs computed at all.
    pub max_eigenpairs: usize,
    /// Eigensolver backend.
    pub solver: EigenSolver,
    /// Worker threads for Galerkin assembly. `0` (the default) means
    /// "auto": honour the `KLEST_THREADS` environment variable, else run
    /// serially — so existing call sites keep the historical serial
    /// behaviour (including checkpoint ordering) unless parallelism is
    /// requested. The assembled matrix is bitwise identical for every
    /// value (see [`crate::assemble_galerkin_parallel`]).
    pub assembly_threads: usize,
}

impl Default for KleOptions {
    fn default() -> Self {
        KleOptions {
            quadrature: QuadratureRule::Centroid,
            max_eigenpairs: 200,
            solver: EigenSolver::Full,
            assembly_threads: 0,
        }
    }
}

/// The Karhunen-Loève expansion of a random field, computed with the
/// paper's Galerkin method.
///
/// Eigenfunctions are piecewise constant over the mesh triangles:
/// `f_j(x) = d_{j,i}` for `x ∈ Δ_i` (eq. 7/17), normalized so
/// `∫_D f_j² = Σ_i d_{j,i}² a_i = 1`.
#[derive(Debug, Clone)]
pub struct GalerkinKle {
    /// Computed eigenvalues, descending — all `n` for the full solver,
    /// the leading `m` for Lanczos.
    eigenvalues: Vec<f64>,
    /// `n x m` matrix of retained eigenvectors (`m = min(n, max_eigenpairs)`).
    d: Matrix,
    /// Triangle areas (`Φ` diagonal).
    areas: Vec<f64>,
    /// Triangle centroids, kept for reconstruction queries.
    centroids: Vec<Point2>,
    /// Exact operator trace `Σ_j λ_j = |D|` (total die area), available
    /// without the full spectrum.
    trace: f64,
}

impl GalerkinKle {
    /// Assembles the Galerkin system for `kernel` on `mesh` and solves the
    /// eigenproblem.
    ///
    /// # Errors
    ///
    /// Propagates [`KleError::Linalg`] from the eigensolver.
    pub fn compute<K: CovarianceKernel + ?Sized>(
        mesh: &Mesh,
        kernel: &K,
        options: KleOptions,
    ) -> Result<Self, KleError> {
        Self::compute_inner(mesh, kernel, options, None)
    }

    /// Like [`compute`](GalerkinKle::compute), but polling `token` through
    /// both stages — once per assembled Galerkin row and once per
    /// eigensolver sweep — so a deadline can cancel a long KLE build.
    ///
    /// # Errors
    ///
    /// Everything [`compute`](GalerkinKle::compute) reports, plus
    /// [`KleError::Cancelled`] when the token trips.
    pub fn compute_with_token<K: CovarianceKernel + ?Sized>(
        mesh: &Mesh,
        kernel: &K,
        options: KleOptions,
        token: &CancelToken,
    ) -> Result<Self, KleError> {
        Self::compute_inner(mesh, kernel, options, Some(token))
    }

    fn compute_inner<K: CovarianceKernel + ?Sized>(
        mesh: &Mesh,
        kernel: &K,
        options: KleOptions,
        token: Option<&CancelToken>,
    ) -> Result<Self, KleError> {
        if let EigenSolver::MatrixFree { k, max_iters } = options.solver {
            if k < mesh.len() {
                return Self::compute_matrix_free(mesh, kernel, options, k, max_iters, token);
            }
            // k ≥ n: fall through to assembly — from_matrix_inner
            // normalizes this to the dense full solve.
        }
        let k = match token {
            Some(token) => crate::assemble_galerkin_parallel_with_token(
                mesh,
                kernel,
                options.quadrature,
                options.assembly_threads,
                token,
            )?,
            None => crate::assemble_galerkin_parallel_with_token(
                mesh,
                kernel,
                options.quadrature,
                options.assembly_threads,
                &CancelToken::unlimited(),
            )?,
        };
        Self::from_matrix_inner(k, mesh, options, token)
    }

    /// Solves the eigenproblem for a pre-assembled Galerkin matrix
    /// (exposed so benches can time assembly and solve separately).
    ///
    /// # Errors
    ///
    /// Propagates [`KleError::Linalg`].
    pub fn from_matrix(k: Matrix, mesh: &Mesh, options: KleOptions) -> Result<Self, KleError> {
        Self::from_matrix_inner(k, mesh, options, None)
    }

    /// Like [`from_matrix`](GalerkinKle::from_matrix), but polling `token`
    /// inside the eigensolver; additionally reports [`KleError::Cancelled`]
    /// when the token trips mid-solve.
    pub fn from_matrix_with_token(
        k: Matrix,
        mesh: &Mesh,
        options: KleOptions,
        token: &CancelToken,
    ) -> Result<Self, KleError> {
        Self::from_matrix_inner(k, mesh, options, Some(token))
    }

    /// The matrix-free KLE: builds a [`GalerkinOperator`] over the mesh
    /// and runs thick-restart Lanczos on its Φ^{-1/2}·K·Φ^{-1/2}
    /// similarity — no stage on this path allocates anything O(n²).
    fn compute_matrix_free<K: CovarianceKernel + ?Sized>(
        mesh: &Mesh,
        kernel: &K,
        options: KleOptions,
        modes: usize,
        max_iters: usize,
        token: Option<&CancelToken>,
    ) -> Result<Self, KleError> {
        let _span = klest_obs::span("galerkin/eigensolve");
        let n = mesh.len();
        if klest_obs::enabled() {
            klest_obs::gauge_set("galerkin.matrix_dim", n as f64);
        }
        let mut op =
            GalerkinOperator::new(mesh, kernel, options.quadrature, options.assembly_threads);
        if let Some(token) = token {
            token
                .checkpoint("eigen/matrix-free")
                .map_err(KleError::Cancelled)?;
            op = op.with_token(token);
        }
        let (eigenvalues, d) = Self::matrix_free_pairs(op, mesh.areas(), modes, max_iters)?;
        klest_obs::gauge_set("kle.eigenpairs_retained", d.cols() as f64);
        Ok(GalerkinKle {
            eigenvalues,
            d,
            areas: mesh.areas().to_vec(),
            centroids: mesh.centroids().to_vec(),
            trace: mesh.total_area(),
        })
    }

    /// Shared matrix-free eigensolve core: wraps `op` (the raw Galerkin
    /// action) in the Φ^{-1/2} similarity, runs the operator Lanczos
    /// engine and maps eigenvectors back to the Φ-orthonormal `d` basis,
    /// exactly mirroring the dense Lanczos arm's arithmetic.
    fn matrix_free_pairs<Op: LinearOperator>(
        op: Op,
        areas: &[f64],
        modes: usize,
        max_iters: usize,
    ) -> Result<(Vec<f64>, Matrix), KleError> {
        let n = areas.len();
        let inv_sqrt: Vec<f64> = areas.iter().map(|a| 1.0 / a.sqrt()).collect();
        let scaled = ScaledOperator::new(op, inv_sqrt)?;
        let partial = PartialEigen::lanczos_op(&scaled, modes, max_iters)?;
        let inv_sqrt = scaled.scale();
        let got = partial.len();
        let mut d = Matrix::zeros(n, got);
        for j in 0..got {
            for i in 0..n {
                d[(i, j)] = partial.eigenvectors()[(i, j)] * inv_sqrt[i];
            }
        }
        Ok((partial.eigenvalues().to_vec(), d))
    }

    fn from_matrix_inner(
        k: Matrix,
        mesh: &Mesh,
        options: KleOptions,
        token: Option<&CancelToken>,
    ) -> Result<Self, KleError> {
        let _span = klest_obs::span("galerkin/eigensolve");
        let n = mesh.len();
        let m = options.max_eigenpairs.min(n).max(1);
        // k ≥ n makes the "partial" matrix-free problem the full
        // spectrum: the dense solve is exact and cheaper, so normalize.
        let solver = match options.solver {
            EigenSolver::MatrixFree { k: modes, .. } if modes >= n => EigenSolver::Full,
            s => s,
        };
        let (eigenvalues, d) = match solver {
            EigenSolver::Full => {
                let gep = match token {
                    Some(token) => DiagonalGep::solve_with_token(&k, mesh.areas(), token)?,
                    None => DiagonalGep::solve(&k, mesh.areas())?,
                };
                let mut d = Matrix::zeros(n, m);
                for i in 0..n {
                    d.row_mut(i)
                        .copy_from_slice(&gep.eigenvectors().row(i)[..m]);
                }
                (gep.eigenvalues().to_vec(), d)
            }
            EigenSolver::Lanczos => {
                // Symmetric similarity A = Φ^{-1/2} K Φ^{-1/2}, partial
                // solve, then map back d = Φ^{-1/2} u (Φ-orthonormality of
                // d follows from ‖u‖ = 1, as in DiagonalGep). The Lanczos
                // engine itself is not token-aware; one poll before the
                // solve still honours budgets already exhausted upstream.
                if let Some(token) = token {
                    token
                        .checkpoint("eigen/lanczos")
                        .map_err(KleError::Cancelled)?;
                }
                let inv_sqrt: Vec<f64> = mesh.areas().iter().map(|a| 1.0 / a.sqrt()).collect();
                let a = Matrix::from_fn(n, n, |i, j| k[(i, j)] * inv_sqrt[i] * inv_sqrt[j]);
                let krylov = (2 * m + 10).min(n);
                let partial = PartialEigen::lanczos(&a, m, krylov)?;
                let got = partial.len();
                let mut d = Matrix::zeros(n, got);
                for j in 0..got {
                    for i in 0..n {
                        d[(i, j)] = partial.eigenvectors()[(i, j)] * inv_sqrt[i];
                    }
                }
                (partial.eigenvalues().to_vec(), d)
            }
            EigenSolver::MatrixFree {
                k: modes,
                max_iters,
            } => {
                // Pre-assembled matrix handed to the matrix-free engine:
                // the dense adapter's matvec is bitwise identical to the
                // on-the-fly GalerkinOperator, so this arm produces the
                // exact bits compute() does on the same mesh — useful
                // for benches timing assembly and solve separately.
                if let Some(token) = token {
                    token
                        .checkpoint("eigen/matrix-free")
                        .map_err(KleError::Cancelled)?;
                }
                Self::matrix_free_pairs(&k, mesh.areas(), modes, max_iters)?
            }
        };
        klest_obs::gauge_set("kle.eigenpairs_retained", d.cols() as f64);
        Ok(GalerkinKle {
            eigenvalues,
            d,
            areas: mesh.areas().to_vec(),
            centroids: mesh.centroids().to_vec(),
            trace: mesh.total_area(),
        })
    }

    /// Reconstructs a [`GalerkinKle`] from its raw parts (pipeline cache
    /// deserialisation). The parts must originate from a prior solve —
    /// this performs no validation beyond shape consistency.
    pub(crate) fn from_raw(
        eigenvalues: Vec<f64>,
        d: Matrix,
        areas: Vec<f64>,
        centroids: Vec<Point2>,
        trace: f64,
    ) -> Self {
        debug_assert_eq!(d.rows(), areas.len());
        debug_assert_eq!(areas.len(), centroids.len());
        GalerkinKle {
            eigenvalues,
            d,
            areas,
            centroids,
            trace,
        }
    }

    /// The full retained eigenvector matrix (pipeline cache serialisation).
    pub(crate) fn d_matrix(&self) -> &Matrix {
        &self.d
    }

    /// The exact operator trace (pipeline cache serialisation).
    pub(crate) fn trace(&self) -> f64 {
        self.trace
    }

    /// Computed KLE eigenvalues, descending (Fig. 5's decay curve) — all
    /// `n` under [`EigenSolver::Full`], the leading pairs under Lanczos.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Number of basis triangles `n`.
    pub fn basis_size(&self) -> usize {
        self.areas.len()
    }

    /// Number of retained eigenvectors `m`.
    pub fn retained(&self) -> usize {
        self.d.cols()
    }

    /// Piecewise-constant values of eigenfunction `j` (one value per
    /// triangle) — Fig. 4 plots these surfaces.
    ///
    /// # Panics
    ///
    /// Panics if `j >= retained()`.
    pub fn eigenfunction(&self, j: usize) -> Vec<f64> {
        self.d.col(j)
    }

    /// Value of eigenfunction `j` in triangle `i`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn eigenfunction_value(&self, j: usize, triangle: usize) -> f64 {
        self.d[(triangle, j)]
    }

    /// Triangle areas (the `Φ` diagonal the solve used).
    pub fn areas(&self) -> &[f64] {
        &self.areas
    }

    /// Triangle centroids.
    pub fn centroids(&self) -> &[Point2] {
        &self.centroids
    }

    /// Applies the paper's truncation criterion, returning the selected
    /// rank `r` (25 in the paper's experiments). Works with both solvers:
    /// under Lanczos the criterion's `λ_m (n - m)` bound covers the
    /// uncomputed tail.
    pub fn select_rank(&self, criterion: &TruncationCriterion) -> usize {
        let _span = klest_obs::span("truncate");
        let r = criterion
            .select_with_basis(&self.eigenvalues, self.basis_size())
            .min(self.retained());
        if klest_obs::enabled() {
            klest_obs::gauge_set("kle.rank", r as f64);
            klest_obs::gauge_set("kle.variance_captured", self.variance_captured(r));
        }
        r
    }

    /// Like [`select_rank`](Self::select_rank), but also reports whether
    /// the selected rank genuinely meets the tail budget. `false` means
    /// the criterion saturated (flat spectrum, or the rank was capped by
    /// the retained eigenvector count) — the r-term expansion does *not*
    /// cover the requested variance fraction, and callers should degrade
    /// (e.g. to the full Cholesky reference) rather than trust it.
    pub fn select_rank_checked(&self, criterion: &TruncationCriterion) -> (usize, bool) {
        let r = self.select_rank(criterion);
        let met = criterion.budget_met_with_basis(&self.eigenvalues, self.basis_size(), r);
        (r, met)
    }

    /// The reconstruction matrix `D_λ = D_r √Λ_r` of eq. (28)
    /// (`n x r`): multiplying a standard-normal `ξ ∈ R^r` yields one field
    /// realisation over the triangles.
    ///
    /// # Errors
    ///
    /// [`KleError::RankOutOfRange`] if `r` exceeds the retained
    /// eigenpairs, or if a retained eigenvalue within `r` is negative
    /// (possible only for an invalid kernel).
    pub fn reconstruction_matrix(&self, r: usize) -> Result<Matrix, KleError> {
        if r == 0 || r > self.retained() {
            return Err(KleError::RankOutOfRange {
                requested: r,
                available: self.retained(),
            });
        }
        let n = self.basis_size();
        let mut m = Matrix::zeros(n, r);
        for j in 0..r {
            let lam = self.eigenvalues[j];
            if lam < 0.0 {
                return Err(KleError::RankOutOfRange {
                    requested: r,
                    available: j,
                });
            }
            let s = lam.sqrt();
            for i in 0..n {
                m[(i, j)] = self.d[(i, j)] * s;
            }
        }
        Ok(m)
    }

    /// Truncated kernel reconstruction
    /// `K̂(x, y) = Σ_{j<r} λ_j f_j(x) f_j(y)` where `x ∈ Δ_i`, `y ∈ Δ_k`
    /// (used for Fig. 3b's reconstruction-error surface).
    ///
    /// # Errors
    ///
    /// [`KleError::RankOutOfRange`] for invalid `r`;
    /// [`KleError::PointOutsideMesh`] when a point cannot be located.
    pub fn reconstruct_kernel(
        &self,
        locator: &TriangleLocator,
        x: Point2,
        y: Point2,
        r: usize,
    ) -> Result<f64, KleError> {
        if r == 0 || r > self.retained() {
            return Err(KleError::RankOutOfRange {
                requested: r,
                available: self.retained(),
            });
        }
        let i = locator
            .locate(x)
            .ok_or(KleError::PointOutsideMesh { index: 0 })?;
        let k = locator
            .locate(y)
            .ok_or(KleError::PointOutsideMesh { index: 1 })?;
        Ok(self.reconstruct_kernel_between_triangles(i, k, r))
    }

    /// Truncated kernel reconstruction between two triangles by index.
    ///
    /// # Panics
    ///
    /// Panics if triangle indices are out of range or `r > retained()`.
    pub fn reconstruct_kernel_between_triangles(&self, i: usize, k: usize, r: usize) -> f64 {
        (0..r)
            .map(|j| self.eigenvalues[j] * self.d[(i, j)] * self.d[(k, j)])
            .sum()
    }

    /// Per-triangle truncated variance `Σ_{j<r} λ_j f_j(x)²` — the
    /// variance the r-term expansion actually delivers at each die
    /// location (exactly 1 everywhere only as r → n). Truncation bias
    /// concentrates where the eigenfunctions resolve the field worst
    /// (die corners), which is where Fig. 3(b)'s worst errors live.
    ///
    /// # Panics
    ///
    /// Panics if `r > retained()`.
    pub fn variance_map(&self, r: usize) -> Vec<f64> {
        assert!(
            r <= self.retained(),
            "rank {r} exceeds retained {}",
            self.retained()
        );
        let n = self.basis_size();
        (0..n)
            .map(|i| {
                (0..r)
                    .map(|j| self.eigenvalues[j].max(0.0) * self.d[(i, j)] * self.d[(i, j)])
                    .sum()
            })
            .collect()
    }

    /// Fraction of total variance captured by the first `r` eigenpairs:
    /// `Σ_{j<r} λ_j / Σ_j λ_j`. The denominator is the exact operator
    /// trace `|D|` (Mercer), so the figure is meaningful even when only
    /// the leading eigenvalues were computed (Lanczos).
    pub fn variance_captured(&self, r: usize) -> f64 {
        if self.trace <= 0.0 {
            return 0.0;
        }
        let head: f64 = self.eigenvalues[..r.min(self.eigenvalues.len())]
            .iter()
            .map(|&l| l.max(0.0))
            .sum();
        head / self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_geometry::Rect;
    use klest_kernels::GaussianKernel;
    use klest_mesh::MeshBuilder;

    fn small_kle() -> (Mesh, GalerkinKle) {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.08)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kle =
            GalerkinKle::compute(&mesh, &GaussianKernel::new(1.5), KleOptions::default()).unwrap();
        (mesh, kle)
    }

    #[test]
    fn eigenvalues_descend_and_are_mostly_positive() {
        let (_, kle) = small_kle();
        let ev = kle.eigenvalues();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // A valid kernel's operator is PSD; discretisation noise may make
        // the far tail slightly negative, never the head.
        assert!(ev[0] > 0.0);
        assert!(ev[ev.len() - 1] > -1e-8);
    }

    #[test]
    fn eigenvalue_sum_matches_trace() {
        // Mercer: Σ λ_j = ∫ K(x,x) dx = |D| = 4 for a correlation kernel.
        // The Galerkin approximation preserves the discrete trace exactly:
        // Σ λ = trace(Φ^{-1/2} K Φ^{-1/2}) = Σ K_ii / a_i = Σ a_i = 4.
        let (mesh, kle) = small_kle();
        let total: f64 = kle.eigenvalues().iter().sum();
        assert!(
            (total - mesh.total_area()).abs() < 1e-9,
            "Σλ = {total}, |D| = {}",
            mesh.total_area()
        );
    }

    #[test]
    fn eigenfunctions_are_l2_orthonormal() {
        let (_, kle) = small_kle();
        let m = kle.retained().min(6);
        for i in 0..m {
            for j in i..m {
                let fi = kle.eigenfunction(i);
                let fj = kle.eigenfunction(j);
                let inner: f64 = fi
                    .iter()
                    .zip(fj.iter())
                    .zip(kle.areas().iter())
                    .map(|((a, b), w)| a * b * w)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((inner - expected).abs() < 1e-9, "⟨f_{i}, f_{j}⟩ = {inner}");
            }
        }
    }

    #[test]
    fn first_eigenfunction_has_constant_sign() {
        // The leading eigenfunction of a positive kernel is sign-definite
        // (Perron–Frobenius analogue).
        let (_, kle) = small_kle();
        let f0 = kle.eigenfunction(0);
        let pos = f0.iter().filter(|&&v| v > 0.0).count();
        assert!(pos == 0 || pos == f0.len(), "{pos} of {}", f0.len());
    }

    #[test]
    fn reconstruction_matrix_shape_and_scaling() {
        let (_, kle) = small_kle();
        let r = 5;
        let dl = kle.reconstruction_matrix(r).unwrap();
        assert_eq!(dl.rows(), kle.basis_size());
        assert_eq!(dl.cols(), r);
        for j in 0..r {
            let lam = kle.eigenvalues()[j];
            assert!((dl[(0, j)] - kle.eigenfunction_value(j, 0) * lam.sqrt()).abs() < 1e-12);
        }
        assert!(matches!(
            kle.reconstruction_matrix(0),
            Err(KleError::RankOutOfRange { .. })
        ));
        assert!(matches!(
            kle.reconstruction_matrix(kle.retained() + 1),
            Err(KleError::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn kernel_reconstruction_error_shrinks_with_rank() {
        let (mesh, kle) = small_kle();
        let kern = GaussianKernel::new(1.5);
        let err = |r: usize| {
            let mut worst = 0.0f64;
            for i in 0..mesh.len() {
                for k in 0..mesh.len() {
                    let approx = kle.reconstruct_kernel_between_triangles(i, k, r);
                    let exact = kern.eval(mesh.centroids()[i], mesh.centroids()[k]);
                    worst = worst.max((approx - exact).abs());
                }
            }
            worst
        };
        let e_small = err(3);
        let e_large = err(kle.retained().min(30));
        assert!(
            e_large < e_small,
            "rank 30 error {e_large} should beat rank 3 error {e_small}"
        );
    }

    #[test]
    fn reconstruct_kernel_via_locator() {
        let (mesh, kle) = small_kle();
        let locator = mesh.locator();
        let v = kle
            .reconstruct_kernel(&locator, Point2::new(0.1, 0.1), Point2::new(0.1, 0.1), 20)
            .unwrap();
        assert!(v > 0.5, "self-correlation should be near 1, got {v}");
        assert!(matches!(
            kle.reconstruct_kernel(&locator, Point2::new(5.0, 5.0), Point2::ORIGIN, 5),
            Err(KleError::PointOutsideMesh { index: 0 })
        ));
        assert!(matches!(
            kle.reconstruct_kernel(&locator, Point2::ORIGIN, Point2::ORIGIN, 0),
            Err(KleError::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn variance_captured_monotone() {
        let (_, kle) = small_kle();
        let mut prev = 0.0;
        for r in 1..=kle.retained().min(20) {
            let v = kle.variance_captured(r);
            assert!(v >= prev - 1e-15);
            assert!(v <= 1.0 + 1e-12);
            prev = v;
        }
        assert!(kle.variance_captured(kle.basis_size()) > 0.999);
    }

    #[test]
    fn lanczos_solver_matches_full_on_leading_pairs() {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.03)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(2.0);
        let full = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let lanczos_opts = KleOptions {
            solver: crate::EigenSolver::Lanczos,
            max_eigenpairs: 30,
            ..KleOptions::default()
        };
        let partial = GalerkinKle::compute(&mesh, &kernel, lanczos_opts).unwrap();
        assert!(partial.retained() <= 30);
        // Leading eigenvalues agree to solver precision.
        for j in 0..partial.retained().min(20) {
            let (a, b) = (partial.eigenvalues()[j], full.eigenvalues()[j]);
            assert!(
                (a - b).abs() < 1e-8 * b.abs().max(1e-8),
                "eigenvalue {j}: {a} vs {b}"
            );
        }
        // Rank selection agrees (both see the same leading spectrum and
        // the same basis size for the tail bound).
        let crit = TruncationCriterion::new(30, 0.01);
        assert_eq!(partial.select_rank(&crit), full.select_rank(&crit));
        // Φ-orthonormal eigenfunctions from the Lanczos path too.
        for i in 0..3 {
            let fi = partial.eigenfunction(i);
            let norm: f64 = fi.iter().zip(partial.areas()).map(|(v, a)| v * v * a).sum();
            assert!((norm - 1.0).abs() < 1e-8, "mode {i} norm {norm}");
        }
        // Variance accounting uses the exact trace under both solvers.
        let r = 10;
        assert!((partial.variance_captured(r) - full.variance_captured(r)).abs() < 1e-6);
    }

    #[test]
    fn variance_map_properties() {
        let (mesh, kle) = small_kle();
        let r = 20.min(kle.retained());
        let map = kle.variance_map(r);
        assert_eq!(map.len(), mesh.len());
        // Pointwise truncated variance is within (0, 1] up to
        // discretisation noise, and its area-weighted mean equals the
        // captured-variance fraction times |D| / |D|.
        let mut weighted = 0.0;
        for (v, a) in map.iter().zip(mesh.areas()) {
            assert!(*v > 0.0 && *v < 1.05, "pointwise variance {v}");
            weighted += v * a;
        }
        let captured = kle.variance_captured(r);
        assert!(
            (weighted / mesh.total_area() - captured).abs() < 1e-9,
            "area-mean {} vs captured {}",
            weighted / mesh.total_area(),
            captured
        );
        // More modes -> no less variance anywhere.
        let map_small = kle.variance_map(5);
        for (big, small) in map.iter().zip(&map_small) {
            assert!(big >= small);
        }
    }

    #[test]
    fn select_rank_checked_reports_budget() {
        let (_, kle) = small_kle();
        // The default criterion is satisfiable for a Gaussian kernel.
        let (r, met) = kle.select_rank_checked(&TruncationCriterion::default());
        assert_eq!(r, kle.select_rank(&TruncationCriterion::default()));
        assert!(met, "Gaussian spectrum must meet the 1% budget");
        // An absurdly tight budget with few computed pairs saturates.
        let tight = TruncationCriterion::new(3, 1e-12);
        let (r_tight, met_tight) = kle.select_rank_checked(&tight);
        assert_eq!(r_tight, 3);
        assert!(!met_tight, "3 pairs cannot meet a 1e-12 tail budget");
    }

    #[test]
    fn cancelled_token_stops_assembly_then_eigensolve() {
        use klest_runtime::CancelToken;
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.08)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(1.5);
        // Tripped before assembly: cancellation surfaces from the
        // assembly loop with zero rows completed.
        let token = CancelToken::unlimited();
        token.cancel();
        match GalerkinKle::compute_with_token(&mesh, &kernel, KleOptions::default(), &token) {
            Err(KleError::Cancelled(c)) => {
                assert_eq!(c.stage, "galerkin/assemble");
                assert_eq!(c.completed, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Tripped mid-pipeline: assembly's n rows consume n checkpoints,
        // so a budget of n + 2 trips inside the Householder reduction...
        let n = mesh.len() as u64;
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(n + 2);
        match GalerkinKle::compute_with_token(&mesh, &kernel, KleOptions::default(), &token) {
            Err(KleError::Cancelled(c)) => {
                assert_eq!(c.stage, "eigen/tridiagonalize");
                assert_eq!(c.completed, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // ...which polls once per step (n - 1) and once per 64-column
        // panel of the transform, so a budget past those trips in the QL
        // sweeps.
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(n + (n - 1) + n.div_ceil(64) + 2);
        match GalerkinKle::compute_with_token(&mesh, &kernel, KleOptions::default(), &token) {
            Err(KleError::Cancelled(c)) => assert_eq!(c.stage, "eigen/ql"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // A live token reproduces the plain path bit for bit.
        let live = CancelToken::unlimited();
        let with =
            GalerkinKle::compute_with_token(&mesh, &kernel, KleOptions::default(), &live).unwrap();
        let without = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        for (a, b) in with.eigenvalues().iter().zip(without.eigenvalues()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn matrix_free_solver_matches_full_on_leading_pairs() {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.03)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(2.0);
        let full = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let mf_opts = KleOptions {
            solver: EigenSolver::MatrixFree {
                k: 20,
                max_iters: 500,
            },
            ..KleOptions::default()
        };
        let mf = GalerkinKle::compute(&mesh, &kernel, mf_opts).unwrap();
        assert_eq!(mf.retained(), 20);
        for j in 0..20 {
            let (a, b) = (mf.eigenvalues()[j], full.eigenvalues()[j]);
            assert!(
                (a - b).abs() < 1e-8 * b.abs().max(1e-8),
                "eigenvalue {j}: {a} vs {b}"
            );
        }
        // Φ-orthonormal eigenfunctions from the matrix-free path too.
        for i in 0..3 {
            let fi = mf.eigenfunction(i);
            let norm: f64 = fi.iter().zip(mf.areas()).map(|(v, a)| v * v * a).sum();
            assert!((norm - 1.0).abs() < 1e-8, "mode {i} norm {norm}");
        }
        // Exact-trace variance accounting holds without the tail.
        assert!((mf.variance_captured(10) - full.variance_captured(10)).abs() < 1e-6);
    }

    #[test]
    fn matrix_free_compute_is_bitwise_equal_to_from_matrix() {
        // compute() drives the on-the-fly GalerkinOperator; from_matrix()
        // drives the dense adapter over the assembled matrix. Their
        // matvecs are the same floating-point expressions, so the two
        // spectra must agree bit for bit.
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(1.5);
        let opts = KleOptions {
            solver: EigenSolver::MatrixFree {
                k: 8,
                max_iters: 400,
            },
            ..KleOptions::default()
        };
        let operator = GalerkinKle::compute(&mesh, &kernel, opts).unwrap();
        let dense = crate::assemble_galerkin(&mesh, &kernel, QuadratureRule::Centroid);
        let adapter = GalerkinKle::from_matrix(dense, &mesh, opts).unwrap();
        assert_eq!(operator.eigenvalues(), adapter.eigenvalues());
        assert_eq!(
            operator.d_matrix().as_slice(),
            adapter.d_matrix().as_slice()
        );
    }

    #[test]
    fn matrix_free_with_k_at_least_n_falls_back_to_dense() {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.2)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(1.0);
        let n = mesh.len();
        let opts = KleOptions {
            solver: EigenSolver::MatrixFree {
                k: n + 10,
                max_iters: 500,
            },
            ..KleOptions::default()
        };
        let mf = GalerkinKle::compute(&mesh, &kernel, opts).unwrap();
        let full = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        // The fallback IS the dense full solve: all n eigenvalues, bitwise.
        assert_eq!(mf.eigenvalues().len(), n);
        assert_eq!(mf.eigenvalues(), full.eigenvalues());
    }

    #[test]
    fn matrix_free_cancellation_is_typed() {
        use klest_runtime::CancelToken;
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.08)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kernel = GaussianKernel::new(1.5);
        let opts = KleOptions {
            solver: EigenSolver::MatrixFree {
                k: 5,
                max_iters: 300,
            },
            ..KleOptions::default()
        };
        // Pre-tripped: caught at the eigen/matrix-free gate.
        let token = CancelToken::unlimited();
        token.cancel();
        match GalerkinKle::compute_with_token(&mesh, &kernel, opts, &token) {
            Err(KleError::Cancelled(c)) => assert_eq!(c.stage, "eigen/matrix-free"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Tripped mid-solve: surfaces from the operator's per-row polls.
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(mesh.len() as u64 + 2);
        match GalerkinKle::compute_with_token(&mesh, &kernel, opts, &token) {
            Err(KleError::Cancelled(c)) => assert_eq!(c.stage, "galerkin/matvec"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // A live token reproduces the plain path bit for bit.
        let live = CancelToken::unlimited();
        let with = GalerkinKle::compute_with_token(&mesh, &kernel, opts, &live).unwrap();
        let without = GalerkinKle::compute(&mesh, &kernel, opts).unwrap();
        assert_eq!(with.eigenvalues(), without.eigenvalues());
    }

    #[test]
    fn max_eigenpairs_caps_storage() {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.2)
            .build()
            .unwrap();
        let opts = KleOptions {
            max_eigenpairs: 4,
            ..KleOptions::default()
        };
        let kle = GalerkinKle::compute(&mesh, &GaussianKernel::new(1.0), opts).unwrap();
        assert_eq!(kle.retained(), 4);
        assert_eq!(kle.eigenvalues().len(), mesh.len());
    }
}
