//! The two correlated-field sample generators of the paper's Sec. 5.1.

use crate::{DegradationEvent, DegradationReport, NormalSource, SstaError, LANES};
use klest_core::{GalerkinKle, KleSampler};
use klest_geometry::Point2;
use klest_kernels::CovarianceKernel;
use klest_linalg::{Cholesky, Matrix, SymmetricEigen};
use klest_mesh::Mesh;
use klest_rng::StdRng;
use klest_sta::ParamVector;

/// Diagonal "nugget" added to the gate covariance matrix so that gates
/// sharing (or nearly sharing) a placement cell do not make the matrix
/// numerically singular. This models the tiny independent per-device
/// residual that always exists on silicon.
const COVARIANCE_NUGGET: f64 = 1e-8;

/// A generator of correlated per-gate parameter fields: one call yields
/// one realisation of one statistical parameter (`L`, `W`, `Vt` or
/// `tox`) over all circuit nodes.
///
/// Every sampler is a fixed linear map applied to `random_dims()` i.i.d.
/// normals. [`sample_into`](Self::sample_into) draws the normals and
/// applies [`correlate_into`](Self::correlate_into);
/// [`correlate_lanes`](Self::correlate_lanes) applies the same map to a
/// block of [`LANES`] samples in one pass over the sampler's factor.
///
/// The trait is object-safe (the normal source is concretely
/// `NormalSource<StdRng>`), so a [`crate::ProcessModel`] can mix
/// sampler kinds across parameters.
pub trait GateFieldSampler: Send + Sync {
    /// Number of circuit nodes each realisation covers.
    fn node_count(&self) -> usize;

    /// Number of underlying random variables consumed per realisation —
    /// `N_g` for Algorithm 1, `r` for Algorithm 2. This is the quantity
    /// the paper's dimensionality-reduction argument is about.
    fn random_dims(&self) -> usize;

    /// Maps one vector of `random_dims()` normals `xi` to the field over
    /// all nodes (`out.len() == node_count()`).
    fn correlate_into(&self, xi: &[f64], out: &mut [f64]);

    /// [`correlate_into`](Self::correlate_into) for [`LANES`] samples at
    /// once: `xi[k][l]` is normal `k` of lane `l`, and lane `l`'s field at
    /// node `i` is written to component `param` of `out[i][l]`. Every
    /// lane's values are bit-identical to `correlate_into` on that lane's
    /// normals.
    fn correlate_lanes(&self, xi: &[[f64; LANES]], param: usize, out: &mut [[ParamVector; LANES]]);

    /// Draws one realisation into `out` (`out.len() == node_count()`):
    /// `random_dims()` normals from `normals`, then
    /// [`correlate_into`](Self::correlate_into).
    fn sample_into(&self, normals: &mut NormalSource<StdRng>, out: &mut [f64]) {
        thread_local! {
            static XI: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        XI.with(|cell| {
            let mut xi = cell.borrow_mut();
            xi.resize(self.random_dims(), 0.0);
            normals.fill(&mut xi);
            self.correlate_into(&xi, out);
        });
    }
}

impl<S: GateFieldSampler + ?Sized> GateFieldSampler for &S {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn random_dims(&self) -> usize {
        (**self).random_dims()
    }
    fn correlate_into(&self, xi: &[f64], out: &mut [f64]) {
        (**self).correlate_into(xi, out)
    }
    fn correlate_lanes(&self, xi: &[[f64; LANES]], param: usize, out: &mut [[ParamVector; LANES]]) {
        (**self).correlate_lanes(xi, param, out)
    }
    fn sample_into(&self, normals: &mut NormalSource<StdRng>, out: &mut [f64]) {
        (**self).sample_into(normals, out)
    }
}

/// `Σ_k row[k] · xi[k][l]` for every lane `l`. Each lane adds its
/// products in ascending `k` starting from −0.0, exactly as
/// [`klest_linalg::vecops::dot`]'s `Iterator::sum` does, so lane `l` is
/// bit-identical to `dot(row, xi_l)`.
#[inline(always)]
pub(crate) fn dot_lanes<const B: usize>(row: &[f64], xi: &[[f64; B]]) -> [f64; B] {
    let mut acc = [-0.0; B];
    for (&a, x) in row.iter().zip(xi) {
        for (acc, &x) in acc.iter_mut().zip(x) {
            *acc += a * x;
        }
    }
    acc
}

/// The sink [`GateFieldSampler::correlate_lanes`] implementations hand
/// their lane values to: node `i`'s lanes go to component `param` of
/// `out[i]`.
pub(crate) fn into_param(
    out: &mut [[ParamVector; LANES]],
    param: usize,
) -> impl FnMut(usize, [f64; LANES]) + '_ {
    move |i, values| {
        for (p, v) in out[i].iter_mut().zip(values) {
            p.0[param] = v;
        }
    }
}

/// Escalating relative jitter ladder tried by
/// [`CholeskySampler::new_with_report`] before giving up on Cholesky
/// entirely: each rung adds `ε · tr(K)/n` to the diagonal.
const JITTER_LADDER: [f64; 4] = [1e-12, 1e-10, 1e-8, 1e-6];

/// The correlating factor backing a [`CholeskySampler`]: the Cholesky
/// `L` on the happy path, or the eigendecomposition factor
/// `L = Q √max(Λ, 0)` when the jitter ladder is exhausted.
#[derive(Debug, Clone)]
enum Factor {
    Cholesky(Cholesky),
    Eigen(Matrix),
}

/// **Algorithm 1**: the reference sampler. Builds the full `N_g x N_g`
/// covariance matrix `K_ij = K(g_i, g_j)` from the kernel at the node
/// locations and Cholesky-factors it once; each realisation correlates a
/// fresh i.i.d. normal vector.
#[derive(Debug, Clone)]
pub struct CholeskySampler {
    factor: Factor,
}

impl CholeskySampler {
    /// Builds the covariance matrix at `locations` and factors it.
    ///
    /// A tiny diagonal nugget (1e-8) is added for numerical positive
    /// definiteness — see DESIGN.md. This is the *strict* constructor: a
    /// matrix that still fails to factor is reported as an error, with no
    /// repair attempted. Use [`new_with_report`](Self::new_with_report)
    /// for the fault-tolerant path.
    ///
    /// # Errors
    ///
    /// [`SstaError::Linalg`] if the (nugget-regularised) matrix is still
    /// not positive definite — the sign of an invalid kernel.
    pub fn new<K: CovarianceKernel + ?Sized>(
        kernel: &K,
        locations: &[Point2],
    ) -> Result<Self, SstaError> {
        let _span = klest_obs::span("cholesky/factor");
        let cov = Self::covariance(kernel, locations);
        Ok(CholeskySampler {
            factor: Factor::Cholesky(Cholesky::new(&cov)?),
        })
    }

    /// Fault-tolerant constructor: on Cholesky failure, retries with an
    /// escalating diagonal jitter (`ε · tr(K)/n` for ε in 1e-12..1e-6),
    /// and as a last resort switches to the eigendecomposition factor
    /// `L = Q √max(Λ, 0)` — which correlates against the nearest-PSD
    /// covariance instead of aborting. Every rung taken is recorded in
    /// `report`; on healthy inputs this is bitwise identical to
    /// [`new`](Self::new) and records nothing.
    ///
    /// # Errors
    ///
    /// [`SstaError::Linalg`] only if the final eigendecomposition itself
    /// fails (NaN-poisoned covariance, i.e. a kernel returning NaN).
    pub fn new_with_report<K: CovarianceKernel + ?Sized>(
        kernel: &K,
        locations: &[Point2],
        report: &mut DegradationReport,
    ) -> Result<Self, SstaError> {
        let _span = klest_obs::span("cholesky/factor");
        let cov = Self::covariance(kernel, locations);
        if let Ok(chol) = Cholesky::new(&cov) {
            return Ok(CholeskySampler {
                factor: Factor::Cholesky(chol),
            });
        }
        let n = cov.rows();
        let mean_diag = (0..n).map(|i| cov[(i, i)]).sum::<f64>() / n.max(1) as f64;
        for (attempt, &epsilon) in JITTER_LADDER.iter().enumerate() {
            let jitter = epsilon * mean_diag.abs().max(f64::MIN_POSITIVE);
            let mut jittered = cov.clone();
            for i in 0..n {
                jittered[(i, i)] += jitter;
            }
            if let Ok(chol) = Cholesky::new(&jittered) {
                klest_obs::counter_add("ssta.cholesky_jitter_attempts", (attempt + 1) as u64);
                klest_obs::gauge_set("ssta.cholesky_jitter_epsilon", epsilon);
                report.record(DegradationEvent::CholeskyJitter {
                    epsilon,
                    attempts: attempt + 1,
                });
                return Ok(CholeskySampler {
                    factor: Factor::Cholesky(chol),
                });
            }
        }
        // Ladder exhausted: factor against the nearest-PSD covariance via
        // eigendecomposition. This also surfaces the QL→Jacobi fallback
        // when the eigensolver itself had to degrade.
        let eig = SymmetricEigen::new(&cov)?;
        if eig.used_fallback() {
            report.record(DegradationEvent::EigenSolverFallback);
        }
        let min_eigenvalue = eig.eigenvalues().last().copied().unwrap_or(0.0);
        let mut l = eig.eigenvectors().clone();
        for i in 0..n {
            let row = l.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v *= eig.eigenvalues()[j].max(0.0).sqrt();
            }
        }
        klest_obs::counter_add("ssta.cholesky_jitter_attempts", JITTER_LADDER.len() as u64);
        klest_obs::counter_add("ssta.eigen_sampler_fallback", 1);
        report.record(DegradationEvent::EigenSamplerFallback { min_eigenvalue });
        Ok(CholeskySampler {
            factor: Factor::Eigen(l),
        })
    }

    fn covariance<K: CovarianceKernel + ?Sized>(kernel: &K, locations: &[Point2]) -> Matrix {
        let n = locations.len();
        Matrix::from_fn(n, n, |i, j| {
            let base = kernel.eval(locations[i], locations[j]);
            if i == j {
                base + COVARIANCE_NUGGET
            } else {
                base
            }
        })
    }

    /// The Cholesky factorisation (exposed for benches that time setup
    /// separately). `None` when the sampler runs on the eigendecomposition
    /// fallback factor.
    pub fn cholesky(&self) -> Option<&Cholesky> {
        match &self.factor {
            Factor::Cholesky(c) => Some(c),
            Factor::Eigen(_) => None,
        }
    }

    fn dim(&self) -> usize {
        match &self.factor {
            Factor::Cholesky(c) => c.dim(),
            Factor::Eigen(l) => l.rows(),
        }
    }

    /// The linear map for `B` lanes: `L z` row by row, each row read once
    /// per block.
    fn correlate<const B: usize>(&self, z: &[[f64; B]], mut put: impl FnMut(usize, [f64; B])) {
        match &self.factor {
            Factor::Cholesky(chol) => {
                let l = chol.lower();
                for i in 0..l.rows() {
                    put(i, dot_lanes(&l.row(i)[..=i], &z[..=i]));
                }
            }
            Factor::Eigen(l) => {
                for i in 0..l.rows() {
                    put(i, dot_lanes(l.row(i), z));
                }
            }
        }
    }
}

impl GateFieldSampler for CholeskySampler {
    fn node_count(&self) -> usize {
        self.dim()
    }

    fn random_dims(&self) -> usize {
        self.dim()
    }

    fn correlate_into(&self, xi: &[f64], out: &mut [f64]) {
        self.correlate(xi.as_chunks().0, |i, [v]| out[i] = v);
    }

    fn correlate_lanes(&self, xi: &[[f64; LANES]], param: usize, out: &mut [[ParamVector; LANES]]) {
        self.correlate(xi, into_param(out, param));
    }
}

/// **Algorithm 2**: the paper's KLE sampler. Per realisation draws `r`
/// normals `ξ`, reconstructs the field over *all* mesh triangles
/// (`p_Δ = D_λ ξ`, eq. 28 — Algorithm 2 line 3) and gathers the per-gate
/// values through the containing-triangle index (lines 4–7).
///
/// [`KleFieldSampler::pregathered`] builds the fused variant — rows of
/// `D_λ` gathered per gate up front, skipping the full-mesh
/// reconstruction — an optimisation *beyond* the paper, benchmarked as an
/// ablation (`sampling` bench).
#[derive(Debug, Clone)]
pub struct KleFieldSampler {
    /// `n_triangles x r` reconstruction matrix `D √Λ`.
    d_lambda: Matrix,
    /// Containing-triangle index per circuit node.
    node_triangles: Vec<usize>,
    /// Fused per-node rows (the beyond-paper optimisation), when enabled.
    gathered: Option<Matrix>,
}

impl KleFieldSampler {
    /// Builds the paper-faithful sampler from a computed KLE, its mesh,
    /// the truncation rank and the node locations.
    ///
    /// # Errors
    ///
    /// [`SstaError::Kle`] if the rank is out of range or a node lies
    /// outside the meshed die.
    pub fn new(
        kle: &GalerkinKle,
        mesh: &Mesh,
        rank: usize,
        locations: &[Point2],
    ) -> Result<Self, SstaError> {
        let _span = klest_obs::span("gather");
        let sampler = KleSampler::new(kle, mesh, rank)?;
        let node_triangles = sampler.triangles_of(locations)?;
        Ok(KleFieldSampler {
            d_lambda: sampler.reconstruction_matrix().clone(),
            node_triangles,
            gathered: None,
        })
    }

    /// Fault-tolerant constructor: gate locations outside the meshed die
    /// are clamped to the nearest-centroid triangle (recorded as a
    /// [`DegradationEvent::PointsClamped`]) instead of failing. On
    /// all-in-die inputs this is identical to [`new`](Self::new) and
    /// records nothing.
    ///
    /// # Errors
    ///
    /// [`SstaError::Kle`] if the rank is out of range.
    pub fn new_with_report(
        kle: &GalerkinKle,
        mesh: &Mesh,
        rank: usize,
        locations: &[Point2],
        report: &mut DegradationReport,
    ) -> Result<Self, SstaError> {
        let _span = klest_obs::span("gather");
        let sampler = KleSampler::new(kle, mesh, rank)?;
        let (node_triangles, clamped) = sampler.triangles_of_clamped(locations);
        if clamped > 0 {
            report.record(DegradationEvent::PointsClamped { count: clamped });
        }
        Ok(KleFieldSampler {
            d_lambda: sampler.reconstruction_matrix().clone(),
            node_triangles,
            gathered: None,
        })
    }

    /// Builds the fused (pre-gathered) variant: per-sample cost
    /// `O(N_nodes · r)` instead of `O(n_triangles · r)`.
    ///
    /// # Errors
    ///
    /// Same as [`KleFieldSampler::new`].
    pub fn pregathered(
        kle: &GalerkinKle,
        mesh: &Mesh,
        rank: usize,
        locations: &[Point2],
    ) -> Result<Self, SstaError> {
        let mut s = Self::new(kle, mesh, rank, locations)?;
        let mut gathered = Matrix::zeros(locations.len(), rank);
        for (row, &t) in s.node_triangles.iter().enumerate() {
            gathered
                .row_mut(row)
                .copy_from_slice(&s.d_lambda.row(t)[..rank]);
        }
        s.gathered = Some(gathered);
        Ok(s)
    }

    /// The truncation rank `r`.
    pub fn rank(&self) -> usize {
        self.d_lambda.cols()
    }

    /// Is the beyond-paper fused gather enabled?
    pub fn is_pregathered(&self) -> bool {
        self.gathered.is_some()
    }

    /// The loading row of circuit node `node`: the `D_λ` row of its
    /// containing triangle (length `r`). A node's field value is the dot
    /// product of this row with the ξ vector — the linear map a
    /// canonical-form SSTA propagates symbolically.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn loading_row(&self, node: usize) -> &[f64] {
        let t = self.node_triangles[node];
        self.d_lambda.row(t)
    }
}

impl KleFieldSampler {
    /// The linear map for `B` lanes, each row of the reconstruction read
    /// once per block.
    fn correlate<const B: usize>(&self, xi: &[[f64; B]], mut put: impl FnMut(usize, [f64; B])) {
        thread_local! {
            static FIELD: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        if let Some(gathered) = &self.gathered {
            // Fused variant: one dot product per gate.
            for i in 0..gathered.rows() {
                put(i, dot_lanes(gathered.row(i), xi));
            }
            return;
        }
        // Algorithm 2 as printed: reconstruct over every triangle, then
        // gather by containing-triangle index.
        FIELD.with(|cell| {
            let mut field = cell.borrow_mut();
            field.resize(self.d_lambda.rows() * B, 0.0);
            let field = field.as_chunks_mut::<B>().0;
            for (t, f) in field.iter_mut().enumerate() {
                *f = dot_lanes(self.d_lambda.row(t), xi);
            }
            for (i, &t) in self.node_triangles.iter().enumerate() {
                put(i, field[t]);
            }
        });
    }
}

impl GateFieldSampler for KleFieldSampler {
    fn node_count(&self) -> usize {
        self.node_triangles.len()
    }

    fn random_dims(&self) -> usize {
        self.d_lambda.cols()
    }

    fn correlate_into(&self, xi: &[f64], out: &mut [f64]) {
        self.correlate(xi.as_chunks().0, |i, [v]| out[i] = v);
    }

    fn correlate_lanes(&self, xi: &[[f64; LANES]], param: usize, out: &mut [[ParamVector; LANES]]) {
        self.correlate(xi, into_param(out, param));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_core::{GalerkinKle, KleOptions};
    use klest_geometry::Rect;
    use klest_kernels::GaussianKernel;
    use klest_mesh::MeshBuilder;
    use klest_rng::SeedableRng;

    fn grid_locations(side: usize) -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..side {
            for j in 0..side {
                pts.push(Point2::new(
                    -0.9 + 1.8 * i as f64 / (side - 1) as f64,
                    -0.9 + 1.8 * j as f64 / (side - 1) as f64,
                ));
            }
        }
        pts
    }

    fn empirical_corr<S: GateFieldSampler>(sampler: &S, i: usize, j: usize, samples: usize) -> f64 {
        let mut normals = NormalSource::new(StdRng::seed_from_u64(101));
        let mut buf = vec![0.0; sampler.node_count()];
        let (mut sij, mut sii, mut sjj) = (0.0, 0.0, 0.0);
        for _ in 0..samples {
            sampler.sample_into(&mut normals, &mut buf);
            sij += buf[i] * buf[j];
            sii += buf[i] * buf[i];
            sjj += buf[j] * buf[j];
        }
        sij / (sii * sjj).sqrt()
    }

    #[test]
    fn cholesky_sampler_matches_kernel_correlation() {
        let kernel = GaussianKernel::new(2.0);
        let locs = grid_locations(5);
        let sampler = CholeskySampler::new(&kernel, &locs).unwrap();
        assert_eq!(sampler.node_count(), 25);
        assert_eq!(sampler.random_dims(), 25);
        // Nearby pair: strong correlation; far pair: weak.
        let near = empirical_corr(&sampler, 0, 1, 4000);
        let expected_near = kernel.eval(locs[0], locs[1]);
        assert!(
            (near - expected_near).abs() < 0.05,
            "{near} vs {expected_near}"
        );
        let far = empirical_corr(&sampler, 0, 24, 4000);
        let expected_far = kernel.eval(locs[0], locs[24]);
        assert!((far - expected_far).abs() < 0.07, "{far} vs {expected_far}");
    }

    #[test]
    fn cholesky_sampler_handles_duplicate_locations() {
        // Two gates in the same placement cell: the nugget keeps the
        // matrix factorable.
        let kernel = GaussianKernel::new(1.0);
        let locs = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.5),
        ];
        let sampler = CholeskySampler::new(&kernel, &locs).unwrap();
        let corr = empirical_corr(&sampler, 0, 1, 2000);
        assert!(
            corr > 0.99,
            "coincident gates must be ~perfectly correlated, got {corr}"
        );
    }

    #[test]
    fn kle_sampler_matches_kernel_correlation() {
        let kernel = GaussianKernel::new(2.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.01)
            .min_angle_degrees(28.0)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let locs = grid_locations(5);
        let sampler = KleFieldSampler::new(&kle, &mesh, 25, &locs).unwrap();
        assert_eq!(sampler.node_count(), 25);
        assert_eq!(sampler.random_dims(), 25);
        assert_eq!(sampler.rank(), 25);
        let near = empirical_corr(&sampler, 0, 1, 4000);
        // The KLE field is piecewise constant, so the exact target is the
        // kernel between the containing triangles' centroids, not between
        // the raw points.
        let locator = mesh.locator();
        let c0 = mesh.centroids()[locator.locate(locs[0]).unwrap()];
        let c1 = mesh.centroids()[locator.locate(locs[1]).unwrap()];
        let expected_near = kernel.eval(c0, c1);
        assert!(
            (near - expected_near).abs() < 0.06,
            "{near} vs {expected_near}"
        );
    }

    #[test]
    fn kle_sampler_dimensionality_reduction() {
        // The headline claim: thousands of correlated RVs -> r = 25.
        let kernel = GaussianKernel::new(2.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.02)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let locs = grid_locations(40); // 1600 "gates"
        let sampler = KleFieldSampler::new(&kle, &mesh, 25, &locs).unwrap();
        assert_eq!(sampler.node_count(), 1600);
        assert_eq!(sampler.random_dims(), 25);
        let chol = CholeskySampler::new(&kernel, &locs).unwrap();
        assert_eq!(chol.random_dims(), 1600);
    }

    #[test]
    fn kle_sampler_rejects_offdie_gate() {
        let kernel = GaussianKernel::new(1.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.1)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let e = KleFieldSampler::new(&kle, &mesh, 10, &[Point2::new(3.0, 0.0)]);
        assert!(matches!(e, Err(SstaError::Kle(_))));
    }

    #[test]
    fn pregathered_matches_paper_faithful() {
        // Same ξ stream -> identical per-gate fields, by construction.
        let kernel = GaussianKernel::new(2.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let locs = grid_locations(6);
        let paper = KleFieldSampler::new(&kle, &mesh, 12, &locs).unwrap();
        let fused = KleFieldSampler::pregathered(&kle, &mesh, 12, &locs).unwrap();
        assert!(!paper.is_pregathered());
        assert!(fused.is_pregathered());
        assert_eq!(paper.rank(), fused.rank());
        let mut a = NormalSource::new(StdRng::seed_from_u64(33));
        let mut b = NormalSource::new(StdRng::seed_from_u64(33));
        let mut out_a = vec![0.0; locs.len()];
        let mut out_b = vec![0.0; locs.len()];
        for _ in 0..5 {
            paper.sample_into(&mut a, &mut out_a);
            fused.sample_into(&mut b, &mut out_b);
            for (x, y) in out_a.iter().zip(out_b.iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fault_tolerant_cholesky_is_noop_on_healthy_kernel() {
        let kernel = GaussianKernel::new(2.0);
        let locs = grid_locations(4);
        let mut report = crate::DegradationReport::new();
        let tolerant = CholeskySampler::new_with_report(&kernel, &locs, &mut report).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(tolerant.cholesky().is_some());
        // Bitwise identical to the strict path.
        let strict = CholeskySampler::new(&kernel, &locs).unwrap();
        let mut a = NormalSource::new(StdRng::seed_from_u64(5));
        let mut b = NormalSource::new(StdRng::seed_from_u64(5));
        let mut out_a = vec![0.0; locs.len()];
        let mut out_b = vec![0.0; locs.len()];
        strict.sample_into(&mut a, &mut out_a);
        tolerant.sample_into(&mut b, &mut out_b);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn cholesky_ladder_falls_back_to_eigen_on_indefinite_kernel() {
        // An unclamped linear decay goes negative at large separation:
        // its Gram on spread points is strongly indefinite, beyond any
        // jitter rung. The strict path refuses; the tolerant path
        // degrades to the eigen factor.
        let kernel = crate::faultinject::IndefiniteKernel { slope: 1.0 };
        let locs = grid_locations(7);
        assert!(CholeskySampler::new(&kernel, &locs).is_err());
        let mut report = crate::DegradationReport::new();
        let sampler = CholeskySampler::new_with_report(&kernel, &locs, &mut report).unwrap();
        assert!(report
            .events()
            .iter()
            .any(|e| matches!(e, crate::DegradationEvent::EigenSamplerFallback { .. })));
        assert!(sampler.cholesky().is_none());
        assert_eq!(sampler.node_count(), locs.len());
        // The fallback still samples finite, correlated fields.
        let mut normals = NormalSource::new(StdRng::seed_from_u64(17));
        let mut out = vec![0.0; locs.len()];
        for _ in 0..10 {
            sampler.sample_into(&mut normals, &mut out);
            assert!(out.iter().all(|v| v.is_finite()));
        }
        // Coincident points are still perfectly correlated under the
        // clamped covariance.
        let corr = empirical_corr(&sampler, 0, 0, 500);
        assert!((corr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kle_sampler_with_report_clamps_offdie_gates() {
        let kernel = GaussianKernel::new(1.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let locs = vec![Point2::new(0.1, 0.1), Point2::new(4.0, 4.0)];
        // Strict path refuses; tolerant path clamps and records.
        assert!(KleFieldSampler::new(&kle, &mesh, 10, &locs).is_err());
        let mut report = crate::DegradationReport::new();
        let sampler =
            KleFieldSampler::new_with_report(&kle, &mesh, 10, &locs, &mut report).unwrap();
        assert_eq!(
            report.events(),
            &[crate::DegradationEvent::PointsClamped { count: 1 }]
        );
        let mut normals = NormalSource::new(StdRng::seed_from_u64(3));
        let mut out = vec![0.0; 2];
        sampler.sample_into(&mut normals, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        // All-inside gates: identical to strict, nothing recorded.
        let inside = grid_locations(3);
        let mut clean = crate::DegradationReport::new();
        let s = KleFieldSampler::new_with_report(&kle, &mesh, 10, &inside, &mut clean).unwrap();
        assert!(clean.is_clean());
        assert_eq!(s.node_count(), 9);
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let kernel = GaussianKernel::new(1.0);
        let locs = grid_locations(3);
        let sampler = CholeskySampler::new(&kernel, &locs).unwrap();
        let mut a = NormalSource::new(StdRng::seed_from_u64(9));
        let mut b = NormalSource::new(StdRng::seed_from_u64(9));
        let mut out_a = vec![0.0; 9];
        let mut out_b = vec![0.0; 9];
        sampler.sample_into(&mut a, &mut out_a);
        sampler.sample_into(&mut b, &mut out_b);
        assert_eq!(out_a, out_b);
    }

    /// Every lane of a block map equals the one-lane draw of the same
    /// normals, bit for bit, for every sampler kind.
    #[test]
    fn lanes_match_one_lane_draws_bitwise() {
        let kernel = GaussianKernel::new(2.0);
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let locs = grid_locations(6);
        let mut report = crate::DegradationReport::new();
        let indefinite = crate::faultinject::IndefiniteKernel { slope: 1.0 };
        let samplers: Vec<Box<dyn GateFieldSampler>> = vec![
            Box::new(KleFieldSampler::new(&kle, &mesh, 12, &locs).unwrap()),
            Box::new(KleFieldSampler::pregathered(&kle, &mesh, 12, &locs).unwrap()),
            Box::new(CholeskySampler::new(&kernel, &locs).unwrap()),
            Box::new(CholeskySampler::new_with_report(&indefinite, &locs, &mut report).unwrap()),
            Box::new(crate::GridPcaSampler::new(&kernel, Rect::unit_die(), 5, 10, &locs).unwrap()),
        ];
        for (which, sampler) in samplers.iter().enumerate() {
            let n = sampler.node_count();
            let mut normals = NormalSource::new(StdRng::seed_from_u64(71));
            let mut xi = vec![[0.0; LANES]; sampler.random_dims()];
            for lane in 0..LANES {
                for row in xi.iter_mut() {
                    row[lane] = normals.sample();
                }
            }
            let mut params = vec![[ParamVector::ZERO; LANES]; n];
            sampler.correlate_lanes(&xi, 2, &mut params);
            let mut one = NormalSource::new(StdRng::seed_from_u64(71));
            let mut field = vec![0.0; n];
            for lane in 0..LANES {
                sampler.sample_into(&mut one, &mut field);
                for (node, v) in params.iter().zip(&field) {
                    let got = node[lane];
                    assert_eq!(
                        got.0[2].to_bits(),
                        v.to_bits(),
                        "sampler {which} lane {lane}"
                    );
                    assert_eq!([got.0[0], got.0[1], got.0[3]], [0.0; 3]);
                }
            }
        }
    }
}
