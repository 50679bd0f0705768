//! Field realisation sampling — eq. (28) and the mapping step of
//! Algorithm 2.

use crate::{GalerkinKle, KleError};
use klest_geometry::Point2;
use klest_linalg::Matrix;
use klest_mesh::{Mesh, TriangleLocator};

/// Draws realisations of the random field from `r` uncorrelated standard
/// normals: `p_Δ = D_λ ξ` (paper eq. 28), plus the
/// gate-location-to-triangle gather of Algorithm 2 (lines 4–7).
///
/// ```
/// use klest_core::{GalerkinKle, KleOptions, KleSampler};
/// use klest_kernels::GaussianKernel;
/// use klest_mesh::MeshBuilder;
/// use klest_geometry::{Point2, Rect};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mesh = MeshBuilder::new(Rect::unit_die()).max_area(0.1).build()?;
/// let kle = GalerkinKle::compute(&mesh, &GaussianKernel::new(1.0), KleOptions::default())?;
/// let sampler = KleSampler::new(&kle, &mesh, 5)?;
/// let field = sampler.realize(&[0.1, -0.3, 0.5, 0.0, 1.0])?;
/// assert_eq!(field.len(), mesh.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KleSampler {
    /// `n x r` reconstruction matrix `D √Λ`.
    d_lambda: Matrix,
    locator: TriangleLocator,
}

impl KleSampler {
    /// Builds a sampler of rank `r` from a computed KLE.
    ///
    /// # Errors
    ///
    /// [`KleError::RankOutOfRange`] if `r` is 0 or exceeds the retained
    /// eigenpairs.
    pub fn new(kle: &GalerkinKle, mesh: &Mesh, r: usize) -> Result<Self, KleError> {
        let d_lambda = kle.reconstruction_matrix(r)?;
        Ok(KleSampler {
            d_lambda,
            locator: mesh.locator(),
        })
    }

    /// The truncation rank `r` (number of uncorrelated RVs).
    pub fn rank(&self) -> usize {
        self.d_lambda.cols()
    }

    /// Number of mesh triangles `n`.
    pub fn basis_size(&self) -> usize {
        self.d_lambda.rows()
    }

    /// One field realisation over all triangles from a standard-normal
    /// vector `ξ` of length `r`.
    ///
    /// # Errors
    ///
    /// [`KleError::SampleDimensionMismatch`] if `ξ` has the wrong length.
    pub fn realize(&self, xi: &[f64]) -> Result<Vec<f64>, KleError> {
        if xi.len() != self.rank() {
            return Err(KleError::SampleDimensionMismatch {
                expected: self.rank(),
                got: xi.len(),
            });
        }
        Ok(self.d_lambda.mul_vec(xi).expect("dimensions checked above"))
    }

    /// Maps arbitrary die locations (gate positions) to their containing
    /// triangles — `IndexOfContainingTriangle()` from Algorithm 2, done
    /// once up front.
    ///
    /// # Errors
    ///
    /// [`KleError::PointOutsideMesh`] with the index of the first point
    /// outside the meshed area.
    pub fn triangles_of(&self, points: &[Point2]) -> Result<Vec<usize>, KleError> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                self.locator
                    .locate(p)
                    .ok_or(KleError::PointOutsideMesh { index: i })
            })
            .collect()
    }

    /// Like [`triangles_of`](Self::triangles_of), but never fails: points
    /// outside the meshed area are clamped to the triangle with the
    /// nearest centroid. Returns the triangle indices plus how many
    /// points needed clamping, so callers can record the degradation.
    pub fn triangles_of_clamped(&self, points: &[Point2]) -> (Vec<usize>, usize) {
        let mut clamped = 0usize;
        let tris = points
            .iter()
            .map(|&p| {
                let (t, was_clamped) = self.locator.locate_or_nearest(p);
                if was_clamped {
                    clamped += 1;
                }
                t
            })
            .collect();
        (tris, clamped)
    }

    /// Field realisation gathered at pre-located triangles: the per-gate
    /// parameter values of Algorithm 2.
    ///
    /// # Errors
    ///
    /// [`KleError::SampleDimensionMismatch`] for a wrong-length `ξ`;
    /// [`KleError::TriangleOutOfRange`] if any triangle index exceeds the
    /// mesh (e.g. indices located against a different mesh).
    pub fn realize_at(&self, xi: &[f64], triangles: &[usize]) -> Result<Vec<f64>, KleError> {
        let field = self.realize(xi)?;
        triangles
            .iter()
            .map(|&t| {
                field.get(t).copied().ok_or(KleError::TriangleOutOfRange {
                    index: t,
                    triangles: field.len(),
                })
            })
            .collect()
    }

    /// The reconstruction matrix `D_λ` (shared with benches that time the
    /// matrix-matrix form `P_Δ = D_λ Ξ` of Algorithm 2 line 3).
    pub fn reconstruction_matrix(&self) -> &Matrix {
        &self.d_lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KleOptions;
    use klest_geometry::Rect;
    use klest_kernels::{CovarianceKernel, GaussianKernel};
    use klest_mesh::MeshBuilder;

    fn setup(r: usize) -> (Mesh, GalerkinKle, KleSampler) {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kle =
            GalerkinKle::compute(&mesh, &GaussianKernel::new(1.5), KleOptions::default()).unwrap();
        let sampler = KleSampler::new(&kle, &mesh, r).unwrap();
        (mesh, kle, sampler)
    }

    #[test]
    fn shapes_and_errors() {
        let (mesh, kle, sampler) = setup(8);
        assert_eq!(sampler.rank(), 8);
        assert_eq!(sampler.basis_size(), mesh.len());
        assert!(matches!(
            sampler.realize(&[0.0; 3]),
            Err(KleError::SampleDimensionMismatch {
                expected: 8,
                got: 3
            })
        ));
        assert!(KleSampler::new(&kle, &mesh, 0).is_err());
        assert!(KleSampler::new(&kle, &mesh, kle.retained() + 1).is_err());
    }

    #[test]
    fn zero_xi_gives_zero_field() {
        let (_, _, sampler) = setup(8);
        let field = sampler.realize(&[0.0; 8]).unwrap();
        assert!(field.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_mode_realization_is_scaled_eigenfunction() {
        let (_, kle, sampler) = setup(4);
        let mut xi = vec![0.0; 4];
        xi[1] = 2.0;
        let field = sampler.realize(&xi).unwrap();
        let lam = kle.eigenvalues()[1];
        let f1 = kle.eigenfunction(1);
        for (v, f) in field.iter().zip(f1.iter()) {
            assert!((v - 2.0 * lam.sqrt() * f).abs() < 1e-12);
        }
    }

    #[test]
    fn triangles_of_and_gather() {
        let (mesh, _, sampler) = setup(6);
        let gates = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.5, -0.5),
            Point2::new(-0.9, 0.9),
        ];
        let tris = sampler.triangles_of(&gates).unwrap();
        for (g, &t) in gates.iter().zip(&tris) {
            assert!(mesh.triangle(t).contains(*g));
        }
        let xi = vec![0.3, -0.2, 0.8, 0.0, 0.1, -0.4];
        let full = sampler.realize(&xi).unwrap();
        let at = sampler.realize_at(&xi, &tris).unwrap();
        for (k, &t) in tris.iter().enumerate() {
            assert_eq!(at[k], full[t]);
        }
        // Outside point errors with its index.
        let bad = sampler.triangles_of(&[Point2::ORIGIN, Point2::new(9.0, 9.0)]);
        assert!(matches!(bad, Err(KleError::PointOutsideMesh { index: 1 })));
    }

    #[test]
    fn realize_at_rejects_out_of_range_triangle() {
        let (mesh, _, sampler) = setup(4);
        let xi = [0.1, 0.2, -0.3, 0.4];
        let bad = sampler.realize_at(&xi, &[0, mesh.len() + 5]);
        assert!(matches!(
            bad,
            Err(KleError::TriangleOutOfRange { index, .. }) if index == mesh.len() + 5
        ));
    }

    #[test]
    fn triangles_of_clamped_recovers_offdie_points() {
        let (mesh, _, sampler) = setup(6);
        let gates = vec![
            Point2::new(0.0, 0.0),
            Point2::new(9.0, 9.0), // far off-die
            Point2::new(-0.5, 0.5),
        ];
        let (tris, clamped) = sampler.triangles_of_clamped(&gates);
        assert_eq!(tris.len(), 3);
        assert_eq!(clamped, 1);
        // In-die points agree with the strict path.
        let strict = sampler.triangles_of(&[gates[0], gates[2]]).unwrap();
        assert_eq!(tris[0], strict[0]);
        assert_eq!(tris[2], strict[1]);
        // The clamped point lands on the triangle nearest the top-right
        // corner.
        let c = mesh.centroids()[tris[1]];
        assert!(c.x > 0.5 && c.y > 0.5, "clamped to {c}");
        // All-inside input clamps nothing.
        let (_, none) = sampler.triangles_of_clamped(&[gates[0], gates[2]]);
        assert_eq!(none, 0);
    }

    #[test]
    fn sample_covariance_approximates_kernel() {
        // Monte Carlo check of the core KLE promise: fields built from r
        // uncorrelated normals reproduce the kernel's covariance between
        // two well-separated triangles.
        let (mesh, kle, sampler) = setup(kle_rank());
        fn kle_rank() -> usize {
            24
        }
        let kern = GaussianKernel::new(1.5);
        // Two triangle indices: near center and offset.
        let loc = mesh.locator();
        let t1 = loc.locate(Point2::new(0.0, 0.0)).unwrap();
        let t2 = loc.locate(Point2::new(0.4, 0.2)).unwrap();
        let _ = &kle;
        // Deterministic normals via a simple LCG + Box-Muller.
        let mut seed = 7u64;
        let mut unif = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        let mut normal = move || {
            let (u1, u2): (f64, f64) = (unif(), unif());
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let n_samples = 20_000;
        let (mut s1, mut s2, mut s12, mut s11, mut s22) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n_samples {
            let xi: Vec<f64> = (0..sampler.rank()).map(|_| normal()).collect();
            let f = sampler.realize(&xi).unwrap();
            s1 += f[t1];
            s2 += f[t2];
            s12 += f[t1] * f[t2];
            s11 += f[t1] * f[t1];
            s22 += f[t2] * f[t2];
        }
        let nf = n_samples as f64;
        let (m1, m2) = (s1 / nf, s2 / nf);
        let cov = s12 / nf - m1 * m2;
        let var1 = s11 / nf - m1 * m1;
        let var2 = s22 / nf - m2 * m2;
        let expected = kern.eval(mesh.centroids()[t1], mesh.centroids()[t2]);
        assert!(
            (cov - expected).abs() < 0.05,
            "cov = {cov}, kernel = {expected}"
        );
        // Truncated variance is slightly below 1 but close.
        assert!(var1 > 0.85 && var1 < 1.1, "var1 = {var1}");
        assert!(var2 > 0.85 && var2 < 1.1, "var2 = {var2}");
    }
}
