//! Convergence studies for the Galerkin method (Theorem 2).
//!
//! The paper proves the centroid-rule integration error — and hence the
//! whole method ([3]) — converges linearly in the longest triangle side
//! `h`. This module packages the machinery to measure that: run the KLE
//! across a mesh-refinement ladder, compare against a reference spectrum
//! and fit the observed convergence order `p` in `error = C·h^p` by
//! log-log regression.

use crate::{GalerkinKle, KleError, KleOptions, QuadratureRule};
use klest_geometry::Rect;
use klest_kernels::CovarianceKernel;
use klest_mesh::{MeshBuilder, MeshError};

/// One rung of a refinement ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Number of triangles `n`.
    pub triangles: usize,
    /// Longest triangle side `h`.
    pub h: f64,
    /// Error against the reference (max relative error over the compared
    /// eigenvalues).
    pub error: f64,
}

/// Result of a convergence study.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceStudy {
    /// The ladder, fine to coarse as supplied.
    pub points: Vec<ConvergencePoint>,
    /// Fitted order `p` in `error ≈ C h^p` (log-log least squares).
    pub order: f64,
}

/// Errors from a convergence study.
#[derive(Debug)]
pub enum ConvergenceError {
    /// Meshing failed at one rung.
    Mesh(MeshError),
    /// KLE computation failed at one rung.
    Kle(KleError),
    /// Fewer than two rungs were requested — no order can be fitted.
    TooFewRungs,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvergenceError::Mesh(e) => write!(f, "meshing failed: {e}"),
            ConvergenceError::Kle(e) => write!(f, "KLE failed: {e}"),
            ConvergenceError::TooFewRungs => write!(f, "need at least two mesh sizes"),
        }
    }
}

impl std::error::Error for ConvergenceError {}

/// Runs the KLE across `max_areas` (one mesh per entry) and measures the
/// worst relative error of the first `compare` eigenvalues against
/// `reference` (e.g. an analytic spectrum, or a much finer mesh's).
///
/// # Errors
///
/// [`ConvergenceError`] if meshing/KLE fails or fewer than two rungs are
/// given.
pub fn eigenvalue_convergence<K: CovarianceKernel + ?Sized>(
    kernel: &K,
    reference: &[f64],
    max_areas: &[f64],
    compare: usize,
    rule: QuadratureRule,
) -> Result<ConvergenceStudy, ConvergenceError> {
    if max_areas.len() < 2 {
        return Err(ConvergenceError::TooFewRungs);
    }
    let compare = compare.min(reference.len());
    let mut points = Vec::with_capacity(max_areas.len());
    for &area in max_areas {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(area)
            .min_angle_degrees(28.0)
            .build()
            .map_err(ConvergenceError::Mesh)?;
        let options = KleOptions {
            quadrature: rule,
            max_eigenpairs: compare.max(1),
            ..KleOptions::default()
        };
        let kle = GalerkinKle::compute(&mesh, kernel, options).map_err(ConvergenceError::Kle)?;
        let mut err = 0.0f64;
        for (a, e) in kle.eigenvalues().iter().zip(reference).take(compare) {
            err = err.max((a - e).abs() / e.abs().max(f64::MIN_POSITIVE));
        }
        points.push(ConvergencePoint {
            triangles: mesh.len(),
            h: mesh.max_side(),
            error: err,
        });
    }
    // Log-log regression: slope of ln(error) against ln(h).
    let usable: Vec<&ConvergencePoint> = points.iter().filter(|p| p.error > 0.0).collect();
    let order = if usable.len() >= 2 {
        let n = usable.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for p in &usable {
            let x = p.h.ln();
            let y = p.error.ln();
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    } else {
        0.0
    };
    Ok(ConvergenceStudy { points, order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::separable_2d_eigenvalues;
    use klest_kernels::SeparableExponentialKernel;

    #[test]
    fn observed_order_is_positive_and_near_linear_or_better() {
        let kernel = SeparableExponentialKernel::new(1.0);
        let reference = separable_2d_eigenvalues(1.0, 1.0, 5);
        let study = eigenvalue_convergence(
            &kernel,
            &reference,
            &[0.1, 0.05, 0.02, 0.01],
            5,
            QuadratureRule::Centroid,
        )
        .unwrap();
        assert_eq!(study.points.len(), 4);
        // h decreases down the ladder, error with it.
        for w in study.points.windows(2) {
            assert!(w[1].h < w[0].h, "h must shrink");
        }
        assert!(
            study.points.last().unwrap().error < study.points[0].error,
            "finest rung must beat coarsest"
        );
        // Theorem 2 guarantees at least linear convergence.
        assert!(
            study.order > 0.7,
            "observed order {} too low for a linear method",
            study.order
        );
    }

    #[test]
    fn too_few_rungs_rejected() {
        let kernel = SeparableExponentialKernel::new(1.0);
        let reference = [1.0];
        assert!(matches!(
            eigenvalue_convergence(&kernel, &reference, &[0.1], 1, QuadratureRule::Centroid),
            Err(ConvergenceError::TooFewRungs)
        ));
    }

    #[test]
    fn higher_order_rule_reports_smaller_errors() {
        let kernel = SeparableExponentialKernel::new(1.0);
        let reference = separable_2d_eigenvalues(1.0, 1.0, 3);
        let ladder = [0.1, 0.04];
        let centroid =
            eigenvalue_convergence(&kernel, &reference, &ladder, 3, QuadratureRule::Centroid)
                .unwrap();
        let seven =
            eigenvalue_convergence(&kernel, &reference, &ladder, 3, QuadratureRule::SevenPoint)
                .unwrap();
        for (c, s) in centroid.points.iter().zip(&seven.points) {
            assert!(
                s.error <= c.error * 1.05,
                "7-point {} should not lose to centroid {}",
                s.error,
                c.error
            );
        }
    }
}
