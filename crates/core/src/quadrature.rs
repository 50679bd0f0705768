//! Triangle quadrature rules.
//!
//! The paper integrates with the centroid rule (eq. 20/21) and proves its
//! linear convergence in the mesh size `h` (Theorem 2), noting that
//! "higher order piecewise polynomials ... along with high order numerical
//! integration" may also be used. This module provides the centroid rule
//! plus two standard symmetric Gauss rules on the triangle so that the
//! accuracy/cost trade-off can be measured (ablation in the benches).

use klest_geometry::{Point2, Triangle};

/// A numerical integration rule over a triangle.
///
/// All rules return nodes with weights that sum to the triangle area, so
/// `∫_Δ g ≈ Σ w_q g(x_q)` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuadratureRule {
    /// One point at the centroid — exact for linear integrands; the
    /// paper's rule (eq. 20).
    #[default]
    Centroid,
    /// Three midside points — exact for quadratics.
    ThreePoint,
    /// Seven-point symmetric rule — exact for degree-5 polynomials.
    SevenPoint,
}

impl QuadratureRule {
    /// Number of nodes of the rule.
    pub fn node_count(&self) -> usize {
        match self {
            QuadratureRule::Centroid => 1,
            QuadratureRule::ThreePoint => 3,
            QuadratureRule::SevenPoint => 7,
        }
    }

    /// Nodes and weights on a concrete triangle. Weights sum to the
    /// triangle's area.
    pub fn nodes(&self, t: &Triangle) -> Vec<(Point2, f64)> {
        let area = t.area();
        let bary = |l1: f64, l2: f64, l3: f64| {
            Point2::new(
                l1 * t.a.x + l2 * t.b.x + l3 * t.c.x,
                l1 * t.a.y + l2 * t.b.y + l3 * t.c.y,
            )
        };
        match self {
            QuadratureRule::Centroid => {
                vec![(t.centroid(), area)]
            }
            QuadratureRule::ThreePoint => {
                let w = area / 3.0;
                vec![
                    (bary(0.5, 0.5, 0.0), w),
                    (bary(0.0, 0.5, 0.5), w),
                    (bary(0.5, 0.0, 0.5), w),
                ]
            }
            QuadratureRule::SevenPoint => {
                // Standard degree-5 rule (Strang & Fix / Cowper).
                let w0 = 0.225;
                let a1 = 0.059_715_871_789_77;
                let b1 = 0.470_142_064_105_115;
                let w1 = 0.132_394_152_788_506;
                let a2 = 0.797_426_985_353_087;
                let b2 = 0.101_286_507_323_456;
                let w2 = 0.125_939_180_544_827;
                vec![
                    (bary(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), w0 * area),
                    (bary(a1, b1, b1), w1 * area),
                    (bary(b1, a1, b1), w1 * area),
                    (bary(b1, b1, a1), w1 * area),
                    (bary(a2, b2, b2), w2 * area),
                    (bary(b2, a2, b2), w2 * area),
                    (bary(b2, b2, a2), w2 * area),
                ]
            }
        }
    }

    /// Integrates `g` over the triangle with this rule.
    pub fn integrate<F: Fn(Point2) -> f64>(&self, t: &Triangle, g: F) -> f64 {
        self.nodes(t).iter().map(|&(p, w)| w * g(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Triangle {
        Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 3.0),
        )
    }

    #[test]
    fn weights_sum_to_area() {
        let t = tri();
        for rule in [
            QuadratureRule::Centroid,
            QuadratureRule::ThreePoint,
            QuadratureRule::SevenPoint,
        ] {
            let total: f64 = rule.nodes(&t).iter().map(|&(_, w)| w).sum();
            assert!((total - t.area()).abs() < 1e-12, "{rule:?}");
            assert_eq!(rule.nodes(&t).len(), rule.node_count());
        }
    }

    #[test]
    fn constant_integrand_exact_for_all_rules() {
        let t = tri();
        for rule in [
            QuadratureRule::Centroid,
            QuadratureRule::ThreePoint,
            QuadratureRule::SevenPoint,
        ] {
            let v = rule.integrate(&t, |_| 2.5);
            assert!((v - 2.5 * t.area()).abs() < 1e-12, "{rule:?}");
        }
    }

    #[test]
    fn linear_integrand_exact_for_all_rules() {
        // ∫ (x + y) over the triangle = area * (x̄ + ȳ) at the centroid.
        let t = tri();
        let exact = t.area() * (t.centroid().x + t.centroid().y);
        for rule in [
            QuadratureRule::Centroid,
            QuadratureRule::ThreePoint,
            QuadratureRule::SevenPoint,
        ] {
            let v = rule.integrate(&t, |p| p.x + p.y);
            assert!((v - exact).abs() < 1e-12, "{rule:?}: {v} vs {exact}");
        }
    }

    #[test]
    fn quadratic_exact_for_three_point() {
        // ∫ x² over the right triangle (0,0)-(2,0)-(0,3).
        // ∫∫ x² dy dx with y from 0 to 3(1 - x/2): ∫_0^2 x² 3(1-x/2) dx
        // = 3 [x³/3 - x⁴/8]_0^2 = 3 (8/3 - 2) = 2.
        let t = tri();
        let exact = 2.0;
        let v3 = QuadratureRule::ThreePoint.integrate(&t, |p| p.x * p.x);
        assert!((v3 - exact).abs() < 1e-12, "3-point: {v3}");
        let v7 = QuadratureRule::SevenPoint.integrate(&t, |p| p.x * p.x);
        assert!((v7 - exact).abs() < 1e-12, "7-point: {v7}");
        // Centroid rule is NOT exact for quadratics.
        let v1 = QuadratureRule::Centroid.integrate(&t, |p| p.x * p.x);
        assert!((v1 - exact).abs() > 1e-3, "centroid rule should be inexact");
    }

    #[test]
    fn quintic_exact_for_seven_point() {
        // ∫ x⁵ over the unit right triangle (0,0)-(1,0)-(0,1):
        // ∫_0^1 x⁵(1-x) dx = 1/6 - 1/7 = 1/42.
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        );
        let exact = 1.0 / 42.0;
        let v = QuadratureRule::SevenPoint.integrate(&t, |p| p.x.powi(5));
        assert!((v - exact).abs() < 1e-12, "{v} vs {exact}");
        // 3-point rule is not exact at degree 5.
        let v3 = QuadratureRule::ThreePoint.integrate(&t, |p| p.x.powi(5));
        assert!((v3 - exact).abs() > 1e-6);
    }

    #[test]
    fn rule_accuracy_ordering_on_smooth_function() {
        // For exp(-(x²+y²)) the error should not increase with rule order.
        let t = tri();
        // High-resolution reference by subdividing with the 7-point rule.
        let mut reference = 0.0;
        let sub = 32;
        for i in 0..sub {
            for j in 0..sub {
                // Map the subdivision of the reference triangle.
                let f = |u: f64, v: f64| {
                    Point2::new(
                        t.a.x + u * (t.b.x - t.a.x) + v * (t.c.x - t.a.x),
                        t.a.y + u * (t.b.y - t.a.y) + v * (t.c.y - t.a.y),
                    )
                };
                let (u0, v0) = (i as f64 / sub as f64, j as f64 / sub as f64);
                let du = 1.0 / sub as f64;
                if (i + j) < sub {
                    let tt = Triangle::new(f(u0, v0), f(u0 + du, v0), f(u0, v0 + du));
                    reference += QuadratureRule::SevenPoint
                        .integrate(&tt, |p| (-(p.x * p.x + p.y * p.y)).exp());
                }
                if i + j + 2 <= sub {
                    let tt = Triangle::new(f(u0 + du, v0), f(u0 + du, v0 + du), f(u0, v0 + du));
                    reference += QuadratureRule::SevenPoint
                        .integrate(&tt, |p| (-(p.x * p.x + p.y * p.y)).exp());
                }
            }
        }
        let g = |p: Point2| (-(p.x * p.x + p.y * p.y)).exp();
        let e1 = (QuadratureRule::Centroid.integrate(&t, g) - reference).abs();
        let e7 = (QuadratureRule::SevenPoint.integrate(&t, g) - reference).abs();
        assert!(e7 < e1, "7-point ({e7}) should beat centroid ({e1})");
    }
}
