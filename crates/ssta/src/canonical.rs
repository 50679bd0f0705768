//! Canonical first-order (block-based) SSTA on the KLE basis.
//!
//! The paper argues the KLE's few uncorrelated RVs "can then be used as
//! parameters for the gate timing models" of analytical SSTA tools
//! ([5][6]). This module demonstrates exactly that: arrival times are
//! propagated symbolically in Visweswariah's *canonical form*
//!
//! `A = a₀ + Σ_{k,j} a_{k,j} ξ_{k,j} + a_ind Δ`
//!
//! over the `4·r` KLE variables (four parameters × rank `r`), with sums
//! exact and `max` handled by Clark's two-moment approximation. One
//! topological pass replaces the N-sample Monte Carlo loop — at the cost
//! of linearising the gate models and Clark's Gaussian-max error, both of
//! which the `canonical_vs_monte_carlo` tests quantify.

use crate::{GateFieldSampler, KleFieldSampler, SstaError};
use klest_circuit::NodeId;
use klest_sta::{ParamVector, Timer};

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf polynomial
/// (|error| < 1.5e-7).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal PDF.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function (A&S 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// An arrival time in canonical form: mean, sensitivities to the shared
/// KLE variables, and an independent residual.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalForm {
    /// Mean `a₀`.
    pub mean: f64,
    /// Sensitivities to the shared ξ variables.
    pub sens: Vec<f64>,
    /// Independent (uncorrelated) residual magnitude `a_ind ≥ 0`.
    pub indep: f64,
}

impl CanonicalForm {
    /// A deterministic constant.
    pub fn constant(value: f64, dim: usize) -> Self {
        CanonicalForm {
            mean: value,
            sens: vec![0.0; dim],
            indep: 0.0,
        }
    }

    /// Variance `Σ aᵢ² + a_ind²`.
    pub fn variance(&self) -> f64 {
        self.sens.iter().map(|a| a * a).sum::<f64>() + self.indep * self.indep
    }

    /// Standard deviation.
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Adds a deterministic offset.
    pub fn shift(&mut self, c: f64) {
        self.mean += c;
    }

    /// Adds another canonical form (exact for sums; independent residuals
    /// add in quadrature).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&mut self, other: &CanonicalForm) {
        assert_eq!(self.sens.len(), other.sens.len(), "dimension mismatch");
        self.mean += other.mean;
        for (a, b) in self.sens.iter_mut().zip(&other.sens) {
            *a += b;
        }
        self.indep = (self.indep * self.indep + other.indep * other.indep).sqrt();
    }

    /// Correlation coefficient with another form (shared-variable part
    /// only; independent residuals are uncorrelated by construction).
    pub fn correlation(&self, other: &CanonicalForm) -> f64 {
        let sx = self.sigma();
        let sy = other.sigma();
        if sx <= 0.0 || sy <= 0.0 {
            return 0.0;
        }
        let cov: f64 = self.sens.iter().zip(&other.sens).map(|(a, b)| a * b).sum();
        (cov / (sx * sy)).clamp(-1.0, 1.0)
    }

    /// Clark's approximation of `max(X, Y)` as a new canonical form:
    /// exact first two moments of the max of correlated Gaussians,
    /// sensitivities blended by the tightness probability `Φ(α)`, and
    /// the independent residual set to preserve the Clark variance.
    pub fn clark_max(x: &CanonicalForm, y: &CanonicalForm) -> CanonicalForm {
        debug_assert_eq!(x.sens.len(), y.sens.len());
        let (sx, sy) = (x.sigma(), y.sigma());
        let rho = x.correlation(y);
        let a2 = (sx * sx + sy * sy - 2.0 * rho * sx * sy).max(0.0);
        let a = a2.sqrt();
        // Degeneracy test is relative: rounding in rho leaves a ~
        // sqrt(eps) even for literally identical forms, and at a <= 1e-7
        // sigma the Clark correction is negligible anyway.
        if a <= 1e-7 * (sx + sy) + 1e-300 {
            // (Numerically) the same variable up to mean: the larger
            // mean wins.
            return if x.mean >= y.mean {
                x.clone()
            } else {
                y.clone()
            };
        }
        let alpha = (x.mean - y.mean) / a;
        let phi_a = normal_cdf(alpha);
        let phi_b = 1.0 - phi_a;
        let pdf = normal_pdf(alpha);
        let mean = x.mean * phi_a + y.mean * phi_b + a * pdf;
        let second = (x.mean * x.mean + sx * sx) * phi_a
            + (y.mean * y.mean + sy * sy) * phi_b
            + (x.mean + y.mean) * a * pdf;
        let variance = (second - mean * mean).max(0.0);
        // Tightness-weighted sensitivities.
        let sens: Vec<f64> = x
            .sens
            .iter()
            .zip(&y.sens)
            .map(|(ax, ay)| phi_a * ax + phi_b * ay)
            .collect();
        let shared: f64 = sens.iter().map(|v| v * v).sum();
        let indep = (variance - shared).max(0.0).sqrt();
        CanonicalForm { mean, sens, indep }
    }
}

/// Result of one canonical SSTA pass.
#[derive(Debug, Clone)]
pub struct CanonicalReport {
    /// Canonical arrival at every node.
    arrivals: Vec<CanonicalForm>,
    /// Canonical worst delay (Clark-max over primary outputs).
    worst: CanonicalForm,
}

impl CanonicalReport {
    /// Canonical arrival at node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn arrival(&self, id: NodeId) -> &CanonicalForm {
        &self.arrivals[id.index()]
    }

    /// The canonical worst-delay form — its `mean`/`sigma` are the
    /// one-pass analogues of the Monte Carlo Table 1 statistics.
    pub fn worst(&self) -> &CanonicalForm {
        &self.worst
    }
}

/// Runs the canonical first-order SSTA: one topological pass propagating
/// canonical forms over the `4·rank` KLE variables.
///
/// Simplifications relative to the Monte Carlo reference (quantified in
/// the integration tests): gate delays are linearised at the nominal
/// point (the quadratic term is dropped), slews are frozen at their
/// nominal values, and every `max` is Clark-approximated.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] if the sampler's node count differs from
/// the timer's.
pub fn analyze_canonical(
    timer: &Timer,
    kle: &KleFieldSampler,
) -> Result<CanonicalReport, SstaError> {
    let nominal = vec![ParamVector::ZERO; timer.node_count()];
    analyze_canonical_with(timer, kle, &nominal)
}

/// Gate-delay sensitivities of node `id` in ξ-space: for parameter `k`
/// with nominal-point sensitivity `β v_k`, the field at this gate is
/// `loading · ξ_k`, so `∂d/∂ξ_{k,j} = β v_k · loading_j`. `None` for
/// primary inputs. Shared by the flat canonical pass and the
/// hierarchical per-block extraction ([`crate::hier`]) so both propagate
/// identical deviations.
pub(crate) fn xi_delay_sens(timer: &Timer, kle: &KleFieldSampler, id: NodeId) -> Option<Vec<f64>> {
    let beta_v = timer.delay_sensitivity(id)?;
    let r = kle.rank();
    let loading = kle.loading_row(id.index());
    let mut delay_sens = vec![0.0; 4 * r];
    for (k, bv) in beta_v.iter().enumerate() {
        for (j, &g) in loading.iter().enumerate() {
            delay_sens[k * r + j] = bv * g;
        }
    }
    Some(delay_sens)
}

/// The parameterized canonical pass: like [`analyze_canonical`] but with
/// deterministic edge delays evaluated at the given per-node parameter
/// deviations (slews stay frozen at the zero-parameter nominal, so an
/// edit to one gate perturbs only the edges into that gate). With
/// `params` all zero this is bitwise-identical to [`analyze_canonical`];
/// it is the flat reference the hierarchical engine's gate-edit re-time
/// is differenced against.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] if the sampler's node count or
/// `params.len()` differs from the timer's node count.
pub fn analyze_canonical_with(
    timer: &Timer,
    kle: &KleFieldSampler,
    params: &[ParamVector],
) -> Result<CanonicalReport, SstaError> {
    let n = timer.node_count();
    if kle.node_count() != n {
        return Err(SstaError::InvalidConfig {
            name: "sampler.node_count",
            value: format!("{} (timer has {n})", kle.node_count()),
        });
    }
    if params.len() != n {
        return Err(SstaError::InvalidConfig {
            name: "params.len",
            value: format!("{} (timer has {n})", params.len()),
        });
    }
    let r = kle.rank();
    let dim = 4 * r;
    // Nominal pass for the frozen slews.
    let nominal_params = vec![ParamVector::ZERO; n];
    let nominal = timer.analyze(&nominal_params);

    let mut arrivals: Vec<CanonicalForm> = Vec::with_capacity(n);
    for i in 0..n {
        let id = NodeId(i as u32);
        let Some(delay_sens) = xi_delay_sens(timer, kle, id) else {
            // Primary input.
            arrivals.push(CanonicalForm::constant(0.0, dim));
            continue;
        };
        let mut best: Option<CanonicalForm> = None;
        for &f in timer.fanins_of(id) {
            // Deterministic edge delay at `params` + this gate's deviation.
            let edge = timer.edge_delay(f, id, nominal.slews(), params);
            let mut cand = arrivals[f.index()].clone();
            cand.shift(edge);
            let dev = CanonicalForm {
                mean: 0.0,
                sens: delay_sens.clone(),
                indep: 0.0,
            };
            cand.add(&dev);
            best = Some(match best {
                None => cand,
                Some(b) => CanonicalForm::clark_max(&b, &cand),
            });
        }
        arrivals.push(best.unwrap_or_else(|| CanonicalForm::constant(0.0, dim)));
    }

    // Worst over outputs.
    let mut worst: Option<CanonicalForm> = None;
    for &o in timer.outputs() {
        let a = &arrivals[o.index()];
        worst = Some(match worst {
            None => a.clone(),
            Some(w) => CanonicalForm::clark_max(&w, a),
        });
    }
    let worst = worst.unwrap_or_else(|| CanonicalForm::constant(0.0, dim));
    Ok(CanonicalReport { arrivals, worst })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NormalSource, SstaError};
    use klest_rng::{SeedableRng, StdRng};

    #[test]
    fn erf_and_cdf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6, "odd function");
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        assert!((normal_cdf(1.959_963_985) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.959_963_985) - 0.025).abs() < 1e-5);
        assert!((normal_pdf(0.0) - 0.398_942_28).abs() < 1e-7);
    }

    #[test]
    fn canonical_form_algebra() {
        let mut a = CanonicalForm {
            mean: 10.0,
            sens: vec![3.0, 4.0],
            indep: 0.0,
        };
        assert_eq!(a.variance(), 25.0);
        assert_eq!(a.sigma(), 5.0);
        a.shift(2.0);
        assert_eq!(a.mean, 12.0);
        let b = CanonicalForm {
            mean: 1.0,
            sens: vec![1.0, -1.0],
            indep: 2.0,
        };
        let mut c = a.clone();
        c.add(&b);
        assert_eq!(c.mean, 13.0);
        assert_eq!(c.sens, vec![4.0, 3.0]);
        assert_eq!(c.indep, 2.0);
        // Correlation of a form with itself is 1.
        assert!((a.correlation(&a) - 1.0).abs() < 1e-12);
        // Orthogonal sensitivities -> zero correlation.
        let d = CanonicalForm {
            mean: 0.0,
            sens: vec![-4.0, 3.0],
            indep: 0.0,
        };
        assert!(a.correlation(&d).abs() < 1e-12);
    }

    #[test]
    fn clark_max_of_identical_forms_is_identity() {
        // Fully shared sensitivities (no independent residual): X and X
        // are literally the same variable, so max(X, X) = X.
        let x = CanonicalForm {
            mean: 5.0,
            sens: vec![1.0, 2.0],
            indep: 0.0,
        };
        let m = CanonicalForm::clark_max(&x, &x);
        assert!((m.mean - x.mean).abs() < 1e-9);
        assert!((m.sigma() - x.sigma()).abs() < 1e-9);
        // With an independent residual the two arguments are distinct
        // variables that happen to share moments; the max is then larger
        // in mean (E[max of two correlated-but-distinct normals] > mean).
        let y = CanonicalForm {
            mean: 5.0,
            sens: vec![1.0, 2.0],
            indep: 0.5,
        };
        let m2 = CanonicalForm::clark_max(&y, &y);
        assert!(m2.mean > y.mean);
    }

    #[test]
    fn clark_max_dominance() {
        // When X >> Y the max is X.
        let x = CanonicalForm {
            mean: 100.0,
            sens: vec![1.0],
            indep: 0.0,
        };
        let y = CanonicalForm {
            mean: 0.0,
            sens: vec![0.5],
            indep: 0.0,
        };
        let m = CanonicalForm::clark_max(&x, &y);
        assert!((m.mean - 100.0).abs() < 1e-6);
        assert!((m.sens[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clark_max_matches_sampled_moments() {
        // Two correlated Gaussians; compare Clark's mean/σ against brute
        // force sampling of max(X, Y).
        let x = CanonicalForm {
            mean: 10.0,
            sens: vec![2.0, 1.0],
            indep: 0.0,
        };
        let y = CanonicalForm {
            mean: 10.5,
            sens: vec![1.0, 2.0],
            indep: 0.5,
        };
        let clark = CanonicalForm::clark_max(&x, &y);
        let mut normals = NormalSource::new(StdRng::seed_from_u64(5));
        let nsamp = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..nsamp {
            let xi = [normals.sample(), normals.sample()];
            let d = normals.sample();
            let vx = x.mean + x.sens[0] * xi[0] + x.sens[1] * xi[1];
            let vy = y.mean + y.sens[0] * xi[0] + y.sens[1] * xi[1] + y.indep * d;
            let m = vx.max(vy);
            s1 += m;
            s2 += m * m;
        }
        let mean = s1 / nsamp as f64;
        let sigma = (s2 / nsamp as f64 - mean * mean).sqrt();
        assert!(
            (clark.mean - mean).abs() < 0.02,
            "{} vs {}",
            clark.mean,
            mean
        );
        assert!(
            (clark.sigma() - sigma).abs() < 0.03,
            "{} vs {}",
            clark.sigma(),
            sigma
        );
    }

    #[test]
    fn node_count_mismatch_rejected() {
        use crate::experiments::{CircuitSetup, KleContext};
        use klest_circuit::{generate, GeneratorConfig};
        use klest_kernels::GaussianKernel;
        let kernel = GaussianKernel::new(2.0);
        let ctx = KleContext::coarse(&kernel).unwrap();
        let a =
            CircuitSetup::prepare(&generate("a", GeneratorConfig::combinational(40, 1)).unwrap());
        let b =
            CircuitSetup::prepare(&generate("b", GeneratorConfig::combinational(41, 1)).unwrap());
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, 10, a.locations()).unwrap();
        assert!(matches!(
            analyze_canonical(&b.timer, &sampler),
            Err(SstaError::InvalidConfig { .. })
        ));
    }
}
