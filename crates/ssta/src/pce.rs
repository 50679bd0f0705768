//! Polynomial-chaos response surface of circuit delay on the KLE basis.
//!
//! The paper contrasts itself with the polynomial-chaos SSTA of [2];
//! this module shows the two compose: once the field is compressed to
//! `4·r` uncorrelated standard normals ξ, the worst delay admits a cheap
//! Hermite surrogate
//!
//! `D(ξ) ≈ c₀ + Σᵢ aᵢ He₁(ξᵢ) + Σᵢ bᵢ He₂(ξᵢ)`
//!
//! (diagonal second order, `He₁(x) = x`, `He₂(x) = x² − 1`), fitted by
//! regression on a modest number of timing runs. Orthogonality of the
//! Hermite basis gives closed-form statistics: `E[D] = c₀`,
//! `Var[D] = Σ aᵢ² + 2 Σ bᵢ²` — no further simulation needed, and the
//! surrogate itself evaluates in O(dim) for fast what-if queries.

use crate::{GateFieldSampler, KleFieldSampler, NormalSource, SstaError};
use klest_linalg::{Cholesky, Matrix};
use klest_rng::{SeedableRng, StdRng};
use klest_sta::{ParamVector, Timer};

/// A fitted diagonal-quadratic Hermite surrogate of the worst delay.
#[derive(Debug, Clone)]
pub struct PceSurrogate {
    /// Constant (mean) coefficient `c₀`.
    c0: f64,
    /// Linear (He₁) coefficients, one per ξ.
    linear: Vec<f64>,
    /// Quadratic (He₂) coefficients, one per ξ.
    quadratic: Vec<f64>,
    /// Training residual RMS (fit quality diagnostic).
    residual_rms: f64,
}

impl PceSurrogate {
    /// Closed-form mean `E[D] = c₀`.
    pub fn mean(&self) -> f64 {
        self.c0
    }

    /// Closed-form variance `Σ aᵢ² + 2 Σ bᵢ²` (Hermite orthogonality).
    pub fn variance(&self) -> f64 {
        self.linear.iter().map(|a| a * a).sum::<f64>()
            + 2.0 * self.quadratic.iter().map(|b| b * b).sum::<f64>()
    }

    /// Closed-form standard deviation.
    pub fn sigma(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Number of ξ variables.
    pub fn dim(&self) -> usize {
        self.linear.len()
    }

    /// Training residual RMS.
    pub fn residual_rms(&self) -> f64 {
        self.residual_rms
    }

    /// Evaluates the surrogate at a ξ point.
    ///
    /// # Panics
    ///
    /// Panics if `xi.len() != dim()`.
    pub fn eval(&self, xi: &[f64]) -> f64 {
        assert_eq!(xi.len(), self.dim(), "xi dimension mismatch");
        let mut acc = self.c0;
        for ((x, a), b) in xi.iter().zip(&self.linear).zip(&self.quadratic) {
            acc += a * x + b * (x * x - 1.0);
        }
        acc
    }
}

/// Fits the surrogate from `samples` timing runs with explicit ξ draws.
///
/// A small ridge (1e-8 relative) regularises the normal equations; with
/// `samples >= 3 * (1 + 2 dim)` the fit is well conditioned.
///
/// # Errors
///
/// - [`SstaError::InvalidConfig`] for mismatched node counts or too few
///   samples,
/// - [`SstaError::Linalg`] if the (regularised) normal equations are
///   singular.
pub fn fit_pce(
    timer: &Timer,
    sampler: &KleFieldSampler,
    samples: usize,
    seed: u64,
) -> Result<PceSurrogate, SstaError> {
    let n = timer.node_count();
    if sampler.node_count() != n {
        return Err(SstaError::InvalidConfig {
            name: "sampler.node_count",
            value: format!("{} (timer has {n})", sampler.node_count()),
        });
    }
    let r = sampler.rank();
    let dim = 4 * r;
    let p = 1 + 2 * dim;
    if samples < 2 * p {
        return Err(SstaError::InvalidConfig {
            name: "samples",
            value: format!("{samples} (need at least {} for {p} coefficients)", 2 * p),
        });
    }

    let mut normals = NormalSource::new(StdRng::seed_from_u64(seed));
    let mut xi = vec![0.0; dim];
    let mut params = vec![ParamVector::ZERO; n];
    let mut arrivals = vec![0.0; n];
    let mut slews = vec![0.0; n];
    let mut row = vec![0.0; p];

    // Accumulate normal equations AᵀA x = Aᵀy.
    let mut ata = Matrix::zeros(p, p);
    let mut aty = vec![0.0; p];
    let mut yy = 0.0;
    for _ in 0..samples {
        normals.fill(&mut xi);
        // Per-node fields from the loading rows (parameter k uses the
        // ξ block k*r..(k+1)*r).
        for (i, pvec) in params.iter_mut().enumerate() {
            let loading = sampler.loading_row(i);
            let mut vals = [0.0f64; 4];
            for (k, v) in vals.iter_mut().enumerate() {
                *v = klest_linalg::vecops::dot(loading, &xi[k * r..(k + 1) * r]);
            }
            *pvec = ParamVector::new(vals);
        }
        let y = timer.analyze_into(&params, &mut arrivals, &mut slews);
        // Design row: [1, He1(ξ)..., He2(ξ)...].
        row[0] = 1.0;
        for (j, &x) in xi.iter().enumerate() {
            row[1 + j] = x;
            row[1 + dim + j] = x * x - 1.0;
        }
        for a in 0..p {
            let ra = row[a];
            if ra == 0.0 {
                continue;
            }
            let target = ata.row_mut(a);
            for (t, &rb) in target.iter_mut().zip(&row) {
                *t += ra * rb;
            }
            aty[a] += ra * y;
        }
        yy += y * y;
    }
    // Ridge proportional to the diagonal scale.
    let scale = (0..p).map(|i| ata[(i, i)]).fold(0.0f64, f64::max);
    for i in 0..p {
        ata[(i, i)] += 1e-8 * scale.max(1.0);
    }
    let chol = Cholesky::new(&ata)?;
    let coeffs = chol.solve(&aty)?;

    // Residual RMS from the normal-equation identity:
    // ||y - Ax||² = yᵀy − 2 xᵀAᵀy + xᵀAᵀA x; with x solving the normal
    // equations this is yᵀy − xᵀAᵀy.
    let explained: f64 = coeffs.iter().zip(&aty).map(|(c, b)| c * b).sum();
    let residual_rms = ((yy - explained).max(0.0) / samples as f64).sqrt();

    Ok(PceSurrogate {
        c0: coeffs[0],
        linear: coeffs[1..1 + dim].to_vec(),
        quadratic: coeffs[1 + dim..].to_vec(),
        residual_rms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{CircuitSetup, KleContext};
    use crate::{run_monte_carlo, McConfig};
    use klest_circuit::{generate, GeneratorConfig};
    use klest_kernels::GaussianKernel;

    fn setup() -> (CircuitSetup, KleContext) {
        let circuit = generate("pce", GeneratorConfig::combinational(150, 7)).unwrap();
        let setup = CircuitSetup::prepare(&circuit);
        let kernel = GaussianKernel::new(2.0);
        let ctx = KleContext::coarse(&kernel).unwrap();
        (setup, ctx)
    }

    #[test]
    fn surrogate_matches_monte_carlo_moments() {
        let (setup, ctx) = setup();
        let rank = 8.min(ctx.rank);
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, rank, setup.locations()).unwrap();
        let pce = fit_pce(&setup.timer, &sampler, 2000, 3).unwrap();
        let mc = run_monte_carlo(&setup.timer, &sampler, &McConfig::new(6000, 11)).unwrap();
        let stats = mc.worst_delay_stats();
        let mean_err = 100.0 * (pce.mean() - stats.mean).abs() / stats.mean;
        let sigma_err = 100.0 * (pce.sigma() - stats.std_dev).abs() / stats.std_dev;
        assert!(
            mean_err < 0.5,
            "PCE mean {} vs MC {} ({mean_err:.2}%)",
            pce.mean(),
            stats.mean
        );
        assert!(
            sigma_err < 15.0,
            "PCE sigma {} vs MC {} ({sigma_err:.1}%)",
            pce.sigma(),
            stats.std_dev
        );
        assert_eq!(pce.dim(), 4 * rank);
        assert!(
            pce.residual_rms() < stats.std_dev,
            "surrogate explains most variance"
        );
    }

    #[test]
    fn surrogate_eval_tracks_simulation() {
        let (setup, ctx) = setup();
        let rank = 6.min(ctx.rank);
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, rank, setup.locations()).unwrap();
        let pce = fit_pce(&setup.timer, &sampler, 1500, 5).unwrap();
        // Evaluate surrogate vs true timer at fresh ξ points.
        let dim = 4 * rank;
        let mut normals = NormalSource::new(StdRng::seed_from_u64(99));
        let mut xi = vec![0.0; dim];
        let mut params = vec![ParamVector::ZERO; setup.timer.node_count()];
        let mut arrivals = vec![0.0; setup.timer.node_count()];
        let mut slews = vec![0.0; setup.timer.node_count()];
        let mut worst_err: f64 = 0.0;
        let mut scale = 0.0;
        for _ in 0..50 {
            normals.fill(&mut xi);
            for (i, pvec) in params.iter_mut().enumerate() {
                let loading = sampler.loading_row(i);
                let mut vals = [0.0f64; 4];
                for (k, v) in vals.iter_mut().enumerate() {
                    *v = klest_linalg::vecops::dot(loading, &xi[k * rank..(k + 1) * rank]);
                }
                *pvec = ParamVector::new(vals);
            }
            let truth = setup.timer.analyze_into(&params, &mut arrivals, &mut slews);
            let pred = pce.eval(&xi);
            worst_err = worst_err.max((truth - pred).abs());
            scale = truth.max(scale);
        }
        assert!(
            worst_err / scale < 0.02,
            "pointwise surrogate error {:.3}% too large",
            100.0 * worst_err / scale
        );
    }

    #[test]
    fn rejects_underdetermined_fits() {
        let (setup, ctx) = setup();
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, 10.min(ctx.rank), setup.locations()).unwrap();
        assert!(matches!(
            fit_pce(&setup.timer, &sampler, 10, 1),
            Err(SstaError::InvalidConfig {
                name: "samples",
                ..
            })
        ));
    }
}
