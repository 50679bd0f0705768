//! High-level process model: per-parameter kernels and σ weights,
//! bundled into a one-call statistical timing flow.
//!
//! The paper's algorithms are written per statistical parameter (`for
//! all stat. parameters p_j` with kernel `K_j`); its experiments use one
//! Gaussian kernel for all four. [`ProcessModel`] supports both: bind a
//! kernel per parameter (sharing KLE computations between parameters
//! that share a kernel is the caller's choice — contexts are cheap to
//! clone and reuse).

use crate::experiments::{CircuitSetup, KleContext};
use crate::{
    run_monte_carlo_with, CholeskySampler, GateFieldSampler, KleFieldSampler, McConfig, McMode,
    McRun, SstaError, N_PARAMS,
};
use klest_kernels::CovarianceKernel;
use klest_sta::StatParam;

/// Which generator a parameter's field comes from.
enum ParamSource<'a> {
    /// Algorithm 2 on a prepared KLE context, at the context's rank.
    Kle(&'a KleContext),
    /// Algorithm 1 (reference) on the given kernel.
    Cholesky(&'a dyn CovarianceKernel),
}

/// A per-parameter process description: one field source per
/// `[L, W, Vt, tox]`.
///
/// ```no_run
/// use klest_ssta::{ProcessModel, McConfig};
/// use klest_ssta::experiments::{CircuitSetup, KleContext};
/// use klest_kernels::GaussianKernel;
/// use klest_circuit::{benchmark, BenchmarkId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = GaussianKernel::with_correlation_distance(1.0);
/// let ctx = KleContext::paper_default(&kernel)?;
/// let circuit = benchmark(BenchmarkId::C880)?;
/// let setup = CircuitSetup::prepare(&circuit);
/// // All four parameters from the same KLE (the paper's configuration).
/// let model = ProcessModel::uniform_kle(&ctx);
/// let run = model.run(&setup, &McConfig::new(1000, 7))?;
/// println!("sigma = {}", run.worst_delay_stats().std_dev);
/// # Ok(())
/// # }
/// ```
pub struct ProcessModel<'a> {
    sources: [ParamSource<'a>; N_PARAMS],
}

impl<'a> ProcessModel<'a> {
    /// All four parameters drawn via the KLE of one context — the
    /// paper's experimental configuration.
    pub fn uniform_kle(ctx: &'a KleContext) -> Self {
        ProcessModel {
            sources: [
                ParamSource::Kle(ctx),
                ParamSource::Kle(ctx),
                ParamSource::Kle(ctx),
                ParamSource::Kle(ctx),
            ],
        }
    }

    /// All four parameters drawn via Algorithm 1 on one kernel — the
    /// reference configuration.
    pub fn uniform_reference<K: CovarianceKernel>(kernel: &'a K) -> Self {
        ProcessModel {
            sources: [
                ParamSource::Cholesky(kernel),
                ParamSource::Cholesky(kernel),
                ParamSource::Cholesky(kernel),
                ParamSource::Cholesky(kernel),
            ],
        }
    }

    /// Starts from [`uniform_kle`](Self::uniform_kle) and overrides one
    /// parameter to use a *different* KLE context (e.g. `Vt` with a
    /// shorter correlation length than `L`).
    pub fn with_kle(mut self, param: StatParam, ctx: &'a KleContext) -> Self {
        self.sources[param.index()] = ParamSource::Kle(ctx);
        self
    }

    /// Overrides one parameter to use the Algorithm 1 reference sampler.
    pub fn with_reference(mut self, param: StatParam, kernel: &'a dyn CovarianceKernel) -> Self {
        self.sources[param.index()] = ParamSource::Cholesky(kernel);
        self
    }

    /// Builds the per-parameter samplers for `setup` and runs the Monte
    /// Carlo SSTA.
    ///
    /// # Errors
    ///
    /// Propagates [`SstaError`] from sampler construction or the MC loop.
    pub fn run(&self, setup: &CircuitSetup, config: &McConfig) -> Result<McRun, SstaError> {
        // Build concrete samplers, deduplicating identical KLE sources by
        // pointer so four-way-shared contexts build one gather matrix.
        let mut kle_cache: Vec<(*const KleContext, KleFieldSampler)> = Vec::new();
        let mut chol_cache: Vec<(*const dyn CovarianceKernel, CholeskySampler)> = Vec::new();
        for source in &self.sources {
            match source {
                ParamSource::Kle(ctx) => {
                    let key = *ctx as *const KleContext;
                    if !kle_cache.iter().any(|(k, _)| *k == key) {
                        let sampler =
                            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())?;
                        kle_cache.push((key, sampler));
                    }
                }
                ParamSource::Cholesky(kernel) => {
                    let key = *kernel as *const dyn CovarianceKernel;
                    if !chol_cache
                        .iter()
                        .any(|(k, _)| std::ptr::eq(*k as *const u8, key as *const u8))
                    {
                        let sampler = CholeskySampler::new(*kernel, setup.locations())?;
                        chol_cache.push((key, sampler));
                    }
                }
            }
        }
        let samplers: [&dyn GateFieldSampler; N_PARAMS] =
            std::array::from_fn(|i| match &self.sources[i] {
                ParamSource::Kle(ctx) => {
                    let key = *ctx as *const KleContext;
                    let (_, s) = kle_cache
                        .iter()
                        .find(|(k, _)| *k == key)
                        .expect("cached above");
                    s as &dyn GateFieldSampler
                }
                ParamSource::Cholesky(kernel) => {
                    let key = *kernel as *const dyn CovarianceKernel;
                    let (_, s) = chol_cache
                        .iter()
                        .find(|(k, _)| std::ptr::eq(*k as *const u8, key as *const u8))
                        .expect("cached above");
                    s as &dyn GateFieldSampler
                }
            });
        run_monte_carlo_with(&setup.timer, &samplers, config, McMode::Plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_circuit::{generate, GeneratorConfig};
    use klest_kernels::GaussianKernel;

    fn setup() -> CircuitSetup {
        let c = generate("pm", GeneratorConfig::combinational(80, 6)).unwrap();
        CircuitSetup::prepare(&c)
    }

    #[test]
    fn uniform_kle_runs() {
        let kernel = GaussianKernel::new(2.0);
        let ctx = KleContext::coarse(&kernel).unwrap();
        let s = setup();
        let run = ProcessModel::uniform_kle(&ctx)
            .run(&s, &McConfig::new(300, 3))
            .unwrap();
        assert_eq!(run.worst_delays().len(), 300);
        assert!(run.worst_delay_stats().std_dev > 0.0);
        assert_eq!(run.random_dims(), ctx.rank);
    }

    #[test]
    fn uniform_reference_runs() {
        let kernel = GaussianKernel::new(2.0);
        let s = setup();
        let run = ProcessModel::uniform_reference(&kernel)
            .run(&s, &McConfig::new(200, 5))
            .unwrap();
        assert_eq!(run.random_dims(), s.timer.node_count());
    }

    #[test]
    fn mixed_sources_per_parameter() {
        let long_range = GaussianKernel::new(0.5);
        let short_range = GaussianKernel::new(8.0);
        let ctx_long = KleContext::coarse(&long_range).unwrap();
        let ctx_short = KleContext::coarse(&short_range).unwrap();
        let s = setup();
        // L, W long-range; Vt short-range; tox via the reference sampler.
        let run = ProcessModel::uniform_kle(&ctx_long)
            .with_kle(StatParam::Vt, &ctx_short)
            .with_reference(StatParam::Tox, &long_range)
            .run(&s, &McConfig::new(300, 9))
            .unwrap();
        assert_eq!(run.worst_delays().len(), 300);
        // random_dims reports the max across parameters: the reference
        // sampler's N_g dominates.
        assert_eq!(run.random_dims(), s.timer.node_count());
    }

    #[test]
    fn statistics_agree_between_apis() {
        // ProcessModel::uniform_* must match the plain run_monte_carlo
        // calls bit-for-bit for the same seed.
        let kernel = GaussianKernel::new(2.0);
        let s = setup();
        let via_model = ProcessModel::uniform_reference(&kernel)
            .run(&s, &McConfig::new(100, 21))
            .unwrap();
        let direct = {
            let sampler = CholeskySampler::new(&kernel, s.locations()).unwrap();
            crate::run_monte_carlo(&s.timer, &sampler, &McConfig::new(100, 21)).unwrap()
        };
        assert_eq!(via_model.worst_delays(), direct.worst_delays());
    }
}
