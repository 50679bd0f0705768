//! Shared pieces of the workloads: the front-end configuration the CLI
//! and daemon use, and the traced layer-by-layer replays of the front
//! end, the Monte Carlo loop and the hier engine that every workload's
//! traced run makes on its own inputs.

use crate::checks::{bits_equal, count_equals};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;
use klest_circuit::{NodeId, Partition};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, FrontEndConfig};
use klest_core::{assemble_galerkin, GalerkinKle, TruncationCriterion};
use klest_kernels::{CovarianceKernel, GaussianKernel};
use klest_mesh::{Mesh, MeshBuilder};
use klest_rng::{SeedableRng, StdRng};
use klest_runtime::CancelToken;
use klest_ssta::canonical::CanonicalForm;
use klest_ssta::hier::{compose, extract_blocks, HierEngine};
use klest_ssta::{
    run_monte_carlo, run_monte_carlo_supervised, DegradationReport, GateFieldSampler,
    KleFieldSampler, McConfig, NormalSource, N_PARAMS,
};
use klest_sta::{ParamVector, Timer};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Die area of the unit die `[-1, 1]²`: with unit variance, the Mercer
/// trace every spectrum must respect.
pub const DIE_AREA: f64 = 4.0;

/// The front-end configuration with serial assembly pinned (one thread,
/// never read from `KLEST_THREADS`).
pub fn frontend(area_fraction: f64, criterion: TruncationCriterion) -> FrontEndConfig {
    let mut config = FrontEndConfig::new(area_fraction, 28.0, criterion);
    config.options.assembly_threads = 1;
    config
}

/// The mesh and spectrum cache keys `run_frontend` derives for `config`.
pub fn keys(kernel: &GaussianKernel, config: &FrontEndConfig) -> (ArtifactKey, ArtifactKey) {
    let mesh = ArtifactKey::mesh(
        config.die,
        config.max_area_fraction,
        config.min_angle_degrees,
    );
    let kernel_key = kernel
        .cache_key()
        .expect("the Gaussian kernel is cacheable");
    let galerkin = ArtifactKey::galerkin(&mesh, &kernel_key, config.options.quadrature);
    let spectrum = ArtifactKey::spectrum(
        &galerkin,
        config.options.solver,
        config.options.max_eigenpairs,
    );
    (mesh, spectrum)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Kernel evaluations of one assembly: the upper triangle of the n × n
/// matrix, diagonal included, with q × q quadrature node pairs per entry.
fn kernel_evals(n: usize, q: usize) -> u64 {
    (n * (n + 1) / 2 * q * q) as u64
}

/// What the layered front end produced.
pub struct LayeredKle {
    pub mesh: Arc<Mesh>,
    pub kle: Arc<GalerkinKle>,
    pub rank: usize,
}

/// The front end split into its layers, one span per public call:
/// `MeshBuilder::build`, `assemble_galerkin`, `GalerkinKle::from_matrix`,
/// `select_rank`, then the disk cache store and `reopens` reopens under
/// `cache_dir`. Records the `mesh`, `galerkin`, `eigen`, `truncation`
/// and `cache` layer metrics and checks that every reopen returns the
/// stored spectrum bit for bit.
pub fn traced_frontend(
    tr: &Tracer,
    kernel: &GaussianKernel,
    config: &FrontEndConfig,
    cache_dir: &Path,
    reopens: usize,
    out: &mut Outcome,
) -> Result<LayeredKle, String> {
    let mesh = tr
        .time("mesh.build", || {
            MeshBuilder::new(config.die)
                .max_area_fraction(config.max_area_fraction)
                .min_angle_degrees(config.min_angle_degrees)
                .build()
        })
        .map_err(|e| format!("mesh: {e}"))?;
    let n = mesh.len();
    let matrix = tr.time("galerkin.assemble", || {
        assemble_galerkin(&mesh, kernel, config.options.quadrature)
    });
    let kle = tr
        .time("eigen.solve", || {
            GalerkinKle::from_matrix(matrix, &mesh, config.options)
        })
        .map_err(|e| format!("eigensolve: {e}"))?;
    let rank = tr.time("truncation", || kle.select_rank(&config.criterion));
    let (mesh, kle) = (Arc::new(mesh), Arc::new(kle));

    let (mesh_key, spectrum_key) = keys(kernel, config);
    tr.time("cache.store", || {
        let cache = ArtifactCache::with_disk(cache_dir);
        cache.store_mesh(&mesh_key, Arc::clone(&mesh));
        cache.store_spectrum(&spectrum_key, Arc::clone(&kle));
    });
    let spectrum_bytes: u64 = std::fs::read_dir(cache_dir)
        .map_err(|e| format!("cache dir: {e}"))?
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "kle"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    for _ in 0..reopens {
        let reopened = tr.time("cache.reopen", || {
            let cache = ArtifactCache::with_disk(cache_dir);
            cache.lookup_mesh(&mesh_key);
            cache.lookup_spectrum(&spectrum_key)
        });
        let outcome = match reopened {
            Some(warm) => bits_equal(warm.eigenvalues(), kle.eigenvalues()),
            None => Err("spectrum missing after store".into()),
        };
        out.checks
            .record("cache reopen returns the stored spectrum", outcome);
    }

    let layers = tr.layers();
    out.metric("mesh.build_ms", layers["mesh.build"].mean_ms(), "ms");
    out.metric("mesh.triangles", n as f64, "count");
    out.metric(
        "galerkin.assemble_ms",
        layers["galerkin.assemble"].mean_ms(),
        "ms",
    );
    out.metric(
        "galerkin.kernel_evals",
        kernel_evals(n, config.options.quadrature.node_count()) as f64,
        "count",
    );
    out.metric("eigen.solve_s", layers["eigen.solve"].mean_ms() / 1e3, "s");
    out.metric("eigen.pairs", kle.retained() as f64, "count");
    out.metric("eigen.matrix_mb", (n * n * 8) as f64 / 1e6, "MB");
    out.metric("truncation.rank", rank as f64, "count");
    out.metric(
        "truncation.variance_captured",
        kle.variance_captured(rank),
        "fraction",
    );
    out.metric("cache.store_ms", layers["cache.store"].mean_ms(), "ms");
    out.metric("cache.spectrum_mb", spectrum_bytes as f64 / 1e6, "MB");
    if reopens > 0 {
        out.metric("cache.reopen_ms", layers["cache.reopen"].mean_ms(), "ms");
    }
    Ok(LayeredKle { mesh, kle, rank })
}

/// Checks that the layered front end reproduced the pipeline's KLE:
/// eigenvalues bit for bit and the same rank.
pub fn check_layered_equals(
    out: &mut Outcome,
    layered: &LayeredKle,
    kle: &GalerkinKle,
    rank: usize,
) {
    out.checks.record(
        "layered eigenvalues equal the pipeline's bit for bit",
        bits_equal(layered.kle.eigenvalues(), kle.eigenvalues()),
    );
    out.checks.record(
        "layered rank equals the pipeline's",
        count_equals("rank", layered.rank as u64, rank as u64),
    );
}

/// The Monte Carlo loop of `run_monte_carlo` at one thread, replayed with
/// one span per field draw (`draw_span`) and per propagation
/// (`propagate_span`) inside a `mc.sample` span. Returns the worst delay
/// of every sample, which must equal `run_monte_carlo`'s bit for bit.
pub fn traced_mc(
    tr: &Tracer,
    timer: &Timer,
    sampler: &dyn GateFieldSampler,
    draw_span: &'static str,
    propagate_span: &'static str,
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    let n = timer.node_count();
    let mut normals = NormalSource::new(StdRng::seed_from_u64(seed));
    let mut fields = vec![vec![0.0; n]; N_PARAMS];
    let mut params = vec![ParamVector::ZERO; n];
    let mut arrivals = vec![0.0; n];
    let mut slews = vec![0.0; n];
    let mut worst = Vec::with_capacity(samples);
    for _ in 0..samples {
        let _sample = tr.span("mc.sample");
        for field in fields.iter_mut() {
            tr.time(draw_span, || sampler.sample_into(&mut normals, field));
        }
        for (i, p) in params.iter_mut().enumerate() {
            *p = ParamVector::new([fields[0][i], fields[1][i], fields[2][i], fields[3][i]]);
        }
        worst.push(tr.time(propagate_span, || {
            timer.analyze_into(&params, &mut arrivals, &mut slews)
        }));
    }
    worst
}

/// Paired plain and supervised runs in [`traced_mc_layers`].
const SUPERVISION_PAIRS: usize = 9;
/// Pairs from one traced pass to the next in [`traced_mc_layers`].
const PAIRS_PER_TRACED_PASS: usize = 3;

/// The Monte Carlo layers on one circuit with an Algorithm 2 sampler.
/// After one untraced warm-up run, the draw-and-propagate loop is
/// replayed in spans (`samplers.kle_draw`, `sta.propagate`) before every
/// third of nine pairs of plain and supervised runs of the same
/// configuration, so spans and plain runs see the same conditions. Every
/// replay must reproduce `run_monte_carlo`'s worst delays bit for bit at
/// one thread. Records the `samplers` draw, `sta`, `mc` and `runtime`
/// metrics (`flops_per_draw` is computed by the caller) and returns the
/// replayed worst delays. `runtime.supervision_us` is the fastest
/// supervised run minus the fastest plain one, per sample: the cost is a
/// few µs a sample, below the run-to-run noise of either run, and
/// interference only ever adds time, so the minima are its steadiest
/// estimate.
pub fn traced_mc_layers(
    tr: &Tracer,
    timer: &Timer,
    sampler: &KleFieldSampler,
    flops_per_draw: usize,
    samples: usize,
    seed: u64,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let config = McConfig::new(samples, seed).with_threads(1);
    let token = CancelToken::unlimited();
    let warmup = run_monte_carlo(timer, &sampler, &config).map_err(|e| e.to_string())?;
    let (mut traced, mut traced_s) = (Vec::new(), Vec::new());
    let (mut plain_s, mut supervised_s) = (Vec::new(), Vec::new());
    for pair in 0..SUPERVISION_PAIRS {
        if pair % PAIRS_PER_TRACED_PASS == 0 {
            let t = Instant::now();
            traced = traced_mc(
                tr,
                timer,
                sampler,
                "samplers.kle_draw",
                "sta.propagate",
                samples,
                seed,
            );
            traced_s.push(secs(t));
            out.checks.record(
                "traced Monte Carlo loop equals run_monte_carlo",
                bits_equal(&traced, warmup.worst_delays()),
            );
        }
        let t = Instant::now();
        run_monte_carlo(timer, &sampler, &config).map_err(|e| e.to_string())?;
        plain_s.push(secs(t));
        let t = Instant::now();
        run_monte_carlo_supervised(
            timer,
            &sampler,
            &config,
            &token,
            &mut DegradationReport::new(),
        )
        .map_err(|e| e.to_string())?;
        supervised_s.push(secs(t));
    }
    let runs = 1 + traced_s.len() + plain_s.len() + supervised_s.len();
    out.attempted += (runs * samples) as u64;
    let per_sample_us = |s: f64| s * 1e6 / samples as f64;
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let plain_us = per_sample_us(median(&plain_s));
    let layers = tr.layers();
    let draw_us = layers["samplers.kle_draw"].mean_ms() * 1e3;
    let propagate_us = layers["sta.propagate"].mean_ms() * 1e3;
    out.metric("samplers.kle_draw_us", draw_us, "us");
    out.metric("samplers.kle_flops_per_draw", flops_per_draw as f64, "madd");
    out.metric("sta.propagate_us", propagate_us, "us");
    out.metric("sta.nodes", timer.node_count() as f64, "count");
    out.metric(
        "mc.loop_us",
        plain_us - (N_PARAMS as f64 * draw_us + propagate_us),
        "us",
    );
    out.metric(
        "runtime.supervision_us",
        per_sample_us(fastest(&supervised_s) - fastest(&plain_s)),
        "us",
    );
    println!(
        "traced: {:.1} us/sample in the traced Monte Carlo loop vs {plain_us:.1} us/sample in run_monte_carlo (medians of {} and {SUPERVISION_PAIRS})",
        per_sample_us(median(&traced_s)),
        traced_s.len()
    );
    Ok(traced)
}

/// One one-gate edit of a hier replay: set `gate` to `params`. A revert
/// restores parameters whose block state is already cached.
#[derive(Debug, Clone, Copy)]
pub struct HierEdit {
    pub gate: usize,
    pub params: ParamVector,
    pub revert: bool,
}

/// A composed worst form as the values a bitwise check compares.
pub fn worst_bits(w: &CanonicalForm) -> Vec<f64> {
    let mut v = vec![w.mean, w.indep];
    v.extend_from_slice(&w.sens);
    v
}

/// The `hier` layer split into its public calls, from nominal
/// parameters: a cold `extract_blocks` of every block (`hier.extract`)
/// and `compose` (`hier.compose`), which must equal an untraced
/// `HierEngine::new` bit for bit; then each edit in turn, split into
/// `extract_blocks` on the edited parameters (cache reads plus the one
/// missing block: `hier.edit_extract`, or `hier.revert_lookup` for a
/// revert) and `compose` (`hier.edit_compose`), which must equal the
/// engine's own `edit_gate` (`hier.edit`). The caller times
/// `Partition::build` as `hier.partition`. Records the `hier` metrics and
/// returns the final parameters and composed worst form.
pub fn traced_hier(
    tr: &Tracer,
    timer: &Timer,
    sampler: &KleFieldSampler,
    partition: &Partition,
    key: &ArtifactKey,
    edits: &[HierEdit],
    out: &mut Outcome,
) -> Result<(Vec<ParamVector>, CanonicalForm), String> {
    let token = CancelToken::unlimited();
    let nominal = vec![ParamVector::ZERO; timer.node_count()];
    let cache = ArtifactCache::new();
    let t = Instant::now();
    let (models, _) = tr
        .time("hier.extract", || {
            extract_blocks(
                timer,
                sampler,
                partition,
                &nominal,
                Some((&cache, key)),
                &token,
            )
        })
        .map_err(|e| e.to_string())?;
    let report = tr
        .time("hier.compose", || compose(&models, timer))
        .map_err(|e| e.to_string())?;
    let traced_s = secs(t);
    let untraced_cache = ArtifactCache::new();
    let t = Instant::now();
    let untraced = HierEngine::new(
        timer,
        sampler,
        partition,
        nominal.clone(),
        Some((&untraced_cache, key.clone())),
        &token,
    )
    .map_err(|e| e.to_string())?;
    let untraced_s = secs(t);
    out.checks.record(
        "split cold construction equals HierEngine::new",
        bits_equal(&worst_bits(report.worst()), &worst_bits(untraced.worst())),
    );
    drop(untraced);

    let mut engine = HierEngine::new(
        timer,
        sampler,
        partition,
        nominal,
        Some((&cache, key.clone())),
        &token,
    )
    .map_err(|e| e.to_string())?;
    let mut extracted = 0usize;
    for edit in edits {
        let mut params = engine.params().to_vec();
        params[edit.gate] = edit.params;
        let name = if edit.revert {
            "hier.revert_lookup"
        } else {
            "hier.edit_extract"
        };
        let (models, stats) = tr
            .time(name, || {
                extract_blocks(
                    timer,
                    sampler,
                    partition,
                    &params,
                    Some((&cache, key)),
                    &token,
                )
            })
            .map_err(|e| e.to_string())?;
        let report = tr
            .time("hier.edit_compose", || compose(&models, timer))
            .map_err(|e| e.to_string())?;
        tr.time("hier.edit", || {
            engine.edit_gate(NodeId(edit.gate as u32), edit.params, &token)
        })
        .map_err(|e| e.to_string())?;
        out.checks.record(
            "split edit equals HierEngine::edit_gate",
            bits_equal(&worst_bits(report.worst()), &worst_bits(engine.worst())),
        );
        extracted += stats.extracted;
    }
    // Three constructions (split, untraced, the editing engine) and the edits.
    out.attempted += 3 + edits.len() as u64;

    let layers = tr.layers();
    out.metric(
        "hier.partition_ms",
        layers["hier.partition"].mean_ms(),
        "ms",
    );
    out.metric(
        "hier.extract_ms",
        layers["hier.extract"].mean_ms() / partition.block_count() as f64,
        "ms",
    );
    out.metric("hier.compose_ms", layers["hier.compose"].mean_ms(), "ms");
    out.metric(
        "hier.edit_extract_ms",
        layers["hier.edit_extract"].mean_ms(),
        "ms",
    );
    out.metric(
        "hier.edit_compose_ms",
        layers["hier.edit_compose"].mean_ms(),
        "ms",
    );
    out.metric(
        "hier.extracted_per_edit",
        extracted as f64 / edits.len() as f64,
        "count",
    );
    println!(
        "traced: cold hier construction {traced_s:.3} s split vs {untraced_s:.3} s HierEngine::new; edit_gate {:.1} ms per edit",
        layers["hier.edit"].mean_ms()
    );
    Ok((engine.params().to_vec(), engine.worst().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_core::QuadratureRule;
    use klest_geometry::{Point2, Rect};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The Gaussian kernel, counting its evaluations.
    struct Counting {
        inner: GaussianKernel,
        evals: AtomicU64,
    }

    impl CovarianceKernel for Counting {
        fn eval(&self, x: Point2, y: Point2) -> f64 {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.inner.eval(x, y)
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    #[test]
    fn kernel_evals_counts_what_assembly_evaluates() {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area_fraction(0.02)
            .min_angle_degrees(28.0)
            .build()
            .unwrap();
        for rule in [
            QuadratureRule::Centroid,
            QuadratureRule::ThreePoint,
            QuadratureRule::SevenPoint,
        ] {
            let kernel = Counting {
                inner: GaussianKernel::with_correlation_distance(1.0),
                evals: AtomicU64::new(0),
            };
            assemble_galerkin(&mesh, &kernel, rule);
            assert_eq!(
                kernel.evals.load(Ordering::Relaxed),
                kernel_evals(mesh.len(), rule.node_count()),
                "{rule:?}"
            );
        }
        assert_eq!(kernel_evals(1532, 1), 1_174_278);
    }
}
