//! Stage-graph acceptance suite: the three `compare_methods*` entry
//! points are thin wrappers over one engine-routed dataflow, the
//! artifact cache returns bitwise-equal artifacts, and parallel Galerkin
//! assembly is invisible in the numbers for any worker count.

use klest_circuit::{generate, GeneratorConfig};
use klest_core::pipeline::{ArtifactCache, ExecPolicy, FrontEndConfig};
use klest_core::{TruncationCriterion, PARALLEL_MIN_TRIANGLES};
use klest_kernels::GaussianKernel;
use klest_runtime::{CancelToken, StageBudgets};
use klest_ssta::experiments::{
    compare_methods, compare_methods_supervised, compare_methods_with_report, CircuitSetup,
    KleContext, MethodComparison,
};
use klest_ssta::McConfig;
use std::sync::Arc;

fn setup() -> CircuitSetup {
    let circuit = generate("sg", GeneratorConfig::combinational(80, 5)).expect("generator");
    CircuitSetup::prepare(&circuit)
}

fn coarse_config() -> FrontEndConfig {
    FrontEndConfig::new(0.02, 25.0, TruncationCriterion::new(60, 0.01))
}

/// Bitwise equality of everything deterministic in a comparison (the
/// wall-clock columns are excluded by construction).
fn assert_stats_identical(a: &MethodComparison, b: &MethodComparison) {
    assert_eq!(a.mc.count, b.mc.count);
    assert_eq!(a.mc.mean.to_bits(), b.mc.mean.to_bits());
    assert_eq!(a.mc.std_dev.to_bits(), b.mc.std_dev.to_bits());
    assert_eq!(a.kle.mean.to_bits(), b.kle.mean.to_bits());
    assert_eq!(a.kle.std_dev.to_bits(), b.kle.std_dev.to_bits());
    assert_eq!(a.e_mu_pct.to_bits(), b.e_mu_pct.to_bits());
    assert_eq!(a.e_sigma_pct.to_bits(), b.e_sigma_pct.to_bits());
    assert_eq!(
        a.sigma_err_outputs_pct.to_bits(),
        b.sigma_err_outputs_pct.to_bits()
    );
    assert_eq!(a.rank, b.rank);
}

#[test]
fn three_entry_points_agree_bitwise() {
    // Acceptance criterion: with an untripped token, empty budgets and
    // no fault plan, all three public entry points — now wrappers over
    // the one engine dataflow — produce bitwise-equal statistics.
    let s = setup();
    let kernel = GaussianKernel::new(2.0);
    let ctx = KleContext::coarse(&kernel).expect("context");
    let cfg = McConfig::new(250, 17);
    let strict = compare_methods(&s, &kernel, &ctx, &cfg).expect("strict");
    let tolerant = compare_methods_with_report(&s, &kernel, &ctx, &cfg).expect("tolerant");
    let token = CancelToken::unlimited();
    let supervised =
        compare_methods_supervised(&s, &kernel, &ctx, &cfg, &token, &StageBudgets::none(), None)
            .expect("supervised");
    assert_stats_identical(&strict, &tolerant);
    assert_stats_identical(&strict, &supervised);
    assert!(strict.mc_salvage.is_none() && tolerant.mc_salvage.is_none());
    let salvage = supervised.mc_salvage.as_ref().expect("supervised salvage");
    assert_eq!(salvage.completed, 250);
}

#[test]
fn cached_comparison_equals_uncached_exactly() {
    // Regression: routing the front end through the artifact cache must
    // not move a single bit of the comparison relative to the uncached
    // seed numbers — on the cold (store) pass or the warm (load) pass.
    let s = setup();
    let kernel = GaussianKernel::new(2.0);
    let cfg = McConfig::new(200, 9);
    let config = coarse_config();
    let uncached = KleContext::build_with(&kernel, &config, ExecPolicy::Plain, None).expect("ctx");
    let cache = ArtifactCache::new();
    let cold =
        KleContext::build_with(&kernel, &config, ExecPolicy::Plain, Some(&cache)).expect("cold");
    let warm =
        KleContext::build_with(&kernel, &config, ExecPolicy::Plain, Some(&cache)).expect("warm");
    // The warm context *is* the cold one: the cache hands back the same
    // Arc-shared artifacts rather than recomputing.
    assert!(Arc::ptr_eq(&cold.kle, &warm.kle));
    assert!(Arc::ptr_eq(&cold.mesh, &warm.mesh));
    let snap = cache.snapshot();
    assert!(
        snap.hits() >= 2,
        "mesh + spectrum hits, got {}",
        snap.hits()
    );
    for (a, b) in uncached
        .kle
        .eigenvalues()
        .iter()
        .zip(cold.kle.eigenvalues())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let base = compare_methods(&s, &kernel, &uncached, &cfg).expect("base");
    let from_cold = compare_methods(&s, &kernel, &cold, &cfg).expect("from cold");
    let from_warm = compare_methods(&s, &kernel, &warm, &cfg).expect("from warm");
    assert_stats_identical(&base, &from_cold);
    assert_stats_identical(&base, &from_warm);
}

#[test]
fn perturbed_configuration_never_hits_the_cache() {
    // Invalidation-free correctness: any key ingredient change (kernel
    // parameter, mesh area) addresses different content entirely.
    let kernel = GaussianKernel::new(2.0);
    let cache = ArtifactCache::new();
    let config = coarse_config();
    KleContext::build_with(&kernel, &config, ExecPolicy::Plain, Some(&cache)).expect("seed");
    let baseline = cache.snapshot();
    let other_kernel = GaussianKernel::new(2.5);
    KleContext::build_with(&other_kernel, &config, ExecPolicy::Plain, Some(&cache))
        .expect("other kernel");
    let mut finer = coarse_config();
    finer.max_area_fraction = 0.015;
    KleContext::build_with(&kernel, &finer, ExecPolicy::Plain, Some(&cache)).expect("finer mesh");
    let snap = cache.snapshot();
    // One mesh hit is allowed (same mesh, different kernel); the
    // spectrum must never be served across perturbed configurations.
    assert_eq!(snap.hits(), baseline.hits() + 1, "{snap:?}");
    assert!(snap.misses() > baseline.misses(), "{snap:?}");
}

#[test]
fn assembly_thread_count_is_invisible_in_the_numbers() {
    // Determinism contract: the full pipeline — parallel Galerkin
    // assembly included — is bitwise identical for any worker count.
    let s = setup();
    let kernel = GaussianKernel::new(1.5);
    let cfg = McConfig::new(150, 23);
    // Fine enough that the mesh clears the serial-fallback threshold and
    // the parallel shard path genuinely engages.
    let mut serial = FrontEndConfig::new(0.005, 25.0, TruncationCriterion::new(60, 0.01));
    serial.options.assembly_threads = 1;
    let mut parallel = serial.clone();
    parallel.options.assembly_threads = 8;
    let ctx1 = KleContext::build_with(&kernel, &serial, ExecPolicy::Plain, None).expect("serial");
    let ctx8 =
        KleContext::build_with(&kernel, &parallel, ExecPolicy::Plain, None).expect("parallel");
    assert!(
        ctx1.mesh.len() >= PARALLEL_MIN_TRIANGLES,
        "mesh too coarse to engage the parallel path: {}",
        ctx1.mesh.len()
    );
    assert_eq!(ctx1.kle.eigenvalues().len(), ctx8.kle.eigenvalues().len());
    for (a, b) in ctx1.kle.eigenvalues().iter().zip(ctx8.kle.eigenvalues()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let cmp1 = compare_methods(&s, &kernel, &ctx1, &cfg).expect("cmp serial");
    let cmp8 = compare_methods(&s, &kernel, &ctx8, &cfg).expect("cmp parallel");
    assert_stats_identical(&cmp1, &cmp8);
}
