//! Fault-injection integration suite: drives the KLE → SSTA pipeline with
//! deliberately hostile inputs from `klest_ssta::faultinject` and asserts
//! the degradation contract of DESIGN.md — every fault either surfaces as
//! a typed error or is repaired with a recorded [`DegradationEvent`];
//! no panic ever escapes a library crate.

use klest_circuit::{generate, GeneratorConfig};
use klest_core::{GalerkinKle, KleError, KleOptions, TruncationCriterion};
use klest_geometry::{Point2, Rect};
use klest_kernels::validity::repair_to_psd;
use klest_kernels::{CovarianceKernel, GaussianKernel};
use klest_linalg::{LinalgError, Matrix, SymmetricEigen};
use klest_mesh::{Mesh, MeshBuilder, MeshError};
use klest_rng::{SeedableRng, StdRng};
use klest_runtime::{CancelToken, StageBudgets};
use klest_ssta::experiments::{
    compare_methods_supervised, compare_methods_with_report, CircuitSetup, KleContext,
};
use klest_ssta::faultinject::{
    degenerate_mesh_parts, nan_poisoned_matrix, offdie_locations, FaultPlan, IndefiniteKernel,
    NanKernel, NearSingularKernel, Stage,
};
use klest_ssta::{
    run_monte_carlo, run_monte_carlo_with, CholeskySampler, DegradationEvent, DegradationReport,
    GateFieldSampler, KleFieldSampler, McConfig, McMode, NormalSource, SstaError, N_PARAMS,
};
use std::time::Duration;

fn grid(side: usize) -> Vec<Point2> {
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

fn draw_all_finite<S: GateFieldSampler>(sampler: &S, samples: usize) {
    let mut normals = NormalSource::new(StdRng::seed_from_u64(42));
    let mut buf = vec![0.0; sampler.node_count()];
    for _ in 0..samples {
        sampler.sample_into(&mut normals, &mut buf);
        assert!(
            buf.iter().all(|v| v.is_finite()),
            "sampler produced a non-finite value"
        );
    }
}

fn kle_setup() -> (Mesh, GalerkinKle) {
    let mesh = MeshBuilder::new(Rect::unit_die())
        .max_area(0.05)
        .min_angle_degrees(25.0)
        .build()
        .expect("unit-die mesh");
    let kle = GalerkinKle::compute(&mesh, &GaussianKernel::new(1.5), KleOptions::default())
        .expect("healthy KLE");
    (mesh, kle)
}

#[test]
fn indefinite_kernel_strict_errors_tolerant_degrades() {
    let kernel = IndefiniteKernel { slope: 1.0 };
    let locs = grid(7);
    // Strict constructor: typed error, no repair.
    assert!(matches!(
        CholeskySampler::new(&kernel, &locs),
        Err(SstaError::Linalg(_))
    ));
    // Fault-tolerant constructor: eigendecomposition fallback, recorded.
    let mut report = DegradationReport::new();
    let sampler = CholeskySampler::new_with_report(&kernel, &locs, &mut report)
        .expect("eigen fallback must succeed on a finite indefinite matrix");
    assert!(sampler.cholesky().is_none(), "must run on the eigen factor");
    assert!(report.events().iter().any(|e| matches!(
        e,
        DegradationEvent::EigenSamplerFallback { min_eigenvalue } if *min_eigenvalue < 0.0
    )));
    draw_all_finite(&sampler, 50);
}

#[test]
fn near_singular_kernel_repaired_by_jitter_rung() {
    // Diagonal deficit 5e-8 defeats the 1e-8 construction nugget but a
    // ladder rung repairs it without abandoning Cholesky.
    let kernel = NearSingularKernel { deficit: 5e-8 };
    let locs = grid(5);
    assert!(CholeskySampler::new(&kernel, &locs).is_err());
    let mut report = DegradationReport::new();
    let sampler =
        CholeskySampler::new_with_report(&kernel, &locs, &mut report).expect("jitter repair");
    assert!(
        sampler.cholesky().is_some(),
        "a jitter rung, not the eigen fallback, must repair this"
    );
    assert!(report.events().iter().any(|e| matches!(
        e,
        DegradationEvent::CholeskyJitter { epsilon, attempts } if *epsilon <= 1e-6 && *attempts >= 1
    )));
    draw_all_finite(&sampler, 50);
}

#[test]
fn nan_kernel_yields_typed_error_not_panic() {
    // A NaN-poisoned covariance cannot be repaired by jitter or by the
    // eigen fallback: the whole ladder must end in a typed error.
    let kernel = NanKernel;
    let locs = grid(4);
    let mut report = DegradationReport::new();
    let result = CholeskySampler::new_with_report(&kernel, &locs, &mut report);
    assert!(matches!(
        result,
        Err(SstaError::Linalg(LinalgError::NonFinite { .. }))
    ));
}

#[test]
fn nan_poisoned_matrix_rejected_by_eigensolver_and_repair() {
    let m = nan_poisoned_matrix(6, 1, 4);
    assert!(matches!(
        SymmetricEigen::new(&m),
        Err(LinalgError::NonFinite { .. })
    ));
    assert!(repair_to_psd(&m, 1e-10).is_err());
}

#[test]
fn degenerate_mesh_rejected_with_typed_error() {
    let (domain, points, triangles) = degenerate_mesh_parts();
    let result = Mesh::from_parts(domain, points, triangles);
    assert!(matches!(
        result,
        Err(MeshError::DegenerateTriangle { index: 1, .. })
    ));
}

#[test]
fn offdie_gates_strict_error_tolerant_clamp() {
    let (mesh, kle) = kle_setup();
    let rank = kle.retained().min(8);
    let locs = offdie_locations(6); // odd indices off-die → 3 clamps
                                    // Strict path: first off-die gate reported by index.
    assert!(matches!(
        KleFieldSampler::new(&kle, &mesh, rank, &locs),
        Err(SstaError::Kle(KleError::PointOutsideMesh { index: 1 }))
    ));
    // Tolerant path: clamped to nearest-centroid triangles, recorded.
    let mut report = DegradationReport::new();
    let sampler = KleFieldSampler::new_with_report(&kle, &mesh, rank, &locs, &mut report)
        .expect("clamping path");
    assert!(report
        .events()
        .iter()
        .any(|e| matches!(e, DegradationEvent::PointsClamped { count: 3 })));
    draw_all_finite(&sampler, 50);
}

#[test]
fn indefinite_gram_psd_repair_is_recorded_and_effective() {
    // PsdRepaired: project the indefinite Gram of the hostile kernel onto
    // the PSD cone, record the event, and verify the repaired matrix both
    // has a non-negative spectrum and sits exactly frobenius_delta away.
    let kernel = IndefiniteKernel { slope: 1.0 };
    let locs = grid(7);
    let gram = Matrix::from_fn(locs.len(), locs.len(), |i, j| kernel.eval(locs[i], locs[j]));
    let repair = repair_to_psd(&gram, 1e-10)
        .expect("finite matrix")
        .expect("the injected kernel must be indefinite on a 7x7 grid");
    assert!(repair.clamped >= 1);
    assert!(repair.min_eigenvalue_before < 0.0);

    let mut report = DegradationReport::new();
    report.record(DegradationEvent::PsdRepaired {
        clamped: repair.clamped,
        frobenius_delta: repair.frobenius_delta,
    });
    assert!(!report.is_clean());
    assert!(report.events().iter().any(|e| matches!(
        e,
        DegradationEvent::PsdRepaired { clamped, frobenius_delta }
            if *clamped >= 1 && *frobenius_delta > 0.0
    )));
    assert!(report.to_string().contains("clamped"));

    // The repaired matrix is PSD …
    let eig = SymmetricEigen::new(&repair.matrix).expect("repaired matrix decomposes");
    let min_after = eig.eigenvalues().last().copied().unwrap_or(0.0);
    assert!(min_after >= -1e-9, "repair left eigenvalue {min_after}");
    // … and the perturbation size is exactly what the event reports.
    let delta = repair
        .matrix
        .sub(&gram)
        .expect("same shape")
        .frobenius_norm();
    assert!(
        (delta - repair.frobenius_delta).abs() <= 1e-9 * (1.0 + delta),
        "reported delta {} vs actual {delta}",
        repair.frobenius_delta
    );
}

#[test]
fn starved_truncation_budget_is_recorded_by_context() {
    // TruncationBudgetUnmet: a 1e-12 variance budget with only a handful
    // of computed eigenpairs cannot be met on the coarse mesh.
    let criterion = TruncationCriterion::new(4, 1e-12);
    let ctx = KleContext::build(&GaussianKernel::new(1.5), 0.05, 25.0, &criterion)
        .expect("context builds even when the budget saturates");
    assert!(!ctx.budget_met);
    assert!(ctx.degradation.events().iter().any(|e| matches!(
        e,
        DegradationEvent::TruncationBudgetUnmet { rank, computed }
            if *rank <= *computed && *rank >= 1
    )));
}

#[test]
fn unmet_budget_degrades_kle_arm_to_cholesky() {
    // KleDegradedToCholesky: driving the full comparison with a saturated
    // context must abandon Algorithm 2, reuse Algorithm 1's sampler, and
    // record both the cause and the consequence.
    let criterion = TruncationCriterion::new(4, 1e-12);
    let kernel = GaussianKernel::new(1.5);
    let ctx = KleContext::build(&kernel, 0.05, 25.0, &criterion).expect("saturated context");
    let circuit = generate("fault-degrade", GeneratorConfig::combinational(20, 77))
        .expect("circuit generation");
    let setup = CircuitSetup::prepare(&circuit);
    let cmp = compare_methods_with_report(&setup, &kernel, &ctx, &McConfig::new(200, 9))
        .expect("comparison survives the degraded path");
    assert!(cmp
        .degradation
        .events()
        .iter()
        .any(|e| matches!(e, DegradationEvent::TruncationBudgetUnmet { .. })));
    assert!(cmp.degradation.events().iter().any(|e| matches!(
        e,
        DegradationEvent::KleDegradedToCholesky { reason } if reason.contains("budget")
    )));
    // Both arms ran the same sampler, so the distributions are close.
    assert!((cmp.kle.mean - cmp.mc.mean).abs() / cmp.mc.mean < 0.05);
}

#[test]
fn eigensolver_fallback_event_contract() {
    // EigenSolverFallback: the QL solver converges on every matrix this
    // workspace can construct, so the event cannot be triggered end to
    // end; pin the contract instead — the report plumbing and wording,
    // and the Jacobi engine the fallback switches to, which must agree
    // with QL on the hostile indefinite Gram it would be handed.
    let mut report = DegradationReport::new();
    report.record(DegradationEvent::EigenSolverFallback);
    assert!(!report.is_clean());
    assert!(report.to_string().contains("Jacobi fallback"));

    let kernel = IndefiniteKernel { slope: 1.0 };
    let locs = grid(6);
    let gram = Matrix::from_fn(locs.len(), locs.len(), |i, j| kernel.eval(locs[i], locs[j]));
    let ql = SymmetricEigen::new(&gram).expect("QL");
    let jacobi = SymmetricEigen::new_jacobi(&gram).expect("Jacobi");
    let scale = gram.max_abs().max(1.0);
    for (a, b) in ql.eigenvalues().iter().zip(jacobi.eigenvalues()) {
        assert!(
            (a - b).abs() <= 1e-9 * scale,
            "fallback engine disagrees: QL {a} vs Jacobi {b}"
        );
    }
}

#[test]
fn injected_panic_is_retried_and_the_run_recovers_exactly() {
    // PanicAt: a transient worker panic must be absorbed by the
    // supervisor's retry and leave no statistical trace — the retried
    // shard reruns its original seed, so the samples are bitwise those of
    // an uninjected run.
    let circuit = generate("rt-panic", GeneratorConfig::combinational(50, 21)).expect("circuit");
    let setup = CircuitSetup::prepare(&circuit);
    let kernel = GaussianKernel::new(2.0);
    let sampler = CholeskySampler::new(&kernel, setup.locations()).expect("sampler");
    let cfg = McConfig::new(80, 17).with_threads(2);
    let clean = run_monte_carlo(&setup.timer, &sampler, &cfg).expect("clean run");

    let plan = FaultPlan::new().panic_at(Stage::Mc, 0);
    let token = CancelToken::unlimited();
    let mut report = DegradationReport::new();
    let mode = McMode::Supervised {
        token: &token,
        faults: Some(&plan),
        report: &mut report,
    };
    let run = run_monte_carlo_with(&setup.timer, &[&sampler; N_PARAMS], &cfg, mode)
        .expect("supervised run survives the injected panic");
    assert_eq!(run.worst_delays(), clean.worst_delays());
    let salvage = run.salvage().expect("salvage stats");
    assert_eq!(salvage.completed, 80);
    assert_eq!(salvage.shards_retried, 1);
    assert_eq!(salvage.worker_faults, 0);
    assert!(report.events().iter().any(|e| matches!(
        e,
        DegradationEvent::WorkerFault { stage: "mc/sample", shard: 0, recovered: true, attempts }
            if *attempts == 2
    )));
}

#[test]
fn injected_hang_is_broken_by_deadline_and_samples_salvaged() {
    // HangFor: a worker parked far beyond the deadline must be released
    // by cooperative cancellation; the sibling shard's samples survive.
    let circuit = generate("rt-hang", GeneratorConfig::combinational(50, 22)).expect("circuit");
    let setup = CircuitSetup::prepare(&circuit);
    let kernel = GaussianKernel::new(2.0);
    let sampler = CholeskySampler::new(&kernel, setup.locations()).expect("sampler");
    let cfg = McConfig::new(100, 9).with_threads(2);

    let plan = FaultPlan::new().hang_for(Stage::Mc, 600_000); // ten minutes
    let token = CancelToken::with_budget(klest_runtime::Budget::wall(Duration::from_millis(300)));
    let mut report = DegradationReport::new();
    let started = std::time::Instant::now();
    let mode = McMode::Supervised {
        token: &token,
        faults: Some(&plan),
        report: &mut report,
    };
    let run = run_monte_carlo_with(&setup.timer, &[&sampler; N_PARAMS], &cfg, mode)
        .expect("hung run salvages the live shard");
    // The ten-minute hang did not serialize into wall time.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "deadline failed to break the hang"
    );
    let salvage = run.salvage().expect("salvage stats");
    assert!(salvage.truncated(), "{salvage:?}");
    assert!(salvage.completed > 0, "sibling shard must be salvaged");
    assert!(salvage.ci_widening > 1.0);
    assert!(report.events().iter().any(|e| matches!(
        e,
        DegradationEvent::Cancelled {
            stage: "mc/sample",
            ..
        }
    )));
    assert!(report
        .events()
        .iter()
        .any(|e| matches!(e, DegradationEvent::CiWidened { .. })));
}

#[test]
fn acceptance_panicking_shard_under_deadline_salvages_and_reports() {
    // The issue's acceptance scenario: a fault-injected comparison with a
    // panicking shard *and* a 2 s deadline completes, retries the shard,
    // salvages samples, and lands Cancelled + WorkerFault events in the
    // degradation report.
    let circuit = generate("rt-accept", GeneratorConfig::combinational(60, 23)).expect("circuit");
    let setup = CircuitSetup::prepare(&circuit);
    let kernel = GaussianKernel::new(2.0);
    let token = CancelToken::with_budget(klest_runtime::Budget::wall(Duration::from_secs(2)));
    let ctx = KleContext::build_supervised(
        &kernel,
        0.02,
        25.0,
        &TruncationCriterion::new(60, 0.01),
        &token,
        &StageBudgets::none(),
    )
    .expect("context builds inside the deadline");
    let mut budgets = StageBudgets::none();
    budgets.set("mc", Duration::from_millis(400));
    // Deterministic victims: shard 0 takes a transient panic (retried and
    // recovered), shard 1 hangs until its per-arm deadline breaks it.
    let plan = FaultPlan::new()
        .panic_at(Stage::Mc, 0)
        .hang_at(Stage::Mc, 1, 600_000);
    let cmp = compare_methods_supervised(
        &setup,
        &kernel,
        &ctx,
        &McConfig::new(300, 41).with_threads(2),
        &token,
        &budgets,
        Some(&plan),
    )
    .expect("supervised comparison survives panic + hang under deadline");
    let mc_salvage = cmp.mc_salvage.as_ref().expect("salvage stats");
    assert!(mc_salvage.completed > 0, "samples must be salvaged");
    assert!(
        mc_salvage.shards_retried >= 1,
        "the panicking shard retries"
    );
    assert!(cmp.degradation.events().iter().any(|e| matches!(
        e,
        DegradationEvent::WorkerFault {
            stage: "mc/sample",
            ..
        }
    )));
    assert!(cmp.degradation.events().iter().any(|e| matches!(
        e,
        DegradationEvent::Cancelled {
            stage: "mc/sample",
            ..
        }
    )));
}

#[test]
fn healthy_inputs_record_no_degradation() {
    // The repair machinery must be invisible on clean inputs: same
    // factor as the strict path, empty report.
    let kernel = GaussianKernel::new(2.0);
    let locs = grid(5);
    let mut report = DegradationReport::new();
    let tolerant = CholeskySampler::new_with_report(&kernel, &locs, &mut report).unwrap();
    assert!(report.is_clean(), "unexpected events: {report}");
    assert!(tolerant.cholesky().is_some());

    let (mesh, kle) = kle_setup();
    let inside: Vec<Point2> = locs
        .iter()
        .copied()
        .filter(|p| Rect::unit_die().contains(*p))
        .collect();
    let mut report = DegradationReport::new();
    let _ = KleFieldSampler::new_with_report(&kle, &mesh, 5, &inside, &mut report).unwrap();
    assert!(report.is_clean(), "unexpected events: {report}");
}
