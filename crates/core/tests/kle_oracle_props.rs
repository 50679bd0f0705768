//! Property-based oracle suite for the Galerkin KLE (klest-proptest).
//!
//! The analytic eigenpairs of the 1-D exponential kernel (Ghanem &
//! Spanos) — and their separable 2-D products — are the strongest
//! ground truth available for this solver. These properties pin the
//! Galerkin path to that oracle across *random* kernel decay rates, and
//! assert the Theorem-2 convergence order under mesh refinement, so any
//! future refactor of assembly/quadrature/eigensolve that drifts the
//! numbers fails here with a replayable seed.

use klest_core::analytic::separable_2d_eigenvalues;
use klest_core::convergence::eigenvalue_convergence;
use klest_core::{
    spectrum_is_descending, EigenSolver, GalerkinKle, KleOptions, QuadratureRule,
    TruncationCriterion,
};
use klest_geometry::Rect;
use klest_kernels::SeparableExponentialKernel;
use klest_mesh::MeshBuilder;
use klest_proptest::{check, check_config, check_result, strategies, Config, Strategy};
use klest_rng::StdRng;

fn galerkin_spectrum(c: f64, max_area: f64, count: usize) -> Vec<f64> {
    let mesh = MeshBuilder::new(Rect::unit_die())
        .max_area(max_area)
        .min_angle_degrees(28.0)
        .build()
        .expect("meshing succeeds");
    let options = KleOptions {
        quadrature: QuadratureRule::Centroid,
        max_eigenpairs: count,
        ..KleOptions::default()
    };
    GalerkinKle::compute(&mesh, &SeparableExponentialKernel::new(c), options)
        .expect("KLE computes")
        .eigenvalues()
        .to_vec()
}

/// Galerkin top eigenvalues match the separable analytic oracle for
/// *random* decay rates, not just the paper's c = 1.
#[test]
fn galerkin_matches_analytic_oracle_for_random_decay() {
    // Each case runs a full mesh + eigensolve; keep the count small and
    // fixed regardless of KLEST_PROPTEST_CASES.
    let name = "galerkin_matches_analytic_oracle_for_random_decay";
    let cfg = Config {
        cases: 4,
        ..Config::from_env(name)
    };
    check_config(name, &cfg, &strategies::f64_in(0.5..2.5), |&c| {
        let exact = separable_2d_eigenvalues(c, 1.0, 4);
        let approx = galerkin_spectrum(c, 0.02, 6);
        for (i, (a, e)) in approx.iter().zip(&exact).enumerate() {
            let rel = (a - e).abs() / e;
            if rel > 0.10 {
                return Err(format!(
                    "c = {c}: eigenvalue {i} galerkin {a} vs analytic {e} ({:.2}% off)",
                    100.0 * rel
                ));
            }
        }
        Ok(())
    });
}

/// The analytic-oracle tolerance tightens under mesh refinement with an
/// observed convergence order consistent with Theorem 2 (linear in h),
/// for random decay rates.
#[test]
fn convergence_order_against_oracle_is_at_least_linear() {
    let name = "convergence_order_against_oracle_is_at_least_linear";
    let cfg = Config {
        cases: 3,
        ..Config::from_env(name)
    };
    check_config(name, &cfg, &strategies::f64_in(0.6..2.0), |&c| {
        let kernel = SeparableExponentialKernel::new(c);
        let reference = separable_2d_eigenvalues(c, 1.0, 4);
        let study = eigenvalue_convergence(
            &kernel,
            &reference,
            &[0.08, 0.03, 0.012],
            4,
            QuadratureRule::Centroid,
        )
        .map_err(|e| format!("c = {c}: study failed: {e}"))?;
        let first = study.points.first().expect("rungs").error;
        let last = study.points.last().expect("rungs").error;
        if last >= first {
            return Err(format!(
                "c = {c}: refinement did not tighten the oracle error ({first} -> {last})"
            ));
        }
        if study.order < 0.6 {
            return Err(format!(
                "c = {c}: observed order {:.3} below the Theorem-2 linear rate",
                study.order
            ));
        }
        Ok(())
    });
}

/// Discrete Mercer trace identity: Σ λ equals the die area exactly (to
/// solver roundoff) for every valid kernel family, and the returned
/// spectrum is descending with no significantly negative values.
#[test]
fn trace_identity_and_spectrum_shape_for_any_kernel() {
    let name = "trace_identity_and_spectrum_shape_for_any_kernel";
    let cfg = Config {
        cases: 6,
        ..Config::from_env(name)
    };
    check_config(name, &cfg, &strategies::any_kernel(), |case| {
        let kernel = case.build();
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .expect("meshing succeeds");
        let kle = GalerkinKle::compute(&mesh, kernel.as_ref(), KleOptions::default())
            .map_err(|e| format!("{case:?}: KLE failed: {e}"))?;
        let trace: f64 = kle.eigenvalues().iter().sum();
        let area = mesh.total_area();
        if (trace - area).abs() > 1e-9 * area.max(1.0) {
            return Err(format!("{case:?}: trace {trace} vs area {area}"));
        }
        if !spectrum_is_descending(kle.eigenvalues()) {
            return Err(format!("{case:?}: spectrum not descending"));
        }
        let min = kle
            .eigenvalues()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if min < -1e-8 * area {
            return Err(format!("{case:?}: significantly negative eigenvalue {min}"));
        }
        Ok(())
    });
}

/// Truncation-rule properties over random descending spectra (with ties
/// and near-degenerate pairs): the selected rank is in bounds, the
/// claimed budget status matches an independent evaluation of the tail
/// bound, and a tighter tail fraction never selects a smaller rank.
#[test]
fn truncation_selection_properties() {
    let spectra = strategies::descending_spectrum(2..80);
    check("truncation_selection_properties", &spectra, |spectrum| {
        let m = spectrum.len();
        let crit = TruncationCriterion::new(m, 0.01);
        let (r, clean) = crit.select_with_basis_checked(spectrum, m);
        if !clean {
            return Err("descending input flagged as mis-sorted".to_string());
        }
        if !(1..=m).contains(&r) {
            return Err(format!("rank {r} out of bounds 1..={m}"));
        }
        // budget_met agrees with select: met at r or saturated at m.
        let met = crit.budget_met_with_basis(spectrum, m, r);
        if met && r > 1 && crit.budget_met_with_basis(spectrum, m, r - 1) {
            return Err(format!(
                "rank {r} not minimal: bound already met at {}",
                r - 1
            ));
        }
        if !met && r != m {
            return Err(format!("bound unmet at selected rank {r} < m = {m}"));
        }
        // Monotonicity in the tail budget.
        let tighter = TruncationCriterion::new(m, 0.001).select(spectrum);
        if tighter < r {
            return Err(format!(
                "tighter budget selected smaller rank {tighter} < {r}"
            ));
        }
        Ok(())
    });
}

/// The ordering repair is semantics-preserving: any permutation of a
/// descending spectrum selects the same rank as the sorted original,
/// and the repair is reported.
#[test]
fn truncation_is_permutation_invariant_via_repair() {
    let spectra = strategies::descending_spectrum(2..40);
    check(
        "truncation_is_permutation_invariant_via_repair",
        &spectra,
        |spectrum| {
            let m = spectrum.len();
            let crit = TruncationCriterion::new(m, 0.01);
            let r_sorted = crit.select(spectrum);
            // Deterministic shuffle: reverse, and interleave halves.
            let mut reversed = spectrum.clone();
            reversed.reverse();
            let mut interleaved = Vec::with_capacity(m);
            let (lo, hi) = spectrum.split_at(m / 2);
            for i in 0..lo.len().max(hi.len()) {
                if i < hi.len() {
                    interleaved.push(hi[i]);
                }
                if i < lo.len() {
                    interleaved.push(lo[i]);
                }
            }
            for shuffled in [&reversed, &interleaved] {
                let (r, clean) = crit.select_with_basis_checked(shuffled, m);
                let strictly_sorted = spectrum_is_descending(shuffled);
                if !strictly_sorted && clean {
                    return Err("mis-sorted spectrum not reported as repaired".to_string());
                }
                if r != r_sorted {
                    return Err(format!(
                        "permutation changed the selected rank: {r} vs {r_sorted}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// A strategy that simulates the upstream eigensolver-ordering bug:
/// descending spectra handed over in *ascending* order.
#[derive(Debug, Clone)]
struct MisSortedSpectrum(strategies::DescendingSpectrum);

impl Strategy for MisSortedSpectrum {
    type Value = Vec<f64>;

    fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut v = self.0.generate(rng);
        // Guarantee a strict ordering violation even under all-tie draws.
        let bump = v.first().copied().unwrap_or(1.0);
        v.push(2.0 * bump);
        v.reverse();
        v
    }

    fn shrink(&self, value: &Vec<f64>) -> Vec<Vec<f64>> {
        self.0.shrink(value)
    }
}

/// Acceptance regression: a deliberately mis-sorted eigen spectrum *is
/// caught* by the property suite — the "spectra reaching the truncation
/// rule are descending" property fails with a replayable seed, and the
/// replay reproduces the exact counterexample. (Before the ordering
/// guarantee in `truncation.rs`, the mis-ordering passed through
/// silently and mis-priced the tail bound; now it is both detectable
/// via `select_with_basis_checked` and repaired.)
#[test]
fn mis_sorted_spectrum_is_caught_by_property_suite() {
    let strat = MisSortedSpectrum(strategies::descending_spectrum(2..30));
    let cfg = Config::new(0xBAD5EED).with_cases(16);
    let ordering_property = |spectrum: &Vec<f64>| {
        if spectrum_is_descending(spectrum) {
            Ok(())
        } else {
            Err("spectrum reached the truncation rule out of order".to_string())
        }
    };
    let failure = check_result("spectra_are_descending", &cfg, &strat, ordering_property)
        .expect_err("the mis-sorted spectrum must be caught");
    assert!(failure.to_string().contains("KLEST_PROPTEST_SEED"));
    // Replaying the printed seed reproduces the same counterexample.
    let mut replay = cfg.clone();
    replay.replay = Some(failure.case_seed);
    let replayed = check_result("spectra_are_descending", &replay, &strat, ordering_property)
        .expect_err("replay must reproduce the failure");
    assert_eq!(replayed.original, failure.original);
    // And the repaired selection path handles the same input gracefully.
    let mut rng = klest_rng::SeedableRng::seed_from_u64(failure.case_seed);
    let bad: Vec<f64> = strat.generate(&mut rng);
    let m = bad.len();
    let (rank, clean) = TruncationCriterion::new(m, 0.01).select_with_basis_checked(&bad, m);
    assert!(!clean, "repair must be reported for the caught spectrum");
    assert!((1..=m).contains(&rank));
}

/// Selecting against a Lanczos-style partial spectrum (m < n) never
/// claims a met budget that the full-information bound would reject.
#[test]
fn partial_spectrum_budget_is_conservative() {
    let spectra = strategies::descending_spectrum(8..60);
    check(
        "partial_spectrum_budget_is_conservative",
        &spectra,
        |spectrum| {
            let n = spectrum.len();
            let m = n / 2;
            let crit = TruncationCriterion::new(m, 0.01);
            let partial = &spectrum[..m];
            let r = crit.select_with_basis(partial, n);
            if crit.budget_met_with_basis(partial, n, r) {
                // The partial bound uses λ_m (n - m) ≥ true tail mass, so
                // the full-spectrum bound must also hold at this rank.
                let full = TruncationCriterion::new(n, 0.01);
                if !full.budget_met_with_basis(spectrum, n, r) {
                    return Err(format!(
                        "partial bound accepted rank {r} that the full spectrum rejects"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The matrix-free path answers to the same analytic oracle as the
/// dense one: for random decay rates, the leading eigenvalues computed
/// without ever assembling the Galerkin matrix match the separable
/// analytic spectrum within the dense path's tolerance, and agree with
/// the dense solve itself far more tightly (same discretization, so
/// only solver error separates them).
#[test]
fn matrix_free_spectrum_answers_to_the_analytic_oracle() {
    let name = "matrix_free_spectrum_answers_to_the_analytic_oracle";
    let cfg = Config {
        cases: 3,
        ..Config::from_env(name)
    };
    check_config(name, &cfg, &strategies::f64_in(0.5..2.5), |&c| {
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.02)
            .min_angle_degrees(28.0)
            .build()
            .expect("meshing succeeds");
        let kernel = SeparableExponentialKernel::new(c);
        let dense = GalerkinKle::compute(
            &mesh,
            &kernel,
            KleOptions {
                max_eigenpairs: 6,
                ..KleOptions::default()
            },
        )
        .map_err(|e| format!("c = {c}: dense KLE failed: {e}"))?;
        let free = GalerkinKle::compute(
            &mesh,
            &kernel,
            KleOptions {
                solver: EigenSolver::MatrixFree {
                    k: 6,
                    max_iters: 1000,
                },
                ..KleOptions::default()
            },
        )
        .map_err(|e| format!("c = {c}: matrix-free KLE failed: {e}"))?;
        let exact = separable_2d_eigenvalues(c, 1.0, 4);
        for (i, (a, e)) in free.eigenvalues().iter().zip(&exact).enumerate() {
            let rel = (a - e).abs() / e;
            if rel > 0.10 {
                return Err(format!(
                    "c = {c}: eigenvalue {i} matrix-free {a} vs analytic {e} ({:.2}% off)",
                    100.0 * rel
                ));
            }
        }
        let head = dense.eigenvalues()[0];
        for (i, (a, d)) in free
            .eigenvalues()
            .iter()
            .zip(dense.eigenvalues())
            .enumerate()
        {
            if (a - d).abs() > 1e-8 * head {
                return Err(format!(
                    "c = {c}: eigenvalue {i} matrix-free {a} vs dense {d} beyond solver tol"
                ));
            }
        }
        Ok(())
    });
}

/// Mercer-trace treatment of partial spectra: the matrix-free path only
/// computes the head of the spectrum, yet its variance accounting must
/// use the *exact* operator trace (the die area), so the head sum stays
/// strictly below the trace, `variance_captured` is the head/area ratio,
/// and the spectrum is descending and non-negative.
#[test]
fn matrix_free_partial_spectrum_respects_the_mercer_trace() {
    let name = "matrix_free_partial_spectrum_respects_the_mercer_trace";
    let cfg = Config {
        cases: 4,
        ..Config::from_env(name)
    };
    check_config(name, &cfg, &strategies::any_kernel(), |case| {
        let kernel = case.build();
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .expect("meshing succeeds");
        let k = 8.min(mesh.len() - 1);
        let kle = GalerkinKle::compute(
            &mesh,
            kernel.as_ref(),
            KleOptions {
                solver: EigenSolver::MatrixFree { k, max_iters: 1000 },
                ..KleOptions::default()
            },
        )
        .map_err(|e| format!("{case:?}: matrix-free KLE failed: {e}"))?;
        let area = mesh.total_area();
        let retained = kle.eigenvalues().len();
        if retained > k {
            return Err(format!("{case:?}: got {retained} pairs, asked {k}"));
        }
        if !spectrum_is_descending(kle.eigenvalues()) {
            return Err(format!("{case:?}: partial spectrum not descending"));
        }
        let head: f64 = kle.eigenvalues().iter().map(|&l| l.max(0.0)).sum();
        if head > area * (1.0 + 1e-9) {
            return Err(format!(
                "{case:?}: head sum {head} exceeds the Mercer trace {area}"
            ));
        }
        let captured = kle.variance_captured(retained);
        let expected = head / area;
        if (captured - expected).abs() > 1e-12 {
            return Err(format!(
                "{case:?}: variance_captured {captured} is not head/trace {expected}"
            ));
        }
        let min = kle
            .eigenvalues()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if min < -1e-8 * area {
            return Err(format!("{case:?}: significantly negative eigenvalue {min}"));
        }
        Ok(())
    });
}

/// Throwaway deterministic draw helper so the file's RNG use stays
/// seed-stable (guards against accidental ambient entropy in tests).
#[test]
fn oracle_suite_is_deterministic_across_runs() {
    let run = || {
        let mut rng: StdRng = klest_rng::SeedableRng::seed_from_u64(99);
        let strat = strategies::descending_spectrum(3..10);
        (0..5).map(|_| strat.generate(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
