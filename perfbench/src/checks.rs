//! Output checks. Each compares the program's answer with a reference
//! the benchmark computes separately, or with a property the method must
//! have; none compares with a stored copy of an earlier output.

use crate::stats::mean_sd;

/// Result of one check: `Err` carries what was wrong.
pub type Check = Result<(), String>;

/// Collects named check outcomes for one run.
#[derive(Debug, Default)]
pub struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Records one outcome.
    pub fn record(&mut self, name: &str, outcome: Check) {
        match outcome {
            Ok(()) => self.passed += 1,
            Err(why) => self.failures.push(format!("{name}: {why}")),
        }
    }

    /// Did every recorded check pass (and was at least one recorded)?
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.passed > 0
    }

    /// Prints the tally and every failure to stderr.
    pub fn report(&self) {
        eprintln!(
            "checks: {} passed, {} failed",
            self.passed,
            self.failures.len()
        );
        for f in &self.failures {
            eprintln!("check FAILED {f}");
        }
    }
}

/// The leading eigenvalues agree with the reference within `rel_tol`.
pub fn spectrum_matches(got: &[f64], reference: &[f64], rel_tol: f64) -> Check {
    if got.len() < reference.len() {
        return Err(format!(
            "{} eigenvalues, need {}",
            got.len(),
            reference.len()
        ));
    }
    for (j, (g, r)) in got.iter().zip(reference).enumerate() {
        let rel = (g - r).abs() / r.abs();
        if rel.is_nan() || rel > rel_tol {
            return Err(format!(
                "λ{j} = {g} vs reference {r} (rel. error {rel:.2e} > {rel_tol:e})"
            ));
        }
    }
    Ok(())
}

/// Mercer: the eigenvalues sum to at most the trace, and the first
/// `rank` of them reach `trace / (1 + tail_fraction)`, which the λ-tail
/// truncation criterion implies.
pub fn mercer(eigenvalues: &[f64], rank: usize, trace: f64, tail_fraction: f64) -> Check {
    let total: f64 = eigenvalues.iter().map(|l| l.max(0.0)).sum();
    if total > trace * (1.0 + 1e-9) {
        return Err(format!(
            "eigenvalues sum to {total}, above the trace {trace}"
        ));
    }
    let head: f64 = eigenvalues.iter().take(rank).sum();
    let floor = trace / (1.0 + tail_fraction);
    if head < floor {
        return Err(format!(
            "first {rank} eigenvalues sum to {head} < trace/(1+{tail_fraction}) = {floor}"
        ));
    }
    Ok(())
}

/// Bit-for-bit equality of two float sequences.
pub fn bits_equal(a: &[f64], b: &[f64]) -> Check {
    if a.len() != b.len() {
        return Err(format!("lengths differ: {} vs {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("element {i} differs: {:e} vs {:e}", a[i], b[i])),
    }
}

/// Reconstructed covariances against the kernel the benchmark evaluates
/// itself: the root-mean-square error stays within `rms_max` and the
/// largest one (truncation bias peaks at the die corners) within `max_abs`.
pub fn covariance_matches(pairs: &[(f64, f64)], max_abs: f64, rms_max: f64) -> Check {
    if pairs.is_empty() {
        return Err("no pairs".into());
    }
    let worst = pairs
        .iter()
        .map(|(rec, k)| (rec - k).abs())
        .fold(0.0f64, f64::max);
    let rms =
        (pairs.iter().map(|(rec, k)| (rec - k).powi(2)).sum::<f64>() / pairs.len() as f64).sqrt();
    if !(worst <= max_abs && rms <= rms_max) {
        return Err(format!(
            "covariance error max {worst:.4} (bound {max_abs}), rms {rms:.4} (bound {rms_max}) over {} pairs",
            pairs.len()
        ));
    }
    Ok(())
}

/// Two Monte Carlo estimates of the same worst-delay distribution agree
/// on mean and σ within `z` combined standard errors (`σ/√n` for the
/// mean, `σ/√(2(n-1))` for σ), widened by `rel_bias` of the reference
/// for the known truncation bias of the approximate arm.
pub fn mc_agree(reference: &[f64], other: &[f64], z: f64, rel_bias: f64) -> Check {
    let (m1, s1) = mean_sd(reference);
    let (m2, s2) = mean_sd(other);
    let (n1, n2) = (reference.len() as f64, other.len() as f64);
    let se_mean = (s1 * s1 / n1 + s2 * s2 / n2).sqrt();
    let se_sd = (s1 * s1 / (2.0 * (n1 - 1.0)) + s2 * s2 / (2.0 * (n2 - 1.0))).sqrt();
    let tol_mean = z * se_mean + rel_bias * m1.abs();
    let tol_sd = z * se_sd + rel_bias * s1;
    if (m1 - m2).abs().is_nan() || (m1 - m2).abs() > tol_mean {
        return Err(format!(
            "means {m1} vs {m2} differ by more than {tol_mean:.3e}"
        ));
    }
    if (s1 - s2).abs().is_nan() || (s1 - s2).abs() > tol_sd {
        return Err(format!(
            "sigmas {s1} vs {s2} differ by more than {tol_sd:.3e}"
        ));
    }
    Ok(())
}

/// The composed hierarchical worst delay lies within the hier band of a
/// flat canonical pass: 2 % on the mean, 5 % on σ.
pub fn hier_band(hier: (f64, f64), flat: (f64, f64)) -> Check {
    let e_mu = (hier.0 - flat.0).abs() / flat.0.abs();
    let e_sigma = (hier.1 - flat.1).abs() / flat.1.abs();
    if !(e_mu <= 0.02 && e_sigma <= 0.05) {
        return Err(format!(
            "e_mu {:.4}% e_sigma {:.4}% outside 2% / 5%",
            100.0 * e_mu,
            100.0 * e_sigma
        ));
    }
    Ok(())
}

/// A counter equals its expected value exactly.
pub fn count_equals(what: &str, got: u64, expected: u64) -> Check {
    if got != expected {
        return Err(format!("{what} = {got}, expected {expected}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::gaussian_die_spectrum;
    use crate::stats::SplitMix;

    #[test]
    fn spectrum_check_rejects_perturbed_and_foreign_spectra() {
        let reference = gaussian_die_spectrum(1.2, 10);
        assert!(spectrum_matches(&reference, &reference, 5e-3).is_ok());
        let mut perturbed = reference.clone();
        perturbed[3] *= 1.01;
        assert!(spectrum_matches(&perturbed, &reference, 5e-3).is_err());
        let foreign = gaussian_die_spectrum(1.2 * 1.2, 10);
        assert!(spectrum_matches(&foreign, &reference, 5e-3).is_err());
        assert!(spectrum_matches(&reference[..5], &reference, 5e-3).is_err());
    }

    #[test]
    fn mercer_rejects_excess_mass_and_short_head() {
        let s = gaussian_die_spectrum(1.2, 400);
        let head = (1..s.len())
            .find(|&r| s[..r].iter().sum::<f64>() >= 4.0 / 1.01)
            .unwrap();
        assert!(mercer(&s, head, 4.0, 0.01).is_ok());
        assert!(mercer(&s, head - 1, 4.0, 0.01).is_err());
        let mut inflated = s.clone();
        inflated[0] += 0.01;
        assert!(mercer(&inflated, head, 4.0, 0.01).is_err());
    }

    #[test]
    fn bit_checks_reject_a_flipped_last_bit() {
        let answer = [12.345_678_901_234_5, 0.987_654_321];
        assert!(bits_equal(&answer, &answer).is_ok());
        let flipped = [answer[0], f64::from_bits(answer[1].to_bits() ^ 1)];
        assert!(bits_equal(&answer, &flipped).is_err());
        assert!(bits_equal(&answer, &answer[..1]).is_err());
    }

    #[test]
    fn covariance_check_rejects_another_kernel() {
        let mut rng = SplitMix::new(5, 0);
        let kernel = |d2: f64, c: f64| (-c * d2).exp();
        let d2: Vec<f64> = (0..400).map(|_| 8.0 * rng.uniform()).collect();
        let good: Vec<(f64, f64)> = d2
            .iter()
            .map(|&d| (kernel(d, 1.2) + 0.01, kernel(d, 1.2)))
            .collect();
        assert!(covariance_matches(&good, 0.15, 0.03).is_ok());
        let foreign: Vec<(f64, f64)> = d2
            .iter()
            .map(|&d| (kernel(d, 2.4), kernel(d, 1.2)))
            .collect();
        assert!(covariance_matches(&foreign, 0.15, 0.03).is_err());
        let mut one_bad = good.clone();
        one_bad[7].0 += 0.2;
        assert!(covariance_matches(&one_bad, 0.15, 0.03).is_err());
        assert!(covariance_matches(&[], 0.15, 0.03).is_err());
    }

    #[test]
    fn mc_agreement_rejects_a_shifted_arm() {
        let mut rng = SplitMix::new(9, 0);
        let mut normal = || {
            // Box–Muller from the benchmark's own generator.
            let (u, v) = (rng.uniform().max(1e-300), rng.uniform());
            (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
        };
        let a: Vec<f64> = (0..4000).map(|_| 100.0 + 5.0 * normal()).collect();
        let b: Vec<f64> = (0..4000).map(|_| 100.0 + 5.0 * normal()).collect();
        assert!(mc_agree(&a, &b, 5.0, 0.0).is_ok());
        let shifted: Vec<f64> = b.iter().map(|v| v + 1.0).collect();
        assert!(mc_agree(&a, &shifted, 5.0, 0.0).is_err());
        let wider: Vec<f64> = b.iter().map(|v| 100.0 + 1.3 * (v - 100.0)).collect();
        assert!(mc_agree(&a, &wider, 5.0, 0.0).is_err());
    }

    #[test]
    fn hier_band_and_counts() {
        assert!(hier_band((100.5, 10.2), (100.0, 10.0)).is_ok());
        assert!(hier_band((103.0, 10.0), (100.0, 10.0)).is_err());
        assert!(hier_band((100.0, 10.6), (100.0, 10.0)).is_err());
        assert!(count_equals("spectrum misses", 7, 7).is_ok());
        assert!(count_equals("spectrum misses", 8, 7).is_err());
        assert!(count_equals("spectrum misses", 6, 7).is_err());
    }
}
