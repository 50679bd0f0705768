//! Streaming statistics for Monte Carlo outputs.

/// Mean / standard deviation summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
}

impl SummaryStats {
    /// Summarises a slice.
    pub fn of(samples: &[f64]) -> Self {
        let count = samples.len();
        if count == 0 {
            return SummaryStats {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        SummaryStats {
            count,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Relative mismatch of this summary's mean against a reference, in
    /// percent (the `e_μ` of Table 1).
    pub fn mean_error_pct(&self, reference: &SummaryStats) -> f64 {
        100.0 * (self.mean - reference.mean).abs() / reference.mean.abs().max(f64::MIN_POSITIVE)
    }

    /// Relative mismatch of this summary's std-dev against a reference,
    /// in percent (the `e_σ` of Table 1).
    pub fn std_error_pct(&self, reference: &SummaryStats) -> f64 {
        100.0 * (self.std_dev - reference.std_dev).abs()
            / reference.std_dev.abs().max(f64::MIN_POSITIVE)
    }

    /// Half-width of the mean's confidence interval at `z` standard
    /// errors: `z · s/√n`. This is what a truncated (salvaged) run widens
    /// by `√(planned/completed)` — fewer samples, same per-sample σ.
    /// Returns 0 for fewer than two samples.
    pub fn mean_ci_halfwidth(&self, z: f64) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            z * self.std_dev / (self.count as f64).sqrt()
        }
    }
}

/// Empirical quantile of a sample set by linear interpolation between
/// order statistics (`q` in `[0, 1]`). SSTA users track the 95th/99th
/// percentile delay as the timing sign-off number.
///
/// Returns 0 for an empty slice.
///
/// NaN samples sort last (IEEE total order), so a poisoned sample set
/// yields NaN quantiles near `q = 1` rather than a panic.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Welford accumulators for many outputs at once (one mean/variance per
/// primary output of the circuit), mergeable across Monte Carlo worker
/// threads.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputStats {
    count: usize,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl OutputStats {
    /// Accumulator over `outputs` parallel series.
    pub fn new(outputs: usize) -> Self {
        OutputStats {
            count: 0,
            mean: vec![0.0; outputs],
            m2: vec![0.0; outputs],
        }
    }

    /// Number of tracked series.
    pub fn outputs(&self) -> usize {
        self.mean.len()
    }

    /// Number of samples accumulated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one sample vector (one value per output).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the accumulator width.
    pub fn push(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.mean.len());
        self.count += 1;
        let n = self.count as f64;
        for (i, &v) in values.iter().enumerate() {
            let delta = v - self.mean[i];
            self.mean[i] += delta / n;
            self.m2[i] += delta * (v - self.mean[i]);
        }
    }

    /// Merges another accumulator (Chan's parallel Welford update).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &OutputStats) {
        assert_eq!(self.mean.len(), other.mean.len());
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let n = na + nb;
        for i in 0..self.mean.len() {
            let delta = other.mean[i] - self.mean[i];
            self.mean[i] += delta * nb / n;
            self.m2[i] += other.m2[i] + delta * delta * na * nb / n;
        }
        self.count += other.count;
    }

    /// Raw Welford accumulator parts `(count, means, m2s)` — the exact
    /// internal state, for checkpoint serialization. Rebuilding via
    /// [`OutputStats::from_raw_parts`] and continuing to [`push`](Self::push)
    /// reproduces the uninterrupted accumulation bitwise.
    pub fn raw_parts(&self) -> (usize, &[f64], &[f64]) {
        (self.count, &self.mean, &self.m2)
    }

    /// Rebuilds an accumulator from [`OutputStats::raw_parts`]. Returns
    /// `None` when the two vectors disagree in width (a corrupted
    /// checkpoint), never a panic.
    pub fn from_raw_parts(count: usize, mean: Vec<f64>, m2: Vec<f64>) -> Option<Self> {
        if mean.len() != m2.len() {
            return None;
        }
        Some(OutputStats { count, mean, m2 })
    }

    /// Mean of output `i`.
    pub fn mean(&self, i: usize) -> f64 {
        self.mean[i]
    }

    /// Unbiased standard deviation of output `i` (0 for < 2 samples).
    pub fn std_dev(&self, i: usize) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2[i] / (self.count - 1) as f64).sqrt()
        }
    }

    /// Average over outputs of the relative σ error against a reference,
    /// in percent — the Fig. 6 metric ("error is averaged across all the
    /// outputs of the circuit").
    pub fn avg_sigma_error_pct(&self, reference: &OutputStats) -> f64 {
        assert_eq!(self.outputs(), reference.outputs());
        let mut total = 0.0;
        let mut counted = 0usize;
        for i in 0..self.outputs() {
            let ref_sigma = reference.std_dev(i);
            if ref_sigma > 0.0 {
                total += 100.0 * (self.std_dev(i) - ref_sigma).abs() / ref_sigma;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    /// Average over outputs of the relative mean error against a
    /// reference, in percent.
    pub fn avg_mean_error_pct(&self, reference: &OutputStats) -> f64 {
        assert_eq!(self.outputs(), reference.outputs());
        let mut total = 0.0;
        let mut counted = 0usize;
        for i in 0..self.outputs() {
            let ref_mean = reference.mean(i);
            if ref_mean.abs() > 0.0 {
                total += 100.0 * (self.mean(i) - ref_mean).abs() / ref_mean.abs();
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_known_values() {
        let s = SummaryStats::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        let empty = SummaryStats::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(SummaryStats::of(&[3.0]).std_dev, 0.0);
    }

    #[test]
    fn relative_errors() {
        let a = SummaryStats {
            count: 10,
            mean: 105.0,
            std_dev: 9.0,
        };
        let reference = SummaryStats {
            count: 10,
            mean: 100.0,
            std_dev: 10.0,
        };
        assert!((a.mean_error_pct(&reference) - 5.0).abs() < 1e-12);
        assert!((a.std_error_pct(&reference) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ci_halfwidth_scales_with_samples() {
        let s = SummaryStats {
            count: 100,
            mean: 0.0,
            std_dev: 2.0,
        };
        // z·s/√n = 1.96 · 2 / 10
        assert!((s.mean_ci_halfwidth(1.96) - 0.392).abs() < 1e-12);
        let quarter = SummaryStats { count: 25, ..s };
        // A quarter of the samples → twice the half-width.
        assert!((quarter.mean_ci_halfwidth(1.96) - 2.0 * s.mean_ci_halfwidth(1.96)).abs() < 1e-12);
        assert_eq!(SummaryStats::of(&[1.0]).mean_ci_halfwidth(1.96), 0.0);
    }

    #[test]
    fn quantile_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Interpolation between order statistics.
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
        // Order-independence.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&shuffled, 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn welford_matches_batch() {
        let data = [
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 15.0],
            vec![4.0, 5.0],
            vec![5.0, 0.0],
        ];
        let mut acc = OutputStats::new(2);
        for row in &data {
            acc.push(row);
        }
        for out in 0..2 {
            let col: Vec<f64> = data.iter().map(|r| r[out]).collect();
            let batch = SummaryStats::of(&col);
            assert!((acc.mean(out) - batch.mean).abs() < 1e-12);
            assert!((acc.std_dev(out) - batch.std_dev).abs() < 1e-12);
        }
        assert_eq!(acc.count(), 5);
        assert_eq!(acc.outputs(), 2);
    }

    #[test]
    fn merge_equals_sequential() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64).sin() * 3.0 + 1.0, (i as f64 * 0.7).cos()])
            .collect();
        let mut whole = OutputStats::new(2);
        for r in &rows {
            whole.push(r);
        }
        let mut a = OutputStats::new(2);
        let mut b = OutputStats::new(2);
        for (i, r) in rows.iter().enumerate() {
            if i % 3 == 0 {
                a.push(r);
            } else {
                b.push(r);
            }
        }
        let mut merged = OutputStats::new(2);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), whole.count());
        for out in 0..2 {
            assert!((merged.mean(out) - whole.mean(out)).abs() < 1e-12);
            assert!((merged.std_dev(out) - whole.std_dev(out)).abs() < 1e-12);
        }
        // Merging an empty accumulator is a no-op.
        let before = merged.clone();
        merged.merge(&OutputStats::new(2));
        assert_eq!(merged, before);
    }

    #[test]
    fn raw_parts_roundtrip_continues_bitwise() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64).sin(), (i as f64 * 1.3).cos()])
            .collect();
        let mut whole = OutputStats::new(2);
        let mut prefix = OutputStats::new(2);
        for r in &rows[..17] {
            whole.push(r);
            prefix.push(r);
        }
        let (count, mean, m2) = prefix.raw_parts();
        let mut resumed = OutputStats::from_raw_parts(count, mean.to_vec(), m2.to_vec()).unwrap();
        for r in &rows[17..] {
            whole.push(r);
            resumed.push(r);
        }
        assert_eq!(resumed, whole, "resumed Welford state must match bitwise");
        assert!(OutputStats::from_raw_parts(3, vec![0.0], vec![0.0, 0.0]).is_none());
    }

    #[test]
    fn error_metrics_across_outputs() {
        let mut reference = OutputStats::new(2);
        let mut approx = OutputStats::new(2);
        // Two outputs with different scales.
        for i in 0..100 {
            let x = (i % 10) as f64;
            reference.push(&[x, 10.0 * x]);
            approx.push(&[x * 1.1, 10.0 * x]); // 10% inflated sigma on output 0
        }
        let e = approx.avg_sigma_error_pct(&reference);
        assert!(
            (e - 5.0).abs() < 0.2,
            "average of 10% and 0% is ~5%, got {e}"
        );
        assert!(approx.avg_mean_error_pct(&reference) > 0.0);
    }
}
