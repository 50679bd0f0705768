//! Order statistics used for every reported timing.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Operations per second of one-at-a-time operations that took
/// `latencies_ms`: their count over the sum of their latencies.
pub fn per_second(latencies_ms: &[f64]) -> f64 {
    latencies_ms.len() as f64 / (latencies_ms.iter().sum::<f64>() / 1e3)
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), reported only when at
/// least ten samples lie strictly beyond its rank: with fewer, the
/// "tail" would be a handful of samples, not a tail.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// Smallest sample count for which [`tail_percentile`] reports `p`.
pub fn min_count_for(p: f64) -> usize {
    (1..100_000)
        .find(|&n| {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= 10
        })
        .expect("a finite count suffices for any p < 1")
}

/// Mean and unbiased standard deviation.
pub fn mean_sd(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, var.sqrt())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// SplitMix64: the benchmark's own input generator, so that the inputs a
/// seed produces never change when the program's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted per stream so two streams of one
    /// seed do not coincide.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seeded stratified picks from `[first, first + count)`: the range is cut
/// into `parts` equal parts, visited in a shuffled order that is drawn
/// afresh once every part has had its turn, with a uniform pick inside
/// each part.
#[derive(Debug, Clone)]
pub struct Strata {
    first: usize,
    count: usize,
    parts: usize,
    order: Vec<usize>,
}

impl Strata {
    pub fn new(first: usize, count: usize, parts: usize) -> Strata {
        Strata {
            first,
            count,
            parts,
            order: Vec::new(),
        }
    }

    /// The next pick.
    pub fn next(&mut self, rng: &mut SplitMix) -> usize {
        if self.order.is_empty() {
            self.order = (0..self.parts).collect();
            rng.shuffle(&mut self.order);
        }
        let k = self.order.pop().expect("refilled above");
        let (lo, hi) = (
            k * self.count / self.parts,
            (k + 1) * self.count / self.parts,
        );
        self.first + lo + rng.below(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_second_is_count_over_total_time() {
        assert_eq!(per_second(&[100.0, 300.0]), 5.0);
        assert_eq!(per_second(&[250.0; 8]), 4.0);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 0.95),
            None,
            "199 samples leave 9 beyond p95"
        );
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank ceil(0.95 * 200) = 190; samples 191..=200 lie beyond it.
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(min_count_for(0.95), 200);
        assert_eq!(min_count_for(0.5), 20);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some(10.0));
    }

    #[test]
    fn mean_sd_matches_hand_computation() {
        let (m, s) = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m, 5.0);
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn strata_visit_every_part_once_per_cycle() {
        let mut rng = SplitMix::new(4, 0);
        let mut strata = Strata::new(100, 64, 8);
        for _ in 0..3 {
            let mut parts: Vec<usize> = (0..8).map(|_| (strata.next(&mut rng) - 100) / 8).collect();
            parts.sort_unstable();
            assert_eq!(parts, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(1, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(1, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix::new(2, 3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }
}
