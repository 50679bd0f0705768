//! Empirical validation of field generators against their kernel.
//!
//! Any [`GateFieldSampler`] claims to produce fields whose correlation
//! between two die locations follows a kernel. This module measures
//! that claim: draw realisations, estimate the correlation at probe
//! pairs, and report the worst deviation — the end-to-end check a user
//! should run after wiring a custom kernel or sampler into the flow.

use crate::{GateFieldSampler, NormalSource};
use klest_geometry::Point2;
use klest_kernels::CovarianceKernel;
use klest_rng::{SeedableRng, StdRng};

/// One probe pair's empirical-vs-kernel comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCheck {
    /// First probe location.
    pub a: Point2,
    /// Second probe location.
    pub b: Point2,
    /// Correlation estimated from samples.
    pub empirical: f64,
    /// Kernel prediction `K(a, b)`.
    pub expected: f64,
}

impl PairCheck {
    /// Absolute deviation between empirical and expected correlation.
    pub fn deviation(&self) -> f64 {
        (self.empirical - self.expected).abs()
    }
}

/// Summary of an empirical correlation validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-pair results.
    pub pairs: Vec<PairCheck>,
    /// Worst absolute deviation across pairs.
    pub max_deviation: f64,
    /// Mean per-location field variance (should be ~1 minus truncation
    /// loss for a normalized parameter).
    pub mean_variance: f64,
    /// Samples drawn.
    pub samples: usize,
}

impl ValidationReport {
    /// Does the empirical correlation track the kernel within `tol`
    /// everywhere?
    pub fn passes(&self, tol: f64) -> bool {
        self.max_deviation <= tol
    }
}

/// Draws `samples` realisations from `sampler` (whose node `i`
/// corresponds to `locations[i]`) and compares empirical correlations at
/// the given index pairs against `kernel`.
///
/// # Panics
///
/// Panics if any pair index is out of range or `locations.len()` differs
/// from the sampler's node count.
pub fn validate_sampler<S: GateFieldSampler, K: CovarianceKernel + ?Sized>(
    sampler: &S,
    kernel: &K,
    locations: &[Point2],
    index_pairs: &[(usize, usize)],
    samples: usize,
    seed: u64,
) -> ValidationReport {
    let n = sampler.node_count();
    assert_eq!(locations.len(), n, "one location per sampler node");
    for &(i, j) in index_pairs {
        assert!(i < n && j < n, "probe pair ({i}, {j}) out of range");
    }
    let mut normals = NormalSource::new(StdRng::seed_from_u64(seed));
    let mut field = vec![0.0; n];
    // Accumulate first and second moments for every probed node.
    let mut probed: Vec<usize> = index_pairs.iter().flat_map(|&(i, j)| [i, j]).collect();
    probed.sort_unstable();
    probed.dedup();
    let mut sums = vec![0.0; probed.len()];
    let mut sq_sums = vec![0.0; probed.len()];
    let mut cross = vec![0.0; index_pairs.len()];
    for _ in 0..samples {
        sampler.sample_into(&mut normals, &mut field);
        for (slot, &node) in probed.iter().enumerate() {
            sums[slot] += field[node];
            sq_sums[slot] += field[node] * field[node];
        }
        for (slot, &(i, j)) in index_pairs.iter().enumerate() {
            cross[slot] += field[i] * field[j];
        }
    }
    let nf = samples as f64;
    let idx_of = |node: usize| probed.binary_search(&node).expect("probed");
    let mean = |node: usize| sums[idx_of(node)] / nf;
    let var = |node: usize| (sq_sums[idx_of(node)] / nf - mean(node) * mean(node)).max(1e-300);

    let mut pairs = Vec::with_capacity(index_pairs.len());
    let mut max_deviation = 0.0f64;
    for (slot, &(i, j)) in index_pairs.iter().enumerate() {
        let cov = cross[slot] / nf - mean(i) * mean(j);
        let empirical = cov / (var(i) * var(j)).sqrt();
        let expected = kernel.eval(locations[i], locations[j]);
        let check = PairCheck {
            a: locations[i],
            b: locations[j],
            empirical,
            expected,
        };
        max_deviation = max_deviation.max(check.deviation());
        pairs.push(check);
    }
    let mean_variance = probed.iter().map(|&node| var(node)).sum::<f64>() / probed.len() as f64;
    ValidationReport {
        pairs,
        max_deviation,
        mean_variance,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CholeskySampler;
    use klest_kernels::GaussianKernel;

    fn grid(side: usize) -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..side {
            for j in 0..side {
                pts.push(Point2::new(
                    -0.8 + 1.6 * i as f64 / (side - 1) as f64,
                    -0.8 + 1.6 * j as f64 / (side - 1) as f64,
                ));
            }
        }
        pts
    }

    #[test]
    fn cholesky_sampler_validates_against_its_kernel() {
        let kernel = GaussianKernel::new(2.0);
        let locs = grid(4);
        let sampler = CholeskySampler::new(&kernel, &locs).unwrap();
        let pairs = [(0usize, 1usize), (0, 5), (0, 15), (3, 12)];
        let report = validate_sampler(&sampler, &kernel, &locs, &pairs, 6000, 42);
        assert_eq!(report.pairs.len(), 4);
        assert_eq!(report.samples, 6000);
        assert!(
            report.passes(0.06),
            "max deviation {}",
            report.max_deviation
        );
        assert!(
            (report.mean_variance - 1.0).abs() < 0.06,
            "{}",
            report.mean_variance
        );
        for p in &report.pairs {
            assert!(p.deviation() <= report.max_deviation);
        }
    }

    #[test]
    fn mismatched_kernel_is_detected() {
        // Sample from a short-range kernel, validate against a long-range
        // one: the report must fail.
        let sampled = GaussianKernel::new(10.0);
        let claimed = GaussianKernel::new(0.5);
        let locs = grid(4);
        let sampler = CholeskySampler::new(&sampled, &locs).unwrap();
        let pairs = [(0usize, 1usize), (0, 5)];
        let report = validate_sampler(&sampler, &claimed, &locs, &pairs, 4000, 7);
        assert!(
            !report.passes(0.1),
            "should detect the kernel mismatch, max dev {}",
            report.max_deviation
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_pair_panics() {
        let kernel = GaussianKernel::new(1.0);
        let locs = grid(3);
        let sampler = CholeskySampler::new(&kernel, &locs).unwrap();
        let _ = validate_sampler(&sampler, &kernel, &locs, &[(0, 99)], 10, 1);
    }
}
