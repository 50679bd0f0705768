//! Reference spectra computed without `klest-linalg`: a Gauss–Legendre
//! Nyström discretisation of a 1-D kernel and a cyclic Jacobi
//! eigensolver. A separable 2-D kernel's eigenvalues on a square are the
//! products of its 1-D eigenvalues.

use std::f64::consts::PI;

/// Gauss–Legendre nodes and weights on `[-1, 1]` (Newton on `P_n`).
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for i in 0..n.div_ceil(2) {
        let mut x = (PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            let (mut p0, mut p1) = (1.0, x);
            for k in 2..=n {
                let p2 = ((2 * k - 1) as f64 * x * p1 - (k - 1) as f64 * p0) / k as f64;
                p0 = p1;
                p1 = p2;
            }
            // p1 = P_n(x), p0 = P_{n-1}(x).
            dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let step = p1 / dp;
            x -= step;
            if step.abs() < 1e-16 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    (nodes, weights)
}

/// Eigenvalues of the symmetric `n x n` row-major matrix `a`, descending
/// (cyclic Jacobi rotations until the off-diagonal mass vanishes).
pub fn jacobi_eigenvalues(mut a: Vec<f64>, n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "matrix is not n x n");
    let scale: f64 = a.iter().map(|v| v * v).sum::<f64>().max(f64::MIN_POSITIVE);
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| a[i * n + j] * a[i * n + j])
            .sum();
        if off <= 1e-30 * scale {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let t = if theta == 0.0 { 1.0 } else { t };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
    eig.sort_by(|x, y| y.partial_cmp(x).expect("finite eigenvalues"));
    eig
}

/// Nyström eigenvalues of the integral operator of `kernel` on
/// `[-half, half]` with `nodes` Gauss–Legendre points: the spectrum of
/// the symmetric `W^½ K W^½`.
pub fn nystrom_1d(kernel: impl Fn(f64, f64) -> f64, half: f64, nodes: usize) -> Vec<f64> {
    let (x, w) = gauss_legendre(nodes);
    let x: Vec<f64> = x.iter().map(|v| v * half).collect();
    let w: Vec<f64> = w.iter().map(|v| v * half).collect();
    let mut a = vec![0.0; nodes * nodes];
    for i in 0..nodes {
        for j in 0..nodes {
            a[i * nodes + j] = w[i].sqrt() * kernel(x[i], x[j]) * w[j].sqrt();
        }
    }
    jacobi_eigenvalues(a, nodes)
}

/// The leading `count` eigenvalues of the separable 2-D Gaussian
/// `exp(-c |x - y|²)` on the die `[-1, 1]²`: all products `μ_i μ_j` of
/// the 1-D spectrum, sorted descending.
pub fn gaussian_die_spectrum(c: f64, count: usize) -> Vec<f64> {
    let mu = nystrom_1d(|s, t| (-c * (s - t) * (s - t)).exp(), 1.0, 60);
    let mut products: Vec<f64> = mu
        .iter()
        .flat_map(|a| mu.iter().map(move |b| a * b))
        .collect();
    products.sort_by(|x, y| y.partial_cmp(x).expect("finite products"));
    products.truncate(count);
    products
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form eigenvalues of `exp(-c |s - t|)` on `[-a, a]`:
    /// `λ = 2c / (c² + ω²)`, with `ω` the roots of `c - ω tan(ωa) = 0`
    /// (even eigenfunctions) and `ω + c tan(ωa) = 0` (odd ones).
    fn exponential_closed_form(c: f64, a: f64, count: usize) -> Vec<f64> {
        let bisect = |f: &dyn Fn(f64) -> f64, mut lo: f64, mut hi: f64| {
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if f(lo).signum() == f(mid).signum() {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let eps = 1e-12;
        let mut omegas = Vec::new();
        for k in 0..count {
            let k = k as f64;
            // Even: ω tan(ωa) = c has one root in (kπ, (k+½)π)/a.
            let even = |w: f64| w * (w * a).tan() - c;
            omegas.push(bisect(&even, k * PI / a + eps, (k + 0.5) * PI / a - eps));
            // Odd: ω + c tan(ωa) = 0 has one root in ((k+½)π, (k+1)π)/a.
            let odd = |w: f64| w + c * (w * a).tan();
            omegas.push(bisect(
                &odd,
                (k + 0.5) * PI / a + eps,
                (k + 1.0) * PI / a - eps,
            ));
        }
        let mut lambda: Vec<f64> = omegas.iter().map(|w| 2.0 * c / (c * c + w * w)).collect();
        lambda.sort_by(|x, y| y.partial_cmp(x).unwrap());
        lambda.truncate(count);
        lambda
    }

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        let (x, w) = gauss_legendre(8);
        let integral =
            |f: &dyn Fn(f64) -> f64| x.iter().zip(&w).map(|(x, w)| w * f(*x)).sum::<f64>();
        assert!((integral(&|_| 1.0) - 2.0).abs() < 1e-14);
        assert!((integral(&|t| t.powi(14)) - 2.0 / 15.0).abs() < 1e-14);
        assert!(integral(&|t| t.powi(7)).abs() < 1e-14);
    }

    #[test]
    fn jacobi_matches_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let eig = jacobi_eigenvalues(vec![2.0, 1.0, 1.0, 2.0], 2);
        assert!(
            (eig[0] - 3.0).abs() < 1e-14 && (eig[1] - 1.0).abs() < 1e-14,
            "{eig:?}"
        );
        let eig = jacobi_eigenvalues(vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0], 3);
        // Trace and determinant are invariants of the rotations.
        assert!((eig.iter().sum::<f64>() - 9.0).abs() < 1e-12);
        assert!((eig.iter().product::<f64>() - 18.0).abs() < 1e-10);
    }

    #[test]
    fn nystrom_reproduces_exponential_kernel_closed_form() {
        for (c, a) in [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0)] {
            let exact = exponential_closed_form(c, a, 6);
            // The kernel's kink on the diagonal limits Nyström to O(h²).
            let approx = nystrom_1d(|s, t| (-c * (s - t).abs()).exp(), a, 200);
            for (j, (e, n)) in exact.iter().zip(&approx).enumerate() {
                let rel = (e - n).abs() / e;
                assert!(
                    rel < 2e-3,
                    "c={c} a={a} λ{j}: exact {e} nystrom {n} ({rel:e})"
                );
            }
        }
    }

    #[test]
    fn gaussian_die_spectrum_sums_to_at_most_the_trace() {
        let s = gaussian_die_spectrum(1.3, 3600);
        let total: f64 = s.iter().sum();
        assert!(
            (total - 4.0).abs() < 1e-9,
            "Mercer trace of the unit-variance die is 4, got {total}"
        );
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }
}
