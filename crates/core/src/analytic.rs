//! Closed-form KLE references (Ghanem & Spanos [8]).
//!
//! The 1-D exponential kernel `K(x, y) = exp(-c |x - y|)` on `[-a, a]`
//! admits an analytic KLE: eigenvalues `λ = 2c / (ω² + c²)` where `ω`
//! runs over the roots of
//!
//! - even modes: `c - ω tan(ω a) = 0`, eigenfunction `∝ cos(ω x)`,
//! - odd modes:  `ω + c tan(ω a) = 0`, eigenfunction `∝ sin(ω x)`.
//!
//! A 2-D kernel separable into such factors (the paper's eq. 5) has
//! eigenpairs given by products of the 1-D ones — the ground truth the
//! paper cites when motivating a *numerical* method for non-separable
//! kernels. `klest` uses these closed forms to validate the Galerkin
//! solver end to end.

/// Parity of a 1-D exponential-kernel eigenmode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Cosine mode, root of `c - ω tan(ω a)`.
    Even,
    /// Sine mode, root of `ω + c tan(ω a)`.
    Odd,
}

/// One analytic eigenpair of the 1-D exponential kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mode1d {
    /// Eigenvalue `λ = 2c / (ω² + c²)`.
    pub lambda: f64,
    /// Transcendental frequency `ω`.
    pub omega: f64,
    /// Cosine or sine mode.
    pub parity: Parity,
}

/// Analytic KLE of `exp(-c |x - y|)` on the symmetric interval `[-a, a]`.
#[derive(Debug, Clone)]
pub struct Exponential1dKle {
    a: f64,
    c: f64,
    modes: Vec<Mode1d>,
}

impl Exponential1dKle {
    /// Computes the first `count` eigenpairs (sorted by descending λ).
    ///
    /// # Panics
    ///
    /// Panics unless `c > 0`, `a > 0` and `count > 0`.
    pub fn new(c: f64, a: f64, count: usize) -> Self {
        assert!(c > 0.0 && a > 0.0 && count > 0, "invalid KLE parameters");
        let mut modes = Vec::with_capacity(2 * count);
        let half_pi = std::f64::consts::FRAC_PI_2;
        let pi = std::f64::consts::PI;
        // Even roots: one in each ω a ∈ (kπ, kπ + π/2).
        for k in 0..count {
            let lo = (k as f64 * pi) / a + 1e-12;
            let hi = (k as f64 * pi + half_pi) / a - 1e-12;
            let f = |w: f64| c - w * (w * a).tan();
            let w = bisect(f, lo, hi);
            modes.push(Mode1d {
                lambda: 2.0 * c / (w * w + c * c),
                omega: w,
                parity: Parity::Even,
            });
        }
        // Odd roots: one in each ω a ∈ (kπ + π/2, (k+1)π).
        for k in 0..count {
            let lo = (k as f64 * pi + half_pi) / a + 1e-12;
            let hi = ((k + 1) as f64 * pi) / a - 1e-12;
            let f = |w: f64| w + c * (w * a).tan();
            let w = bisect(f, lo, hi);
            modes.push(Mode1d {
                lambda: 2.0 * c / (w * w + c * c),
                omega: w,
                parity: Parity::Odd,
            });
        }
        modes.sort_by(|x, y| f64::total_cmp(&y.lambda, &x.lambda));
        modes.truncate(count);
        Exponential1dKle { a, c, modes }
    }

    /// The computed modes, descending by eigenvalue.
    pub fn modes(&self) -> &[Mode1d] {
        &self.modes
    }

    /// Eigenvalues, descending.
    pub fn eigenvalues(&self) -> Vec<f64> {
        self.modes.iter().map(|m| m.lambda).collect()
    }

    /// The interval half-length `a`.
    pub fn half_length(&self) -> f64 {
        self.a
    }

    /// The kernel decay rate `c`.
    pub fn decay(&self) -> f64 {
        self.c
    }

    /// Value of the `i`-th (L²-normalized) eigenfunction at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn eigenfunction(&self, i: usize, x: f64) -> f64 {
        let m = self.modes[i];
        let (w, a) = (m.omega, self.a);
        match m.parity {
            Parity::Even => {
                let norm = (a + (2.0 * w * a).sin() / (2.0 * w)).sqrt();
                (w * x).cos() / norm
            }
            Parity::Odd => {
                let norm = (a - (2.0 * w * a).sin() / (2.0 * w)).sqrt();
                (w * x).sin() / norm
            }
        }
    }
}

/// Top `count` eigenvalues of the separable 2-D kernel
/// `exp(-c(|x₁-y₁| + |x₂-y₂|))` on `[-a, a]²`: all pairwise products of
/// 1-D eigenvalues, sorted descending (paper Sec. 3.1, citing [8]).
pub fn separable_2d_eigenvalues(c: f64, a: f64, count: usize) -> Vec<f64> {
    // Enough 1-D modes that the smallest product we keep is safe: the
    // product list is dominated by the first ~count 1-D values.
    let m = count.max(4);
    let one_d = Exponential1dKle::new(c, a, m).eigenvalues();
    let mut products = Vec::with_capacity(m * m);
    for &li in &one_d {
        for &lj in &one_d {
            products.push(li * lj);
        }
    }
    products.sort_by(|x, y| f64::total_cmp(y, x));
    products.truncate(count);
    products
}

/// Bisection root finder; assumes a sign change on `[lo, hi]`.
fn bisect<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64) -> f64 {
    let mut flo = f(lo);
    debug_assert!(flo * f(hi) <= 0.0, "bisection bracket has no sign change");
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid == 0.0 {
            return mid;
        }
        if flo * fmid < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fmid;
        }
        if (hi - lo) < 1e-14 * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_satisfy_transcendental_equations() {
        let kle = Exponential1dKle::new(1.0, 1.0, 8);
        for m in kle.modes() {
            match m.parity {
                Parity::Even => {
                    let r = kle.decay() - m.omega * (m.omega * kle.half_length()).tan();
                    assert!(r.abs() < 1e-8, "even residual {r}");
                }
                Parity::Odd => {
                    let r = m.omega + kle.decay() * (m.omega * kle.half_length()).tan();
                    assert!(r.abs() < 1e-8, "odd residual {r}");
                }
            }
            assert!((m.lambda - 2.0 / (m.omega * m.omega + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn eigenvalues_positive_descending_and_trace() {
        let (c, a) = (1.3, 1.0);
        let kle = Exponential1dKle::new(c, a, 60);
        let ev = kle.eigenvalues();
        for w in ev.windows(2) {
            assert!(w[0] >= w[1]);
            assert!(w[1] > 0.0);
        }
        // Mercer trace: Σ λ = ∫ K(x,x) dx = 2a. 60 modes capture almost
        // all of it (tail decays like 1/ω²).
        let sum: f64 = ev.iter().sum();
        assert!(sum < 2.0 * a);
        assert!(sum > 0.95 * 2.0 * a, "sum = {sum}");
    }

    #[test]
    fn eigenfunctions_orthonormal_numerically() {
        let kle = Exponential1dKle::new(1.0, 1.0, 5);
        let quad = 4000;
        let inner = |i: usize, j: usize| -> f64 {
            let mut acc = 0.0;
            for q in 0..quad {
                let x = -1.0 + 2.0 * (q as f64 + 0.5) / quad as f64;
                acc += kle.eigenfunction(i, x) * kle.eigenfunction(j, x);
            }
            acc * 2.0 / quad as f64
        };
        for i in 0..5 {
            for j in i..5 {
                let v = inner(i, j);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((v - expected).abs() < 1e-6, "⟨{i},{j}⟩ = {v}");
            }
        }
    }

    #[test]
    fn integral_equation_holds() {
        // ∫ K(x, y) f(y) dy = λ f(x) at a few probe points.
        let (c, a) = (1.0, 1.0);
        let kle = Exponential1dKle::new(c, a, 4);
        let quad = 8000;
        for i in 0..4 {
            for &x in &[-0.7, -0.1, 0.4, 0.9] {
                let mut lhs = 0.0;
                for q in 0..quad {
                    let y = -a + 2.0 * a * (q as f64 + 0.5) / quad as f64;
                    lhs += (-c * (x - y).abs()).exp() * kle.eigenfunction(i, y);
                }
                lhs *= 2.0 * a / quad as f64;
                let rhs = kle.modes()[i].lambda * kle.eigenfunction(i, x);
                assert!(
                    (lhs - rhs).abs() < 1e-4,
                    "mode {i} at x = {x}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn first_mode_is_even_cosine() {
        let kle = Exponential1dKle::new(1.0, 1.0, 3);
        assert_eq!(kle.modes()[0].parity, Parity::Even);
        // Ghanem–Spanos reference: for c = a = 1 the first even root of
        // c = ω tan(ω) is ω₁ ≈ 0.8603, λ₁ = 2/(ω₁² + 1) ≈ 1.1493.
        assert!((kle.modes()[0].omega - 0.8603).abs() < 1e-3);
        assert!((kle.modes()[0].lambda - 1.1493).abs() < 1e-3);
    }

    #[test]
    fn separable_2d_products() {
        let ev2 = separable_2d_eigenvalues(1.0, 1.0, 10);
        let ev1 = Exponential1dKle::new(1.0, 1.0, 10).eigenvalues();
        // Top 2-D eigenvalue is the square of the top 1-D one.
        assert!((ev2[0] - ev1[0] * ev1[0]).abs() < 1e-12);
        // Second is λ1 λ2 (doubly degenerate).
        assert!((ev2[1] - ev1[0] * ev1[1]).abs() < 1e-12);
        assert!((ev2[2] - ev1[0] * ev1[1]).abs() < 1e-12);
        for w in ev2.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        let _ = Exponential1dKle::new(-1.0, 1.0, 3);
    }
}
