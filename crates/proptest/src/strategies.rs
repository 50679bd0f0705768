//! Built-in strategies for the domain objects the workspace's property
//! suites exercise: scalars, vectors, points, polygons, meshes, SPD
//! matrices, physically-valid kernels and descending eigen-spectra.
//!
//! Shrinking conventions: scalars shrink toward a simple in-range anchor
//! (zero, or the range midpoint for geometry), collections shrink by
//! dropping elements, meshes shrink by coarsening, and SPD matrices
//! shrink to leading principal submatrices (which stay SPD).

use crate::Strategy;
use klest_geometry::{Point2, Polygon, Rect};
use klest_kernels::{
    CovarianceKernel, ExponentialKernel, GaussianKernel, MaternKernel, RadialExponentialKernel,
    SeparableExponentialKernel,
};
use klest_linalg::Matrix;
use klest_mesh::{Mesh, MeshBuilder};
use klest_rng::{Rng, StdRng};
use std::ops::Range;

/// Uniform `f64` in `[start, end)`, shrinking toward the in-range value
/// closest to zero.
pub fn f64_in(range: Range<f64>) -> F64In {
    F64In { range }
}

/// See [`f64_in`].
#[derive(Debug, Clone)]
pub struct F64In {
    range: Range<f64>,
}

impl F64In {
    fn anchor(&self) -> f64 {
        if self.range.start > 0.0 {
            self.range.start
        } else if self.range.end <= 0.0 {
            // Shrink toward the top of an all-negative range (closest to 0
            // while staying strictly inside the half-open range).
            self.range.start.midpoint(self.range.end)
        } else {
            0.0
        }
    }
}

impl Strategy for F64In {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let anchor = self.anchor();
        if (*value - anchor).abs() < 1e-12 {
            return Vec::new();
        }
        // Most aggressive first: jump to the anchor, then halve toward it.
        vec![anchor, anchor.midpoint(*value)]
    }
}

/// Uniform `usize` in `[start, end)`, shrinking toward `start`.
pub fn usize_in(range: Range<usize>) -> UsizeIn {
    UsizeIn { range }
}

/// See [`usize_in`].
#[derive(Debug, Clone)]
pub struct UsizeIn {
    range: Range<usize>,
}

impl Strategy for UsizeIn {
    type Value = usize;

    fn generate(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, value: &usize) -> Vec<usize> {
        let lo = self.range.start;
        if *value == lo {
            return Vec::new();
        }
        let mid = lo + (*value - lo) / 2;
        let mut out = vec![lo];
        if mid != lo && mid != *value {
            out.push(mid);
        }
        if *value - 1 != lo && *value - 1 != mid {
            out.push(*value - 1);
        }
        out
    }
}

/// A vector of `len_range` draws from `elem`, shrinking by dropping
/// chunks/elements and by shrinking individual elements.
pub fn vec_of<S: Strategy>(elem: S, len_range: Range<usize>) -> VecOf<S> {
    VecOf { elem, len_range }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    len_range: Range<usize>,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.len_range.clone());
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min_len = self.len_range.start;
        let mut out = Vec::new();
        // Drop the back half, then single elements (front to back).
        if value.len() > min_len {
            let half = (value.len() + min_len).div_ceil(2);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            for i in 0..value.len() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Shrink each element in place (first shrink candidate only, to
        // bound the fan-out).
        for i in 0..value.len() {
            if let Some(simpler) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = simpler;
                out.push(v);
            }
        }
        out
    }
}

/// A point uniform in `rect`, shrinking toward the rect centre (which
/// stays interior for every sub-rectangle).
pub fn point_in(rect: Rect) -> PointIn {
    PointIn { rect }
}

/// See [`point_in`].
#[derive(Debug, Clone)]
pub struct PointIn {
    rect: Rect,
}

impl Strategy for PointIn {
    type Value = Point2;

    fn generate(&self, rng: &mut StdRng) -> Point2 {
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        self.rect.lerp(u, v)
    }

    fn shrink(&self, value: &Point2) -> Vec<Point2> {
        let centre = self.rect.lerp(0.5, 0.5);
        if value.distance(centre) < 1e-12 {
            return Vec::new();
        }
        vec![centre, value.midpoint(centre)]
    }
}

/// `count_range` points uniform in `rect` (a [`vec_of`] of
/// [`point_in`]).
pub fn points_in(rect: Rect, count_range: Range<usize>) -> VecOf<PointIn> {
    vec_of(point_in(rect), count_range)
}

/// A simple (star-shaped, hence non-self-intersecting) polygon inside
/// `rect`: vertices at sorted random angles around the centre with
/// random radii. Shrinks by dropping vertices down to a triangle.
pub fn polygon_in(rect: Rect, vertex_range: Range<usize>) -> PolygonIn {
    PolygonIn { rect, vertex_range }
}

/// See [`polygon_in`].
#[derive(Debug, Clone)]
pub struct PolygonIn {
    rect: Rect,
    vertex_range: Range<usize>,
}

impl Strategy for PolygonIn {
    type Value = Polygon;

    fn generate(&self, rng: &mut StdRng) -> Polygon {
        let n = rng.gen_range(self.vertex_range.clone()).max(3);
        let centre = self.rect.lerp(0.5, 0.5);
        let r_max = 0.45 * self.rect.width().min(self.rect.height());
        loop {
            let mut angles: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
                .collect();
            angles.sort_by(f64::total_cmp);
            // Reject near-coincident angles (degenerate edges).
            let distinct = angles.windows(2).all(|w| w[1] - w[0] > 1e-3);
            if !distinct {
                continue;
            }
            let vertices: Vec<Point2> = angles
                .iter()
                .map(|&a| {
                    let r = rng.gen_range(0.3 * r_max..r_max);
                    Point2::new(centre.x + r * a.cos(), centre.y + r * a.sin())
                })
                .collect();
            if let Ok(poly) = Polygon::new(vertices) {
                return poly;
            }
        }
    }

    fn shrink(&self, value: &Polygon) -> Vec<Polygon> {
        let verts = value.vertices();
        if verts.len() <= 3 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..verts.len() {
            let mut v = verts.to_vec();
            v.remove(i);
            if let Ok(poly) = Polygon::new(v) {
                out.push(poly);
            }
        }
        out
    }
}

/// A mesh generated by [`MeshBuilder`] on the unit die with a random
/// area budget, bundled with the parameters that built it so shrinking
/// can re-run the builder on a coarser budget.
#[derive(Clone)]
pub struct GeneratedMesh {
    /// The `max_area_fraction` handed to the builder.
    pub max_area_fraction: f64,
    /// The `min_angle_degrees` handed to the builder.
    pub min_angle_deg: f64,
    /// The built mesh.
    pub mesh: Mesh,
}

impl std::fmt::Debug for GeneratedMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GeneratedMesh {{ max_area_fraction: {:.4}, min_angle_deg: {:.1}, triangles: {} }}",
            self.max_area_fraction,
            self.min_angle_deg,
            self.mesh.len()
        )
    }
}

/// A unit-die mesh with `max_area_fraction` drawn from `area_range`
/// (values in roughly `0.005..0.25` keep tests fast). Shrinks by
/// coarsening: quadrupling the area budget toward `area_range.end`.
pub fn unit_die_mesh(area_range: Range<f64>, min_angle_deg: f64) -> UnitDieMesh {
    UnitDieMesh {
        area_range,
        min_angle_deg,
    }
}

/// See [`unit_die_mesh`].
#[derive(Debug, Clone)]
pub struct UnitDieMesh {
    area_range: Range<f64>,
    min_angle_deg: f64,
}

impl UnitDieMesh {
    fn build(&self, fraction: f64) -> Option<GeneratedMesh> {
        MeshBuilder::new(Rect::unit_die())
            .max_area_fraction(fraction)
            .min_angle_degrees(self.min_angle_deg)
            .build()
            .ok()
            .map(|mesh| GeneratedMesh {
                max_area_fraction: fraction,
                min_angle_deg: self.min_angle_deg,
                mesh,
            })
    }
}

impl Strategy for UnitDieMesh {
    type Value = GeneratedMesh;

    fn generate(&self, rng: &mut StdRng) -> GeneratedMesh {
        loop {
            let fraction = rng.gen_range(self.area_range.clone());
            if let Some(m) = self.build(fraction) {
                return m;
            }
        }
    }

    fn shrink(&self, value: &GeneratedMesh) -> Vec<GeneratedMesh> {
        let coarser = (value.max_area_fraction * 4.0).min(self.area_range.end * 0.999);
        if coarser <= value.max_area_fraction * 1.01 {
            return Vec::new();
        }
        self.build(coarser).into_iter().collect()
    }
}

/// A random symmetric positive-definite matrix `A Aᵀ + εI` with size
/// drawn from `n_range` and entries of `A` uniform in `[-1, 1)`.
/// Shrinks to leading principal submatrices, which remain SPD.
pub fn spd_matrix(n_range: Range<usize>) -> SpdMatrix {
    SpdMatrix { n_range }
}

/// See [`spd_matrix`].
#[derive(Debug, Clone)]
pub struct SpdMatrix {
    n_range: Range<usize>,
}

impl Strategy for SpdMatrix {
    type Value = Matrix;

    fn generate(&self, rng: &mut StdRng) -> Matrix {
        let n = rng.gen_range(self.n_range.clone()).max(1);
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut s = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[(i, k)] * a[(j, k)];
                }
                s[(i, j)] = acc;
            }
        }
        for i in 0..n {
            s[(i, i)] += 1e-6 * n as f64;
        }
        s
    }

    fn shrink(&self, value: &Matrix) -> Vec<Matrix> {
        let n = value.rows();
        let min_n = self.n_range.start.max(1);
        if n <= min_n {
            return Vec::new();
        }
        let mut out = Vec::new();
        for target in [min_n, (n + min_n) / 2, n - 1] {
            if target < n && out.iter().all(|m: &Matrix| m.rows() != target) {
                out.push(Matrix::from_fn(target, target, |i, j| value[(i, j)]));
            }
        }
        out
    }
}

/// A physically-valid covariance kernel drawn from every family the
/// workspace ships (all 2-D-valid — the 1-D-only [`LinearConeKernel`]
/// is deliberately excluded; feed it explicitly to test PSD *violation*
/// detection).
///
/// [`LinearConeKernel`]: klest_kernels::LinearConeKernel
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCase {
    /// `exp(-c·d²)` (the paper's Table 1 kernel).
    Gaussian {
        /// Decay rate `c`.
        c: f64,
    },
    /// `exp(-c·d)` along Euclidean distance, as a separable product.
    Separable {
        /// Decay rate `c`.
        c: f64,
    },
    /// `exp(-c·(|Δx|+|Δy|))` (L1 exponential).
    Exponential {
        /// Decay rate `c`.
        c: f64,
    },
    /// `exp(-c·‖Δ‖)` (radial exponential).
    Radial {
        /// Decay rate `c`.
        c: f64,
    },
    /// The Matérn family (b, s) — requires `b > 0`, `s > 1`.
    Matern {
        /// Scale parameter `b`.
        b: f64,
        /// Smoothness parameter `s`.
        s: f64,
    },
}

impl KernelCase {
    /// Instantiates the concrete kernel.
    ///
    /// # Panics
    ///
    /// Never for values produced by [`any_kernel`] — all generated
    /// parameters satisfy the family constraints by construction.
    pub fn build(&self) -> Box<dyn CovarianceKernel> {
        match *self {
            KernelCase::Gaussian { c } => Box::new(GaussianKernel::new(c)),
            KernelCase::Separable { c } => Box::new(SeparableExponentialKernel::new(c)),
            KernelCase::Exponential { c } => Box::new(ExponentialKernel::new(c)),
            KernelCase::Radial { c } => Box::new(RadialExponentialKernel::new(c)),
            KernelCase::Matern { b, s } => match MaternKernel::new(b, s) {
                Ok(k) => Box::new(k),
                Err(_) => Box::new(GaussianKernel::new(1.0)),
            },
        }
    }
}

/// A valid-kernel strategy over every 2-D family. Shrinks parameters
/// toward 1 and families toward the (simplest) Gaussian.
pub fn any_kernel() -> AnyKernel {
    AnyKernel {}
}

/// See [`any_kernel`].
#[derive(Debug, Clone)]
pub struct AnyKernel {}

impl Strategy for AnyKernel {
    type Value = KernelCase;

    fn generate(&self, rng: &mut StdRng) -> KernelCase {
        match rng.gen_range(0..5u32) {
            0 => KernelCase::Gaussian {
                c: rng.gen_range(0.2..6.0),
            },
            1 => KernelCase::Separable {
                c: rng.gen_range(0.2..6.0),
            },
            2 => KernelCase::Exponential {
                c: rng.gen_range(0.2..6.0),
            },
            3 => KernelCase::Radial {
                c: rng.gen_range(0.2..6.0),
            },
            _ => KernelCase::Matern {
                b: rng.gen_range(0.5..3.0),
                s: rng.gen_range(1.2..3.0),
            },
        }
    }

    fn shrink(&self, value: &KernelCase) -> Vec<KernelCase> {
        let canonical = KernelCase::Gaussian { c: 1.0 };
        if *value == canonical {
            return Vec::new();
        }
        let mut out = vec![canonical];
        let toward_one = |x: f64| 1.0f64.midpoint(x);
        out.push(match *value {
            KernelCase::Gaussian { c } => KernelCase::Gaussian { c: toward_one(c) },
            KernelCase::Separable { c } => KernelCase::Separable { c: toward_one(c) },
            KernelCase::Exponential { c } => KernelCase::Exponential { c: toward_one(c) },
            KernelCase::Radial { c } => KernelCase::Radial { c: toward_one(c) },
            KernelCase::Matern { b, s } => KernelCase::Matern {
                b: toward_one(b),
                s: 1.2f64.midpoint(s),
            },
        });
        out
    }
}

/// A strictly-positive descending eigen-spectrum with occasional exact
/// ties and near-degenerate pairs (the regimes that break naive
/// truncation logic). Shrinks by truncating to prefixes.
pub fn descending_spectrum(len_range: Range<usize>) -> DescendingSpectrum {
    DescendingSpectrum { len_range }
}

/// See [`descending_spectrum`].
#[derive(Debug, Clone)]
pub struct DescendingSpectrum {
    len_range: Range<usize>,
}

impl Strategy for DescendingSpectrum {
    type Value = Vec<f64>;

    fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
        let len = rng.gen_range(self.len_range.clone()).max(1);
        let mut spectrum = Vec::with_capacity(len);
        let mut current = rng.gen_range(0.5..2.0);
        for _ in 0..len {
            spectrum.push(current);
            let u: f64 = rng.gen();
            let ratio = if u < 0.15 {
                1.0 // exact tie
            } else if u < 0.3 {
                1.0 - 1e-13 // near-degenerate pair
            } else {
                rng.gen_range(0.3..0.98)
            };
            current *= ratio;
        }
        spectrum
    }

    fn shrink(&self, value: &Vec<f64>) -> Vec<Vec<f64>> {
        let min_len = self.len_range.start.max(1);
        if value.len() <= min_len {
            return Vec::new();
        }
        let mut out = Vec::new();
        for target in [min_len, (value.len() + min_len) / 2, value.len() - 1] {
            if target < value.len() && out.iter().all(|v: &Vec<f64>| v.len() != target) {
                out.push(value[..target].to_vec());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_rng::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn scalar_strategies_respect_ranges() {
        let f = f64_in(-2.0..3.0);
        let u = usize_in(2..9);
        let mut r = rng(1);
        for _ in 0..200 {
            let x = f.generate(&mut r);
            assert!((-2.0..3.0).contains(&x));
            let n = u.generate(&mut r);
            assert!((2..9).contains(&n));
        }
    }

    #[test]
    fn f64_shrinks_toward_zero_anchor() {
        let s = f64_in(-5.0..5.0);
        let candidates = s.shrink(&4.0);
        assert_eq!(candidates[0], 0.0);
        assert!(candidates[1].abs() < 4.0);
        assert!(s.shrink(&0.0).is_empty());
    }

    #[test]
    fn usize_shrink_makes_progress() {
        let s = usize_in(3..100);
        let mut v = 97usize;
        let mut steps = 0;
        while let Some(&c) = s.shrink(&v).first() {
            assert!(c < v);
            v = c;
            steps += 1;
            assert!(steps < 100, "no fixed point");
        }
        assert_eq!(v, 3);
    }

    #[test]
    fn points_stay_inside_rect() {
        let rect = Rect::new(Point2::new(1.0, 2.0), Point2::new(3.0, 5.0));
        let s = point_in(rect);
        let mut r = rng(2);
        for _ in 0..100 {
            let p = s.generate(&mut r);
            assert!(rect.contains(p), "{p:?}");
            for q in s.shrink(&p) {
                assert!(rect.contains(q), "{q:?}");
            }
        }
    }

    #[test]
    fn polygons_are_simple_and_shrink_to_triangles() {
        let s = polygon_in(Rect::unit_die(), 3..9);
        let mut r = rng(3);
        for _ in 0..25 {
            let poly = s.generate(&mut r);
            assert!(poly.len() >= 3);
            assert!(poly.area() > 0.0);
            let mut current = poly;
            while let Some(smaller) = s.shrink(&current).into_iter().next() {
                assert!(smaller.len() < current.len());
                current = smaller;
            }
            assert_eq!(current.len(), 3);
        }
    }

    #[test]
    fn meshes_build_and_coarsen() {
        let s = unit_die_mesh(0.02..0.25, 25.0);
        let mut r = rng(4);
        let m = s.generate(&mut r);
        assert!(m.mesh.len() >= 4);
        if let Some(coarser) = s.shrink(&m).into_iter().next() {
            assert!(coarser.max_area_fraction > m.max_area_fraction);
        }
    }

    #[test]
    fn spd_matrices_have_positive_diagonal_and_symmetry() {
        let s = spd_matrix(2..8);
        let mut r = rng(5);
        for _ in 0..20 {
            let m = s.generate(&mut r);
            for i in 0..m.rows() {
                assert!(m[(i, i)] > 0.0);
                for j in 0..m.cols() {
                    assert!((m[(i, j)] - m[(j, i)]).abs() < 1e-12);
                }
            }
            for sub in s.shrink(&m) {
                assert!(sub.rows() < m.rows());
                assert!(sub.rows() >= 2);
            }
        }
    }

    #[test]
    fn kernels_build_and_evaluate_to_unit_variance() {
        let s = any_kernel();
        let mut r = rng(6);
        for _ in 0..40 {
            let case = s.generate(&mut r);
            let k = case.build();
            let p = Point2::new(0.3, 0.7);
            let v = k.eval(p, p);
            assert!((v - 1.0).abs() < 1e-9, "{case:?}: K(p,p) = {v}");
        }
    }

    #[test]
    fn spectra_are_positive_descending_with_ties() {
        let s = descending_spectrum(5..40);
        let mut r = rng(7);
        let mut saw_tie = false;
        for _ in 0..50 {
            let spec = s.generate(&mut r);
            for w in spec.windows(2) {
                assert!(w[1] <= w[0], "not descending: {spec:?}");
                if w[1] == w[0] {
                    saw_tie = true;
                }
            }
            assert!(spec.iter().all(|&x| x > 0.0));
        }
        assert!(saw_tie, "tie regime never generated");
    }
}
