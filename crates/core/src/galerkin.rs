//! Galerkin assembly of the covariance operator (paper eq. 12/18/21).
//!
//! Assembly is the dominant front-end cost (O(n²) kernel–quadrature
//! evaluations for n triangles, Table 2 of the paper), so beyond the
//! serial reference path this module shards the upper triangle into
//! contiguous row blocks dispatched on the [`klest_runtime::Supervisor`]
//! worker pool — inheriting panic isolation, bounded retries and
//! cooperative cancellation — while guaranteeing the assembled matrix is
//! **bitwise identical** for every worker count (each entry is computed
//! by exactly the same floating-point expression in the same order;
//! workers produce disjoint owned row blocks that are scattered into the
//! matrix afterwards).

use crate::QuadratureRule;
use klest_geometry::Point2;
use klest_kernels::CovarianceKernel;
use klest_linalg::{LinalgError, LinearOperator, Matrix};
use klest_mesh::Mesh;
use klest_runtime::{CancelToken, Cancelled, Supervisor};

/// Below this basis size the parallel entry points fall back to the
/// serial loop: thread spawn + scatter overhead beats the win for tiny
/// matrices, and the serial path keeps its exact one-checkpoint-per-row
/// cancellation accounting.
pub const PARALLEL_MIN_TRIANGLES: usize = 128;

/// Resolves a requested assembly worker count: `0` means "auto", which
/// reads the `KLEST_THREADS` environment variable (a positive integer)
/// and defaults to `1` (serial) when unset or malformed — parallel
/// assembly is opt-in, so default builds stay byte-for-byte identical to
/// the historical serial pipeline everywhere, including checkpoint
/// ordering.
pub fn resolve_assembly_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::env::var("KLEST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Number of upper-triangle entries (incl. diagonal) in rows
/// `start .. start + count` of an `n x n` matrix: row `i` holds `n - i`.
fn tri_entries(n: usize, start: usize, count: usize) -> u64 {
    let count = count.min(n.saturating_sub(start));
    let (n, start, count) = (n as u64, start as u64, count as u64);
    count * (n - start) - count * count.saturating_sub(1) / 2
}

/// Deterministic contiguous row-block boundaries balancing the
/// upper-triangle entry count per shard (early rows are longer, so equal
/// row counts would starve the late shards). Pure function of
/// `(n, shards)` — the same boundaries on every run and machine.
fn shard_row_bounds(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(n.max(1));
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut remaining = tri_entries(n, 0, n);
    for s in 0..shards {
        let left = (shards - s) as u64;
        let target = remaining.div_ceil(left);
        let mut end = start;
        let mut got = 0u64;
        while end < n && got < target {
            got += (n - end) as u64;
            end += 1;
        }
        if s + 1 == shards {
            end = n;
            got = tri_entries(n, start, n - start);
        }
        bounds.push((start, end));
        start = end;
        remaining = remaining.saturating_sub(got);
    }
    bounds
}

/// Assembles the Galerkin matrix
/// `K_ik = ∫_{Δ_k} ∫_{Δ_i} K(x, y) dx dy`
/// over the piecewise-constant triangle basis.
///
/// With the paper's centroid rule this is exactly eq. (21):
/// `K_ik ≈ K(x_{Δ_i}, x_{Δ_k}) a_i a_k`. Higher-order rules tensor their
/// nodes across the two triangles. Symmetry is enforced by assembling the
/// upper triangle and mirroring, which also halves the kernel
/// evaluations.
///
/// ```
/// use klest_core::{assemble_galerkin, QuadratureRule};
/// use klest_kernels::GaussianKernel;
/// use klest_mesh::MeshBuilder;
/// use klest_geometry::Rect;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mesh = MeshBuilder::new(Rect::unit_die()).max_area(0.5).build()?;
/// let k = assemble_galerkin(&mesh, &GaussianKernel::new(1.0), QuadratureRule::Centroid);
/// assert_eq!(k.rows(), mesh.len());
/// assert_eq!(k.asymmetry()?, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn assemble_galerkin<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
) -> Matrix {
    // Infallible without a token: the only error path is cancellation,
    // which an untripped unlimited token cannot produce. An empty matrix
    // here would silently poison every downstream eigensolve, so the
    // invariant is guarded loudly instead of papered over.
    assemble_inner(mesh, kernel, rule, None).expect("tokenless assembly cannot be cancelled")
}

/// Like [`assemble_galerkin`], but polling `token` once per assembled row
/// (each row costs `O(n)` kernel–quadrature evaluations, so polls stay off
/// the innermost loop) and returning a typed [`Cancelled`] — with
/// `completed` = rows assembled — when the budget trips.
///
/// # Errors
///
/// Only [`Cancelled`], when the token trips mid-assembly.
pub fn assemble_galerkin_with_token<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
    token: &CancelToken,
) -> Result<Matrix, Cancelled> {
    assemble_inner(mesh, kernel, rule, Some(token))
}

/// Parallel [`assemble_galerkin`]: the upper triangle is sharded into
/// contiguous row blocks (balanced by entry count) and dispatched on a
/// [`Supervisor`] pool, so worker panics are isolated and retried. The
/// result is **bitwise identical** to the serial assembly for any
/// `threads` value. `threads == 0` resolves via
/// [`resolve_assembly_threads`]; small problems (below
/// [`PARALLEL_MIN_TRIANGLES`]) always run serially.
pub fn assemble_galerkin_parallel<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
    threads: usize,
) -> Matrix {
    assemble_parallel_inner(mesh, kernel, rule, threads, None)
        .expect("tokenless assembly cannot be cancelled")
}

/// Parallel [`assemble_galerkin_with_token`]: workers poll the token once
/// per assembled row; on cancellation the typed [`Cancelled`] reports
/// `completed` = rows fully assembled across all shards (the salvageable
/// prefix of the work), and the obs counters `galerkin.kernel_evals` /
/// `galerkin.rows_salvaged` account only the work actually performed.
///
/// # Errors
///
/// Only [`Cancelled`], when the token trips mid-assembly.
pub fn assemble_galerkin_parallel_with_token<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
    threads: usize,
    token: &CancelToken,
) -> Result<Matrix, Cancelled> {
    assemble_parallel_inner(mesh, kernel, rule, threads, Some(token))
}

/// Shared per-triangle quadrature data, precomputed once and read by all
/// shards.
enum RuleData<'a> {
    Centroid {
        centroids: &'a [Point2],
        areas: &'a [f64],
    },
    Nodes(Vec<Vec<(Point2, f64)>>),
}

impl RuleData<'_> {
    fn prepare<'a>(mesh: &'a Mesh, rule: QuadratureRule) -> RuleData<'a> {
        match rule {
            QuadratureRule::Centroid => RuleData::Centroid {
                centroids: mesh.centroids(),
                areas: mesh.areas(),
            },
            _ => RuleData::Nodes(
                (0..mesh.len())
                    .map(|i| rule.nodes(&mesh.triangle(i)))
                    .collect(),
            ),
        }
    }

    /// One matrix entry `K_ij` — the single floating-point expression both
    /// the serial and every parallel configuration evaluate, in the same
    /// operation order, which is what makes the assembly bitwise
    /// deterministic across worker counts.
    #[inline]
    fn entry<K: CovarianceKernel + ?Sized>(&self, kernel: &K, i: usize, j: usize) -> f64 {
        match self {
            RuleData::Centroid { centroids, areas } => {
                kernel.eval(centroids[i], centroids[j]) * areas[i] * areas[j]
            }
            RuleData::Nodes(node_sets) => {
                let mut acc = 0.0;
                for &(xi, wi) in &node_sets[i] {
                    for &(yj, wj) in &node_sets[j] {
                        acc += wi * wj * kernel.eval(xi, yj);
                    }
                }
                acc
            }
        }
    }
}

fn assemble_inner<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
    token: Option<&CancelToken>,
) -> Result<Matrix, Cancelled> {
    let _span = klest_obs::span("galerkin/assemble");
    let n = mesh.len();
    if klest_obs::enabled() {
        klest_obs::gauge_set("galerkin.matrix_dim", n as f64);
    }
    let data = RuleData::prepare(mesh, rule);
    let mut k = Matrix::zeros(n, n);
    let mut assembled = 0usize;
    let result = (|| -> Result<(), Cancelled> {
        for i in 0..n {
            if let Some(token) = token {
                token
                    .checkpoint("galerkin/assemble")
                    .map_err(|c| c.with_completed(i))?;
            }
            for j in i..n {
                let v = data.entry(kernel, i, j);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            assembled = i + 1;
        }
        Ok(())
    })();
    record_assembly_counters(n, rule, assembled, result.is_err());
    result.map(|()| k)
}

fn assemble_parallel_inner<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    rule: QuadratureRule,
    threads: usize,
    token: Option<&CancelToken>,
) -> Result<Matrix, Cancelled> {
    let n = mesh.len();
    let workers = resolve_assembly_threads(threads).min(n.max(1));
    if workers <= 1 || n < PARALLEL_MIN_TRIANGLES {
        return assemble_inner(mesh, kernel, rule, token);
    }
    let _span = klest_obs::span("galerkin/assemble");
    if klest_obs::enabled() {
        klest_obs::gauge_set("galerkin.matrix_dim", n as f64);
    }
    let data = RuleData::prepare(mesh, rule);
    let bounds = shard_row_bounds(n, workers);
    let pool_token = token.cloned().unwrap_or_else(CancelToken::unlimited);
    let supervisor = Supervisor::new(pool_token);
    let data_ref = &data;
    // Each shard returns an owned, packed copy of its upper-triangle rows
    // (row i contributes columns i..n). Owned results keep retries safe:
    // a panicking attempt cannot leave half-written matrix rows behind.
    let run = supervisor.run(bounds.len(), |shard, tok| -> Result<Vec<f64>, Cancelled> {
        let (r0, r1) = bounds[shard];
        let mut packed = Vec::with_capacity(tri_entries(n, r0, r1 - r0) as usize);
        for i in r0..r1 {
            tok.checkpoint("galerkin/assemble")
                .map_err(|c| c.with_completed(i - r0))?;
            for j in i..n {
                packed.push(data_ref.entry(kernel, i, j));
            }
        }
        Ok(packed)
    });

    // Scatter the owned blocks into the matrix (single-threaded, so the
    // symmetric mirror writes into other shards' row ranges are safe).
    let mut k = Matrix::zeros(n, n);
    let mut assembled = 0usize;
    let mut cancelled: Option<Cancelled> = None;
    let mut faulted: Vec<usize> = Vec::new();
    for (shard, result) in run.results.iter().enumerate() {
        let (r0, r1) = bounds[shard];
        match result {
            Some(Ok(packed)) => {
                let mut at = 0usize;
                for i in r0..r1 {
                    for j in i..n {
                        let v = packed[at];
                        at += 1;
                        k[(i, j)] = v;
                        k[(j, i)] = v;
                    }
                }
                assembled += r1 - r0;
            }
            Some(Err(c)) => {
                // Rows this shard finished before its trip were computed
                // but not returned; count them as performed work.
                assembled += c.completed;
                if cancelled.is_none() {
                    cancelled = Some(c.clone());
                }
            }
            None => faulted.push(shard),
        }
    }
    if let Some(c) = cancelled {
        record_assembly_counters(n, rule, assembled, true);
        return Err(c.with_completed(assembled));
    }
    // A shard whose every attempt panicked (a poisoned kernel, say) is
    // re-assembled serially here so a deterministic panic surfaces on the
    // caller's thread exactly as it would on the serial path, while
    // transient faults get one more chance.
    for shard in faulted {
        let (r0, r1) = bounds[shard];
        for i in r0..r1 {
            for j in i..n {
                let v = data.entry(kernel, i, j);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        assembled += r1 - r0;
    }
    record_assembly_counters(n, rule, assembled, false);
    Ok(k)
}

/// The Galerkin matrix as an on-the-fly [`LinearOperator`]: `apply`
/// evaluates kernel–quadrature entries per matrix–vector product instead
/// of ever materializing the O(n²) matrix, which is what lets the
/// matrix-free Lanczos path
/// ([`PartialEigen::lanczos_op`](klest_linalg::PartialEigen::lanczos_op))
/// run KLEs on 10⁵-element meshes in O(n·k) memory.
///
/// **Bitwise contract**: `y[i]` is the exact floating-point expression
/// the dense path evaluates — entries come from the same
/// mirrored-upper-triangle [`RuleData::entry`] calls and accumulate in
/// the same left-to-right order as `vecops::dot(dense_row_i, x)` — so a
/// matrix-free solve and a dense solve walk identical Krylov spaces, for
/// **any worker count** (each `y[i]` is produced by exactly one worker
/// running that one expression; shard boundaries reuse the
/// entry-balanced [`shard_row_bounds`] of the parallel assembly).
///
/// Cost: one apply is O(n²) kernel evaluations (the full square, not the
/// half the one-shot assembly pays — the price of never storing the
/// mirror), so matrix-free wins when `iters × 2 < n/8` … in practice
/// always, since the dense path cannot even allocate at n = 10⁵.
pub struct GalerkinOperator<'a, K: ?Sized> {
    data: RuleData<'a>,
    kernel: &'a K,
    n: usize,
    rule: QuadratureRule,
    threads: usize,
    token: Option<CancelToken>,
}

impl<'a, K: CovarianceKernel + ?Sized> GalerkinOperator<'a, K> {
    /// Builds the operator over `mesh` × `kernel` with the given
    /// quadrature rule. `threads` follows the assembly convention:
    /// `0` = auto via [`resolve_assembly_threads`], `1` = serial, and
    /// meshes below [`PARALLEL_MIN_TRIANGLES`] always run serially.
    pub fn new(mesh: &'a Mesh, kernel: &'a K, rule: QuadratureRule, threads: usize) -> Self {
        GalerkinOperator {
            data: RuleData::prepare(mesh, rule),
            kernel,
            n: mesh.len(),
            rule,
            threads,
            token: None,
        }
    }

    /// Attaches a cooperative [`CancelToken`], polled once per output row
    /// (stage `"galerkin/matvec"`). On a trip, `apply` returns
    /// [`LinalgError::Cancelled`] with `completed` = rows produced.
    #[must_use]
    pub fn with_token(mut self, token: &CancelToken) -> Self {
        self.token = Some(token.clone());
        self
    }

    /// The quadrature rule the operator evaluates entries with.
    pub fn rule(&self) -> QuadratureRule {
        self.rule
    }

    /// One output element `y[i] = Σ_j K_ij x[j]` — the canonical
    /// expression every configuration (serial, any shard count, faulted
    /// re-run) evaluates for row `i`, matching the dense
    /// `vecops::dot(row_i, x)` bitwise: same mirrored entries, same
    /// left-to-right accumulation from `0.0`.
    #[inline]
    fn row_value(&self, i: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (j, &xj) in x.iter().enumerate() {
            let e = if i <= j {
                self.data.entry(self.kernel, i, j)
            } else {
                self.data.entry(self.kernel, j, i)
            };
            acc += e * xj;
        }
        acc
    }

    fn apply_serial(&self, x: &[f64], y: &mut [f64]) -> Result<(), Cancelled> {
        for (i, out) in y.iter_mut().enumerate() {
            if let Some(token) = &self.token {
                token
                    .checkpoint("galerkin/matvec")
                    .map_err(|c| c.with_completed(i))?;
            }
            *out = self.row_value(i, x);
        }
        Ok(())
    }

    fn apply_parallel(&self, x: &[f64], y: &mut [f64], workers: usize) -> Result<(), Cancelled> {
        let n = self.n;
        let bounds = shard_row_bounds(n, workers);
        let pool_token = self.token.clone().unwrap_or_else(CancelToken::unlimited);
        let supervisor = Supervisor::new(pool_token);
        // Owned per-shard row blocks, scattered single-threaded below —
        // the same retry-safe shape as the parallel assembly.
        let run = supervisor.run(bounds.len(), |shard, tok| -> Result<Vec<f64>, Cancelled> {
            let (r0, r1) = bounds[shard];
            let mut block = Vec::with_capacity(r1 - r0);
            for i in r0..r1 {
                tok.checkpoint("galerkin/matvec")
                    .map_err(|c| c.with_completed(i - r0))?;
                block.push(self.row_value(i, x));
            }
            Ok(block)
        });
        let mut produced = 0usize;
        let mut cancelled: Option<Cancelled> = None;
        let mut faulted: Vec<usize> = Vec::new();
        for (shard, result) in run.results.iter().enumerate() {
            let (r0, r1) = bounds[shard];
            match result {
                Some(Ok(block)) => {
                    y[r0..r1].copy_from_slice(block);
                    produced += r1 - r0;
                }
                Some(Err(c)) => {
                    produced += c.completed;
                    if cancelled.is_none() {
                        cancelled = Some(c.clone());
                    }
                }
                None => faulted.push(shard),
            }
        }
        if let Some(c) = cancelled {
            return Err(c.with_completed(produced));
        }
        // Shards whose every attempt panicked re-run serially on the
        // caller's thread, mirroring the parallel-assembly contract: a
        // deterministic panic surfaces exactly as on the serial path.
        for shard in faulted {
            let (r0, r1) = bounds[shard];
            for (i, out) in y[r0..r1].iter_mut().enumerate() {
                *out = self.row_value(r0 + i, x);
            }
        }
        Ok(())
    }
}

impl<K: CovarianceKernel + ?Sized> LinearOperator for GalerkinOperator<'_, K> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.n || y.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                op: "galerkin operator apply",
                left: (self.n, self.n),
                right: (x.len(), y.len()),
            });
        }
        let workers = resolve_assembly_threads(self.threads).min(self.n.max(1));
        let result = if workers <= 1 || self.n < PARALLEL_MIN_TRIANGLES {
            self.apply_serial(x, y)
        } else {
            self.apply_parallel(x, y, workers)
        };
        if klest_obs::enabled() {
            klest_obs::counter_add("galerkin.operator_matvecs", 1);
            let nodes = self.rule.node_count() as u64;
            let rows = match &result {
                Ok(()) => self.n,
                Err(c) => c.completed,
            } as u64;
            // A matvec evaluates full rows (n entries each), not the
            // assembly's half triangle.
            klest_obs::counter_add(
                "galerkin.kernel_evals",
                rows * self.n as u64 * nodes * nodes,
            );
        }
        result.map_err(LinalgError::from)
    }
}

/// Books the work actually performed: `galerkin.kernel_evals` counts the
/// kernel evaluations of the rows genuinely assembled (not the planned
/// total — a cancelled assembly no longer over-reports), and a cancelled
/// run additionally records the salvageable prefix as
/// `galerkin.rows_salvaged`.
fn record_assembly_counters(n: usize, rule: QuadratureRule, rows: usize, cancelled: bool) {
    if !klest_obs::enabled() {
        return;
    }
    let nodes = rule.node_count() as u64;
    klest_obs::counter_add(
        "galerkin.kernel_evals",
        tri_entries(n, 0, rows) * nodes * nodes,
    );
    if cancelled {
        klest_obs::counter_add("galerkin.rows_salvaged", rows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_geometry::Rect;
    use klest_kernels::GaussianKernel;
    use klest_mesh::MeshBuilder;

    fn mesh() -> Mesh {
        MeshBuilder::new(Rect::unit_die())
            .max_area(0.2)
            .min_angle_degrees(25.0)
            .build()
            .unwrap()
    }

    fn big_mesh() -> Mesh {
        // Above PARALLEL_MIN_TRIANGLES so the parallel path actually runs.
        MeshBuilder::new(Rect::unit_die())
            .max_area(0.02)
            .min_angle_degrees(25.0)
            .build()
            .unwrap()
    }

    #[test]
    fn centroid_rule_matches_closed_form() {
        let m = mesh();
        let kern = GaussianKernel::new(1.5);
        let k = assemble_galerkin(&m, &kern, QuadratureRule::Centroid);
        for i in 0..m.len() {
            for j in 0..m.len() {
                let expected =
                    kern.eval(m.centroids()[i], m.centroids()[j]) * m.areas()[i] * m.areas()[j];
                assert!((k[(i, j)] - expected).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn assembly_is_symmetric_for_all_rules() {
        let m = mesh();
        let kern = GaussianKernel::new(1.0);
        for rule in [
            QuadratureRule::Centroid,
            QuadratureRule::ThreePoint,
            QuadratureRule::SevenPoint,
        ] {
            let k = assemble_galerkin(&m, &kern, rule);
            assert_eq!(k.asymmetry().unwrap(), 0.0, "{rule:?}");
        }
    }

    #[test]
    fn diagonal_dominated_by_self_correlation() {
        // K(x, x) = 1 is the kernel maximum, so the centroid-rule diagonal
        // equals a_i² exactly.
        let m = mesh();
        let k = assemble_galerkin(&m, &GaussianKernel::new(1.0), QuadratureRule::Centroid);
        for i in 0..m.len() {
            let a = m.areas()[i];
            assert!((k[(i, i)] - a * a).abs() < 1e-15);
        }
    }

    #[test]
    fn higher_order_rule_converges_to_same_values() {
        // On a fixed mesh, 3-point and 7-point assemblies should agree
        // with each other more closely than with the centroid rule
        // (they're both exact to higher degree).
        let m = mesh();
        let kern = GaussianKernel::new(2.0);
        let k1 = assemble_galerkin(&m, &kern, QuadratureRule::Centroid);
        let k3 = assemble_galerkin(&m, &kern, QuadratureRule::ThreePoint);
        let k7 = assemble_galerkin(&m, &kern, QuadratureRule::SevenPoint);
        let d13 = k1.sub(&k3).unwrap().max_abs();
        let d37 = k3.sub(&k7).unwrap().max_abs();
        assert!(
            d37 < d13,
            "3pt-7pt gap {d37} should be below centroid gap {d13}"
        );
    }

    #[test]
    fn total_mass_approximates_double_integral() {
        // Σ_ik K_ik ≈ ∬∬ K over D × D. For the Gaussian kernel this is a
        // smooth positive quantity; centroid vs 7-point must agree within
        // the linear-convergence error budget.
        let m = mesh();
        let kern = GaussianKernel::new(1.0);
        let s1: f64 = assemble_galerkin(&m, &kern, QuadratureRule::Centroid)
            .as_slice()
            .iter()
            .sum();
        let s7: f64 = assemble_galerkin(&m, &kern, QuadratureRule::SevenPoint)
            .as_slice()
            .iter()
            .sum();
        // The test mesh is deliberately coarse (max_area 0.2, h ≈ 0.9),
        // so the centroid rule's linear-in-h error is a few percent.
        assert!((s1 - s7).abs() / s7.abs() < 0.05, "{s1} vs {s7}");
    }

    #[test]
    fn shard_bounds_partition_rows_and_balance_entries() {
        for (n, shards) in [(5, 2), (128, 4), (200, 7), (200, 1), (3, 8)] {
            let bounds = shard_row_bounds(n, shards);
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds[bounds.len() - 1].1, n);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let total: u64 = bounds.iter().map(|&(a, b)| tri_entries(n, a, b - a)).sum();
            assert_eq!(total, tri_entries(n, 0, n));
        }
        // Balance sanity on a real size: no shard more than ~2x the mean.
        let n = 500;
        let bounds = shard_row_bounds(n, 8);
        let mean = tri_entries(n, 0, n) / 8;
        for &(a, b) in &bounds {
            assert!(tri_entries(n, a, b - a) <= 2 * mean);
        }
    }

    #[test]
    fn tri_entries_closed_form() {
        assert_eq!(tri_entries(4, 0, 4), 10);
        assert_eq!(tri_entries(4, 0, 1), 4);
        assert_eq!(tri_entries(4, 3, 1), 1);
        assert_eq!(tri_entries(4, 2, 99), 3, "count clamps to available rows");
        assert_eq!(tri_entries(0, 0, 0), 0);
    }

    #[test]
    fn parallel_assembly_is_bitwise_identical_to_serial() {
        let m = big_mesh();
        assert!(
            m.len() >= PARALLEL_MIN_TRIANGLES,
            "mesh too small: {}",
            m.len()
        );
        let kern = GaussianKernel::new(1.5);
        for rule in [QuadratureRule::Centroid, QuadratureRule::ThreePoint] {
            let serial = assemble_galerkin(&m, &kern, rule);
            for threads in [2, 3, 8] {
                let parallel = assemble_galerkin_parallel(&m, &kern, rule, threads);
                assert!(
                    serial.as_slice() == parallel.as_slice(),
                    "{rule:?} with {threads} threads drifted from serial"
                );
            }
        }
    }

    #[test]
    fn parallel_below_threshold_falls_back_to_serial() {
        let m = mesh();
        assert!(m.len() < PARALLEL_MIN_TRIANGLES);
        let kern = GaussianKernel::new(1.0);
        let serial = assemble_galerkin(&m, &kern, QuadratureRule::Centroid);
        let parallel = assemble_galerkin_parallel(&m, &kern, QuadratureRule::Centroid, 8);
        assert!(serial.as_slice() == parallel.as_slice());
    }

    #[test]
    fn parallel_cancellation_is_typed_with_row_accounting() {
        let m = big_mesh();
        let kern = GaussianKernel::new(1.0);
        let token = CancelToken::unlimited();
        token.cancel();
        match assemble_galerkin_parallel_with_token(&m, &kern, QuadratureRule::Centroid, 4, &token)
        {
            Err(c) => {
                assert_eq!(c.stage, "galerkin/assemble");
                assert_eq!(c.completed, 0, "pre-tripped token assembles nothing");
            }
            Ok(_) => panic!("expected cancellation"),
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_assembly_threads(3), 3);
        assert_eq!(resolve_assembly_threads(1), 1);
        // 0 = auto; without KLEST_THREADS in the test environment this is
        // serial. (Env-var parsing itself is covered by the CLI tests to
        // avoid racing set_var across parallel test threads.)
    }
}
