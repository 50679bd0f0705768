//! Fault injection for robustness testing: deliberately broken kernels,
//! matrices, meshes and placements.
//!
//! Every generator here produces an input that is *plausible* — right
//! types, right shapes — but numerically or geometrically hostile: an
//! indefinite kernel, a NaN-poisoned Gram matrix, a sliver triangle, a
//! gate placed off-die. The integration suite (`tests/fault_injection.rs`)
//! drives the pipeline with these and asserts the contract of DESIGN.md's
//! degradation policy: a typed error or a recorded repair, never a panic.

use klest_geometry::{Point2, Rect};
use klest_kernels::CovarianceKernel;
use klest_linalg::Matrix;
use klest_runtime::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// An indefinite "kernel": `K(x, y) = 1 − d·‖x−y‖` without the cone's
/// clamp at zero, so distant pairs go *negative* — grossly violating
/// positive semidefiniteness on any spread-out point set.
#[derive(Debug, Clone, Copy)]
pub struct IndefiniteKernel {
    /// Slope `d` of the linear decay.
    pub slope: f64,
}

impl CovarianceKernel for IndefiniteKernel {
    fn eval(&self, x: Point2, y: Point2) -> f64 {
        1.0 - self.slope * x.distance(y)
    }
    fn name(&self) -> &str {
        "fault:indefinite"
    }
}

/// A kernel returning NaN for every distinct pair — models a fitted
/// kernel whose parameter table was corrupted. The diagonal stays 1 so
/// shape checks pass and the poison reaches the numerics.
#[derive(Debug, Clone, Copy)]
pub struct NanKernel;

impl CovarianceKernel for NanKernel {
    fn eval(&self, x: Point2, y: Point2) -> f64 {
        if x == y {
            1.0
        } else {
            f64::NAN
        }
    }
    fn name(&self) -> &str {
        "fault:nan"
    }
}

/// A *barely* indefinite kernel: unit correlation everywhere but a
/// diagonal deficit, putting the Gram's smallest eigenvalue a hair below
/// zero — deep enough to defeat the construction nugget, shallow enough
/// that a jitter rung repairs it. Exercises the middle of the Cholesky
/// retry ladder.
#[derive(Debug, Clone, Copy)]
pub struct NearSingularKernel {
    /// How far the diagonal sits below 1 (e.g. `5e-8`).
    pub deficit: f64,
}

impl CovarianceKernel for NearSingularKernel {
    fn eval(&self, x: Point2, y: Point2) -> f64 {
        if x == y {
            1.0 - self.deficit
        } else {
            1.0
        }
    }
    fn name(&self) -> &str {
        "fault:near-singular"
    }
}

/// A symmetric matrix with a NaN planted at `(row, col)` (mirrored), the
/// rest a well-conditioned diagonal-dominant pattern.
pub fn nan_poisoned_matrix(n: usize, row: usize, col: usize) -> Matrix {
    let mut m = Matrix::from_fn(n, n, |i, j| if i == j { 2.0 } else { 0.1 });
    m[(row, col)] = f64::NAN;
    m[(col, row)] = f64::NAN;
    m
}

/// Raw triangulation parts containing one zero-area (collinear) triangle:
/// feeding these to `Mesh::from_parts` must yield a typed
/// `DegenerateTriangle` error.
pub fn degenerate_mesh_parts() -> (Rect, Vec<Point2>, Vec<[usize; 3]>) {
    let points = vec![
        Point2::new(-1.0, -1.0),
        Point2::new(1.0, -1.0),
        Point2::new(1.0, 1.0),
        Point2::new(0.0, 0.0),
        Point2::new(0.5, 0.5), // collinear with the previous and next
        Point2::new(1.0, 1.0),
    ];
    let triangles = vec![[0, 1, 2], [3, 4, 5]];
    (Rect::unit_die(), points, triangles)
}

/// Pipeline stage a runtime fault (panic / hang) is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Mesh generation (Bowyer–Watson seeding / Ruppert refinement).
    Mesh,
    /// Galerkin assembly + eigensolve.
    Eigen,
    /// The Monte Carlo sampling loop.
    Mc,
}

struct PanicFault {
    stage: Stage,
    shard: usize,
    remaining: AtomicUsize,
}

struct HangFault {
    stage: Stage,
    /// `None` hangs the first worker to arrive, whichever shard that is.
    shard: Option<usize>,
    millis: u64,
    fired: AtomicBool,
}

struct AbortFault {
    stage: Stage,
    shard: usize,
    /// Which arrival dies (1 = the very next one).
    countdown: AtomicUsize,
}

/// A deterministic schedule of *runtime* faults — panics and hangs —
/// injected into the supervised pipeline at named stage/shard sites.
///
/// Unlike the numerical generators above, these exercise the runtime
/// supervision layer: a [`Stage::Mc`] panic must be caught by the
/// supervisor and retried; a hang must be broken by the cooperative
/// deadline with completed work salvaged. Counters are atomic so the plan
/// can be shared by reference across worker threads, and each fault fires
/// a bounded number of times — a retried shard reruns the same closure,
/// so a one-shot panic models the transient fault the retry ladder is
/// designed for.
#[derive(Default)]
pub struct FaultPlan {
    panics: Vec<PanicFault>,
    hangs: Vec<HangFault>,
    aborts: Vec<AbortFault>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("panics", &self.panics.len())
            .field("hangs", &self.hangs.len())
            .field("aborts", &self.aborts.len())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panics the first time `shard` reaches `stage` (a transient fault:
    /// the supervisor's retry reruns the shard, which then succeeds).
    #[must_use]
    pub fn panic_at(self, stage: Stage, shard: usize) -> FaultPlan {
        self.panic_at_times(stage, shard, 1)
    }

    /// Panics the first `times` arrivals of `shard` at `stage`. With
    /// `times` above the supervisor's retry bound this models a permanent
    /// fault and the shard is lost.
    #[must_use]
    pub fn panic_at_times(mut self, stage: Stage, shard: usize, times: usize) -> FaultPlan {
        self.panics.push(PanicFault {
            stage,
            shard,
            remaining: AtomicUsize::new(times),
        });
        self
    }

    /// Hangs the first worker (any shard) that reaches `stage` for up to
    /// `millis` milliseconds. The sleep polls the worker's cancel token in
    /// small slices, so a deadline breaks the hang cooperatively — exactly
    /// the straggler scenario the supervised runtime must salvage.
    #[must_use]
    pub fn hang_for(mut self, stage: Stage, millis: u64) -> FaultPlan {
        self.hangs.push(HangFault {
            stage,
            shard: None,
            millis,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Like [`hang_for`](Self::hang_for) but pinned to one shard, for
    /// tests that need a deterministic victim (e.g. hang shard 1 while
    /// shard 0 takes a panic).
    #[must_use]
    pub fn hang_at(mut self, stage: Stage, shard: usize, millis: u64) -> FaultPlan {
        self.hangs.push(HangFault {
            stage,
            shard: Some(shard),
            millis,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Deterministic kill point: the `nth` arrival (1-based) of `shard`
    /// at `stage` dies with [`klest_runtime::simulated_abort`] —
    /// process-exit semantics, delivered as an
    /// [`klest_runtime::AbortSignal`] panic the supervisor re-raises
    /// instead of retrying, so it unwinds to the chaos test's catch
    /// point. Unlike [`panic_at`](Self::panic_at), an abort is never
    /// recovered; the whole supervised run dies, exactly like a real
    /// `std::process::abort` would take the process.
    #[must_use]
    pub fn abort_at(mut self, stage: Stage, shard: usize, nth: usize) -> FaultPlan {
        self.aborts.push(AbortFault {
            stage,
            shard,
            countdown: AtomicUsize::new(nth.max(1)),
        });
        self
    }

    /// Instrumentation hook: called by supervised pipeline code when
    /// `shard` enters `stage`. Fires any scheduled hang first (so a
    /// hang + panic at the same site hangs, wakes on cancellation, then
    /// panics), then any scheduled abort (process death beats a retryable
    /// panic at the same site), then any scheduled panic.
    pub fn fire(&self, stage: Stage, shard: usize, token: &CancelToken) {
        for hang in self
            .hangs
            .iter()
            .filter(|h| h.stage == stage && h.shard.is_none_or(|s| s == shard))
        {
            if hang
                .fired
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let slice = Duration::from_millis(5);
                let mut slept = Duration::ZERO;
                let total = Duration::from_millis(hang.millis);
                while slept < total && !token.is_cancelled() {
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        }
        for a in self
            .aborts
            .iter()
            .filter(|a| a.stage == stage && a.shard == shard)
        {
            // Countdown-to-one: exactly the scheduled arrival dies.
            if a.countdown
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                == Ok(1)
            {
                klest_runtime::simulated_abort(format!("{stage:?}/shard{shard}"));
            }
        }
        for p in self
            .panics
            .iter()
            .filter(|p| p.stage == stage && p.shard == shard)
        {
            // Decrement-if-positive: exactly `times` arrivals panic, even
            // under concurrent arrivals from sibling threads.
            let armed = p
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if armed {
                // Deliberate injected panic: panic_any keeps the library
                // free of the `panic!` macro the no-panic gate forbids.
                std::panic::panic_any(format!("injected fault: stage {stage:?}, shard {shard}"));
            }
        }
    }
}

/// Gate placements with a fraction of locations pushed off the unit die:
/// index 0 stays inside, odd indices are displaced far outside.
pub fn offdie_locations(count: usize) -> Vec<Point2> {
    (0..count)
        .map(|i| {
            let t = i as f64 / count.max(1) as f64;
            if i % 2 == 1 {
                Point2::new(3.0 + t, -4.0)
            } else {
                Point2::new(-0.8 + 1.6 * t, 0.3 - 0.6 * t)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indefinite_kernel_goes_negative() {
        let k = IndefiniteKernel { slope: 1.0 };
        assert_eq!(k.eval(Point2::ORIGIN, Point2::ORIGIN), 1.0);
        assert!(k.eval(Point2::new(-1.0, -1.0), Point2::new(1.0, 1.0)) < -1.0);
    }

    #[test]
    fn nan_kernel_poisons_offdiagonal_only() {
        let k = NanKernel;
        assert_eq!(k.eval(Point2::ORIGIN, Point2::ORIGIN), 1.0);
        assert!(k.eval(Point2::ORIGIN, Point2::new(0.1, 0.0)).is_nan());
    }

    #[test]
    fn panic_fault_fires_exactly_scheduled_times() {
        let plan = FaultPlan::new().panic_at_times(Stage::Mc, 1, 2);
        let token = CancelToken::unlimited();
        // Wrong shard / wrong stage: silent.
        plan.fire(Stage::Mc, 0, &token);
        plan.fire(Stage::Eigen, 1, &token);
        // Scheduled site: panics twice, then is exhausted.
        for _ in 0..2 {
            let r = std::panic::catch_unwind(|| plan.fire(Stage::Mc, 1, &token));
            let payload = r.expect_err("scheduled arrival must panic");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("shard 1"), "{msg}");
        }
        plan.fire(Stage::Mc, 1, &token); // third arrival: no panic
    }

    #[test]
    fn hang_fires_once_and_breaks_on_cancellation() {
        use std::time::Instant;
        let plan = FaultPlan::new().hang_for(Stage::Mc, 60_000);
        let token = CancelToken::unlimited();
        token.cancel();
        // Already-cancelled token: the hang returns immediately.
        let t0 = Instant::now();
        plan.fire(Stage::Mc, 0, &token);
        assert!(t0.elapsed() < Duration::from_secs(5));
        // Second arrival: fault already consumed, returns instantly even
        // on a live token.
        let live = CancelToken::unlimited();
        let t0 = Instant::now();
        plan.fire(Stage::Mc, 1, &live);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn abort_fault_fires_on_nth_arrival_with_abort_signal() {
        let plan = FaultPlan::new().abort_at(Stage::Mc, 0, 2);
        let token = CancelToken::unlimited();
        plan.fire(Stage::Mc, 1, &token); // wrong shard: silent
        plan.fire(Stage::Mc, 0, &token); // 1st arrival: survives
        let r = std::panic::catch_unwind(|| plan.fire(Stage::Mc, 0, &token));
        let payload = r.expect_err("2nd arrival must die");
        let signal = payload
            .downcast_ref::<klest_runtime::AbortSignal>()
            .expect("AbortSignal payload");
        assert!(signal.site.contains("Mc"), "{}", signal.site);
        plan.fire(Stage::Mc, 0, &token); // consumed: no refire
    }

    #[test]
    fn generators_have_expected_shapes() {
        let m = nan_poisoned_matrix(4, 0, 2);
        assert!(m[(0, 2)].is_nan() && m[(2, 0)].is_nan());
        assert_eq!(m[(1, 1)], 2.0);
        let (_, pts, tris) = degenerate_mesh_parts();
        assert_eq!(tris.len(), 2);
        assert!(pts.len() >= 6);
        let locs = offdie_locations(7);
        assert_eq!(locs.len(), 7);
        assert!(locs.iter().any(|p| p.x > 2.0));
        assert!(Rect::unit_die().contains(locs[0]));
    }
}
