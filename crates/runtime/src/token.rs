//! Cooperative cancellation: budgets, tokens and the typed `Cancelled` error.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no deterministic trip installed" in
/// [`CancelToken::trip_after_checkpoints`].
const TRIP_DISABLED: u64 = u64::MAX;

/// A wall-clock allowance for a run or a pipeline stage.
///
/// `Budget` is deliberately tiny: either unlimited or a `Duration`. The
/// deadline arithmetic lives in [`CancelToken`], which snapshots
/// `Instant::now()` when the budget is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    wall: Option<Duration>,
}

impl Budget {
    /// No wall-clock limit; checkpoints only trip on explicit `cancel()`.
    pub const UNLIMITED: Budget = Budget { wall: None };

    /// A budget of exactly `wall` from the moment a token adopts it.
    pub fn wall(wall: Duration) -> Budget {
        Budget { wall: Some(wall) }
    }

    /// Parses a budget from (fractional) seconds, as supplied on the CLI.
    ///
    /// Returns `None` for NaN, infinite, zero or negative inputs — the
    /// caller turns that into its own typed invalid-argument error.
    pub fn try_from_secs(secs: f64) -> Option<Budget> {
        if !secs.is_finite() || secs <= 0.0 {
            return None;
        }
        Some(Budget::wall(Duration::from_secs_f64(secs)))
    }

    /// The wall-clock limit, if any.
    pub fn limit(&self) -> Option<Duration> {
        self.wall
    }

    /// True when this budget imposes no wall-clock limit.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none()
    }
}

/// Per-stage wall-clock allowances, keyed by stage name (`mesh`, `eigen`,
/// `mc`, ...).
///
/// Parsed from the CLI's `--stage-budget mesh=0.5,mc=2` flag; consulted when
/// deriving child tokens so each supervised stage gets
/// `min(global remaining, stage allowance)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBudgets {
    entries: Vec<(String, Duration)>,
}

impl StageBudgets {
    /// An empty set: every stage inherits the parent budget unchanged.
    pub fn none() -> StageBudgets {
        StageBudgets::default()
    }

    /// Parses the comma-separated `stage=secs` list used by the CLI, e.g.
    /// `"mesh=0.5,mc=2"`. Later entries for the same stage override earlier
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns the offending fragment when an entry is not `name=secs` or
    /// the seconds are not a positive finite number.
    pub fn parse(spec: &str) -> Result<StageBudgets, String> {
        let mut budgets = StageBudgets::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let Some((stage, secs)) = entry.split_once('=') else {
                return Err(format!("`{entry}` (expected stage=secs)"));
            };
            let Ok(secs) = secs.trim().parse::<f64>() else {
                return Err(format!("`{entry}` (seconds must be numeric)"));
            };
            let Some(budget) = Budget::try_from_secs(secs) else {
                return Err(format!("`{entry}` (seconds must be positive and finite)"));
            };
            let limit = budget.limit().unwrap_or_default();
            budgets.set(stage.trim(), limit);
        }
        Ok(budgets)
    }

    /// Sets (or replaces) the allowance for `stage`.
    pub fn set(&mut self, stage: &str, wall: Duration) {
        if let Some(slot) = self.entries.iter_mut().find(|(s, _)| s == stage) {
            slot.1 = wall;
        } else {
            self.entries.push((stage.to_string(), wall));
        }
    }

    /// The allowance for `stage`, as a [`Budget`]; unlimited when unset.
    pub fn budget(&self, stage: &str) -> Budget {
        self.entries
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, wall)| Budget::wall(*wall))
            .unwrap_or(Budget::UNLIMITED)
    }

    /// True when no stage has an allowance.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Typed partial-result marker: a stage was cancelled cooperatively.
///
/// `stage` names the checkpoint that tripped, `completed` counts the units
/// of work (samples, rows, points, sweeps — stage-defined) finished before
/// the trip, and `budget` echoes the wall-clock allowance that expired, when
/// the trip came from a deadline rather than an explicit `cancel()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cancelled {
    /// Checkpoint label, e.g. `"mc/sample"` or `"mesh/refine"`.
    pub stage: &'static str,
    /// Units of work completed before cancellation (stage-defined).
    pub completed: usize,
    /// The wall-clock allowance of the token that tripped, if it had one.
    pub budget: Option<Duration>,
}

impl Cancelled {
    /// Replaces the progress count — checkpoints themselves cannot know how
    /// much the caller salvaged, so loops annotate on the way out:
    /// `token.checkpoint("mc/sample").map_err(|c| c.with_completed(done))`.
    #[must_use]
    pub fn with_completed(mut self, completed: usize) -> Cancelled {
        self.completed = completed;
        self
    }
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage `{}` cancelled after {} completed unit(s)",
            self.stage, self.completed
        )?;
        if let Some(budget) = self.budget {
            write!(f, " (budget {:.3}s exhausted)", budget.as_secs_f64())?;
        }
        Ok(())
    }
}

impl std::error::Error for Cancelled {}

struct TokenInner {
    cancelled: AtomicBool,
    /// Instant past which every checkpoint trips; `None` = no deadline.
    deadline: Option<Instant>,
    /// The allowance `deadline` was derived from, echoed into [`Cancelled`].
    budget: Option<Duration>,
    /// Deterministic test hook: checkpoints left before tripping;
    /// [`TRIP_DISABLED`] means the hook is off.
    trip_after: AtomicU64,
    /// Hierarchy link: a child also trips when any ancestor does.
    parent: Option<CancelToken>,
}

/// Cooperative cancellation handle shared across threads.
///
/// Cloning is cheap (an `Arc` bump) and all clones observe the same state.
/// The fast path of [`checkpoint`](CancelToken::checkpoint) is a single
/// relaxed atomic load, so it is safe to call once per Monte Carlo sample,
/// per inserted mesh point, per assembled Galerkin row or per eigensolver
/// sweep without measurable overhead.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("budget", &self.inner.budget)
            .finish()
    }
}

impl CancelToken {
    /// A token that never trips on its own; only [`cancel`](Self::cancel)
    /// (or the deterministic trip hook) fires it. This is what the
    /// non-supervised library entry points use internally.
    pub fn unlimited() -> CancelToken {
        CancelToken::with_budget(Budget::UNLIMITED)
    }

    /// A root token adopting `budget`, with the deadline measured from now.
    pub fn with_budget(budget: Budget) -> CancelToken {
        let now = Instant::now();
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: budget.limit().map(|w| now + w),
                budget: budget.limit(),
                trip_after: AtomicU64::new(TRIP_DISABLED),
                parent: None,
            }),
        }
    }

    /// Derives a per-stage child token.
    ///
    /// The child's effective deadline is the earlier of the parent's
    /// remaining deadline and `now + budget`; it additionally trips whenever
    /// any ancestor is cancelled, so a stage can never outlive its run.
    pub fn child(&self, budget: Budget) -> CancelToken {
        let now = Instant::now();
        let own = budget.limit().map(|w| now + w);
        let deadline = match (own, self.effective_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline,
                budget: budget.limit().or(self.inner.budget),
                trip_after: AtomicU64::new(TRIP_DISABLED),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cancellation; every clone and descendant observes it at its
    /// next checkpoint. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Arms the deterministic test hook: the next `n` checkpoints succeed,
    /// every one after that trips as if the token had been cancelled. Used
    /// by property and fault-injection tests to cancel at an exact,
    /// clock-free point in a computation.
    pub fn trip_after_checkpoints(&self, n: u64) {
        self.inner.trip_after.store(n, Ordering::Release);
    }

    /// True when this token (or an ancestor) is cancelled or past deadline.
    ///
    /// Unlike [`checkpoint`](Self::checkpoint) this never consumes the
    /// deterministic trip hook's countdown.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        if let Some(parent) = &self.inner.parent {
            if parent.is_cancelled() {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// The cancellation probe long-running loops call once per unit of work.
    ///
    /// Returns `Err(Cancelled)` (with `completed == 0`; annotate with
    /// [`Cancelled::with_completed`]) when the token is cancelled, past its
    /// deadline, an ancestor tripped, or the deterministic trip hook ran
    /// out. The fast path — no deadline, no hook, not cancelled — is one
    /// relaxed atomic load.
    pub fn checkpoint(&self, stage: &'static str) -> Result<(), Cancelled> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(self.cancelled_err(stage));
        }
        if self.inner.trip_after.load(Ordering::Relaxed) != TRIP_DISABLED {
            let spent =
                self.inner
                    .trip_after
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1));
            if spent.is_err() {
                // Countdown exhausted: behave exactly like a cancellation.
                self.inner.cancelled.store(true, Ordering::Release);
                return Err(self.cancelled_err(stage));
            }
        }
        if self.is_cancelled() {
            return Err(self.cancelled_err(stage));
        }
        Ok(())
    }

    /// Wall-clock remaining before the effective deadline; `None` when no
    /// deadline applies (zero once the deadline has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.effective_deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The budget this token (or the nearest budgeted ancestor) adopted.
    pub fn budget(&self) -> Option<Duration> {
        self.inner.budget
    }

    fn effective_deadline(&self) -> Option<Instant> {
        // Child deadlines are already clamped to the ancestor chain at
        // construction; only explicit cancellation needs chain traversal.
        self.inner.deadline
    }

    fn cancelled_err(&self, stage: &'static str) -> Cancelled {
        Cancelled {
            stage,
            completed: 0,
            budget: self.inner.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_token_never_trips() {
        let token = CancelToken::unlimited();
        for _ in 0..10_000 {
            assert!(token.checkpoint("loop").is_ok());
        }
        assert!(!token.is_cancelled());
        assert_eq!(token.remaining(), None);
        assert_eq!(token.budget(), None);
    }

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let token = CancelToken::unlimited();
        let clone = token.clone();
        token.cancel();
        let err = clone.checkpoint("stage").unwrap_err();
        assert_eq!(err.stage, "stage");
        assert_eq!(err.completed, 0);
        assert_eq!(err.budget, None);
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let token = CancelToken::with_budget(Budget::wall(Duration::from_millis(20)));
        assert!(token.checkpoint("early").is_ok());
        thread::sleep(Duration::from_millis(40));
        let err = token.checkpoint("late").unwrap_err();
        assert_eq!(err.budget, Some(Duration::from_millis(20)));
        assert!(token.is_cancelled());
    }

    #[test]
    fn child_inherits_parent_cancellation() {
        let parent = CancelToken::unlimited();
        let child = parent.child(Budget::UNLIMITED);
        assert!(child.checkpoint("stage").is_ok());
        parent.cancel();
        assert!(child.checkpoint("stage").is_err());
        assert!(child.is_cancelled());
    }

    #[test]
    fn child_deadline_is_clamped_to_parent() {
        let parent = CancelToken::with_budget(Budget::wall(Duration::from_millis(30)));
        // A generous stage budget cannot extend past the parent's deadline.
        let child = parent.child(Budget::wall(Duration::from_secs(3600)));
        thread::sleep(Duration::from_millis(60));
        assert!(child.checkpoint("stage").is_err());
    }

    #[test]
    fn cancelling_child_leaves_parent_alive() {
        let parent = CancelToken::unlimited();
        let child = parent.child(Budget::UNLIMITED);
        child.cancel();
        assert!(child.is_cancelled());
        assert!(parent.checkpoint("stage").is_ok());
    }

    #[test]
    fn trip_after_checkpoints_is_exact() {
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(5);
        for i in 0..5 {
            assert!(token.checkpoint("count").is_ok(), "checkpoint {i}");
        }
        assert!(token.checkpoint("count").is_err());
        // And it stays tripped.
        assert!(token.checkpoint("count").is_err());
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancelled_with_completed_and_display() {
        let c = Cancelled {
            stage: "mc/sample",
            completed: 0,
            budget: Some(Duration::from_millis(1500)),
        }
        .with_completed(42);
        assert_eq!(c.completed, 42);
        let text = c.to_string();
        assert!(text.contains("mc/sample"), "{text}");
        assert!(text.contains("42"), "{text}");
        assert!(text.contains("1.500"), "{text}");
        let unbudgeted = Cancelled {
            stage: "x",
            completed: 0,
            budget: None,
        };
        assert!(!unbudgeted.to_string().contains("budget"));
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(
            Budget::try_from_secs(1.5),
            Some(Budget::wall(Duration::from_millis(1500)))
        );
        assert_eq!(Budget::try_from_secs(0.0), None);
        assert_eq!(Budget::try_from_secs(-2.0), None);
        assert_eq!(Budget::try_from_secs(f64::NAN), None);
        assert_eq!(Budget::try_from_secs(f64::INFINITY), None);
        assert!(Budget::UNLIMITED.is_unlimited());
        assert!(!Budget::wall(Duration::from_secs(1)).is_unlimited());
    }

    #[test]
    fn stage_budgets_parse_and_lookup() {
        let budgets = StageBudgets::parse("mesh=0.5, mc=2").unwrap();
        assert_eq!(
            budgets.budget("mesh").limit(),
            Some(Duration::from_millis(500))
        );
        assert_eq!(budgets.budget("mc").limit(), Some(Duration::from_secs(2)));
        assert!(budgets.budget("eigen").is_unlimited());
        assert!(!budgets.is_empty());
        assert!(StageBudgets::none().is_empty());
        // Later entries override.
        let b = StageBudgets::parse("mc=1,mc=3").unwrap();
        assert_eq!(b.budget("mc").limit(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn stage_budgets_reject_malformed() {
        assert!(StageBudgets::parse("mesh").is_err());
        assert!(StageBudgets::parse("mesh=abc").is_err());
        assert!(StageBudgets::parse("mesh=-1").is_err());
        assert!(StageBudgets::parse("mesh=0").is_err());
        assert!(StageBudgets::parse("mesh=inf").is_err());
        // Empty fragments are tolerated (trailing commas).
        assert!(StageBudgets::parse("mc=1,").is_ok());
        assert!(StageBudgets::parse("").unwrap().is_empty());
    }

    #[test]
    fn checkpoint_under_contention() {
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(1000);
        let passed: usize = thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let t = token.clone();
                    scope.spawn(move || {
                        let mut ok = 0usize;
                        for _ in 0..1000 {
                            if t.checkpoint("hammer").is_ok() {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Exactly the armed number of checkpoints may pass, racing threads
        // must never exceed it (checked_sub saturates at the sentinel).
        assert_eq!(passed, 1000);
        assert!(token.is_cancelled());
    }
}
