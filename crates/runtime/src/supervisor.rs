//! Fault-isolating scoped worker pool with bounded retries.

use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use crate::CancelToken;

/// What happened to one shard of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// First attempt succeeded.
    Completed,
    /// The shard panicked at least once but a retry succeeded.
    Recovered {
        /// Number of retries it took (total attempts minus one).
        retries: usize,
    },
    /// Every attempt panicked (or cancellation forbade further retries);
    /// the shard produced no result.
    Faulted {
        /// Total attempts made, including the first.
        attempts: usize,
        /// The panic payload of the last attempt, stringified.
        message: String,
    },
}

impl ShardStatus {
    /// True for [`ShardStatus::Faulted`].
    pub fn is_fault(&self) -> bool {
        matches!(self, ShardStatus::Faulted { .. })
    }

    /// Retries consumed by this shard (0 for a clean first attempt).
    pub fn retries(&self) -> usize {
        match self {
            ShardStatus::Completed => 0,
            ShardStatus::Recovered { retries } => *retries,
            ShardStatus::Faulted { attempts, .. } => attempts.saturating_sub(1),
        }
    }
}

/// Outcome of [`Supervisor::run`]: per-shard results and fates.
///
/// `results[i]` is `None` exactly when `status[i]` is
/// [`ShardStatus::Faulted`] — the salvage invariant: completed shards keep
/// their results even when siblings fault or the run is cancelled.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Per-shard results, in shard order.
    pub results: Vec<Option<T>>,
    /// Per-shard fates, in shard order.
    pub status: Vec<ShardStatus>,
}

impl<T> SupervisedRun<T> {
    /// Total retries consumed across all shards.
    pub fn total_retries(&self) -> usize {
        self.status.iter().map(ShardStatus::retries).sum()
    }

    /// Shards that produced no result.
    pub fn fault_count(&self) -> usize {
        self.status.iter().filter(|s| s.is_fault()).count()
    }
}

/// A scoped worker pool that isolates panics per shard.
///
/// Each shard's closure runs under `catch_unwind`; a panic is converted into
/// a typed [`ShardStatus::Faulted`] after `max_retries` bounded-backoff
/// retries instead of propagating and killing the sibling shards. Workers
/// are expected to poll the supplied [`CancelToken`] and return partial
/// results on cancellation — the supervisor never kills a thread, it only
/// declines to retry once the token has tripped.
#[derive(Debug, Clone)]
pub struct Supervisor {
    token: CancelToken,
    max_retries: usize,
    backoff: Duration,
}

impl Supervisor {
    /// Default bound on retries per shard (total attempts = retries + 1).
    pub const DEFAULT_MAX_RETRIES: usize = 2;

    /// Default base backoff; attempt `k` sleeps `backoff * 2^(k-1)`.
    pub const DEFAULT_BACKOFF: Duration = Duration::from_millis(10);

    /// A supervisor handing clones of `token` to every shard.
    pub fn new(token: CancelToken) -> Supervisor {
        Supervisor {
            token,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            backoff: Self::DEFAULT_BACKOFF,
        }
    }

    /// Overrides the retry bound (0 disables retries entirely).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Supervisor {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the base backoff between retries.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Supervisor {
        self.backoff = backoff;
        self
    }

    /// The token this supervisor distributes to shards.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Runs one unit of work on the calling thread under the same panic
    /// isolation and bounded-backoff retry ladder as [`Supervisor::run`].
    ///
    /// This is the per-request form a serving worker loop uses: the worker
    /// thread pops a request, runs it through `run_one`, and a panicking
    /// request becomes a typed [`ShardStatus::Faulted`] for that request
    /// alone — the worker thread (and every other in-flight request)
    /// survives. `shard` is an identity echoed to the closure (request
    /// ordinals work well); retries rerun the closure with the same value.
    pub fn run_one<T, F>(&self, shard: usize, work: F) -> (Option<T>, ShardStatus)
    where
        F: Fn(usize, &CancelToken) -> T,
    {
        supervise_shard(
            shard,
            self.token.clone(),
            &work,
            self.max_retries,
            self.backoff,
        )
    }

    /// [`Supervisor::run_one`] wrapped in an obs span named `span_name`,
    /// opened on the calling thread so the stages the work runs (mesh /
    /// assemble / eigensolve / …) nest under it on the worker's span
    /// stack. With per-thread capture active
    /// ([`klest_obs::capture_begin`]) the whole attempt tree lands in
    /// the captured trace even when the global sink is off — the shape
    /// per-request response tracing needs.
    pub fn run_one_in_span<T, F>(
        &self,
        shard: usize,
        span_name: &str,
        work: F,
    ) -> (Option<T>, ShardStatus)
    where
        F: Fn(usize, &CancelToken) -> T,
    {
        let _span = klest_obs::span(span_name);
        self.run_one(shard, work)
    }

    /// Runs `work(shard, token)` for every shard on its own scoped thread,
    /// isolating panics and salvaging the results of shards that complete.
    ///
    /// The closure must be idempotent per shard: a retried shard reruns the
    /// closure with the same shard index (deterministic workloads derive
    /// their RNG streams from it, so retries reproduce the original shard).
    pub fn run<T, F>(&self, shards: usize, work: F) -> SupervisedRun<T>
    where
        T: Send,
        F: Fn(usize, &CancelToken) -> T + Sync,
    {
        klest_obs::gauge_set("supervisor.shards", shards as f64);
        let work = &work;
        let outcomes: Vec<(Option<T>, ShardStatus)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let token = self.token.clone();
                    let max_retries = self.max_retries;
                    let backoff = self.backoff;
                    scope.spawn(move || supervise_shard(shard, token, work, max_retries, backoff))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(outcome) => outcome,
                    // A simulated process abort propagates out of the pool
                    // like real death would take the whole process down.
                    Err(payload) if payload.is::<crate::AbortSignal>() => {
                        panic::resume_unwind(payload)
                    }
                    // Otherwise the supervision loop itself cannot panic
                    // (work runs under catch_unwind); stay typed if it
                    // ever does.
                    Err(payload) => (
                        None,
                        ShardStatus::Faulted {
                            attempts: 1,
                            message: panic_message(payload.as_ref()),
                        },
                    ),
                })
                .collect()
        });
        let mut results = Vec::with_capacity(shards);
        let mut status = Vec::with_capacity(shards);
        for (result, st) in outcomes {
            results.push(result);
            status.push(st);
        }
        SupervisedRun { results, status }
    }
}

fn supervise_shard<T, F>(
    shard: usize,
    token: CancelToken,
    work: &F,
    max_retries: usize,
    backoff: Duration,
) -> (Option<T>, ShardStatus)
where
    F: Fn(usize, &CancelToken) -> T,
{
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        match panic::catch_unwind(AssertUnwindSafe(|| work(shard, &token))) {
            Ok(value) => {
                let status = if attempts == 1 {
                    ShardStatus::Completed
                } else {
                    klest_obs::counter_add("supervisor.recovered", 1);
                    ShardStatus::Recovered {
                        retries: attempts - 1,
                    }
                };
                return (Some(value), status);
            }
            Err(payload) => {
                // A simulated process abort must behave like process
                // death: not retried, not absorbed into a Faulted shard —
                // re-raised so it unwinds to the crash test's catch point.
                if payload.is::<crate::AbortSignal>() {
                    panic::resume_unwind(payload);
                }
                klest_obs::counter_add("supervisor.panics", 1);
                let message = panic_message(payload.as_ref());
                if attempts > max_retries || token.is_cancelled() {
                    klest_obs::counter_add("supervisor.faults", 1);
                    return (None, ShardStatus::Faulted { attempts, message });
                }
                klest_obs::counter_add("supervisor.retries", 1);
                // Exponential backoff, clamped so a retry never sleeps past
                // the deadline it would be cancelled at anyway.
                let shift = (attempts - 1).min(16) as u32;
                let pause = backoff.saturating_mul(1u32 << shift);
                let pause = token.remaining().map_or(pause, |left| pause.min(left));
                thread::sleep(pause);
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// Silences the default "thread panicked" stderr spew for tests that
    /// inject panics on purpose, restoring the hook afterwards. The mutex
    /// serialises hook swaps across concurrently running tests.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let out = f();
        panic::set_hook(prev);
        out
    }

    #[test]
    fn clean_run_salvages_everything() {
        let sup = Supervisor::new(CancelToken::unlimited());
        let run = sup.run(4, |shard, _token| shard * 10);
        assert_eq!(run.results, vec![Some(0), Some(10), Some(20), Some(30)]);
        assert!(run.status.iter().all(|s| *s == ShardStatus::Completed));
        assert_eq!(run.total_retries(), 0);
        assert_eq!(run.fault_count(), 0);
    }

    #[test]
    fn panicking_shard_is_retried_and_recovers() {
        with_quiet_panics(|| {
            let fired = AtomicUsize::new(0);
            let sup =
                Supervisor::new(CancelToken::unlimited()).with_backoff(Duration::from_millis(1));
            let run = sup.run(3, |shard, _token| {
                if shard == 1 && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::panic::panic_any("injected: shard 1 first attempt".to_string());
                }
                shard
            });
            assert_eq!(run.results, vec![Some(0), Some(1), Some(2)]);
            assert_eq!(run.status[1], ShardStatus::Recovered { retries: 1 });
            assert_eq!(run.total_retries(), 1);
            assert_eq!(run.fault_count(), 0);
        });
    }

    #[test]
    fn persistent_panic_becomes_typed_fault_and_siblings_survive() {
        with_quiet_panics(|| {
            let sup = Supervisor::new(CancelToken::unlimited())
                .with_max_retries(2)
                .with_backoff(Duration::from_millis(1));
            let run = sup.run(3, |shard, _token| {
                if shard == 2 {
                    std::panic::panic_any("always broken");
                }
                shard + 100
            });
            assert_eq!(run.results[0], Some(100));
            assert_eq!(run.results[1], Some(101));
            assert_eq!(run.results[2], None);
            match &run.status[2] {
                ShardStatus::Faulted { attempts, message } => {
                    assert_eq!(*attempts, 3); // 1 initial + 2 retries
                    assert!(message.contains("always broken"), "{message}");
                }
                other => unreachable!("expected fault, got {other:?}"),
            }
            assert_eq!(run.fault_count(), 1);
            assert_eq!(run.total_retries(), 2);
        });
    }

    #[test]
    fn zero_retries_faults_immediately() {
        with_quiet_panics(|| {
            let sup = Supervisor::new(CancelToken::unlimited()).with_max_retries(0);
            let run = sup.run(1, |_, _| -> usize { std::panic::panic_any("boom") });
            match &run.status[0] {
                ShardStatus::Faulted { attempts, .. } => assert_eq!(*attempts, 1),
                other => unreachable!("expected fault, got {other:?}"),
            }
        });
    }

    #[test]
    fn cancelled_token_forbids_retries() {
        with_quiet_panics(|| {
            let token = CancelToken::unlimited();
            token.cancel();
            let sup = Supervisor::new(token).with_max_retries(5);
            let start = Instant::now();
            let run = sup.run(1, |_, _| -> usize { std::panic::panic_any("boom") });
            assert_eq!(run.status[0].retries(), 0);
            assert!(run.status[0].is_fault());
            // No backoff sleeps were taken.
            assert!(start.elapsed() < Duration::from_secs(1));
        });
    }

    #[test]
    fn workers_observe_deadline_and_salvage_partials() {
        let token = CancelToken::with_budget(Budget::wall(Duration::from_millis(50)));
        let sup = Supervisor::new(token);
        // Each worker counts checkpoints until its token trips; a "hung"
        // worker (shard 0) would loop forever without cooperative cancel.
        let run = sup.run(2, |shard, token| {
            let mut done = 0usize;
            loop {
                if token.checkpoint("test/loop").is_err() {
                    return (shard, done);
                }
                done += 1;
                if shard == 1 && done == 3 {
                    return (shard, done); // finishes well before deadline
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        let r0 = run.results[0].as_ref().map(|r| r.1);
        assert_eq!(run.results[1], Some((1, 3)));
        assert!(r0.is_some_and(|n| n > 0), "hung shard salvaged {r0:?}");
        assert_eq!(run.fault_count(), 0);
    }

    #[test]
    fn abort_signal_is_not_retried_and_unwinds_to_catch_point() {
        with_quiet_panics(|| {
            let attempts = AtomicUsize::new(0);
            let sup = Supervisor::new(CancelToken::unlimited()).with_max_retries(5);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                sup.run(2, |shard, _token| {
                    if shard == 1 {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        crate::simulated_abort("test/abort");
                    }
                    shard
                })
            }));
            let payload = caught.expect_err("abort must unwind out of the pool");
            let signal = payload
                .downcast_ref::<crate::AbortSignal>()
                .expect("AbortSignal payload");
            assert_eq!(signal.site, "test/abort");
            // Process-death semantics: exactly one arrival, zero retries.
            assert_eq!(attempts.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn non_string_payload_is_reported() {
        with_quiet_panics(|| {
            let sup = Supervisor::new(CancelToken::unlimited()).with_max_retries(0);
            let run = sup.run(1, |_, _| -> usize { std::panic::panic_any(17u32) });
            match &run.status[0] {
                ShardStatus::Faulted { message, .. } => {
                    assert!(message.contains("non-string"), "{message}");
                }
                other => unreachable!("expected fault, got {other:?}"),
            }
        });
    }
}
