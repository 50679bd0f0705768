//! Deadline-aware supervised runtime for the KLE→SSTA pipeline.
//!
//! The paper's pitch is that kernel-KLE makes Monte Carlo SSTA practical at
//! scale; a practical *service* must additionally bound its own runtime. This
//! crate provides the primitives the rest of the workspace builds on:
//!
//! - [`CancelToken`] / [`Budget`]: a cheap cooperative-cancellation handle
//!   (one relaxed atomic load on the fast path) carrying an optional
//!   wall-clock deadline. Tokens form a hierarchy: [`CancelToken::child`]
//!   derives a per-stage token whose effective deadline is the minimum of
//!   the parent's remaining budget and the stage's own allowance, so a stage
//!   can never outlive the run that spawned it. Long-running loops call
//!   [`CancelToken::checkpoint`] and bail out with a typed [`Cancelled`]
//!   partial result instead of running open-ended.
//! - [`Supervisor`]: a scoped worker pool with fault isolation. Each shard
//!   runs under `catch_unwind`; a panicking shard is retried a bounded
//!   number of times with exponential backoff, and the results of shards
//!   that did complete are salvaged instead of being discarded with the
//!   whole pool. [`Supervisor::run_one`] applies the same isolation and
//!   retry ladder to a single unit of work on the caller's thread — the
//!   shape a request-serving worker loop needs.
//! - [`BoundedQueue`] / [`WaitGroup`]: the admission and drain primitives
//!   for long-lived services — non-blocking typed-rejection pushes (load
//!   shedding), blocking pops, close-for-drain semantics and a
//!   deadline-aware all-workers-exited barrier.
//! - [`durable`]: the one module that writes crash-safe files — atomic
//!   replace ([`durable::write_atomic`]), one self-checking frame format
//!   with a reader that stops at the first torn or damaged frame, an
//!   append-only [`durable::FrameLog`] cut back to its last whole frame
//!   on open, and [`durable::quarantine`]. The artifact cache's disk
//!   layer, [`CheckpointStore`] and serve's request journal all write
//!   through it.
//! - [`CheckpointStore`] / [`crash_point`]: crash-consistent named
//!   checkpoints (one durable frame per file, quarantine-on-damage)
//!   plus deterministic kill points — [`CrashMode::Unwind`] simulates
//!   process death in-test via an [`AbortSignal`] panic the supervisor
//!   refuses to retry; [`CrashMode::Abort`] is the real
//!   `std::process::abort`. [`arm_crash_point`] arms per thread (only
//!   the arming thread's arrivals count), while the `KLEST_CRASH_AT`
//!   environment hook is the single process-wide plan, counting
//!   arrivals from every thread and always aborting for real.
//!
//! The crate is std-only (its in-workspace dependencies are `klest-obs`,
//! for retry/fault counters, and `klest-rng`, for [`fnv1a64`]) and sits
//! below `klest-linalg`, `klest-mesh`, `klest-core` and `klest-ssta` in
//! the crate DAG so all of them can thread tokens through their inner
//! loops.

#![deny(missing_docs)]

mod checkpoint;
pub mod durable;
mod queue;
mod supervisor;
mod token;
mod usage;

pub use checkpoint::{
    arm_crash_point, crash_point, disarm_crash_points, simulated_abort, AbortSignal,
    CheckpointStore, CrashMode,
};
/// FNV-1a 64-bit hash: checksums [`durable`] frames and fingerprints
/// cache file names. Re-exported from `klest-rng`, the workspace's one
/// copy.
pub use klest_rng::fnv1a64;
pub use queue::{BoundedQueue, PushError, WaitGroup};
pub use supervisor::{ShardStatus, SupervisedRun, Supervisor};
pub use token::{Budget, CancelToken, Cancelled, StageBudgets};
pub use usage::{BusyGuard, PoolUsage};
