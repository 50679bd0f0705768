//! The daemon: admission control, worker pool, fault isolation and
//! graceful drain.
//!
//! One `serve` call owns one connection's request stream. The calling
//! thread reads newline-delimited requests, validates them, and either
//! answers inline (ping, bad request), sheds them (queue full, drain in
//! progress) or admits them to a [`BoundedQueue`]. A fixed pool of
//! worker threads pops jobs, re-checks each job's deadline (a request
//! that expired while queued is shed without consuming compute), and
//! runs the KLE→SSTA pipeline under [`Supervisor::run_one`] with a
//! per-request child [`CancelToken`] — so a panicking, hanging or
//! over-budget request is isolated, salvaged or reported while every
//! other in-flight request keeps running. All requests share one
//! [`ArtifactCache`]: warm kernel/die configurations skip mesh,
//! assembly and eigensolve entirely.
//!
//! Drain state machine: `accepting → draining → drained`. EOF or a
//! `shutdown` request stops admission (`queue.close()`); workers finish
//! the queued backlog within the drain budget; if the budget expires the
//! root token is cancelled, turning the remaining work into typed
//! `cancelled`/`shed draining` responses. The final summary line is
//! written only after every worker has exited, so every admitted request
//! has exactly one terminal response before `drained` is announced.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use klest_circuit::{benchmark_scaled, generate, Circuit, GeneratorConfig, NodeId, Partition};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, ExecPolicy, FrontEndConfig};
use klest_core::TruncationCriterion;
use klest_mesh::MeshError;
use klest_obs::{DeadlineSlo, MetricsSnapshot, SlidingWindow, SloSnapshot, LATENCY_MS_BOUNDS};
use klest_rng::{Rng, SplitMix64};
use klest_runtime::{
    BoundedQueue, Budget, CancelToken, Cancelled, PoolUsage, PushError, ShardStatus, StageBudgets,
    Supervisor, WaitGroup,
};
use klest_ssta::experiments::{CircuitSetup, KleContext, KleContextError};
use klest_ssta::faultinject::{FaultPlan, Stage};
use klest_ssta::hier::HierEngine;
use klest_ssta::{
    run_monte_carlo_with, DegradationReport, KleFieldSampler, McConfig, McMode, SstaError, N_PARAMS,
};
use klest_sta::ParamVector;

use crate::journal::{PendingRequest, RequestJournal};
use crate::json::Json;
use crate::protocol::{
    draining_response, error_response, outcome_response, parse_request, pong_response,
    stats_response, HierEditOutcome, HierOutcome, LatencyStats, QueryMode, QueryOutcome, QuerySpec,
    ServeError, ServeRequest, StatsReport, TraceInfo,
};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // All guarded state (response writer, memo map, counters) stays
    // structurally valid across a panicking holder; supervision relies
    // on continuing past poisoned locks.
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission queue depth; pushes beyond it are shed as
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Wall-clock budget for the graceful drain; once it expires,
    /// in-flight work is cancelled cooperatively.
    pub drain: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Directory for the crash-safe disk artifact layer; `None` keeps
    /// the cache memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Warm-restart state directory. When set, the daemon keeps a
    /// crash-safe request journal at `<state_dir>/journal.log` —
    /// admitted queries are recorded (fsynced) before they run and
    /// marked done after their one terminal response; on boot the
    /// pending tail is replayed and answered exactly once — and, unless
    /// `cache_dir` overrides it, the disk artifact cache lives at
    /// `<state_dir>/cache` so a restart also recovers its warmth.
    pub state_dir: Option<std::path::PathBuf>,
    /// Allow responses to carry per-request traces. A query still has
    /// to opt in with `"trace":true`; this flag is the daemon-side gate
    /// (traces expose stage timings, so operators enable them
    /// deliberately).
    pub trace_responses: bool,
    /// Emit a `klest-metrics/v1` snapshot line every interval (requires
    /// `metrics_out`).
    pub metrics_interval: Option<Duration>,
    /// File receiving newline-delimited metrics snapshots (appended).
    pub metrics_out: Option<std::path::PathBuf>,
    /// Deadline-SLO target: the fraction of deadline-carrying queries
    /// expected to complete in time over the tracking window.
    pub slo_target: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            drain: Duration::from_secs(10),
            default_deadline: None,
            cache_dir: None,
            state_dir: None,
            trace_responses: false,
            metrics_interval: None,
            metrics_out: None,
            slo_target: 0.95,
        }
    }
}

/// What happened over one `serve` call, for callers and exit codes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines read (including broken ones).
    pub received: u64,
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Queries that completed with a full sample count.
    pub completed: u64,
    /// Queries that completed partially (salvaged).
    pub salvaged: u64,
    /// Queries shed because the queue was full.
    pub shed_overload: u64,
    /// Queries shed because their deadline expired while queued.
    pub shed_deadline: u64,
    /// Queries shed because the server was draining.
    pub shed_draining: u64,
    /// Queries cancelled in flight with nothing salvageable.
    pub cancelled: u64,
    /// Queries that faulted (panicked every attempt or failed
    /// internally).
    pub faults: u64,
    /// Lines rejected as bad requests, including [`rejected`](Self::rejected)
    /// queries.
    pub bad_requests: u64,
    /// Admitted queries a worker answered `bad_request`: input that can
    /// only be checked against the built circuit, such as an out-of-range
    /// `edit_gate`.
    pub rejected: u64,
    /// Pings answered.
    pub pings: u64,
    /// True when a `shutdown` request (rather than EOF) started drain.
    pub shutdown: bool,
    /// True when all workers exited within the drain budget without a
    /// forced cancellation.
    pub drained_clean: bool,
}

impl ServeSummary {
    /// Terminal responses written for admitted queries. The admission
    /// invariant is `admitted == completed + salvaged + shed_deadline +
    /// shed_draining + cancelled + faults + rejected`.
    pub fn admitted_terminals(&self) -> u64 {
        self.completed
            + self.salvaged
            + self.shed_deadline
            + self.shed_draining
            + self.cancelled
            + self.faults
            + self.rejected
    }

    /// Folds another connection's summary into this one.
    pub fn merge(&mut self, other: &ServeSummary) {
        self.received += other.received;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.salvaged += other.salvaged;
        self.shed_overload += other.shed_overload;
        self.shed_deadline += other.shed_deadline;
        self.shed_draining += other.shed_draining;
        self.cancelled += other.cancelled;
        self.faults += other.faults;
        self.bad_requests += other.bad_requests;
        self.rejected += other.rejected;
        self.pings += other.pings;
        self.shutdown |= other.shutdown;
        self.drained_clean &= other.drained_clean;
    }
}

#[derive(Default)]
struct Counts {
    admitted: AtomicU64,
    completed: AtomicU64,
    salvaged: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_draining: AtomicU64,
    cancelled: AtomicU64,
    faults: AtomicU64,
    /// Lines refused before admission (unparseable or oversized).
    bad_requests: AtomicU64,
    rejected: AtomicU64,
}

/// Bumps a per-connection counter, its server-lifetime twin and the obs
/// metric together, so connection summaries, `{"op":"stats"}` and run
/// reports never disagree.
fn bump(conn: &AtomicU64, lifetime: &AtomicU64, metric: &str) {
    conn.fetch_add(1, Ordering::Relaxed);
    lifetime.fetch_add(1, Ordering::Relaxed);
    klest_obs::counter_add(metric, 1);
}

/// Server-lifetime telemetry: monotonic counters since construction,
/// sliding-window latency/SLO readings on a logical clock anchored at
/// `started`, and worker busy accounting. Lives on the [`Server`] (not
/// per connection) so a reconnecting client or socket accept loop sees
/// continuous history — the same lifetime the artifact cache has.
struct ServerStats {
    /// Epoch for the logical clock every window rotates on.
    started: Instant,
    /// Per-daemon seed for trace-id derivation (no clock, no
    /// `SystemTime`: derived from the process id, so ids are stable
    /// within a daemon and differ across daemons).
    trace_seed: u64,
    admitted: AtomicU64,
    completed: AtomicU64,
    salvaged: AtomicU64,
    cancelled: AtomicU64,
    faults: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_draining: AtomicU64,
    /// Lines refused before admission; the stats probe adds
    /// [`rejected`](Self::rejected), as a connection summary does.
    bad_requests: AtomicU64,
    /// Admitted queries refused at execution as client errors.
    rejected: AtomicU64,
    /// Windowed service latency of cache-warm queries, ms.
    latency_warm: SlidingWindow,
    /// Windowed service latency of cache-cold queries, ms.
    latency_cold: SlidingWindow,
    /// Windowed queue-wait, ms.
    queue_wait: SlidingWindow,
    /// Windowed deadline-SLO accounting.
    slo: DeadlineSlo,
    /// Worker busy/idle accounting for utilization.
    usage: PoolUsage,
}

/// Telemetry window geometry: six 10-second slots ≈ the last minute.
const WINDOW_SLOTS: usize = 6;
const WINDOW_SLOT_MS: u64 = 10_000;

impl ServerStats {
    fn new(slo_target: f64) -> ServerStats {
        ServerStats {
            started: Instant::now(),
            trace_seed: {
                let mut mixer = SplitMix64::new(u64::from(std::process::id()));
                mixer.next_u64()
            },
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latency_warm: SlidingWindow::new(WINDOW_SLOTS, WINDOW_SLOT_MS, &LATENCY_MS_BOUNDS),
            latency_cold: SlidingWindow::new(WINDOW_SLOTS, WINDOW_SLOT_MS, &LATENCY_MS_BOUNDS),
            queue_wait: SlidingWindow::new(WINDOW_SLOTS, WINDOW_SLOT_MS, &LATENCY_MS_BOUNDS),
            slo: DeadlineSlo::new(slo_target, WINDOW_SLOTS, WINDOW_SLOT_MS),
            usage: PoolUsage::new(),
        }
    }

    /// Milliseconds since daemon start — the logical tick every window
    /// rotates on. One `Instant` read per call, shared by every window
    /// the call feeds.
    fn tick_ms(&self) -> u64 {
        millis(self.started.elapsed())
    }

    /// Trace id for a request: the request id hashed through the
    /// per-daemon seed with `SplitMix64` mixing (deterministic given
    /// the daemon seed; no timestamps involved).
    fn trace_id(&self, request_id: &str) -> String {
        let mut acc = self.trace_seed;
        for byte in request_id.as_bytes() {
            let mut mixer = SplitMix64::new(acc ^ u64::from(*byte));
            acc = mixer.next_u64();
        }
        format!("{acc:016x}")
    }
}

/// One admitted request waiting for (or holding) a worker.
struct Job {
    id: String,
    spec: QuerySpec,
    arrived: Instant,
    deadline: Option<Instant>,
    /// Journal sequence number when the daemon runs with a state dir;
    /// marked done after the job's one terminal response.
    journal_seq: Option<u64>,
}

enum ExecError {
    Cancelled(Cancelled),
    /// The client's request is invalid for the circuit it names.
    BadRequest(String),
    Internal(String),
}

struct ExecData {
    mean: f64,
    sigma: f64,
    rank: usize,
    samples: usize,
    planned: usize,
    ci_widening: f64,
    coarsenings: usize,
    /// Block-model accounting, present on `"mode":"hier"` requests.
    hier: Option<HierOutcome>,
}

/// Cancellation stays typed through the serve state machine; every
/// other SSTA failure is an internal fault.
fn exec_err(e: SstaError) -> ExecError {
    match e {
        SstaError::Cancelled(c) => ExecError::Cancelled(c),
        other => ExecError::Internal(other.to_string()),
    }
}

fn frontend_config(spec: &QuerySpec) -> FrontEndConfig {
    let mut config =
        FrontEndConfig::new(spec.area_fraction, 28.0, TruncationCriterion::new(60, 0.01))
            .with_supervised_ladder();
    // Request-level parallelism comes from the worker pool; per-request
    // assembly stays serial so concurrent requests cannot oversubscribe
    // the machine.
    config.options.assembly_threads = 1;
    config
}

/// The daemon. One instance owns the shared [`ArtifactCache`] and the
/// circuit memo; [`Server::serve`] runs one connection over it, so
/// repeated connections (or a socket accept loop) keep their warmth.
pub struct Server {
    config: ServeConfig,
    cache: ArtifactCache,
    setups: Mutex<HashMap<String, Arc<CircuitSetup>>>,
    /// EWMA of recent service times, ms — feeds the `retry_after_hint`.
    ewma_service_ms: AtomicU64,
    /// Lifetime telemetry (windows, SLO, usage, trace seed).
    stats: ServerStats,
    /// Admit/done request journal (state-dir mode only).
    journal: Option<RequestJournal>,
    /// Journaled requests admitted by a previous process life but never
    /// answered; drained into the queue by the first `serve` call.
    replay: Mutex<Vec<PendingRequest>>,
}

impl Server {
    /// Builds a server; opens the disk cache layer when configured.
    /// With [`ServeConfig::state_dir`] set, this is the warm-restart
    /// recovery point: the disk cache is reopened (quarantining any
    /// crash-torn artifacts) and the request journal's pending tail is
    /// loaded for replay by the first [`Server::serve`] call.
    pub fn new(config: ServeConfig) -> Server {
        if let Some(state_dir) = &config.state_dir {
            let _ = std::fs::create_dir_all(state_dir);
        }
        let cache_dir = config
            .cache_dir
            .clone()
            .or_else(|| config.state_dir.as_ref().map(|d| d.join("cache")));
        let cache = match cache_dir {
            Some(dir) => ArtifactCache::with_disk(dir),
            None => ArtifactCache::new(),
        };
        let (journal, pending) = match &config.state_dir {
            Some(state_dir) => {
                let (journal, pending) = RequestJournal::open(&state_dir.join("journal.log"));
                (Some(journal), pending)
            }
            None => (None, Vec::new()),
        };
        let stats = ServerStats::new(config.slo_target);
        Server {
            config,
            cache,
            setups: Mutex::new(HashMap::new()),
            ewma_service_ms: AtomicU64::new(200),
            stats,
            journal,
            replay: Mutex::new(pending),
        }
    }

    /// The shared artifact cache (for inspection in tests and benches).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The windowed deadline-SLO reading as of now (benches surface it
    /// in merged reports; `{"op":"stats"}` embeds the same numbers).
    pub fn slo_snapshot(&self) -> SloSnapshot {
        self.stats.slo.snapshot(self.stats.tick_ms())
    }

    /// The full introspection snapshot answering `{"op":"stats"}`.
    /// `queue_depth` is supplied by the caller (the reader loop holds
    /// the queue; between connections pass 0).
    pub fn stats_report(&self, queue_depth: usize) -> StatsReport {
        let tick = self.stats.tick_ms();
        let cache_snap = self.cache.snapshot();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsReport {
            uptime_ms: tick,
            workers: self.config.workers.max(1),
            queue_depth,
            queue_capacity: self.config.queue_depth,
            admitted: load(&self.stats.admitted),
            completed: load(&self.stats.completed),
            salvaged: load(&self.stats.salvaged),
            cancelled: load(&self.stats.cancelled),
            faults: load(&self.stats.faults),
            shed_overload: load(&self.stats.shed_overload),
            shed_deadline: load(&self.stats.shed_deadline),
            shed_draining: load(&self.stats.shed_draining),
            bad_requests: load(&self.stats.bad_requests) + load(&self.stats.rejected),
            rejected: load(&self.stats.rejected),
            latency_warm: LatencyStats::from_hist(&self.stats.latency_warm.merged(tick)),
            latency_cold: LatencyStats::from_hist(&self.stats.latency_cold.merged(tick)),
            queue_wait: LatencyStats::from_hist(&self.stats.queue_wait.merged(tick)),
            cache_hits: cache_snap.hits(),
            cache_misses: cache_snap.misses(),
            cache_sizes: self.cache.memory_sizes(),
            cache_block_hits: cache_snap.block_hits,
            cache_block_misses: cache_snap.block_misses,
            cache_disk_write_failures: cache_snap.disk_write_failures,
            cache_quarantined: cache_snap.quarantined,
            utilization: self.stats.usage.utilization(
                self.config.workers.max(1),
                u64::try_from(self.stats.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ),
            slo: self.stats.slo.snapshot(tick),
        }
    }

    /// Serves one request stream to completion: reads `input` until EOF
    /// or a `shutdown` request, writes one response line per request
    /// plus a final `drained` summary line to `output`, and returns the
    /// summary. Never panics on malformed input; worker panics are
    /// isolated per request.
    pub fn serve<R: BufRead, W: Write + Send>(&self, mut input: R, output: W) -> ServeSummary {
        let queue = BoundedQueue::<Job>::new(self.config.queue_depth);
        let wg = WaitGroup::new();
        let root = CancelToken::unlimited();
        let out = Mutex::new(output);
        let counts = Counts::default();
        let workers = self.config.workers.max(1);
        let mut received = 0u64;
        let mut pings = 0u64;
        let mut shutdown = false;
        let mut drained_clean = false;

        // Periodic metrics emitter: a scoped thread appending one
        // `klest-metrics/v1` line per interval to the configured file.
        // Condvar-signalled stop so drain never waits out an interval.
        let emitter_stop = Arc::new((Mutex::new(false), std::sync::Condvar::new()));

        std::thread::scope(|scope| {
            if let (Some(interval), Some(path)) = (
                self.config.metrics_interval,
                self.config.metrics_out.clone(),
            ) {
                let stop = Arc::clone(&emitter_stop);
                let stats = &self.stats;
                scope.spawn(move || {
                    emit_metrics_loop(&path, interval, stats, &stop);
                });
            }

            wg.add(workers);
            for _ in 0..workers {
                let queue = &queue;
                let wg = &wg;
                let root = &root;
                let counts = &counts;
                let out = &out;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        klest_obs::gauge_set("serve.queue.depth", queue.len() as f64);
                        self.process_job(job, root, counts, out);
                    }
                    wg.done();
                });
            }

            // Warm-restart replay: requests journaled as admitted by a
            // previous process life but never answered run first, in
            // admission order, each answered exactly once on this
            // connection. The workers are already draining the queue,
            // so a backlog larger than the queue depth just back-fills.
            for pending in std::mem::take(&mut *lock(&self.replay)) {
                match parse_request(&pending.line) {
                    Ok(ServeRequest::Query { id, spec }) => {
                        let arrived = Instant::now();
                        let deadline = spec
                            .deadline
                            .or(self.config.default_deadline)
                            .map(|d| arrived + d);
                        let mut job = Job {
                            id,
                            spec,
                            arrived,
                            deadline,
                            journal_seq: Some(pending.seq),
                        };
                        loop {
                            match queue.push(job) {
                                Ok(depth) => {
                                    bump(&counts.admitted, &self.stats.admitted, "serve.admitted");
                                    klest_obs::gauge_set("serve.queue.depth", depth as f64);
                                    break;
                                }
                                Err(PushError::Full(j)) => {
                                    job = j;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                Err(PushError::Closed(_)) => break,
                            }
                        }
                    }
                    // Only queries are ever journaled; anything else
                    // here is a hand-edited or damaged journal. Retire
                    // the record so it cannot replay forever.
                    _ => self.journal_done(Some(pending.seq)),
                }
            }

            loop {
                let text = match read_line_capped(&mut input, crate::protocol::MAX_LINE_BYTES) {
                    Ok(Some(RawLine::Text(text))) => text,
                    Ok(Some(RawLine::Rejected(why))) => {
                        received += 1;
                        klest_obs::counter_add("serve.received", 1);
                        bump(
                            &counts.bad_requests,
                            &self.stats.bad_requests,
                            "serve.bad_request",
                        );
                        respond(
                            &out,
                            &error_response(
                                None,
                                &ServeError::BadRequest {
                                    message: why.to_string(),
                                },
                            ),
                        );
                        continue;
                    }
                    Ok(None) | Err(_) => break,
                };
                if text.trim().is_empty() {
                    continue;
                }
                received += 1;
                klest_obs::counter_add("serve.received", 1);
                match parse_request(&text) {
                    Err(bad) => {
                        bump(
                            &counts.bad_requests,
                            &self.stats.bad_requests,
                            "serve.bad_request",
                        );
                        respond(
                            &out,
                            &error_response(
                                bad.id.as_deref(),
                                &ServeError::BadRequest {
                                    message: bad.message,
                                },
                            ),
                        );
                    }
                    Ok(ServeRequest::Ping { id }) => {
                        pings += 1;
                        klest_obs::counter_add("serve.ping", 1);
                        respond(&out, &pong_response(id.as_deref()));
                    }
                    Ok(ServeRequest::Shutdown) => {
                        shutdown = true;
                        respond(&out, &draining_response());
                        break;
                    }
                    Ok(ServeRequest::Stats { id }) => {
                        klest_obs::counter_add("serve.stats", 1);
                        let report = self.stats_report(queue.len());
                        respond(&out, &stats_response(id.as_deref(), &report));
                    }
                    Ok(ServeRequest::Query { id, spec }) => {
                        let arrived = Instant::now();
                        let deadline = spec
                            .deadline
                            .or(self.config.default_deadline)
                            .map(|d| arrived + d);
                        // Journal before the queue sees the job: a
                        // crash at any later instant leaves an admit
                        // record, so the request is replayed (and
                        // answered) by the next process life.
                        let journal_seq = self
                            .journal
                            .as_ref()
                            .and_then(|journal| journal.record_admit(&text));
                        let job = Job {
                            id,
                            spec,
                            arrived,
                            deadline,
                            journal_seq,
                        };
                        match queue.push(job) {
                            Ok(depth) => {
                                bump(&counts.admitted, &self.stats.admitted, "serve.admitted");
                                klest_obs::gauge_set("serve.queue.depth", depth as f64);
                            }
                            Err(PushError::Full(job)) | Err(PushError::Closed(job)) => {
                                // The shed response below is this
                                // request's terminal: retire its
                                // journal record immediately.
                                self.journal_done(job.journal_seq);
                                bump(
                                    &counts.shed_overload,
                                    &self.stats.shed_overload,
                                    "serve.shed.overload",
                                );
                                // A shed is a queue transition too: refresh
                                // the gauge so observers see the depth that
                                // caused the rejection, not a stale value.
                                klest_obs::gauge_set("serve.queue.depth", queue.len() as f64);
                                respond(
                                    &out,
                                    &error_response(
                                        Some(&job.id),
                                        &ServeError::Overloaded {
                                            retry_after_hint: self.retry_after_hint(queue.len()),
                                        },
                                    ),
                                );
                            }
                        }
                    }
                }
            }

            // Drain: stop admitting, give the backlog the drain budget,
            // then cancel whatever is left and wait for the workers.
            queue.close();
            drained_clean = wg.wait_timeout(self.config.drain);
            if !drained_clean {
                root.cancel();
                wg.wait();
            }
            // Every worker has exited, so the queue is empty: record the
            // final transition before the drained summary goes out.
            klest_obs::gauge_set("serve.queue.depth", 0.0);
            // Every admitted request now has its terminal response
            // journaled as done; persist the (normally empty) pending
            // tail compactly for the next process life.
            if let Some(journal) = &self.journal {
                journal.compact();
            }
            let (stop_flag, stop_cv) = &*emitter_stop;
            *lock(stop_flag) = true;
            stop_cv.notify_all();
        });

        let rejected = counts.rejected.load(Ordering::Relaxed);
        let summary = ServeSummary {
            received,
            admitted: counts.admitted.load(Ordering::Relaxed),
            completed: counts.completed.load(Ordering::Relaxed),
            salvaged: counts.salvaged.load(Ordering::Relaxed),
            shed_overload: counts.shed_overload.load(Ordering::Relaxed),
            shed_deadline: counts.shed_deadline.load(Ordering::Relaxed),
            shed_draining: counts.shed_draining.load(Ordering::Relaxed),
            cancelled: counts.cancelled.load(Ordering::Relaxed),
            faults: counts.faults.load(Ordering::Relaxed),
            bad_requests: counts.bad_requests.load(Ordering::Relaxed) + rejected,
            rejected,
            pings,
            shutdown,
            drained_clean,
        };
        respond(&out, &summary_line(&summary, &self.slo_snapshot()));
        summary
    }

    /// Serves connections on a Unix socket, one at a time, until a
    /// connection requests `shutdown`. All connections share this
    /// server's cache and circuit memo, so a reconnecting client keeps
    /// its warmth. The socket file is created fresh and removed on exit.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or accepting on the socket.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<ServeSummary> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let mut total = ServeSummary {
            drained_clean: true,
            ..ServeSummary::default()
        };
        loop {
            let (stream, _) = listener.accept()?;
            let reader = std::io::BufReader::new(stream.try_clone()?);
            let summary = self.serve(reader, stream);
            let stop = summary.shutdown;
            total.merge(&summary);
            if stop {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(total)
    }

    fn retry_after_hint(&self, queue_len: usize) -> Duration {
        let ewma = self.ewma_service_ms.load(Ordering::Relaxed).max(1);
        let waves = (queue_len / self.config.workers.max(1)) as u64 + 1;
        Duration::from_millis((ewma.saturating_mul(waves)).clamp(25, 30_000))
    }

    fn note_service_time(&self, service_ms: u64) {
        // EWMA with α = 1/4, updated racily — a hint, not an invariant.
        let old = self.ewma_service_ms.load(Ordering::Relaxed);
        let new = old - old / 4 + service_ms / 4;
        self.ewma_service_ms.store(new.max(1), Ordering::Relaxed);
    }

    /// Which cached artifacts this query would reuse, in
    /// `(mesh, galerkin, spectrum)` order. Pure probe: counts no
    /// hit/miss, so latency classification does not skew cache
    /// statistics. The spectrum component is the warm/cold classifier —
    /// a warm spectrum skips mesh, assembly and eigensolve entirely.
    fn probe_artifacts(&self, spec: &QuerySpec) -> (bool, bool, bool) {
        let Ok(kernel) = spec.kernel.build() else {
            return (false, false, false);
        };
        let Some(kernel_key) = kernel.cache_key() else {
            return (false, false, false);
        };
        let config = frontend_config(spec);
        let mesh_key = ArtifactKey::mesh(
            config.die,
            config.max_area_fraction,
            config.min_angle_degrees,
        );
        let galerkin_key = ArtifactKey::galerkin(&mesh_key, &kernel_key, config.options.quadrature);
        let spectrum_key = ArtifactKey::spectrum(
            &galerkin_key,
            config.options.solver,
            config.options.max_eigenpairs,
        );
        (
            self.cache.peek_mesh(&mesh_key),
            self.cache.peek_galerkin(&galerkin_key),
            self.cache.peek_spectrum(&spectrum_key),
        )
    }

    fn build_circuit(circuit: &crate::protocol::CircuitSpec) -> Result<Circuit, String> {
        use crate::protocol::CircuitSpec;
        match circuit {
            CircuitSpec::Named { id, scale } => benchmark_scaled(*id, *scale),
            CircuitSpec::Synthetic { gates, seed } => generate(
                format!("synth{gates}"),
                GeneratorConfig::combinational(*gates, *seed),
            ),
        }
        .map_err(|e| format!("circuit generation failed: {e}"))
    }

    fn setup_for(
        &self,
        circuit: &crate::protocol::CircuitSpec,
    ) -> Result<Arc<CircuitSetup>, String> {
        let key = circuit.memo_key();
        if let Some(setup) = lock(&self.setups).get(&key) {
            return Ok(Arc::clone(setup));
        }
        let built = Self::build_circuit(circuit)?;
        let setup = Arc::new(CircuitSetup::prepare(&built));
        let mut memo = lock(&self.setups);
        // Bounded memo: a hostile client cycling circuit configs must
        // not grow process memory without limit.
        if memo.len() < 128 {
            memo.insert(key, Arc::clone(&setup));
        }
        Ok(setup)
    }

    /// Records a deadline-carrying job's terminal against the SLO
    /// window. Jobs without a deadline never enter SLO accounting.
    fn record_slo(&self, job: &Job, met: bool) {
        if job.deadline.is_some() {
            self.stats.slo.record(self.stats.tick_ms(), met);
        }
    }

    fn journal_done(&self, seq: Option<u64>) {
        if let (Some(journal), Some(seq)) = (&self.journal, seq) {
            journal.record_done(seq);
        }
    }

    fn process_job<W: Write>(&self, job: Job, root: &CancelToken, counts: &Counts, out: &Mutex<W>) {
        // Deterministic kill point for the crash harness: with
        // `KLEST_CRASH_AT=serve.request:N` the Nth dequeued request
        // aborts the process here — after its admit record, before its
        // terminal response — so a restart must replay and answer it.
        klest_runtime::crash_point("serve.request");
        let journal_seq = job.journal_seq;
        self.process_job_inner(job, root, counts, out);
        // One terminal response has been written (every path through
        // the inner body responds exactly once); retire the record.
        self.journal_done(journal_seq);
    }

    fn process_job_inner<W: Write>(
        &self,
        job: Job,
        root: &CancelToken,
        counts: &Counts,
        out: &Mutex<W>,
    ) {
        let _busy = self.stats.usage.guard();
        let queue_wait = job.arrived.elapsed();
        klest_obs::histogram_observe("serve.queue_wait_ms", millis(queue_wait) as f64);
        self.stats
            .queue_wait
            .observe(self.stats.tick_ms(), millis(queue_wait) as f64);
        if root.is_cancelled() {
            bump(
                &counts.shed_draining,
                &self.stats.shed_draining,
                "serve.shed.draining",
            );
            // Drain is an operator action, not a deadline violation: it
            // stays out of the SLO window.
            respond(out, &error_response(Some(&job.id), &ServeError::Draining));
            return;
        }
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                bump(
                    &counts.shed_deadline,
                    &self.stats.shed_deadline,
                    "serve.shed.deadline",
                );
                self.record_slo(&job, false);
                respond(
                    out,
                    &error_response(
                        Some(&job.id),
                        &ServeError::DeadlineExpiredInQueue { waited: queue_wait },
                    ),
                );
                return;
            }
        }

        let start = Instant::now();
        let (warm_mesh, warm_galerkin, warm_spectrum) = self.probe_artifacts(&job.spec);
        let warm = warm_spectrum;
        let budget = match job.deadline {
            Some(deadline) => Budget::wall(deadline.saturating_duration_since(start)),
            None => Budget::UNLIMITED,
        };
        let token = root.child(budget);
        let supervisor = Supervisor::new(token)
            .with_max_retries(1)
            .with_backoff(Duration::from_millis(2));
        let want_trace = job.spec.trace && self.config.trace_responses;
        if want_trace {
            klest_obs::capture_begin();
        }
        let (result, status) =
            supervisor.run_one_in_span(0, "serve.request", |_, tok| self.execute(&job.spec, tok));
        let stages = if want_trace {
            klest_obs::capture_end()
        } else {
            Vec::new()
        };
        let service_ms = millis(start.elapsed());

        match (result, status) {
            (Some(Ok(data)), status) => {
                let salvaged = data.samples < data.planned;
                if salvaged {
                    bump(&counts.salvaged, &self.stats.salvaged, "serve.salvaged");
                } else {
                    bump(&counts.completed, &self.stats.completed, "serve.completed");
                }
                let met = match job.deadline {
                    Some(deadline) => Instant::now() <= deadline,
                    None => true,
                };
                self.record_slo(&job, met);
                let bucket = if warm {
                    "serve.latency_ms.warm"
                } else {
                    "serve.latency_ms.cold"
                };
                klest_obs::histogram_observe(bucket, service_ms as f64);
                let window = if warm {
                    &self.stats.latency_warm
                } else {
                    &self.stats.latency_cold
                };
                window.observe(self.stats.tick_ms(), service_ms as f64);
                self.note_service_time(service_ms);
                let trace = want_trace.then(|| {
                    let mut events = Vec::new();
                    if status.retries() > 0 {
                        events.push(format!(
                            "retried {} time(s) after a fault",
                            status.retries()
                        ));
                    }
                    if data.coarsenings > 0 {
                        events.push(format!("degraded: {} coarsening step(s)", data.coarsenings));
                    }
                    if salvaged {
                        events.push(format!(
                            "salvaged {}/{} samples, CI widened x{:.3}",
                            data.samples, data.planned, data.ci_widening
                        ));
                    }
                    TraceInfo {
                        trace_id: self.stats.trace_id(&job.id),
                        warm_mesh,
                        warm_galerkin,
                        warm_spectrum,
                        stages,
                        events,
                    }
                });
                let outcome = QueryOutcome {
                    mean: data.mean,
                    sigma: data.sigma,
                    rank: data.rank,
                    samples: data.samples,
                    planned: data.planned,
                    salvaged,
                    ci_widening: data.ci_widening,
                    warm,
                    retries: status.retries(),
                    coarsenings: data.coarsenings,
                    queue_ms: millis(queue_wait),
                    service_ms,
                    trace,
                    hier: data.hier,
                };
                respond(out, &outcome_response(&job.id, &outcome));
            }
            (Some(Err(ExecError::Cancelled(cancelled))), _) => {
                bump(&counts.cancelled, &self.stats.cancelled, "serve.cancelled");
                self.record_slo(&job, false);
                respond(
                    out,
                    &error_response(
                        Some(&job.id),
                        &ServeError::Cancelled {
                            stage: cancelled.stage.to_string(),
                            service_ms,
                        },
                    ),
                );
            }
            (Some(Err(ExecError::BadRequest(message))), _) => {
                // A client error: neither a fault nor an SLO miss.
                bump(&counts.rejected, &self.stats.rejected, "serve.bad_request");
                respond(
                    out,
                    &error_response(Some(&job.id), &ServeError::BadRequest { message }),
                );
            }
            (Some(Err(ExecError::Internal(message))), _) => {
                bump(&counts.faults, &self.stats.faults, "serve.fault");
                self.record_slo(&job, false);
                respond(
                    out,
                    &error_response(
                        Some(&job.id),
                        &ServeError::Fault {
                            attempts: 1,
                            message,
                        },
                    ),
                );
            }
            (None, ShardStatus::Faulted { attempts, message }) => {
                bump(&counts.faults, &self.stats.faults, "serve.fault");
                self.record_slo(&job, false);
                respond(
                    out,
                    &error_response(Some(&job.id), &ServeError::Fault { attempts, message }),
                );
            }
            (None, _) => {
                bump(&counts.faults, &self.stats.faults, "serve.fault");
                self.record_slo(&job, false);
                respond(
                    out,
                    &error_response(
                        Some(&job.id),
                        &ServeError::Fault {
                            attempts: 0,
                            message: "internal: supervised run returned no result".into(),
                        },
                    ),
                );
            }
        }
    }

    fn execute(&self, spec: &QuerySpec, token: &CancelToken) -> Result<ExecData, ExecError> {
        if spec.inject_panic {
            // Deterministic fault drill: exercises catch_unwind isolation
            // end to end without tripping the no-panic lint gate.
            std::panic::panic_any("injected panic: serve fault drill".to_string());
        }
        if let QueryMode::Hier {
            blocks,
            edit_gate,
            edit_scale,
        } = spec.mode
        {
            return self.execute_hier(spec, blocks, edit_gate, edit_scale, token);
        }
        let kernel = spec.kernel.build().map_err(ExecError::Internal)?;
        let config = frontend_config(spec);
        let budgets = StageBudgets::none();
        let ctx = KleContext::build_with(
            kernel.as_ref(),
            &config,
            ExecPolicy::Supervised {
                token,
                budgets: &budgets,
            },
            Some(&self.cache),
        )
        .map_err(|e| match e {
            KleContextError::Mesh(MeshError::Cancelled(c)) => ExecError::Cancelled(c),
            KleContextError::Ssta(SstaError::Cancelled(c)) => ExecError::Cancelled(c),
            other => ExecError::Internal(other.to_string()),
        })?;
        let setup = self.setup_for(&spec.circuit).map_err(ExecError::Internal)?;
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
            .map_err(|e| match e {
                SstaError::Cancelled(c) => ExecError::Cancelled(c),
                other => ExecError::Internal(other.to_string()),
            })?;
        let mc = McConfig::new(spec.samples, spec.seed).with_threads(spec.threads);
        let mut report = DegradationReport::new();
        let plan = spec
            .inject_hang_ms
            .map(|hang_ms| FaultPlan::new().hang_at(Stage::Mc, 0, hang_ms));
        let mode = McMode::Supervised {
            token,
            faults: plan.as_ref(),
            report: &mut report,
        };
        let run = run_monte_carlo_with(&setup.timer, &[&sampler; N_PARAMS], &mc, mode)
            .map_err(exec_err)?;
        let stats = run.worst_delay_stats();
        let (samples, planned, ci_widening) = match run.salvage() {
            Some(s) => (s.completed, s.planned, s.ci_widening),
            None => (spec.samples, spec.samples, 1.0),
        };
        Ok(ExecData {
            mean: stats.mean,
            sigma: stats.std_dev,
            rank: ctx.rank,
            samples,
            planned,
            ci_widening,
            coarsenings: ctx.degradation.len() + report.len(),
            hier: None,
        })
    }

    /// The `"mode":"hier"` path: partition the die, extract (or load
    /// from the shared artifact cache) one canonical block model per
    /// region over the ξ basis, compose at the boundaries, and re-time
    /// the optional one-gate edit. Block models are keyed by region
    /// hash under the same spectrum key the flat pipeline uses, so
    /// repeated hier requests against an unchanged circuit are served
    /// warm — and an edited request re-extracts exactly one block.
    fn execute_hier(
        &self,
        spec: &QuerySpec,
        blocks: usize,
        edit_gate: Option<usize>,
        edit_scale: f64,
        token: &CancelToken,
    ) -> Result<ExecData, ExecError> {
        // The memoized setup carries the timer, not the netlist; the
        // partition needs fan-in/fan-out structure, so rebuild the
        // circuit deterministically from its spec. Built first, so an
        // edit outside it is refused before any KLE work.
        let circuit = Self::build_circuit(&spec.circuit).map_err(ExecError::Internal)?;
        if let Some(gate) = edit_gate {
            if gate >= circuit.node_count() {
                return Err(ExecError::BadRequest(format!(
                    "edit_gate {gate} out of range: circuit has {} nodes",
                    circuit.node_count()
                )));
            }
        }
        let kernel = spec.kernel.build().map_err(ExecError::Internal)?;
        let config = frontend_config(spec);
        let budgets = StageBudgets::none();
        let ctx = KleContext::build_with(
            kernel.as_ref(),
            &config,
            ExecPolicy::Supervised {
                token,
                budgets: &budgets,
            },
            Some(&self.cache),
        )
        .map_err(|e| match e {
            KleContextError::Mesh(MeshError::Cancelled(c)) => ExecError::Cancelled(c),
            KleContextError::Ssta(SstaError::Cancelled(c)) => ExecError::Cancelled(c),
            other => ExecError::Internal(other.to_string()),
        })?;
        let setup = self.setup_for(&spec.circuit).map_err(ExecError::Internal)?;
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
            .map_err(exec_err)?;
        let partition = Partition::build(&circuit, blocks);
        // Block models are cached under the spectrum key so a kernel,
        // die or rank change can never serve a stale model.
        let spectrum_key = kernel.cache_key().map(|kernel_key| {
            let mesh_key = ArtifactKey::mesh(
                config.die,
                config.max_area_fraction,
                config.min_angle_degrees,
            );
            let galerkin_key =
                ArtifactKey::galerkin(&mesh_key, &kernel_key, config.options.quadrature);
            ArtifactKey::spectrum(
                &galerkin_key,
                config.options.solver,
                config.options.max_eigenpairs,
            )
        });
        let cache_pair = spectrum_key.map(|key| (&self.cache, key));
        let nominal = vec![ParamVector::ZERO; circuit.node_count()];
        let mut engine = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            nominal,
            cache_pair,
            token,
        )
        .map_err(exec_err)?;
        let cold = engine.last_stats();
        let (mean, sigma) = {
            let w = engine.worst();
            (w.mean, w.sigma())
        };
        let edit = match edit_gate {
            None => None,
            Some(gate) => {
                let p = ParamVector::new([
                    edit_scale,
                    -0.5 * edit_scale,
                    0.25 * edit_scale,
                    0.1 * edit_scale,
                ]);
                engine
                    .edit_gate(NodeId(gate as u32), p, token)
                    .map_err(exec_err)?;
                let stats = engine.last_stats();
                let w = engine.worst();
                Some(HierEditOutcome {
                    gate,
                    extracted: stats.extracted,
                    cache_hits: stats.cache_hits,
                    mean: w.mean,
                    sigma: w.sigma(),
                })
            }
        };
        Ok(ExecData {
            mean,
            sigma,
            rank: ctx.rank,
            samples: 0,
            planned: 0,
            ci_widening: 1.0,
            coarsenings: ctx.degradation.len(),
            hier: Some(HierOutcome {
                blocks: cold.blocks,
                cache_hits: cold.cache_hits,
                extracted: cold.extracted,
                edit,
            }),
        })
    }
}

fn respond<W: Write>(out: &Mutex<W>, line: &str) {
    let mut guard = lock(out);
    // Response write failures (client went away) must not take the
    // server down; the summary still accounts for the request.
    let _ = writeln!(guard, "{line}");
    let _ = guard.flush();
}

fn summary_line(s: &ServeSummary, slo: &SloSnapshot) -> String {
    let opt = |v: Option<f64>| match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("status".into(), Json::Str("drained".into())),
        ("received".into(), Json::Num(s.received as f64)),
        ("admitted".into(), Json::Num(s.admitted as f64)),
        ("completed".into(), Json::Num(s.completed as f64)),
        ("salvaged".into(), Json::Num(s.salvaged as f64)),
        ("shed_overload".into(), Json::Num(s.shed_overload as f64)),
        ("shed_deadline".into(), Json::Num(s.shed_deadline as f64)),
        ("shed_draining".into(), Json::Num(s.shed_draining as f64)),
        ("cancelled".into(), Json::Num(s.cancelled as f64)),
        ("faults".into(), Json::Num(s.faults as f64)),
        ("bad_requests".into(), Json::Num(s.bad_requests as f64)),
        ("rejected".into(), Json::Num(s.rejected as f64)),
        ("pings".into(), Json::Num(s.pings as f64)),
        ("slo_target".into(), Json::Num(slo.target)),
        ("slo_total".into(), Json::Num(slo.total as f64)),
        ("slo_met".into(), Json::Num(slo.met as f64)),
        ("slo_fraction".into(), opt(slo.fraction())),
        ("slo_error_budget".into(), opt(slo.error_budget_remaining())),
        ("clean".into(), Json::Bool(s.drained_clean)),
    ])
    .to_compact_string()
}

/// Appends one `klest-metrics/v1` snapshot line to `path` every
/// `interval` until the stop flag is raised, plus one final line at
/// stop so even a connection shorter than the interval leaves its
/// drain-time state on disk. Each line after the first carries rates
/// computed against the previous snapshot. Write failures stop the
/// emitter (metrics must never take the daemon down).
fn emit_metrics_loop(
    path: &std::path::Path,
    interval: Duration,
    stats: &ServerStats,
    stop: &(Mutex<bool>, std::sync::Condvar),
) {
    use std::io::Write as _;
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    let (flag, cv) = stop;
    let mut prev: Option<MetricsSnapshot> = None;
    loop {
        let stopping = {
            let mut stopped = lock(flag);
            while !*stopped {
                let (next, timeout) = match cv.wait_timeout(stopped, interval) {
                    Ok(pair) => pair,
                    Err(poisoned) => {
                        let (guard, timeout) = poisoned.into_inner();
                        (guard, timeout)
                    }
                };
                stopped = next;
                if timeout.timed_out() {
                    break;
                }
            }
            *stopped
        };
        let snap = MetricsSnapshot::capture(stats.tick_ms());
        let rates = prev.as_ref().map(|p| snap.rates_since(p));
        let line = snap.to_json_line(rates.as_ref());
        if writeln!(file, "{line}").is_err() || file.flush().is_err() {
            return;
        }
        prev = Some(snap);
        if stopping {
            return;
        }
    }
}

enum RawLine {
    Text(String),
    Rejected(&'static str),
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes; the
/// remainder of an oversized line is consumed and discarded so the
/// stream stays framed (a client cannot wedge the reader with one
/// gigantic line). `Ok(None)` is EOF.
fn read_line_capped<R: BufRead>(input: &mut R, max: usize) -> std::io::Result<Option<RawLine>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    let mut saw_any = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !oversized && buf.len() + newline <= max {
                    buf.extend_from_slice(&chunk[..newline]);
                } else {
                    oversized = true;
                }
                input.consume(newline + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if !oversized && buf.len() + len <= max {
                    buf.extend_from_slice(chunk);
                } else {
                    oversized = true;
                }
                input.consume(len);
            }
        }
    }
    if oversized {
        return Ok(Some(RawLine::Rejected("request line too long")));
    }
    match String::from_utf8(buf) {
        Ok(text) => Ok(Some(RawLine::Text(text))),
        Err(_) => Ok(Some(RawLine::Rejected("request line is not valid UTF-8"))),
    }
}
