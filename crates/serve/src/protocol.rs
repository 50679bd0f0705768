//! The serve wire protocol: newline-delimited JSON requests in, one
//! newline-delimited JSON response per request out.
//!
//! Parsing is strict — unknown keys, out-of-range values and
//! wrong-typed fields are all typed [`BadRequest`]s, never panics —
//! because the daemon's contract is that arbitrary bytes on stdin can
//! degrade only the offending request. Every terminal state a request
//! can reach has exactly one response shape, enumerated by
//! [`ServeError`] and [`QueryOutcome`].

use std::time::Duration;

use klest_circuit::{BenchmarkId, TABLE1_BENCHMARKS};
use klest_kernels::{
    CovarianceKernel, ExponentialKernel, GaussianKernel, MaternKernel, SeparableExponentialKernel,
};
use klest_obs::{HistState, SloSnapshot, SpanEntry};

use crate::json::{self, Json};

/// Longest accepted request line, bytes. Anything longer is shed as a
/// [`BadRequest`] before the parser touches it.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Longest accepted request id, characters.
pub const MAX_ID_CHARS: usize = 128;

/// Which circuit a query times.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// A Table 1 benchmark, scaled by `scale` (gate count multiplier).
    Named {
        /// The benchmark.
        id: BenchmarkId,
        /// Gate-count scale in `(0, 1]`.
        scale: f64,
    },
    /// A synthetic combinational circuit.
    Synthetic {
        /// Gate count.
        gates: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl CircuitSpec {
    /// A stable string key for per-process circuit memoisation.
    pub fn memo_key(&self) -> String {
        match self {
            CircuitSpec::Named { id, scale } => {
                format!("table1:{}:{:016x}", id.name(), scale.to_bits())
            }
            CircuitSpec::Synthetic { gates, seed } => format!("synth:{gates}:{seed}"),
        }
    }
}

/// Which correlation kernel a query uses, with validated parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// Gaussian kernel: explicit decay rate `c`, or derived from the
    /// correlation distance `dist` when `c` is absent.
    Gaussian {
        /// Decay rate; `None` means "derive from `dist`".
        c: Option<f64>,
        /// Correlation distance (used only when `c` is `None`).
        dist: f64,
    },
    /// Exponential kernel with decay rate `c`.
    Exponential {
        /// Decay rate.
        c: f64,
    },
    /// Separable (x/y product) exponential kernel with decay rate `c`.
    Separable {
        /// Decay rate.
        c: f64,
    },
    /// Matérn-family kernel with parameters `b`, `s`.
    Matern {
        /// Scale parameter.
        b: f64,
        /// Smoothness parameter.
        s: f64,
    },
}

impl KernelSpec {
    /// Instantiates the kernel.
    ///
    /// # Errors
    ///
    /// A user-facing message when a parameter the kernel's own
    /// constructor checks is out of range (request validation already
    /// rejects non-finite and non-positive values, so this is rare).
    pub fn build(&self) -> Result<Box<dyn CovarianceKernel>, String> {
        match self {
            KernelSpec::Gaussian { c: Some(c), .. } => GaussianKernel::try_new(*c)
                .map(|k| Box::new(k) as Box<dyn CovarianceKernel>)
                .map_err(|e| e.to_string()),
            KernelSpec::Gaussian { c: None, dist } => {
                Ok(Box::new(GaussianKernel::with_correlation_distance(*dist)))
            }
            KernelSpec::Exponential { c } => ExponentialKernel::try_new(*c)
                .map(|k| Box::new(k) as Box<dyn CovarianceKernel>)
                .map_err(|e| e.to_string()),
            KernelSpec::Separable { c } => SeparableExponentialKernel::try_new(*c)
                .map(|k| Box::new(k) as Box<dyn CovarianceKernel>)
                .map_err(|e| e.to_string()),
            KernelSpec::Matern { b, s } => MaternKernel::new(*b, *s)
                .map(|k| Box::new(k) as Box<dyn CovarianceKernel>)
                .map_err(|e| e.to_string()),
        }
    }
}

/// How a query is executed.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryMode {
    /// Flat supervised Monte Carlo over the KLE sampler (default).
    Mc,
    /// Hierarchical block-model analysis: partition the die, extract a
    /// canonical timing model per block over the shared ξ basis (models
    /// are cached by region hash in the daemon's shared artifact
    /// cache), compose at the boundaries, and optionally re-time a
    /// one-gate edit — which invalidates exactly one block.
    Hier {
        /// Requested die-region block count.
        blocks: usize,
        /// Gate to edit after the nominal composition, when present.
        edit_gate: Option<usize>,
        /// Leading parameter magnitude applied to the edited gate.
        edit_scale: f64,
    },
}

/// A validated timing query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The circuit to time.
    pub circuit: CircuitSpec,
    /// The correlation kernel.
    pub kernel: KernelSpec,
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Monte Carlo base seed.
    pub seed: u64,
    /// Mesh resolution: maximum triangle area as a fraction of the die.
    pub area_fraction: f64,
    /// Monte Carlo worker threads for this one request.
    pub threads: usize,
    /// Whole-request deadline measured from admission (queue wait
    /// counts); `None` falls back to the server default.
    pub deadline: Option<Duration>,
    /// Fault drill: panic inside the isolated request body on every
    /// attempt (exercises supervision; the daemon must answer `fault`).
    pub inject_panic: bool,
    /// Fault drill: cooperative hang of this many milliseconds inside
    /// the MC stage (exercises deadline cancellation).
    pub inject_hang_ms: Option<u64>,
    /// Client asked for a per-request trace (`"trace":true`); honoured
    /// only when the daemon also runs with `--trace-responses`.
    pub trace: bool,
    /// Flat Monte Carlo (default) or hierarchical block-model analysis.
    pub mode: QueryMode,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// A timing query.
    Query {
        /// Client-chosen correlation id, echoed on the response.
        id: String,
        /// The validated query.
        spec: QuerySpec,
    },
    /// Liveness probe; answered inline with `pong`.
    Ping {
        /// Optional correlation id.
        id: Option<String>,
    },
    /// Introspection probe; answered inline with a [`StatsReport`].
    Stats {
        /// Optional correlation id.
        id: Option<String>,
    },
    /// Begin graceful drain: stop admitting, finish in-flight work.
    Shutdown,
}

/// A request that failed validation: the typed rejection, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// The client id, when one could be extracted from the broken line.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl BadRequest {
    fn new(id: Option<String>, message: impl Into<String>) -> BadRequest {
        BadRequest {
            id,
            message: message.into(),
        }
    }
}

/// Why a request did not complete: every non-success terminal state of
/// the serve state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request failed validation.
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// The admission queue was full; retry after the hint.
    Overloaded {
        /// Estimated time until a slot frees up.
        retry_after_hint: Duration,
    },
    /// The request's deadline expired while it was still queued; it was
    /// shed without consuming a worker.
    DeadlineExpiredInQueue {
        /// How long it had waited.
        waited: Duration,
    },
    /// The server is draining and no longer runs queued work.
    Draining,
    /// The request was cancelled cooperatively (deadline or drain) and
    /// nothing was salvageable.
    Cancelled {
        /// The pipeline stage whose checkpoint tripped.
        stage: String,
        /// Wall time spent in service before the trip, ms.
        service_ms: u64,
    },
    /// The request panicked on every attempt (or failed internally);
    /// it was isolated and reported, sibling requests kept running.
    Fault {
        /// Attempts made (1 initial + retries).
        attempts: usize,
        /// Stringified panic payload or internal error.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::Overloaded { retry_after_hint } => write!(
                f,
                "overloaded, retry after {} ms",
                retry_after_hint.as_millis()
            ),
            ServeError::DeadlineExpiredInQueue { waited } => write!(
                f,
                "deadline expired after {} ms in queue",
                waited.as_millis()
            ),
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Cancelled { stage, service_ms } => {
                write!(f, "cancelled at stage `{stage}` after {service_ms} ms")
            }
            ServeError::Fault { attempts, message } => {
                write!(f, "faulted after {attempts} attempt(s): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed (or salvaged-partial) query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Worst-delay sample mean.
    pub mean: f64,
    /// Worst-delay sample standard deviation.
    pub sigma: f64,
    /// KLE truncation rank used.
    pub rank: usize,
    /// Samples actually timed.
    pub samples: usize,
    /// Samples requested.
    pub planned: usize,
    /// True when the run was truncated/salvaged rather than complete.
    pub salvaged: bool,
    /// Confidence-interval widening factor (`1` for a full run).
    pub ci_widening: f64,
    /// True when the KLE spectrum came from the shared artifact cache.
    pub warm: bool,
    /// Supervisor retries consumed by this request.
    pub retries: usize,
    /// Mesh-ladder coarsenings recorded during the front end.
    pub coarsenings: usize,
    /// Time spent queued before a worker picked the request up, ms.
    pub queue_ms: u64,
    /// Time spent in service, ms.
    pub service_ms: u64,
    /// Per-request trace, present when the client asked (`"trace":true`)
    /// and the daemon allows it (`--trace-responses`).
    pub trace: Option<TraceInfo>,
    /// Hierarchical numbers, present on `"mode":"hier"` responses.
    pub hier: Option<HierOutcome>,
}

/// Block-model accounting carried on a `"mode":"hier"` response.
#[derive(Debug, Clone, PartialEq)]
pub struct HierOutcome {
    /// Die-region blocks in the partition.
    pub blocks: usize,
    /// Block models served from the daemon's shared artifact cache.
    pub cache_hits: usize,
    /// Block models extracted by this request.
    pub extracted: usize,
    /// The re-time that followed the requested one-gate edit.
    pub edit: Option<HierEditOutcome>,
}

/// Result of the one-gate edit re-time inside a hierarchical query.
#[derive(Debug, Clone, PartialEq)]
pub struct HierEditOutcome {
    /// The edited gate id.
    pub gate: usize,
    /// Blocks re-extracted by the edit (1 when invalidation is exact).
    pub extracted: usize,
    /// Blocks served warm from the cache during the re-time.
    pub cache_hits: usize,
    /// Composed worst mean after the edit.
    pub mean: f64,
    /// Composed worst sigma after the edit.
    pub sigma: f64,
}

/// Per-request trace carried on a query response: where the wall time
/// went, stage by stage, and which artifacts were already warm.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInfo {
    /// Daemon-assigned trace id (request id + per-daemon seed hashed
    /// through `klest-rng`; stable for a given daemon seed, no clock).
    pub trace_id: String,
    /// Artifact-cache warmth at admission: mesh layer.
    pub warm_mesh: bool,
    /// Artifact-cache warmth at admission: Galerkin-matrix layer.
    pub warm_galerkin: bool,
    /// Artifact-cache warmth at admission: spectrum layer.
    pub warm_spectrum: bool,
    /// Captured stage spans (path-keyed, first-seen order) from the
    /// worker thread that ran the request: mesh / assemble / eigensolve
    /// / truncate / ssta under the supervision root.
    pub stages: Vec<SpanEntry>,
    /// Salvage/degradation notes (retries, coarsenings, CI widening).
    pub events: Vec<String>,
}

/// One windowed latency reading inside a [`StatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Observations in the window.
    pub count: u64,
    /// Interpolated quantiles, `None` while the window is empty.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// Exact windowed mean.
    pub mean: Option<f64>,
}

impl LatencyStats {
    /// Summarises a merged window state.
    pub fn from_hist(h: &HistState) -> LatencyStats {
        LatencyStats {
            count: h.count,
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            mean: h.mean(),
        }
    }
}

/// Lifetime + windowed introspection snapshot answering `{"op":"stats"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Configured worker count.
    pub workers: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Queries admitted to the queue (lifetime).
    pub admitted: u64,
    /// Queries completed cleanly (lifetime).
    pub completed: u64,
    /// Queries salvaged partially (lifetime).
    pub salvaged: u64,
    /// Queries cancelled with nothing salvageable (lifetime).
    pub cancelled: u64,
    /// Queries faulted after retries (lifetime).
    pub faults: u64,
    /// Queries shed at admission: queue full (lifetime).
    pub shed_overload: u64,
    /// Queries shed at dequeue: deadline expired in queue (lifetime).
    pub shed_deadline: u64,
    /// Queries shed because the daemon was draining (lifetime).
    pub shed_draining: u64,
    /// Lines refused as bad requests, including
    /// [`rejected`](Self::rejected) (lifetime).
    pub bad_requests: u64,
    /// Well-formed queries refused at execution as client errors, such
    /// as an out-of-range edit (lifetime).
    pub rejected: u64,
    /// Windowed service latency of cache-warm queries, ms.
    pub latency_warm: LatencyStats,
    /// Windowed service latency of cache-cold queries, ms.
    pub latency_cold: LatencyStats,
    /// Windowed queue-wait latency, ms.
    pub queue_wait: LatencyStats,
    /// Artifact-cache hits (lifetime, all layers).
    pub cache_hits: u64,
    /// Artifact-cache misses (lifetime, all layers).
    pub cache_misses: u64,
    /// Memory-layer entry counts in `(mesh, galerkin, spectrum, block)`
    /// order.
    pub cache_sizes: (usize, usize, usize, usize),
    /// Hierarchical block-model cache hits (lifetime).
    pub cache_block_hits: u64,
    /// Hierarchical block-model cache misses (lifetime).
    pub cache_block_misses: u64,
    /// Disk-cache store attempts that failed and lost the persistent
    /// copy (lifetime).
    pub cache_disk_write_failures: u64,
    /// Corrupt/torn disk-cache entries quarantined — renamed aside to
    /// `*.quarantine` — instead of silently recomputed (lifetime).
    pub cache_quarantined: u64,
    /// Busy fraction of `workers × uptime`, `None` until measurable.
    pub utilization: Option<f64>,
    /// Windowed deadline-SLO reading.
    pub slo: SloSnapshot,
}

fn id_json(id: Option<&str>) -> Json {
    match id {
        Some(s) => Json::Str(s.to_string()),
        None => Json::Null,
    }
}

/// Renders the single response line for a successful query.
pub fn outcome_response(id: &str, o: &QueryOutcome) -> String {
    let status = if o.salvaged { "salvaged" } else { "completed" };
    let mut members = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("status".to_string(), Json::Str(status.into())),
        ("mean".to_string(), Json::Num(o.mean)),
        ("sigma".to_string(), Json::Num(o.sigma)),
        ("rank".to_string(), Json::Num(o.rank as f64)),
        ("samples".to_string(), Json::Num(o.samples as f64)),
        ("planned".to_string(), Json::Num(o.planned as f64)),
        ("ci_widening".to_string(), Json::Num(o.ci_widening)),
        ("warm".to_string(), Json::Bool(o.warm)),
        ("retries".to_string(), Json::Num(o.retries as f64)),
        ("coarsenings".to_string(), Json::Num(o.coarsenings as f64)),
        ("queue_ms".to_string(), Json::Num(o.queue_ms as f64)),
        ("service_ms".to_string(), Json::Num(o.service_ms as f64)),
    ];
    if let Some(h) = &o.hier {
        let mut fields = vec![
            ("blocks".to_string(), Json::Num(h.blocks as f64)),
            ("cache_hits".to_string(), Json::Num(h.cache_hits as f64)),
            ("extracted".to_string(), Json::Num(h.extracted as f64)),
        ];
        if let Some(e) = &h.edit {
            fields.push((
                "edit".to_string(),
                Json::Obj(vec![
                    ("gate".to_string(), Json::Num(e.gate as f64)),
                    ("extracted".to_string(), Json::Num(e.extracted as f64)),
                    ("cache_hits".to_string(), Json::Num(e.cache_hits as f64)),
                    ("mean".to_string(), Json::Num(e.mean)),
                    ("sigma".to_string(), Json::Num(e.sigma)),
                ]),
            ));
        }
        members.push(("hier".to_string(), Json::Obj(fields)));
    }
    if let Some(trace) = &o.trace {
        members.push(("trace".to_string(), trace_json(trace)));
    }
    Json::Obj(members).to_compact_string()
}

fn trace_json(t: &TraceInfo) -> Json {
    Json::Obj(vec![
        ("trace_id".to_string(), Json::Str(t.trace_id.clone())),
        (
            "artifacts_warm".to_string(),
            Json::Obj(vec![
                ("mesh".to_string(), Json::Bool(t.warm_mesh)),
                ("galerkin".to_string(), Json::Bool(t.warm_galerkin)),
                ("spectrum".to_string(), Json::Bool(t.warm_spectrum)),
            ]),
        ),
        (
            "stages".to_string(),
            Json::Arr(
                t.stages
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("path".to_string(), Json::Str(s.path.clone())),
                            ("count".to_string(), Json::Num(s.count as f64)),
                            ("wall_ns".to_string(), Json::Num(s.wall_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "events".to_string(),
            Json::Arr(t.events.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ])
}

fn latency_json(l: &LatencyStats) -> Json {
    let opt = |v: Option<f64>| match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("count".to_string(), Json::Num(l.count as f64)),
        ("p50".to_string(), opt(l.p50)),
        ("p95".to_string(), opt(l.p95)),
        ("p99".to_string(), opt(l.p99)),
        ("mean".to_string(), opt(l.mean)),
    ])
}

/// Renders the response to a `{"op":"stats"}` introspection probe.
pub fn stats_response(id: Option<&str>, s: &StatsReport) -> String {
    let opt = |v: Option<f64>| match v {
        Some(x) => Json::Num(x),
        None => Json::Null,
    };
    let hits_misses = s.cache_hits + s.cache_misses;
    let hit_ratio = if hits_misses == 0 {
        Json::Null
    } else {
        Json::Num(s.cache_hits as f64 / hits_misses as f64)
    };
    let (mesh_n, galerkin_n, spectrum_n, block_n) = s.cache_sizes;
    let block_lookups = s.cache_block_hits + s.cache_block_misses;
    let block_hit_ratio = if block_lookups == 0 {
        Json::Null
    } else {
        Json::Num(s.cache_block_hits as f64 / block_lookups as f64)
    };
    Json::Obj(vec![
        ("id".to_string(), id_json(id)),
        ("status".to_string(), Json::Str("stats".into())),
        ("uptime_ms".to_string(), Json::Num(s.uptime_ms as f64)),
        ("workers".to_string(), Json::Num(s.workers as f64)),
        (
            "queue".to_string(),
            Json::Obj(vec![
                ("depth".to_string(), Json::Num(s.queue_depth as f64)),
                ("capacity".to_string(), Json::Num(s.queue_capacity as f64)),
            ]),
        ),
        (
            "requests".to_string(),
            Json::Obj(vec![
                ("admitted".to_string(), Json::Num(s.admitted as f64)),
                ("completed".to_string(), Json::Num(s.completed as f64)),
                ("salvaged".to_string(), Json::Num(s.salvaged as f64)),
                ("cancelled".to_string(), Json::Num(s.cancelled as f64)),
                ("faults".to_string(), Json::Num(s.faults as f64)),
                (
                    "shed_overload".to_string(),
                    Json::Num(s.shed_overload as f64),
                ),
                (
                    "shed_deadline".to_string(),
                    Json::Num(s.shed_deadline as f64),
                ),
                (
                    "shed_draining".to_string(),
                    Json::Num(s.shed_draining as f64),
                ),
                ("bad_requests".to_string(), Json::Num(s.bad_requests as f64)),
                ("rejected".to_string(), Json::Num(s.rejected as f64)),
            ]),
        ),
        (
            "latency_ms".to_string(),
            Json::Obj(vec![
                ("warm".to_string(), latency_json(&s.latency_warm)),
                ("cold".to_string(), latency_json(&s.latency_cold)),
                ("queue_wait".to_string(), latency_json(&s.queue_wait)),
            ]),
        ),
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Num(s.cache_hits as f64)),
                ("misses".to_string(), Json::Num(s.cache_misses as f64)),
                ("hit_ratio".to_string(), hit_ratio),
                (
                    "disk_write_failures".to_string(),
                    Json::Num(s.cache_disk_write_failures as f64),
                ),
                (
                    "quarantined".to_string(),
                    Json::Num(s.cache_quarantined as f64),
                ),
                (
                    "sizes".to_string(),
                    Json::Obj(vec![
                        ("mesh".to_string(), Json::Num(mesh_n as f64)),
                        ("galerkin".to_string(), Json::Num(galerkin_n as f64)),
                        ("spectrum".to_string(), Json::Num(spectrum_n as f64)),
                        ("block".to_string(), Json::Num(block_n as f64)),
                    ]),
                ),
                (
                    "block".to_string(),
                    Json::Obj(vec![
                        ("hits".to_string(), Json::Num(s.cache_block_hits as f64)),
                        ("misses".to_string(), Json::Num(s.cache_block_misses as f64)),
                        ("hit_ratio".to_string(), block_hit_ratio),
                        ("entries".to_string(), Json::Num(block_n as f64)),
                    ]),
                ),
            ]),
        ),
        ("utilization".to_string(), opt(s.utilization)),
        (
            "slo".to_string(),
            Json::Obj(vec![
                ("target".to_string(), Json::Num(s.slo.target)),
                ("window_total".to_string(), Json::Num(s.slo.total as f64)),
                ("window_met".to_string(), Json::Num(s.slo.met as f64)),
                ("fraction".to_string(), opt(s.slo.fraction())),
                (
                    "error_budget_remaining".to_string(),
                    opt(s.slo.error_budget_remaining()),
                ),
            ]),
        ),
    ])
    .to_compact_string()
}

/// Renders the single response line for a failed/shed request.
pub fn error_response(id: Option<&str>, err: &ServeError) -> String {
    let mut members = vec![("id".to_string(), id_json(id))];
    match err {
        ServeError::BadRequest { message } => {
            members.push(("status".into(), Json::Str("bad_request".into())));
            members.push(("message".into(), Json::Str(message.clone())));
        }
        ServeError::Overloaded { retry_after_hint } => {
            members.push(("status".into(), Json::Str("shed".into())));
            members.push(("reason".into(), Json::Str("overloaded".into())));
            members.push((
                "retry_after_ms".into(),
                Json::Num(retry_after_hint.as_millis() as f64),
            ));
        }
        ServeError::DeadlineExpiredInQueue { waited } => {
            members.push(("status".into(), Json::Str("shed".into())));
            members.push(("reason".into(), Json::Str("deadline_expired".into())));
            members.push(("waited_ms".into(), Json::Num(waited.as_millis() as f64)));
        }
        ServeError::Draining => {
            members.push(("status".into(), Json::Str("shed".into())));
            members.push(("reason".into(), Json::Str("draining".into())));
        }
        ServeError::Cancelled { stage, service_ms } => {
            members.push(("status".into(), Json::Str("cancelled".into())));
            members.push(("stage".into(), Json::Str(stage.clone())));
            members.push(("service_ms".into(), Json::Num(*service_ms as f64)));
        }
        ServeError::Fault { attempts, message } => {
            members.push(("status".into(), Json::Str("fault".into())));
            members.push(("attempts".into(), Json::Num(*attempts as f64)));
            members.push(("message".into(), Json::Str(message.clone())));
        }
    }
    Json::Obj(members).to_compact_string()
}

/// Renders the response to a ping.
pub fn pong_response(id: Option<&str>) -> String {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("status".into(), Json::Str("pong".into())),
    ])
    .to_compact_string()
}

/// Renders the acknowledgement emitted when a `shutdown` request flips
/// the server into drain mode.
pub fn draining_response() -> String {
    Json::Obj(vec![("status".into(), Json::Str("draining".into()))]).to_compact_string()
}

const KNOWN_KEYS: [&str; 23] = [
    "id",
    "op",
    "trace",
    "circuit",
    "scale",
    "gates",
    "circuit_seed",
    "kernel",
    "c",
    "dist",
    "b",
    "s",
    "samples",
    "seed",
    "area_fraction",
    "threads",
    "deadline_ms",
    "inject_panic",
    "inject_hang_ms",
    "mode",
    "blocks",
    "edit_gate",
    "edit_scale",
];

fn extract_id(value: &Json) -> Result<Option<String>, String> {
    match value.get("id") {
        None => Ok(None),
        Some(Json::Str(s)) => {
            if s.is_empty() {
                Err("`id` must be non-empty".into())
            } else if s.chars().count() > MAX_ID_CHARS {
                Err(format!("`id` longer than {MAX_ID_CHARS} characters"))
            } else {
                Ok(Some(s.clone()))
            }
        }
        Some(Json::Num(n)) => exact_uint(*n, "id").map(|v| Some(v.to_string())),
        Some(_) => Err("`id` must be a string or integer".into()),
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("`{key}` must be a number")),
    }
}

/// The largest integer a request may carry: 2^53 - 1. A JSON number
/// is held as an `f64`, which represents every integer up to this one
/// exactly; above it distinct integers parse to the same value (so
/// 9007199254740993 would silently run as ...992).
const MAX_EXACT_UINT: u64 = (1 << 53) - 1;

/// A JSON number as a non-negative integer that the request spelled
/// exactly.
fn exact_uint(n: f64, key: &str) -> Result<u64, String> {
    if n.fract() != 0.0 || n < 0.0 {
        return Err(format!("`{key}` must be a non-negative integer"));
    }
    if n > MAX_EXACT_UINT as f64 {
        return Err(format!(
            "`{key}` must be at most {MAX_EXACT_UINT} (2^53 - 1, the largest integer a JSON number holds exactly)"
        ));
    }
    Ok(n as u64)
}

fn field_uint(obj: &Json, key: &str, min: u64, max: u64) -> Result<Option<u64>, String> {
    match field_f64(obj, key)? {
        None => Ok(None),
        Some(n) => {
            let v = exact_uint(n, key)?;
            if v < min || v > max {
                return Err(format!("`{key}` must be in {min}..={max}, got {v}"));
            }
            Ok(Some(v))
        }
    }
}

fn field_pos_f64(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match field_f64(obj, key)? {
        None => Ok(None),
        Some(n) if n.is_finite() && n > 0.0 => Ok(Some(n)),
        Some(n) => Err(format!("`{key}` must be finite and positive, got {n}")),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn parse_circuit(obj: &Json) -> Result<CircuitSpec, String> {
    let name = field_str(obj, "circuit")?.unwrap_or("synth");
    if name == "synth" {
        if obj.get("scale").is_some() {
            return Err("`scale` applies only to named Table 1 circuits".into());
        }
        let gates = field_uint(obj, "gates", 2, 50_000)?.unwrap_or(48) as usize;
        let seed = field_uint(obj, "circuit_seed", 0, MAX_EXACT_UINT)?.unwrap_or(7);
        return Ok(CircuitSpec::Synthetic { gates, seed });
    }
    if obj.get("gates").is_some() || obj.get("circuit_seed").is_some() {
        return Err("`gates`/`circuit_seed` apply only to `circuit:\"synth\"`".into());
    }
    let id = TABLE1_BENCHMARKS
        .iter()
        .find(|b| b.name() == name)
        .copied()
        .ok_or_else(|| format!("unknown circuit '{name}' (a Table 1 name or \"synth\")"))?;
    let scale = match field_pos_f64(obj, "scale")? {
        None => 0.05,
        Some(s) if s <= 1.0 => s,
        Some(s) => return Err(format!("`scale` must be in (0, 1], got {s}")),
    };
    Ok(CircuitSpec::Named { id, scale })
}

fn parse_kernel(obj: &Json) -> Result<KernelSpec, String> {
    let name = field_str(obj, "kernel")?.unwrap_or("gaussian");
    let reject = |keys: &[&str], kernel: &str| -> Result<(), String> {
        for k in keys {
            if obj.get(k).is_some() {
                return Err(format!("`{k}` is not a parameter of the {kernel} kernel"));
            }
        }
        Ok(())
    };
    let spec = match name {
        "gaussian" => {
            reject(&["b", "s"], "gaussian")?;
            KernelSpec::Gaussian {
                c: field_pos_f64(obj, "c")?,
                dist: field_pos_f64(obj, "dist")?.unwrap_or(1.0),
            }
        }
        "exponential" => {
            reject(&["dist", "b", "s"], "exponential")?;
            KernelSpec::Exponential {
                c: field_pos_f64(obj, "c")?.unwrap_or(2.0),
            }
        }
        "separable" => {
            reject(&["dist", "b", "s"], "separable")?;
            KernelSpec::Separable {
                c: field_pos_f64(obj, "c")?.unwrap_or(1.5),
            }
        }
        "matern" => {
            reject(&["dist", "c"], "matern")?;
            KernelSpec::Matern {
                b: field_pos_f64(obj, "b")?.unwrap_or(3.0),
                s: field_pos_f64(obj, "s")?.unwrap_or(2.5),
            }
        }
        other => {
            return Err(format!(
                "unknown kernel '{other}' (expected gaussian, exponential, separable or matern)"
            ))
        }
    };
    // Surface constructor-level rejections (e.g. Matérn parameter
    // combinations) at validation time, not inside a worker.
    spec.build()?;
    Ok(spec)
}

/// Parses and strictly validates one request line.
///
/// # Errors
///
/// [`BadRequest`] carrying the client id when one was recoverable, for:
/// oversized lines, malformed JSON, non-object payloads, unknown keys,
/// wrong-typed fields, out-of-range values, and unknown `op`s.
pub fn parse_request(line: &str) -> Result<ServeRequest, BadRequest> {
    if line.len() > MAX_LINE_BYTES {
        return Err(BadRequest::new(
            None,
            format!("request line longer than {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value =
        json::parse(line).map_err(|e| BadRequest::new(None, format!("malformed JSON: {e}")))?;
    let members = value
        .as_obj()
        .ok_or_else(|| BadRequest::new(None, "request must be a JSON object"))?;
    // The id is extracted first so later rejections can carry it.
    let id = extract_id(&value).map_err(|m| BadRequest::new(None, m))?;
    let bad = |m: String| BadRequest::new(id.clone(), m);
    for (key, _) in members {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(bad(format!("unknown key `{key}`")));
        }
    }
    let op = field_str(&value, "op").map_err(bad)?.unwrap_or("query");
    match op {
        "ping" => return Ok(ServeRequest::Ping { id }),
        "stats" => return Ok(ServeRequest::Stats { id }),
        "shutdown" => return Ok(ServeRequest::Shutdown),
        "query" => {}
        other => {
            return Err(bad(format!(
                "unknown op '{other}' (expected query, ping, stats or shutdown)"
            )))
        }
    }
    let id = id.ok_or_else(|| BadRequest::new(None, "query requests require an `id`"))?;
    let bad = |m: String| BadRequest::new(Some(id.clone()), m);
    let circuit = parse_circuit(&value).map_err(bad)?;
    let kernel = parse_kernel(&value).map_err(bad)?;
    let samples = field_uint(&value, "samples", 1, 100_000)
        .map_err(bad)?
        .unwrap_or(200) as usize;
    let seed = field_uint(&value, "seed", 0, MAX_EXACT_UINT)
        .map_err(bad)?
        .unwrap_or(2008);
    let threads = field_uint(&value, "threads", 1, 32)
        .map_err(bad)?
        .unwrap_or(1) as usize;
    let area_fraction = match field_pos_f64(&value, "area_fraction").map_err(bad)? {
        None => 0.02,
        Some(a) if (1e-4..=1.0).contains(&a) => a,
        Some(a) => {
            return Err(BadRequest::new(
                Some(id),
                format!("`area_fraction` must be in [1e-4, 1], got {a}"),
            ))
        }
    };
    let deadline = field_uint(&value, "deadline_ms", 1, 600_000)
        .map_err(bad)?
        .map(Duration::from_millis);
    let inject_panic = field_bool(&value, "inject_panic")
        .map_err(bad)?
        .unwrap_or(false);
    let inject_hang_ms = field_uint(&value, "inject_hang_ms", 1, 60_000).map_err(bad)?;
    let trace = field_bool(&value, "trace").map_err(bad)?.unwrap_or(false);
    let mode = parse_mode(&value).map_err(bad)?;
    Ok(ServeRequest::Query {
        id,
        spec: QuerySpec {
            circuit,
            kernel,
            samples,
            seed,
            area_fraction,
            threads,
            deadline,
            inject_panic,
            inject_hang_ms,
            trace,
            mode,
        },
    })
}

fn parse_mode(obj: &Json) -> Result<QueryMode, String> {
    match field_str(obj, "mode")?.unwrap_or("mc") {
        "mc" => {
            for k in ["blocks", "edit_gate", "edit_scale"] {
                if obj.get(k).is_some() {
                    return Err(format!("`{k}` applies only to `mode:\"hier\"`"));
                }
            }
            Ok(QueryMode::Mc)
        }
        "hier" => {
            // The hierarchical path composes canonical block models; it
            // runs no Monte Carlo stage, so MC-only knobs are rejected
            // rather than silently ignored.
            for k in ["samples", "seed", "threads", "inject_hang_ms"] {
                if obj.get(k).is_some() {
                    return Err(format!(
                        "`{k}` applies only to `mode:\"mc\"` (hier runs no Monte Carlo)"
                    ));
                }
            }
            let blocks = field_uint(obj, "blocks", 1, 64)?.unwrap_or(4) as usize;
            let edit_gate = field_uint(obj, "edit_gate", 0, MAX_EXACT_UINT)?.map(|v| v as usize);
            if edit_gate.is_none() && obj.get("edit_scale").is_some() {
                return Err("`edit_scale` requires `edit_gate`".into());
            }
            let edit_scale = match field_f64(obj, "edit_scale")? {
                None => 0.3,
                Some(s) if s.is_finite() && s.abs() <= 10.0 => s,
                Some(s) => {
                    return Err(format!(
                        "`edit_scale` must be finite with magnitude <= 10, got {s}"
                    ))
                }
            };
            Ok(QueryMode::Hier {
                blocks,
                edit_gate,
                edit_scale,
            })
        }
        other => Err(format!("unknown mode '{other}' (expected mc or hier)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_query(line: &str) -> QuerySpec {
        match parse_request(line) {
            Ok(ServeRequest::Query { spec, .. }) => spec,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn minimal_query_gets_defaults() {
        let spec = parse_query(r#"{"id":"q1"}"#);
        assert_eq!(spec.circuit, CircuitSpec::Synthetic { gates: 48, seed: 7 });
        assert_eq!(spec.samples, 200);
        assert_eq!(spec.seed, 2008);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.deadline, None);
        assert!(!spec.inject_panic);
        assert!(matches!(spec.kernel, KernelSpec::Gaussian { c: None, .. }));
        assert_eq!(spec.mode, QueryMode::Mc);
    }

    #[test]
    fn hier_mode_parses_with_defaults_and_edit_fields() {
        let spec = parse_query(r#"{"id":"h1","mode":"hier"}"#);
        assert_eq!(
            spec.mode,
            QueryMode::Hier {
                blocks: 4,
                edit_gate: None,
                edit_scale: 0.3
            }
        );
        let spec =
            parse_query(r#"{"id":"h2","mode":"hier","blocks":8,"edit_gate":33,"edit_scale":0.5}"#);
        assert_eq!(
            spec.mode,
            QueryMode::Hier {
                blocks: 8,
                edit_gate: Some(33),
                edit_scale: 0.5
            }
        );
    }

    #[test]
    fn hier_mode_rejections_are_typed() {
        let cases: [(&str, &str); 6] = [
            (r#"{"id":"h","mode":"flat"}"#, "unknown mode"),
            (
                r#"{"id":"h","blocks":4}"#,
                "applies only to `mode:\"hier\"`",
            ),
            (
                r#"{"id":"h","mode":"hier","blocks":0}"#,
                "`blocks` must be in",
            ),
            (
                r#"{"id":"h","mode":"hier","samples":50}"#,
                "hier runs no Monte Carlo",
            ),
            (
                r#"{"id":"h","mode":"hier","edit_scale":0.5}"#,
                "`edit_scale` requires `edit_gate`",
            ),
            (
                r#"{"id":"h","mode":"hier","edit_gate":1,"edit_scale":99}"#,
                "magnitude <= 10",
            ),
        ];
        for (line, want) in cases {
            let e = parse_request(line).expect_err(line);
            assert!(e.message.contains(want), "{line}: {}", e.message);
            assert_eq!(e.id.as_deref(), Some("h"), "{line}");
        }
    }

    #[test]
    fn named_circuit_with_scale_and_numeric_id() {
        match parse_request(r#"{"id":7,"circuit":"c880","scale":0.1,"samples":64}"#) {
            Ok(ServeRequest::Query { id, spec }) => {
                assert_eq!(id, "7");
                assert!(matches!(spec.circuit, CircuitSpec::Named { id, scale }
                    if id.name() == "c880" && scale == 0.1));
                assert_eq!(spec.samples, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn integers_up_to_2_pow_53_minus_1_parse_exactly() {
        let spec =
            parse_query(r#"{"id":"q","seed":9007199254740991,"circuit_seed":9007199254740991}"#);
        assert_eq!(spec.seed, 9_007_199_254_740_991);
        assert!(matches!(
            spec.circuit,
            CircuitSpec::Synthetic {
                seed: 9_007_199_254_740_991,
                ..
            }
        ));
        match parse_request(r#"{"id":9007199254740991}"#) {
            Ok(ServeRequest::Query { id, .. }) => assert_eq!(id, "9007199254740991"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ping_and_shutdown_ops() {
        assert_eq!(
            parse_request(r#"{"op":"ping","id":"p"}"#),
            Ok(ServeRequest::Ping {
                id: Some("p".into())
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(ServeRequest::Ping { id: None })
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(ServeRequest::Shutdown)
        );
    }

    #[test]
    fn stats_op_and_trace_field() {
        assert_eq!(
            parse_request(r#"{"op":"stats","id":"s1"}"#),
            Ok(ServeRequest::Stats {
                id: Some("s1".into())
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(ServeRequest::Stats { id: None })
        );
        assert!(parse_query(r#"{"id":"q","trace":true}"#).trace);
        assert!(!parse_query(r#"{"id":"q"}"#).trace);
        let e = parse_request(r#"{"id":"q","trace":1}"#).unwrap_err();
        assert!(e.message.contains("must be a boolean"), "{}", e.message);
    }

    #[test]
    fn rejections_are_typed_and_carry_the_id() {
        let cases: [(&str, &str); 15] = [
            ("not json", "malformed JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":"q","bogus":1}"#, "unknown key `bogus`"),
            (r#"{"id":"q","op":"destroy"}"#, "unknown op"),
            (r#"{"circuit":"c880"}"#, "require an `id`"),
            (r#"{"id":"q","circuit":"c999"}"#, "unknown circuit"),
            (
                r#"{"id":"q","circuit":"c880","scale":2.0}"#,
                "`scale` must be in (0, 1]",
            ),
            (r#"{"id":"q","scale":0.5}"#, "applies only to named"),
            (r#"{"id":"q","samples":0}"#, "`samples` must be in"),
            (r#"{"id":"q","samples":2.5}"#, "non-negative integer"),
            (r#"{"id":"q","kernel":"matern","c":1.0}"#, "not a parameter"),
            (r#"{"id":"q","deadline_ms":-5}"#, "non-negative integer"),
            (
                r#"{"id":"q","seed":9007199254740993}"#,
                "at most 9007199254740991",
            ),
            (
                r#"{"id":"q","circuit_seed":1e16}"#,
                "at most 9007199254740991",
            ),
            (r#"{"id":9007199254740993}"#, "at most 9007199254740991"),
        ];
        for (line, want) in cases {
            let e = parse_request(line).expect_err(line);
            assert!(e.message.contains(want), "{line}: {}", e.message);
        }
        // The id rides along when recoverable.
        let e = parse_request(r#"{"id":"q9","samples":0}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("q9"));
    }

    #[test]
    fn oversized_line_is_rejected_before_parsing() {
        let line = format!(r#"{{"id":"q","c":{}}}"#, "1".repeat(MAX_LINE_BYTES));
        let e = parse_request(&line).unwrap_err();
        assert!(e.message.contains("longer than"));
    }

    #[test]
    fn kernel_specs_build() {
        for line in [
            r#"{"id":"q","kernel":"gaussian","c":0.3}"#,
            r#"{"id":"q","kernel":"gaussian","dist":0.5}"#,
            r#"{"id":"q","kernel":"exponential","c":2.0}"#,
            r#"{"id":"q","kernel":"separable"}"#,
            r#"{"id":"q","kernel":"matern"}"#,
        ] {
            let spec = parse_query(line);
            spec.kernel.build().expect(line);
        }
    }

    #[test]
    fn responses_are_single_line_json_with_status() {
        let outcome = QueryOutcome {
            mean: 1.5,
            sigma: 0.1,
            rank: 12,
            samples: 100,
            planned: 100,
            salvaged: false,
            ci_widening: 1.0,
            warm: true,
            retries: 0,
            coarsenings: 0,
            queue_ms: 3,
            service_ms: 40,
            trace: None,
            hier: None,
        };
        let line = outcome_response("q1", &outcome);
        assert!(line.contains(r#""status":"completed""#), "{line}");
        assert!(!line.contains('\n'));
        assert!(
            !line.contains(r#""trace""#),
            "no trace unless attached: {line}"
        );
        assert!(
            !line.contains(r#""hier""#),
            "no hier section on mc responses: {line}"
        );

        let hier = QueryOutcome {
            hier: Some(HierOutcome {
                blocks: 6,
                cache_hits: 2,
                extracted: 4,
                edit: Some(HierEditOutcome {
                    gate: 33,
                    extracted: 1,
                    cache_hits: 0,
                    mean: 1.62,
                    sigma: 0.11,
                }),
            }),
            ..outcome.clone()
        };
        let hier_line = outcome_response("q1", &hier);
        assert!(
            hier_line.contains(r#""hier":{"blocks":6,"cache_hits":2,"extracted":4,"edit":{"gate":33,"extracted":1,"cache_hits":0,"mean":1.62,"sigma":0.11}}"#),
            "{hier_line}"
        );
        assert!(!hier_line.contains('\n'));

        let traced = QueryOutcome {
            trace: Some(TraceInfo {
                trace_id: "t0ffee".into(),
                warm_mesh: true,
                warm_galerkin: false,
                warm_spectrum: false,
                stages: vec![SpanEntry {
                    path: "req/kle/galerkin/assemble".into(),
                    count: 1,
                    wall_ns: 12_345,
                }],
                events: vec!["salvaged 60/200 samples".into()],
            }),
            ..outcome.clone()
        };
        let traced_line = outcome_response("q1", &traced);
        assert!(
            traced_line.contains(r#""trace":{"trace_id":"t0ffee""#),
            "{traced_line}"
        );
        assert!(
            traced_line.contains(r#""path":"req/kle/galerkin/assemble""#),
            "{traced_line}"
        );
        assert!(traced_line.contains(r#""mesh":true"#), "{traced_line}");
        assert!(!traced_line.contains('\n'));

        let salvaged = QueryOutcome {
            salvaged: true,
            samples: 60,
            ci_widening: 1.29,
            ..outcome
        };
        assert!(outcome_response("q1", &salvaged).contains(r#""status":"salvaged""#));

        let shed = error_response(
            Some("q2"),
            &ServeError::Overloaded {
                retry_after_hint: Duration::from_millis(250),
            },
        );
        assert!(shed.contains(r#""reason":"overloaded""#), "{shed}");
        assert!(shed.contains(r#""retry_after_ms":250"#), "{shed}");

        let bad = error_response(
            None,
            &ServeError::BadRequest {
                message: "x".into(),
            },
        );
        assert!(bad.contains(r#""id":null"#), "{bad}");
        assert!(pong_response(Some("p")).contains(r#""status":"pong""#));
        assert!(draining_response().contains("draining"));
    }

    #[test]
    fn stats_response_carries_every_acceptance_field() {
        let mut warm = HistState::with_bounds(&[10.0, 100.0]);
        warm.record(5.0);
        warm.record(50.0);
        let report = StatsReport {
            uptime_ms: 12_000,
            workers: 4,
            queue_depth: 2,
            queue_capacity: 64,
            admitted: 100,
            completed: 90,
            salvaged: 3,
            cancelled: 2,
            faults: 1,
            shed_overload: 3,
            shed_deadline: 1,
            shed_draining: 0,
            bad_requests: 5,
            rejected: 2,
            latency_warm: LatencyStats::from_hist(&warm),
            latency_cold: LatencyStats::from_hist(&HistState::with_bounds(&[10.0])),
            queue_wait: LatencyStats::from_hist(&warm),
            cache_hits: 80,
            cache_misses: 20,
            cache_sizes: (2, 2, 2, 3),
            cache_block_hits: 6,
            cache_block_misses: 2,
            cache_disk_write_failures: 4,
            cache_quarantined: 1,
            utilization: Some(0.5),
            slo: SloSnapshot {
                target: 0.9,
                total: 50,
                met: 49,
            },
        };
        let line = stats_response(Some("s"), &report);
        for needle in [
            r#""status":"stats""#,
            r#""queue":{"depth":2,"capacity":64}"#,
            r#""shed_overload":3"#,
            r#""faults":1"#,
            r#""shed_draining":0,"bad_requests":5,"rejected":2}"#,
            r#""warm":{"count":2,"p50":"#,
            r#""cold":{"count":0,"p50":null"#,
            r#""hit_ratio":0.8"#,
            r#""disk_write_failures":4"#,
            r#""quarantined":1"#,
            r#""sizes":{"mesh":2,"galerkin":2,"spectrum":2,"block":3}"#,
            r#""block":{"hits":6,"misses":2,"hit_ratio":0.75,"entries":3}"#,
            r#""utilization":0.5"#,
            r#""slo":{"target":0.9,"window_total":50,"window_met":49,"fraction":0.98"#,
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(!line.contains('\n'));
        // Empty-window SLO renders nulls, not NaNs.
        let empty = StatsReport {
            slo: SloSnapshot {
                target: 0.9,
                total: 0,
                met: 0,
            },
            utilization: None,
            ..report
        };
        let line = stats_response(None, &empty);
        assert!(line.contains(r#""fraction":null"#), "{line}");
        assert!(line.contains(r#""utilization":null"#), "{line}");
    }
}
