//! `serve-mix`: the release `klest serve` daemon with one worker and a
//! fresh state directory (journal and disk cache), driven over its Unix
//! socket by one client connection that keeps two requests in flight
//! (closed loop), so one request is always waiting in the admission queue.
//! The socket serves one connection at a time, so both in-flight requests
//! share that connection. One worker, not two: with two, both vCPUs of the
//! reference machine are busy and run-to-run throughput varied ±11 %
//! (18.9–23.5 req/s over four runs); with one it varied ±3 %. Rounds of twenty requests
//! in seeded order: nine warm Monte Carlo queries (c7552 at half scale,
//! 300 samples, a fresh seed each), nine hier queries (a 3 000-gate
//! generated circuit in 16 blocks, one edit at a seeded gate) and two
//! cold queries (a new Gaussian correlation distance each: assembly, an
//! eigensolve and disk writes). Set-up starts the daemon and primes the
//! base spectrum, the circuits and the hier block models.

use crate::checks::{bits_equal, count_equals, hier_band, Check};
use crate::layers::{
    check_layered_equals, secs, traced_frontend, traced_hier, traced_mc_layers, HierEdit,
};
use crate::stats::{median, min_count_for, tail_percentile, SplitMix, Strata};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Opts, Outcome};
use klest_circuit::{
    benchmark_scaled, generate, BenchmarkId, Circuit, GeneratorConfig, NodeId, Partition,
};
use klest_core::pipeline::{ExecPolicy, FrontEndConfig};
use klest_core::TruncationCriterion;
use klest_kernels::GaussianKernel;
use klest_runtime::{CancelToken, StageBudgets};
use klest_serve::json::{parse, Json};
use klest_ssta::canonical::{analyze_canonical_with, CanonicalForm};
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::hier::HierEngine;
use klest_ssta::{
    run_monte_carlo_supervised, DegradationReport, KleFieldSampler, McConfig, SummaryStats,
};
use klest_sta::{ParamVector, Timer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const AREA_FRACTION: f64 = 0.005;
const MC_SAMPLES: usize = 300;
const HIER_GATES: usize = 3000;
const HIER_BLOCKS: usize = 16;
const CIRCUIT_SEED: u64 = 7;
const IN_FLIGHT: usize = 2;
/// One round of the mix: 9 MC, 9 hier and 2 cold queries (45/45/10 %).
const ROUND: [Class; 20] = {
    use Class::{Cold as C, Hier as H, Mc as M};
    [M, M, M, M, M, M, M, M, M, H, H, H, H, H, H, H, H, H, C, C]
};
/// MC answers recomputed in-process per run.
const RECOMPUTED_MC: usize = 3;
/// Hier answers checked per run against a flat pass and, bit for bit,
/// against an in-process engine.
const CHECKED_HIER: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Mc,
    Hier,
    Cold,
}

/// What one request asked for.
#[derive(Debug, Clone, Copy)]
enum Query {
    Mc { seed: u64, dist: f64 },
    Hier { gate: usize, scale: f64 },
}

impl Query {
    fn line(&self, id: &str) -> String {
        match *self {
            Query::Mc { seed, dist } => format!(
                "{{\"id\":\"{id}\",\"mode\":\"mc\",\"circuit\":\"c7552\",\"scale\":0.5,\"kernel\":\"gaussian\",\"dist\":{dist:?},\"area_fraction\":{AREA_FRACTION:?},\"samples\":{MC_SAMPLES},\"seed\":{seed},\"threads\":1}}"
            ),
            Query::Hier { gate, scale } => format!(
                "{{\"id\":\"{id}\",\"mode\":\"hier\",\"circuit\":\"synth\",\"gates\":{HIER_GATES},\"circuit_seed\":{CIRCUIT_SEED},\"kernel\":\"gaussian\",\"dist\":1.0,\"area_fraction\":{AREA_FRACTION:?},\"blocks\":{HIER_BLOCKS},\"edit_gate\":{gate},\"edit_scale\":{scale:?}}}"
            ),
        }
    }
}

/// The daemon's front-end configuration for an `area_fraction` query.
fn daemon_frontend() -> FrontEndConfig {
    let mut config = FrontEndConfig::new(AREA_FRACTION, 28.0, TruncationCriterion::new(60, 0.01))
        .with_supervised_ladder();
    config.options.assembly_threads = 1;
    config
}

/// A running `klest serve` and the one connection to it.
struct Daemon {
    child: Child,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Daemon {
    fn start(klest: &Path, run_dir: &Path) -> Result<Daemon, String> {
        let socket = run_dir.join("klest.sock");
        let log = |name: &str| {
            std::fs::File::create(run_dir.join(name)).map_err(|e| format!("daemon log {name}: {e}"))
        };
        let mut child = Command::new(klest)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "1", "--state-dir"])
            .arg(run_dir.join("state"))
            .stdin(Stdio::null())
            .stdout(log("daemon.out")?)
            .stderr(log("daemon.err")?)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", klest.display()))?;
        let started = Instant::now();
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) if started.elapsed() < Duration::from_secs(30) => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("daemon exited at start: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("connecting to the daemon: {e}"));
                }
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Daemon {
            child,
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("sending: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receiving: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        parse(line.trim()).map_err(|e| format!("malformed response {line:?}: {e}"))
    }

    /// Sends one request and waits for its answer (nothing else in flight).
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.recv()
    }

    /// Drains the daemon and returns its summary line; waits for exit.
    fn shutdown(mut self) -> Result<Json, String> {
        self.send("{\"op\":\"shutdown\"}")?;
        let summary = loop {
            let resp = self.recv()?;
            if str_field(&resp, "status") == Some("drained") {
                break resp;
            }
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after draining".into());
                }
            }
        }
        Ok(summary)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the daemon still running on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// One answered request of the measured phase.
#[derive(Debug, Clone)]
struct Answer {
    class: Class,
    query: Query,
    latency_ms: f64,
    response: Json,
}

/// Everything the client saw.
struct Traffic {
    setup_s: f64,
    answers: Vec<Answer>,
    sent: u64,
    failed: u64,
    measured_s: f64,
    cold_dists: Vec<f64>,
    stats: Json,
    summary: Json,
    daemon_rss_mb: f64,
}

/// Generates the seeded mix: per round, the twenty classes shuffled, a
/// fresh MC seed per MC query (below the daemon's 9e15 integer limit), a
/// seeded gate and strength per hier query, and a correlation distance
/// never used before per cold query.
struct Mix {
    rng: SplitMix,
    queue: Vec<Class>,
    used_dists: Vec<f64>,
    hier_gates: Strata,
}

impl Mix {
    fn new(seed: u64, hier: &Circuit) -> Mix {
        Mix {
            rng: SplitMix::new(seed, 3),
            queue: Vec::new(),
            used_dists: vec![1.0],
            hier_gates: Strata::new(hier.input_count(), hier.gate_count(), HIER_BLOCKS),
        }
    }

    /// Whether every request of the current round has been sent.
    fn at_round_boundary(&self) -> bool {
        self.queue.is_empty()
    }

    fn next(&mut self) -> (Class, Query) {
        if self.queue.is_empty() {
            self.queue = ROUND.to_vec();
            self.rng.shuffle(&mut self.queue);
        }
        let class = self.queue.pop().expect("refilled above");
        let query = match class {
            Class::Mc => Query::Mc {
                seed: self.rng.next_u64() >> 20,
                dist: 1.0,
            },
            // Gates visit HIER_BLOCKS equal id ranges in a seeded order, as
            // in hier-eco, so every run edits every region.
            Class::Hier => Query::Hier {
                gate: self.hier_gates.next(&mut self.rng),
                scale: 2.0 * self.rng.uniform() - 1.0,
            },
            Class::Cold => {
                let dist = loop {
                    // Millimetre steps keep distances distinct and exact in JSON.
                    let d = (500.0 + self.rng.below(1500) as f64) / 1000.0;
                    if !self.used_dists.contains(&d) {
                        break d;
                    }
                };
                self.used_dists.push(dist);
                Query::Mc {
                    seed: self.rng.next_u64() >> 20,
                    dist,
                }
            }
        };
        (class, query)
    }
}

fn hier_circuit() -> Result<Circuit, String> {
    generate(
        format!("synth{HIER_GATES}"),
        GeneratorConfig::combinational(HIER_GATES, CIRCUIT_SEED),
    )
    .map_err(|e| format!("generator: {e}"))
}

/// Starts the daemon, primes it, runs the closed loop for `seconds` (in
/// whole rounds, and at least enough requests for the p95), probes its
/// stats and drains it.
fn drive(opts: &Opts, hier: &Circuit) -> Result<Traffic, String> {
    let mut daemon = Daemon::start(&opts.klest, &opts.run_dir)?;
    let mut failed = 0u64;
    let mut sent = 0u64;
    for (id, query) in [
        ("prime-mc", Query::Mc { seed: 1, dist: 1.0 }),
        (
            "prime-hier",
            Query::Hier {
                gate: hier.input_count(),
                scale: 0.0,
            },
        ),
    ] {
        let resp = daemon.call(&query.line(id))?;
        sent += 1;
        if str_field(&resp, "status") != Some("completed") {
            failed += 1;
            eprintln!("priming {id} answered {}", resp.to_compact_string());
        }
    }
    let setup_s = secs(opts.started);

    let mut mix = Mix::new(opts.seed, hier);
    let min_requests = min_count_for(0.95);
    let mut inflight: HashMap<String, (Class, Query, Instant)> = HashMap::new();
    let mut answers = Vec::new();
    let phase = Instant::now();
    let send_next = |daemon: &mut Daemon,
                     mix: &mut Mix,
                     inflight: &mut HashMap<_, _>,
                     sent: &mut u64|
     -> Result<(), String> {
        let (class, query) = mix.next();
        let id = format!("q{}", *sent);
        daemon.send(&query.line(&id))?;
        inflight.insert(id, (class, query, Instant::now()));
        *sent += 1;
        Ok(())
    };
    for _ in 0..IN_FLIGHT {
        send_next(&mut daemon, &mut mix, &mut inflight, &mut sent)?;
    }
    let mut measured = 0u64;
    let mut daemon_rss_mb = None;
    while !inflight.is_empty() {
        let resp = daemon.recv()?;
        let received = Instant::now();
        let id = str_field(&resp, "id").unwrap_or_default().to_string();
        let (class, query, at) = inflight
            .remove(&id)
            .ok_or_else(|| format!("unexpected response {}", resp.to_compact_string()))?;
        if str_field(&resp, "status") != Some("completed") {
            failed += 1;
            eprintln!("request {id} answered {}", resp.to_compact_string());
        }
        answers.push(Answer {
            class,
            query,
            latency_ms: (received - at).as_secs_f64() * 1e3,
            response: resp,
        });
        measured += 1;
        if measured == min_requests as u64 {
            // The daemon's caches keep every spectrum and block model, so
            // memory grows with the request count: read it at fixed work.
            daemon_rss_mb = Some(peak_rss_mb(daemon.child.id()));
        }
        let done = mix.at_round_boundary()
            && secs(phase) >= opts.seconds
            && measured + inflight.len() as u64 >= min_requests as u64;
        if !done {
            send_next(&mut daemon, &mut mix, &mut inflight, &mut sent)?;
        }
    }
    let measured_s = secs(phase);
    let cold_dists = mix.used_dists[1..].to_vec();

    let stats = daemon.call("{\"op\":\"stats\",\"id\":\"stats\"}")?;
    let daemon_rss_mb = daemon_rss_mb.ok_or("fewer requests than the memory reading needs")?;
    let summary = daemon.shutdown()?;
    Ok(Traffic {
        setup_s,
        answers,
        sent,
        failed,
        measured_s,
        cold_dists,
        stats,
        summary,
        daemon_rss_mb,
    })
}

/// The drained summary is clean and accounts for every request sent.
fn summary_check(summary: &Json, sent: u64) -> Check {
    if summary.get("clean").and_then(Json::as_bool) != Some(true) {
        return Err(format!("drain not clean: {}", summary.to_compact_string()));
    }
    for key in ["admitted", "completed"] {
        count_equals(key, num(summary, &[key]).unwrap_or(-1.0) as u64, sent)?;
    }
    for key in [
        "salvaged",
        "shed_overload",
        "shed_deadline",
        "shed_draining",
        "cancelled",
        "faults",
        "bad_requests",
    ] {
        count_equals(key, num(summary, &[key]).unwrap_or(-1.0) as u64, 0)?;
    }
    Ok(())
}

/// Spectrum misses the stats probe implies: every miss outside the block
/// layer is a mesh, Galerkin or spectrum miss, and each mesh or Galerkin
/// miss leaves exactly one memory entry behind.
fn spectrum_misses(stats: &Json) -> Option<u64> {
    let total = num(stats, &["cache", "misses"])?;
    let block = num(stats, &["cache", "block", "misses"])?;
    let mesh = num(stats, &["cache", "sizes", "mesh"])?;
    let galerkin = num(stats, &["cache", "sizes", "galerkin"])?;
    Some((total - block - mesh - galerkin) as u64)
}

/// The daemon computed one spectrum per distinct kernel configuration.
fn misses_check(stats: &Json, distinct: u64) -> Check {
    count_equals(
        "spectrum misses",
        spectrum_misses(stats).ok_or("stats lack cache counters")?,
        distinct,
    )?;
    count_equals(
        "spectra held",
        num(stats, &["cache", "sizes", "spectrum"]).unwrap_or(-1.0) as u64,
        distinct,
    )
}

/// A daemon MC answer equals, to the last bit, the in-process supervised
/// run on the same configuration.
fn mc_answer_check(response: &Json, recomputed: &SummaryStats) -> Check {
    let got = [
        num(response, &["mean"]).ok_or("no mean")?,
        num(response, &["sigma"]).ok_or("no sigma")?,
    ];
    bits_equal(&got, &[recomputed.mean, recomputed.std_dev])
}

/// Recomputes MC answers cold, in-process, with the daemon's front-end
/// configuration and `run_monte_carlo_supervised` on one thread.
fn recompute_mc(dist: f64, seed: u64, setup: &CircuitSetup) -> Result<SummaryStats, String> {
    let token = CancelToken::unlimited();
    let budgets = StageBudgets::none();
    let kernel = GaussianKernel::with_correlation_distance(dist);
    let ctx = KleContext::build_with(
        &kernel,
        &daemon_frontend(),
        ExecPolicy::Supervised {
            token: &token,
            budgets: &budgets,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        .map_err(|e| e.to_string())?;
    let config = McConfig::new(MC_SAMPLES, seed).with_threads(1);
    let run = run_monte_carlo_supervised(
        &setup.timer,
        &sampler,
        &config,
        &token,
        &mut DegradationReport::new(),
    )
    .map_err(|e| e.to_string())?;
    Ok(run.worst_delay_stats())
}

fn edit_params(scale: f64) -> ParamVector {
    ParamVector::new([scale, -0.5 * scale, 0.25 * scale, 0.1 * scale])
}

/// Recomputes a hier answer in-process: `HierEngine::new` on nominal
/// parameters without a cache, then the query's one-gate `edit_gate`.
fn recompute_hier(
    timer: &Timer,
    sampler: &KleFieldSampler,
    partition: &Partition,
    gate: usize,
    scale: f64,
) -> Result<CanonicalForm, String> {
    let token = CancelToken::unlimited();
    let nominal = vec![ParamVector::ZERO; timer.node_count()];
    let mut engine = HierEngine::new(timer, sampler, partition, nominal, None, &token)
        .map_err(|e| e.to_string())?;
    engine
        .edit_gate(NodeId(gate as u32), edit_params(scale), &token)
        .map_err(|e| e.to_string())?;
    Ok(engine.worst().clone())
}

/// A daemon hier answer's edited worst delay equals the in-process
/// recomputation to the last bit.
fn hier_answer_check(response: &Json, recomputed: &CanonicalForm) -> Check {
    let got = [
        num(response, &["hier", "edit", "mean"]).ok_or("no edited mean")?,
        num(response, &["hier", "edit", "sigma"]).ok_or("no edited sigma")?,
    ];
    bits_equal(&got, &[recomputed.mean, recomputed.sigma()])
}

/// The output checks shared by both modes.
fn check_traffic(
    out: &mut Outcome,
    opts: &Opts,
    traffic: &Traffic,
    hier: &Circuit,
) -> Result<(), String> {
    out.checks.record(
        "every request completed",
        count_equals("failed requests", traffic.failed, 0),
    );
    out.checks.record(
        "drained summary is clean",
        summary_check(&traffic.summary, traffic.sent),
    );
    out.checks.record(
        "spectrum misses equal the distinct kernel configurations sent",
        misses_check(&traffic.stats, 1 + traffic.cold_dists.len() as u64),
    );

    let mut rng = SplitMix::new(opts.seed, 4);
    let mc: Vec<&Answer> = traffic
        .answers
        .iter()
        .filter(|a| a.class != Class::Hier)
        .collect();
    let small = benchmark_scaled(BenchmarkId::C7552, 0.5).map_err(|e| e.to_string())?;
    let small = CircuitSetup::prepare(&small);
    for _ in 0..RECOMPUTED_MC.min(mc.len()) {
        let answer = mc[rng.below(mc.len())];
        if let Query::Mc { seed, dist } = answer.query {
            let recomputed = recompute_mc(dist, seed, &small)?;
            out.checks.record(
                "MC answer equals the in-process recomputation",
                mc_answer_check(&answer.response, &recomputed),
            );
        }
    }

    let token = CancelToken::unlimited();
    let budgets = StageBudgets::none();
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let ctx = KleContext::build_with(
        &kernel,
        &daemon_frontend(),
        ExecPolicy::Supervised {
            token: &token,
            budgets: &budgets,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let setup = CircuitSetup::prepare(hier);
    let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        .map_err(|e| e.to_string())?;
    let partition = Partition::build(hier, HIER_BLOCKS);
    let hier_answers: Vec<&Answer> = traffic
        .answers
        .iter()
        .filter(|a| a.class == Class::Hier)
        .collect();
    for _ in 0..CHECKED_HIER.min(hier_answers.len()) {
        let answer = hier_answers[rng.below(hier_answers.len())];
        if let Query::Hier { gate, scale } = answer.query {
            let mut params = vec![ParamVector::ZERO; hier.node_count()];
            params[gate] = edit_params(scale);
            let flat = analyze_canonical_with(&setup.timer, &sampler, &params)
                .map_err(|e| e.to_string())?;
            let got = (
                num(&answer.response, &["hier", "edit", "mean"]).unwrap_or(f64::NAN),
                num(&answer.response, &["hier", "edit", "sigma"]).unwrap_or(f64::NAN),
            );
            out.checks.record(
                "hier answer within 2%/5% of a flat pass",
                hier_band(got, (flat.worst().mean, flat.worst().sigma())),
            );
            let recomputed = recompute_hier(&setup.timer, &sampler, &partition, gate, scale)?;
            out.checks.record(
                "hier answer equals the in-process recomputation",
                hier_answer_check(&answer.response, &recomputed),
            );
        }
    }
    Ok(())
}

fn class_latencies(traffic: &Traffic, class: Class) -> Vec<f64> {
    traffic
        .answers
        .iter()
        .filter(|a| a.class == class)
        .map(|a| a.latency_ms)
        .collect()
}

/// The untraced run: every end-to-end metric of `serve-mix`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let hier = hier_circuit()?;
    let traffic = drive(opts, &hier)?;
    out.attempted = traffic.sent;
    out.failed = traffic.failed;
    check_traffic(&mut out, opts, &traffic, &hier)?;

    let all: Vec<f64> = traffic.answers.iter().map(|a| a.latency_ms).collect();
    out.metric("setup_s", traffic.setup_s, "s");
    out.metric(
        "cold_s",
        median(&class_latencies(&traffic, Class::Cold)) / 1e3,
        "s",
    );
    out.metric(
        "queries_per_s",
        traffic.answers.len() as f64 / traffic.measured_s,
        "1/s",
    );
    out.metric(
        "query_p95_ms",
        tail_percentile(&all, 0.95).ok_or("too few requests for the p95")?,
        "ms",
    );
    out.metric("peak_rss_mb", traffic.daemon_rss_mb, "MB");
    println!(
        "serve-mix: median latency {:.1} ms overall, {:.1} ms MC, {:.1} ms hier, {:.1} ms cold",
        median(&all),
        median(&class_latencies(&traffic, Class::Mc)),
        median(&class_latencies(&traffic, Class::Hier)),
        median(&class_latencies(&traffic, Class::Cold)),
    );
    Ok(out)
}

/// The traced run: the daemon's response fields and closing stats probe,
/// plus an in-process replay of one request of each class with the calls
/// the daemon makes, each inside a span.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let hier = hier_circuit()?;
    let traffic = drive(opts, &hier)?;
    out.attempted = traffic.sent;
    out.failed = traffic.failed;
    check_traffic(&mut out, opts, &traffic, &hier)?;

    let field = |class: Option<Class>, key: &str| -> Vec<f64> {
        traffic
            .answers
            .iter()
            .filter(|a| class.is_none_or(|c| a.class == c))
            .filter_map(|a| num(&a.response, &[key]))
            .collect()
    };
    let transport: Vec<f64> = traffic
        .answers
        .iter()
        .map(|a| {
            a.latency_ms
                - num(&a.response, &["queue_ms"]).unwrap_or(0.0)
                - num(&a.response, &["service_ms"]).unwrap_or(0.0)
        })
        .collect();

    let tr = Tracer::new();
    let mut rng = SplitMix::new(opts.seed, 5);
    let token = CancelToken::unlimited();
    let budgets = StageBudgets::none();

    // Cold class: the front end layer by layer on a distance drawn as the
    // cold queries draw theirs (the replay has a cache of its own).
    let cold_dist = (500.0 + rng.below(1500) as f64) / 1000.0;
    let cold_kernel = GaussianKernel::with_correlation_distance(cold_dist);
    let config = daemon_frontend();
    let pipeline = KleContext::build_with(
        &cold_kernel,
        &config,
        ExecPolicy::Supervised {
            token: &token,
            budgets: &budgets,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let layered = traced_frontend(
        &tr,
        &cold_kernel,
        &config,
        &opts.run_dir.join("layered-cache"),
        5,
        &mut out,
    )?;
    check_layered_equals(&mut out, &layered, &pipeline.kle, pipeline.rank);

    // MC class: circuit, gather, draws and propagation, then supervision.
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let base = KleContext::build_with(
        &kernel,
        &config,
        ExecPolicy::Supervised {
            token: &token,
            budgets: &budgets,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let small = tr
        .time("circuit.prepare", || {
            benchmark_scaled(BenchmarkId::C7552, 0.5).map(|c| CircuitSetup::prepare(&c))
        })
        .map_err(|e| e.to_string())?;
    let sampler = tr
        .time("samplers.gather", || {
            KleFieldSampler::new(&base.kle, &base.mesh, base.rank, small.locations())
        })
        .map_err(|e| e.to_string())?;
    let replayed = traffic
        .answers
        .iter()
        .find(|a| a.class == Class::Mc)
        .ok_or("no MC answer")?;
    let Query::Mc { seed, .. } = replayed.query else {
        unreachable!("MC answers carry MC queries")
    };
    let worst = traced_mc_layers(
        &tr,
        &small.timer,
        &sampler,
        4 * base.mesh.len() * base.rank,
        MC_SAMPLES,
        seed,
        &mut out,
    )?;
    out.checks.record(
        "traced MC replay equals the daemon's answer",
        mc_answer_check(&replayed.response, &SummaryStats::of(&worst)),
    );

    // Hier class: partition, cold extraction, composition, one edit split.
    let hier_setup = tr.time("circuit.prepare", || CircuitSetup::prepare(&hier));
    let hier_sampler =
        KleFieldSampler::new(&base.kle, &base.mesh, base.rank, hier_setup.locations())
            .map_err(|e| e.to_string())?;
    let partition = tr.time("hier.partition", || Partition::build(&hier, HIER_BLOCKS));
    let answer = traffic
        .answers
        .iter()
        .find(|a| a.class == Class::Hier)
        .ok_or("no hier answer")?;
    let Query::Hier { gate, scale } = answer.query else {
        unreachable!("hier answers carry hier queries")
    };
    let edit = HierEdit {
        gate,
        params: edit_params(scale),
        revert: false,
    };
    let (_, worst) = traced_hier(
        &tr,
        &hier_setup.timer,
        &hier_sampler,
        &partition,
        &crate::layers::keys(&kernel, &config).1,
        &[edit],
        &mut out,
    )?;
    out.checks.record(
        "split hier replay equals the daemon's answer",
        bits_equal(
            &[worst.mean, worst.sigma()],
            &[
                num(&answer.response, &["hier", "edit", "mean"]).unwrap_or(f64::NAN),
                num(&answer.response, &["hier", "edit", "sigma"]).unwrap_or(f64::NAN),
            ],
        ),
    );

    let layers = tr.layers();
    out.metric(
        "circuit.prepare_ms",
        layers["circuit.prepare"].mean_ms(),
        "ms",
    );
    out.metric(
        "samplers.gather_ms",
        layers["samplers.gather"].mean_ms(),
        "ms",
    );
    out.note(
        "cache.spectrum_misses",
        spectrum_misses(&traffic.stats).unwrap_or(0) as f64,
        "count",
    );
    out.note(
        "cache.block_hits",
        num(&traffic.stats, &["cache", "block", "hits"]).unwrap_or(0.0),
        "count",
    );
    out.note(
        "cache.block_misses",
        num(&traffic.stats, &["cache", "block", "misses"]).unwrap_or(0.0),
        "count",
    );
    // Queue waits are whole milliseconds and mostly 0: report their mean.
    let queue = field(None, "queue_ms");
    out.note(
        "serve.queue_ms",
        queue.iter().sum::<f64>() / queue.len() as f64,
        "ms",
    );
    out.note(
        "serve.service_ms_mc",
        median(&field(Some(Class::Mc), "service_ms")),
        "ms",
    );
    out.note(
        "serve.service_ms_hier",
        median(&field(Some(Class::Hier), "service_ms")),
        "ms",
    );
    out.note(
        "serve.service_ms_cold",
        median(&field(Some(Class::Cold), "service_ms")),
        "ms",
    );
    out.note("serve.transport_ms", median(&transport), "ms");
    out.note(
        "serve.utilization",
        num(&traffic.stats, &["utilization"]).unwrap_or(0.0),
        "fraction",
    );

    println!(
        "serve-mix traced: the daemon's traffic is untraced; the replays above ran in-process"
    );
    for (name, layer) in &layers {
        println!(
            "  span {name:<24} self {:>12.3} ms  calls {}",
            layer.self_ns as f64 / 1e6,
            layer.calls
        );
    }
    tr.write(&opts.trace_out)
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(misses: u64, block_misses: u64, mesh: u64, galerkin: u64, spectra: u64) -> Json {
        parse(&format!(
            "{{\"cache\":{{\"misses\":{misses},\"sizes\":{{\"mesh\":{mesh},\"galerkin\":{galerkin},\"spectrum\":{spectra},\"block\":16}},\"block\":{{\"hits\":40,\"misses\":{block_misses}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn misses_check_rejects_a_count_off_by_one() {
        // 1 mesh miss + 5 spectrum misses + 5 Galerkin misses + 20 block misses.
        let good = stats_with(31, 20, 1, 5, 5);
        assert_eq!(spectrum_misses(&good), Some(5));
        assert!(misses_check(&good, 5).is_ok());
        assert!(misses_check(&good, 4).is_err());
        assert!(misses_check(&good, 6).is_err());
        // A duplicated eigensolve shows up as one miss too many.
        assert!(misses_check(&stats_with(33, 20, 1, 5, 5), 5).is_err());
    }

    #[test]
    fn mc_answer_check_rejects_a_flipped_last_bit() {
        let recomputed = SummaryStats {
            count: 300,
            mean: 1234.5678,
            std_dev: 45.678_9,
        };
        let line = format!(
            "{{\"id\":\"q1\",\"mean\":{:?},\"sigma\":{:?}}}",
            recomputed.mean, recomputed.std_dev
        );
        assert!(mc_answer_check(&parse(&line).unwrap(), &recomputed).is_ok());
        let flipped = f64::from_bits(recomputed.mean.to_bits() ^ 1);
        let line = format!(
            "{{\"id\":\"q1\",\"mean\":{flipped:?},\"sigma\":{:?}}}",
            recomputed.std_dev
        );
        assert!(mc_answer_check(&parse(&line).unwrap(), &recomputed).is_err());
    }

    #[test]
    fn hier_answer_check_rejects_an_answer_with_the_edit_dropped() {
        let circuit = generate("synth300", GeneratorConfig::combinational(300, 11)).unwrap();
        let setup = CircuitSetup::prepare(&circuit);
        let ctx = KleContext::coarse(&GaussianKernel::with_correlation_distance(1.0)).unwrap();
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 4);
        let nominal = vec![ParamVector::ZERO; circuit.node_count()];
        // The critical output gate, so the edit must show in the worst delay.
        let gate = setup.timer.analyze(&nominal).critical_output().unwrap();
        let edited = recompute_hier(&setup.timer, &sampler, &partition, gate.index(), 1.0).unwrap();
        let unedited = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            nominal,
            None,
            &CancelToken::unlimited(),
        )
        .unwrap();
        let answer = |w: &CanonicalForm| {
            parse(&format!(
                "{{\"id\":\"h1\",\"hier\":{{\"edit\":{{\"mean\":{:?},\"sigma\":{:?}}}}}}}",
                w.mean,
                w.sigma()
            ))
            .unwrap()
        };
        assert!(hier_answer_check(&answer(&edited), &edited).is_ok());
        assert!(hier_answer_check(&answer(unedited.worst()), &edited).is_err());
    }

    #[test]
    fn summary_check_needs_every_request_accounted() {
        let summary = |admitted: u64, completed: u64, clean: bool| {
            parse(&format!(
                "{{\"status\":\"drained\",\"admitted\":{admitted},\"completed\":{completed},\"salvaged\":0,\"shed_overload\":0,\"shed_deadline\":0,\"shed_draining\":0,\"cancelled\":0,\"faults\":0,\"bad_requests\":0,\"clean\":{clean}}}"
            ))
            .unwrap()
        };
        assert!(summary_check(&summary(42, 42, true), 42).is_ok());
        assert!(summary_check(&summary(42, 41, true), 42).is_err());
        assert!(summary_check(&summary(42, 42, false), 42).is_err());
    }

    #[test]
    fn mix_rounds_hold_the_stated_proportions() {
        let hier = hier_circuit().unwrap();
        let mut mix = Mix::new(11, &hier);
        let mut counts = HashMap::new();
        for _ in 0..ROUND.len() * 3 {
            let (class, query) = mix.next();
            *counts.entry(class).or_insert(0) += 1;
            if let Query::Hier { gate, .. } = query {
                assert!(gate >= hier.input_count() && gate < hier.node_count());
            }
        }
        assert!(mix.at_round_boundary());
        assert_eq!(
            (
                counts[&Class::Mc],
                counts[&Class::Hier],
                counts[&Class::Cold]
            ),
            (27, 27, 6)
        );
        let mut sorted = mix.used_dists.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            mix.used_dists.len(),
            "cold distances are distinct"
        );
    }
}
