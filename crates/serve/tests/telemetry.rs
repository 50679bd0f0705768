//! Integration tests for the serve telemetry layer: the queue-depth
//! gauge lifecycle, the `{"op":"stats"}` introspection reply and
//! per-request trace responses.
//!
//! The obs registry is process-global, so every test here serializes on
//! one mutex and cleans up its global state before releasing it.

use std::io::Cursor;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use klest_serve::{ServeConfig, Server};

fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn run_lines(config: ServeConfig, lines: &str) -> Vec<String> {
    let server = Server::new(config);
    let mut out: Vec<u8> = Vec::new();
    server.serve(Cursor::new(lines.to_string()), &mut out);
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn fast_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 16,
        drain: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

const TINY: &str = r#""gates":8,"samples":16,"area_fraction":0.1"#;

/// Regression: the `serve.queue.depth` gauge must end at zero after a
/// drain, even when the run shed requests (every queue transition —
/// admission, dequeue, shed, drain — refreshes it).
#[test]
fn queue_depth_gauge_returns_to_zero_after_drain() {
    let _gate = serialize();
    klest_obs::reset();
    klest_obs::enable();
    // One worker pinned by a hang, queue depth 1: w2/w3 shed as
    // overloaded, exercising the rejected-push gauge refresh.
    let input = format!(
        concat!(
            "{{\"id\":\"pin\",\"inject_hang_ms\":30000,\"deadline_ms\":300,{}}}\n",
            "{{\"id\":\"w1\",{}}}\n",
            "{{\"id\":\"w2\",{}}}\n",
            "{{\"id\":\"w3\",{}}}\n"
        ),
        TINY, TINY, TINY, TINY
    );
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..fast_config()
    };
    run_lines(config, &input);
    let snap = klest_obs::snapshot();
    klest_obs::disable();
    klest_obs::reset();
    let depth = snap
        .gauges
        .iter()
        .find(|(name, _)| name == "serve.queue.depth")
        .map(|(_, v)| *v);
    assert_eq!(depth, Some(0.0), "gauge must be 0 after drain: {snap:?}");
}

#[test]
fn stats_op_reports_acceptance_fields() {
    let _gate = serialize();
    // Telemetry lives on the Server, not the connection: run the
    // queries on one connection, probe stats on the next, and the
    // lifetime counters carry over (same continuity the cache has).
    let server = Server::new(fast_config());
    let queries =
        format!("{{\"id\":\"q1\",\"deadline_ms\":30000,{TINY}}}\n{{\"id\":\"q2\",{TINY}}}\n");
    let mut out: Vec<u8> = Vec::new();
    server.serve(Cursor::new(queries), &mut out);
    let mut out: Vec<u8> = Vec::new();
    server.serve(
        Cursor::new("{\"op\":\"stats\",\"id\":\"s1\"}\n".to_string()),
        &mut out,
    );
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let stats = lines
        .iter()
        .find(|l| l.contains("\"status\":\"stats\""))
        .expect("stats response present");
    assert!(stats.contains("\"id\":\"s1\""), "{stats}");
    for key in [
        "\"uptime_ms\":",
        "\"workers\":",
        "\"queue\":{",
        "\"depth\":",
        "\"capacity\":",
        "\"requests\":{",
        "\"admitted\":",
        "\"completed\":",
        "\"salvaged\":",
        "\"cancelled\":",
        "\"faults\":",
        "\"shed_overload\":",
        "\"shed_deadline\":",
        "\"shed_draining\":",
        "\"latency_ms\":{",
        "\"warm\":{",
        "\"cold\":{",
        "\"queue_wait\":{",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
        "\"mean\":",
        "\"cache\":{",
        "\"hits\":",
        "\"misses\":",
        "\"hit_ratio\":",
        "\"sizes\":{",
        "\"utilization\":",
        "\"slo\":{",
        "\"target\":",
        "\"window_total\":",
        "\"window_met\":",
        "\"fraction\":",
        "\"error_budget_remaining\":",
    ] {
        assert!(stats.contains(key), "stats reply missing {key}: {stats}");
    }
    // The queries ran before the probe on the single worker, so the
    // lifetime counters are live numbers, not zeros.
    assert!(stats.contains("\"admitted\":2"), "{stats}");
    assert!(stats.contains("\"completed\":2"), "{stats}");
}

#[test]
fn trace_opt_in_requires_both_request_and_daemon_gate() {
    let _gate = serialize();
    let input = format!("{{\"id\":\"t1\",\"trace\":true,{TINY}}}\n{{\"id\":\"t2\",{TINY}}}\n");

    // Daemon gate off: even an opted-in request gets no trace object.
    let lines = run_lines(fast_config(), &input);
    for line in lines
        .iter()
        .filter(|l| l.contains("\"status\":\"completed\""))
    {
        assert!(!line.contains("\"trace\":{"), "{line}");
    }

    // Daemon gate on: only the opted-in request carries a trace.
    let config = ServeConfig {
        trace_responses: true,
        ..fast_config()
    };
    let lines = run_lines(config, &input);
    let t1 = lines
        .iter()
        .find(|l| l.contains("\"id\":\"t1\""))
        .expect("t1 response");
    assert!(t1.contains("\"trace\":{"), "{t1}");
    assert!(t1.contains("\"trace_id\":\""), "{t1}");
    assert!(t1.contains("\"artifacts_warm\":{"), "{t1}");
    assert!(t1.contains("\"mesh\":"), "{t1}");
    assert!(t1.contains("\"galerkin\":"), "{t1}");
    assert!(t1.contains("\"spectrum\":"), "{t1}");
    assert!(t1.contains("\"stages\":["), "{t1}");
    assert!(
        t1.contains("\"path\":") && t1.contains("\"wall_ns\":"),
        "trace must carry per-stage wall times: {t1}"
    );
    let t2 = lines
        .iter()
        .find(|l| l.contains("\"id\":\"t2\""))
        .expect("t2 response");
    assert!(!t2.contains("\"trace\":{"), "{t2}");
}

/// The drained summary line carries the windowed SLO reading.
#[test]
fn drained_summary_carries_slo_fields() {
    let _gate = serialize();
    let input = format!("{{\"id\":\"d1\",\"deadline_ms\":30000,{TINY}}}\n");
    let lines = run_lines(fast_config(), &input);
    let last = lines.last().expect("summary line");
    assert!(last.contains("\"status\":\"drained\""), "{last}");
    for key in [
        "\"slo_target\":",
        "\"slo_total\":1",
        "\"slo_met\":1",
        "\"slo_fraction\":1",
        "\"slo_error_budget\":",
    ] {
        assert!(last.contains(key), "summary missing {key}: {last}");
    }
}

/// `--metrics-out` behaviour at the library layer: with an interval and
/// a file configured, the daemon appends `klest-metrics/v1` lines.
#[test]
fn metrics_emitter_writes_schema_lines() {
    let _gate = serialize();
    klest_obs::reset();
    klest_obs::enable();
    let dir = std::env::temp_dir().join(format!("klest-serve-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        metrics_interval: Some(Duration::from_millis(25)),
        metrics_out: Some(path.clone()),
        ..fast_config()
    };
    // The hang keeps the connection open long enough for a few
    // emitter intervals to elapse before drain.
    let input = format!("{{\"id\":\"m1\",\"inject_hang_ms\":30000,\"deadline_ms\":200,{TINY}}}\n");
    run_lines(config, &input);
    klest_obs::disable();
    klest_obs::reset();
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least one snapshot line");
    for line in &lines {
        assert!(
            line.starts_with(r#"{"schema":"klest-metrics/v1""#),
            "every line carries the schema tag: {line}"
        );
        assert!(line.contains("\"tick_ms\":"), "{line}");
        assert!(line.contains("\"counters\":{"), "{line}");
    }
    // Second and later lines carry rates diffed against the previous.
    if lines.len() > 1 {
        assert!(lines[1].contains("\"rates\":{"), "{}", lines[1]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
