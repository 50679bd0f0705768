//! `klest-serve`: an overload-safe batched KLE/SSTA query daemon.
//!
//! The paper's argument is that correlation-kernel KLE makes
//! spatial-correlation-aware SSTA cheap enough to answer timing queries
//! interactively; this crate is the serving layer that turns the
//! workspace's stage graph, [`ArtifactCache`](klest_core::pipeline::ArtifactCache)
//! and [`Supervisor`](klest_runtime::Supervisor) plumbing into a
//! long-lived process that survives concurrent, hostile,
//! deadline-carrying traffic:
//!
//! - **Protocol** ([`protocol`]): newline-delimited JSON requests on
//!   stdin/stdout or a Unix socket, strictly validated into typed
//!   [`ServeRequest`]s — malformed input is a typed
//!   [`ServeError::BadRequest`] response, never a panic or exit.
//! - **Admission control** ([`server`]): a bounded queue with
//!   configurable depth; a full queue sheds with typed
//!   [`ServeError::Overloaded`] carrying a `retry_after_hint`, and a
//!   request whose deadline expires while queued is shed without ever
//!   consuming a worker.
//! - **Fault isolation**: each request runs under
//!   [`Supervisor::run_one`](klest_runtime::Supervisor::run_one) with
//!   its own child [`CancelToken`](klest_runtime::CancelToken) +
//!   [`Budget`](klest_runtime::Budget); a panicking, hanging or
//!   over-budget request is retried, salvaged via the degradation
//!   ladder, or reported as a typed `fault` — while every other
//!   in-flight request keeps running.
//! - **Warm restart** ([`journal`]): with a state directory
//!   configured, every admitted query is journaled (fsynced) before it
//!   runs and marked done after its one terminal response; a restarted
//!   daemon recovers the disk artifact cache (quarantining crash-torn
//!   entries) and replays the journal's pending tail, answering each
//!   journaled request exactly once.
//! - **Graceful drain**: EOF or a `shutdown` request stops admission,
//!   the backlog finishes within a drain budget, stragglers are
//!   cancelled cooperatively, and the final summary line is emitted
//!   only after every admitted request has its one terminal response.
//!   (The std-only daemon cannot trap SIGTERM; process managers should
//!   close stdin or send `{"op":"shutdown"}`, both of which trigger the
//!   same drain path.)
//!
//! All requests share one artifact cache, so repeated kernel/die
//! configurations skip mesh, Galerkin assembly and eigensolve entirely
//! — the hierarchical-reuse scenario of block-level timing flows.
//! Everything is instrumented through `klest-obs` (queue-depth gauge,
//! shed/admit/complete/salvage counters, warm/cold latency histograms).

#![deny(missing_docs)]

pub mod journal;
pub mod json;
pub mod protocol;
pub mod server;

pub use journal::{PendingRequest, RequestJournal};
pub use protocol::{
    parse_request, stats_response, BadRequest, CircuitSpec, KernelSpec, LatencyStats, QueryOutcome,
    QuerySpec, ServeError, ServeRequest, StatsReport, TraceInfo,
};
pub use server::{ServeConfig, ServeSummary, Server};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::time::Duration;

    fn run_lines(config: ServeConfig, lines: &str) -> (ServeSummary, Vec<String>) {
        let server = Server::new(config);
        let mut out: Vec<u8> = Vec::new();
        let summary = server.serve(Cursor::new(lines.to_string()), &mut out);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        (summary, text.lines().map(str::to_string).collect())
    }

    fn status_of(line: &str) -> &str {
        let pat = "\"status\":\"";
        let start = line.find(pat).expect("line has a status") + pat.len();
        let rest = &line[start..];
        &rest[..rest.find('"').expect("status is quoted")]
    }

    fn line_for<'a>(lines: &'a [String], id: &str) -> &'a str {
        let pat = format!("\"id\":\"{id}\"");
        lines
            .iter()
            .find(|l| l.contains(&pat))
            .unwrap_or_else(|| panic!("no response for {id}: {lines:?}"))
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

    #[test]
    fn completes_queries_and_drains_clean_on_shutdown() {
        let input = format!(
            "{{\"id\":\"q1\",{TINY}}}\n{{\"op\":\"ping\",\"id\":\"p1\"}}\n{{\"op\":\"shutdown\"}}\n"
        );
        let (summary, lines) = run_lines(fast_config(), &input);
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.pings, 1);
        assert!(summary.shutdown);
        assert!(summary.drained_clean);
        assert_eq!(summary.admitted, summary.admitted_terminals());
        assert_eq!(status_of(line_for(&lines, "q1")), "completed");
        assert_eq!(status_of(line_for(&lines, "p1")), "pong");
        assert!(lines.iter().any(|l| l.contains("\"status\":\"draining\"")));
        let last = lines.last().expect("summary line");
        assert!(last.contains("\"status\":\"drained\""), "{last}");
        assert!(last.contains("\"clean\":true"), "{last}");
    }

    #[test]
    fn second_identical_config_is_warm() {
        let input = format!("{{\"id\":\"a\",{TINY}}}\n{{\"id\":\"b\",{TINY}}}\n");
        let config = ServeConfig {
            workers: 1, // serialize so "b" runs after "a" populated the cache
            ..fast_config()
        };
        let (summary, lines) = run_lines(config, &input);
        assert_eq!(summary.completed, 2);
        assert!(line_for(&lines, "a").contains("\"warm\":false"));
        assert!(line_for(&lines, "b").contains("\"warm\":true"));
    }

    #[test]
    fn bad_requests_get_typed_responses_and_do_not_stop_service() {
        let input =
            format!("this is not json\n{{\"id\":\"x\",\"bogus\":1}}\n{{\"id\":\"ok\",{TINY}}}\n");
        let (summary, lines) = run_lines(fast_config(), &input);
        assert_eq!(summary.bad_requests, 2);
        assert_eq!(summary.completed, 1);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"status\":\"bad_request\"") && l.contains("\"id\":null")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"status\":\"bad_request\"") && l.contains("\"id\":\"x\"")));
        assert_eq!(status_of(line_for(&lines, "ok")), "completed");
    }

    #[test]
    fn out_of_range_edit_gate_is_a_bad_request_not_a_fault() {
        let server = Server::new(fast_config());
        let mut out: Vec<u8> = Vec::new();
        let line = r#"{"id":"x","mode":"hier","gates":3000,"edit_gate":3500}"#;
        let summary = server.serve(Cursor::new(format!("{line}\n")), &mut out);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let x = line_for(&lines, "x");
        assert_eq!(status_of(x), "bad_request", "{x}");
        assert!(x.contains("out of range"), "{x}");
        assert_eq!(summary.bad_requests, 1);
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.faults, 0);
        assert_eq!(summary.admitted, summary.admitted_terminals());
        // A later connection's stats probe sees no fault.
        let mut out: Vec<u8> = Vec::new();
        server.serve(Cursor::new("{\"op\":\"stats\",\"id\":\"s\"}\n"), &mut out);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let stats = text
            .lines()
            .find(|l| l.contains("\"id\":\"s\""))
            .expect("stats line");
        assert!(stats.contains("\"faults\":0"), "{stats}");
    }

    #[test]
    fn stats_probe_counts_refused_input() {
        let server = Server::new(fast_config());
        let stats = |server: &Server| {
            let mut out: Vec<u8> = Vec::new();
            server.serve(Cursor::new("{\"op\":\"stats\",\"id\":\"s\"}\n"), &mut out);
            let text = String::from_utf8(out).expect("responses are UTF-8");
            let line = text.lines().find(|l| l.contains("\"id\":\"s\""));
            line.expect("stats line").to_string()
        };
        let edit = r#"{"id":"x","mode":"hier","gates":3000,"edit_gate":3500}"#;
        server.serve(Cursor::new(format!("{edit}\n")), Vec::new());
        let probe = stats(&server);
        assert!(
            probe.contains("\"bad_requests\":1,\"rejected\":1"),
            "{probe}"
        );
        assert!(probe.contains("\"faults\":0"), "{probe}");
        // A malformed line counts as a bad request but not a rejection.
        server.serve(Cursor::new("not json\n"), Vec::new());
        let probe = stats(&server);
        assert!(
            probe.contains("\"bad_requests\":2,\"rejected\":1"),
            "{probe}"
        );
    }

    #[test]
    fn injected_panic_is_isolated_as_a_typed_fault() {
        let input = format!(
            "{{\"id\":\"boom\",\"inject_panic\":true,{TINY}}}\n{{\"id\":\"fine\",{TINY}}}\n"
        );
        let (summary, lines) = run_lines(fast_config(), &input);
        assert_eq!(summary.faults, 1);
        assert_eq!(summary.completed, 1);
        assert!(summary.drained_clean, "panic must not wedge the drain");
        let boom = line_for(&lines, "boom");
        assert_eq!(status_of(boom), "fault");
        assert!(boom.contains("\"attempts\":2"), "retried once: {boom}");
        assert!(boom.contains("fault drill"), "{boom}");
        assert_eq!(status_of(line_for(&lines, "fine")), "completed");
    }

    #[test]
    fn hanging_request_is_cancelled_by_its_deadline() {
        // One worker: "slow" hangs in MC until its 250 ms deadline trips;
        // "q2" waits in the queue meanwhile and its 50 ms queue deadline
        // expires, so it is shed without consuming the worker.
        let input = format!(
            concat!(
                "{{\"id\":\"slow\",\"inject_hang_ms\":30000,\"deadline_ms\":250,{}}}\n",
                "{{\"id\":\"q2\",\"deadline_ms\":50,{}}}\n"
            ),
            TINY, TINY
        );
        let config = ServeConfig {
            workers: 1,
            ..fast_config()
        };
        let (summary, lines) = run_lines(config, &input);
        let slow = line_for(&lines, "slow");
        assert!(
            matches!(status_of(slow), "cancelled" | "salvaged"),
            "hang must be broken by the deadline: {slow}"
        );
        let q2 = line_for(&lines, "q2");
        assert_eq!(status_of(q2), "shed", "{q2}");
        assert!(q2.contains("deadline_expired"), "{q2}");
        assert_eq!(summary.shed_deadline, 1);
        assert_eq!(summary.admitted, summary.admitted_terminals());
        assert!(summary.drained_clean);
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        // One worker is pinned by a hanging request; with queue depth 1
        // only one more query can wait, the rest shed as overloaded.
        let input = format!(
            concat!(
                "{{\"id\":\"pin\",\"inject_hang_ms\":30000,\"deadline_ms\":400,{}}}\n",
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
        let (summary, lines) = run_lines(config, &input);
        assert!(
            summary.shed_overload >= 1,
            "at least one request must shed: {summary:?}"
        );
        let shed: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"reason\":\"overloaded\""))
            .collect();
        assert_eq!(shed.len() as u64, summary.shed_overload);
        for line in shed {
            assert!(line.contains("\"retry_after_ms\":"), "{line}");
        }
        assert_eq!(summary.admitted, summary.admitted_terminals());
    }

    #[test]
    fn every_request_gets_exactly_one_response() {
        let mut input = String::new();
        for i in 0..12 {
            input.push_str(&format!("{{\"id\":\"r{i}\",{TINY}}}\n"));
        }
        let (summary, lines) = run_lines(fast_config(), &input);
        for i in 0..12 {
            let pat = format!("\"id\":\"r{i}\"");
            let n = lines.iter().filter(|l| l.contains(&pat)).count();
            assert_eq!(n, 1, "request r{i} must have exactly one response");
        }
        assert_eq!(summary.received, 12);
        assert_eq!(summary.admitted, summary.admitted_terminals());
    }

    #[test]
    fn warm_restart_replays_journaled_requests_exactly_once() {
        let state_dir =
            std::env::temp_dir().join(format!("klest-serve-state-{}-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);

        // Life 1: a normal run with a state dir. Both requests drain
        // cleanly, so the compacted journal must be empty and nothing
        // may replay in life 2.
        let config = ServeConfig {
            state_dir: Some(state_dir.clone()),
            ..fast_config()
        };
        let input = format!("{{\"id\":\"a\",{TINY}}}\n{{\"id\":\"b\",{TINY}}}\n");
        let (summary, _) = {
            let server = Server::new(config.clone());
            let mut out: Vec<u8> = Vec::new();
            let summary = server.serve(Cursor::new(input), &mut out);
            (summary, out)
        };
        assert_eq!(summary.completed, 2);
        let journal_path = state_dir.join("journal.log");
        assert_eq!(
            std::fs::read_to_string(&journal_path).expect("journal exists"),
            "",
            "a clean drain compacts the journal to empty"
        );

        // Simulate a crash: a process life that admitted two requests
        // (journaled) and died before answering either. The admit
        // records are exactly what RequestJournal::record_admit writes.
        {
            let (journal, pending) = journal::RequestJournal::open(&journal_path);
            assert!(pending.is_empty());
            journal
                .record_admit(&format!("{{\"id\":\"lost1\",{TINY}}}"))
                .expect("durable");
            journal
                .record_admit(&format!("{{\"id\":\"lost2\",{TINY}}}"))
                .expect("durable");
        }

        // Life 2: boots over the same state dir with an EMPTY input
        // stream — every response it produces comes from replay. The
        // disk cache warmed by life 1 must also survive.
        let server = Server::new(config);
        let mut out: Vec<u8> = Vec::new();
        let summary = server.serve(Cursor::new(String::new()), &mut out);
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(summary.admitted, 2, "{summary:?}");
        assert_eq!(summary.completed, 2, "{summary:?}");
        for id in ["lost1", "lost2"] {
            let pat = format!("\"id\":\"{id}\"");
            let n = lines.iter().filter(|l| l.contains(&pat)).count();
            assert_eq!(n, 1, "journaled request {id} must get exactly one response");
            assert_eq!(status_of(line_for(&lines, id)), "completed");
        }
        // Same kernel/die config as life 1 → the replayed queries hit
        // the recovered disk cache.
        assert!(
            line_for(&lines, "lost1").contains("\"warm\":true")
                || line_for(&lines, "lost2").contains("\"warm\":true"),
            "replay must run against the recovered disk cache: {lines:?}"
        );
        // Replayed-and-answered requests are done: nothing pends.
        let (_, pending) = journal::RequestJournal::open(&journal_path);
        assert!(pending.is_empty(), "{pending:?}");
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("klest-serve-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("serve.sock");
        let server = Server::new(fast_config());
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_unix(&path));
            // Wait for the socket to appear.
            for _ in 0..200 {
                if path.exists() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let mut stream = UnixStream::connect(&path).expect("connect");
            writeln!(stream, "{{\"id\":\"s1\",{TINY}}}").expect("write");
            writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("write");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("\"id\":\"s1\"") && l.contains("\"status\":\"completed\"")),
                "{lines:?}"
            );
            let summary = handle.join().expect("no panic").expect("no io error");
            assert_eq!(summary.completed, 1);
            assert!(summary.shutdown);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
