//! `perfbench`: the klest benchmark. One run executes one workload for a
//! given seed and run length and prints, as its last stdout line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload table1|hier-eco|serve-mix --seed N --seconds S --trace 0|1
//!           --klest PATH --run-dir DIR --trace-out FILE
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics
//! ([`END_TO_END`]); traced runs (`--trace 1`) call each layer's public
//! functions inside spans, report the per-layer metrics ([`PER_LAYER`])
//! and write the spans to `--trace-out`. Every workload reports every
//! metric of its mode, so one workload's figures compare with another's
//! under the same names; a run whose metrics differ from the list exits 1
//! without a result line.
//! `perfbench/run.py` builds this binary and the `klest` CLI and supplies
//! `--klest`, `--run-dir` and `--trace-out`.

mod checks;
mod hier_eco;
mod layers;
mod oracle;
mod serve_mix;
mod stats;
mod table1;
mod trace;

use checks::Checks;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, as
/// `BENCHMARK.json` names them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "cold_s",
    "queries_per_s",
    "query_p95_ms",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports, as `BENCHMARK.json`
/// names them.
pub const PER_LAYER: [&str; 26] = [
    "circuit.prepare_ms",
    "mesh.build_ms",
    "mesh.triangles",
    "galerkin.assemble_ms",
    "galerkin.kernel_evals",
    "eigen.solve_s",
    "eigen.pairs",
    "eigen.matrix_mb",
    "truncation.rank",
    "truncation.variance_captured",
    "cache.store_ms",
    "cache.spectrum_mb",
    "cache.reopen_ms",
    "samplers.gather_ms",
    "samplers.kle_draw_us",
    "samplers.kle_flops_per_draw",
    "sta.propagate_us",
    "sta.nodes",
    "mc.loop_us",
    "runtime.supervision_us",
    "hier.partition_ms",
    "hier.extract_ms",
    "hier.compose_ms",
    "hier.edit_extract_ms",
    "hier.edit_compose_ms",
    "hier.extracted_per_edit",
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `klest` binary (serve-mix starts it as a daemon).
    pub klest: PathBuf,
    /// Scratch directory for caches, sockets and state; removed by the
    /// caller after the run.
    pub run_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
    /// When the process started: `setup_s` is measured from here.
    pub started: Instant,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures of layers only this workload exercises: printed with the
    /// run's other lines, not in its result line.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a figure of this workload alone.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name, value, unit });
    }

    /// Whether the metrics are exactly `expected`, each once.
    pub fn reports_exactly(&self, expected: &[&str]) -> Result<(), String> {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!("reported {got:?}, expected {want:?}"))
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Opts, String> {
    let started = Instant::now();
    let mut args = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        get.insert(key, value);
    }
    let need = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = need("workload")?;
    if !["table1", "hier-eco", "serve-mix"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (table1, hier-eco or serve-mix)"
        ));
    }
    let seed = need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        klest: PathBuf::from(need("klest")?),
        run_dir: PathBuf::from(need("run-dir")?),
        trace_out: PathBuf::from(need("trace-out")?),
        started,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.run_dir.display());
        std::process::exit(2);
    }
    let outcome = match (opts.workload.as_str(), opts.trace) {
        ("table1", false) => table1::run(&opts),
        ("table1", true) => table1::run_traced(&opts),
        ("hier-eco", false) => hier_eco::run(&opts),
        ("hier-eco", true) => hier_eco::run_traced(&opts),
        (_, false) => serve_mix::run(&opts),
        (_, true) => serve_mix::run_traced(&opts),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    outcome.checks.report();
    let expected: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = outcome.reports_exactly(expected) {
        eprintln!("perfbench: {}: {e}", opts.workload);
        std::process::exit(1);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    for m in &outcome.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.notes {
        println!(
            "  {:<28} {:>16.6} {} ({} only)",
            m.name, m.value, m.unit, opts.workload
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.all_passed(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_serve::json::{parse, Json};

    /// The metric names of one `BENCHMARK.json` section.
    fn names(bench: &Json, section: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = bench.get(section) else {
            panic!("BENCHMARK.json has no `{section}` list");
        };
        items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let bench = parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(names(&bench, "end_to_end"), END_TO_END);
        assert_eq!(names(&bench, "per_layer"), PER_LAYER);
    }

    #[test]
    fn an_outcome_missing_a_metric_is_refused() {
        let mut out = Outcome::default();
        for name in END_TO_END {
            out.metric(name, 1.0, "s");
        }
        assert!(out.reports_exactly(&END_TO_END).is_ok());
        out.metrics.pop();
        assert!(out.reports_exactly(&END_TO_END).is_err());
        out.metric("peak_rss_mb", 1.0, "MB");
        out.metric("peak_rss_mb", 1.0, "MB");
        assert!(out.reports_exactly(&END_TO_END).is_err());
    }
}
