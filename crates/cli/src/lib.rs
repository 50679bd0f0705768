//! Implementation of the `klest` command-line tool (see `main.rs` for
//! the thin binary wrapper). Each subcommand is a function taking parsed
//! [`Args`] and writing to the given writer, so the whole surface is
//! unit-testable without spawning processes.

use klest::KlestError;
use klest_bench::Args;
use klest_circuit::{benchmark_scaled, generate, write_netlist, BenchmarkId, GeneratorConfig};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, ExecPolicy, FrontEndConfig};
use klest_core::{EigenSolver, GalerkinKle, KleOptions, TruncationCriterion};
use klest_geometry::Rect;
use klest_kernels::{
    CovarianceKernel, ExponentialKernel, GaussianKernel, MaternKernel,
    SeparableExponentialKernel,
};
use klest_mesh::{export, MeshBuilder};
use klest_runtime::{Budget, CancelToken, StageBudgets};
use klest_ssta::experiments::{
    compare_methods_supervised, compare_methods_with_report, CircuitSetup, KleContext,
};
use klest_ssta::faultinject::{FaultPlan, Stage};
use klest_serve::{ServeConfig, Server};
use klest_ssta::{McConfig, SalvageStats};
use std::io::Write;
use std::time::Duration;

/// Top-level CLI error: message already formatted for the user.
pub type CliResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Typed numeric flag lookup: a malformed value becomes a
/// [`KlestError::InvalidArgument`] message instead of a panic.
fn arg<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    args.try_get(key, default)
        .map_err(|e| KlestError::from(e).to_string())
}

/// An `InvalidArgument`-flavoured message for values that parse but are
/// out of range (e.g. `--deadline -1`).
fn bad_arg(key: &str, value: impl std::fmt::Display, message: &str) -> String {
    KlestError::InvalidArgument {
        key: key.to_string(),
        value: value.to_string(),
        message: message.to_string(),
    }
    .to_string()
}

/// Usage text.
pub const USAGE: &str = "\
klest — correlation-kernel KLE for statistical timing (DATE 2008 reproduction)

USAGE:
  klest <command> [--flag value ...]

COMMANDS:
  mesh      build a quality die mesh          [--area-fraction 0.001] [--min-angle 28] [--obj out.obj]
  kle       compute the KLE of a kernel       [--kernel gaussian|exponential|matern|separable]
                                              [--c F] [--b F] [--s F] [--tail 0.01] [--area-fraction 0.001]
                                              [--solver full|lanczos|matrix-free] [--modes K]
                                              [--max-iters 500] [--threads N]
  validate  check kernel validity             [--kernel ...] (same kernel flags; also accepts 'cone' [--d F])
  netlist   generate a synthetic netlist      [--gates 500] [--seed 7] [--sequential] [--out file.bench]
  ssta      compare KLE vs reference MC SSTA  [--circuit c1908] [--scale 0.5] [--samples 2000] [--seed 2008]
                                              [--area-fraction 0.001] [--threads N] [--cache-dir DIR]
                                              [--assembly-threads N]
                                              [--deadline SECS] [--stage-budget mesh=S,eigen=S,mc=S]
                                              [--inject-panic-shard I] [--inject-hang-ms MS]
  hier      hierarchical block-model SSTA     [--gates 400] [--seed 7] [--blocks 4] [--dist 1.0]
                                              [--area-fraction 0.01] [--cache-dir DIR]
                                              [--edit-node I] [--edit-scale 0.3]
  serve     long-lived timing-query daemon    [--workers 2] [--queue-depth 16] [--drain-ms 10000]
                                              [--default-deadline-ms MS] [--cache-dir DIR]
                                              [--state-dir DIR]
                                              [--requests FILE] [--socket PATH]
                                              [--trace-responses] [--slo-target 0.95]
                                              [--metrics-interval-ms MS --metrics-out FILE]
  help      this text

GLOBAL FLAGS (every command):
  --trace           print the hierarchical span tree and metrics to stderr
  --report out.json write a machine-readable run report (spans, counters,
                    gauges, histograms, degradation events) to out.json

DEADLINES (ssta): with --deadline and/or --stage-budget the run goes through
the supervised runtime — workers are fault-isolated, a blown budget cancels
cooperatively, and completed Monte Carlo samples are salvaged into a
truncated estimate with a widened confidence interval instead of being
discarded. The --inject-* flags deterministically fault one worker shard
(panic or hang) to exercise that machinery.

CACHING (ssta): --cache-dir DIR persists the KLE front-end artifacts (mesh,
spectrum) content-addressed by kernel + mesh + solver configuration, so a
repeated invocation with the same flags skips mesh build, Galerkin assembly
and the eigensolve entirely. Cache traffic lands in the run report as the
pipeline.cache.{mesh,galerkin,spectrum}.{hits,misses} counters. --threads N
also parallelizes Galerkin assembly (bitwise identical for any N).

SOLVERS (kle): --solver full (default) runs the dense QL eigensolve;
--solver lanczos computes only the leading --modes pairs from the dense
matrix; --solver matrix-free never assembles the O(n²) Galerkin matrix at
all — kernel entries are evaluated per matrix-vector product and peak
memory stays O(n·k), so 10⁵-element meshes (--area-fraction 2e-5) fit
where the dense path cannot allocate. --modes K picks the eigenpair count
(default 25 for matrix-free), --max-iters bounds the operator
applications, --threads N shards the matvec (bitwise identical output
for any N).

HIERARCHY (hier): partitions a generated circuit into --blocks die-region
blocks, extracts one compressed timing model per block over the shared KLE
ξ basis, composes them into circuit-level arrivals, and checks the composed
worst delay against the flat canonical pass (mean within 2%, sigma within
5% — a breach is a nonzero exit). It then applies a one-gate parameter
edit (--edit-node, default mid-netlist; --edit-scale sets its magnitude)
and re-times: only the edited gate's block is re-extracted, every other
block model is reused. --cache-dir DIR persists block models
content-addressed by region hash × spectrum, so a repeated invocation
serves every block warm and the post-edit revert is a cache hit; traffic
lands in the pipeline.cache.block.{hits,misses} counters.

SERVING: klest serve reads one JSON request per line from stdin (or
--requests FILE, or a Unix --socket PATH) and writes one JSON response per
request: {\"id\":\"q1\",\"circuit\":\"c880\",\"scale\":0.05,\"samples\":200,
\"deadline_ms\":5000}. Admission is a bounded queue: a full queue sheds with
status=shed reason=overloaded plus a retry_after_ms hint; a request whose
deadline expires while queued is shed without consuming a worker; a
panicking or hanging request is isolated and reported as status=fault or
cancelled while other requests keep running. {\"op\":\"shutdown\"} or EOF
(the std-only daemon cannot trap SIGTERM — process managers should close
stdin) drains gracefully within --drain-ms and emits a final
status=drained summary line. --state-dir DIR makes the daemon
crash-restartable: admitted queries are journaled (one fsynced,
checksummed frame each) to DIR/journal.log before they run and marked
done after their one terminal response, the disk artifact cache defaults
to DIR/cache, and a restarted daemon cuts a torn journal tail, replays
the journal's pending tail, answering each journaled request exactly
once, and serves the cache warm (a damaged entry is quarantined at its
first lookup).

TELEMETRY (serve): {\"op\":\"stats\"} answers inline with queue depth,
lifetime admit/shed/fault counters, windowed warm/cold latency quantiles
(p50/p95/p99/mean over the last minute), cache hit ratio and sizes, worker
utilization and the deadline-SLO window (fraction met + error budget
remaining vs --slo-target). A query carrying \"trace\":true gets a per-
request trace object (per-stage wall times, artifact warmth, salvage
events) when the daemon also runs with --trace-responses. With
--metrics-interval-ms N --metrics-out FILE the daemon appends one
klest-metrics/v1 JSON snapshot line (counters, gauges, latency quantiles,
rates since the previous line) to FILE every N ms.
";

/// Builds the kernel selected by `--kernel` (+ its shape flags).
///
/// # Errors
///
/// A user-facing message for unknown kernels or invalid parameters.
pub fn kernel_from_args(args: &Args) -> Result<Box<dyn CovarianceKernel>, String> {
    let name = args.get_str("kernel", "gaussian");
    match name.as_str() {
        "gaussian" => {
            let c = arg::<f64>(args, "c", f64::NAN)?;
            if c.is_finite() {
                Ok(Box::new(GaussianKernel::try_new(c).map_err(err)?))
            } else {
                Ok(Box::new(GaussianKernel::with_correlation_distance(
                    arg(args, "dist", 1.0)?,
                )))
            }
        }
        "exponential" => Ok(Box::new(
            ExponentialKernel::try_new(arg(args, "c", 2.0)?).map_err(err)?,
        )),
        "separable" => Ok(Box::new(
            SeparableExponentialKernel::try_new(arg(args, "c", 1.5)?).map_err(err)?,
        )),
        "matern" => Ok(Box::new(
            MaternKernel::new(arg(args, "b", 3.0)?, arg(args, "s", 2.5)?).map_err(err)?,
        )),
        "cone" => Ok(Box::new(
            klest_kernels::LinearConeKernel::try_new(arg(args, "d", 1.0)?).map_err(err)?,
        )),
        other => Err(format!(
            "unknown kernel '{other}' (expected gaussian, exponential, separable, matern or cone)"
        )),
    }
}

/// `klest mesh`.
///
/// # Errors
///
/// User-facing message on meshing or I/O failure.
pub fn cmd_mesh<W: Write>(args: &Args, out: &mut W) -> CliResult {
    let mesh = MeshBuilder::new(Rect::unit_die())
        .max_area_fraction(arg(args, "area-fraction", 0.001)?)
        .min_angle_degrees(arg(args, "min-angle", 28.0)?)
        .build()
        .map_err(err)?;
    writeln!(out, "{}", mesh.quality()).map_err(err)?;
    if let Some(path) = args_opt_str(args, "obj") {
        std::fs::write(&path, export::to_obj(&mesh)).map_err(err)?;
        writeln!(out, "wrote {path}").map_err(err)?;
    }
    Ok(())
}

/// Typed `--solver`/`--modes`/`--max-iters`/`--threads` parsing shared
/// by `klest kle`. `--modes` is presence-detected so the historical
/// defaults of each solver are preserved when it is omitted (full keeps
/// its 200-pair cap, matrix-free defaults to 25 computed pairs).
fn kle_options_from_args(args: &Args) -> Result<KleOptions, String> {
    let modes = match args_opt_str(args, "modes") {
        Some(_) => {
            let m: usize = arg(args, "modes", 25)?;
            if m == 0 {
                return Err(bad_arg("modes", m, "must be at least 1"));
            }
            Some(m)
        }
        None => None,
    };
    let max_iters: usize = arg(args, "max-iters", 500)?;
    if max_iters == 0 {
        return Err(bad_arg("max-iters", max_iters, "must be at least 1"));
    }
    let mut options = KleOptions {
        assembly_threads: arg(args, "threads", 0)?,
        ..KleOptions::default()
    };
    let solver = args.get_str("solver", "full");
    match solver.as_str() {
        "full" => {
            if let Some(m) = modes {
                options.max_eigenpairs = m;
            }
        }
        "lanczos" => {
            options.solver = EigenSolver::Lanczos;
            options.max_eigenpairs = modes.unwrap_or(options.max_eigenpairs);
        }
        "matrix-free" => {
            let k = modes.unwrap_or(25);
            options.solver = EigenSolver::MatrixFree { k, max_iters };
            options.max_eigenpairs = k;
        }
        other => {
            return Err(bad_arg(
                "solver",
                other,
                "expected full, lanczos or matrix-free",
            ))
        }
    }
    Ok(options)
}

/// `klest kle`.
///
/// # Errors
///
/// User-facing message on kernel/mesh/eigensolve failure.
pub fn cmd_kle<W: Write>(args: &Args, out: &mut W) -> CliResult {
    let kernel = kernel_from_args(args)?;
    let options = kle_options_from_args(args)?;
    let mesh = MeshBuilder::new(Rect::unit_die())
        .max_area_fraction(arg(args, "area-fraction", 0.001)?)
        .min_angle_degrees(arg(args, "min-angle", 28.0)?)
        .build()
        .map_err(err)?;
    let kle = GalerkinKle::compute(&mesh, kernel.as_ref(), options).map_err(err)?;
    let criterion = TruncationCriterion::new(200, arg(args, "tail", 0.01)?);
    let r = kle.select_rank(&criterion);
    writeln!(
        out,
        "kernel {} on n = {} triangles: rank r = {r} ({:.2}% variance)",
        kernel.name(),
        mesh.len(),
        100.0 * kle.variance_captured(r)
    )
    .map_err(err)?;
    for (i, l) in kle.eigenvalues().iter().take(arg(args, "show", 10)?).enumerate() {
        writeln!(out, "lambda_{:<3} = {l:.6e}", i + 1).map_err(err)?;
    }
    Ok(())
}

/// `klest validate`.
///
/// # Errors
///
/// User-facing message on kernel construction failure.
pub fn cmd_validate<W: Write>(args: &Args, out: &mut W) -> CliResult {
    let kernel = kernel_from_args(args)?;
    let gram = klest_kernels::validity::check_positive_semidefinite(
        kernel.as_ref(),
        Rect::unit_die(),
        arg(args, "points", 48)?,
        arg(args, "trials", 8)?,
        arg(args, "seed", 2024)?,
    )
    .map_err(err)?;
    writeln!(
        out,
        "empirical (Gram matrices): min eigenvalue {:.3e} -> {}",
        gram.min_eigenvalue,
        if gram.is_psd() { "valid" } else { "INVALID" }
    )
    .map_err(err)?;
    let spectral_ok = match klest_kernels::spectral::check_spectral_validity(kernel.as_ref(), 25.0, 80) {
        Some(spec) => {
            writeln!(
                out,
                "spectral (Bochner):       min density    {:.3e} at omega {:.2} -> {}",
                spec.min_density,
                spec.argmin_omega,
                if spec.is_valid() { "valid" } else { "INVALID" }
            )
            .map_err(err)?;
            spec.is_valid()
        }
        None => {
            writeln!(out, "spectral (Bochner):       n/a (anisotropic kernel)").map_err(err)?;
            true
        }
    };
    // The Gram check is a spot check (it can miss subtle indefiniteness
    // at small sample sizes); the spectral scan is the sharper oracle
    // where it applies — the verdict requires both.
    writeln!(
        out,
        "verdict: {}",
        if gram.is_psd() && spectral_ok { "valid" } else { "INVALID" }
    )
    .map_err(err)?;
    Ok(())
}

/// `klest netlist`.
///
/// # Errors
///
/// User-facing message on generation or I/O failure.
pub fn cmd_netlist<W: Write>(args: &Args, out: &mut W) -> CliResult {
    let gates = arg(args, "gates", 500)?;
    let seed = arg(args, "seed", 7)?;
    let config = if args.flag("sequential") {
        GeneratorConfig::sequential(gates, seed)
    } else {
        GeneratorConfig::combinational(gates, seed)
    };
    let circuit = generate(format!("synth{gates}"), config).map_err(err)?;
    let stats = klest_circuit::CircuitStats::measure(&circuit);
    writeln!(out, "{stats}").map_err(err)?;
    let text = write_netlist(&circuit);
    match args_opt_str(args, "out") {
        Some(path) => {
            std::fs::write(&path, text).map_err(err)?;
            writeln!(out, "wrote {path}").map_err(err)?;
        }
        None => out.write_all(text.as_bytes()).map_err(err)?,
    }
    Ok(())
}

/// `klest ssta`.
///
/// Without deadline flags this runs the plain comparison path. Any of
/// `--deadline`, `--stage-budget`, `--inject-panic-shard` or
/// `--inject-hang-ms` routes the run through the supervised runtime:
/// cooperative cancellation, per-worker fault isolation with retries,
/// and salvage of completed Monte Carlo samples on budget exhaustion.
///
/// # Errors
///
/// User-facing message on any stage failure or malformed flag.
pub fn cmd_ssta<W: Write>(args: &Args, out: &mut W) -> CliResult {
    let kernel = GaussianKernel::with_correlation_distance(arg(args, "dist", 1.0)?);
    let name = args.get_str("circuit", "c1908");
    let id = TABLE1_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, id)| *id)
        .ok_or_else(|| format!("unknown circuit '{name}' (expected a Table 1 name like c1908)"))?;
    let circuit = benchmark_scaled(id, arg(args, "scale", 0.5)?).map_err(err)?;
    let setup = CircuitSetup::prepare(&circuit);
    let area_fraction = arg(args, "area-fraction", 0.001)?;
    let threads = arg(args, "threads", klest_bench::default_threads())?;
    let config = McConfig::new(arg(args, "samples", 2000)?, arg(args, "seed", 2008)?)
        .with_threads(threads);
    let criterion = TruncationCriterion::default();
    let mut frontend = FrontEndConfig::new(area_fraction, 28.0, criterion);
    // --threads drives both the Monte Carlo pool and the
    // (bitwise-deterministic) parallel Galerkin assembly;
    // --assembly-threads overrides the latter alone. MC statistics
    // depend on the shard count (per-shard RNG streams), assembly
    // results never do.
    frontend.options.assembly_threads = arg(args, "assembly-threads", threads)?;
    let cache = args_opt_str(args, "cache-dir").map(ArtifactCache::with_disk);

    let deadline_secs = arg(args, "deadline", f64::INFINITY)?;
    let stage_budget_spec = args_opt_str(args, "stage-budget");
    let panic_shard = arg::<i64>(args, "inject-panic-shard", -1)?;
    let hang_ms = arg::<u64>(args, "inject-hang-ms", 0)?;
    let supervised = deadline_secs.is_finite()
        || stage_budget_spec.is_some()
        || panic_shard >= 0
        || hang_ms > 0;

    let cmp = if supervised {
        let budget = if deadline_secs.is_finite() {
            Budget::try_from_secs(deadline_secs).ok_or_else(|| {
                bad_arg("deadline", deadline_secs, "expected a positive number of seconds")
            })?
        } else {
            Budget::UNLIMITED
        };
        let budgets = match &stage_budget_spec {
            Some(spec) => {
                StageBudgets::parse(spec).map_err(|m| bad_arg("stage-budget", spec, &m))?
            }
            None => StageBudgets::none(),
        };
        let mut plan = FaultPlan::new();
        let mut inject = false;
        if panic_shard >= 0 {
            plan = plan.panic_at(Stage::Mc, panic_shard as usize);
            inject = true;
        }
        if hang_ms > 0 {
            // Pin the hang to a different shard than the panic so the
            // two injections hit distinct victims deterministically.
            let hang_shard = if panic_shard >= 0 {
                (panic_shard as usize + 1) % threads.max(1)
            } else {
                0
            };
            plan = plan.hang_at(Stage::Mc, hang_shard, hang_ms);
            inject = true;
        }
        let token = CancelToken::with_budget(budget);
        let ctx = KleContext::build_with(
            &kernel,
            &frontend.clone().with_supervised_ladder(),
            ExecPolicy::Supervised {
                token: &token,
                budgets: &budgets,
            },
            cache.as_ref(),
        )
        .map_err(err)?;
        compare_methods_supervised(
            &setup,
            &kernel,
            &ctx,
            &config,
            &token,
            &budgets,
            inject.then_some(&plan),
        )
        .map_err(err)?
    } else {
        let ctx = KleContext::build_with(&kernel, &frontend, ExecPolicy::Plain, cache.as_ref())
            .map_err(err)?;
        compare_methods_with_report(&setup, &kernel, &ctx, &config).map_err(err)?
    };

    if let Some(cache) = &cache {
        let snap = cache.snapshot();
        writeln!(
            out,
            "cache: {} hit(s), {} miss(es)",
            snap.hits(),
            snap.misses()
        )
        .map_err(err)?;
    }

    klest_obs::gauge_set("ssta.rank", cmp.rank as f64);
    klest_obs::gauge_set("ssta.speedup", cmp.speedup);
    klest_obs::gauge_set("ssta.e_mu_pct", cmp.e_mu_pct);
    klest_obs::gauge_set("ssta.e_sigma_pct", cmp.e_sigma_pct);
    writeln!(
        out,
        "{} ({} gates, r = {}): e_mu = {:.3}%, e_sigma = {:.3}%, speedup = {:.2}x",
        cmp.name, cmp.gates, cmp.rank, cmp.e_mu_pct, cmp.e_sigma_pct, cmp.speedup
    )
    .map_err(err)?;
    print_salvage(out, "reference", cmp.mc_salvage.as_ref())?;
    print_salvage(out, "kle", cmp.kle_salvage.as_ref())?;
    if !cmp.degradation.is_clean() {
        writeln!(out, "degradation: {}", cmp.degradation).map_err(err)?;
    }
    Ok(())
}

/// `klest hier`: hierarchical block-model SSTA — partition, per-block
/// extraction over the shared ξ basis, composition, a flat-vs-composed
/// agreement gate, and a one-gate edit re-timed through the block cache.
///
/// # Errors
///
/// User-facing message on any stage failure, malformed flag, or a
/// composed worst delay outside the 2% mean / 5% sigma agreement band.
pub fn cmd_hier<W: Write>(args: &Args, out: &mut W) -> CliResult {
    use klest_ssta::canonical::analyze_canonical;
    use klest_ssta::hier::HierEngine;
    use klest_ssta::KleFieldSampler;

    let gates: usize = arg(args, "gates", 400)?;
    let seed: u64 = arg(args, "seed", 7)?;
    let blocks: usize = arg(args, "blocks", 4)?;
    if blocks == 0 {
        return Err(bad_arg("blocks", blocks, "must be at least 1"));
    }
    let edit_scale: f64 = arg(args, "edit-scale", 0.3)?;
    if !edit_scale.is_finite() {
        return Err(bad_arg("edit-scale", edit_scale, "must be finite"));
    }
    let circuit = generate(
        format!("hier{gates}"),
        GeneratorConfig::combinational(gates, seed),
    )
    .map_err(err)?;
    let setup = CircuitSetup::prepare(&circuit);
    let partition = klest_circuit::Partition::build(&circuit, blocks);
    let kernel = GaussianKernel::with_correlation_distance(arg(args, "dist", 1.0)?);
    let frontend = FrontEndConfig::new(
        arg(args, "area-fraction", 0.01)?,
        28.0,
        TruncationCriterion::default(),
    );
    let cache = args_opt_str(args, "cache-dir").map(ArtifactCache::with_disk);
    let ctx = KleContext::build_with(&kernel, &frontend, ExecPolicy::Plain, cache.as_ref())
        .map_err(err)?;
    let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        .map_err(err)?;
    let flat = {
        let _span = klest_obs::span("hier/flat");
        analyze_canonical(&setup.timer, &sampler).map_err(err)?
    };

    // Block models are cache-addressed under the spectrum key (the shared
    // ξ basis) — the same key derivation the front end uses.
    let spectrum_key = kernel.cache_key().map(|kk| {
        let mesh_key = ArtifactKey::mesh(
            frontend.die,
            frontend.max_area_fraction,
            frontend.min_angle_degrees,
        );
        let galerkin_key = ArtifactKey::galerkin(&mesh_key, &kk, frontend.options.quadrature);
        ArtifactKey::spectrum(
            &galerkin_key,
            frontend.options.solver,
            frontend.options.max_eigenpairs,
        )
    });
    let cache_pair = match (&cache, spectrum_key) {
        (Some(c), Some(k)) => Some((c, k)),
        _ => None,
    };
    let token = CancelToken::unlimited();
    let mut engine = HierEngine::new(
        &setup.timer,
        &sampler,
        &partition,
        vec![klest_sta::ParamVector::ZERO; circuit.node_count()],
        cache_pair,
        &token,
    )
    .map_err(err)?;
    let stats = engine.last_stats();
    let f = flat.worst();
    let (f_mean, f_sigma) = (f.mean, f.sigma());
    let (h_mean, h_sigma) = {
        let h = engine.worst();
        (h.mean, h.sigma())
    };
    let e_mu_pct = 100.0 * (h_mean - f_mean).abs() / f_mean;
    let e_sigma_pct = 100.0 * (h_sigma - f_sigma).abs() / f_sigma;
    klest_obs::gauge_set("hier.blocks", stats.blocks as f64);
    klest_obs::gauge_set("hier.e_mu_pct", e_mu_pct);
    klest_obs::gauge_set("hier.e_sigma_pct", e_sigma_pct);
    writeln!(
        out,
        "{} ({} gates, r = {}, {} block(s)): flat mu = {:.6}, sigma = {:.6}",
        circuit.name(),
        circuit.gate_count(),
        ctx.rank,
        partition.block_count(),
        f_mean,
        f_sigma
    )
    .map_err(err)?;
    writeln!(
        out,
        "hier: mu = {h_mean:.6}, sigma = {h_sigma:.6}, \
         e_mu = {e_mu_pct:.3}%, e_sigma = {e_sigma_pct:.3}%"
    )
    .map_err(err)?;
    writeln!(
        out,
        "extract: {} cache hit(s), {} extracted, {} recovered serially",
        stats.cache_hits, stats.extracted, stats.recovered_serially
    )
    .map_err(err)?;

    // One-gate edit: re-keys exactly one block, everything else is
    // reused. The default victim is mid-netlist (never a primary input —
    // inputs precede gates in id order and gates outnumber inputs).
    let default_victim = circuit.node_count() / 2;
    let victim: usize = arg(args, "edit-node", default_victim)?;
    if victim >= circuit.node_count() {
        return Err(bad_arg(
            "edit-node",
            victim,
            &format!("circuit has {} nodes", circuit.node_count()),
        ));
    }
    let p = klest_sta::ParamVector::new([edit_scale, -edit_scale / 2.0, edit_scale / 4.0, 0.0]);
    let edited_mean = {
        let _span = klest_obs::span("hier/edit");
        engine
            .edit_gate(klest_circuit::NodeId(victim as u32), p, &token)
            .map_err(err)?
            .mean
    };
    let edit_stats = engine.last_stats();
    writeln!(
        out,
        "edit n{victim}: worst mu {h_mean:.6} -> {edited_mean:.6} \
         ({} block(s) re-extracted, {} warm)",
        edit_stats.extracted, edit_stats.cache_hits
    )
    .map_err(err)?;
    if let Some(cache) = &cache {
        let snap = cache.snapshot();
        writeln!(
            out,
            "cache: {} block hit(s), {} block miss(es)",
            snap.block_hits, snap.block_misses
        )
        .map_err(err)?;
    }
    if e_mu_pct > 2.0 || e_sigma_pct > 5.0 {
        return Err(format!(
            "agreement: FAILED — composed worst (mu {h_mean:.6}, sigma {h_sigma:.6}) \
             deviates from flat (mu {f_mean:.6}, sigma {f_sigma:.6}) \
             beyond 2% mean / 5% sigma"
        ));
    }
    writeln!(out, "agreement: OK (e_mu <= 2%, e_sigma <= 5%)").map_err(err)?;
    Ok(())
}

/// Prints one arm's salvage line (supervised runs only) and mirrors the
/// numbers into observability gauges for the run report.
fn print_salvage<W: Write>(out: &mut W, arm: &str, salvage: Option<&SalvageStats>) -> CliResult {
    let Some(s) = salvage else { return Ok(()) };
    klest_obs::gauge_set(&format!("ssta.{arm}.salvaged_samples"), s.completed as f64);
    klest_obs::gauge_set(&format!("ssta.{arm}.shards_retried"), s.shards_retried as f64);
    klest_obs::gauge_set(&format!("ssta.{arm}.ci_widening"), s.ci_widening);
    writeln!(
        out,
        "salvage[{arm}]: {}/{} samples kept, {} shard(s) retried, {} worker fault(s), CI x{:.3}",
        s.completed, s.planned, s.shards_retried, s.worker_faults, s.ci_widening
    )
    .map_err(err)
}

const TABLE1_NAMES: [(&str, BenchmarkId); 14] = [
    ("c880", BenchmarkId::C880),
    ("c1355", BenchmarkId::C1355),
    ("c1908", BenchmarkId::C1908),
    ("c3540", BenchmarkId::C3540),
    ("c5315", BenchmarkId::C5315),
    ("c6288", BenchmarkId::C6288),
    ("s5378", BenchmarkId::S5378),
    ("c7552", BenchmarkId::C7552),
    ("s9234", BenchmarkId::S9234),
    ("s13207", BenchmarkId::S13207),
    ("s15850", BenchmarkId::S15850),
    ("s35932", BenchmarkId::S35932),
    ("s38584", BenchmarkId::S38584),
    ("s38417", BenchmarkId::S38417),
];

/// `klest serve`: the long-lived batched query daemon (see
/// `klest-serve` for the protocol and admission-control semantics).
///
/// # Errors
///
/// Typed `InvalidArgument` messages for malformed or out-of-range
/// flags; an error (exit 1) when the drain budget expired and in-flight
/// work had to be force-cancelled.
pub fn cmd_serve<W: Write + Send>(args: &Args, out: &mut W) -> CliResult {
    let workers = arg::<usize>(args, "workers", 2)?;
    if !(1..=64).contains(&workers) {
        return Err(bad_arg("workers", workers, "must be in 1..=64"));
    }
    let queue_depth = arg::<usize>(args, "queue-depth", 16)?;
    if !(1..=4096).contains(&queue_depth) {
        return Err(bad_arg("queue-depth", queue_depth, "must be in 1..=4096"));
    }
    let drain_ms = arg::<u64>(args, "drain-ms", 10_000)?;
    if !(1..=600_000).contains(&drain_ms) {
        return Err(bad_arg("drain-ms", drain_ms, "must be in 1..=600000 (ms)"));
    }
    let default_deadline = match arg::<u64>(args, "default-deadline-ms", 0)? {
        0 => None,
        ms if ms <= 600_000 => Some(Duration::from_millis(ms)),
        ms => {
            return Err(bad_arg(
                "default-deadline-ms",
                ms,
                "must be in 1..=600000 (ms), or omitted for no default deadline",
            ))
        }
    };
    let metrics_interval = match arg::<u64>(args, "metrics-interval-ms", 0)? {
        0 => None,
        ms if (10..=600_000).contains(&ms) => Some(Duration::from_millis(ms)),
        ms => {
            return Err(bad_arg(
                "metrics-interval-ms",
                ms,
                "must be in 10..=600000 (ms), or omitted to disable periodic snapshots",
            ))
        }
    };
    let metrics_out = args_opt_str(args, "metrics-out").map(std::path::PathBuf::from);
    if metrics_interval.is_some() != metrics_out.is_some() {
        return Err(
            "periodic metrics need both --metrics-interval-ms N and --metrics-out FILE"
                .to_string(),
        );
    }
    let slo_target = arg::<f64>(args, "slo-target", 0.95)?;
    if !(slo_target > 0.0 && slo_target <= 1.0) {
        return Err(bad_arg("slo-target", slo_target, "must be in (0, 1]"));
    }
    // Snapshot lines diff obs counters, so the sink must be live for
    // the emitter to see anything.
    if metrics_out.is_some() {
        klest_obs::enable();
    }
    let config = ServeConfig {
        workers,
        queue_depth,
        drain: Duration::from_millis(drain_ms),
        default_deadline,
        cache_dir: args_opt_str(args, "cache-dir").map(Into::into),
        state_dir: args_opt_str(args, "state-dir").map(Into::into),
        trace_responses: args.flag("trace-responses"),
        metrics_interval,
        metrics_out,
        slo_target,
    };
    let server = Server::new(config);
    let summary = if let Some(path) = args_opt_str(args, "socket") {
        #[cfg(unix)]
        {
            server
                .serve_unix(std::path::Path::new(&path))
                .map_err(|e| format!("serving on socket {path}: {e}"))?
        }
        #[cfg(not(unix))]
        {
            return Err(bad_arg(
                "socket",
                path,
                "unix sockets are not available on this platform",
            ));
        }
    } else if let Some(path) = args_opt_str(args, "requests") {
        let file =
            std::fs::File::open(&path).map_err(|e| format!("opening requests {path}: {e}"))?;
        server.serve(std::io::BufReader::new(file), &mut *out)
    } else {
        server.serve(std::io::stdin().lock(), &mut *out)
    };
    if !summary.drained_clean {
        return Err(format!(
            "drain budget expired: {} in-flight/queued request(s) were force-cancelled or shed",
            summary.cancelled + summary.shed_draining
        ));
    }
    Ok(())
}

fn args_opt_str(args: &Args, key: &str) -> Option<String> {
    let v = args.get_str(key, "\u{0}");
    if v == "\u{0}" {
        None
    } else {
        Some(v)
    }
}

/// Dispatches a full command line (without the binary name).
///
/// Every subcommand honours the global `--trace` flag (human-readable
/// span tree + metrics to stderr) and `--report <path>` option
/// (deterministic JSON run report, schema `klest-run-report/v1`). With
/// neither present the observability sink stays off and instrumented
/// code paths cost one relaxed atomic load each.
///
/// # Errors
///
/// The user-facing error message for the failing subcommand.
pub fn run<W: Write + Send>(argv: &[String], out: &mut W) -> CliResult {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}").map_err(err)?;
        return Ok(());
    };
    let args = Args::from_iter(argv[1..].iter().cloned());
    let trace = args.flag("trace");
    let report_path = args_opt_str(&args, "report");
    let observing = trace || report_path.is_some();
    if observing {
        klest_obs::reset();
        klest_obs::enable();
    }
    let result = {
        let _span = klest_obs::span(command);
        dispatch(command, &args, out)
    };
    if observing {
        klest_obs::disable();
        if trace {
            eprint!("{}", klest_obs::render_trace());
        }
        let mut write_result = Ok(());
        if let Some(path) = &report_path {
            let report =
                klest_obs::RunReport::collect("klest", env!("CARGO_PKG_VERSION"), command, argv);
            write_result = std::fs::write(path, report.to_json())
                .map_err(|e| format!("writing report {path}: {e}"));
        }
        klest_obs::reset();
        // A failing subcommand takes precedence over a report I/O error.
        result?;
        write_result?;
        if let Some(path) = &report_path {
            writeln!(out, "wrote {path}").map_err(err)?;
        }
        Ok(())
    } else {
        result
    }
}

fn dispatch<W: Write + Send>(command: &str, args: &Args, out: &mut W) -> CliResult {
    match command {
        "mesh" => cmd_mesh(args, out),
        "kle" => cmd_kle(args, out),
        "validate" => cmd_validate(args, out),
        "netlist" => cmd_netlist(args, out),
        "ssta" => cmd_ssta(args, out),
        "hier" => cmd_hier(args, out),
        "serve" => cmd_serve(args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(err)?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn kle_solver_flags_are_typed_errors_not_exits() {
        let e = run_str("kle --kernel gaussian --area-fraction 0.05 --solver qr").unwrap_err();
        assert!(e.contains("solver") && e.contains("qr"), "{e}");
        let e = run_str("kle --kernel gaussian --area-fraction 0.05 --solver matrix-free --modes 0")
            .unwrap_err();
        assert!(e.contains("modes"), "{e}");
        let e = run_str(
            "kle --kernel gaussian --area-fraction 0.05 --solver matrix-free --max-iters 0",
        )
        .unwrap_err();
        assert!(e.contains("max-iters"), "{e}");
        let e = run_str("kle --kernel gaussian --area-fraction 0.05 --modes potato").unwrap_err();
        assert!(e.contains("modes") && e.contains("potato"), "{e}");
        let e = run_str("kle --kernel gaussian --area-fraction 0.05 --threads potato").unwrap_err();
        assert!(e.contains("threads") && e.contains("potato"), "{e}");
    }

    #[test]
    fn kle_matrix_free_solver_agrees_with_dense_default() {
        fn first_lambda(out: &str) -> f64 {
            out.lines()
                .find(|l| l.starts_with("lambda_1"))
                .and_then(|l| l.split('=').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .expect("lambda_1 line")
        }
        let dense = run_str("kle --kernel gaussian --area-fraction 0.05 --show 3").unwrap();
        let mf = run_str(
            "kle --kernel gaussian --area-fraction 0.05 --show 3 \
             --solver matrix-free --modes 8 --max-iters 400",
        )
        .unwrap();
        assert!(mf.contains("rank r ="), "{mf}");
        let (a, b) = (first_lambda(&dense), first_lambda(&mf));
        assert!(
            (a - b).abs() < 1e-6 * a.abs(),
            "dense lambda_1 {a} vs matrix-free {b}"
        );
        // Lanczos over the dense matrix accepts the same --modes flag.
        let lz = run_str(
            "kle --kernel gaussian --area-fraction 0.05 --show 3 --solver lanczos --modes 8",
        )
        .unwrap();
        let c = first_lambda(&lz);
        assert!((a - c).abs() < 1e-6 * a.abs(), "lanczos lambda_1 {c} vs {a}");
    }

    #[test]
    fn serve_bad_flags_are_typed_errors_not_exits() {
        // Unparsable values route through Args::try_get →
        // KlestError::InvalidArgument; all of these must return Err
        // before the daemon ever reads a request.
        let e = run_str("serve --queue-depth potato").unwrap_err();
        assert!(e.contains("queue-depth") && e.contains("potato"), "{e}");
        let e = run_str("serve --drain-ms -5").unwrap_err();
        assert!(e.contains("drain-ms") && e.contains("-5"), "{e}");
        // Parsable but out-of-range values get range messages.
        let e = run_str("serve --queue-depth 0").unwrap_err();
        assert!(e.contains("1..=4096"), "{e}");
        let e = run_str("serve --drain-ms 0").unwrap_err();
        assert!(e.contains("1..=600000"), "{e}");
        let e = run_str("serve --workers 0").unwrap_err();
        assert!(e.contains("1..=64"), "{e}");
        let e = run_str("serve --default-deadline-ms 999999999").unwrap_err();
        assert!(e.contains("default-deadline-ms"), "{e}");
        // Telemetry flags: interval range, interval/file pairing, SLO range.
        let e = run_str("serve --metrics-interval-ms 5 --metrics-out /tmp/m.jsonl").unwrap_err();
        assert!(e.contains("10..=600000"), "{e}");
        let e = run_str("serve --metrics-interval-ms 1000").unwrap_err();
        assert!(e.contains("--metrics-out"), "{e}");
        let e = run_str("serve --slo-target 1.5").unwrap_err();
        assert!(e.contains("slo-target"), "{e}");
        let e = run_str("serve --slo-target 0").unwrap_err();
        assert!(e.contains("slo-target"), "{e}");
    }

    #[test]
    fn serve_trace_flag_and_stats_op_round_trip() {
        let dir = std::env::temp_dir().join(format!("klest-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("requests.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"id\":\"t1\",\"trace\":true,\"gates\":8,\"samples\":16,\"area_fraction\":0.1}\n",
                "{\"op\":\"stats\",\"id\":\"s1\"}\n",
                "{\"op\":\"shutdown\"}\n"
            ),
        )
        .expect("write requests");
        let out = run_str(&format!(
            "serve --workers 1 --trace-responses --requests {}",
            path.display()
        ))
        .expect("serve runs clean");
        assert!(out.contains("\"trace\":{"), "{out}");
        assert!(out.contains("\"trace_id\":\""), "{out}");
        assert!(out.contains("\"status\":\"stats\""), "{out}");
        assert!(out.contains("\"slo\":{"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_metrics_out_writes_snapshot_lines() {
        let dir = std::env::temp_dir().join(format!("klest-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let requests = dir.join("requests.jsonl");
        let metrics = dir.join("metrics.jsonl");
        std::fs::write(
            &requests,
            concat!(
                "{\"id\":\"m1\",\"inject_hang_ms\":30000,\"deadline_ms\":200,",
                "\"gates\":8,\"samples\":16,\"area_fraction\":0.1}\n"
            ),
        )
        .expect("write requests");
        run_str(&format!(
            "serve --workers 1 --metrics-interval-ms 25 --metrics-out {} --requests {}",
            metrics.display(),
            requests.display()
        ))
        .expect("serve runs clean");
        let text = std::fs::read_to_string(&metrics).expect("metrics file written");
        assert!(
            text.lines()
                .all(|l| l.starts_with(r#"{"schema":"klest-metrics/v1""#)),
            "{text}"
        );
        assert!(!text.trim().is_empty(), "at least one snapshot line");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_replays_a_request_file_and_drains() {
        let dir = std::env::temp_dir().join(format!("klest-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("requests.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"id\":\"q1\",\"gates\":8,\"samples\":16,\"area_fraction\":0.1}\n",
                "{\"id\":\"q2\",\"gates\":8,\"samples\":16,\"area_fraction\":0.1}\n",
                "{\"op\":\"shutdown\"}\n"
            ),
        )
        .expect("write requests");
        let out = run_str(&format!(
            "serve --workers 1 --requests {}",
            path.display()
        ))
        .expect("serve runs clean");
        assert!(out.contains("\"id\":\"q1\""), "{out}");
        assert!(out.contains("\"status\":\"completed\""), "{out}");
        // Identical config ⇒ the second request must be a warm hit.
        assert!(out.contains("\"warm\":true"), "{out}");
        assert!(out.contains("\"status\":\"drained\""), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_and_empty() {
        assert!(run_str("help").unwrap().contains("COMMANDS"));
        assert!(run_str("").unwrap().contains("USAGE"));
        let e = run_str("frobnicate").unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn mesh_command() {
        let out = run_str("mesh --area-fraction 0.02 --min-angle 25").unwrap();
        assert!(out.contains("triangles"), "{out}");
    }

    #[test]
    fn kle_command_selects_rank() {
        let out = run_str("kle --kernel gaussian --area-fraction 0.02 --show 3").unwrap();
        assert!(out.contains("rank r = "), "{out}");
        assert!(out.contains("lambda_1"), "{out}");
    }

    #[test]
    fn validate_commands() {
        let good = run_str("validate --kernel gaussian --points 24 --trials 4").unwrap();
        assert!(good.contains("valid"), "{good}");
        let bad = run_str("validate --kernel cone --points 60 --trials 8").unwrap();
        assert!(bad.contains("INVALID"), "{bad}");
        assert!(bad.contains("verdict: INVALID"), "{bad}");
        // Even at default spot-check sizes the verdict catches the cone
        // through the spectral oracle.
        let subtle = run_str("validate --kernel cone --d 1.0 --points 24 --trials 3").unwrap();
        assert!(subtle.contains("verdict: INVALID"), "{subtle}");
        let aniso = run_str("validate --kernel separable --points 24 --trials 4").unwrap();
        assert!(aniso.contains("anisotropic"), "{aniso}");
    }

    #[test]
    fn netlist_command_emits_bench_text() {
        let out = run_str("netlist --gates 40 --seed 3").unwrap();
        assert!(out.contains("INPUT("), "{out}");
        assert!(out.contains("OUTPUT("), "{out}");
        assert!(out.contains("40 gates"), "{out}");
    }

    #[test]
    fn kernel_errors_are_user_facing() {
        assert!(run_str("kle --kernel frob").unwrap_err().contains("unknown kernel"));
        assert!(run_str("kle --kernel gaussian --c -3").unwrap_err().contains("positive"));
        assert!(run_str("ssta --circuit nope").unwrap_err().contains("unknown circuit"));
    }

    #[test]
    fn ssta_command_small() {
        let out = run_str("ssta --circuit c880 --scale 0.2 --samples 150 --threads 2").unwrap();
        assert!(out.contains("e_mu"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(!out.contains("salvage["), "plain runs print no salvage: {out}");
    }

    #[test]
    fn hier_command_agrees_and_retimes_one_block() {
        let out = run_str("hier --gates 150 --seed 9 --blocks 4 --area-fraction 0.02").unwrap();
        assert!(out.contains("4 block(s)"), "{out}");
        assert!(out.contains("e_mu"), "{out}");
        assert!(out.contains("(1 block(s) re-extracted, 0 warm)"), "{out}");
        assert!(out.contains("agreement: OK"), "{out}");
    }

    #[test]
    fn hier_cache_dir_warm_run_serves_blocks_from_cache() {
        let dir = std::env::temp_dir().join(format!("klest-cli-hier-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = format!(
            "hier --gates 150 --seed 9 --blocks 3 --area-fraction 0.02 --cache-dir {}",
            dir.display()
        );
        let cold = run_str(&base).unwrap();
        assert!(cold.contains("extract: 0 cache hit(s), 3 extracted"), "{cold}");
        // Second run: all three initial blocks warm, and the edit's
        // re-keyed block was already stored by the first run's edit.
        let warm = run_str(&base).unwrap();
        assert!(warm.contains("extract: 3 cache hit(s), 0 extracted"), "{warm}");
        assert!(warm.contains("(0 block(s) re-extracted, 1 warm)"), "{warm}");
        assert!(warm.contains("agreement: OK"), "{warm}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hier_bad_flags_are_typed_errors() {
        let e = run_str("hier --blocks 0").unwrap_err();
        assert!(e.contains("blocks"), "{e}");
        let e = run_str("hier --gates 100 --edit-node 100000").unwrap_err();
        assert!(e.contains("edit-node"), "{e}");
        let e = run_str("hier --blocks potato").unwrap_err();
        assert!(e.contains("blocks") && e.contains("potato"), "{e}");
    }

    #[test]
    fn malformed_numeric_flags_are_typed_errors() {
        let e = run_str("ssta --circuit c880 --samples banana").unwrap_err();
        assert!(e.contains("invalid argument --samples banana"), "{e}");
        let e = run_str("mesh --area-fraction huge").unwrap_err();
        assert!(e.contains("invalid argument --area-fraction huge"), "{e}");
        let e = run_str("kle --kernel matern --b wide").unwrap_err();
        assert!(e.contains("invalid argument --b wide"), "{e}");
        let e = run_str("netlist --gates 3.5").unwrap_err();
        assert!(e.contains("invalid argument --gates 3.5"), "{e}");
        // Parses but out of range: negative deadline.
        let e = run_str("ssta --circuit c880 --deadline -2").unwrap_err();
        assert!(e.contains("invalid argument --deadline -2"), "{e}");
        assert!(e.contains("positive"), "{e}");
        // Malformed stage-budget spec.
        let e = run_str("ssta --circuit c880 --stage-budget mc:0.5").unwrap_err();
        assert!(e.contains("invalid argument --stage-budget"), "{e}");
    }

    #[test]
    fn ssta_supervised_clean_run_reports_full_salvage() {
        // A generous deadline changes the mechanism, not the outcome.
        let out = run_str(
            "ssta --circuit c880 --scale 0.2 --samples 150 --threads 2 \
             --area-fraction 0.02 --deadline 600",
        )
        .unwrap();
        assert!(out.contains("salvage[reference]: 150/150"), "{out}");
        assert!(out.contains("salvage[kle]: 150/150"), "{out}");
    }

    #[test]
    fn ssta_cache_dir_warm_run_hits_and_reproduces_numbers() {
        // Acceptance criterion: a warm artifact cache skips mesh build,
        // assembly and the eigensolve (observable via the obs counters
        // in the run report) and reproduces the cold-run statistics
        // exactly.
        let dir = std::env::temp_dir().join("klest-cli-cache-test");
        std::fs::remove_dir_all(&dir).ok();
        let r1 = std::env::temp_dir().join("klest-cli-cache-r1.json");
        let r2 = std::env::temp_dir().join("klest-cli-cache-r2.json");
        let base = format!(
            "ssta --circuit c880 --scale 0.2 --samples 120 --threads 2 \
             --area-fraction 0.02 --cache-dir {}",
            dir.display()
        );
        let out1 = run_str(&format!("{base} --report {}", r1.display())).unwrap();
        let out2 = run_str(&format!("{base} --report {}", r2.display())).unwrap();
        let json1 = std::fs::read_to_string(&r1).expect("cold report");
        let json2 = std::fs::read_to_string(&r2).expect("warm report");
        std::fs::remove_file(&r1).ok();
        std::fs::remove_file(&r2).ok();
        std::fs::remove_dir_all(&dir).ok();
        assert!(out1.contains("cache: 0 hit(s)"), "{out1}");
        assert!(json1.contains("pipeline.cache.spectrum.misses"), "{json1}");
        // The warm run serves mesh + spectrum from disk and never reaches
        // the assembly / eigensolve stages.
        assert!(json2.contains("pipeline.cache.spectrum.hits"), "{json2}");
        assert!(json2.contains("pipeline.cache.mesh.hits"), "{json2}");
        assert!(!json2.contains("galerkin/assemble"), "{json2}");
        assert!(out2.contains("hit(s)"), "{out2}");
        assert!(!out2.contains("cache: 0 hit(s)"), "{out2}");
        // Statistics are identical; only the timing-dependent speedup
        // column may differ between the two invocations.
        let stats = |s: &str| {
            s.lines()
                .find(|l| l.contains("e_mu"))
                .expect("stats line")
                .split(", speedup")
                .next()
                .expect("stats prefix")
                .to_string()
        };
        assert_eq!(stats(&out1), stats(&out2));
    }

    #[test]
    fn ssta_supervised_acceptance_salvages_and_reports() {
        // Acceptance criterion from the issue: a fault-injected run with
        // one panicking shard and one hung shard under a 2 s deadline
        // must exit cleanly, retry the panicking shard, salvage the
        // completed samples, and surface Cancelled / WorkerFault events
        // in both the printed degradation summary and the report JSON.
        let report = std::env::temp_dir().join("klest-cli-acceptance-report.json");
        let report_path = report.to_str().expect("utf8 temp path").to_string();
        let line = format!(
            "ssta --circuit c880 --scale 0.2 --samples 300 --threads 2 \
             --area-fraction 0.02 --deadline 2 --stage-budget mc=0.5 \
             --inject-panic-shard 0 --inject-hang-ms 600000 --report {report_path}"
        );
        let out = run_str(&line).expect("injected faults must not make the CLI fail");
        let json = std::fs::read_to_string(&report).expect("report written");
        std::fs::remove_file(&report).ok();
        assert!(out.contains("salvage[reference]:"), "{out}");
        assert!(out.contains("shard(s) retried"), "{out}");
        assert!(out.contains("degradation:"), "{out}");
        assert!(json.contains("cancelled"), "{json}");
        assert!(json.contains("worker fault"), "{json}");
    }
}
