//! `table1`: the paper's configuration. Gaussian kernel at correlation
//! distance 1, 0.1 % maximum triangle area, 28°, λ-tail 1 % with
//! m = 200 (n = 1 532, r = 25). A cold KLE build through a fresh disk
//! cache (`cold_s`), then warm Monte Carlo queries on s38417, each a
//! reopen of that cache, the gather of the circuit's loading rows and a
//! 48-sample Algorithm 2 run (`queries_per_s`, `query_p95_ms`). After the
//! timed phase, Algorithm 1 and Algorithm 2 on c7552 at half scale (small
//! enough for the dense Cholesky reference) must agree.

use crate::checks::{
    bits_equal, count_equals, covariance_matches, mc_agree, mercer, spectrum_matches,
};
use crate::hier_eco::EditStream;
use crate::layers::{
    check_layered_equals, frontend, keys, secs, traced_frontend, traced_hier, traced_mc,
    traced_mc_layers, DIE_AREA,
};
use crate::oracle::gaussian_die_spectrum;
use crate::stats::{min_count_for, per_second, tail_percentile, SplitMix};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Opts, Outcome};
use klest_circuit::{benchmark, benchmark_scaled, BenchmarkId, Circuit, Partition};
use klest_core::pipeline::{ArtifactCache, ExecPolicy, FrontEndConfig};
use klest_core::TruncationCriterion;
use klest_kernels::GaussianKernel;
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::{run_monte_carlo, CholeskySampler, GateFieldSampler, KleFieldSampler, McConfig};
use klest_sta::ParamVector;
use std::path::Path;
use std::time::Instant;

/// Samples per warm query on s38417 (a query takes ~0.13 s here).
const QUERY_SAMPLES: usize = 48;
/// Samples per algorithm of the Algorithm 1 vs 2 agreement check on
/// c7552 at half scale.
const AGREEMENT_SAMPLES: usize = 512;
/// Blocks of the traced hier replay on s38417.
const HIER_BLOCKS: usize = 32;
/// Relative allowance on the Algorithm 1 vs 2 agreement for the
/// variance the r-term truncation leaves out (λ-tail budget 1 %).
const TRUNCATION_BIAS: f64 = 0.01;

struct Circuits {
    big_circuit: Circuit,
    big: CircuitSetup,
    small: CircuitSetup,
}

fn prepare() -> Result<Circuits, String> {
    let big_circuit = benchmark(BenchmarkId::S38417).map_err(|e| format!("s38417: {e}"))?;
    let small =
        benchmark_scaled(BenchmarkId::C7552, 0.5).map_err(|e| format!("c7552 at 0.5: {e}"))?;
    Ok(Circuits {
        big: CircuitSetup::prepare(&big_circuit),
        big_circuit,
        small: CircuitSetup::prepare(&small),
    })
}

fn paper_config() -> FrontEndConfig {
    frontend(0.001, TruncationCriterion::default())
}

fn build(
    kernel: &GaussianKernel,
    config: &FrontEndConfig,
    dir: &Path,
) -> Result<KleContext, String> {
    let cache = ArtifactCache::with_disk(dir);
    KleContext::build_with(kernel, config, ExecPolicy::Plain, Some(&cache))
        .map_err(|e| e.to_string())
}

fn sampler(ctx: &KleContext, setup: &CircuitSetup) -> Result<KleFieldSampler, String> {
    KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        .map_err(|e| e.to_string())
}

fn mc(
    setup: &CircuitSetup,
    s: &dyn GateFieldSampler,
    samples: usize,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let config = McConfig::new(samples, seed).with_threads(1);
    run_monte_carlo(&setup.timer, &s, &config)
        .map(|run| run.worst_delays().to_vec())
        .map_err(|e| e.to_string())
}

/// A warm reopen must return the cold build's eigenvalues, rank and
/// loading rows bit for bit.
fn check_warm(
    out: &mut Outcome,
    cold: &KleContext,
    warm: &KleContext,
    rows: Option<(&KleFieldSampler, &KleFieldSampler)>,
) {
    out.checks.record(
        "warm eigenvalues",
        bits_equal(warm.kle.eigenvalues(), cold.kle.eigenvalues()),
    );
    out.checks.record(
        "warm rank",
        count_equals("rank", warm.rank as u64, cold.rank as u64),
    );
    if let Some((cold_rows, warm_rows)) = rows {
        let outcome = (0..cold_rows.node_count())
            .map(|i| bits_equal(warm_rows.loading_row(i), cold_rows.loading_row(i)))
            .find(Result::is_err)
            .unwrap_or(Ok(()));
        out.checks.record("warm loading rows", outcome);
    }
}

/// The spectrum, covariance and Monte Carlo checks shared by both modes.
fn check_outputs(
    out: &mut Outcome,
    kernel: &GaussianKernel,
    ctx: &KleContext,
    circuits: &Circuits,
    big_sampler: &KleFieldSampler,
    (reference, kle): (&[f64], &[f64]),
    seed: u64,
) {
    let oracle = gaussian_die_spectrum(kernel.decay(), 10);
    out.checks.record(
        "leading ten eigenvalues match the separable 1-D products",
        spectrum_matches(ctx.kle.eigenvalues(), &oracle, 5e-3),
    );
    out.checks.record(
        "Mercer trace",
        mercer(
            ctx.kle.eigenvalues(),
            ctx.rank,
            DIE_AREA,
            TruncationCriterion::default().tail_fraction,
        ),
    );
    let mut rng = SplitMix::new(seed, 7);
    let locations = circuits.big.locations();
    let pairs: Vec<(f64, f64)> = (0..400)
        .map(|_| {
            let (a, b) = (rng.below(locations.len()), rng.below(locations.len()));
            let rec: f64 = big_sampler
                .loading_row(a)
                .iter()
                .zip(big_sampler.loading_row(b))
                .map(|(x, y)| x * y)
                .sum();
            let (pa, pb) = (locations[a], locations[b]);
            let d2 = (pa.x - pb.x).powi(2) + (pa.y - pb.y).powi(2);
            (rec, (-kernel.decay() * d2).exp())
        })
        .collect();
    out.checks.record(
        "gate-pair covariance matches the kernel",
        covariance_matches(&pairs, 0.15, 0.03),
    );
    out.checks.record(
        "Algorithm 2 agrees with Algorithm 1 on worst-delay mean and sigma",
        mc_agree(reference, kle, 5.0, TRUNCATION_BIAS),
    );
}

/// The untraced run: every end-to-end metric of `table1`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let config = paper_config();
    let circuits = prepare()?;
    let cholesky =
        CholeskySampler::new(&kernel, circuits.small.locations()).map_err(|e| e.to_string())?;
    let setup_s = secs(opts.started);

    let cache_dir = opts.run_dir.join("kle-cache");
    let t = Instant::now();
    let ctx = build(&kernel, &config, &cache_dir)?;
    let cold_s = secs(t);
    out.attempted += 1;
    let big = sampler(&ctx, &circuits.big)?;

    let mut rng = SplitMix::new(opts.seed, 1);
    let min_queries = min_count_for(0.95);
    let mut query_ms = Vec::new();
    let mut first = None;
    let phase = Instant::now();
    while query_ms.len() < min_queries || secs(phase) < opts.seconds {
        let seed = rng.next_u64();
        let t = Instant::now();
        let warm = build(&kernel, &config, &cache_dir)?;
        let warm_big = sampler(&warm, &circuits.big)?;
        let worst = mc(&circuits.big, &warm_big, QUERY_SAMPLES, seed)?;
        query_ms.push(secs(t) * 1e3);
        out.attempted += 1 + QUERY_SAMPLES as u64;
        let rows = first.is_none().then_some((&big, &warm_big));
        check_warm(&mut out, &ctx, &warm, rows);
        first.get_or_insert((seed, worst));
    }
    let (seed, worst) = first.expect("at least one query ran");
    out.checks.record(
        "a warm query equals the same run on the cold build",
        bits_equal(&worst, &mc(&circuits.big, &big, QUERY_SAMPLES, seed)?),
    );

    let small = sampler(&ctx, &circuits.small)?;
    let reference = mc(
        &circuits.small,
        &cholesky,
        AGREEMENT_SAMPLES,
        rng.next_u64(),
    )?;
    let alg2 = mc(&circuits.small, &small, AGREEMENT_SAMPLES, rng.next_u64())?;
    out.attempted += 2 * AGREEMENT_SAMPLES as u64;
    check_outputs(
        &mut out,
        &kernel,
        &ctx,
        &circuits,
        &big,
        (&reference, &alg2),
        opts.seed,
    );

    out.metric("setup_s", setup_s, "s");
    out.metric("cold_s", cold_s, "s");
    out.metric("queries_per_s", per_second(&query_ms), "1/s");
    out.metric(
        "query_p95_ms",
        tail_percentile(&query_ms, 0.95).ok_or("fewer queries than the p95 needs")?,
        "ms",
    );
    out.metric("peak_rss_mb", peak_rss_mb(std::process::id()), "MB");
    Ok(out)
}

/// The traced run: each layer's public function inside a span.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    const TRACED_BIG: usize = 96;
    const TRACED_SMALL: usize = 384;
    let mut out = Outcome::default();
    let tr = Tracer::new();
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let config = paper_config();
    let circuits = tr.time("circuit.prepare", prepare)?;

    // The untraced pipeline, for bit-equality and the tracing overhead.
    let cache_dir = opts.run_dir.join("kle-cache");
    let t = Instant::now();
    let ctx = build(&kernel, &config, &cache_dir)?;
    let untraced_s = secs(t);
    let t = Instant::now();
    let layered = traced_frontend(
        &tr,
        &kernel,
        &config,
        &opts.run_dir.join("layered-cache"),
        5,
        &mut out,
    )?;
    let traced_s = secs(t);
    check_layered_equals(&mut out, &layered, &ctx.kle, ctx.rank);
    out.attempted += 2;

    let big = tr.time("samplers.gather", || sampler(&ctx, &circuits.big))?;
    let small = sampler(&ctx, &circuits.small)?;
    let cholesky = tr
        .time("samplers.cholesky", || {
            CholeskySampler::new(&kernel, circuits.small.locations())
        })
        .map_err(|e| e.to_string())?;
    let warm = build(&kernel, &config, &cache_dir)?;
    let warm_rows = sampler(&warm, &circuits.big)?;
    check_warm(&mut out, &ctx, &warm, Some((&big, &warm_rows)));

    // Algorithm 2 on s38417, then an Algorithm 1 replay on c7552/2; both
    // must reproduce run_monte_carlo exactly.
    let mut rng = SplitMix::new(opts.seed, 1);
    traced_mc_layers(
        &tr,
        &circuits.big.timer,
        &big,
        4 * layered.mesh.len() * ctx.rank,
        TRACED_BIG,
        rng.next_u64(),
        &mut out,
    )?;
    let seed = rng.next_u64();
    let reference = traced_mc(
        &tr,
        &circuits.small.timer,
        &cholesky,
        "samplers.ref_draw",
        "sta.propagate_ref",
        TRACED_SMALL,
        seed,
    );
    out.checks.record(
        "traced Algorithm 1 loop equals run_monte_carlo",
        bits_equal(
            &reference,
            &mc(&circuits.small, &cholesky, TRACED_SMALL, seed)?,
        ),
    );
    let alg2 = mc(&circuits.small, &small, TRACED_SMALL, rng.next_u64())?;
    out.attempted += 3 * TRACED_SMALL as u64;
    check_outputs(
        &mut out,
        &kernel,
        &ctx,
        &circuits,
        &big,
        (&reference, &alg2),
        opts.seed,
    );

    // The hier layer on s38417 over the paper KLE: one round of edits.
    let partition = tr.time("hier.partition", || {
        Partition::build(&circuits.big_circuit, HIER_BLOCKS)
    });
    let nominal = vec![ParamVector::ZERO; circuits.big.timer.node_count()];
    let edits = EditStream::new(opts.seed, &circuits.big_circuit).round(&nominal);
    traced_hier(
        &tr,
        &circuits.big.timer,
        &big,
        &partition,
        &keys(&kernel, &config).1,
        &edits,
        &mut out,
    )?;

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
        "samplers.cholesky_s",
        layers["samplers.cholesky"].mean_ms() / 1e3,
        "s",
    );
    out.note(
        "samplers.ref_draw_us",
        layers["samplers.ref_draw"].mean_ms() * 1e3,
        "us",
    );

    println!("table1 traced: front end {traced_s:.3} s layered (incl. cache store and 5 reopens) vs {untraced_s:.3} s untraced build_with");
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
