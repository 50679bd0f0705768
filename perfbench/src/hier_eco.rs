//! `hier-eco`: the circuit `klest hier` generates, at s13207's size,
//! split into 32 blocks and timed over an r = 25 KLE of the paper's
//! kernel built at a coarse mesh in set-up. The timed phase builds the
//! engine cold from nominal parameters (every block extracted and
//! composed; `cold_s`), then accumulates a seeded sequence of one-gate
//! `HierEngine::edit_gate` edits in rounds of five (`queries_per_s`,
//! `query_p95_ms`): four new edits (each extracts its block and writes it
//! to the block cache) and one revert of the fourth (its block state is
//! already cached, so the cache answers it without extraction). Every
//! fourth round another engine is built cold on an empty cache.

use crate::checks::{bits_equal, count_equals, hier_band, Check};
use crate::layers::{
    check_layered_equals, frontend, keys, secs, traced_frontend, traced_hier, traced_mc_layers,
    worst_bits, HierEdit,
};
use crate::stats::{median, min_count_for, per_second, tail_percentile, SplitMix, Strata};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Opts, Outcome};
use klest_circuit::{generate, Circuit, GeneratorConfig, NodeId, Partition};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, ExecPolicy};
use klest_core::TruncationCriterion;
use klest_kernels::GaussianKernel;
use klest_runtime::CancelToken;
use klest_ssta::canonical::{analyze_canonical_with, CanonicalForm};
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::hier::HierEngine;
use klest_ssta::KleFieldSampler;
use klest_sta::ParamVector;
use std::time::Instant;

/// s13207's gate count.
const GATES: usize = 7951;
/// `klest hier`'s default generator seed.
const CIRCUIT_SEED: u64 = 7;
const BLOCKS: usize = 32;
/// Coarse mesh for the shared ξ basis (r = 25 at this resolution).
const AREA_FRACTION: f64 = 0.005;
/// New edits per round; each round then reverts its last edit.
const NEW_PER_ROUND: usize = 4;
/// Rounds of edits from one cold construction to the next (the edits'
/// p95 needs 40 rounds, so every run makes at least ten).
const ROUNDS_PER_COLD: usize = 4;
/// Monte Carlo samples of the traced run's replay on this circuit.
const TRACED_SAMPLES: usize = 200;

/// The seeded edit stream: rounds of four new one-gate edits, then a
/// revert of the fourth. New edits visit `BLOCKS` equal ranges of gate
/// ids (blocks are contiguous in topological order) in a seeded order, a
/// random gate and strength in each, so every run edits every region
/// equally often and the edit-time distribution does not hinge on which
/// blocks a seed happens to favour.
pub struct EditStream {
    rng: SplitMix,
    gates: Strata,
}

impl EditStream {
    pub fn new(seed: u64, circuit: &Circuit) -> EditStream {
        EditStream {
            rng: SplitMix::new(seed, 2),
            gates: Strata::new(circuit.input_count(), circuit.gate_count(), BLOCKS),
        }
    }

    /// The next round of five edits, given the current parameters.
    pub fn round(&mut self, current: &[ParamVector]) -> Vec<HierEdit> {
        let mut edits: Vec<HierEdit> = (0..NEW_PER_ROUND)
            .map(|_| {
                let gate = self.gates.next(&mut self.rng);
                let s = 2.0 * self.rng.uniform() - 1.0;
                let params = ParamVector::new([s, -0.5 * s, 0.25 * s, 0.1 * s]);
                HierEdit {
                    gate,
                    params,
                    revert: false,
                }
            })
            .collect();
        // The revert restores the value the fourth edit replaced, which an
        // earlier edit of the same round may have set.
        let gate = edits[NEW_PER_ROUND - 1].gate;
        let before = edits[..NEW_PER_ROUND - 1]
            .iter()
            .rev()
            .find(|e| e.gate == gate)
            .map_or(current[gate], |e| e.params);
        edits.push(HierEdit {
            gate,
            params: before,
            revert: true,
        });
        edits
    }
}

struct Fixture {
    circuit: Circuit,
    setup: CircuitSetup,
    sampler: KleFieldSampler,
    partition: Partition,
}

fn generate_circuit() -> Result<Circuit, String> {
    generate(
        format!("hier{GATES}"),
        GeneratorConfig::combinational(GATES, CIRCUIT_SEED),
    )
    .map_err(|e| format!("generator: {e}"))
}

/// The accumulated result must equal, bit for bit, an engine built from
/// scratch without a cache on the same parameters.
fn scratch_check(f: &Fixture, params: &[ParamVector], worst: &CanonicalForm) -> Check {
    let token = CancelToken::unlimited();
    let scratch = HierEngine::new(
        &f.setup.timer,
        &f.sampler,
        &f.partition,
        params.to_vec(),
        None,
        &token,
    )
    .map_err(|e| format!("scratch engine: {e}"))?;
    bits_equal(&worst_bits(worst), &worst_bits(scratch.worst()))
}

/// The accumulated result must lie within the hier band of a flat
/// canonical pass on the same parameters.
fn flat_check(f: &Fixture, params: &[ParamVector], worst: &CanonicalForm) -> Check {
    let flat = analyze_canonical_with(&f.setup.timer, &f.sampler, params)
        .map_err(|e| format!("flat pass: {e}"))?;
    hier_band(
        (worst.mean, worst.sigma()),
        (flat.worst().mean, flat.worst().sigma()),
    )
}

fn final_checks(out: &mut Outcome, f: &Fixture, params: &[ParamVector], worst: &CanonicalForm) {
    out.checks.record(
        "edited worst within 2%/5% of a flat pass",
        flat_check(f, params, worst),
    );
    out.checks.record(
        "edited worst equals a from-scratch engine bit for bit",
        scratch_check(f, params, worst),
    );
}

/// A fresh engine from nominal parameters on `cache`: every block
/// extracted and composed. Returns it with its construction time.
fn cold_engine<'a>(
    f: &'a Fixture,
    cache: &'a ArtifactCache,
    key: &ArtifactKey,
    token: &CancelToken,
) -> Result<(HierEngine<'a>, f64), String> {
    let nominal = vec![ParamVector::ZERO; f.circuit.node_count()];
    let t = Instant::now();
    let engine = HierEngine::new(
        &f.setup.timer,
        &f.sampler,
        &f.partition,
        nominal,
        Some((cache, key.clone())),
        token,
    )
    .map_err(|e| format!("cold construction: {e}"))?;
    Ok((engine, secs(t)))
}

/// The untraced run: every end-to-end metric of `hier-eco`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let config = frontend(AREA_FRACTION, TruncationCriterion::default());
    let circuit = generate_circuit()?;
    let setup = CircuitSetup::prepare(&circuit);
    let ctx = KleContext::build_with(&kernel, &config, ExecPolicy::Plain, None)
        .map_err(|e| e.to_string())?;
    let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        .map_err(|e| e.to_string())?;
    let partition = Partition::build(&circuit, BLOCKS);
    let f = Fixture {
        circuit,
        setup,
        sampler,
        partition,
    };
    let (_, spectrum_key) = keys(&kernel, &config);
    let token = CancelToken::unlimited();
    let setup_s = secs(opts.started);

    let cache = ArtifactCache::new();
    let phase = Instant::now();
    let (mut engine, first_s) = cold_engine(&f, &cache, &spectrum_key, &token)?;
    let nominal_worst = worst_bits(engine.worst());
    let mut cold_s = vec![first_s];
    out.attempted += 1;
    let mut stream = EditStream::new(opts.seed, &f.circuit);
    let min_edits = min_count_for(0.95);
    let mut times = Vec::new();
    let mut rss_mb = None;
    let mut rounds = 0;
    while times.len() < min_edits || secs(phase) < opts.seconds {
        if rounds > 0 && rounds % ROUNDS_PER_COLD == 0 {
            let scratch = ArtifactCache::new();
            let (fresh, s) = cold_engine(&f, &scratch, &spectrum_key, &token)?;
            cold_s.push(s);
            out.attempted += 1;
            out.checks.record(
                "every cold construction composes the same nominal worst",
                bits_equal(&worst_bits(fresh.worst()), &nominal_worst),
            );
        }
        for edit in stream.round(engine.params()) {
            let t = Instant::now();
            engine
                .edit_gate(NodeId(edit.gate as u32), edit.params, &token)
                .map_err(|e| format!("edit of gate {}: {e}", edit.gate))?;
            times.push(secs(t) * 1e3);
            out.attempted += 1;
            let stats = engine.last_stats();
            let outcome = if edit.revert {
                count_equals("cache hits of a revert", stats.cache_hits as u64, 1).and(
                    count_equals("extractions of a revert", stats.extracted as u64, 0),
                )
            } else {
                count_equals("extractions of a new edit", stats.extracted as u64, 1)
            };
            out.checks
                .record("block cache reads reverts and extracts new edits", outcome);
            if times.len() == min_edits {
                // Every stored block model stays cached, so memory grows
                // with the edit count: read it at a fixed amount of work.
                rss_mb = Some(peak_rss_mb(std::process::id()));
            }
        }
        rounds += 1;
    }
    final_checks(&mut out, &f, engine.params(), engine.worst());

    out.metric("setup_s", setup_s, "s");
    out.metric("cold_s", median(&cold_s), "s");
    out.metric("queries_per_s", per_second(&times), "1/s");
    out.metric(
        "query_p95_ms",
        tail_percentile(&times, 0.95).ok_or("fewer edits than the p95 needs")?,
        "ms",
    );
    out.metric(
        "peak_rss_mb",
        rss_mb.ok_or("fewer edits than the memory reading needs")?,
        "MB",
    );
    Ok(out)
}

/// The traced run: front end, a Monte Carlo replay on this circuit,
/// partition, cold extraction, composition, and edits split into their
/// extraction and composition.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    const TRACED_ROUNDS: usize = 6;
    let mut out = Outcome::default();
    let tr = Tracer::new();
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let config = frontend(AREA_FRACTION, TruncationCriterion::default());
    let (circuit, setup) = tr.time("circuit.prepare", || {
        generate_circuit().map(|c| {
            let s = CircuitSetup::prepare(&c);
            (c, s)
        })
    })?;
    let ctx = KleContext::build_with(&kernel, &config, ExecPolicy::Plain, None)
        .map_err(|e| e.to_string())?;
    let layered = traced_frontend(
        &tr,
        &kernel,
        &config,
        &opts.run_dir.join("layered-cache"),
        5,
        &mut out,
    )?;
    check_layered_equals(&mut out, &layered, &ctx.kle, ctx.rank);
    let sampler = tr
        .time("samplers.gather", || {
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
        })
        .map_err(|e| e.to_string())?;
    let mut rng = SplitMix::new(opts.seed, 1);
    traced_mc_layers(
        &tr,
        &setup.timer,
        &sampler,
        4 * layered.mesh.len() * ctx.rank,
        TRACED_SAMPLES,
        rng.next_u64(),
        &mut out,
    )?;
    let partition = tr.time("hier.partition", || Partition::build(&circuit, BLOCKS));
    let f = Fixture {
        circuit,
        setup,
        sampler,
        partition,
    };

    // The edits the untraced run would make first, generated up front.
    let mut stream = EditStream::new(opts.seed, &f.circuit);
    let mut params = vec![ParamVector::ZERO; f.circuit.node_count()];
    let mut edits = Vec::new();
    for _ in 0..TRACED_ROUNDS {
        for edit in stream.round(&params) {
            params[edit.gate] = edit.params;
            edits.push(edit);
        }
    }
    let (params, worst) = traced_hier(
        &tr,
        &f.setup.timer,
        &f.sampler,
        &f.partition,
        &keys(&kernel, &config).1,
        &edits,
        &mut out,
    )?;
    final_checks(&mut out, &f, &params, &worst);
    let flat_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = analyze_canonical_with(&f.setup.timer, &f.sampler, &params);
            secs(t) * 1e3
        })
        .collect();

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

    println!(
        "hier-eco traced: flat canonical pass {:.1} ms (median of 5), the re-time an edit must beat",
        median(&flat_ms)
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

    fn small_fixture() -> Fixture {
        let circuit = generate("hier300", GeneratorConfig::combinational(300, 11)).unwrap();
        let setup = CircuitSetup::prepare(&circuit);
        let ctx = KleContext::coarse(&GaussianKernel::with_correlation_distance(1.0)).unwrap();
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 4);
        Fixture {
            circuit,
            setup,
            sampler,
            partition,
        }
    }

    #[test]
    fn checks_reject_a_result_with_one_edit_dropped() {
        let f = small_fixture();
        let token = CancelToken::unlimited();
        let nominal = vec![ParamVector::ZERO; f.circuit.node_count()];
        let cache = ArtifactCache::new();
        let key =
            klest_core::pipeline::ArtifactKey::mesh(klest_geometry::Rect::unit_die(), 0.02, 25.0);
        let mut engine = HierEngine::new(
            &f.setup.timer,
            &f.sampler,
            &f.partition,
            nominal,
            Some((&cache, key)),
            &token,
        )
        .unwrap();
        let mut stream = EditStream::new(3, &f.circuit);
        let mut applied = Vec::new();
        for edit in stream.round(engine.params()) {
            engine
                .edit_gate(NodeId(edit.gate as u32), edit.params, &token)
                .unwrap();
            applied.push(edit);
            assert_eq!(
                engine.last_stats().cache_hits,
                usize::from(edit.revert),
                "{edit:?}"
            );
        }
        // One more edit, at the critical output gate, so it must show in
        // the composed worst delay.
        let critical = f
            .setup
            .timer
            .analyze(engine.params())
            .critical_output()
            .unwrap();
        engine
            .edit_gate(critical, ParamVector::new([1.0, -0.5, 0.25, 0.1]), &token)
            .unwrap();
        let params = engine.params().to_vec();
        assert!(scratch_check(&f, &params, engine.worst()).is_ok());
        assert!(flat_check(&f, &params, engine.worst()).is_ok());

        // Drop that edit: the from-scratch engine no longer agrees.
        let mut dropped = params.clone();
        dropped[critical.index()] = ParamVector::ZERO;
        assert!(scratch_check(&f, &dropped, engine.worst()).is_err());
        assert_eq!(applied.len(), NEW_PER_ROUND + 1);
    }

    #[test]
    fn flat_check_rejects_a_shifted_mean() {
        let f = small_fixture();
        let params = vec![ParamVector::ZERO; f.circuit.node_count()];
        let flat = analyze_canonical_with(&f.setup.timer, &f.sampler, &params).unwrap();
        let mut worst = flat.worst().clone();
        assert!(flat_check(&f, &params, &worst).is_ok());
        worst.mean *= 1.03;
        assert!(flat_check(&f, &params, &worst).is_err());
    }

    #[test]
    fn edit_stream_is_seeded_and_reverts_its_fourth_edit() {
        let f = small_fixture();
        let params = vec![ParamVector::ZERO; f.circuit.node_count()];
        let a = EditStream::new(9, &f.circuit).round(&params);
        let b = EditStream::new(9, &f.circuit).round(&params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), NEW_PER_ROUND + 1);
        assert!(a[NEW_PER_ROUND].revert && a[NEW_PER_ROUND].gate == a[NEW_PER_ROUND - 1].gate);
        assert!(a
            .iter()
            .all(|e| e.gate >= f.circuit.input_count() && e.gate < f.circuit.node_count()));
    }
}
