//! Hierarchical SSTA: extract, cache and compose per-block timing
//! models over the shared KLE ξ basis.
//!
//! The flat canonical pass ([`crate::canonical`]) re-propagates the
//! whole circuit on every query. This module exploits the paper's
//! central property — every gate's statistical delay lives in one
//! *shared* low-rank ξ basis — to make timing compositional:
//!
//! 1. **Extract** ([`extract_blocks`]): for each die-region block of a
//!    [`Partition`], run the canonical recurrence restricted to the
//!    block, propagating *term sets* instead of single forms. Each term
//!    is a [`CanonicalForm`] tagged with an optional *origin* — the
//!    boundary (cut) input it is measured from. Intra-block nodes are
//!    eliminated; only boundary-output arcs survive, compressed into a
//!    [`BlockTimingModel`]. Because all blocks share the ξ basis, the
//!    models compose without losing cross-block correlation.
//! 2. **Cache**: a block model is keyed by
//!    [`ArtifactKey::block`]`(region_hash, spectrum)` where
//!    [`region_hash`] folds the block's netlist content hash with its
//!    gate-parameter bits and the basis rank. Editing one gate re-keys
//!    exactly one block; every other block's model is reused verbatim.
//! 3. **Compose** ([`compose`]): stitch the models in global topological
//!    order, substituting each term's origin arrival (an exact canonical
//!    add) and folding parallel terms with `clark_max` at cut nodes.
//!
//! Exactness contract (locked down in `tests/hier_differential.rs`): a
//! boundary node whose fan-in cone never leaves its block reproduces the
//! flat arrival **bitwise** (the extraction replays the exact flat op
//! sequence on a single origin-free term). Nodes downstream of a cut
//! see two bounded approximations — same-origin terms merged with
//! `max(b+x, b+y) ≈ b + clark_max(x, y)`, and origin substitution
//! reordering float ops — so the composed worst σ deviates from flat
//! only at boundary maxes, by a small bounded amount.

use std::collections::HashMap;
use std::sync::Arc;

use crate::canonical::{xi_delay_sens, CanonicalForm};
use crate::{GateFieldSampler, KleFieldSampler, SstaError};
use klest_circuit::{NodeId, Partition};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, BlockArc, BlockTerm, BlockTimingModel};
use klest_runtime::{CancelToken, Cancelled, ShardStatus, Supervisor};
use klest_sta::{IncrementalTimer, ParamVector, Timer};

/// One in-flight term during extraction: a canonical form measured from
/// `origin` (a cut input of the block, `None` = measured from absolute
/// time zero, i.e. the cone never left the block).
#[derive(Debug, Clone)]
struct Term {
    origin: Option<NodeId>,
    form: CanonicalForm,
}

/// Counters from one extraction pass (engine construction or a
/// single-block re-extract after an edit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierStats {
    /// Total blocks in the partition.
    pub blocks: usize,
    /// Models served from the artifact cache.
    pub cache_hits: usize,
    /// Models extracted this pass.
    pub extracted: usize,
    /// Faulted parallel shards recomputed serially.
    pub recovered_serially: usize,
}

/// The composed hierarchical timing picture: canonical arrivals at every
/// boundary (cut-output) and primary-output node, plus the worst form.
#[derive(Debug, Clone)]
pub struct HierReport {
    resolved: HashMap<u32, CanonicalForm>,
    worst: CanonicalForm,
}

impl HierReport {
    /// Canonical arrival at node `id`, if `id` is a boundary or primary
    /// output (intra-block nodes are eliminated during extraction).
    pub fn arrival(&self, id: NodeId) -> Option<&CanonicalForm> {
        self.resolved.get(&(id.index() as u32))
    }

    /// Number of nodes with a composed arrival.
    pub fn resolved_count(&self) -> usize {
        self.resolved.len()
    }

    /// The composed worst-delay form (Clark-max over primary outputs).
    pub fn worst(&self) -> &CanonicalForm {
        &self.worst
    }
}

/// The cache key component identifying block `b`'s timing model:
/// the partition's netlist content hash folded with the block's
/// gate-parameter bits and the ξ-basis rank. Changing any parameter of
/// any gate *in* the block changes the hash; edits elsewhere do not.
pub fn region_hash(partition: &Partition, b: usize, params: &[ParamVector], rank: usize) -> u64 {
    let words = partition
        .nodes(b)
        .iter()
        .flat_map(|id| params[id.index()].0.into_iter().map(f64::to_bits))
        .chain(std::iter::once(rank as u64));
    partition.fold_params(b, words)
}

/// Extracts block `b`'s timing model: the canonical recurrence restricted
/// to the block's nodes, with cut inputs entering as origin-tagged zero
/// forms. Returns boundary-output arcs only.
fn extract_block(
    timer: &Timer,
    kle: &KleFieldSampler,
    partition: &Partition,
    b: usize,
    params: &[ParamVector],
    nominal_slews: &[f64],
    token: &CancelToken,
) -> Result<BlockTimingModel, Cancelled> {
    token.checkpoint("hier/extract")?;
    let dim = 4 * kle.rank();
    let mut terms: HashMap<u32, Vec<Term>> = HashMap::new();
    for &id in partition.nodes(b) {
        let node_terms = match xi_delay_sens(timer, kle, id) {
            None => {
                // Primary input: starts the clock, exactly as in the
                // flat pass.
                vec![Term {
                    origin: None,
                    form: CanonicalForm::constant(0.0, dim),
                }]
            }
            Some(delay_sens) => {
                let dev = CanonicalForm {
                    mean: 0.0,
                    sens: delay_sens,
                    indep: 0.0,
                };
                let mut acc: Vec<Term> = Vec::new();
                for &f in timer.fanins_of(id) {
                    let edge = timer.edge_delay(f, id, nominal_slews, params);
                    let external = [Term {
                        origin: Some(f),
                        form: CanonicalForm::constant(0.0, dim),
                    }];
                    let fanin_terms: &[Term] = if partition.block_of(f) == b {
                        terms
                            .get(&(f.index() as u32))
                            .expect("node ids are topological: fanin precedes fanout")
                    } else {
                        &external
                    };
                    for t in fanin_terms {
                        let mut cand = t.form.clone();
                        cand.shift(edge);
                        cand.add(&dev);
                        // Same-origin terms fold with clark_max — the
                        // bounded approximation max(b+x, b+y) ≈
                        // b + clark_max(x, y). Distinct origins stay
                        // separate, so a node carries at most
                        // |cut_inputs| + 1 terms.
                        match acc.iter_mut().find(|a| a.origin == t.origin) {
                            Some(existing) => {
                                existing.form = CanonicalForm::clark_max(&existing.form, &cand);
                            }
                            None => acc.push(Term {
                                origin: t.origin,
                                form: cand,
                            }),
                        }
                    }
                }
                if acc.is_empty() {
                    vec![Term {
                        origin: None,
                        form: CanonicalForm::constant(0.0, dim),
                    }]
                } else {
                    acc
                }
            }
        };
        terms.insert(id.index() as u32, node_terms);
    }

    // Surviving arcs: cut outputs plus primary circuit outputs living in
    // this block, ascending node order. Everything else is eliminated.
    let mut boundary: Vec<NodeId> = partition.cut_outputs(b).to_vec();
    for &o in timer.outputs() {
        if partition.block_of(o) == b && !boundary.contains(&o) {
            boundary.push(o);
        }
    }
    boundary.sort_by_key(|id| id.index());
    let outputs = boundary
        .iter()
        .map(|id| {
            let node_terms = terms
                .get(&(id.index() as u32))
                .expect("boundary nodes are block members");
            BlockArc {
                node: id.index() as u32,
                terms: node_terms
                    .iter()
                    .map(|t| BlockTerm {
                        origin: t.origin.map(|o| o.index() as u32),
                        mean: t.form.mean,
                        sens: t.form.sens.clone(),
                        indep: t.form.indep,
                    })
                    .collect(),
            }
        })
        .collect();
    Ok(BlockTimingModel { dim, outputs })
}

/// Extracts (or cache-loads) every block's timing model.
///
/// Parallel shards run under a [`Supervisor`] — one shard per missing
/// block, results merged in block order, so the output is
/// bitwise-deterministic for any worker count or interleaving. Shards
/// poll the token at block granularity; a faulted shard is recomputed
/// serially rather than failing the pass. With a cache, warm blocks are
/// served before any extraction runs and fresh models are stored back
/// under their [`region_hash`]-derived key.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] on node-count/length mismatches,
/// [`SstaError::Cancelled`] if the token trips.
pub fn extract_blocks(
    timer: &Timer,
    kle: &KleFieldSampler,
    partition: &Partition,
    params: &[ParamVector],
    cache: Option<(&ArtifactCache, &ArtifactKey)>,
    token: &CancelToken,
) -> Result<(Vec<Arc<BlockTimingModel>>, HierStats), SstaError> {
    let n = timer.node_count();
    if kle.node_count() != n {
        return Err(SstaError::InvalidConfig {
            name: "sampler.node_count",
            value: format!("{} (timer has {n})", kle.node_count()),
        });
    }
    if params.len() != n {
        return Err(SstaError::InvalidConfig {
            name: "params.len",
            value: format!("{} (timer has {n})", params.len()),
        });
    }
    let covered: usize = (0..partition.block_count())
        .map(|b| partition.nodes(b).len())
        .sum();
    if covered != n {
        return Err(SstaError::InvalidConfig {
            name: "partition.node_count",
            value: format!("{covered} (timer has {n})"),
        });
    }
    let nominal = timer.analyze(&vec![ParamVector::ZERO; n]);
    extract_blocks_inner(timer, kle, partition, params, nominal.slews(), cache, token)
}

fn extract_blocks_inner(
    timer: &Timer,
    kle: &KleFieldSampler,
    partition: &Partition,
    params: &[ParamVector],
    nominal_slews: &[f64],
    cache: Option<(&ArtifactCache, &ArtifactKey)>,
    token: &CancelToken,
) -> Result<(Vec<Arc<BlockTimingModel>>, HierStats), SstaError> {
    let _span = klest_obs::span("hier/extract");
    let nblocks = partition.block_count();
    let mut stats = HierStats {
        blocks: nblocks,
        ..HierStats::default()
    };
    let mut models: Vec<Option<Arc<BlockTimingModel>>> = vec![None; nblocks];
    let mut keys: Vec<Option<ArtifactKey>> = vec![None; nblocks];
    if let Some((cache, spectrum)) = cache {
        for b in 0..nblocks {
            let key = ArtifactKey::block(region_hash(partition, b, params, kle.rank()), spectrum);
            if let Some(hit) = cache.lookup_block(&key) {
                models[b] = Some(hit);
                stats.cache_hits += 1;
            }
            keys[b] = Some(key);
        }
    }
    let missing: Vec<usize> = (0..nblocks).filter(|&b| models[b].is_none()).collect();
    if !missing.is_empty() {
        let run = Supervisor::new(token.clone()).run(missing.len(), |shard, tok| {
            extract_block(
                timer,
                kle,
                partition,
                missing[shard],
                params,
                nominal_slews,
                tok,
            )
        });
        for (shard, (result, status)) in run.results.into_iter().zip(run.status).enumerate() {
            let b = missing[shard];
            let model = match result {
                Some(Ok(model)) => model,
                Some(Err(cancelled)) => return Err(SstaError::Cancelled(cancelled)),
                None => {
                    // Shard faulted through its retry budget: recompute
                    // serially — extraction is deterministic, so the
                    // inline pass yields the identical model.
                    debug_assert!(matches!(status, ShardStatus::Faulted { .. }));
                    stats.recovered_serially += 1;
                    extract_block(timer, kle, partition, b, params, nominal_slews, token)?
                }
            };
            let model = Arc::new(model);
            if let (Some((cache, _)), Some(key)) = (cache, &keys[b]) {
                cache.store_block(key, Arc::clone(&model));
            }
            models[b] = Some(model);
            stats.extracted += 1;
        }
    }
    let models = models
        .into_iter()
        .map(|m| m.expect("every block resolved via cache or extraction"))
        .collect();
    Ok((models, stats))
}

/// Stitches per-block models into circuit-level arrivals.
///
/// Boundary nodes are processed in ascending node-id (global
/// topological) order — the block-level dependency graph may be cyclic,
/// the node-level one never is. Each term resolves to its origin's
/// composed arrival plus the term's form (an exact canonical add over
/// the shared ξ basis, so cross-block correlation is preserved);
/// parallel terms fold with `clark_max` in stored order. The worst form
/// is the Clark-max over primary outputs, in the timer's output order —
/// identical fold order to the flat pass.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] if the models disagree on dimension or
/// reference an origin/output no model provides (mixed-partition
/// models).
pub fn compose(models: &[Arc<BlockTimingModel>], timer: &Timer) -> Result<HierReport, SstaError> {
    let _span = klest_obs::span("hier/compose");
    let dim = models.first().map_or(0, |m| m.dim);
    if models.iter().any(|m| m.dim != dim) {
        return Err(SstaError::InvalidConfig {
            name: "models.dim",
            value: "blocks extracted on different ξ bases".into(),
        });
    }
    let mut arcs: Vec<&BlockArc> = models.iter().flat_map(|m| m.outputs.iter()).collect();
    arcs.sort_by_key(|a| a.node);
    let mut resolved: HashMap<u32, CanonicalForm> = HashMap::with_capacity(arcs.len());
    for arc in arcs {
        let mut acc: Option<CanonicalForm> = None;
        for t in &arc.terms {
            let form = CanonicalForm {
                mean: t.mean,
                sens: t.sens.clone(),
                indep: t.indep,
            };
            let value = match t.origin {
                None => form,
                Some(o) => {
                    let Some(base) = resolved.get(&o) else {
                        return Err(SstaError::InvalidConfig {
                            name: "models.origin",
                            value: format!(
                                "term at node {} references unresolved node {o}",
                                arc.node
                            ),
                        });
                    };
                    let mut v = base.clone();
                    v.add(&form);
                    v
                }
            };
            acc = Some(match acc {
                None => value,
                Some(a) => CanonicalForm::clark_max(&a, &value),
            });
        }
        resolved.insert(
            arc.node,
            acc.unwrap_or_else(|| CanonicalForm::constant(0.0, dim)),
        );
    }
    let mut worst: Option<CanonicalForm> = None;
    for &o in timer.outputs() {
        let Some(a) = resolved.get(&(o.index() as u32)) else {
            return Err(SstaError::InvalidConfig {
                name: "models.outputs",
                value: format!("primary output {} missing from every model", o.index()),
            });
        };
        worst = Some(match worst {
            None => a.clone(),
            Some(w) => CanonicalForm::clark_max(&w, a),
        });
    }
    let worst = worst.unwrap_or_else(|| CanonicalForm::constant(0.0, dim));
    Ok(HierReport { resolved, worst })
}

/// The hierarchical timing engine: cached block models in front, the
/// exact scalar [`IncrementalTimer`] as the intra-block engine behind
/// them.
///
/// Construction extracts (or cache-loads) every block and composes the
/// circuit-level report. [`edit_gate`](Self::edit_gate) applies a
/// one-gate parameter change: the scalar engine re-times the fan-out
/// cone incrementally, and because [`region_hash`] folds parameter bits
/// into the cache key, exactly one block's model is invalidated and
/// re-extracted — every other block is a cache hit.
pub struct HierEngine<'a> {
    timer: &'a Timer,
    kle: &'a KleFieldSampler,
    partition: &'a Partition,
    cache: Option<(&'a ArtifactCache, ArtifactKey)>,
    params: Vec<ParamVector>,
    nominal_slews: Vec<f64>,
    models: Vec<Arc<BlockTimingModel>>,
    report: HierReport,
    scalar: IncrementalTimer<'a>,
    last_stats: HierStats,
}

impl std::fmt::Debug for HierEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ArtifactCache is deliberately opaque; summarize the rest.
        f.debug_struct("HierEngine")
            .field("blocks", &self.models.len())
            .field("cached", &self.cache.is_some())
            .field("worst_mean", &self.report.worst().mean)
            .field("last_stats", &self.last_stats)
            .finish_non_exhaustive()
    }
}

impl<'a> HierEngine<'a> {
    /// Builds the engine: full block extraction (cache-accelerated when
    /// `cache` is given) plus the initial composition.
    ///
    /// # Errors
    ///
    /// [`SstaError::InvalidConfig`] on node-count/length mismatches,
    /// [`SstaError::Cancelled`] if the token trips mid-extraction.
    pub fn new(
        timer: &'a Timer,
        kle: &'a KleFieldSampler,
        partition: &'a Partition,
        params: Vec<ParamVector>,
        cache: Option<(&'a ArtifactCache, ArtifactKey)>,
        token: &CancelToken,
    ) -> Result<Self, SstaError> {
        let scalar =
            IncrementalTimer::new(timer, params.clone()).map_err(|e| SstaError::InvalidConfig {
                name: "params.len",
                value: e.to_string(),
            })?;
        let n = timer.node_count();
        let nominal = timer.analyze(&vec![ParamVector::ZERO; n]);
        let nominal_slews = nominal.slews().to_vec();
        let (models, last_stats) = extract_blocks(
            timer,
            kle,
            partition,
            &params,
            cache.as_ref().map(|(c, k)| (*c, k)),
            token,
        )?;
        let report = compose(&models, timer)?;
        Ok(HierEngine {
            timer,
            kle,
            partition,
            cache,
            params,
            nominal_slews,
            models,
            report,
            scalar,
            last_stats,
        })
    }

    /// The current composed report.
    pub fn report(&self) -> &HierReport {
        &self.report
    }

    /// The composed worst-delay form.
    pub fn worst(&self) -> &CanonicalForm {
        self.report.worst()
    }

    /// The exact scalar worst delay at the current parameters (from the
    /// intra-block incremental engine).
    pub fn scalar_worst(&self) -> f64 {
        self.scalar.worst_delay()
    }

    /// Current per-node parameters.
    pub fn params(&self) -> &[ParamVector] {
        &self.params
    }

    /// Counters from the most recent extraction pass (construction or
    /// the last [`edit_gate`](Self::edit_gate)).
    pub fn last_stats(&self) -> HierStats {
        self.last_stats
    }

    /// Applies a one-gate parameter edit and re-times.
    ///
    /// The scalar fan-out cone is re-propagated incrementally; the
    /// edited gate's block is re-keyed (its [`region_hash`] changes) and
    /// re-extracted or cache-loaded, the other blocks' models are reused
    /// as-is, and the composition is re-run. Returns the new composed
    /// worst form.
    ///
    /// # Errors
    ///
    /// [`SstaError::InvalidConfig`] if `id` is out of range (state
    /// untouched), [`SstaError::Cancelled`] if the token trips.
    pub fn edit_gate(
        &mut self,
        id: NodeId,
        p: ParamVector,
        token: &CancelToken,
    ) -> Result<&CanonicalForm, SstaError> {
        self.scalar
            .update(&[(id, p)])
            .map_err(|e| SstaError::InvalidConfig {
                name: "edit.node",
                value: e.to_string(),
            })?;
        self.params[id.index()] = p;
        let b = self.partition.block_of(id);
        let mut stats = HierStats {
            blocks: self.partition.block_count(),
            ..HierStats::default()
        };
        let model = match &self.cache {
            Some((cache, spectrum)) => {
                let key = ArtifactKey::block(
                    region_hash(self.partition, b, &self.params, self.kle.rank()),
                    spectrum,
                );
                match cache.lookup_block(&key) {
                    Some(hit) => {
                        stats.cache_hits = 1;
                        hit
                    }
                    None => {
                        let model = Arc::new(extract_block(
                            self.timer,
                            self.kle,
                            self.partition,
                            b,
                            &self.params,
                            &self.nominal_slews,
                            token,
                        )?);
                        cache.store_block(&key, Arc::clone(&model));
                        stats.extracted = 1;
                        model
                    }
                }
            }
            None => {
                stats.extracted = 1;
                Arc::new(extract_block(
                    self.timer,
                    self.kle,
                    self.partition,
                    b,
                    &self.params,
                    &self.nominal_slews,
                    token,
                )?)
            }
        };
        self.models[b] = model;
        self.report = compose(&self.models, self.timer)?;
        self.last_stats = stats;
        Ok(self.report.worst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::{analyze_canonical, analyze_canonical_with};
    use crate::experiments::{CircuitSetup, KleContext};
    use klest_circuit::{generate, GeneratorConfig};
    use klest_kernels::GaussianKernel;

    fn setup(gates: usize, seed: u64) -> (CircuitSetup, KleContext, klest_circuit::Circuit) {
        let circuit = generate("hier", GeneratorConfig::combinational(gates, seed)).unwrap();
        let setup = CircuitSetup::prepare(&circuit);
        let kernel = GaussianKernel::new(2.0);
        let ctx = KleContext::coarse(&kernel).unwrap();
        (setup, ctx, circuit)
    }

    #[test]
    fn single_block_engine_is_bitwise_flat() {
        let (setup, ctx, circuit) = setup(120, 7);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 1);
        let flat = analyze_canonical(&setup.timer, &sampler).unwrap();
        let token = CancelToken::unlimited();
        let engine = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            None,
            &token,
        )
        .unwrap();
        // One block, no cuts: the extraction replays the flat op
        // sequence exactly, so composition is bitwise-equal.
        assert_eq!(engine.worst(), flat.worst());
        for &o in setup.timer.outputs() {
            assert_eq!(engine.report().arrival(o).unwrap(), flat.arrival(o));
        }
        assert_eq!(engine.last_stats().extracted, 1);
        assert_eq!(engine.last_stats().blocks, 1);
    }

    #[test]
    fn multi_block_engine_tracks_flat_closely() {
        let (setup, ctx, circuit) = setup(300, 11);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 6);
        assert!(
            partition.cut_node_count() > 0,
            "partition must cut something"
        );
        let flat = analyze_canonical(&setup.timer, &sampler).unwrap();
        let token = CancelToken::unlimited();
        let engine = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            None,
            &token,
        )
        .unwrap();
        let (fw, hw) = (flat.worst(), engine.worst());
        assert!(
            (fw.mean - hw.mean).abs() <= 0.02 * fw.mean.abs().max(1e-9),
            "mean drifted: flat {} hier {}",
            fw.mean,
            hw.mean
        );
        assert!(
            (fw.sigma() - hw.sigma()).abs() <= 0.05 * fw.sigma().max(1e-12),
            "sigma drifted: flat {} hier {}",
            fw.sigma(),
            hw.sigma()
        );
    }

    #[test]
    fn edit_rekeys_exactly_one_block() {
        let (setup, ctx, circuit) = setup(200, 3);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 4);
        let cache = ArtifactCache::new();
        let spectrum = test_spectrum_key();
        let token = CancelToken::unlimited();
        let mut engine = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            Some((&cache, spectrum.clone())),
            &token,
        )
        .unwrap();
        let cold = cache.snapshot();
        assert_eq!(cold.block_misses, 4, "{cold:?}");
        // A warm rebuild hits every block.
        let rebuilt = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            Some((&cache, spectrum.clone())),
            &token,
        )
        .unwrap();
        assert_eq!(rebuilt.last_stats().cache_hits, 4);
        assert_eq!(rebuilt.worst(), engine.worst());
        // One gate edit invalidates exactly one block artifact.
        let victim = NodeId((circuit.input_count() + 3) as u32);
        let before = cache.snapshot();
        engine
            .edit_gate(victim, ParamVector::new([1.0, -0.5, 0.7, 0.2]), &token)
            .unwrap();
        let after = cache.snapshot();
        assert_eq!(after.block_misses - before.block_misses, 1, "one re-key");
        assert_eq!(engine.last_stats().extracted, 1);
        // The edit matches the parameterized flat reference within the
        // boundary-max tolerance; the scalar engine stays exact.
        let mut params = vec![ParamVector::ZERO; circuit.node_count()];
        params[victim.index()] = ParamVector::new([1.0, -0.5, 0.7, 0.2]);
        let flat = analyze_canonical_with(&setup.timer, &sampler, &params).unwrap();
        let (fw, hw) = (flat.worst(), engine.worst());
        assert!((fw.mean - hw.mean).abs() <= 0.02 * fw.mean.abs().max(1e-9));
        assert_eq!(
            engine.scalar_worst(),
            setup.timer.analyze(&params).worst_delay()
        );
        // Editing back to nominal re-uses the original block artifact.
        let before = cache.snapshot();
        engine.edit_gate(victim, ParamVector::ZERO, &token).unwrap();
        let after = cache.snapshot();
        assert_eq!(after.block_hits - before.block_hits, 1, "revert is a hit");
        assert_eq!(engine.worst(), rebuilt.worst());
    }

    #[test]
    fn out_of_range_edit_is_typed_and_state_untouched() {
        let (setup, ctx, circuit) = setup(80, 5);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 3);
        let token = CancelToken::unlimited();
        let mut engine = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            None,
            &token,
        )
        .unwrap();
        let before = engine.worst().clone();
        let bogus = NodeId(circuit.node_count() as u32);
        let err = engine
            .edit_gate(bogus, ParamVector::new([1.0; 4]), &token)
            .expect_err("out-of-range edit must be rejected");
        assert!(matches!(err, SstaError::InvalidConfig { .. }));
        assert_eq!(engine.worst(), &before);
    }

    #[test]
    fn cancelled_extraction_surfaces_typed() {
        let (setup, ctx, circuit) = setup(100, 2);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 4);
        let token = CancelToken::unlimited();
        token.cancel();
        let err = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count()],
            None,
            &token,
        )
        .expect_err("pre-tripped token must cancel extraction");
        assert!(matches!(err, SstaError::Cancelled(_)));
    }

    #[test]
    fn length_mismatches_are_typed() {
        let (setup, ctx, circuit) = setup(60, 1);
        let sampler =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).unwrap();
        let partition = Partition::build(&circuit, 2);
        let token = CancelToken::unlimited();
        let err = HierEngine::new(
            &setup.timer,
            &sampler,
            &partition,
            vec![ParamVector::ZERO; circuit.node_count() - 1],
            None,
            &token,
        )
        .expect_err("short params must be rejected");
        assert!(matches!(err, SstaError::InvalidConfig { .. }));
        // Partition over a different circuit: node coverage mismatch.
        let other = generate("other", GeneratorConfig::combinational(30, 9)).unwrap();
        let foreign = Partition::build(&other, 2);
        let err = extract_blocks(
            &setup.timer,
            &sampler,
            &foreign,
            &vec![ParamVector::ZERO; circuit.node_count()],
            None,
            &token,
        )
        .expect_err("foreign partition must be rejected");
        assert!(matches!(err, SstaError::InvalidConfig { .. }));
    }

    fn test_spectrum_key() -> ArtifactKey {
        use klest_core::{EigenSolver, QuadratureRule};
        use klest_geometry::Rect;
        use klest_kernels::CovarianceKernel;
        let mesh = ArtifactKey::mesh(Rect::unit_die(), 0.02, 25.0);
        let galerkin = ArtifactKey::galerkin(
            &mesh,
            &GaussianKernel::new(2.0).cache_key().unwrap(),
            QuadratureRule::Centroid,
        );
        ArtifactKey::spectrum(&galerkin, EigenSolver::Full, 200)
    }
}
