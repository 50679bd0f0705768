//! The KLE front-end as a typed stage graph with a content-addressed
//! artifact cache.
//!
//! The paper's central economics (Sec. 5.3, Table 2) are that the
//! front-end — mesh → Galerkin assembly → eigensolve → truncation — is
//! computed **once** and amortized across every downstream SSTA query.
//! This module makes that structure explicit instead of ad hoc:
//!
//! - [`Stage`] is a typed pipeline node (`mesh/build`,
//!   `galerkin/assemble`, `galerkin/eigensolve`, `truncate`); each knows
//!   its obs name and which wall-clock stage budget governs it.
//! - [`Engine`] executes stages under an [`ExecPolicy`]: `Plain` runs
//!   them bare (no token, bitwise the historical strict path), while
//!   `Supervised` derives a child [`CancelToken`] per budget key so
//!   cancellation checkpoints are injected by the engine, not
//!   copy-pasted per caller.
//! - [`run_frontend`] wires the stages into the canonical dataflow —
//!   including the supervised mesh-coarsening ladder — and consults an
//!   optional [`ArtifactCache`] between stages, so the mesh, assembled
//!   Galerkin matrix and computed spectrum are each built at most once
//!   per distinct configuration and shared across MC arms, sweep points
//!   and (with a disk directory) repeated CLI invocations.
//!
//! # Keys, invalidation and the determinism contract
//!
//! Artifacts are addressed by [`ArtifactKey`]: a human-readable
//! descriptor embedding every input that influences the artifact's
//! *bits* — die rectangle, mesh max-area and min-angle, the kernel's
//! [`CovarianceKernel::cache_key`] (exact parameter bits), quadrature
//! rule, eigensolver choice and eigenpair cap — each `f64` encoded as
//! its IEEE-754 bit pattern, so a one-ULP parameter change is a
//! different key. There is no invalidation protocol: keys are
//! content-addressed, so "stale" entries are simply never looked up
//! again. A cache hit returns an artifact **bitwise identical** to what
//! recomputation would produce; this holds for the in-memory layer
//! trivially (the artifact is shared) and for the disk layer because
//! every float is serialized as its exact bit pattern and
//! [`Mesh`] reconstruction recomputes derived quantities through the
//! same code path the builder used. Kernels whose `cache_key()` is
//! `None` opt out: the pipeline silently bypasses the cache. The
//! truncation stage is always recomputed — it is O(m) and depends on the
//! caller's [`TruncationCriterion`], which deliberately stays out of the
//! spectrum key so criterion sweeps share one spectrum.

use crate::{
    assemble_galerkin_parallel, assemble_galerkin_parallel_with_token, EigenSolver, GalerkinKle,
    KleError, KleOptions, QuadratureRule, TruncationCriterion,
};
use klest_geometry::{Point2, Rect};
use klest_kernels::CovarianceKernel;
use klest_linalg::Matrix;
use klest_mesh::{Mesh, MeshBuilder, MeshError};
use klest_runtime::{durable, fnv1a64, Budget, CancelToken, Cancelled, StageBudgets};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Stage graph
// ---------------------------------------------------------------------------

/// A typed pipeline node: consumes `I`, produces `Self::Output`.
///
/// Stages never derive their own cancellation tokens — the [`Engine`]
/// does that from [`Stage::budget_key`] and the active [`ExecPolicy`],
/// which is what lets one dataflow serve the plain, with-report and
/// supervised execution modes.
pub trait Stage<I> {
    /// What the stage produces on success.
    type Output;
    /// The stage's typed failure.
    type Error;
    /// Stable stage name (matches the obs span the stage emits).
    fn name(&self) -> &'static str;
    /// Which named wall-clock budget governs this stage under a
    /// supervised policy (`None` = the parent's own budget).
    fn budget_key(&self) -> Option<&'static str> {
        None
    }
    /// Runs the stage. `token`, when present, must be polled at the
    /// stage's cancellation checkpoints.
    ///
    /// # Errors
    ///
    /// The stage's typed error, including cancellation where supported.
    fn run(&self, input: I, token: Option<&CancelToken>) -> Result<Self::Output, Self::Error>;
}

/// How the [`Engine`] executes stages.
#[derive(Clone, Copy)]
pub enum ExecPolicy<'a> {
    /// No tokens, no budgets: stages run exactly like the historical
    /// strict entry points (bitwise identical outputs).
    Plain,
    /// Deadline-aware: each stage runs under a child of `token` carrying
    /// the stage's named budget from `budgets` (unlimited for stages with
    /// no entry), so one straggling stage cannot starve its siblings.
    Supervised {
        /// Parent token; every stage child is clamped by its deadline.
        token: &'a CancelToken,
        /// Per-stage wall-clock budgets.
        budgets: &'a StageBudgets,
    },
}

impl ExecPolicy<'_> {
    /// Is this a supervised (token-carrying) policy?
    pub fn is_supervised(&self) -> bool {
        matches!(self, ExecPolicy::Supervised { .. })
    }

    /// Derives the token a stage with budget key `key` runs under:
    /// `None` for a plain policy, otherwise a fresh child carrying the
    /// named budget (unlimited when `key` is `None` or has no entry, but
    /// still clamped by the parent deadline).
    pub fn stage_token(&self, key: Option<&'static str>) -> Option<CancelToken> {
        match self {
            ExecPolicy::Plain => None,
            ExecPolicy::Supervised { token, budgets } => Some(match key {
                Some(key) => token.child(budgets.budget(key)),
                None => token.child(Budget::UNLIMITED),
            }),
        }
    }

    /// Is the parent token already cancelled? (Always `false` for plain.)
    pub fn parent_cancelled(&self) -> bool {
        match self {
            ExecPolicy::Plain => false,
            ExecPolicy::Supervised { token, .. } => token.is_cancelled(),
        }
    }

    fn budget_limit(&self, key: &str) -> Option<Duration> {
        match self {
            ExecPolicy::Plain => None,
            ExecPolicy::Supervised { budgets, .. } => budgets.budget(key).limit(),
        }
    }
}

/// Executes [`Stage`]s under one [`ExecPolicy`].
pub struct Engine<'a> {
    policy: ExecPolicy<'a>,
}

impl<'a> Engine<'a> {
    /// An engine with the given policy.
    pub fn new(policy: ExecPolicy<'a>) -> Self {
        Engine { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> &ExecPolicy<'a> {
        &self.policy
    }

    /// Runs `stage`, deriving a fresh stage token from its budget key.
    ///
    /// # Errors
    ///
    /// The stage's typed error.
    pub fn exec<I, S: Stage<I>>(&self, stage: &S, input: I) -> Result<S::Output, S::Error> {
        let token = self.policy.stage_token(stage.budget_key());
        stage.run(input, token.as_ref())
    }

    /// Runs `stage` under a caller-managed token — used when several
    /// stages must share one budget window (historically, Galerkin
    /// assembly and the eigensolve share the `eigen` budget).
    ///
    /// # Errors
    ///
    /// The stage's typed error.
    pub fn exec_with<I, S: Stage<I>>(
        &self,
        stage: &S,
        input: I,
        token: Option<&CancelToken>,
    ) -> Result<S::Output, S::Error> {
        stage.run(input, token)
    }
}

/// Quality-mesh generation over the die ([`MeshBuilder`]).
pub struct MeshStage {
    /// The die rectangle.
    pub die: Rect,
    /// Maximum triangle area as a fraction of the die area.
    pub max_area_fraction: f64,
    /// Ruppert minimum-angle constraint, degrees.
    pub min_angle_degrees: f64,
}

impl Stage<()> for MeshStage {
    type Output = Mesh;
    type Error = MeshError;

    fn name(&self) -> &'static str {
        "mesh/build"
    }

    fn budget_key(&self) -> Option<&'static str> {
        Some("mesh")
    }

    fn run(&self, _input: (), token: Option<&CancelToken>) -> Result<Mesh, MeshError> {
        let builder = MeshBuilder::new(self.die)
            .max_area_fraction(self.max_area_fraction)
            .min_angle_degrees(self.min_angle_degrees);
        match token {
            Some(token) => builder.build_with_token(token),
            None => builder.build(),
        }
    }
}

/// Galerkin matrix assembly (serial or supervised-parallel; bitwise
/// identical either way).
pub struct AssembleStage<'k, K: ?Sized> {
    /// The covariance kernel.
    pub kernel: &'k K,
    /// Quadrature rule for the double integrals.
    pub quadrature: QuadratureRule,
    /// Worker threads (`0` = auto, see
    /// [`crate::resolve_assembly_threads`]).
    pub threads: usize,
}

impl<K: CovarianceKernel + ?Sized> Stage<&Mesh> for AssembleStage<'_, K> {
    type Output = Matrix;
    type Error = KleError;

    fn name(&self) -> &'static str {
        "galerkin/assemble"
    }

    fn budget_key(&self) -> Option<&'static str> {
        // Assembly and the eigensolve historically share one wall-clock
        // window; see `run_frontend`.
        Some("eigen")
    }

    fn run(&self, mesh: &Mesh, token: Option<&CancelToken>) -> Result<Matrix, KleError> {
        match token {
            Some(token) => Ok(assemble_galerkin_parallel_with_token(
                mesh,
                self.kernel,
                self.quadrature,
                self.threads,
                token,
            )?),
            None => Ok(assemble_galerkin_parallel(
                mesh,
                self.kernel,
                self.quadrature,
                self.threads,
            )),
        }
    }
}

/// The generalized eigensolve `K d = λ Φ d` on a pre-assembled matrix.
pub struct EigensolveStage {
    /// Solver backend, eigenpair cap and quadrature (the latter unused
    /// here but part of the one options struct).
    pub options: KleOptions,
}

impl Stage<(Matrix, &Mesh)> for EigensolveStage {
    type Output = GalerkinKle;
    type Error = KleError;

    fn name(&self) -> &'static str {
        "galerkin/eigensolve"
    }

    fn budget_key(&self) -> Option<&'static str> {
        Some("eigen")
    }

    fn run(
        &self,
        (matrix, mesh): (Matrix, &Mesh),
        token: Option<&CancelToken>,
    ) -> Result<GalerkinKle, KleError> {
        match token {
            Some(token) => GalerkinKle::from_matrix_with_token(matrix, mesh, self.options, token),
            None => GalerkinKle::from_matrix(matrix, mesh, self.options),
        }
    }
}

/// The matrix-free eigensolve: mesh → spectrum directly, driving
/// thick-restart Lanczos through an on-the-fly
/// [`crate::GalerkinOperator`]. No assembly stage runs ahead of this and
/// no O(n²) artifact exists anywhere on the path — the stage replaces
/// the [`AssembleStage`]+[`EigensolveStage`] pair when
/// [`EigenSolver::MatrixFree`] is selected.
pub struct MatrixFreeEigensolveStage<'k, K: ?Sized> {
    /// The covariance kernel (entries evaluated per matvec).
    pub kernel: &'k K,
    /// Solver options; `options.solver` must be
    /// [`EigenSolver::MatrixFree`] for the stage to be meaningful.
    pub options: KleOptions,
}

impl<K: CovarianceKernel + ?Sized> Stage<&Mesh> for MatrixFreeEigensolveStage<'_, K> {
    type Output = GalerkinKle;
    type Error = KleError;

    fn name(&self) -> &'static str {
        "galerkin/eigensolve"
    }

    fn budget_key(&self) -> Option<&'static str> {
        // The one stage covers what assembly + eigensolve span on the
        // dense path, so it owns the whole `eigen` window.
        Some("eigen")
    }

    fn run(&self, mesh: &Mesh, token: Option<&CancelToken>) -> Result<GalerkinKle, KleError> {
        match token {
            Some(token) => GalerkinKle::compute_with_token(mesh, self.kernel, self.options, token),
            None => GalerkinKle::compute(mesh, self.kernel, self.options),
        }
    }
}

/// Rank selection by the paper's λ-tail criterion. Cheap (O(m)) and
/// criterion-dependent, so it is always recomputed rather than cached.
pub struct TruncateStage {
    /// The truncation criterion.
    pub criterion: TruncationCriterion,
}

impl Stage<&GalerkinKle> for TruncateStage {
    type Output = (usize, bool);
    type Error = std::convert::Infallible;

    fn name(&self) -> &'static str {
        "truncate"
    }

    fn run(
        &self,
        kle: &GalerkinKle,
        _token: Option<&CancelToken>,
    ) -> Result<(usize, bool), Self::Error> {
        Ok(kle.select_rank_checked(&self.criterion))
    }
}

// ---------------------------------------------------------------------------
// Artifact keys
// ---------------------------------------------------------------------------

fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_bits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn quadrature_tag(rule: QuadratureRule) -> &'static str {
    match rule {
        QuadratureRule::Centroid => "centroid",
        QuadratureRule::ThreePoint => "three-point",
        QuadratureRule::SevenPoint => "seven-point",
    }
}

fn solver_tag(solver: EigenSolver) -> String {
    match solver {
        EigenSolver::Full => "full".to_string(),
        EigenSolver::Lanczos => "lanczos".to_string(),
        // k and max_iters both shape the computed spectrum (restart
        // schedule and convergence budget), so they are part of the
        // content address: matrix-free spectra cache independently of
        // the dense solvers' and of each other's configurations.
        EigenSolver::MatrixFree { k, max_iters } => {
            format!("matrix-free:k={k}:iters={max_iters}")
        }
    }
}

/// A content address for a pipeline artifact: a human-readable
/// descriptor embedding the exact bit patterns of every input that
/// shapes the artifact. Two configurations produce the same key iff
/// recomputation would produce bitwise-identical artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    descriptor: String,
}

impl ArtifactKey {
    /// Key for a quality mesh of `die` under the given constraints.
    pub fn mesh(die: Rect, max_area_fraction: f64, min_angle_degrees: f64) -> ArtifactKey {
        let bb = die.bbox();
        ArtifactKey {
            descriptor: format!(
                "mesh|die={},{},{},{}|area-fraction={}|min-angle={}",
                f64_bits(bb.min.x),
                f64_bits(bb.min.y),
                f64_bits(bb.max.x),
                f64_bits(bb.max.y),
                f64_bits(max_area_fraction),
                f64_bits(min_angle_degrees),
            ),
        }
    }

    /// Key for the assembled Galerkin matrix: the mesh key plus the
    /// kernel's exact [`CovarianceKernel::cache_key`] and the quadrature
    /// rule.
    pub fn galerkin(mesh: &ArtifactKey, kernel_key: &str, rule: QuadratureRule) -> ArtifactKey {
        ArtifactKey {
            descriptor: format!(
                "galerkin|{}|kernel={kernel_key}|quadrature={}",
                mesh.descriptor,
                quadrature_tag(rule),
            ),
        }
    }

    /// Key for the computed spectrum: the Galerkin key plus the solver
    /// choice and eigenpair cap. The truncation criterion is deliberately
    /// excluded — rank selection is recomputed per query so criterion
    /// sweeps share one spectrum.
    pub fn spectrum(
        galerkin: &ArtifactKey,
        solver: EigenSolver,
        max_eigenpairs: usize,
    ) -> ArtifactKey {
        ArtifactKey {
            descriptor: format!(
                "spectrum|{}|solver={}|max-eigenpairs={max_eigenpairs}",
                galerkin.descriptor,
                solver_tag(solver),
            ),
        }
    }

    /// Key for a per-block hierarchical timing model: the spectrum key
    /// (the shared ξ basis the block's canonical forms are expressed
    /// over) plus the block's region hash — region rect × contained
    /// netlist arcs × gate-parameter bits, computed by the partition
    /// layer. An edit to one gate changes exactly one block's region
    /// hash, so exactly one block artifact re-keys.
    pub fn block(region_hash: u64, spectrum: &ArtifactKey) -> ArtifactKey {
        ArtifactKey {
            descriptor: format!("block|{}|region={region_hash:016x}", spectrum.descriptor),
        }
    }

    /// The full human-readable descriptor (the identity of the key).
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// FNV-1a fingerprint of the descriptor (compact disk file names).
    /// Equality is always decided on the full descriptor, so a collision
    /// merely costs a cache miss.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.descriptor.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Artifact cache
// ---------------------------------------------------------------------------

/// One cached boundary-output arc set of a hierarchical block timing
/// model: the canonical-form terms arriving at one boundary-output
/// node, each term optionally anchored to a boundary-input origin whose
/// arrival is substituted at compose time.
///
/// This is the cache-level *data* representation — plain vectors of
/// exact f64 values — deliberately free of `klest-ssta` types so the
/// artifact cache can own its (de)serialization; the hierarchical
/// engine converts to and from its `CanonicalForm` algebra losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockArc {
    /// The boundary-output node id this arc set times.
    pub node: u32,
    /// The terms, in the deterministic fold order the extraction pass
    /// produced them in.
    pub terms: Vec<BlockTerm>,
}

/// One term of a [`BlockArc`]: a canonical form (mean, per-ξ
/// sensitivities, independent residual), plus the boundary-input node
/// whose arrival it rides on (`None` for a block-local cone).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTerm {
    /// Boundary-input node id, or `None` when the term's cone is
    /// entirely inside the block.
    pub origin: Option<u32>,
    /// Mean of the canonical form.
    pub mean: f64,
    /// Sensitivities over the shared ξ basis (`dim` entries).
    pub sens: Vec<f64>,
    /// Independent residual magnitude.
    pub indep: f64,
}

/// A compressed per-block timing model over the shared KLE ξ basis:
/// boundary-input→boundary-output arcs as canonical-form terms, with
/// intra-block nodes eliminated. Produced by the hierarchical
/// extraction pass in `klest-ssta`, cached (memory + disk) here.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTimingModel {
    /// Dimension of the ξ sensitivity vectors (4 × KLE rank).
    pub dim: usize,
    /// One arc set per boundary-output node, ascending node id.
    pub outputs: Vec<BlockArc>,
}

/// Hit/miss totals per cache level (a point-in-time copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Mesh-level hits.
    pub mesh_hits: u64,
    /// Mesh-level misses.
    pub mesh_misses: u64,
    /// Galerkin-matrix hits.
    pub galerkin_hits: u64,
    /// Galerkin-matrix misses.
    pub galerkin_misses: u64,
    /// Spectrum hits.
    pub spectrum_hits: u64,
    /// Spectrum misses.
    pub spectrum_misses: u64,
    /// Block-timing-model hits.
    pub block_hits: u64,
    /// Block-timing-model misses.
    pub block_misses: u64,
    /// Disk-layer store attempts that failed (directory, tmp write,
    /// fsync or rename error). Each one lost the persistent copy of an
    /// artifact.
    pub disk_write_failures: u64,
    /// Corrupted or torn disk entries renamed aside to `*.quarantine`
    /// instead of being silently recomputed over.
    pub quarantined: u64,
}

impl CacheSnapshot {
    /// Total hits across all levels.
    pub fn hits(&self) -> u64 {
        self.mesh_hits + self.galerkin_hits + self.spectrum_hits + self.block_hits
    }

    /// Total misses across all levels.
    pub fn misses(&self) -> u64 {
        self.mesh_misses + self.galerkin_misses + self.spectrum_misses + self.block_misses
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking holder can only have been between two plain HashMap
    // operations; the map is still structurally sound, so poisoning is
    // ignored rather than propagated.
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn bump(counter: &AtomicU64, obs_name: &str) {
    counter.fetch_add(1, Ordering::Relaxed);
    if klest_obs::enabled() {
        klest_obs::counter_add(obs_name, 1);
    }
}

/// How one artifact kind is persisted: one [`durable`] frame per file,
/// whose payload is the kind's exact-bits text encoding.
struct DiskCodec<T> {
    /// Frame tag: the file format and its version.
    tag: &'static str,
    /// File-name suffix. It carries the format version, so a file in an
    /// older layout is never read under the new name: it is a miss, not
    /// damage to quarantine.
    suffix: &'static str,
    /// The payload, or `None` for an artifact this kind cannot persist.
    encode: fn(&ArtifactKey, &T) -> Option<String>,
    decode: fn(&ArtifactKey, &str) -> Option<T>,
}

const MESH_CODEC: DiskCodec<Mesh> = DiskCodec {
    tag: "klest-cache/mesh/v2",
    suffix: "v2.mesh",
    encode: serialize_mesh,
    decode: deserialize_mesh,
};

const SPECTRUM_CODEC: DiskCodec<GalerkinKle> = DiskCodec {
    tag: "klest-cache/kle/v2",
    suffix: "v2.kle",
    encode: |key, kle| Some(serialize_spectrum(key, kle)),
    decode: deserialize_spectrum,
};

const BLOCK_CODEC: DiskCodec<BlockTimingModel> = DiskCodec {
    tag: "klest-cache/block/v2",
    suffix: "v2.block",
    encode: |key, model| Some(serialize_block(key, model)),
    decode: deserialize_block,
};

/// The disk layer: a directory of one-frame artifact files, each checked
/// (length, checksum, decode) at its first lookup.
struct Disk {
    dir: PathBuf,
    write_failures: AtomicU64,
    quarantined: AtomicU64,
}

impl Disk {
    fn path<T>(&self, key: &ArtifactKey, codec: &DiskCodec<T>) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{}", key.fingerprint(), codec.suffix))
    }

    /// Reads and checks the artifact for `key`; a file that fails any
    /// check is quarantined and the lookup misses.
    fn load<T>(&self, key: &ArtifactKey, codec: &DiskCodec<T>) -> Option<T> {
        let path = self.path(key, codec);
        let bytes = std::fs::read(&path).ok()?;
        let artifact = durable::read_frame(&bytes, codec.tag)
            .and_then(|payload| std::str::from_utf8(payload).ok())
            .and_then(|text| (codec.decode)(key, text));
        if artifact.is_none() && durable::quarantine(&path) {
            bump(&self.quarantined, "pipeline.cache.quarantined");
        }
        artifact
    }

    /// Best effort: a read-only or full disk must never fail the
    /// pipeline, it just loses the persistent copy — but every lost
    /// write is counted, never silently dropped.
    fn store<T>(&self, key: &ArtifactKey, codec: &DiskCodec<T>, artifact: &T) {
        let Some(text) = (codec.encode)(key, artifact) else {
            return;
        };
        let framed = durable::frame(codec.tag, text.as_bytes());
        let written = std::fs::create_dir_all(&self.dir)
            .and_then(|()| durable::write_atomic(&self.path(key, codec), &framed));
        if written.is_err() {
            bump(&self.write_failures, "pipeline.cache.disk_write_failures");
        }
    }
}

/// One artifact kind's cache level: the memory map, its hit and miss
/// counters, and the disk codec for kinds that persist.
struct Layer<T: 'static> {
    memory: Mutex<HashMap<String, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hits_name: String,
    misses_name: String,
    codec: Option<&'static DiskCodec<T>>,
}

impl<T> Layer<T> {
    /// A layer counted as `pipeline.cache.<kind>.{hits,misses}`.
    fn new(kind: &str, codec: Option<&'static DiskCodec<T>>) -> Layer<T> {
        Layer {
            memory: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hits_name: format!("pipeline.cache.{kind}.hits"),
            misses_name: format!("pipeline.cache.{kind}.misses"),
            codec,
        }
    }

    fn lookup(&self, key: &ArtifactKey, disk: Option<&Disk>) -> Option<Arc<T>> {
        let hit = lock(&self.memory).get(key.descriptor()).cloned();
        let found = hit.or_else(|| {
            let artifact = Arc::new(disk?.load(key, self.codec?)?);
            lock(&self.memory).insert(key.descriptor().to_string(), Arc::clone(&artifact));
            Some(artifact)
        });
        match found {
            Some(_) => bump(&self.hits, &self.hits_name),
            None => bump(&self.misses, &self.misses_name),
        }
        found
    }

    fn store(&self, key: &ArtifactKey, artifact: Arc<T>, disk: Option<&Disk>) {
        if let (Some(disk), Some(codec)) = (disk, self.codec) {
            disk.store(key, codec, &artifact);
        }
        lock(&self.memory).insert(key.descriptor().to_string(), artifact);
    }

    /// Present in memory, or a file exists for it on disk; counts
    /// nothing and reads nothing.
    fn peek(&self, key: &ArtifactKey, disk: Option<&Disk>) -> bool {
        lock(&self.memory).contains_key(key.descriptor())
            || matches!((disk, self.codec), (Some(disk), Some(codec)) if disk.path(key, codec).exists())
    }

    fn len(&self) -> usize {
        lock(&self.memory).len()
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Content-addressed store for front-end artifacts: meshes, assembled
/// Galerkin matrices, computed spectra and hierarchical block timing
/// models, keyed by [`ArtifactKey`].
///
/// Each kind is one cache level with the same shape: an in-memory map
/// of shared `Arc`s (zero-copy hits), hit and miss counters mirrored to
/// the obs counters `pipeline.cache.{mesh,galerkin,spectrum,block}.{hits,misses}`,
/// and — with [`ArtifactCache::with_disk`] — a disk copy for meshes,
/// spectra and block models. The O(n²) matrix is deliberately
/// memory-only, since a spectrum hit already skips assembly.
///
/// On disk each artifact is one file named by the key's fingerprint,
/// holding one self-checking [`durable`] frame (`klest-cache/<kind>/v2`)
/// whose payload is the kind's exact-bits text encoding, written by
/// [`durable::write_atomic`]. There is no manifest and no work at open:
/// a file is checked once, at its first lookup, and then served from
/// memory. A disk problem never fails a pipeline, but it is not silent
/// either:
///
/// - a file that fails its frame check (torn, truncated, flipped bits)
///   or does not decode is **quarantined**: renamed aside to
///   `<file>.quarantine` and counted ([`CacheSnapshot::quarantined`],
///   obs `pipeline.cache.quarantined`), and the lookup misses;
/// - a failed store (directory, tmp write, fsync or rename) is counted
///   in [`CacheSnapshot::disk_write_failures`] (obs
///   `pipeline.cache.disk_write_failures`).
///
/// Files written in the older unframed layout (`<fingerprint>.kle` and
/// so on, next to a `manifest.log`) are never read: their names differ,
/// so they are misses, not quarantines.
pub struct ArtifactCache {
    meshes: Layer<Mesh>,
    matrices: Layer<Matrix>,
    spectra: Layer<GalerkinKle>,
    blocks: Layer<BlockTimingModel>,
    disk: Option<Disk>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An in-memory cache (per-process; shared by reference).
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            meshes: Layer::new("mesh", Some(&MESH_CODEC)),
            matrices: Layer::new("galerkin", None),
            spectra: Layer::new("spectrum", Some(&SPECTRUM_CODEC)),
            blocks: Layer::new("block", Some(&BLOCK_CODEC)),
            disk: None,
        }
    }

    /// An in-memory cache backed by an on-disk layer under `dir`
    /// (created on first store). Opening reads no file: each artifact
    /// file is checked at its first lookup.
    pub fn with_disk<P: Into<PathBuf>>(dir: P) -> ArtifactCache {
        ArtifactCache {
            disk: Some(Disk {
                dir: dir.into(),
                write_failures: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
            }),
            ..Self::new()
        }
    }

    /// The disk directory, when the on-disk layer is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// Point-in-time hit/miss totals.
    pub fn snapshot(&self) -> CacheSnapshot {
        let (mesh_hits, mesh_misses) = self.meshes.counts();
        let (galerkin_hits, galerkin_misses) = self.matrices.counts();
        let (spectrum_hits, spectrum_misses) = self.spectra.counts();
        let (block_hits, block_misses) = self.blocks.counts();
        let (disk_write_failures, quarantined) = self.disk.as_ref().map_or((0, 0), |d| {
            (
                d.write_failures.load(Ordering::Relaxed),
                d.quarantined.load(Ordering::Relaxed),
            )
        });
        CacheSnapshot {
            mesh_hits,
            mesh_misses,
            galerkin_hits,
            galerkin_misses,
            spectrum_hits,
            spectrum_misses,
            block_hits,
            block_misses,
            disk_write_failures,
            quarantined,
        }
    }

    /// Number of entries in each memory layer, in
    /// `(mesh, galerkin, spectrum, block)` order — the "cache sizes" a
    /// stats endpoint reports. Disk entries are not walked.
    pub fn memory_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.meshes.len(),
            self.matrices.len(),
            self.spectra.len(),
            self.blocks.len(),
        )
    }

    /// Looks up a mesh (memory first, then disk when enabled).
    pub fn lookup_mesh(&self, key: &ArtifactKey) -> Option<Arc<Mesh>> {
        self.meshes.lookup(key, self.disk.as_ref())
    }

    /// Stores a mesh under `key` (and on disk when enabled; polygonal
    /// dies stay memory-only — their boundary is not serialized).
    pub fn store_mesh(&self, key: &ArtifactKey, mesh: Arc<Mesh>) {
        self.meshes.store(key, mesh, self.disk.as_ref());
    }

    /// Looks up an assembled Galerkin matrix (memory-only level).
    pub fn lookup_galerkin(&self, key: &ArtifactKey) -> Option<Arc<Matrix>> {
        self.matrices.lookup(key, None)
    }

    /// Stores an assembled Galerkin matrix under `key`.
    pub fn store_galerkin(&self, key: &ArtifactKey, matrix: Arc<Matrix>) {
        self.matrices.store(key, matrix, None);
    }

    /// Looks up a computed spectrum (memory first, then disk).
    pub fn lookup_spectrum(&self, key: &ArtifactKey) -> Option<Arc<GalerkinKle>> {
        self.spectra.lookup(key, self.disk.as_ref())
    }

    /// Non-counting warm probe: is a spectrum for `key` already present
    /// in the memory layer or on disk? Unlike
    /// [`lookup_spectrum`](Self::lookup_spectrum) this touches no hit /
    /// miss counters and deserializes nothing — it is the cheap
    /// "will this query be warm?" predicate a serving layer uses to
    /// classify request latencies without perturbing cache statistics.
    /// (Disk presence is a file-existence check; a torn file still
    /// counts as cold at lookup time.)
    pub fn peek_spectrum(&self, key: &ArtifactKey) -> bool {
        self.spectra.peek(key, self.disk.as_ref())
    }

    /// Non-counting warm probe for the mesh layer; same contract as
    /// [`peek_spectrum`](Self::peek_spectrum).
    pub fn peek_mesh(&self, key: &ArtifactKey) -> bool {
        self.meshes.peek(key, self.disk.as_ref())
    }

    /// Non-counting warm probe for the Galerkin-matrix layer (memory
    /// only — matrices have no disk layer); same contract as
    /// [`peek_spectrum`](Self::peek_spectrum).
    pub fn peek_galerkin(&self, key: &ArtifactKey) -> bool {
        self.matrices.peek(key, None)
    }

    /// Stores a computed spectrum under `key` (and on disk when enabled).
    pub fn store_spectrum(&self, key: &ArtifactKey, kle: Arc<GalerkinKle>) {
        self.spectra.store(key, kle, self.disk.as_ref());
    }

    /// Looks up a hierarchical block timing model (memory first, then
    /// disk). Counted in [`CacheSnapshot::block_hits`] /
    /// [`CacheSnapshot::block_misses`] and mirrored to the obs counters
    /// `pipeline.cache.block.{hits,misses}`.
    pub fn lookup_block(&self, key: &ArtifactKey) -> Option<Arc<BlockTimingModel>> {
        self.blocks.lookup(key, self.disk.as_ref())
    }

    /// Non-counting warm probe for the block-model layer; same contract
    /// as [`peek_spectrum`](Self::peek_spectrum).
    pub fn peek_block(&self, key: &ArtifactKey) -> bool {
        self.blocks.peek(key, self.disk.as_ref())
    }

    /// Stores a block timing model under `key` (and on disk when
    /// enabled, as one durable frame like the other disk artifacts).
    pub fn store_block(&self, key: &ArtifactKey, model: Arc<BlockTimingModel>) {
        self.blocks.store(key, model, self.disk.as_ref());
    }
}

const MESH_HEADER: &str = "klest-cache/mesh/v1";
const SPECTRUM_HEADER: &str = "klest-cache/kle/v1";
const BLOCK_HEADER: &str = "klest-cache/block/v1";

/// `None` for a polygonal die: its boundary is not serialized, so such
/// meshes stay memory-only.
fn serialize_mesh(key: &ArtifactKey, mesh: &Mesh) -> Option<String> {
    if mesh.boundary().is_some() {
        return None;
    }
    let bb = mesh.domain().bbox();
    let mut out = String::new();
    out.push_str(MESH_HEADER);
    out.push('\n');
    out.push_str(key.descriptor());
    out.push('\n');
    out.push_str(&format!(
        "die {} {} {} {}\n",
        f64_bits(bb.min.x),
        f64_bits(bb.min.y),
        f64_bits(bb.max.x),
        f64_bits(bb.max.y)
    ));
    out.push_str(&format!("points {}\n", mesh.points().len()));
    for p in mesh.points() {
        out.push_str(&format!("{} {}\n", f64_bits(p.x), f64_bits(p.y)));
    }
    out.push_str(&format!("triangles {}\n", mesh.len()));
    for &[a, b, c] in mesh.triangle_indices() {
        out.push_str(&format!("{a} {b} {c}\n"));
    }
    Some(out)
}

fn deserialize_mesh(key: &ArtifactKey, text: &str) -> Option<Mesh> {
    let mut lines = text.lines();
    if lines.next()? != MESH_HEADER || lines.next()? != key.descriptor() {
        return None;
    }
    let die_line = lines.next()?;
    let mut it = die_line.strip_prefix("die ")?.split_whitespace();
    let (minx, miny, maxx, maxy) = (
        parse_f64_bits(it.next()?)?,
        parse_f64_bits(it.next()?)?,
        parse_f64_bits(it.next()?)?,
        parse_f64_bits(it.next()?)?,
    );
    let n_points: usize = lines.next()?.strip_prefix("points ")?.parse().ok()?;
    let mut points = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        let mut it = lines.next()?.split_whitespace();
        points.push(Point2::new(
            parse_f64_bits(it.next()?)?,
            parse_f64_bits(it.next()?)?,
        ));
    }
    let n_tris: usize = lines.next()?.strip_prefix("triangles ")?.parse().ok()?;
    let mut triangles = Vec::with_capacity(n_tris);
    for _ in 0..n_tris {
        let mut it = lines.next()?.split_whitespace();
        triangles.push([
            it.next()?.parse().ok()?,
            it.next()?.parse().ok()?,
            it.next()?.parse().ok()?,
        ]);
    }
    // from_parts recomputes centroids/areas through the same arithmetic
    // the builder used, so the roundtrip is bitwise faithful.
    Mesh::from_parts(
        Rect::new(Point2::new(minx, miny), Point2::new(maxx, maxy)),
        points,
        triangles,
    )
    .ok()
}

fn push_f64_line(out: &mut String, values: impl Iterator<Item = f64>) {
    let mut first = true;
    for v in values {
        if !first {
            out.push(' ');
        }
        first = false;
        out.push_str(&f64_bits(v));
    }
    out.push('\n');
}

fn serialize_spectrum(key: &ArtifactKey, kle: &GalerkinKle) -> String {
    let d = kle.d_matrix();
    let mut out = String::new();
    out.push_str(SPECTRUM_HEADER);
    out.push('\n');
    out.push_str(key.descriptor());
    out.push('\n');
    out.push_str(&format!("trace {}\n", f64_bits(kle.trace())));
    out.push_str(&format!("eigenvalues {}\n", kle.eigenvalues().len()));
    push_f64_line(&mut out, kle.eigenvalues().iter().copied());
    out.push_str(&format!("d {} {}\n", d.rows(), d.cols()));
    push_f64_line(&mut out, d.as_slice().iter().copied());
    out.push_str(&format!("areas {}\n", kle.areas().len()));
    push_f64_line(&mut out, kle.areas().iter().copied());
    out.push_str(&format!("centroids {}\n", kle.centroids().len()));
    push_f64_line(&mut out, kle.centroids().iter().flat_map(|p| [p.x, p.y]));
    out
}

fn parse_f64_line(line: &str, expect: usize) -> Option<Vec<f64>> {
    let values: Option<Vec<f64>> = line.split_whitespace().map(parse_f64_bits).collect();
    let values = values?;
    (values.len() == expect).then_some(values)
}

fn deserialize_spectrum(key: &ArtifactKey, text: &str) -> Option<GalerkinKle> {
    let mut lines = text.lines();
    if lines.next()? != SPECTRUM_HEADER || lines.next()? != key.descriptor() {
        return None;
    }
    let trace = parse_f64_bits(lines.next()?.strip_prefix("trace ")?)?;
    let n_eig: usize = lines.next()?.strip_prefix("eigenvalues ")?.parse().ok()?;
    let eigenvalues = parse_f64_line(lines.next()?, n_eig)?;
    let mut dims = lines.next()?.strip_prefix("d ")?.split_whitespace();
    let rows: usize = dims.next()?.parse().ok()?;
    let cols: usize = dims.next()?.parse().ok()?;
    let d = Matrix::from_vec(rows, cols, parse_f64_line(lines.next()?, rows * cols)?).ok()?;
    let n_areas: usize = lines.next()?.strip_prefix("areas ")?.parse().ok()?;
    let areas = parse_f64_line(lines.next()?, n_areas)?;
    let n_cent: usize = lines.next()?.strip_prefix("centroids ")?.parse().ok()?;
    let flat = parse_f64_line(lines.next()?, 2 * n_cent)?;
    let centroids: Vec<Point2> = flat.chunks(2).map(|c| Point2::new(c[0], c[1])).collect();
    if rows != n_areas || n_areas != n_cent {
        return None;
    }
    Some(GalerkinKle::from_raw(
        eigenvalues,
        d,
        areas,
        centroids,
        trace,
    ))
}

fn serialize_block(key: &ArtifactKey, model: &BlockTimingModel) -> String {
    let mut out = String::new();
    out.push_str(BLOCK_HEADER);
    out.push('\n');
    out.push_str(key.descriptor());
    out.push('\n');
    out.push_str(&format!(
        "dim {} outputs {}\n",
        model.dim,
        model.outputs.len()
    ));
    for arc in &model.outputs {
        out.push_str(&format!("output {} {}\n", arc.node, arc.terms.len()));
        for term in &arc.terms {
            match term.origin {
                Some(o) => out.push_str(&format!("term {o} ")),
                None => out.push_str("term - "),
            }
            out.push_str(&format!(
                "{} {}\n",
                f64_bits(term.mean),
                f64_bits(term.indep)
            ));
            push_f64_line(&mut out, term.sens.iter().copied());
        }
    }
    out
}

fn deserialize_block(key: &ArtifactKey, text: &str) -> Option<BlockTimingModel> {
    let mut lines = text.lines();
    if lines.next()? != BLOCK_HEADER || lines.next()? != key.descriptor() {
        return None;
    }
    let mut it = lines.next()?.strip_prefix("dim ")?.split_whitespace();
    let dim: usize = it.next()?.parse().ok()?;
    if it.next()? != "outputs" {
        return None;
    }
    let n_outputs: usize = it.next()?.parse().ok()?;
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        let mut it = lines.next()?.strip_prefix("output ")?.split_whitespace();
        let node: u32 = it.next()?.parse().ok()?;
        let n_terms: usize = it.next()?.parse().ok()?;
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let mut it = lines.next()?.strip_prefix("term ")?.split_whitespace();
            let origin = match it.next()? {
                "-" => None,
                o => Some(o.parse::<u32>().ok()?),
            };
            let mean = parse_f64_bits(it.next()?)?;
            let indep = parse_f64_bits(it.next()?)?;
            let sens = parse_f64_line(lines.next()?, dim)?;
            terms.push(BlockTerm {
                origin,
                mean,
                sens,
                indep,
            });
        }
        outputs.push(BlockArc { node, terms });
    }
    Some(BlockTimingModel { dim, outputs })
}

// ---------------------------------------------------------------------------
// The canonical front-end dataflow
// ---------------------------------------------------------------------------

/// Configuration for [`run_frontend`] — everything that shapes the mesh,
/// the expansion and the truncation decision.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// The die region.
    pub die: Rect,
    /// Maximum triangle area as a fraction of the die area (the paper's
    /// 0.1% is `0.001`).
    pub max_area_fraction: f64,
    /// Minimum-angle mesh quality constraint, degrees (paper: 28°).
    pub min_angle_degrees: f64,
    /// KLE solve options (quadrature, solver, eigenpair cap, assembly
    /// threads).
    pub options: KleOptions,
    /// Truncation criterion for rank selection.
    pub criterion: TruncationCriterion,
    /// Mesh degradation ladder: multipliers on `max_area_fraction` tried
    /// in order when a supervised mesh build's budget trips. `[1.0]`
    /// (the default) disables coarsening; the historical supervised
    /// ladder is `[1.0, 4.0, 16.0]`. Plain policies only ever use the
    /// first rung.
    pub mesh_ladder: Vec<f64>,
}

impl FrontEndConfig {
    /// A config on the unit die with default options, no ladder.
    pub fn new(
        max_area_fraction: f64,
        min_angle_degrees: f64,
        criterion: TruncationCriterion,
    ) -> FrontEndConfig {
        FrontEndConfig {
            die: Rect::unit_die(),
            max_area_fraction,
            min_angle_degrees,
            options: KleOptions::default(),
            criterion,
            mesh_ladder: vec![1.0],
        }
    }

    /// The historical supervised coarsening ladder (4× per rung, two
    /// fallback rungs).
    pub fn with_supervised_ladder(mut self) -> FrontEndConfig {
        self.mesh_ladder = vec![1.0, 4.0, 16.0];
        self
    }
}

/// One recorded mesh coarsening (a ladder rung whose budget tripped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshCoarsening {
    /// The area fraction that could not be meshed in budget.
    pub from_area_fraction: f64,
    /// The coarser fraction tried next.
    pub to_area_fraction: f64,
}

/// Everything the front end produces: artifacts are `Arc`-shared so MC
/// arms and cache all reference one copy.
#[derive(Debug, Clone)]
pub struct FrontEndOutcome {
    /// The die mesh.
    pub mesh: Arc<Mesh>,
    /// The computed expansion.
    pub kle: Arc<GalerkinKle>,
    /// Truncation rank selected by the criterion.
    pub rank: usize,
    /// Did the rank genuinely meet the criterion's tail budget?
    pub budget_met: bool,
    /// Mesh-ladder coarsenings applied (empty on the happy path).
    pub coarsenings: Vec<MeshCoarsening>,
    /// Wall time of the front end (near zero on a warm spectrum hit).
    pub setup_time: Duration,
}

/// Typed front-end failure.
#[derive(Debug)]
pub enum FrontEndError {
    /// Meshing failed (including a ladder that ran out of rungs).
    Mesh(MeshError),
    /// Assembly or the eigensolve failed (including cancellation).
    Kle(KleError),
}

impl std::fmt::Display for FrontEndError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontEndError::Mesh(e) => write!(f, "meshing failed: {e}"),
            FrontEndError::Kle(e) => write!(f, "KLE failed: {e}"),
        }
    }
}

impl std::error::Error for FrontEndError {}

/// Runs the canonical KLE front end — mesh → Galerkin assembly →
/// eigensolve → truncation — under `policy`, consulting `cache` between
/// stages when given.
///
/// Contracts:
///
/// - With [`ExecPolicy::Plain`] and no cache this is bitwise identical
///   to the historical strict path (`MeshBuilder` + `GalerkinKle::compute`).
/// - With [`ExecPolicy::Supervised`] the mesh runs under per-rung `mesh`
///   budget children (retrying on the config's coarsening ladder), and
///   assembly + eigensolve share one `eigen` budget child — the
///   historical `build_supervised` semantics. With an untripped
///   unlimited token and empty budgets, outputs equal the plain path
///   bitwise.
/// - A warm spectrum hit skips mesh build, assembly *and* eigensolve
///   entirely (observable via the `pipeline.cache.*` counters and the
///   absence of the corresponding spans); a mesh or matrix hit skips
///   just its own stage. Artifacts returned from cache are bitwise
///   equal to recomputation.
/// - Kernels with no [`CovarianceKernel::cache_key`] bypass the cache.
///
/// # Errors
///
/// [`FrontEndError`] from meshing (including cancellation after the last
/// ladder rung) or from assembly / eigensolve.
pub fn run_frontend<K: CovarianceKernel + ?Sized>(
    kernel: &K,
    config: &FrontEndConfig,
    policy: ExecPolicy<'_>,
    cache: Option<&ArtifactCache>,
) -> Result<FrontEndOutcome, FrontEndError> {
    let _span = klest_obs::span("kle");
    let started = Instant::now();
    let engine = Engine::new(policy);
    let kernel_key = kernel.cache_key();
    let ladder: &[f64] = if config.mesh_ladder.is_empty() {
        &[1.0]
    } else {
        &config.mesh_ladder
    };
    let supervised = engine.policy().is_supervised();
    let mut coarsenings = Vec::new();
    let mut built: Option<(Arc<Mesh>, Arc<GalerkinKle>)> = None;

    for (rung, factor) in ladder.iter().enumerate() {
        let fraction = config.max_area_fraction * factor;
        let keys = kernel_key.as_deref().map(|kk| {
            let mesh_key = ArtifactKey::mesh(config.die, fraction, config.min_angle_degrees);
            let galerkin_key = ArtifactKey::galerkin(&mesh_key, kk, config.options.quadrature);
            let spectrum_key = ArtifactKey::spectrum(
                &galerkin_key,
                config.options.solver,
                config.options.max_eigenpairs,
            );
            (mesh_key, galerkin_key, spectrum_key)
        });
        let keyed_cache = match (cache, &keys) {
            (Some(cache), Some(keys)) => Some((cache, keys)),
            _ => None,
        };

        // Stage 1: mesh (cache, or build under a fresh per-rung `mesh`
        // budget child — each ladder rung restarts the budget clock).
        let mesh_stage = MeshStage {
            die: config.die,
            max_area_fraction: fraction,
            min_angle_degrees: config.min_angle_degrees,
        };
        let cached_mesh = keyed_cache.and_then(|(c, (mk, _, _))| c.lookup_mesh(mk));
        let mesh = match cached_mesh {
            Some(mesh) => mesh,
            None => match engine.exec(&mesh_stage, ()) {
                Ok(mesh) => {
                    let mesh = Arc::new(mesh);
                    if let Some((c, (mk, _, _))) = keyed_cache {
                        c.store_mesh(mk, Arc::clone(&mesh));
                    }
                    mesh
                }
                Err(MeshError::Cancelled(c)) => {
                    // Parent dead or ladder exhausted: give up, typed.
                    if !supervised || engine.policy().parent_cancelled() || rung + 1 == ladder.len()
                    {
                        return Err(FrontEndError::Mesh(MeshError::Cancelled(c)));
                    }
                    coarsenings.push(MeshCoarsening {
                        from_area_fraction: fraction,
                        to_area_fraction: config.max_area_fraction * ladder[rung + 1],
                    });
                    continue;
                }
                Err(e) => return Err(FrontEndError::Mesh(e)),
            },
        };

        // Stages 2+3: spectrum (cache, or assemble + eigensolve sharing
        // one `eigen` budget window, as `build_supervised` always did).
        let cached_kle = keyed_cache.and_then(|(c, (_, _, sk))| c.lookup_spectrum(sk));
        let kle = match cached_kle {
            Some(kle) => kle,
            None => {
                let eigen_token = engine.policy().stage_token(Some("eigen"));
                let kle = if matches!(config.options.solver, EigenSolver::MatrixFree { .. }) {
                    // Matrix-free: no assembly stage runs, and the O(n²)
                    // Galerkin artifact is neither looked up nor stored —
                    // nothing n×n may exist anywhere on this path.
                    let eigensolve = MatrixFreeEigensolveStage {
                        kernel,
                        options: config.options,
                    };
                    engine
                        .exec_with(&eigensolve, &*mesh, eigen_token.as_ref())
                        .map_err(FrontEndError::Kle)?
                } else {
                    let assemble = AssembleStage {
                        kernel,
                        quadrature: config.options.quadrature,
                        threads: config.options.assembly_threads,
                    };
                    let cached_matrix =
                        keyed_cache.and_then(|(c, (_, gk, _))| c.lookup_galerkin(gk));
                    let matrix = match cached_matrix {
                        Some(matrix) => (*matrix).clone(),
                        None => {
                            let matrix = engine
                                .exec_with(&assemble, &*mesh, eigen_token.as_ref())
                                .map_err(FrontEndError::Kle)?;
                            if let Some((c, (_, gk, _))) = keyed_cache {
                                c.store_galerkin(gk, Arc::new(matrix.clone()));
                            }
                            matrix
                        }
                    };
                    let eigensolve = EigensolveStage {
                        options: config.options,
                    };
                    engine
                        .exec_with(&eigensolve, (matrix, &*mesh), eigen_token.as_ref())
                        .map_err(FrontEndError::Kle)?
                };
                let kle = Arc::new(kle);
                if let Some((c, (_, _, sk))) = keyed_cache {
                    c.store_spectrum(sk, Arc::clone(&kle));
                }
                kle
            }
        };
        built = Some((mesh, kle));
        break;
    }

    let (mesh, kle) = match built {
        Some(pair) => pair,
        // Unreachable: every ladder arm either sets the pair or returns,
        // but stay typed rather than panic.
        None => {
            return Err(FrontEndError::Mesh(MeshError::Cancelled(Cancelled {
                stage: "mesh/refine",
                completed: 0,
                budget: engine.policy().budget_limit("mesh"),
            })))
        }
    };

    // Stage 4: truncation — always recomputed (cheap, criterion-local).
    let truncate = TruncateStage {
        criterion: config.criterion,
    };
    let (rank, budget_met) = match engine.exec(&truncate, &*kle) {
        Ok(pair) => pair,
        Err(never) => match never {},
    };
    Ok(FrontEndOutcome {
        mesh,
        kle,
        rank,
        budget_met,
        coarsenings,
        setup_time: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use klest_kernels::GaussianKernel;

    fn coarse_config() -> FrontEndConfig {
        FrontEndConfig::new(0.05, 25.0, TruncationCriterion::new(40, 0.01))
    }

    /// The mesh and spectrum keys `run_frontend` uses for `config`.
    fn frontend_keys(
        kernel: &GaussianKernel,
        config: &FrontEndConfig,
    ) -> (ArtifactKey, ArtifactKey) {
        let mesh_key = ArtifactKey::mesh(
            config.die,
            config.max_area_fraction,
            config.min_angle_degrees,
        );
        let galerkin_key = ArtifactKey::galerkin(
            &mesh_key,
            &kernel.cache_key().unwrap(),
            config.options.quadrature,
        );
        let spectrum_key = ArtifactKey::spectrum(
            &galerkin_key,
            config.options.solver,
            config.options.max_eigenpairs,
        );
        (mesh_key, spectrum_key)
    }

    /// The sorted frame tags of the files in a cache directory, each of
    /// which must be exactly one whole durable frame.
    fn frame_tags(dir: &Path) -> Vec<String> {
        let mut tags: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                match durable::read_frames(&bytes) {
                    (frames, end) if frames.len() == 1 && end == bytes.len() => {
                        frames[0].tag.to_string()
                    }
                    _ => panic!("{} is not one whole frame", path.display()),
                }
            })
            .collect();
        tags.sort();
        tags
    }

    #[test]
    fn plain_frontend_matches_historical_strict_path() {
        let kernel = GaussianKernel::new(1.5);
        let config = coarse_config();
        let out = run_frontend(&kernel, &config, ExecPolicy::Plain, None).unwrap();
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area_fraction(0.05)
            .min_angle_degrees(25.0)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        assert_eq!(out.mesh.len(), mesh.len());
        assert_eq!(out.kle.eigenvalues(), kle.eigenvalues());
        let (rank, met) = kle.select_rank_checked(&config.criterion);
        assert_eq!(out.rank, rank);
        assert_eq!(out.budget_met, met);
        assert!(out.coarsenings.is_empty());
    }

    #[test]
    fn supervised_frontend_matches_plain_on_live_token() {
        let kernel = GaussianKernel::new(1.5);
        let config = coarse_config().with_supervised_ladder();
        let plain = run_frontend(&kernel, &config, ExecPolicy::Plain, None).unwrap();
        let token = CancelToken::unlimited();
        let budgets = StageBudgets::none();
        let sup = run_frontend(
            &kernel,
            &config,
            ExecPolicy::Supervised {
                token: &token,
                budgets: &budgets,
            },
            None,
        )
        .unwrap();
        assert_eq!(plain.mesh.len(), sup.mesh.len());
        assert_eq!(plain.kle.eigenvalues(), sup.kle.eigenvalues());
        assert_eq!(plain.rank, sup.rank);
        assert!(sup.coarsenings.is_empty());
    }

    #[test]
    fn pre_tripped_token_is_a_typed_mesh_cancellation() {
        let kernel = GaussianKernel::new(1.0);
        let config = coarse_config().with_supervised_ladder();
        let token = CancelToken::unlimited();
        token.cancel();
        let budgets = StageBudgets::none();
        match run_frontend(
            &kernel,
            &config,
            ExecPolicy::Supervised {
                token: &token,
                budgets: &budgets,
            },
            None,
        ) {
            Err(FrontEndError::Mesh(MeshError::Cancelled(_))) => {}
            other => panic!("expected mesh cancellation, got {other:?}"),
        }
    }

    #[test]
    fn warm_cache_skips_every_expensive_stage() {
        let kernel = GaussianKernel::new(1.5);
        let config = coarse_config();
        let cache = ArtifactCache::new();
        let cold = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cache)).unwrap();
        let after_cold = cache.snapshot();
        assert_eq!(after_cold.hits(), 0);
        assert_eq!(after_cold.spectrum_misses, 1);
        let warm = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cache)).unwrap();
        let after_warm = cache.snapshot();
        // Warm run: mesh + spectrum hits, no further galerkin lookups
        // (the spectrum hit short-circuits assembly and eigensolve).
        assert_eq!(after_warm.mesh_hits, 1);
        assert_eq!(after_warm.spectrum_hits, 1);
        assert_eq!(after_warm.galerkin_misses, after_cold.galerkin_misses);
        // And the artifacts are the *same allocation*, hence bitwise equal.
        assert!(Arc::ptr_eq(&cold.kle, &warm.kle));
        assert!(Arc::ptr_eq(&cold.mesh, &warm.mesh));
        assert_eq!(cold.rank, warm.rank);
    }

    #[test]
    fn key_perturbations_miss() {
        let die = Rect::unit_die();
        let base_mesh = ArtifactKey::mesh(die, 0.05, 25.0);
        let kernel = GaussianKernel::new(1.5);
        let kk = kernel.cache_key().unwrap();
        let base = ArtifactKey::galerkin(&base_mesh, &kk, QuadratureRule::Centroid);
        // One-ULP area change: different mesh key, hence different chain.
        let bumped_area = f64::from_bits(0.05f64.to_bits() + 1);
        assert_ne!(
            base_mesh,
            ArtifactKey::mesh(die, bumped_area, 25.0),
            "one-ULP max-area must change the key"
        );
        // Kernel parameter change.
        let other_kernel = GaussianKernel::new(1.5000001);
        assert_ne!(
            base,
            ArtifactKey::galerkin(
                &base_mesh,
                &other_kernel.cache_key().unwrap(),
                QuadratureRule::Centroid
            )
        );
        // Quadrature change.
        assert_ne!(
            base,
            ArtifactKey::galerkin(&base_mesh, &kk, QuadratureRule::ThreePoint)
        );
        // Solver / cap change at the spectrum level.
        let s = ArtifactKey::spectrum(&base, EigenSolver::Full, 200);
        assert_ne!(s, ArtifactKey::spectrum(&base, EigenSolver::Lanczos, 200));
        assert_ne!(s, ArtifactKey::spectrum(&base, EigenSolver::Full, 100));
    }

    #[test]
    fn disk_layer_roundtrips_bitwise() {
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"disk_layer_roundtrips_bitwise")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let kernel = GaussianKernel::new(2.0);
        let config = coarse_config();
        let cold_cache = ArtifactCache::with_disk(&dir);
        let cold = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cold_cache)).unwrap();
        // A *fresh* cache over the same directory: memory empty, disk warm.
        let warm_cache = ArtifactCache::with_disk(&dir);
        let warm = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&warm_cache)).unwrap();
        let snap = warm_cache.snapshot();
        assert_eq!(snap.mesh_hits, 1, "{snap:?}");
        assert_eq!(snap.spectrum_hits, 1, "{snap:?}");
        // Bitwise equality across the serialization boundary.
        assert_eq!(cold.kle.eigenvalues(), warm.kle.eigenvalues());
        assert!(cold.kle.d_matrix().as_slice() == warm.kle.d_matrix().as_slice());
        assert_eq!(cold.kle.areas(), warm.kle.areas());
        assert_eq!(cold.mesh.points(), warm.mesh.points());
        assert_eq!(cold.mesh.areas(), warm.mesh.areas());
        assert_eq!(cold.rank, warm.rank);
        // Each store left one whole frame and nothing else, nothing was
        // quarantined, and a healthy open flags no failures.
        assert_eq!(
            frame_tags(&dir),
            ["klest-cache/kle/v2", "klest-cache/mesh/v2"]
        );
        let snap = warm_cache.snapshot();
        assert_eq!(snap.quarantined, 0, "{snap:?}");
        assert_eq!(snap.disk_write_failures, 0, "{snap:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_disk_writes_are_counted_not_silent() {
        // Point the disk layer at a path that is a regular file, so
        // every store's create_dir_all fails. The pipeline must still
        // succeed — and every lost write must be counted.
        let blocker = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"failed_disk_writes_are_counted_not_silent")
        ));
        std::fs::write(&blocker, "a file where the cache dir should be").unwrap();
        let cache = ArtifactCache::with_disk(&blocker);
        let kernel = GaussianKernel::new(1.5);
        let out = run_frontend(&kernel, &coarse_config(), ExecPolicy::Plain, Some(&cache)).unwrap();
        assert!(out.kle.eigenvalues()[0] > 0.0);
        let snap = cache.snapshot();
        // One failed store per persisted artifact level (mesh + kle).
        assert_eq!(snap.disk_write_failures, 2, "{snap:?}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"corrupt_disk_entry_degrades_to_miss")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let kernel = GaussianKernel::new(1.0);
        let config = coarse_config();
        let cache = ArtifactCache::with_disk(&dir);
        run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cache)).unwrap();
        // Truncate every cached file to garbage.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), "not a cache file").unwrap();
        }
        let fresh = ArtifactCache::with_disk(&dir);
        let out = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&fresh)).unwrap();
        assert!(out.kle.eigenvalues()[0] > 0.0);
        let snap = fresh.snapshot();
        assert_eq!(snap.spectrum_hits, 0, "{snap:?}");
        assert_eq!(snap.spectrum_misses, 1, "{snap:?}");
        // The corrupt mesh and spectrum were quarantined (renamed
        // aside), not silently recomputed over.
        assert_eq!(snap.quarantined, 2, "{snap:?}");
        let quarantined: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".quarantine"))
            .collect();
        assert_eq!(quarantined.len(), 2, "{quarantined:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_partial_file_is_miss_and_repaired_by_rewrite() {
        // Simulates a writer killed mid-write (or a pre-atomic-rename
        // torn write): the on-disk artifact is a strict prefix of a
        // valid file. The read path must treat it as a miss, recompute,
        // and the store path must repair it via tmp-file + atomic
        // rename so the next process gets a clean hit again.
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"torn_partial_file_is_miss_and_repaired_by_rewrite")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let kernel = GaussianKernel::new(1.25);
        let config = coarse_config();
        let cold_cache = ArtifactCache::with_disk(&dir);
        let cold = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cold_cache)).unwrap();
        // Tear every artifact: keep only the first half of the bytes.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            assert!(bytes.len() > 16, "artifact unexpectedly tiny");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
        // A fresh cache over the torn directory: every lookup is a miss
        // (never a panic, never a half-parsed artifact) ...
        let torn = ArtifactCache::with_disk(&dir);
        let (mesh_key, spectrum_key) = frontend_keys(&kernel, &config);
        assert!(torn.lookup_mesh(&mesh_key).is_none(), "torn mesh must miss");
        assert!(
            torn.lookup_spectrum(&spectrum_key).is_none(),
            "torn spectrum must miss"
        );
        let snap = torn.snapshot();
        assert_eq!(snap.hits(), 0, "{snap:?}");
        // Both torn artifacts were quarantined at lookup (the torn
        // frames failed their check) — never silently skipped.
        assert_eq!(snap.quarantined, 2, "{snap:?}");
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| e.path().to_string_lossy().ends_with(".quarantine")),
            "quarantined files must be preserved on disk"
        );
        // ... and a recompute through the same cache repairs the files.
        let repaired = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&torn)).unwrap();
        let fresh = ArtifactCache::with_disk(&dir);
        let warm = run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&fresh)).unwrap();
        let snap = fresh.snapshot();
        assert_eq!(snap.mesh_hits, 1, "repaired mesh serves hits: {snap:?}");
        assert_eq!(
            snap.spectrum_hits, 1,
            "repaired spectrum serves hits: {snap:?}"
        );
        assert_eq!(cold.kle.eigenvalues(), warm.kle.eigenvalues());
        assert_eq!(repaired.kle.eigenvalues(), warm.kle.eigenvalues());
        assert_eq!(cold.mesh.points(), warm.mesh.points());
        // No tmp droppings survive a completed store.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_spectrum_probes_without_counting() {
        let kernel = GaussianKernel::new(1.75);
        let config = coarse_config();
        let cache = ArtifactCache::new();
        let (_, spectrum_key) = frontend_keys(&kernel, &config);
        assert!(!cache.peek_spectrum(&spectrum_key));
        run_frontend(&kernel, &config, ExecPolicy::Plain, Some(&cache)).unwrap();
        let before = cache.snapshot();
        assert!(cache.peek_spectrum(&spectrum_key));
        // The probe perturbed no counters.
        assert_eq!(cache.snapshot(), before);
    }

    fn sample_block_model() -> BlockTimingModel {
        BlockTimingModel {
            dim: 3,
            outputs: vec![
                BlockArc {
                    node: 7,
                    terms: vec![
                        BlockTerm {
                            origin: None,
                            mean: 1.25,
                            sens: vec![0.5, -0.25, 1e-17],
                            indep: 0.125,
                        },
                        BlockTerm {
                            origin: Some(3),
                            mean: -0.75,
                            sens: vec![f64::MIN_POSITIVE, 0.0, -2.5],
                            indep: 0.0,
                        },
                    ],
                },
                BlockArc {
                    node: 11,
                    terms: vec![BlockTerm {
                        origin: Some(0),
                        mean: 2.0,
                        sens: vec![1.0, 2.0, 3.0],
                        indep: 0.5,
                    }],
                },
            ],
        }
    }

    fn sample_block_key(tag: u64) -> ArtifactKey {
        let mesh_key = ArtifactKey::mesh(Rect::unit_die(), 0.05, 25.0);
        let galerkin_key = ArtifactKey::galerkin(
            &mesh_key,
            &GaussianKernel::new(1.5).cache_key().unwrap(),
            QuadratureRule::Centroid,
        );
        let spectrum_key = ArtifactKey::spectrum(&galerkin_key, EigenSolver::Full, 200);
        ArtifactKey::block(tag, &spectrum_key)
    }

    #[test]
    fn block_layer_counts_and_returns_shared_allocation() {
        let cache = ArtifactCache::new();
        let key = sample_block_key(0xdead_beef);
        assert!(cache.lookup_block(&key).is_none());
        let model = Arc::new(sample_block_model());
        cache.store_block(&key, Arc::clone(&model));
        let hit = cache.lookup_block(&key).expect("stored model");
        assert!(Arc::ptr_eq(&hit, &model));
        // A different region hash is a different artifact.
        assert!(cache.lookup_block(&sample_block_key(0xdead_bef0)).is_none());
        let snap = cache.snapshot();
        assert_eq!(snap.block_hits, 1, "{snap:?}");
        assert_eq!(snap.block_misses, 2, "{snap:?}");
        assert_eq!(snap.hits(), 1);
        assert_eq!(snap.misses(), 2);
        assert_eq!(cache.memory_sizes(), (0, 0, 0, 1));
    }

    #[test]
    fn block_disk_roundtrip_is_bitwise_and_journaled() {
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"block_disk_roundtrip_is_bitwise_and_journaled")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let key = sample_block_key(0x1234);
        let model = Arc::new(sample_block_model());
        let cold = ArtifactCache::with_disk(&dir);
        cold.store_block(&key, Arc::clone(&model));
        // Fresh cache over the same directory: memory empty, disk warm.
        let warm = ArtifactCache::with_disk(&dir);
        assert!(warm.peek_block(&key));
        let loaded = warm.lookup_block(&key).expect("disk hit");
        assert_eq!(*loaded, *model, "bitwise roundtrip through disk");
        let snap = warm.snapshot();
        assert_eq!(snap.block_hits, 1, "{snap:?}");
        assert_eq!(snap.quarantined, 0, "{snap:?}");
        assert_eq!(frame_tags(&dir), ["klest-cache/block/v2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_entry_quarantines_and_misses() {
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"corrupt_block_entry_quarantines_and_misses")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let key = sample_block_key(0x777);
        let cold = ArtifactCache::with_disk(&dir);
        cold.store_block(&key, Arc::new(sample_block_model()));
        // The frame is checksummed, so any mutilation must degrade to a
        // clean miss plus quarantine.
        let path = cold
            .disk
            .as_ref()
            .expect("disk layer configured")
            .path(&key, &BLOCK_CODEC);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let warm = ArtifactCache::with_disk(&dir);
        assert!(warm.lookup_block(&key).is_none());
        let snap = warm.snapshot();
        assert_eq!(snap.block_misses, 1, "{snap:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache directory in the older unframed layout — the bare payload
    /// text under `<fingerprint>.kle` with a `manifest.log` record — is a
    /// clean miss: never read, never quarantined.
    #[test]
    fn older_layout_files_are_misses_not_quarantines() {
        let dir = std::env::temp_dir().join(format!(
            "klest-cache-test-{}-{:016x}",
            std::process::id(),
            fnv1a64(b"older_layout_files_are_misses_not_quarantines")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let kernel = GaussianKernel::new(1.5);
        let config = coarse_config();
        let built = run_frontend(&kernel, &config, ExecPolicy::Plain, None).unwrap();
        let (_, key) = frontend_keys(&kernel, &config);
        let text = serialize_spectrum(&key, &built.kle);
        let old = dir.join(format!("{:016x}.kle", key.fingerprint()));
        std::fs::write(&old, &text).unwrap();
        std::fs::write(
            dir.join("manifest.log"),
            format!(
                "entry 0 {:016x}.kle {:016x} {}\n",
                key.fingerprint(),
                fnv1a64(text.as_bytes()),
                text.len()
            ),
        )
        .unwrap();
        let cache = ArtifactCache::with_disk(&dir);
        assert!(!cache.peek_spectrum(&key));
        assert!(cache.lookup_spectrum(&key).is_none());
        assert_eq!(cache.snapshot().quarantined, 0);
        assert_eq!(std::fs::read_to_string(&old).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash-torn line in a `manifest.log` (the journal of the older
    /// unframed layout) must not switch off the integrity check of a
    /// later store. After it, one stored float gets a flipped hex digit,
    /// which still decodes, so only a checksum can catch it: the lookup
    /// must miss and quarantine the file, for every persisted kind.
    #[test]
    fn flipped_digit_after_torn_manifest_line_misses_and_quarantines() {
        let kernel = GaussianKernel::new(1.5);
        let config = coarse_config();
        let built = run_frontend(&kernel, &config, ExecPolicy::Plain, None).unwrap();
        let (mesh_key, spectrum_key) = frontend_keys(&kernel, &config);
        let block_key = sample_block_key(0xf11b);
        let block = Arc::new(sample_block_model());
        // (file extension, the line before the flipped value's line,
        // store, lookup-hits)
        type Kind<'a> = (
            &'a str,
            &'a str,
            &'a dyn Fn(&ArtifactCache),
            &'a dyn Fn(&ArtifactCache) -> bool,
        );
        let kinds: [Kind<'_>; 3] = [
            (
                "mesh",
                "points ",
                &|c| c.store_mesh(&mesh_key, Arc::clone(&built.mesh)),
                &|c| c.lookup_mesh(&mesh_key).is_some(),
            ),
            (
                "kle",
                "eigenvalues ",
                &|c| c.store_spectrum(&spectrum_key, Arc::clone(&built.kle)),
                &|c| c.lookup_spectrum(&spectrum_key).is_some(),
            ),
            (
                "block",
                "term ",
                &|c| c.store_block(&block_key, Arc::clone(&block)),
                &|c| c.lookup_block(&block_key).is_some(),
            ),
        ];
        let mut outcomes = Vec::new();
        for (ext, marker, store, lookup_hits) in kinds {
            let dir = std::env::temp_dir().join(format!(
                "klest-cache-test-{}-flipped-{ext}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("manifest.log"),
                "entry 7 0000000000000000.kle 0123",
            )
            .unwrap();
            store(&ArtifactCache::with_disk(&dir));
            let path = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|x| x == ext))
                .expect("stored artifact file");
            // The first value on the line after the marker line is 16 hex
            // digits; flip the last one (0↔1, …, e↔f).
            let mut bytes = std::fs::read(&path).unwrap();
            let text = String::from_utf8(bytes.clone()).unwrap();
            let marker_line = text.find(&format!("\n{marker}")).unwrap() + 1;
            let value = marker_line + text[marker_line..].find('\n').unwrap() + 1;
            let digit = char::from(bytes[value + 15]).to_digit(16).unwrap();
            bytes[value + 15] = b"0123456789abcdef"[(digit ^ 1) as usize];
            std::fs::write(&path, &bytes).unwrap();

            // (kind, warm hit, quarantined, damaged file still in place)
            let warm = ArtifactCache::with_disk(&dir);
            let hit = lookup_hits(&warm);
            outcomes.push((ext, hit, warm.snapshot().quarantined, path.exists()));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            outcomes,
            [
                ("mesh", false, 1, false),
                ("kle", false, 1, false),
                ("block", false, 1, false)
            ]
        );
    }

    #[test]
    fn block_serialization_rejects_foreign_descriptor() {
        let key = sample_block_key(1);
        let other = sample_block_key(2);
        let model = sample_block_model();
        let text = serialize_block(&key, &model);
        assert_eq!(deserialize_block(&key, &text), Some(model));
        assert!(deserialize_block(&other, &text).is_none());
        assert!(deserialize_block(&key, "garbage").is_none());
    }

    #[test]
    fn block_key_folds_region_and_spectrum() {
        let a = sample_block_key(1);
        let b = sample_block_key(2);
        assert_ne!(a, b, "region hash must perturb the key");
        assert!(a.descriptor().starts_with("block|"));
        assert!(a.descriptor().contains("region=0000000000000001"));
    }

    #[test]
    fn keyless_kernel_bypasses_cache() {
        struct Opaque;
        impl CovarianceKernel for Opaque {
            fn eval(&self, x: Point2, y: Point2) -> f64 {
                let dx = x.x - y.x;
                let dy = x.y - y.y;
                (-(dx * dx + dy * dy)).exp()
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let cache = ArtifactCache::new();
        let config = coarse_config();
        run_frontend(&Opaque, &config, ExecPolicy::Plain, Some(&cache)).unwrap();
        let snap = cache.snapshot();
        assert_eq!(snap.hits() + snap.misses(), 0, "{snap:?}");
    }
}
