//! The Monte Carlo SSTA loop shared by both sample generators.

use crate::faultinject::{FaultPlan, Stage};
use crate::{
    DegradationEvent, DegradationReport, GateFieldSampler, NormalSource, OutputStats, SstaError,
    SummaryStats,
};
use klest_rng::{SeedableRng, StdRng};
use klest_runtime::{CancelToken, Cancelled, ShardStatus, Supervisor};
use klest_sta::{ParamVector, Timer};
use std::time::{Duration, Instant};

/// Number of independent statistical parameters per gate
/// (`L`, `W`, `Vt`, `tox`).
pub const N_PARAMS: usize = 4;

/// Samples per lane block: the Monte Carlo loop draws this many samples'
/// normals, maps them through each sampler in one pass over its factor
/// and times them in one walk of the timing graph
/// ([`Timer::analyze_lanes`]). Chosen by measurement; every lane is
/// bit-identical to timing its sample alone.
pub const LANES: usize = 8;

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of Monte Carlo samples `N`.
    pub samples: usize,
    /// Base RNG seed; worker `t` derives its own stream from it.
    pub seed: u64,
    /// Worker threads (1 = fully sequential and bitwise deterministic
    /// regardless of machine).
    pub threads: usize,
    /// Antithetic variates: every second sample reuses the previous
    /// draw negated (`ξ → −ξ`). The pairing is exact because the fields
    /// are linear in ξ and the normals are symmetric; it cancels the
    /// odd-order error terms of mean estimates at zero extra sampling
    /// cost (classic MC variance reduction).
    pub antithetic: bool,
}

impl McConfig {
    /// Single-threaded configuration.
    pub fn new(samples: usize, seed: u64) -> Self {
        McConfig {
            samples,
            seed,
            threads: 1,
            antithetic: false,
        }
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables antithetic variates.
    pub fn with_antithetic(mut self) -> Self {
        self.antithetic = true;
        self
    }
}

/// What a supervised Monte Carlo run managed to keep: how many of the
/// planned samples completed before cancellation / faults, how hard the
/// supervisor had to work, and the resulting statistical penalty.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageStats {
    /// Samples originally requested.
    pub planned: usize,
    /// Samples actually salvaged into the run.
    pub completed: usize,
    /// Shards that needed at least one retry.
    pub shards_retried: usize,
    /// Shards lost entirely (every attempt panicked).
    pub worker_faults: usize,
    /// Factor by which the mean's confidence interval widens relative to
    /// the planned run: `√(planned/completed)` (1 for a full run).
    pub ci_widening: f64,
}

impl SalvageStats {
    /// Whether the run was truncated (fewer samples than planned).
    pub fn truncated(&self) -> bool {
        self.completed < self.planned
    }
}

/// Result of one Monte Carlo SSTA run.
#[derive(Debug, Clone)]
pub struct McRun {
    worst_delays: Vec<f64>,
    output_stats: OutputStats,
    /// Per-output count of samples in which that output was the worst.
    critical_counts: Vec<usize>,
    random_dims: usize,
    wall: Duration,
    /// Salvage accounting — `Some` only for supervised runs.
    salvage: Option<SalvageStats>,
}

impl McRun {
    /// Worst-delay sample per MC iteration.
    pub fn worst_delays(&self) -> &[f64] {
        &self.worst_delays
    }

    /// Summary of the worst-delay distribution (the Table 1 statistics).
    pub fn worst_delay_stats(&self) -> SummaryStats {
        SummaryStats::of(&self.worst_delays)
    }

    /// Per-primary-output arrival statistics (the Fig. 6 metric).
    pub fn output_stats(&self) -> &OutputStats {
        &self.output_stats
    }

    /// Random variables consumed per parameter per sample (`N_g` for
    /// Algorithm 1, `r` for Algorithm 2).
    pub fn random_dims(&self) -> usize {
        self.random_dims
    }

    /// Wall-clock duration of the sampling + timing loop.
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Salvage statistics — `Some` for runs in [`McMode::Supervised`]
    /// (including [`run_monte_carlo_supervised`]), `None` for plain and
    /// checkpointed runs.
    pub fn salvage(&self) -> Option<&SalvageStats> {
        self.salvage.as_ref()
    }

    /// Statistical criticality: the probability (over process outcomes)
    /// that each primary output is the circuit's worst — the quantity
    /// that makes "the" critical path a distribution under variation.
    /// Indexed like `Timer::outputs()`; sums to 1.
    pub fn criticality(&self) -> Vec<f64> {
        let total: usize = self.critical_counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.critical_counts.len()];
        }
        self.critical_counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// Runs `N` Monte Carlo STA iterations: per sample, draws [`N_PARAMS`]
/// independent correlated fields from `sampler` (the paper's tests use
/// one kernel for all four parameters), assembles per-node parameter
/// vectors and runs the timer. [`run_monte_carlo_with`] in
/// [`McMode::Plain`] with `sampler` driving every parameter.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] for a zero sample count or a sampler/timer
/// node-count mismatch.
pub fn run_monte_carlo<S: GateFieldSampler>(
    timer: &Timer,
    sampler: &S,
    config: &McConfig,
) -> Result<McRun, SstaError> {
    run_monte_carlo_with(timer, &[sampler as _; N_PARAMS], config, McMode::Plain)
}

/// Supervised [`run_monte_carlo`]: [`run_monte_carlo_with`] in
/// [`McMode::Supervised`] with no fault plan and `sampler` driving every
/// parameter.
///
/// # Errors
///
/// As for [`run_monte_carlo_with`] in supervised mode.
pub fn run_monte_carlo_supervised<S: GateFieldSampler>(
    timer: &Timer,
    sampler: &S,
    config: &McConfig,
    token: &CancelToken,
    report: &mut DegradationReport,
) -> Result<McRun, SstaError> {
    let mode = McMode::Supervised {
        token,
        faults: None,
        report,
    };
    run_monte_carlo_with(timer, &[sampler as _; N_PARAMS], config, mode)
}

/// How [`run_monte_carlo_with`] executes its shards — the Monte Carlo
/// counterpart of the pipeline's `ExecPolicy`. Every mode runs the same
/// per-sample loop on the same sample stream.
pub enum McMode<'a> {
    /// A single shard runs on the calling thread, several on scoped
    /// threads. Nothing is caught: a panic propagates, and the run
    /// carries no [`SalvageStats`].
    Plain,
    /// Shards run under a fault-isolating [`Supervisor`], poll `token`
    /// between samples (`mc/sample` checkpoints) and return partial
    /// results on cancellation. Panicking shards are retried with bounded
    /// backoff; shards that exhaust their retries lose only their own
    /// samples. The run always carries [`SalvageStats`] and records
    /// [`DegradationEvent`]s for cancellation, CI widening and every
    /// worker fault. With a live (never-tripped) token and no faults the
    /// samples are bitwise identical to the plain run's.
    Supervised {
        /// Cancellation token polled before every sample.
        token: &'a CancelToken,
        /// Panics / hangs injected at the `mc/sample` sites — the
        /// deterministic harness behind the fault-injection suite and the
        /// CLI's `--inject-*` flags.
        faults: Option<&'a FaultPlan>,
        /// Receives the salvage and worker-fault events.
        report: &'a mut DegradationReport,
    },
    /// Sample batches on the calling thread: after every `batch`
    /// completed samples (and once more at the end) an [`McCheckpoint`]
    /// is handed to `on_batch`, and the `mc/batch` deterministic kill
    /// point ([`klest_runtime::crash_point`]) is passed. Feeding a
    /// captured checkpoint back as `resume` continues the run and
    /// produces a **bitwise identical** [`McRun`] (worst delays, output
    /// moments, criticality) to the uninterrupted run with the same
    /// config. Checkpointing is defined for the sequential sample stream
    /// only, so `threads` must be 1; with antithetic variates `batch`
    /// must be even so every boundary falls between mirror pairs.
    Checkpointed {
        /// Samples between checkpoints.
        batch: usize,
        /// Checkpoint to continue from, if any.
        resume: Option<&'a McCheckpoint>,
        /// Receives every checkpoint.
        on_batch: &'a mut dyn FnMut(&McCheckpoint),
    },
}

/// The Monte Carlo run behind every entry point, in the general form
/// of Algorithms 1/2: a distinct field generator per statistical
/// parameter (`for all stat. parameters p_j ... K_j` in the paper's
/// pseudocode), in `[L, W, Vt, tox]` order. Generators may mix kinds
/// (e.g. KLE for the long-range parameters, grid-PCA for a legacy one).
/// The sample budget is split into one shard per thread, each with its
/// own RNG stream; `mode` decides how the shards run.
///
/// # Errors
///
/// [`SstaError::InvalidConfig`] for a zero sample count or any
/// sampler/timer node-count mismatch; in checkpointed mode also for
/// `threads != 1`, a zero or (with antithetic) odd `batch`, or a
/// `resume` checkpoint inconsistent with `timer`/`config`. In
/// supervised mode, [`SstaError::Cancelled`] when cancellation struck
/// before *any* sample completed and [`SstaError::WorkerFault`] when
/// every sample was lost to panicking shards.
pub fn run_monte_carlo_with(
    timer: &Timer,
    samplers: &[&dyn GateFieldSampler; N_PARAMS],
    config: &McConfig,
    mode: McMode<'_>,
) -> Result<McRun, SstaError> {
    validate(timer, samplers, config, &mode)?;
    let started = Instant::now();
    let threads = config.threads.max(1).min(config.samples);
    let n_outputs = timer.outputs().len();

    // Split the sample budget across shards.
    let mut shares = vec![config.samples / threads; threads];
    for s in shares.iter_mut().take(config.samples % threads) {
        *s += 1;
    }
    let fresh = |shard: usize| {
        // A single shard runs on the base seed, so a truncated supervised
        // run salvages an exact prefix of the plain run's sample stream.
        let seed = if threads == 1 {
            config.seed
        } else {
            config
                .seed
                .wrapping_add(0x100_0003u64.wrapping_mul(shard as u64 + 1))
        };
        ShardState::new(seed, shares[shard], n_outputs)
    };
    let run_fresh = |shard: usize, token: Option<&CancelToken>| {
        let mut state = fresh(shard);
        let cancelled = run_samples(
            timer,
            samplers,
            config.antithetic,
            &mut state,
            shares[shard],
            token,
            None,
        );
        (state, cancelled)
    };

    let mut resumed = 0;
    let (shards, salvage) = match mode {
        McMode::Plain if threads == 1 => (vec![run_fresh(0, None).0], None),
        McMode::Plain => {
            // Spans stay on the coordinating thread (thread-local stacks
            // start fresh in workers); workers report through the
            // thread-safe metrics registry instead.
            let shards = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|shard| scope.spawn(move || run_fresh(shard, None).0))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            (shards, None)
        }
        McMode::Supervised {
            token,
            faults,
            report,
        } => {
            let _span = klest_obs::span("mc/supervised");
            let run = Supervisor::new(token.clone()).run(threads, |shard, tok| {
                if let Some(plan) = faults {
                    // Injected hang / panic on entry; a panic here is
                    // caught by the supervisor and the retried shard
                    // reruns from this point with the same seed,
                    // reproducing the original sample stream.
                    plan.fire(Stage::Mc, shard, tok);
                }
                run_fresh(shard, Some(tok))
            });
            // Keep everything completed shards produced, including the
            // partial output of cancelled stragglers.
            let mut shards = Vec::with_capacity(threads);
            let mut first_cancel = None;
            for (state, cancelled) in run.results.into_iter().flatten() {
                shards.push(state);
                first_cancel = first_cancel.or(cancelled);
            }
            let completed = shards.iter().map(|s| s.worst.len()).sum();
            let salvage = salvage(
                &run.status,
                first_cancel,
                completed,
                config.samples,
                token,
                report,
            )?;
            (shards, Some(salvage))
        }
        McMode::Checkpointed {
            batch,
            resume,
            on_batch,
        } => {
            let mut state = match resume {
                Some(cp) => {
                    resumed = cp.completed;
                    ShardState::resume(cp)?
                }
                None => fresh(0),
            };
            run_samples(
                timer,
                samplers,
                config.antithetic,
                &mut state,
                config.samples,
                None,
                Some((batch, on_batch)),
            );
            (vec![state], None)
        }
    };

    let mut worst_delays = Vec::with_capacity(config.samples);
    let mut output_stats = OutputStats::new(n_outputs);
    let mut critical_counts = vec![0usize; n_outputs];
    for shard in shards {
        worst_delays.extend(shard.worst);
        output_stats.merge(&shard.stats);
        for (acc, c) in critical_counts.iter_mut().zip(shard.critical_counts) {
            *acc += c;
        }
    }
    let wall = started.elapsed();
    if klest_obs::enabled() {
        let ran = worst_delays.len() - resumed;
        klest_obs::counter_add("mc.samples", ran as u64);
        klest_obs::gauge_set("mc.threads", threads as f64);
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            klest_obs::gauge_set("mc.samples_per_sec", ran as f64 / secs);
        }
        if let Some(salvage) = &salvage {
            klest_obs::counter_add("mc.samples_salvaged", salvage.completed as u64);
            klest_obs::gauge_set("mc.ci_widening", salvage.ci_widening);
        }
    }
    Ok(McRun {
        worst_delays,
        output_stats,
        critical_counts,
        random_dims: samplers.iter().map(|s| s.random_dims()).max().unwrap_or(0),
        wall,
        salvage,
    })
}

/// Rejects a configuration `mode` cannot run, before any sample is drawn.
fn validate(
    timer: &Timer,
    samplers: &[&dyn GateFieldSampler; N_PARAMS],
    config: &McConfig,
    mode: &McMode<'_>,
) -> Result<(), SstaError> {
    if config.samples == 0 {
        return Err(SstaError::InvalidConfig {
            name: "samples",
            value: "0".into(),
        });
    }
    for (i, s) in samplers.iter().enumerate() {
        if s.node_count() != timer.node_count() {
            return Err(SstaError::InvalidConfig {
                name: "sampler.node_count",
                value: format!(
                    "param {i}: {} (timer has {})",
                    s.node_count(),
                    timer.node_count()
                ),
            });
        }
    }
    let McMode::Checkpointed { batch, resume, .. } = mode else {
        return Ok(());
    };
    if config.threads != 1 {
        return Err(SstaError::InvalidConfig {
            name: "threads",
            value: format!("{} (checkpointed runs are single-threaded)", config.threads),
        });
    }
    if *batch == 0 || (config.antithetic && !batch.is_multiple_of(2)) {
        return Err(SstaError::InvalidConfig {
            name: "batch",
            value: format!(
                "{batch} (must be positive{})",
                if config.antithetic {
                    ", and even with antithetic variates"
                } else {
                    ""
                }
            ),
        });
    }
    if let Some(cp) = resume {
        // Antithetic resume must land on a pair boundary — except at
        // `completed == samples`, where an odd sample count legitimately
        // ends mid-pair and there is nothing left to generate.
        let n_outputs = timer.outputs().len();
        let consistent = cp.completed <= config.samples
            && cp.outputs() == n_outputs
            && (!config.antithetic
                || cp.completed.is_multiple_of(2)
                || cp.completed == config.samples);
        if !consistent {
            return Err(SstaError::InvalidConfig {
                name: "resume",
                value: format!(
                    "checkpoint at {} samples / {} outputs does not fit run of {} / {}",
                    cp.completed,
                    cp.outputs(),
                    config.samples,
                    n_outputs
                ),
            });
        }
    }
    Ok(())
}

/// Salvage accounting for a supervised run that kept `completed` of
/// `planned` samples: records a [`DegradationEvent`] for every retried or
/// lost shard and for truncation, and surfaces a run that salvaged
/// nothing as its typed cause.
fn salvage(
    status: &[ShardStatus],
    first_cancel: Option<Cancelled>,
    completed: usize,
    planned: usize,
    token: &CancelToken,
    report: &mut DegradationReport,
) -> Result<SalvageStats, SstaError> {
    let (mut shards_retried, mut worker_faults) = (0usize, 0usize);
    let mut first_fault: Option<SstaError> = None;
    for (shard, status) in status.iter().enumerate() {
        match status {
            ShardStatus::Completed => {}
            ShardStatus::Recovered { retries } => {
                shards_retried += 1;
                report.record(DegradationEvent::WorkerFault {
                    stage: "mc/sample",
                    shard,
                    attempts: retries + 1,
                    recovered: true,
                });
            }
            ShardStatus::Faulted { attempts, message } => {
                worker_faults += 1;
                report.record(DegradationEvent::WorkerFault {
                    stage: "mc/sample",
                    shard,
                    attempts: *attempts,
                    recovered: false,
                });
                if first_fault.is_none() {
                    first_fault = Some(SstaError::WorkerFault {
                        stage: "mc/sample",
                        shard,
                        attempts: *attempts,
                        message: message.clone(),
                    });
                }
            }
        }
    }

    if completed == 0 {
        // Nothing to salvage: surface the typed cause.
        return Err(match (first_fault, first_cancel) {
            (Some(fault), _) => fault,
            (None, Some(c)) => SstaError::Cancelled(c),
            (None, None) => SstaError::Cancelled(Cancelled {
                stage: "mc/sample",
                completed: 0,
                budget: token.budget(),
            }),
        });
    }

    let ci_widening = if completed < planned {
        (planned as f64 / completed as f64).sqrt()
    } else {
        1.0
    };
    if completed < planned {
        let stage = first_cancel.as_ref().map_or("mc/sample", |c| c.stage);
        report.record(DegradationEvent::Cancelled {
            stage,
            completed,
            planned,
        });
        report.record(DegradationEvent::CiWidened {
            factor: ci_widening,
        });
    }
    Ok(SalvageStats {
        planned,
        completed,
        shards_retried,
        worker_faults,
        ci_widening,
    })
}

/// Crash-consistent snapshot of a single-threaded Monte Carlo run,
/// captured at a sample-batch boundary by [`McMode::Checkpointed`].
///
/// The snapshot is *complete*: worst-delay prefix, Welford accumulator
/// internals, criticality counts, the xoshiro RNG state and the normal
/// source's cached polar spare. Resuming from it replays the remaining
/// samples **bitwise identically** to the uninterrupted run — the textual
/// serialization stores exact f64 bit patterns, so a disk round-trip
/// loses nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct McCheckpoint {
    completed: usize,
    worst_delays: Vec<f64>,
    stats_count: usize,
    stats_mean: Vec<f64>,
    stats_m2: Vec<f64>,
    critical_counts: Vec<usize>,
    rng_state: [u64; 4],
    spare: Option<f64>,
}

const MC_CKPT_HEADER: &str = "klest-mc-checkpoint/v1";

fn push_f64_words(out: &mut String, label: &str, values: &[f64]) {
    out.push_str(label);
    for &v in values {
        out.push(' ');
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    out.push('\n');
}

fn parse_f64_words(line: &str, label: &str) -> Option<Vec<f64>> {
    let rest = line.strip_prefix(label)?;
    let mut values = Vec::new();
    for word in rest.split_whitespace() {
        if word.len() != 16 {
            return None;
        }
        values.push(f64::from_bits(u64::from_str_radix(word, 16).ok()?));
    }
    Some(values)
}

impl McCheckpoint {
    /// Samples completed up to this checkpoint.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of tracked primary outputs.
    pub fn outputs(&self) -> usize {
        self.critical_counts.len()
    }

    /// Serializes the checkpoint as text with exact f64 bit patterns.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(MC_CKPT_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "completed {}\noutputs {}\n",
            self.completed,
            self.outputs()
        ));
        out.push_str(&format!(
            "rng {:016x} {:016x} {:016x} {:016x}\n",
            self.rng_state[0], self.rng_state[1], self.rng_state[2], self.rng_state[3]
        ));
        match self.spare {
            Some(v) => out.push_str(&format!("spare {:016x}\n", v.to_bits())),
            None => out.push_str("spare -\n"),
        }
        push_f64_words(&mut out, "worst", &self.worst_delays);
        out.push_str(&format!("stats-count {}\n", self.stats_count));
        push_f64_words(&mut out, "stats-mean", &self.stats_mean);
        push_f64_words(&mut out, "stats-m2", &self.stats_m2);
        out.push_str("critical");
        for &c in &self.critical_counts {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
        out
    }

    /// Parses a [`serialize`](Self::serialize)d checkpoint. `None` on any
    /// structural damage or internal inconsistency — a torn or corrupted
    /// checkpoint degrades to "no checkpoint", never a panic.
    pub fn deserialize(text: &str) -> Option<McCheckpoint> {
        let mut lines = text.lines();
        if lines.next()? != MC_CKPT_HEADER {
            return None;
        }
        let completed: usize = lines.next()?.strip_prefix("completed ")?.parse().ok()?;
        let outputs: usize = lines.next()?.strip_prefix("outputs ")?.parse().ok()?;
        let rng_words = parse_f64_words(lines.next()?, "rng")?;
        if rng_words.len() != 4 {
            return None;
        }
        let mut rng_state = [0u64; 4];
        for (slot, v) in rng_state.iter_mut().zip(rng_words) {
            *slot = v.to_bits();
        }
        let spare_line = lines.next()?.strip_prefix("spare ")?;
        let spare = if spare_line == "-" {
            None
        } else if spare_line.len() == 16 {
            Some(f64::from_bits(u64::from_str_radix(spare_line, 16).ok()?))
        } else {
            return None;
        };
        let worst_delays = parse_f64_words(lines.next()?, "worst")?;
        let stats_count: usize = lines.next()?.strip_prefix("stats-count ")?.parse().ok()?;
        let stats_mean = parse_f64_words(lines.next()?, "stats-mean")?;
        let stats_m2 = parse_f64_words(lines.next()?, "stats-m2")?;
        let critical_line = lines.next()?.strip_prefix("critical")?;
        let mut critical_counts = Vec::new();
        for word in critical_line.split_whitespace() {
            critical_counts.push(word.parse().ok()?);
        }
        if lines.next().is_some()
            || worst_delays.len() != completed
            || stats_mean.len() != outputs
            || stats_m2.len() != outputs
            || critical_counts.len() != outputs
            || stats_count != completed
        {
            return None;
        }
        Some(McCheckpoint {
            completed,
            worst_delays,
            stats_count,
            stats_mean,
            stats_m2,
            critical_counts,
            rng_state,
            spare,
        })
    }
}

/// One shard's sample stream and accumulated results — exactly the state
/// an [`McCheckpoint`] captures.
struct ShardState {
    normals: NormalSource<StdRng>,
    worst: Vec<f64>,
    stats: OutputStats,
    critical_counts: Vec<usize>,
}

impl ShardState {
    /// A shard about to draw `samples` samples from `seed`.
    fn new(seed: u64, samples: usize, n_outputs: usize) -> Self {
        ShardState {
            normals: NormalSource::new(StdRng::seed_from_u64(seed)),
            worst: Vec::with_capacity(samples),
            stats: OutputStats::new(n_outputs),
            critical_counts: vec![0usize; n_outputs],
        }
    }

    /// The shard a checkpoint captured.
    fn resume(cp: &McCheckpoint) -> Result<Self, SstaError> {
        let stats =
            OutputStats::from_raw_parts(cp.stats_count, cp.stats_mean.clone(), cp.stats_m2.clone())
                .ok_or_else(|| SstaError::InvalidConfig {
                    name: "resume",
                    value: "corrupted accumulator widths".into(),
                })?;
        Ok(ShardState {
            normals: NormalSource::from_parts(StdRng::from_state(cp.rng_state), cp.spare),
            worst: cp.worst_delays.clone(),
            stats,
            critical_counts: cp.critical_counts.clone(),
        })
    }

    fn checkpoint(&mut self) -> McCheckpoint {
        let (count, mean, m2) = self.stats.raw_parts();
        McCheckpoint {
            completed: self.worst.len(),
            worst_delays: self.worst.clone(),
            stats_count: count,
            stats_mean: mean.to_vec(),
            stats_m2: m2.to_vec(),
            critical_counts: self.critical_counts.clone(),
            rng_state: self.normals.rng_mut().state(),
            spare: self.normals.spare(),
        }
    }
}

/// Samples between checkpoints, and the hook receiving each one.
type BatchHook<'h> = (usize, &'h mut dyn FnMut(&McCheckpoint));

/// The sample loop every mode runs, for samples `state.worst.len()..end`
/// of one shard, in blocks of up to [`LANES`] samples: draw the normals
/// of every fresh sample in the one-sample order (sample by sample, then
/// parameter by parameter), map them into per-node [`ParamVector`]s
/// (mirrored samples negate their predecessor's), time the block in one
/// walk of the graph, then push each sample's worst delay, critical
/// output and output arrivals into `state` in sample order. A block never
/// crosses the shard's end, a checkpoint batch or a mirror pair, so every
/// sample is bit-identical to timing it alone.
///
/// With a `token`, each sample of a block first passes an `mc/sample`
/// checkpoint; a trip trims the block to the samples polled before it
/// and returns the cancellation, leaving the completed samples in
/// `state`. With a `batch` hook, every `batch`-th sample and the last one
/// hand a snapshot of `state` to the hook and then pass the `mc/batch`
/// kill point.
fn run_samples(
    timer: &Timer,
    samplers: &[&dyn GateFieldSampler; N_PARAMS],
    antithetic: bool,
    state: &mut ShardState,
    end: usize,
    token: Option<&CancelToken>,
    mut batch: Option<BatchHook<'_>>,
) -> Option<Cancelled> {
    let observe = klest_obs::enabled().then(Instant::now);
    let n = timer.node_count();
    let n_outputs = timer.outputs().len();
    let mut xi = samplers.map(|s| vec![[0.0; LANES]; s.random_dims()]);
    let mut params = vec![[ParamVector::ZERO; LANES]; n];
    let mut arrivals = vec![[0.0; LANES]; n];
    let mut slews = vec![[0.0; LANES]; n];
    let mut out_values = vec![0.0; n_outputs];
    let mut cancelled = None;
    let mut start = state.worst.len();
    while start < end {
        let mut len = LANES.min(end - start);
        if let Some((every, _)) = &batch {
            len = len.min(every - start % every);
        }
        let mut tripped = None;
        if let Some(t) = token {
            for polled in 0..len {
                if let Err(c) = t.checkpoint("mc/sample") {
                    tripped = Some(c);
                    len = polled;
                    break;
                }
            }
        }
        if len > 0 {
            // Every block starts on an even sample (batches and resumed
            // checkpoints are even with antithetic variates), so a mirror
            // lane's predecessor is in the same block.
            let mirrored = |lane: usize| antithetic && (start + lane) % 2 == 1;
            for lane in (0..len).filter(|&l| !mirrored(l)) {
                for x in xi.iter_mut() {
                    for normals in x.iter_mut() {
                        normals[lane] = state.normals.sample();
                    }
                }
            }
            for (param, (sampler, x)) in samplers.iter().zip(&xi).enumerate() {
                sampler.correlate_lanes(x, param, &mut params);
            }
            // Fields are linear in the underlying normals, so negating the
            // field equals negating ξ.
            for lane in (0..len).filter(|&l| mirrored(l)) {
                for p in params.iter_mut() {
                    p[lane] = ParamVector::new(p[lane - 1].0.map(|v| -v));
                }
            }
            let worst = timer.analyze_lanes(&params, &mut arrivals, &mut slews);
            for (lane, &w) in worst.iter().enumerate().take(len) {
                state.worst.push(w);
                let mut argmax = 0usize;
                let mut best = f64::NEG_INFINITY;
                for ((slot, v), o) in out_values.iter_mut().enumerate().zip(timer.outputs()) {
                    *v = arrivals[o.index()][lane];
                    if *v > best {
                        best = *v;
                        argmax = slot;
                    }
                }
                if n_outputs > 0 {
                    state.critical_counts[argmax] += 1;
                }
                state.stats.push(&out_values);
                if let Some((every, on_batch)) = batch.as_mut() {
                    let done = start + lane + 1;
                    if done.is_multiple_of(*every) || done == end {
                        on_batch(&state.checkpoint());
                        klest_runtime::crash_point("mc/batch");
                    }
                }
            }
            start += len;
        }
        if let Some(c) = tripped {
            cancelled = Some(c.with_completed(state.worst.len()));
            break;
        }
    }
    if let Some(t0) = observe {
        klest_obs::histogram_observe("mc.worker_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    cancelled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskySampler, GridPcaSampler, KleFieldSampler};
    use klest_circuit::{generate, GeneratorConfig, Placement, WireModel};
    use klest_kernels::GaussianKernel;
    use klest_sta::GateLibrary;

    fn setup(gates: usize) -> (Timer, CholeskySampler) {
        let c = generate("mc", GeneratorConfig::combinational(gates, 3)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let timer = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
        let sampler = CholeskySampler::new(&GaussianKernel::new(2.0), p.locations()).unwrap();
        (timer, sampler)
    }

    /// One circuit with a Cholesky, a KLE and a grid-PCA generator.
    fn mixed_setup() -> (Timer, CholeskySampler, KleFieldSampler, GridPcaSampler) {
        use klest_core::{GalerkinKle, KleOptions};
        use klest_geometry::Rect;
        use klest_mesh::MeshBuilder;
        let c = generate("mix", GeneratorConfig::combinational(60, 8)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let timer = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
        let kernel = GaussianKernel::new(2.0);
        let chol = CholeskySampler::new(&kernel, p.locations()).unwrap();
        let mesh = MeshBuilder::new(Rect::unit_die())
            .max_area(0.05)
            .build()
            .unwrap();
        let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).unwrap();
        let kle_s = KleFieldSampler::new(&kle, &mesh, 15, p.locations()).unwrap();
        let grid = GridPcaSampler::new(&kernel, Rect::unit_die(), 6, 15, p.locations()).unwrap();
        (timer, chol, kle_s, grid)
    }

    #[test]
    fn produces_requested_sample_count() {
        let (timer, sampler) = setup(60);
        let run = run_monte_carlo(&timer, &sampler, &McConfig::new(100, 1)).unwrap();
        assert_eq!(run.worst_delays().len(), 100);
        assert_eq!(run.output_stats().count(), 100);
        assert_eq!(run.random_dims(), timer.node_count());
        assert!(run.wall_time().as_nanos() > 0);
        let stats = run.worst_delay_stats();
        assert!(stats.mean > 0.0);
        assert!(stats.std_dev > 0.0, "process variation must spread delays");
    }

    #[test]
    fn deterministic_single_thread() {
        let (timer, sampler) = setup(40);
        let a = run_monte_carlo(&timer, &sampler, &McConfig::new(50, 11)).unwrap();
        let b = run_monte_carlo(&timer, &sampler, &McConfig::new(50, 11)).unwrap();
        assert_eq!(a.worst_delays(), b.worst_delays());
        let c = run_monte_carlo(&timer, &sampler, &McConfig::new(50, 12)).unwrap();
        assert_ne!(a.worst_delays(), c.worst_delays());
    }

    #[test]
    fn threaded_matches_sample_count_and_stats_roughly() {
        let (timer, sampler) = setup(50);
        let seq = run_monte_carlo(&timer, &sampler, &McConfig::new(400, 5)).unwrap();
        let par =
            run_monte_carlo(&timer, &sampler, &McConfig::new(400, 5).with_threads(4)).unwrap();
        assert_eq!(par.worst_delays().len(), 400);
        assert_eq!(par.output_stats().count(), 400);
        let (s, p) = (seq.worst_delay_stats(), par.worst_delay_stats());
        // Different RNG streams, same distribution.
        assert!(p.mean_error_pct(&s) < 2.0, "means {} vs {}", p.mean, s.mean);
        assert!(p.std_error_pct(&s) < 35.0);
    }

    #[test]
    fn antithetic_pairs_mirror_and_reduce_mean_noise() {
        let (timer, sampler) = setup(60);
        // Pairing symmetry: with an even count the empirical mean of the
        // underlying parameter fields is exactly zero, which shows up as
        // a much more stable worst-delay mean across seeds.
        let plain_means: Vec<f64> = (0..6)
            .map(|s| {
                run_monte_carlo(&timer, &sampler, &McConfig::new(200, s))
                    .unwrap()
                    .worst_delay_stats()
                    .mean
            })
            .collect();
        let anti_means: Vec<f64> = (0..6)
            .map(|s| {
                run_monte_carlo(&timer, &sampler, &McConfig::new(200, s).with_antithetic())
                    .unwrap()
                    .worst_delay_stats()
                    .mean
            })
            .collect();
        let spread = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        assert!(
            spread(&anti_means) < spread(&plain_means),
            "antithetic mean spread {} should beat plain {}",
            spread(&anti_means),
            spread(&plain_means)
        );
        // Sample count is unchanged.
        let run =
            run_monte_carlo(&timer, &sampler, &McConfig::new(101, 1).with_antithetic()).unwrap();
        assert_eq!(run.worst_delays().len(), 101);
    }

    #[test]
    fn criticality_sums_to_one_and_tracks_dominance() {
        use klest_circuit::{Circuit, GateKind};
        // Diamond with one clearly slower output: its criticality ~ 1.
        let mut b = Circuit::builder("crit");
        let a = b.input();
        let a2 = b.input();
        let fast = b.gate(GateKind::Inv, &[a]).unwrap();
        let s1 = b.gate(GateKind::Xor2, &[a, a2]).unwrap();
        let s2 = b.gate(GateKind::Xor2, &[s1, a2]).unwrap();
        let s3 = b.gate(GateKind::Xor2, &[s2, a2]).unwrap();
        b.output(fast);
        b.output(s3);
        let c = b.build().unwrap();
        let p = Placement::recursive_bisection(&c);
        let timer = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
        let sampler = CholeskySampler::new(&GaussianKernel::new(2.0), p.locations()).unwrap();
        let run = run_monte_carlo(&timer, &sampler, &McConfig::new(500, 3)).unwrap();
        let crit = run.criticality();
        assert_eq!(crit.len(), 2);
        assert!((crit.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Output order matches timer.outputs(): fast first, slow second.
        assert!(crit[1] > 0.95, "slow output criticality {}", crit[1]);
        assert!(crit[0] < 0.05);
    }

    #[test]
    fn per_param_mixed_samplers() {
        let (timer, chol, kle_s, grid) = mixed_setup();
        // L from Cholesky, W from KLE, Vt from grid-PCA, tox from KLE.
        let samplers: [&dyn GateFieldSampler; N_PARAMS] = [&chol, &kle_s, &grid, &kle_s];
        let run =
            run_monte_carlo_with(&timer, &samplers, &McConfig::new(200, 5), McMode::Plain).unwrap();
        assert_eq!(run.worst_delays().len(), 200);
        assert!(run.worst_delay_stats().std_dev > 0.0);
        assert_eq!(run.random_dims(), timer.node_count(), "max over params");
        // Mismatched node counts in one slot are rejected.
        let (other_timer, _) = setup(61);
        assert!(matches!(
            run_monte_carlo_with(&other_timer, &samplers, &McConfig::new(5, 1), McMode::Plain),
            Err(SstaError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn supervised_matches_plain_run_bitwise_when_untripped() {
        let (timer, sampler) = setup(40);
        let (mix_timer, chol, kle_s, grid) = mixed_setup();
        let mixed: [&dyn GateFieldSampler; N_PARAMS] = [&chol, &kle_s, &grid, &kle_s];
        for threads in [1usize, 3] {
            let cfg = McConfig::new(60, 7).with_threads(threads);
            let token = CancelToken::unlimited();
            let mut report = DegradationReport::new();
            let mut mixed_report = DegradationReport::new();
            let supervised_mixed = McMode::Supervised {
                token: &token,
                faults: None,
                report: &mut mixed_report,
            };
            // One sampler for all parameters, then mixed per-parameter
            // generators through the general form.
            let runs = [
                (
                    run_monte_carlo(&timer, &sampler, &cfg).unwrap(),
                    run_monte_carlo_supervised(&timer, &sampler, &cfg, &token, &mut report)
                        .unwrap(),
                ),
                (
                    run_monte_carlo_with(&mix_timer, &mixed, &cfg, McMode::Plain).unwrap(),
                    run_monte_carlo_with(&mix_timer, &mixed, &cfg, supervised_mixed).unwrap(),
                ),
            ];
            for ((plain, sup), report) in runs.iter().zip([&report, &mixed_report]) {
                assert_eq!(
                    plain.worst_delays(),
                    sup.worst_delays(),
                    "threads={threads}"
                );
                assert!(report.is_clean(), "{report}");
                let salvage = sup.salvage().expect("supervised runs report salvage");
                assert_eq!(salvage.planned, 60);
                assert_eq!(salvage.completed, 60);
                assert_eq!(salvage.ci_widening, 1.0);
                assert!(!salvage.truncated());
            }
        }
    }

    #[test]
    fn tripped_run_salvages_exact_prefix() {
        let (timer, sampler) = setup(40);
        let cfg = McConfig::new(50, 13);
        let full = run_monte_carlo(&timer, &sampler, &cfg).unwrap();
        let token = CancelToken::unlimited();
        token.trip_after_checkpoints(20);
        let mut report = DegradationReport::new();
        let run = run_monte_carlo_supervised(&timer, &sampler, &cfg, &token, &mut report).unwrap();
        assert_eq!(run.worst_delays().len(), 20);
        assert_eq!(run.worst_delays(), &full.worst_delays()[..20]);
        let salvage = run.salvage().unwrap();
        assert_eq!(salvage.completed, 20);
        assert!((salvage.ci_widening - (50.0f64 / 20.0).sqrt()).abs() < 1e-12);
        assert!(report.events().iter().any(|e| matches!(
            e,
            DegradationEvent::Cancelled {
                stage: "mc/sample",
                completed: 20,
                planned: 50
            }
        )));
        assert!(report
            .events()
            .iter()
            .any(|e| matches!(e, DegradationEvent::CiWidened { .. })));
    }

    #[test]
    fn transient_panic_is_retried_and_recovers_bitwise() {
        let (timer, sampler) = setup(40);
        let cfg = McConfig::new(40, 5).with_threads(2);
        let clean = run_monte_carlo(&timer, &sampler, &cfg).unwrap();
        let token = CancelToken::unlimited();
        let plan = FaultPlan::new().panic_at(Stage::Mc, 1);
        let mut report = DegradationReport::new();
        let mode = McMode::Supervised {
            token: &token,
            faults: Some(&plan),
            report: &mut report,
        };
        let run = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode).unwrap();
        // The retry reran shard 1 with its original seed: full salvage,
        // same sample multiset as the clean parallel run.
        assert_eq!(run.worst_delays().len(), 40);
        assert_eq!(run.worst_delays(), clean.worst_delays());
        let salvage = run.salvage().unwrap();
        assert_eq!(salvage.shards_retried, 1);
        assert_eq!(salvage.worker_faults, 0);
        assert!(report.events().iter().any(|e| matches!(
            e,
            DegradationEvent::WorkerFault {
                shard: 1,
                recovered: true,
                ..
            }
        )));
    }

    #[test]
    fn permanent_panic_loses_one_shard_keeps_siblings() {
        let (timer, sampler) = setup(40);
        let cfg = McConfig::new(40, 5).with_threads(2);
        let token = CancelToken::unlimited();
        // More scheduled panics than the supervisor will retry.
        let plan = FaultPlan::new().panic_at_times(Stage::Mc, 0, 100);
        let mut report = DegradationReport::new();
        let mode = McMode::Supervised {
            token: &token,
            faults: Some(&plan),
            report: &mut report,
        };
        let run = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode).unwrap();
        // Shard 0's 20 samples are lost; shard 1's 20 survive.
        assert_eq!(run.worst_delays().len(), 20);
        let salvage = run.salvage().unwrap();
        assert_eq!(salvage.worker_faults, 1);
        assert!(salvage.truncated());
        assert!(report.events().iter().any(|e| matches!(
            e,
            DegradationEvent::WorkerFault {
                shard: 0,
                recovered: false,
                ..
            }
        )));
    }

    #[test]
    fn zero_salvage_surfaces_typed_errors() {
        let (timer, sampler) = setup(30);
        // Pre-cancelled token: no sample ever completes.
        let token = CancelToken::unlimited();
        token.cancel();
        let mut report = DegradationReport::new();
        let err = run_monte_carlo_supervised(
            &timer,
            &sampler,
            &McConfig::new(10, 1),
            &token,
            &mut report,
        )
        .unwrap_err();
        assert!(matches!(err, SstaError::Cancelled(_)), "{err:?}");
        // Every shard permanently faulted: worker fault, not cancellation.
        let token = CancelToken::unlimited();
        let plan = FaultPlan::new().panic_at_times(Stage::Mc, 0, 100);
        let mut report = DegradationReport::new();
        let mode = McMode::Supervised {
            token: &token,
            faults: Some(&plan),
            report: &mut report,
        };
        let err = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &McConfig::new(10, 1), mode)
            .unwrap_err();
        assert!(
            matches!(err, SstaError::WorkerFault { shard: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("injected fault"));
    }

    fn run_bits(run: &McRun) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<usize>) {
        let worst = run.worst_delays().iter().map(|v| v.to_bits()).collect();
        let k = run.output_stats().outputs();
        let means = (0..k)
            .map(|i| run.output_stats().mean(i).to_bits())
            .collect();
        let stds = (0..k)
            .map(|i| run.output_stats().std_dev(i).to_bits())
            .collect();
        (worst, means, stds, run.critical_counts.clone())
    }

    #[test]
    fn checkpointed_run_matches_plain_bitwise_and_resumes_from_every_batch() {
        let (timer, sampler) = setup(40);
        for antithetic in [false, true] {
            let mut cfg = McConfig::new(50, 13);
            if antithetic {
                cfg = cfg.with_antithetic();
            }
            let plain = run_monte_carlo(&timer, &sampler, &cfg).unwrap();
            let mut checkpoints = Vec::new();
            let mode = McMode::Checkpointed {
                batch: 8,
                resume: None,
                on_batch: &mut |cp| checkpoints.push(cp.clone()),
            };
            let full = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode).unwrap();
            assert_eq!(run_bits(&full), run_bits(&plain), "antithetic={antithetic}");
            // ceil(50/8) = 7 boundaries (the last is the final sample).
            assert_eq!(checkpoints.len(), 7);
            assert_eq!(checkpoints.last().unwrap().completed(), 50);
            for cp in &checkpoints {
                // Disk round-trip through the textual format, then resume.
                let restored = McCheckpoint::deserialize(&cp.serialize()).unwrap();
                assert_eq!(&restored, cp, "serialization must be lossless");
                let mode = McMode::Checkpointed {
                    batch: 8,
                    resume: Some(&restored),
                    on_batch: &mut |_| {},
                };
                let resumed =
                    run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode).unwrap();
                assert_eq!(
                    run_bits(&resumed),
                    run_bits(&plain),
                    "resume from {} (antithetic={antithetic}) must be bitwise identical",
                    cp.completed()
                );
            }
        }
    }

    #[test]
    fn mc_checkpoint_deserialize_rejects_damage() {
        let (timer, sampler) = setup(30);
        let cfg = McConfig::new(16, 3);
        let mut last = None;
        let mode = McMode::Checkpointed {
            batch: 8,
            resume: None,
            on_batch: &mut |cp| last = Some(cp.clone()),
        };
        let _ = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode).unwrap();
        let wire = last.unwrap().serialize();
        assert!(McCheckpoint::deserialize(&wire).is_some());
        // Torn tail, wrong header, count drift, trailing garbage.
        assert!(McCheckpoint::deserialize(&wire[..wire.len() - 7]).is_none());
        assert!(McCheckpoint::deserialize(&wire.replacen("v1", "v7", 1)).is_none());
        assert!(
            McCheckpoint::deserialize(&wire.replacen("completed 16", "completed 15", 1)).is_none()
        );
        assert!(McCheckpoint::deserialize(&format!("{wire}junk\n")).is_none());
        assert!(McCheckpoint::deserialize("").is_none());
    }

    #[test]
    fn checkpointed_run_rejects_bad_configs() {
        let (timer, sampler) = setup(30);
        let samplers: [&dyn GateFieldSampler; N_PARAMS] = [&sampler; N_PARAMS];
        // Leaking the zero-sized no-op hook allocates nothing.
        let nop = |batch, resume| McMode::Checkpointed {
            batch,
            resume,
            on_batch: Box::leak(Box::new(|_: &McCheckpoint| {})),
        };
        let threaded = McConfig::new(10, 1).with_threads(2);
        assert!(matches!(
            run_monte_carlo_with(&timer, &samplers, &threaded, nop(4, None)),
            Err(SstaError::InvalidConfig {
                name: "threads",
                ..
            })
        ));
        assert!(matches!(
            run_monte_carlo_with(&timer, &samplers, &McConfig::new(10, 1), nop(0, None)),
            Err(SstaError::InvalidConfig { name: "batch", .. })
        ));
        let anti = McConfig::new(10, 1).with_antithetic();
        assert!(matches!(
            run_monte_carlo_with(&timer, &samplers, &anti, nop(3, None)),
            Err(SstaError::InvalidConfig { name: "batch", .. })
        ));
        // A checkpoint from a different circuit shape is rejected.
        let cfg = McConfig::new(10, 1);
        let mut cp = None;
        let capture = McMode::Checkpointed {
            batch: 4,
            resume: None,
            on_batch: &mut |c| cp = Some(c.clone()),
        };
        let _ = run_monte_carlo_with(&timer, &samplers, &cfg, capture).unwrap();
        let cp = cp.unwrap();
        let (other_timer, other_sampler) = setup(31);
        if other_timer.outputs().len() != timer.outputs().len() {
            assert!(matches!(
                run_monte_carlo_with(
                    &other_timer,
                    &[&other_sampler; N_PARAMS],
                    &cfg,
                    nop(4, Some(&cp))
                ),
                Err(SstaError::InvalidConfig { name: "resume", .. })
            ));
        }
        // A checkpoint claiming more samples than the run is rejected.
        let tiny = McConfig::new(2, 1);
        assert!(matches!(
            run_monte_carlo_with(&timer, &samplers, &tiny, nop(2, Some(&cp))),
            Err(SstaError::InvalidConfig { name: "resume", .. })
        ));
    }

    #[test]
    fn abort_fault_in_supervised_run_unwinds_like_process_death() {
        let (timer, sampler) = setup(30);
        let cfg = McConfig::new(20, 5).with_threads(2);
        let token = CancelToken::unlimited();
        let plan = FaultPlan::new().abort_at(Stage::Mc, 1, 1);
        let mut report = DegradationReport::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mode = McMode::Supervised {
                token: &token,
                faults: Some(&plan),
                report: &mut report,
            };
            run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &cfg, mode)
        }));
        let payload = caught.expect_err("simulated abort must unwind out of the run");
        assert!(
            payload.is::<klest_runtime::AbortSignal>(),
            "AbortSignal payload expected"
        );
    }

    #[test]
    fn rejects_bad_configs() {
        let (timer, sampler) = setup(30);
        assert!(matches!(
            run_monte_carlo(&timer, &sampler, &McConfig::new(0, 1)),
            Err(SstaError::InvalidConfig {
                name: "samples",
                ..
            })
        ));
        let (_, other_sampler) = setup(31);
        assert!(matches!(
            run_monte_carlo(&timer, &other_sampler, &McConfig::new(10, 1)),
            Err(SstaError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn variation_scales_delay_spread() {
        // Wider kernel decay (less correlation) should not change the
        // mean much, but sample-to-sample independence across the die
        // partially averages out — σ of the worst delay shrinks relative
        // to a fully correlated die.
        let c = generate("mcv", GeneratorConfig::combinational(80, 13)).unwrap();
        let p = Placement::recursive_bisection(&c);
        let timer = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
        // Nearly fully correlated field (huge correlation distance).
        let correlated = CholeskySampler::new(&GaussianKernel::new(0.01), p.locations()).unwrap();
        // Nearly independent field.
        let independent = CholeskySampler::new(&GaussianKernel::new(200.0), p.locations()).unwrap();
        let cfg = McConfig::new(600, 21);
        let rc = run_monte_carlo(&timer, &correlated, &cfg).unwrap();
        let ri = run_monte_carlo(&timer, &independent, &cfg).unwrap();
        let (sc, si) = (rc.worst_delay_stats(), ri.worst_delay_stats());
        assert!(
            sc.std_dev > 1.5 * si.std_dev,
            "correlated σ {} should exceed independent σ {}",
            sc.std_dev,
            si.std_dev
        );
    }
}
