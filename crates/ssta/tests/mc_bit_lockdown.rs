//! Bit-level lockdown of the Monte Carlo sample loop.
//!
//! Every run of a fixed grid — each sampler kind alone and mixed per
//! parameter, antithetic variates on and off, one and three threads,
//! sample counts around a lane block, checkpointed runs with several
//! batch sizes, and supervised runs tripped after every possible number
//! of checkpoints — is folded into an FNV-1a hash over the bits of its
//! worst delays, its Welford accumulators (`raw_parts`), its
//! criticality and, for checkpointed runs, every serialized checkpoint.
//! The pinned values were recorded from the one-sample-at-a-time loop;
//! any change in a sample's value, in the order the normals are drawn or
//! in the order results are folded changes a hash.

use klest_circuit::{generate, GeneratorConfig, Placement, WireModel};
use klest_core::{GalerkinKle, KleOptions};
use klest_geometry::Rect;
use klest_kernels::GaussianKernel;
use klest_mesh::MeshBuilder;
use klest_runtime::{fnv1a64, CancelToken};
use klest_ssta::faultinject::IndefiniteKernel;
use klest_ssta::{
    run_monte_carlo_with, CholeskySampler, DegradationReport, GateFieldSampler, GridPcaSampler,
    KleFieldSampler, McConfig, McMode, McRun, SstaError, N_PARAMS,
};
use klest_sta::{GateLibrary, Timer};

/// Sample counts: one sample, and counts just below, at and above a
/// power-of-two block, plus a long odd run.
const SAMPLES: [usize; 5] = [1, 7, 8, 9, 45];
/// Checkpoint batch sizes (even, so antithetic runs accept them).
const BATCHES: [usize; 3] = [2, 6, 10];

/// The byte stream a family of runs is hashed over.
#[derive(Default)]
struct Bits(Vec<u8>);

impl Bits {
    fn word(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn run(&mut self, run: &McRun) {
        self.floats(run.worst_delays());
        let (count, mean, m2) = run.output_stats().raw_parts();
        self.word(count as u64);
        self.floats(mean);
        self.floats(m2);
        self.floats(&run.criticality());
    }

    fn hash(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

struct Fixture {
    timer: Timer,
    kle: KleFieldSampler,
    fused: KleFieldSampler,
    chol: CholeskySampler,
    eigen: CholeskySampler,
    grid: GridPcaSampler,
}

fn fixture() -> Fixture {
    let circuit = generate("lanes", GeneratorConfig::combinational(120, 5)).expect("circuit");
    let placement = Placement::recursive_bisection(&circuit);
    let locations = placement.locations();
    let timer = Timer::new(
        &circuit,
        &placement,
        WireModel::default(),
        GateLibrary::default_90nm(),
    );
    let kernel = GaussianKernel::new(2.0);
    let mesh = MeshBuilder::new(Rect::unit_die())
        .max_area(0.05)
        .build()
        .expect("mesh");
    let kle = GalerkinKle::compute(&mesh, &kernel, KleOptions::default()).expect("kle");
    let mut report = DegradationReport::new();
    let eigen =
        CholeskySampler::new_with_report(&IndefiniteKernel { slope: 1.0 }, locations, &mut report)
            .expect("eigen-factor fallback");
    assert!(
        eigen.cholesky().is_none(),
        "the indefinite kernel must fall back"
    );
    Fixture {
        kle: KleFieldSampler::new(&kle, &mesh, 15, locations).expect("kle sampler"),
        fused: KleFieldSampler::pregathered(&kle, &mesh, 15, locations).expect("fused sampler"),
        chol: CholeskySampler::new(&kernel, locations).expect("cholesky"),
        grid: GridPcaSampler::new(&kernel, Rect::unit_die(), 6, 15, locations).expect("grid"),
        eigen,
        timer,
    }
}

impl Fixture {
    /// Every sampler kind alone, then two per-parameter mixes.
    fn sets(&self) -> Vec<(&'static str, [&dyn GateFieldSampler; N_PARAMS])> {
        vec![
            ("kle", [&self.kle; N_PARAMS]),
            ("kle-fused", [&self.fused; N_PARAMS]),
            ("cholesky", [&self.chol; N_PARAMS]),
            ("eigen-factor", [&self.eigen; N_PARAMS]),
            ("grid-pca", [&self.grid; N_PARAMS]),
            ("mixed", [&self.chol, &self.kle, &self.grid, &self.fused]),
            (
                "mixed-eigen",
                [&self.eigen, &self.fused, &self.kle, &self.grid],
            ),
        ]
    }
}

fn config(samples: usize, antithetic: bool, threads: usize) -> McConfig {
    let cfg = McConfig::new(samples, 2008 + samples as u64).with_threads(threads);
    if antithetic {
        cfg.with_antithetic()
    } else {
        cfg
    }
}

/// Plain and untripped supervised runs over the whole grid.
fn plain_hash(f: &Fixture, samplers: &[&dyn GateFieldSampler; N_PARAMS]) -> u64 {
    let mut bits = Bits::default();
    for antithetic in [false, true] {
        for threads in [1, 3] {
            for samples in SAMPLES {
                let cfg = config(samples, antithetic, threads);
                let plain = run_monte_carlo_with(&f.timer, samplers, &cfg, McMode::Plain)
                    .expect("plain run");
                bits.run(&plain);
                let token = CancelToken::unlimited();
                let mut report = DegradationReport::new();
                let mode = McMode::Supervised {
                    token: &token,
                    faults: None,
                    report: &mut report,
                };
                let supervised =
                    run_monte_carlo_with(&f.timer, samplers, &cfg, mode).expect("supervised run");
                assert_eq!(
                    supervised.worst_delays(),
                    plain.worst_delays(),
                    "untripped supervised run must equal the plain run"
                );
                bits.run(&supervised);
            }
        }
    }
    bits.hash()
}

/// Checkpointed runs: the finished run and every checkpoint's wire form.
fn checkpointed_hash(f: &Fixture, samplers: &[&dyn GateFieldSampler; N_PARAMS]) -> u64 {
    let mut bits = Bits::default();
    for antithetic in [false, true] {
        for batch in BATCHES {
            for samples in SAMPLES {
                let cfg = config(samples, antithetic, 1);
                let mut wire = String::new();
                let mode = McMode::Checkpointed {
                    batch,
                    resume: None,
                    on_batch: &mut |cp| wire.push_str(&cp.serialize()),
                };
                let run =
                    run_monte_carlo_with(&f.timer, samplers, &cfg, mode).expect("checkpointed run");
                bits.run(&run);
                bits.0.extend_from_slice(wire.as_bytes());
            }
        }
    }
    bits.hash()
}

/// Supervised single-shard runs whose token trips after `k` checkpoints,
/// for every `k` from 0 to the sample count: each salvages exactly the
/// first `k` samples of the untripped run.
fn salvage_hash(f: &Fixture, samplers: &[&dyn GateFieldSampler; N_PARAMS]) -> u64 {
    let mut bits = Bits::default();
    for antithetic in [false, true] {
        for samples in [9, 45] {
            let cfg = config(samples, antithetic, 1);
            let full =
                run_monte_carlo_with(&f.timer, samplers, &cfg, McMode::Plain).expect("full run");
            for k in 0..=samples {
                let token = CancelToken::unlimited();
                token.trip_after_checkpoints(k as u64);
                let mut report = DegradationReport::new();
                let mode = McMode::Supervised {
                    token: &token,
                    faults: None,
                    report: &mut report,
                };
                match run_monte_carlo_with(&f.timer, samplers, &cfg, mode) {
                    Ok(run) => {
                        let salvage = run.salvage().expect("supervised runs report salvage");
                        assert_eq!(salvage.completed, k, "trip after {k} of {samples}");
                        assert_eq!(run.worst_delays(), &full.worst_delays()[..k]);
                        bits.word(salvage.completed as u64);
                        bits.run(&run);
                    }
                    Err(SstaError::Cancelled(c)) => {
                        assert_eq!(k, 0, "only a trip before the first sample salvages nothing");
                        assert_eq!(c.completed, 0);
                        bits.word(u64::MAX);
                    }
                    Err(e) => panic!("unexpected error after {k} checkpoints: {e}"),
                }
            }
        }
    }
    bits.hash()
}

/// `(set, plain, checkpointed, salvage)` hashes recorded from the
/// one-sample-at-a-time loop.
const PINNED: [(&str, u64, u64, u64); 7] = [
    (
        "kle",
        0x79786f0344628d39,
        0xf896feb634c12c28,
        0xd498b007b91f76cf,
    ),
    (
        "kle-fused",
        0x79786f0344628d39,
        0xf896feb634c12c28,
        0xd498b007b91f76cf,
    ),
    (
        "cholesky",
        0x497f58b692c9662d,
        0xd5d9c069086ccde7,
        0xbaa40b9784f7a147,
    ),
    (
        "eigen-factor",
        0x96dac0d5a99ff13d,
        0xeceed73b851813fe,
        0xaf5b28da58ee9aba,
    ),
    (
        "grid-pca",
        0xe1820d618f769b81,
        0x0b2fe7fcfe987ea6,
        0xea6ebaed4201cb2d,
    ),
    (
        "mixed",
        0xbec3e5477989426d,
        0x6b631b9d088943fc,
        0x5bd6c8065b47dc7d,
    ),
    (
        "mixed-eigen",
        0x9b346ad46dabb2fd,
        0xd53ae262de86822a,
        0x731eca59694e8306,
    ),
];

#[test]
fn monte_carlo_runs_match_pinned_hashes() {
    let f = fixture();
    let measured: Vec<(&str, u64, u64, u64)> = f
        .sets()
        .iter()
        .map(|(name, samplers)| {
            (
                *name,
                plain_hash(&f, samplers),
                checkpointed_hash(&f, samplers),
                salvage_hash(&f, samplers),
            )
        })
        .collect();
    for (name, plain, ckpt, salvage) in &measured {
        println!("    (\"{name}\", {plain:#018x}, {ckpt:#018x}, {salvage:#018x}),");
    }
    assert_eq!(measured, PINNED);
}
