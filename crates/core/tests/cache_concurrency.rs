//! Concurrency hammer for the [`ArtifactCache`]: many threads running
//! mixed warm/cold front-end queries against the memory layer, the disk
//! layer, and both at once. The contract under fire:
//!
//! - artifacts served from cache are **bitwise identical** to
//!   recomputation, from every thread, at every layer;
//! - duplicate eigensolves are bounded — a racing cold start may compute
//!   a spectrum at most once per thread, and once any thread stores it
//!   everyone else hits;
//! - concurrent disk writers never produce a torn read: a reader sees
//!   either a complete artifact or a clean miss, never garbage.

use klest_core::pipeline::{run_frontend, ArtifactCache, ExecPolicy, FrontEndConfig};
use klest_core::TruncationCriterion;
use klest_kernels::GaussianKernel;
use klest_runtime::fnv1a64;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 8;
const ROUNDS: usize = 6;

/// Three distinct artifact-key chains (different mesh resolutions).
const AREA_FRACTIONS: [f64; 3] = [0.12, 0.1, 0.08];

fn config_for(area_fraction: f64) -> FrontEndConfig {
    FrontEndConfig::new(area_fraction, 28.0, TruncationCriterion::new(40, 0.01))
}

/// A stable bitwise fingerprint of everything a spectrum artifact
/// carries: eigenvalues, retained eigenvectors and triangle areas.
fn fingerprint(kle: &klest_core::GalerkinKle) -> u64 {
    let mut bytes = Vec::new();
    let eigenfunctions = (0..kle.retained()).flat_map(|j| kle.eigenfunction(j));
    for v in kle
        .eigenvalues()
        .iter()
        .copied()
        .chain(eigenfunctions)
        .chain(kle.areas().iter().copied())
    {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("klest-cache-hammer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create hammer dir");
    dir
}

/// Serial reference fingerprints, computed without any cache.
fn reference_fingerprints(kernel: &GaussianKernel) -> Vec<u64> {
    AREA_FRACTIONS
        .iter()
        .map(|&af| {
            let outcome = run_frontend(kernel, &config_for(af), ExecPolicy::Plain, None)
                .expect("reference front end");
            fingerprint(&outcome.kle)
        })
        .collect()
}

/// One shared memory+disk cache hammered by every thread: duplicate
/// eigensolves stay bounded and every served artifact is bitwise equal
/// to the uncached reference.
#[test]
fn shared_cache_hammer_is_bitwise_stable_with_bounded_eigensolves() {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let reference = reference_fingerprints(&kernel);
    let dir = tmp_dir("shared");
    let cache = ArtifactCache::with_disk(&dir);
    let runs = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let kernel = &kernel;
            let reference = &reference;
            let runs = &runs;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Rotate the start index per thread so cold starts race.
                    for i in 0..AREA_FRACTIONS.len() {
                        let c = (t + r + i) % AREA_FRACTIONS.len();
                        let outcome = run_frontend(
                            kernel,
                            &config_for(AREA_FRACTIONS[c]),
                            ExecPolicy::Plain,
                            Some(cache),
                        )
                        .expect("hammered front end");
                        assert_eq!(
                            fingerprint(&outcome.kle),
                            reference[c],
                            "thread {t} round {r} config {c}: cached artifact \
                             differs bitwise from the uncached reference"
                        );
                        runs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let total = runs.load(Ordering::Relaxed);
    assert_eq!(total as usize, THREADS * ROUNDS * AREA_FRACTIONS.len());
    let snap = cache.snapshot();
    // Worst case every thread races the same cold config before any
    // store lands: one eigensolve per thread per config. One miss is
    // counted per eigensolve actually run.
    let bound = (THREADS * AREA_FRACTIONS.len()) as u64;
    assert!(
        snap.spectrum_misses <= bound,
        "duplicate eigensolves are unbounded: {} misses > {bound}",
        snap.spectrum_misses
    );
    // And warm traffic dominates: everything past the cold starts hits.
    assert!(
        snap.spectrum_hits >= total - bound,
        "warm queries missed the cache: {} hits of {total} runs",
        snap.spectrum_hits
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each thread gets its **own** cache instance sharing one disk
/// directory, so the disk layer is the only shared medium and every
/// lookup races the atomic tmp-file + rename writers. A reader must see
/// a complete artifact or a clean miss — never a torn file — and
/// everything loaded from disk must match the reference bitwise.
#[test]
fn racing_disk_writers_never_produce_a_torn_read() {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let reference = reference_fingerprints(&kernel);
    let dir = tmp_dir("disk-race");

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let dir = &dir;
            let kernel = &kernel;
            let reference = &reference;
            scope.spawn(move || {
                // A private memory layer per thread: disk is the only
                // thing these instances share.
                let cache = ArtifactCache::with_disk(dir.clone());
                for r in 0..ROUNDS {
                    for i in 0..AREA_FRACTIONS.len() {
                        let c = (t + r + i) % AREA_FRACTIONS.len();
                        let outcome = run_frontend(
                            kernel,
                            &config_for(AREA_FRACTIONS[c]),
                            ExecPolicy::Plain,
                            Some(&cache),
                        )
                        .expect("disk-racing front end");
                        assert_eq!(
                            fingerprint(&outcome.kle),
                            reference[c],
                            "thread {t} round {r} config {c}: disk round-trip \
                             changed the artifact"
                        );
                    }
                }
            });
        }
    });

    // After the race, a fresh instance must load every spectrum from
    // disk alone (no recomputation), still bitwise identical.
    let fresh = ArtifactCache::with_disk(&dir);
    let loaded: Vec<u64> = AREA_FRACTIONS
        .iter()
        .map(|&af| {
            let outcome = run_frontend(&kernel, &config_for(af), ExecPolicy::Plain, Some(&fresh))
                .expect("fresh load");
            fingerprint(&outcome.kle)
        })
        .collect();
    assert_eq!(loaded, reference, "disk artifacts drifted from reference");
    let snap = fresh.snapshot();
    assert_eq!(
        snap.spectrum_misses, 0,
        "fresh instance had to recompute: disk layer incomplete or torn"
    );
    // No leftover tmp files: every write either renamed in or was the
    // loser of a race and still renamed over the same content.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .expect("read hammer dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(
        stray.is_empty(),
        "torn/stray tmp files left behind: {stray:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
