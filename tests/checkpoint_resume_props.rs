//! Chaos property suite for crash-consistent checkpoint/resume: kills
//! the Lanczos eigensolve and the Monte Carlo SSTA loop at their
//! deterministic abort points (`lanczos/cycle`, `mc/batch`) via
//! catch-point unwinding, then resumes from the last durable
//! [`CheckpointStore`] entry and asserts the result is **bitwise
//! identical** to the uninterrupted run. Also property-tests the two
//! on-disk recovery formats under torn writes: a truncated checkpoint
//! file must quarantine (never load garbage), and a truncated request
//! journal must replay only intact payloads. Every property is seeded
//! and replayable via `KLEST_PROPTEST_SEED=<property>:<seed>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use klest::circuit::{generate, GeneratorConfig, Placement, WireModel};
use klest::kernels::GaussianKernel;
use klest::linalg::{LanczosState, PartialEigen};
use klest::runtime::{
    arm_crash_point, disarm_crash_points, AbortSignal, CheckpointStore, CrashMode,
};
use klest::serve::RequestJournal;
use klest::ssta::{
    run_monte_carlo, run_monte_carlo_with, CholeskySampler, McCheckpoint, McConfig, McMode, McRun,
    N_PARAMS,
};
use klest::sta::{GateLibrary, Timer};
use klest_proptest::{check, check_config, strategies, Config};

const K: usize = 4;
const MAX_ITERS: usize = 4000;

/// A fresh scratch directory per call (removed by the caller on success;
/// left behind for inspection when a property fails).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "klest-ckpt-props-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Exact bit patterns of an eigensolve result: resume ≡ uninterrupted
/// is claimed bitwise, so the comparison must be too.
fn eig_bits(e: &PartialEigen) -> (Vec<u64>, Vec<Vec<u64>>) {
    let values = e.eigenvalues().iter().map(|v| v.to_bits()).collect();
    let vectors = (0..e.len())
        .map(|j| e.eigenvector(j).iter().map(|v| v.to_bits()).collect())
        .collect();
    (values, vectors)
}

/// Exact bit patterns of an MC run: worst-delay samples, Welford
/// moments, and criticality all have to survive a crash unchanged.
fn mc_bits(run: &McRun) -> (Vec<u64>, usize, Vec<u64>, Vec<u64>, Vec<u64>) {
    let worst = run.worst_delays().iter().map(|v| v.to_bits()).collect();
    let (count, mean, m2) = run.output_stats().raw_parts();
    let mean = mean.iter().map(|v| v.to_bits()).collect();
    let m2 = m2.iter().map(|v| v.to_bits()).collect();
    let crit = run.criticality().iter().map(|v| v.to_bits()).collect();
    (worst, count, mean, m2, crit)
}

fn mc_setup(gates: usize) -> (Timer, CholeskySampler) {
    let c = generate("chaos", GeneratorConfig::combinational(gates, 3)).expect("circuit");
    let p = Placement::recursive_bisection(&c);
    let timer = Timer::new(&c, &p, WireModel::default(), GateLibrary::default_90nm());
    let sampler = CholeskySampler::new(&GaussianKernel::new(2.0), p.locations()).expect("sampler");
    (timer, sampler)
}

/// Runs `body` with the `hits`-th arrival at `site` armed to unwind,
/// and returns the [`AbortSignal`] site it died with.
fn kill_at<R>(site: &str, hits: u64, body: impl FnOnce() -> R) -> Result<String, String> {
    arm_crash_point(site, hits, CrashMode::Unwind);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    disarm_crash_points();
    match outcome {
        Ok(_) => Err(format!("{site} hit {hits}: armed kill never fired")),
        Err(payload) => match payload.downcast_ref::<AbortSignal>() {
            Some(signal) => Ok(signal.site.clone()),
            None => Err(format!("{site} hit {hits}: died of a non-abort panic")),
        },
    }
}

/// Resuming the Lanczos eigensolve from any thick-restart checkpoint —
/// through the textual serialization round-trip — reproduces the
/// uninterrupted spectrum bitwise.
#[test]
fn lanczos_resume_from_any_cycle_is_bitwise() {
    let strat = strategies::spd_matrix(24..40);
    check("lanczos_resume_from_any_cycle_is_bitwise", &strat, |a| {
        let mut checkpoints: Vec<String> = Vec::new();
        let baseline = PartialEigen::lanczos_op_with_state(a, K, MAX_ITERS, None, &mut |s| {
            checkpoints.push(s.serialize());
        })
        .map_err(|e| format!("baseline solve: {e:?}"))?;
        let want = eig_bits(&baseline);
        for (i, text) in checkpoints.iter().enumerate() {
            let state = LanczosState::deserialize(text)
                .ok_or_else(|| format!("cycle {i}: checkpoint failed to round-trip"))?;
            let resumed =
                PartialEigen::lanczos_op_with_state(a, K, MAX_ITERS, Some(&state), &mut |_| {})
                    .map_err(|e| format!("resume from cycle {i}: {e:?}"))?;
            if eig_bits(&resumed) != want {
                return Err(format!(
                    "resume from cycle {i} of {} diverged from the uninterrupted spectrum",
                    checkpoints.len()
                ));
            }
        }
        Ok(())
    });
}

/// Kills the eigensolve at **every** `lanczos/cycle` arrival in turn
/// (unwinding `AbortSignal`, the in-test stand-in for `abort`), then
/// restarts from the last durable [`CheckpointStore`] entry the crashed
/// run left behind. The restarted spectrum must match the uninterrupted
/// one bitwise.
#[test]
fn lanczos_killed_at_every_cycle_resumes_bitwise() {
    let name = "lanczos_killed_at_every_cycle_resumes_bitwise";
    let cfg = Config {
        cases: 4,
        ..Config::from_env(name)
    };
    let strat = strategies::spd_matrix(24..40);
    check_config(name, &cfg, &strat, |a| {
        let mut cycles = 0usize;
        let baseline = PartialEigen::lanczos_op_with_state(a, K, MAX_ITERS, None, &mut |_| {
            cycles += 1;
        })
        .map_err(|e| format!("baseline solve: {e:?}"))?;
        let want = eig_bits(&baseline);
        for h in 1..=cycles {
            let dir = scratch_dir("lanczos");
            let store = CheckpointStore::open(&dir).map_err(|e| format!("store: {e}"))?;
            let site = kill_at("lanczos/cycle", h as u64, || {
                PartialEigen::lanczos_op_with_state(a, K, MAX_ITERS, None, &mut |s| {
                    store
                        .save("lanczos", &s.serialize())
                        .expect("durable checkpoint");
                })
            })?;
            if site != "lanczos/cycle" {
                return Err(format!("hit {h}: died at the wrong site {site:?}"));
            }
            let (_, text) = store
                .load("lanczos")
                .ok_or_else(|| format!("hit {h}: no durable checkpoint survived the crash"))?;
            let state = LanczosState::deserialize(&text)
                .ok_or_else(|| format!("hit {h}: surviving checkpoint is torn"))?;
            let resumed =
                PartialEigen::lanczos_op_with_state(a, K, MAX_ITERS, Some(&state), &mut |_| {})
                    .map_err(|e| format!("hit {h}: resume failed: {e:?}"))?;
            if eig_bits(&resumed) != want {
                return Err(format!("hit {h}: post-crash resume diverged bitwise"));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    });
}

/// Resuming the Monte Carlo SSTA loop from any batch checkpoint —
/// through the textual serialization round-trip — reproduces the
/// uninterrupted run's samples, moments and criticality bitwise, for
/// plain and antithetic sampling alike.
#[test]
fn mc_resume_from_any_batch_is_bitwise() {
    let (timer, sampler) = mc_setup(30);
    let name = "mc_resume_from_any_batch_is_bitwise";
    let cfg = Config {
        cases: 6,
        ..Config::from_env(name)
    };
    let strat = (
        strategies::usize_in(20..60),
        strategies::usize_in(0..1000),
        strategies::usize_in(1..5),
    );
    check_config(name, &cfg, &strat, |&(samples, seed, batch_sel)| {
        // Antithetic pairs force an even batch size.
        let batch = 2 * batch_sel;
        let mut mc = McConfig::new(samples, seed as u64);
        if seed % 2 == 1 {
            mc = mc.with_antithetic();
        }
        let plain = run_monte_carlo(&timer, &sampler, &mc).map_err(|e| format!("plain: {e:?}"))?;
        let mut checkpoints: Vec<String> = Vec::new();
        let mode = McMode::Checkpointed {
            batch,
            resume: None,
            on_batch: &mut |cp| checkpoints.push(cp.serialize()),
        };
        let full = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &mc, mode)
            .map_err(|e| format!("checkpointed: {e:?}"))?;
        let want = mc_bits(&plain);
        if mc_bits(&full) != want {
            return Err("checkpointed run diverged from plain run".into());
        }
        if checkpoints.len() != samples.div_ceil(batch) {
            return Err(format!(
                "expected {} batch boundaries, saw {}",
                samples.div_ceil(batch),
                checkpoints.len()
            ));
        }
        for (i, text) in checkpoints.iter().enumerate() {
            let cp = McCheckpoint::deserialize(text)
                .ok_or_else(|| format!("batch {i}: checkpoint failed to round-trip"))?;
            let mode = McMode::Checkpointed {
                batch,
                resume: Some(&cp),
                on_batch: &mut |_| {},
            };
            let resumed = run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &mc, mode)
                .map_err(|e| format!("resume from batch {i}: {e:?}"))?;
            if mc_bits(&resumed) != want {
                return Err(format!("resume from batch {i} diverged bitwise"));
            }
        }
        Ok(())
    });
}

/// Kills the MC loop at every `mc/batch` arrival in turn and restarts
/// from the last durable [`CheckpointStore`] entry; the SSTA moments of
/// the resumed run must match the uninterrupted run bitwise.
#[test]
fn mc_killed_at_every_batch_resumes_bitwise() {
    let (timer, sampler) = mc_setup(25);
    for antithetic in [false, true] {
        let mut mc = McConfig::new(30, 7);
        if antithetic {
            mc = mc.with_antithetic();
        }
        let batch = 8;
        let plain = run_monte_carlo(&timer, &sampler, &mc).expect("plain run");
        let want = mc_bits(&plain);
        let batches = 30usize.div_ceil(batch);
        for h in 1..=batches {
            let dir = scratch_dir("mc");
            let store = CheckpointStore::open(&dir).expect("store");
            let site = kill_at("mc/batch", h as u64, || {
                let mode = McMode::Checkpointed {
                    batch,
                    resume: None,
                    on_batch: &mut |cp| {
                        store
                            .save("mc", &cp.serialize())
                            .expect("durable checkpoint");
                    },
                };
                run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &mc, mode)
            })
            .expect("armed kill must fire with an AbortSignal");
            assert_eq!(site, "mc/batch", "hit {h} died at the wrong site");
            let (_, text) = store.load("mc").expect("a durable checkpoint survived");
            let cp = McCheckpoint::deserialize(&text).expect("surviving checkpoint parses");
            assert_eq!(cp.completed(), (h * batch).min(30), "hit {h} checkpoint depth");
            let mode = McMode::Checkpointed {
                batch,
                resume: Some(&cp),
                on_batch: &mut |_| {},
            };
            let resumed =
                run_monte_carlo_with(&timer, &[&sampler; N_PARAMS], &mc, mode).expect("resume");
            assert_eq!(
                mc_bits(&resumed),
                want,
                "hit {h} (antithetic={antithetic}): post-crash resume diverged bitwise"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The request journal's recovery contract: reopening yields exactly
/// the admits without a done marker, in admission order — and when the
/// tail of the file is torn off at an arbitrary byte, every surviving
/// pending payload is still byte-identical to what was admitted (a
/// damaged record degrades to "lost", never to "replayed corrupted"),
/// and records appended after the torn reopen survive the next one.
#[test]
fn journal_pending_survives_truncation_with_intact_payloads() {
    let strat = (
        strategies::vec_of(strategies::usize_in(0..1_000_000), 1..10),
        strategies::usize_in(0..1024),
        strategies::usize_in(0..400),
    );
    check(
        "journal_pending_survives_truncation_with_intact_payloads",
        &strat,
        |(ids, done_mask, cut)| {
            let dir = scratch_dir("journal");
            let path = dir.join("journal.log");
            let mut payloads = Vec::new();
            {
                let (journal, pending) = RequestJournal::open(&path);
                if !pending.is_empty() {
                    return Err("fresh journal reported pending requests".into());
                }
                for (i, id) in ids.iter().enumerate() {
                    let line = format!(r#"{{"op":"query","id":"q{i}-{id}"}}"#);
                    let seq = journal
                        .record_admit(&line)
                        .ok_or_else(|| format!("admit {i} not durable"))?;
                    if seq != i as u64 {
                        return Err(format!("admit {i} got seq {seq}"));
                    }
                    payloads.push(line);
                }
                for i in 0..ids.len() {
                    if done_mask >> i & 1 == 1 {
                        journal.record_done(i as u64);
                    }
                }
            }
            // Clean reopen: pending is exactly admits minus dones, ordered.
            let (_, pending) = RequestJournal::open(&path);
            let expected: Vec<(u64, String)> = payloads
                .iter()
                .enumerate()
                .filter(|(i, _)| done_mask >> *i & 1 == 0)
                .map(|(i, line)| (i as u64, line.clone()))
                .collect();
            if pending.len() != expected.len() {
                return Err(format!(
                    "clean reopen: {} pending, expected {}",
                    pending.len(),
                    expected.len()
                ));
            }
            for (got, (seq, line)) in pending.iter().zip(&expected) {
                if got.seq != *seq || &got.line != line {
                    return Err(format!("clean reopen: seq {seq} replayed wrong payload"));
                }
            }
            // Tear the tail off at an arbitrary byte (records are ASCII).
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read: {e}"))?;
            let keep = text.len() - cut % (text.len() + 1);
            std::fs::write(&path, &text[..keep]).map_err(|e| format!("truncate: {e}"))?;
            let (journal, pending) = RequestJournal::open(&path);
            for got in &pending {
                let original = payloads
                    .get(got.seq as usize)
                    .ok_or_else(|| format!("torn reopen invented seq {}", got.seq))?;
                if &got.line != original {
                    return Err(format!(
                        "torn reopen replayed a corrupted payload for seq {}",
                        got.seq
                    ));
                }
            }
            // The torn tail must not swallow the record appended after
            // it: a done for the first surviving request when there is
            // one, else a new admit. Both must survive the next reopen.
            let retired = pending.first().map(|p| p.seq);
            if let Some(seq) = retired {
                journal.record_done(seq);
            }
            let extra = r#"{"op":"query","id":"after-tear"}"#;
            let extra_seq = journal
                .record_admit(extra)
                .ok_or("admit after the tear not durable")?;
            drop(journal);
            let (_, after) = RequestJournal::open(&path);
            if !after.iter().any(|p| p.seq == extra_seq && p.line == extra) {
                return Err(format!(
                    "admit {extra_seq} after a tear at byte {keep} was lost: {after:?}"
                ));
            }
            if let Some(seq) = retired.filter(|seq| after.iter().any(|p| p.seq == *seq)) {
                return Err(format!(
                    "done {seq} after a tear at byte {keep} was lost, so it replays again"
                ));
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        },
    );
}

/// A checkpoint file torn at any strict byte prefix must never load: the
/// store quarantines it (renamed aside and counted), so recovery starts
/// clean instead of resuming from garbage.
#[test]
fn checkpoint_store_quarantines_any_torn_prefix() {
    let strat = (
        strategies::vec_of(strategies::usize_in(0..94), 1..60),
        strategies::usize_in(0..10_000),
    );
    check(
        "checkpoint_store_quarantines_any_torn_prefix",
        &strat,
        |(chars, cut)| {
            let dir = scratch_dir("store");
            let payload: String = chars.iter().map(|c| (b' ' + *c as u8) as char).collect();
            {
                let store = CheckpointStore::open(&dir).map_err(|e| format!("open: {e}"))?;
                store
                    .save("state", &payload)
                    .map_err(|e| format!("save: {e}"))?;
            }
            let path = dir.join("state.ckpt");
            let full = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
            let keep = cut % full.len();
            std::fs::write(&path, &full[..keep]).map_err(|e| format!("truncate: {e}"))?;
            let store = CheckpointStore::open(&dir).map_err(|e| format!("reopen: {e}"))?;
            if let Some((generation, text)) = store.load("state") {
                return Err(format!(
                    "torn checkpoint ({keep} of {} bytes) loaded as generation {generation} \
                     with {} payload bytes",
                    full.len(),
                    text.len()
                ));
            }
            if store.quarantined() != 1 {
                return Err(format!(
                    "expected 1 quarantined checkpoint, counted {}",
                    store.quarantined()
                ));
            }
            if !dir.join("state.ckpt.quarantine").exists() {
                return Err("torn bytes were not set aside for inspection".into());
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        },
    );
}
