//! Crash-consistent named checkpoints plus deterministic kill points.
//!
//! Two primitives make the stack restartable at any instant:
//!
//! - [`CheckpointStore`]: a directory of named, generation-stamped
//!   checkpoint files, each one [`durable`](crate::durable) frame
//!   written by [`durable::write_atomic`]. A torn or corrupted
//!   checkpoint is *quarantined* — renamed aside and counted — never
//!   silently trusted or silently dropped, so recovery code can
//!   distinguish "no checkpoint" from "damaged checkpoint".
//! - [`crash_point`] / [`arm_crash_point`]: deterministic kill points.
//!   Library code marks the instants at which a real process death is
//!   survivable; tests arm the N-th arrival at a named site to die.
//!   Programmatic arming is **per thread**: only the arming thread's
//!   own arrivals count against it, so concurrent tests crossing the
//!   same site cannot fire or use up each other's armings.
//!   [`CrashMode::Unwind`] simulates process exit in-test by panicking
//!   with an [`AbortSignal`] payload that the [`Supervisor`] refuses to
//!   retry (catch-point unwinding); [`CrashMode::Abort`] calls the real
//!   `std::process::abort`. The environment hook `KLEST_CRASH_AT=site:N`
//!   is the single process-wide plan: it counts arrivals from every
//!   thread and always aborts for real, which the crash-smoke script
//!   uses against a live `klest serve` whose requests run on pool
//!   workers.
//!
//! [`Supervisor`]: crate::Supervisor

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::durable;

/// Frame tag of a checkpoint file. Its payload is
/// `"<name> <generation>\n"` followed by the caller's payload.
const TAG: &str = "klest-checkpoint/v2";
const EXT: &str = "ckpt";

/// A directory of named crash-consistent checkpoints.
///
/// Every [`save`](CheckpointStore::save) is atomic and durable
/// ([`durable::write_atomic`]): a crash at any instant leaves either the
/// previous generation or the new one, never a torn file under the live
/// name. Each file is one [`durable`](crate::durable) frame tagged
/// `klest-checkpoint/v2`, carrying the checkpoint's name, generation
/// stamp and payload. Every [`load`](CheckpointStore::load) validates
/// the frame's length and FNV-1a checksum; damage — including a
/// checkpoint written in the older `klest-checkpoint/v1` layout — is
/// quarantined (renamed to `*.quarantine`, counted in the
/// `runtime.checkpoint.quarantined` obs counter) instead of being
/// silently skipped.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    generation: AtomicU64,
    quarantined: AtomicU64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. The next
    /// generation stamp continues monotonically from the largest
    /// generation already on disk, so stamps survive restarts.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut max_gen = 0u64;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                continue;
            }
            if let Some((_, generation, _)) = fs::read(&path).ok().as_deref().and_then(parse) {
                max_gen = max_gen.max(generation);
            }
        }
        Ok(CheckpointStore {
            dir,
            generation: AtomicU64::new(max_gen),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints quarantined by this store since it was opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Atomically and durably replaces checkpoint `name` with `payload`,
    /// returning the generation stamp of the new entry.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a `name` outside
    /// `[A-Za-z0-9._-]`, otherwise any I/O error from
    /// [`durable::write_atomic`].
    pub fn save(&self, name: &str, payload: &str) -> io::Result<u64> {
        validate_name(name)?;
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let body = format!("{name} {generation}\n{payload}");
        durable::write_atomic(&self.path_of(name), &durable::frame(TAG, body.as_bytes()))?;
        Ok(generation)
    }

    /// Loads checkpoint `name`, returning its generation stamp and
    /// payload. `None` means "no usable checkpoint": either the file
    /// does not exist, or it failed validation — in which case it has
    /// been quarantined (renamed to `*.quarantine` and counted), so a
    /// later save starts from a clean name.
    pub fn load(&self, name: &str) -> Option<(u64, String)> {
        if validate_name(name).is_err() {
            return None;
        }
        let path = self.path_of(name);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            // Unreadable counts as damaged: set it aside like a torn file.
            Err(_) => Vec::new(),
        };
        match parse(&bytes) {
            Some((got, generation, payload)) if got == name => {
                Some((generation, payload.to_string()))
            }
            _ => {
                if durable::quarantine(&path) {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    klest_obs::counter_add("runtime.checkpoint.quarantined", 1);
                }
                None
            }
        }
    }

    /// Removes checkpoint `name` (absence is not an error).
    ///
    /// # Errors
    ///
    /// Any I/O error other than the file not existing.
    pub fn clear(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{EXT}"))
    }
}

fn validate_name(name: &str) -> io::Result<()> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid checkpoint name {name:?}"),
        ))
    }
}

/// Splits a checkpoint file into `(name, generation, payload)`; `None`
/// unless it is one whole checkpoint frame.
fn parse(bytes: &[u8]) -> Option<(&str, u64, &str)> {
    let text = std::str::from_utf8(durable::read_frame(bytes, TAG)?).ok()?;
    let (head, payload) = text.split_once('\n')?;
    let (name, generation) = head.split_once(' ')?;
    Some((name, generation.parse().ok()?, payload))
}

// ---------------------------------------------------------------------------
// Deterministic kill points.
// ---------------------------------------------------------------------------

/// Panic payload of a *simulated* process abort fired at a
/// [`crash_point`] (or by a fault plan's `abort_at`). The
/// [`Supervisor`](crate::Supervisor) recognises this payload and
/// re-raises it instead of retrying — process-death semantics, delivered
/// by unwinding to the test's catch point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortSignal {
    /// The kill-point site that fired (e.g. `"mc/batch"`).
    pub site: String,
}

/// Simulates a process abort at `site` by panicking with an
/// [`AbortSignal`]. Never returns.
pub fn simulated_abort(site: impl Into<String>) -> ! {
    std::panic::panic_any(AbortSignal { site: site.into() })
}

/// How an armed [`crash_point`] kills the process when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Real death: `std::process::abort()` — no destructors, no flush.
    /// What the crash-smoke script injects into a live daemon.
    Abort,
    /// Simulated death: panic with an [`AbortSignal`] payload, which the
    /// supervisor refuses to retry, so it unwinds to the test's
    /// `catch_unwind`.
    Unwind,
}

#[derive(Debug)]
struct ArmedCrash {
    site: String,
    /// Arrivals left before firing (fires when this reaches zero).
    remaining: u64,
    mode: CrashMode,
}

/// Fast-path gate: how many crash points are armed anywhere in the
/// process, so a crash point in a hot loop costs one relaxed load while
/// it is zero. It counts every thread's pending [`arm_crash_point`]
/// entries plus one for the `KLEST_CRASH_AT` plan. It starts at 1
/// because that plan is unknown until the first arrival reads the
/// environment, which takes the 1 back when the variable is unset.
/// Relaxed is enough: the count publishes no data (a thread's own plan
/// is thread-local and the process plan sits behind a `OnceLock`), and a
/// thread always observes its own increments.
static ARMED: AtomicUsize = AtomicUsize::new(1);

/// The calling thread's programmatic armings. Only this thread's
/// arrivals count against them, so a concurrent caller of the same site
/// can neither fire nor use them up.
struct ThreadPlan(Vec<ArmedCrash>);

impl ThreadPlan {
    /// Counts one arrival at `site` against the oldest arming of it and
    /// returns its mode when that arming fires.
    fn arrive(&mut self, site: &str) -> Option<CrashMode> {
        let pos = self.0.iter().position(|c| c.site == site)?;
        let crash = &mut self.0[pos];
        crash.remaining -= 1;
        if crash.remaining > 0 {
            return None;
        }
        ARMED.fetch_sub(1, Ordering::Relaxed);
        Some(self.0.remove(pos).mode)
    }

    fn clear(&mut self) {
        ARMED.fetch_sub(self.0.len(), Ordering::Relaxed);
        self.0.clear();
    }
}

impl Drop for ThreadPlan {
    /// A thread that exits still armed must not hold the gate open.
    fn drop(&mut self) {
        self.clear();
    }
}

thread_local! {
    static THREAD_PLAN: RefCell<ThreadPlan> = const { RefCell::new(ThreadPlan(Vec::new())) };
}

/// The `KLEST_CRASH_AT=site:N` plan: a real abort on the N-th arrival at
/// `site`, counting arrivals from every thread (the crash-smoke script's
/// `serve.request` fires on a pool worker).
#[derive(Debug)]
struct ProcessPlan {
    site: String,
    remaining: AtomicU64,
}

impl ProcessPlan {
    /// Parses `site:N` (N >= 1; a bare site, or an N that is not a
    /// positive integer, means N = 1). `None` for an empty site.
    fn parse(spec: &str) -> Option<ProcessPlan> {
        let (site, n) = match spec.rsplit_once(':') {
            Some((site, n)) => (site, n.parse().unwrap_or(1)),
            None => (spec, 1),
        };
        (!site.is_empty()).then(|| ProcessPlan {
            site: site.to_string(),
            remaining: AtomicU64::new(n.max(1)),
        })
    }

    /// Counts one arrival at `site`; `true` on exactly one arrival, the
    /// N-th. Each read-modify-write sees a distinct count, so two
    /// concurrent arrivals can never both claim the last one.
    fn arrive(&self, site: &str) -> bool {
        self.site == site
            && self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                == Ok(1)
    }
}

fn process_plan() -> Option<&'static ProcessPlan> {
    static PLAN: OnceLock<Option<ProcessPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let plan = std::env::var("KLEST_CRASH_AT")
            .ok()
            .and_then(|spec| ProcessPlan::parse(&spec));
        if plan.is_none() {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
        plan
    })
    .as_ref()
}

/// Arms the `hits`-th arrival **on the calling thread** at `site` to
/// fire with `mode` (`hits = 1` means the thread's very next arrival).
/// Arrivals from other threads neither fire it nor count toward it, so
/// concurrent tests crossing the same site cannot disturb each other.
/// Arming a site twice queues the second arming behind the first. Used
/// by chaos tests; production processes arm via `KLEST_CRASH_AT`
/// instead, the single process-wide plan.
pub fn arm_crash_point(site: &str, hits: u64, mode: CrashMode) {
    THREAD_PLAN.with(|plan| {
        plan.borrow_mut().0.push(ArmedCrash {
            site: site.to_string(),
            remaining: hits.max(1),
            mode,
        });
    });
    ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Disarms every crash point armed on the calling thread (tests call
/// this in cleanup). Other threads' armings and the `KLEST_CRASH_AT`
/// plan are left as they are.
pub fn disarm_crash_points() {
    THREAD_PLAN.with(|plan| plan.borrow_mut().clear());
}

/// A deterministic kill point. Library code places these at the instants
/// where crash-consistency is claimed (after a checkpoint is durable,
/// after a journal record is fsynced); when `site` is armed, the
/// scheduled arrival dies — really ([`CrashMode::Abort`]) or by
/// [`AbortSignal`] unwinding ([`CrashMode::Unwind`]).
///
/// Each arrival counts against two plans: the calling thread's
/// [`arm_crash_point`] armings, and the process-wide `KLEST_CRASH_AT`
/// plan, which counts arrivals from all threads and always aborts.
/// Unarmed, it costs one relaxed atomic load (plus a one-time
/// environment check on the very first arrival).
pub fn crash_point(site: &str) {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let fire = if process_plan().is_some_and(|plan| plan.arrive(site)) {
        Some(CrashMode::Abort)
    } else {
        // A thread whose locals are already torn down has no armings left.
        THREAD_PLAN
            .try_with(|plan| plan.borrow_mut().arrive(site))
            .ok()
            .flatten()
    };
    match fire {
        Some(CrashMode::Abort) => {
            // Real, immediate process death — the whole point is that no
            // destructor, flush or drain handler runs.
            eprintln!("klest: injected crash at {site}");
            std::process::abort();
        }
        Some(CrashMode::Unwind) => simulated_abort(site),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "klest-ckpt-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip_with_generations() {
        let dir = tempdir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let g1 = store.save("mc", "payload one").unwrap();
        let g2 = store.save("mc", "payload two").unwrap();
        assert!(g2 > g1);
        let (g, payload) = store.load("mc").unwrap();
        assert_eq!(g, g2);
        assert_eq!(payload, "payload two");
        // Generations continue monotonically across a reopen ("restart").
        let reopened = CheckpointStore::open(&dir).unwrap();
        let g3 = reopened.save("mc", "payload three").unwrap();
        assert!(g3 > g2, "generation must survive restart: {g3} vs {g2}");
        assert_eq!(reopened.load("mc").unwrap().1, "payload three");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_none_without_quarantine() {
        let dir = tempdir("missing");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load("nope").is_none());
        assert_eq!(store.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_is_quarantined_not_trusted() {
        let dir = tempdir("torn");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save("lanczos", "0123456789abcdef").unwrap();
        // Tear the file: truncate mid-payload, exactly what a crash
        // during a non-atomic write would leave.
        let live = dir.join("lanczos.ckpt");
        let text = fs::read_to_string(&live).unwrap();
        fs::write(&live, &text[..text.len() - 5]).unwrap();
        assert!(store.load("lanczos").is_none());
        assert_eq!(store.quarantined(), 1);
        assert!(!live.exists(), "damaged file must be moved aside");
        assert!(dir.join("lanczos.ckpt.quarantine").exists());
        // The quarantined name is clean again for the next save.
        store.save("lanczos", "recovered").unwrap();
        assert_eq!(store.load("lanczos").unwrap().1, "recovered");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_is_quarantined() {
        let dir = tempdir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save("serve", "state").unwrap();
        let live = dir.join("serve.ckpt");
        let text = fs::read_to_string(&live).unwrap();
        // Flip a payload byte, keeping the length intact.
        fs::write(&live, text.replace("state", "stale")).unwrap();
        assert!(store.load("serve").is_none());
        assert_eq!(store.quarantined(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_with_newlines_and_empty_payload_roundtrip() {
        let dir = tempdir("newlines");
        let store = CheckpointStore::open(&dir).unwrap();
        let payload = "line1\nline2\n\nline4";
        store.save("multi", payload).unwrap();
        assert_eq!(store.load("multi").unwrap().1, payload);
        store.save("empty", "").unwrap();
        assert_eq!(store.load("empty").unwrap().1, "");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_names_are_rejected() {
        let dir = tempdir("names");
        let store = CheckpointStore::open(&dir).unwrap();
        for bad in ["", "../escape", "a/b", ".hidden", "nul\0byte"] {
            assert!(store.save(bad, "x").is_err(), "{bad:?} must be rejected");
            assert!(store.load(bad).is_none());
        }
        store.clear("never-existed").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_checkpoint() {
        let dir = tempdir("clear");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save("gone", "x").unwrap();
        store.clear("gone").unwrap();
        assert!(store.load("gone").is_none());
        assert_eq!(store.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_reference_vectors() {
        use crate::fnv1a64;
        // Public-domain FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            klest_rng::fnv1a64_extend(fnv1a64(b"foo"), b"bar"),
            fnv1a64(b"foobar")
        );
    }

    #[test]
    fn unwind_crash_point_fires_on_scheduled_arrival_only() {
        disarm_crash_points();
        arm_crash_point("test/site", 3, CrashMode::Unwind);
        crash_point("test/site"); // 1st: survives
        crash_point("other/site"); // different site: ignored
        crash_point("test/site"); // 2nd: survives
        let caught = std::panic::catch_unwind(|| crash_point("test/site"));
        let payload = caught.expect_err("3rd arrival must fire");
        let signal = payload
            .downcast_ref::<AbortSignal>()
            .expect("AbortSignal payload");
        assert_eq!(signal.site, "test/site");
        // The armed point is consumed: further arrivals survive.
        crash_point("test/site");
        disarm_crash_points();
    }

    #[test]
    fn armed_crash_point_ignores_other_threads() {
        let site = "test/cross-thread";
        arm_crash_point(site, 1, CrashMode::Unwind);
        std::thread::spawn(move || {
            for _ in 0..5 {
                crash_point(site);
            }
            // Disarming is per thread too: the arming thread keeps its hit.
            disarm_crash_points();
        })
        .join()
        .expect("another thread's arrivals must neither fire nor use up the armed hit");
        let caught = std::panic::catch_unwind(|| crash_point(site));
        let payload = caught.expect_err("the arming thread's first arrival must fire");
        let signal = payload
            .downcast_ref::<AbortSignal>()
            .expect("AbortSignal payload");
        assert_eq!(signal.site, site);
    }

    #[test]
    fn process_plan_counts_arrivals_from_every_thread() {
        let plan = ProcessPlan::parse("test/process:3").expect("valid spec");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| assert!(!plan.arrive("test/process")));
            }
        });
        assert!(!plan.arrive("other/site"));
        assert!(plan.arrive("test/process"), "the 3rd arrival fires");
        assert!(!plan.arrive("test/process"), "the plan fires once");

        let bare = ProcessPlan::parse("serve.request").expect("bare site");
        assert!(bare.arrive("serve.request"), "a bare site means N = 1");
        let zero = ProcessPlan::parse("serve.request:0").expect("N = 0 spec");
        assert!(zero.arrive("serve.request"), "N = 0 is read as N = 1");
        assert!(ProcessPlan::parse("").is_none());
        assert!(ProcessPlan::parse(":2").is_none());
    }
}
