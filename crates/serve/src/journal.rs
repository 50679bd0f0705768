//! Crash-safe request journal backing `--state-dir` warm restarts.
//!
//! The journal is a [`FrameLog`] of `klest-journal/v2` frames (see
//! [`klest_runtime::durable`]). Every admitted query is recorded as a
//! frame whose payload is `admit <seq> <request line>` before it enters
//! the work queue, and its sequence number is marked by a `done <seq>`
//! frame only after its one terminal response has been written. Each
//! frame is one write plus one fsync, so after a crash the journal's
//! *pending* set — admits without a matching done — is exactly the set
//! of requests the daemon accepted but never answered. On boot the
//! server replays that set and answers each request exactly once.
//!
//! Opening the journal replays its whole frames and cuts the file back
//! to the end of the last one. A record torn by a crash is therefore
//! lost, never half-parsed or replayed corrupted, and cannot swallow the
//! record appended after it. The journal is append-only while serving;
//! a graceful drain compacts it, atomically rewriting only the
//! still-pending admits, so the file does not grow without bound across
//! restarts. A journal in the older line format (`admit <seq> <fnv1a64>
//! <len> <payload>` lines) holds no whole frame: it replays nothing and
//! is cut to empty.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use klest_runtime::durable::{self, Frame, FrameLog};

/// Frame tag of every journal record.
const TAG: &str = "klest-journal/v2";

/// One journaled request that was admitted but never answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The admission sequence number (replay order, done-marker key).
    pub seq: u64,
    /// The original request line, exactly as received.
    pub line: String,
}

struct Inner {
    log: Option<FrameLog>,
    next_seq: u64,
}

/// Append-only admit/done journal: one fsynced [`durable`] frame per
/// record, cut back to its last whole frame on open (see module docs).
pub struct RequestJournal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // Journal state is a file handle + counter; both stay valid across
    // a panicking holder.
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Replays journal frames into `(pending admits by seq, next free seq)`.
/// Records that do not parse are skipped; later records win.
fn replay(frames: &[Frame<'_>]) -> (BTreeMap<u64, String>, u64) {
    let mut pending = BTreeMap::new();
    let mut next_seq = 0u64;
    for frame in frames.iter().filter(|f| f.tag == TAG) {
        let Ok(record) = std::str::from_utf8(frame.payload) else {
            continue;
        };
        if let Some((seq, line)) = record
            .strip_prefix("admit ")
            .and_then(|r| r.split_once(' '))
        {
            let Ok(seq) = seq.parse::<u64>() else {
                continue;
            };
            next_seq = next_seq.max(seq.saturating_add(1));
            pending.insert(seq, line.to_string());
        } else if let Some(seq) = record.strip_prefix("done ") {
            let Ok(seq) = seq.parse::<u64>() else {
                continue;
            };
            next_seq = next_seq.max(seq.saturating_add(1));
            pending.remove(&seq);
        }
    }
    (pending, next_seq)
}

fn admit_record(seq: u64, line: &str) -> String {
    format!("admit {seq} {line}")
}

impl RequestJournal {
    /// Opens (or creates) the journal at `path`, replaying any existing
    /// records and cutting a torn tail. Returns the journal and the
    /// pending requests — admitted in a previous process life but never
    /// answered — in admission order. Best effort: an unreadable or
    /// unopenable file yields a journal that records nothing
    /// (durability is lost, correctness is not).
    pub fn open(path: &Path) -> (RequestJournal, Vec<PendingRequest>) {
        let (pending, next_seq, log) = match std::fs::read(path) {
            Ok(bytes) => {
                let (frames, end) = durable::read_frames(&bytes);
                let (pending, next_seq) = replay(&frames);
                (pending, next_seq, FrameLog::open(path, end).ok())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                (BTreeMap::new(), 0, FrameLog::open(path, 0).ok())
            }
            // Never cut a journal that could not be read.
            Err(_) => (BTreeMap::new(), 0, None),
        };
        let journal = RequestJournal {
            path: path.to_path_buf(),
            inner: Mutex::new(Inner { log, next_seq }),
        };
        let pending = pending
            .into_iter()
            .map(|(seq, line)| PendingRequest { seq, line })
            .collect();
        (journal, pending)
    }

    /// Records an admitted request line, fsynced, and returns its
    /// sequence number. `None` when the record could not be made
    /// durable (the request still runs; only replay protection is
    /// lost).
    pub fn record_admit(&self, line: &str) -> Option<u64> {
        let mut inner = lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let log = inner.log.as_mut()?;
        log.append(TAG, admit_record(seq, line).as_bytes()).ok()?;
        Some(seq)
    }

    /// Marks `seq` answered (exactly one terminal response written),
    /// fsynced.
    pub fn record_done(&self, seq: u64) {
        let mut inner = lock(&self.inner);
        if let Some(log) = inner.log.as_mut() {
            let _ = log.append(TAG, format!("done {seq}").as_bytes());
        }
    }

    /// Compacts the journal to its pending tail: atomically rewrites
    /// only admits lacking a done marker ([`durable::write_atomic`]), so
    /// a drained daemon leaves a minimal journal behind. Sequence
    /// numbering continues where it left off.
    pub fn compact(&self) {
        let mut inner = lock(&self.inner);
        let Ok(bytes) = std::fs::read(&self.path) else {
            return;
        };
        let (pending, parsed_next) = replay(&durable::read_frames(&bytes).0);
        let mut tail = Vec::new();
        for (seq, line) in &pending {
            tail.extend(durable::frame(TAG, admit_record(*seq, line).as_bytes()));
        }
        if durable::write_atomic(&self.path, &tail).is_err() {
            return;
        }
        // Reopen the append handle on the compacted file; the old
        // handle points at the unlinked pre-compaction inode.
        inner.log = FrameLog::open(&self.path, tail.len()).ok();
        inner.next_seq = inner.next_seq.max(parsed_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "klest-journal-test-{}-{:016x}",
            std::process::id(),
            klest_runtime::fnv1a64(tag.as_bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("journal.log")
    }

    #[test]
    fn admit_without_done_is_pending_after_reopen() {
        let path = tmp_journal("pending");
        {
            let (journal, pending) = RequestJournal::open(&path);
            assert!(pending.is_empty());
            let a = journal.record_admit(r#"{"id":"a"}"#).expect("durable");
            let b = journal.record_admit(r#"{"id":"b"}"#).expect("durable");
            let c = journal.record_admit(r#"{"id":"c"}"#).expect("durable");
            assert_eq!((a, b, c), (0, 1, 2));
            journal.record_done(b);
        }
        let (journal, pending) = RequestJournal::open(&path);
        assert_eq!(
            pending,
            vec![
                PendingRequest {
                    seq: 0,
                    line: r#"{"id":"a"}"#.into()
                },
                PendingRequest {
                    seq: 2,
                    line: r#"{"id":"c"}"#.into()
                },
            ]
        );
        // Sequence numbering continues past everything seen.
        assert_eq!(journal.record_admit(r#"{"id":"d"}"#), Some(3));
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn torn_and_corrupt_records_are_skipped() {
        let path = tmp_journal("torn");
        {
            let (journal, _) = RequestJournal::open(&path);
            journal.record_admit(r#"{"id":"whole"}"#).expect("durable");
        }
        // Simulate a crash mid-append: a second admit torn mid-payload,
        // then a checksum lie, then garbage.
        let mut bytes = std::fs::read(&path).expect("read");
        let torn = durable::frame(TAG, br#"admit 1 {"id":"torn"}"#);
        bytes.extend_from_slice(&torn[..torn.len() - 5]);
        let _ = std::fs::write(&path, &bytes);
        {
            let (_, pending) = RequestJournal::open(&path);
            assert_eq!(pending.len(), 1, "{pending:?}");
            assert_eq!(pending[0].line, r#"{"id":"whole"}"#);
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(&format!(
            "{TAG} 16 ffffffffffffffff\nadmit 5 {{\"id\":9}}\n"
        ));
        text.push_str("not a journal line\n");
        let _ = std::fs::write(&path, &text);
        let (_, pending) = RequestJournal::open(&path);
        assert_eq!(pending.len(), 1, "checksum mismatch must not replay");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn compact_keeps_only_the_pending_tail() {
        let path = tmp_journal("compact");
        let (journal, _) = RequestJournal::open(&path);
        let a = journal.record_admit(r#"{"id":"a"}"#).expect("durable");
        let _b = journal.record_admit(r#"{"id":"b"}"#).expect("durable");
        journal.record_done(a);
        journal.compact();
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(durable::read_frames(text.as_bytes()).0.len(), 1, "{text}");
        assert!(text.contains(r#"{"id":"b"}"#), "{text}");
        assert!(!text.contains("done"), "{text}");
        // The journal stays usable after compaction.
        assert_eq!(journal.record_admit(r#"{"id":"c"}"#), Some(2));
        let (_, pending) = RequestJournal::open(&path);
        assert_eq!(pending.len(), 2, "{pending:?}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
