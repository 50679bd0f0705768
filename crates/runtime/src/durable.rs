//! The one way klest writes files that must survive a crash.
//!
//! Three primitives, shared by the artifact cache's disk layer, the
//! [`CheckpointStore`](crate::CheckpointStore) and serve's request
//! journal:
//!
//! - [`write_atomic`] replaces a whole file: write a temp file unique per
//!   writer, fsync it, rename it over the live name, fsync the
//!   directory. A crash at any instant leaves the old file or the new
//!   one, never a torn file under the live name.
//! - One self-checking **frame**:
//!   `"<tag> <len> <fnv1a64:016x>\n" + payload + "\n"`, where the tag
//!   names the payload's format and version, `len` is the payload's
//!   byte length and the checksum is FNV-1a over the payload.
//!   [`read_frames`] returns the whole frames at the start of a buffer
//!   and the offset where they end; a torn, truncated or corrupted frame
//!   ends the run. A file holding one artifact is one frame
//!   ([`read_frame`]); an append-only log is a run of frames
//!   ([`FrameLog`]), cut back to its last whole frame when it is opened
//!   so the next append starts on a frame boundary.
//! - [`quarantine`] renames a damaged file to `<file>.quarantine`: the
//!   evidence is kept and the name is free for a clean rewrite.

use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fnv1a64;

/// One whole frame found by [`read_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The format-and-version tag the frame was written with.
    pub tag: &'a str,
    /// The payload, length- and checksum-verified.
    pub payload: &'a [u8],
}

/// Encodes `payload` as one frame tagged `tag`. The tag is a constant
/// of the writing format (for example `klest-journal/v2`): non-empty,
/// with no space or newline.
pub fn frame(tag: &str, payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        !tag.is_empty() && !tag.contains([' ', '\n']),
        "bad frame tag {tag:?}"
    );
    let mut out = format!("{tag} {} {:016x}\n", payload.len(), fnv1a64(payload)).into_bytes();
    out.reserve(payload.len() + 1);
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Reads the whole frames at the start of `buf`, in order, and returns
/// them with the offset where the last one ends. Reading stops at the
/// first frame that is torn or damaged — a header that does not parse, a
/// payload shorter than its length, a missing final newline or a
/// checksum mismatch — so `buf[end..]` is everything that is not a
/// whole frame.
pub fn read_frames(buf: &[u8]) -> (Vec<Frame<'_>>, usize) {
    let mut frames = Vec::new();
    let mut end = 0;
    while let Some((frame, next)) = frame_at(buf, end) {
        frames.push(frame);
        end = next;
    }
    (frames, end)
}

/// The whole frame starting at `buf[start..]` and the offset just past
/// it, or `None` when there is none.
fn frame_at(buf: &[u8], start: usize) -> Option<(Frame<'_>, usize)> {
    let rest = buf.get(start..)?;
    let header_len = rest.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&rest[..header_len]).ok()?;
    let mut fields = header.split(' ');
    let (tag, len, sum) = (fields.next()?, fields.next()?, fields.next()?);
    if tag.is_empty() || fields.next().is_some() || sum.len() != 16 {
        return None;
    }
    let len: usize = len.parse().ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    let body = &rest[header_len + 1..];
    let payload = body.get(..len)?;
    if body.get(len) != Some(&b'\n') || fnv1a64(payload) != sum {
        return None;
    }
    Some((Frame { tag, payload }, start + header_len + 1 + len + 1))
}

/// The payload of `buf` when `buf` is exactly one whole frame tagged
/// `tag` — the shape of a file holding one artifact — else `None`.
pub fn read_frame<'a>(buf: &'a [u8], tag: &str) -> Option<&'a [u8]> {
    let (frame, end) = frame_at(buf, 0)?;
    (end == buf.len() && frame.tag == tag).then_some(frame.payload)
}

/// Atomically and durably replaces the file at `path` with `bytes`:
/// a temp file unique per process and writer in the same directory,
/// written and fsynced, renamed over `path`, then the directory fsynced
/// (best effort: not every platform can open a directory for sync). On
/// error the temp file is removed and `path` is untouched.
///
/// # Errors
///
/// Any I/O error creating, writing, syncing or renaming the temp file;
/// [`io::ErrorKind::InvalidInput`] when `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no file name in {}", path.display()),
        ));
    };
    let mut tmp = OsString::from(".");
    tmp.push(name);
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = dir.join(tmp);
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

/// Renames a damaged file aside to `<file>.quarantine`. Returns whether
/// the rename happened, so the caller can count it.
pub fn quarantine(path: &Path) -> bool {
    let mut aside = path.as_os_str().to_owned();
    aside.push(".quarantine");
    fs::rename(path, aside).is_ok()
}

/// An append-only run of frames on disk, such as a request journal.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
    /// Byte length of the whole frames in the file: where the next
    /// frame starts.
    end: u64,
}

impl FrameLog {
    /// Opens the log at `path` for appending (creating it) and cuts it
    /// back to `end`, the offset [`read_frames`] returned for its
    /// current contents. The cut is fsynced, so a tail torn by a crash
    /// can never merge with the next frame appended.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, truncating or syncing the file.
    pub fn open(path: &Path, end: usize) -> io::Result<FrameLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        let end = len.min(end as u64);
        if len > end {
            file.set_len(end)?;
            file.sync_all()?;
        }
        Ok(FrameLog { file, end })
    }

    /// Appends one frame in a single write and fsyncs it. If either
    /// fails, whatever part of the frame landed is cut off again (best
    /// effort), so the log still ends on a frame boundary.
    ///
    /// # Errors
    ///
    /// The write or sync error; the frame is then not durable.
    pub fn append(&mut self, tag: &str, payload: &[u8]) -> io::Result<()> {
        let bytes = frame(tag, payload);
        match self
            .file
            .write_all(&bytes)
            .and_then(|()| self.file.sync_all())
        {
            Ok(()) => {
                self.end += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.end);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "klest-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn every_strict_prefix_reads_as_the_whole_frames_before_the_cut() {
        let payloads: [&[u8]; 4] = [b"first", b"", b"with\nnewlines\n", b"last"];
        let mut buf = Vec::new();
        let mut ends = vec![0];
        for p in payloads {
            buf.extend(frame("test/v1", p));
            ends.push(buf.len());
        }
        let (frames, end) = read_frames(&buf);
        assert_eq!(end, buf.len());
        let got: Vec<&[u8]> = frames.iter().map(|f| f.payload).collect();
        assert_eq!(got, payloads);
        assert!(frames.iter().all(|f| f.tag == "test/v1"));
        for cut in 0..buf.len() {
            let (frames, end) = read_frames(&buf[..cut]);
            let whole = ends.iter().rposition(|&e| e <= cut).expect("0 is an end");
            assert_eq!((frames.len(), end), (whole, ends[whole]), "cut at {cut}");
        }
    }

    #[test]
    fn a_damaged_frame_ends_the_run() {
        let mut buf = frame("test/v1", b"kept");
        let second = buf.len();
        buf.extend(frame("test/v1", b"flipped"));
        buf.extend(frame("test/v1", b"after"));
        let pos = buf
            .windows(7)
            .position(|w| w == b"flipped")
            .expect("payload");
        buf[pos] = b'F';
        let (frames, end) = read_frames(&buf);
        assert_eq!(frames.len(), 1);
        assert_eq!(end, second);
    }

    #[test]
    fn read_frame_wants_exactly_one_frame_with_the_tag() {
        let one = frame("test/v1", b"x");
        assert_eq!(read_frame(&one, "test/v1"), Some(&b"x"[..]));
        assert_eq!(read_frame(&one, "test/v2"), None);
        assert_eq!(read_frame(&one[..one.len() - 1], "test/v1"), None);
        let mut two = one.clone();
        two.extend(frame("test/v1", b"y"));
        assert_eq!(read_frame(&two, "test/v1"), None);
        assert_eq!(read_frame(b"", "test/v1"), None);
    }

    #[test]
    fn log_open_cuts_a_torn_tail_before_the_next_append() {
        let dir = tempdir("log");
        let path = dir.join("log");
        let mut log = FrameLog::open(&path, 0).expect("open");
        log.append("test/v1", b"one").expect("append");
        drop(log);
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(b"test/v1 9 0123");
        fs::write(&path, &bytes).expect("tear");
        let bytes = fs::read(&path).expect("read");
        let (_, end) = read_frames(&bytes);
        let mut log = FrameLog::open(&path, end).expect("reopen");
        log.append("test/v1", b"two").expect("append");
        let bytes = fs::read(&path).expect("read");
        let (frames, end) = read_frames(&bytes);
        let got: Vec<&[u8]> = frames.iter().map(|f| f.payload).collect();
        assert_eq!(got, [&b"one"[..], &b"two"[..]]);
        assert_eq!(end, bytes.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_quarantine_sets_aside() {
        let dir = tempdir("atomic");
        let path = dir.join("artifact");
        write_atomic(&path, b"old").expect("write");
        write_atomic(&path, b"new").expect("rewrite");
        assert_eq!(fs::read(&path).expect("read"), b"new");
        let names: Vec<_> = fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["artifact"], "no temp file may survive");
        assert!(quarantine(&path));
        assert!(!path.exists());
        assert_eq!(
            fs::read(dir.join("artifact.quarantine")).expect("aside"),
            b"new"
        );
        assert!(!quarantine(&path), "nothing left to set aside");
        let _ = fs::remove_dir_all(&dir);
    }
}
