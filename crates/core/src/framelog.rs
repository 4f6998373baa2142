//! Frames and record logs: the one module that knows the checksummed
//! record frame, the little-endian codec inside it, and the log-file
//! layout shared by the write-ahead [`Journal`](crate::journal::Journal)
//! and the [`FootprintStore`](crate::store::FootprintStore).
//!
//! - **Frame:** `u32 len | u64 content_hash(payload) | payload`. The wire
//!   ([`crate::proto`], cap [`MAX_FRAME`](crate::proto::MAX_FRAME)) and
//!   the logs (cap [`MAX_RECORD`]) frame every message and record this
//!   way; `scan` classifies a buffer against a caller's cap before any
//!   payload-sized work.
//! - **Codec:** `Cursor` reads untrusted payloads; every read is
//!   bounds-checked and exhaustion is `None`, never a panic.
//! - **Log file:** a [`LOG_HEADER`]-byte header — magic(4), version(4),
//!   run kind(1), the folded
//!   [`RunFingerprint`](crate::journal::RunFingerprint)(8), and a checksum
//!   of those 17 bytes(8) — committed by temp file + fsync + rename +
//!   parent-directory fsync, then whole frames appended with one
//!   `write_all` and one fsync each. Resume keeps the longest valid
//!   prefix and truncates the rest; the owner's per-payload step decides
//!   which payloads commit it.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use apistudy_analysis::content_hash;

use crate::journal::{RunFingerprint, RunKind};

/// Frame header length: length prefix (4) plus content checksum (8).
pub const FRAME_HEADER: usize = 12;
/// Log-file header length: magic(4) version(4) kind(1) fingerprint(8)
/// checksum(8).
pub const LOG_HEADER: usize = 25;
/// Cap on one log record's payload — far above any real record, low
/// enough that a corrupt length prefix cannot trigger a giant allocation.
pub const MAX_RECORD: usize = 1 << 24;
/// Log format version (bump on any layout change; old files are then
/// refused with a header error, never misread).
const VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Frame.
// ---------------------------------------------------------------------------

/// Appends one frame holding `payload` to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u64(out, content_hash(payload));
    out.extend_from_slice(payload);
}

/// What [`scan`] found at the start of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// Only part of a frame (the length fits the cap): read more.
    Partial,
    /// `buf[..total]` is one whole frame with a valid checksum; its
    /// payload is `buf[FRAME_HEADER..total]`.
    Whole(usize),
    /// The length prefix exceeds the cap. Provable from four bytes, so
    /// no attacker-sized body is ever awaited.
    TooLarge(usize),
    /// The frame is complete but its payload fails the checksum.
    Checksum,
}

/// The payload length a frame header announces, once its four length
/// bytes are present.
pub(crate) fn payload_len(buf: &[u8]) -> Option<usize> {
    Cursor::new(buf).u32().map(|len| len as usize)
}

/// Classifies the frame at the start of `buf` against a payload cap of
/// `max` bytes.
pub(crate) fn scan(buf: &[u8], max: usize) -> Scan {
    let Some(len) = payload_len(buf) else { return Scan::Partial };
    if len > max {
        return Scan::TooLarge(len);
    }
    let total = FRAME_HEADER + len;
    if buf.len() < total {
        return Scan::Partial;
    }
    let check = Cursor::new(&buf[4..]).u64();
    if check != Some(content_hash(&buf[FRAME_HEADER..total])) {
        return Scan::Checksum;
    }
    Scan::Whole(total)
}

// ---------------------------------------------------------------------------
// Codec. Everything little-endian; strings are u32-length UTF-8;
// collections are u32-count then elements. No serde, no unsafe.
// ---------------------------------------------------------------------------

/// Byte cursor over an untrusted payload.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Some(u32::from_le_bytes(raw))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Some(u64::from_le_bytes(raw))
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).ok()
    }

    /// A u32-counted list of u32s, refused before allocation when the
    /// count exceeds `cap`.
    pub(crate) fn nr_list(&mut self, cap: usize) -> Option<Vec<u32>> {
        let count = self.u32()? as usize;
        if count > cap {
            return None;
        }
        (0..count).map(|_| self.u32()).collect()
    }

    /// The payload must be fully consumed: trailing bytes mean it is not
    /// what was encoded, so the value is rejected whole.
    pub(crate) fn finish<T>(self, value: T) -> Option<T> {
        (self.at == self.bytes.len()).then_some(value)
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_count(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, n as u32);
}

pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_count(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_nr_list(buf: &mut Vec<u8>, nrs: &[u32]) {
    put_count(buf, nrs.len());
    for &nr in nrs {
        put_u32(buf, nr);
    }
}

// ---------------------------------------------------------------------------
// Log file.
// ---------------------------------------------------------------------------

/// Replaces `path` with `bytes` atomically and durably: the bytes go to a
/// `.tmp` sibling, are fsynced, renamed over `path`, and the parent
/// directory is fsynced so the new entry survives a power loss. Missing
/// parent directories are created.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
}

/// Why a journal or store could not be created, resumed, or trusted.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (create, append, fsync, truncate).
    Io(std::io::Error),
    /// The file is not a journal this version can read: bad magic,
    /// unknown version, or a damaged/truncated header.
    Header(String),
    /// The journal belongs to a different run (corpus, options, catalog,
    /// or plan changed). Folded fingerprints are reported for diagnosis.
    FingerprintMismatch {
        /// The fingerprint of the run attempting to resume.
        expected: u64,
        /// The fingerprint the journal header carries.
        found: u64,
    },
    /// A recovered record contradicts the resuming run (wrong record
    /// kind for the phase, a sweep point for an unexpected rate, a
    /// replayed greedy gain that does not reproduce). Indicates a logic
    /// or fingerprint-coverage bug; never silently ignored.
    Diverged(String),
    /// A previous append on this handle failed (write or fsync), so the
    /// on-disk state past the last known-good record is unknowable —
    /// the "fsyncgate" lesson: after a failed fsync, retrying through
    /// the same handle can silently lose data the page cache already
    /// dropped. The handle refuses all further appends; recovery is
    /// reopening via resume, which truncates to the longest valid
    /// prefix.
    FailStop,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Header(why) => {
                write!(f, "not a resumable journal: {why}")
            }
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
            JournalError::Diverged(why) => {
                write!(f, "journal diverged from the resuming run: {why}")
            }
            JournalError::FailStop => write!(
                f,
                "journal fail-stopped after an append failure; reopen \
                 with resume to recover the valid prefix"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One log format: its magic and the fault-shim callsite tags of its
/// append path (see [`crate::sysfault`]).
#[derive(Debug)]
pub(crate) struct LogFormat {
    pub(crate) magic: &'static [u8; 4],
    pub(crate) write_site: &'static str,
    pub(crate) fsync_site: &'static str,
}

/// What [`FrameLog::resume`]'s per-payload step decided.
pub(crate) enum Step {
    /// The payload, and every pending one before it, is valid: the
    /// recovered prefix now ends after it.
    Commit,
    /// The payload is valid but only counts once a later one commits it.
    Pending,
    /// The payload is not valid here: the prefix ends before it.
    Stop,
}

/// An append-only log of frames behind a fingerprint-bound header.
#[derive(Debug)]
pub(crate) struct FrameLog {
    file: File,
    path: PathBuf,
    format: &'static LogFormat,
    /// Set when an append fails; every later append returns
    /// [`JournalError::FailStop`].
    poisoned: bool,
}

fn header_bytes(format: &LogFormat, fp: &RunFingerprint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(LOG_HEADER);
    buf.extend_from_slice(format.magic);
    put_u32(&mut buf, VERSION);
    buf.push(fp.kind.tag());
    put_u64(&mut buf, fp.fold());
    let check = content_hash(&buf);
    put_u64(&mut buf, check);
    buf
}

/// Validates a log header against `format` and `fp`.
fn check_header(
    bytes: &[u8],
    format: &LogFormat,
    fp: &RunFingerprint,
) -> Result<(), JournalError> {
    let header = |why: &str| JournalError::Header(why.into());
    let truncated = || header("truncated header");
    let mut c = Cursor::new(bytes);
    if c.take(4).ok_or_else(|| header("file shorter than magic"))? != format.magic
    {
        return Err(header("bad magic"));
    }
    let version = c.u32().ok_or_else(truncated)?;
    if version != VERSION {
        return Err(JournalError::Header(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    let kind_tag = c.u8().ok_or_else(truncated)?;
    let found = c.u64().ok_or_else(truncated)?;
    let check = c.u64().ok_or_else(truncated)?;
    if content_hash(&bytes[..LOG_HEADER - 8]) != check {
        return Err(header("header checksum mismatch"));
    }
    if RunKind::from_tag(kind_tag).is_none() {
        return Err(JournalError::Header(format!("unknown run kind {kind_tag}")));
    }
    let expected = fp.fold();
    if found != expected {
        return Err(JournalError::FingerprintMismatch { expected, found });
    }
    Ok(())
}

/// The longest valid prefix of the frames after the header: each whole
/// frame's payload goes to `step`; a partial, over-cap or checksum-bad
/// frame, or a [`Step::Stop`], ends the scan. Returns where the last
/// committed frame ends.
fn recover(bytes: &[u8], mut step: impl FnMut(&[u8]) -> Step) -> usize {
    let (mut at, mut valid_end) = (LOG_HEADER, LOG_HEADER);
    while let Scan::Whole(total) = scan(&bytes[at..], MAX_RECORD) {
        let payload = &bytes[at + FRAME_HEADER..at + total];
        at += total;
        match step(payload) {
            Step::Commit => valid_end = at,
            Step::Pending => {}
            Step::Stop => break,
        }
    }
    valid_end
}

impl FrameLog {
    /// Creates a fresh log bound to `fp`, replacing any file at `path`.
    /// The header is committed with [`replace_file`], so a crash leaves
    /// either a complete header or no log.
    pub(crate) fn create(
        path: &Path,
        format: &'static LogFormat,
        fp: &RunFingerprint,
    ) -> Result<Self, JournalError> {
        replace_file(path, &header_bytes(format, fp))?;
        Self::open_append(path, format)
    }

    /// Opens an existing log: checks the header against `format` and
    /// `fp`, feeds every frame of the valid prefix to `step`, truncates
    /// the file back to the last committed frame, and reopens it for
    /// appends.
    pub(crate) fn resume(
        path: &Path,
        format: &'static LogFormat,
        fp: &RunFingerprint,
        step: impl FnMut(&[u8]) -> Step,
    ) -> Result<Self, JournalError> {
        let bytes = std::fs::read(path)?;
        check_header(&bytes, format, fp)?;
        let valid_end = recover(&bytes, step);
        if valid_end < bytes.len() {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
        }
        Self::open_append(path, format)
    }

    fn open_append(
        path: &Path,
        format: &'static LogFormat,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { file, path: path.to_owned(), format, poisoned: false })
    }

    /// Appends `frames` (one or more whole frames) with one `write_all`
    /// and one fsync, through the fault-aware [`crate::sys`] wrappers
    /// under the format's callsite tags. Any failure poisons the handle:
    /// the bytes past the last good frame are unknowable (a torn write,
    /// or an fsync whose dirty pages the kernel dropped), so later
    /// appends fail stop and recovery is a fresh [`FrameLog::resume`].
    pub(crate) fn append(&mut self, frames: &[u8]) -> Result<(), JournalError> {
        if self.poisoned {
            return Err(JournalError::FailStop);
        }
        if let Err(e) =
            crate::sys::file_write_all(&self.file, frames, self.format.write_site)
                .and_then(|()| {
                    crate::sys::file_sync_data(&self.file, self.format.fsync_site)
                })
        {
            self.poisoned = true;
            return Err(JournalError::Io(e));
        }
        Ok(())
    }

    /// Whether an append failure has fail-stopped this handle.
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Where the log lives.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_FORMAT: LogFormat = LogFormat {
        magic: b"APST",
        write_site: "journal.write",
        fsync_site: "journal.fsync",
    };

    fn fp() -> RunFingerprint {
        RunFingerprint {
            kind: RunKind::GreedyPlan,
            corpus: 1,
            options: 2,
            catalog: 3,
            plan: 4,
        }
    }

    #[test]
    fn scan_classifies_against_the_callers_cap() {
        let mut frame = Vec::new();
        put_frame(&mut frame, &[7u8; 100]);
        assert_eq!(scan(&frame, MAX_RECORD), Scan::Whole(FRAME_HEADER + 100));
        assert_eq!(scan(&frame, 100), Scan::Whole(FRAME_HEADER + 100));
        assert_eq!(scan(&frame, 99), Scan::TooLarge(100));
        assert_eq!(scan(&frame[..3], 99), Scan::Partial);
        assert_eq!(scan(&frame[..FRAME_HEADER + 99], 100), Scan::Partial);
        frame[FRAME_HEADER] ^= 1;
        assert_eq!(scan(&frame, 100), Scan::Checksum);
    }

    #[test]
    fn log_at_a_bare_relative_name_creates_and_resumes() {
        // No directory component: the parent fsync must fall back to the
        // current directory instead of failing the create.
        let name = format!("apistudy-framelog-{}.apst", std::process::id());
        let path = Path::new(&name);
        assert_eq!(path.parent(), Some(Path::new("")));
        let mut log = FrameLog::create(path, &TEST_FORMAT, &fp()).expect("create");
        let mut frames = Vec::new();
        put_frame(&mut frames, b"one");
        put_frame(&mut frames, b"two");
        log.append(&frames).expect("append");
        drop(log);
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        let mut seen = Vec::new();
        let log = FrameLog::resume(path, &TEST_FORMAT, &fp(), |p| {
            seen.push(p.to_vec());
            Step::Commit
        })
        .expect("resume");
        assert_eq!(seen, [b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(log.path(), path);
        std::fs::remove_file(path).ok();
    }
}
