//! Append-only CRC32-framed checkpoint log.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic "TQRL" | version u32 LE | frame*
//! frame  := seq u64 LE | len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! Every append writes one frame and fsyncs before returning, so the
//! prefix of complete frames is always crash-consistent: a process death
//! mid-append leaves a *torn tail* (structurally incomplete final frame)
//! that recovery detects, types as [`ResilError::TornTail`], and trims —
//! the preceding frames remain trustworthy. A structurally complete
//! frame whose CRC does not match is a different animal entirely
//! (post-commit corruption) and recovery refuses the log from that point
//! with [`ResilError::CrcMismatch`].

use crate::error::ResilError;
use crate::{crc::crc32, metrics::metrics};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic for framed checkpoint logs.
pub const LOG_MAGIC: [u8; 4] = *b"TQRL";
/// Format version stamped after the magic.
pub const LOG_VERSION: u32 = 1;
/// Bytes before the first frame: magic + version.
pub const LOG_HEADER_LEN: u64 = 8;
/// Bytes in a frame header: seq + len + crc.
pub const FRAME_HEADER_LEN: u64 = 16;

/// One recovered frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Zero-based append sequence number.
    pub seq: u64,
    /// The committed payload bytes.
    pub payload: Vec<u8>,
}

/// Outcome of scanning a log: the valid frame prefix plus, when the file
/// ends mid-frame, the typed tear that recovery trimmed.
#[derive(Debug)]
pub struct Recovery {
    /// Complete, CRC-verified frames in append order.
    pub frames: Vec<Frame>,
    /// The torn tail, when the file ended mid-append.
    pub torn: Option<ResilError>,
    /// Byte length of the valid prefix (header + complete frames).
    pub valid_len: u64,
}

impl Recovery {
    /// The last durably committed frame, if any.
    pub fn last(&self) -> Option<&Frame> {
        self.frames.last()
    }
}

/// Writer over an append-only framed log.
pub struct FrameLog {
    path: PathBuf,
    file: File,
    next_seq: u64,
}

impl FrameLog {
    /// Create a fresh log (truncating any existing file), committing the
    /// header durably before returning.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, ResilError> {
        let path = path.into();
        let mut file =
            OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        file.write_all(&LOG_MAGIC)?;
        file.write_all(&LOG_VERSION.to_le_bytes())?;
        file.sync_data()?;
        sync_parent_dir(&path)?;
        Ok(Self { path, file, next_seq: 0 })
    }

    /// Open an existing log for appending, first recovering its valid
    /// prefix and trimming any torn tail. Creates the log when absent.
    ///
    /// Returns the recovery outcome alongside the writer so callers can
    /// resume from the last committed frame.
    pub fn open_or_create(path: impl Into<PathBuf>) -> Result<(Self, Recovery), ResilError> {
        let path = path.into();
        if !path.exists() {
            let log = Self::create(path)?;
            return Ok((log, Recovery { frames: Vec::new(), torn: None, valid_len: LOG_HEADER_LEN }));
        }
        let recovery = recover(&path)?;
        if recovery.torn.is_some() {
            metrics().torn_detected.inc();
        }
        if recovery.valid_len < LOG_HEADER_LEN {
            // The tear landed inside the file header itself: nothing was
            // ever committed, so start the log over from scratch.
            let log = Self::create(path)?;
            metrics().recoveries.inc();
            return Ok((log, recovery));
        }
        let file = OpenOptions::new().write(true).open(&path)?;
        // Trim the torn tail so new appends extend the valid prefix.
        file.set_len(recovery.valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        let next_seq = recovery.frames.len() as u64;
        metrics().recoveries.inc();
        Ok((Self { path, file, next_seq }, recovery))
    }

    /// Durably append one frame; returns its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, ResilError> {
        let seq = self.next_seq;
        let len = u32::try_from(payload.len()).map_err(|_| {
            ResilError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "frame payload exceeds u32 length",
            ))
        })?;
        let crc = crc32(payload);
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload.len());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(payload);
        tasq_obs::sync::blocking();
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.next_seq = seq + 1;
        metrics().checkpoint_writes.inc();
        Ok(seq)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Scan a log file, returning its valid frame prefix.
///
/// * Missing file → [`ResilError::NoCheckpoint`].
/// * File ends mid-structure (header or frame) → `Ok` with
///   [`Recovery::torn`] set: the tear is typed, the prefix is usable.
/// * Wrong magic/version, a CRC mismatch, or an out-of-order sequence
///   number → hard error: the artifact is refused, not repaired.
pub fn recover(path: &Path) -> Result<Recovery, ResilError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Err(ResilError::NoCheckpoint)
        }
        Err(err) => return Err(ResilError::Io(err)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    recover_bytes(&bytes)
}

/// [`recover`] over an in-memory image (exposed for torn-write fuzzing).
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovery, ResilError> {
    if bytes.len() < 4 {
        // Header never finished committing: a tear at the very start.
        return Ok(Recovery {
            frames: Vec::new(),
            torn: Some(ResilError::TornTail { offset: 0, recovered_frames: 0 }),
            valid_len: 0,
        });
    }
    if bytes[0..4] != LOG_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[0..4]);
        return Err(ResilError::BadMagic { found });
    }
    if bytes.len() < LOG_HEADER_LEN as usize {
        return Ok(Recovery {
            frames: Vec::new(),
            torn: Some(ResilError::TornTail { offset: 4, recovered_frames: 0 }),
            valid_len: 0,
        });
    }
    let version = u32::from_le_bytes(read4(bytes, 4));
    if version != LOG_VERSION {
        return Err(ResilError::BadMagic { found: read4(bytes, 4) });
    }

    let mut frames = Vec::new();
    let mut at = LOG_HEADER_LEN as usize;
    loop {
        if at == bytes.len() {
            // Clean end on a frame boundary.
            return Ok(Recovery { frames, torn: None, valid_len: at as u64 });
        }
        if bytes.len() - at < FRAME_HEADER_LEN as usize {
            return Ok(torn_at(frames, at));
        }
        let seq = u64::from_le_bytes(read8(bytes, at));
        let len = u32::from_le_bytes(read4(bytes, at + 8)) as usize;
        let stored = u32::from_le_bytes(read4(bytes, at + 12));
        let payload_at = at + FRAME_HEADER_LEN as usize;
        if bytes.len() - payload_at < len {
            return Ok(torn_at(frames, at));
        }
        let payload = &bytes[payload_at..payload_at + len];
        let computed = crc32(payload);
        if computed != stored {
            return Err(ResilError::CrcMismatch { offset: at as u64, stored, computed });
        }
        if seq != frames.len() as u64 {
            // A CRC-valid frame with the wrong sequence means the writer
            // misbehaved; refuse rather than guess.
            return Err(ResilError::Decode { context: "frame sequence number" });
        }
        frames.push(Frame { seq, payload: payload.to_vec() });
        at = payload_at + len;
    }
}

fn torn_at(frames: Vec<Frame>, at: usize) -> Recovery {
    let recovered = frames.len();
    Recovery {
        valid_len: at as u64,
        torn: Some(ResilError::TornTail { offset: at as u64, recovered_frames: recovered }),
        frames,
    }
}

fn read4(bytes: &[u8], at: usize) -> [u8; 4] {
    let mut out = [0u8; 4];
    out.copy_from_slice(&bytes[at..at + 4]);
    out
}

fn read8(bytes: &[u8], at: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&bytes[at..at + 8]);
    out
}

/// Fsync the parent directory so a rename/create is durable.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), ResilError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Directory fsync is best-effort on platforms that refuse
            // opening directories for write; opening read-only suffices
            // for fsync on linux.
            let dir = File::open(parent)?;
            dir.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tasq-resil-frame-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let path = tmp("roundtrip.log");
        let mut log = FrameLog::create(&path).unwrap();
        assert_eq!(log.append(b"alpha").unwrap(), 0);
        assert_eq!(log.append(b"beta").unwrap(), 1);
        let rec = recover(&path).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[0].payload, b"alpha");
        assert_eq!(rec.last().unwrap().payload, b"beta");
    }

    #[test]
    fn missing_file_is_typed() {
        let err = recover(Path::new("/nonexistent/tasq.log")).unwrap_err();
        assert!(matches!(err, ResilError::NoCheckpoint));
    }

    #[test]
    fn reopen_resumes_sequence() {
        let path = tmp("reopen.log");
        {
            let mut log = FrameLog::create(&path).unwrap();
            log.append(b"one").unwrap();
        }
        let (mut log, rec) = FrameLog::open_or_create(&path).unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(log.append(b"two").unwrap(), 1);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.frames.len(), 2);
    }

    #[test]
    fn corrupt_payload_is_refused() {
        let path = tmp("corrupt.log");
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"payload-bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // flip a payload bit post-commit
        let err = recover_bytes(&bytes).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn foreign_file_is_refused() {
        let err = recover_bytes(b"not a checkpoint at all").unwrap_err();
        assert!(matches!(err, ResilError::BadMagic { .. }));
    }

    #[test]
    fn torn_tail_is_trimmed_on_reopen() {
        let path = tmp("torn.log");
        {
            let mut log = FrameLog::create(&path).unwrap();
            log.append(b"good frame").unwrap();
            log.append(b"doomed frame").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Cut into the middle of the second frame's payload.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let (mut log, rec) = FrameLog::open_or_create(&path).unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert!(rec.torn.as_ref().is_some_and(|t| t.is_torn()));
        // The tail was trimmed; a new append lands on a clean boundary.
        log.append(b"replacement").unwrap();
        let rec = recover(&path).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[1].payload, b"replacement");
    }
}
