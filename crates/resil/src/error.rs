//! Typed failure taxonomy for the resilience layer.
//!
//! [`ResilError::NoCheckpoint`] is a fresh start, not a failure. Every
//! other load error refuses the file: a committed snapshot is never
//! repaired or partly read. [`ResilError::TornTail`] (the file is cut
//! short), [`ResilError::TrailingBytes`] (bytes were appended) and
//! [`ResilError::CrcMismatch`] (its bytes changed) are kept apart so an
//! operator can tell a truncation or an append from bit rot.

use std::fmt;

/// Errors surfaced by checkpoint persistence and recovery.
#[derive(Debug)]
pub enum ResilError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic and version.
    BadMagic {
        /// What was found at the header position.
        found: [u8; 4],
    },
    /// The file ends before its header or payload does.
    ///
    /// A crash mid-commit tears only the snapshot's temp file, so a
    /// committed file cut short was truncated after commit: it is
    /// refused, not recovered from.
    TornTail {
        /// Byte offset of the header field or payload the file cuts into.
        offset: u64,
    },
    /// The file runs past the end of its payload. A commit writes exactly
    /// the header and the payload, so the bytes were appended after
    /// commit: the file is refused, not read up to its stated length.
    TrailingBytes {
        /// Byte offset where the payload ends.
        offset: u64,
        /// Bytes found past it.
        extra: u64,
    },
    /// A structurally complete snapshot failed its CRC32 check: the
    /// bytes were corrupted *after* commit.
    CrcMismatch {
        /// Byte offset of the corrupt payload.
        offset: u64,
        /// CRC stored in the snapshot header.
        stored: u32,
        /// CRC computed over the payload as read.
        computed: u32,
    },
    /// No checkpoint exists (fresh start, not a failure of recovery).
    NoCheckpoint,
    /// A recovered payload failed to decode into the expected type.
    Decode {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for ResilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilError::Io(err) => write!(f, "checkpoint i/o failed: {err}"),
            ResilError::BadMagic { found } => {
                write!(f, "not a tasq checkpoint (magic {found:02x?})")
            }
            ResilError::TornTail { offset } => {
                write!(f, "checkpoint cut short at byte {offset} — refusing truncated file")
            }
            ResilError::TrailingBytes { offset, extra } => write!(
                f,
                "checkpoint runs {extra} bytes past its payload's end at byte {offset} — \
                 refusing appended file"
            ),
            ResilError::CrcMismatch { offset, stored, computed } => write!(
                f,
                "crc mismatch at byte {offset}: stored {stored:#010x}, \
                 computed {computed:#010x} — refusing corrupt file"
            ),
            ResilError::NoCheckpoint => write!(f, "no checkpoint present"),
            ResilError::Decode { context } => {
                write!(f, "recovered payload failed to decode as {context}")
            }
        }
    }
}

impl std::error::Error for ResilError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ResilError {
    fn from(err: std::io::Error) -> Self {
        ResilError::Io(err)
    }
}

impl ResilError {
    /// True when the file was cut short.
    pub fn is_torn(&self) -> bool {
        matches!(self, ResilError::TornTail { .. })
    }

    /// True when the file's bytes changed or grew after commit, or it is
    /// not a snapshot at all.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            ResilError::CrcMismatch { .. }
                | ResilError::TrailingBytes { .. }
                | ResilError::BadMagic { .. }
        )
    }
}
