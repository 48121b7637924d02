//! Whole-file atomic snapshots: write-temp → fsync → rename → fsync-dir.
//!
//! The one durable format of the workspace: model artifacts, pipeline
//! checkpoints and the registry's deployment manifest are each a file
//! replaced wholesale by its newest record. The commit protocol
//! guarantees a reader never observes a half-written file: a crash
//! mid-commit leaves a torn `<path>.tmp` beside an intact committed file,
//! and the next commit overwrites the temp. So a committed file that is
//! cut short, runs past its payload or fails its CRC32 was changed after
//! commit, and [`load`] refuses it.
//!
//! ```text
//! file := magic "TQSN" | version u32 LE | len u32 LE | crc32(payload) u32 LE | payload
//! ```

use crate::crc::crc32;
use crate::error::ResilError;
use crate::metrics::metrics;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// File magic for atomic snapshots.
pub const SNAP_MAGIC: [u8; 4] = *b"TQSN";
/// Format version stamped after the magic.
pub const SNAP_VERSION: u32 = 1;
/// Header bytes before the payload: magic + version + len + crc.
pub const SNAP_HEADER_LEN: usize = 16;

/// Atomically commit `payload` to `path`.
///
/// The bytes are first written and fsynced to `<path>.tmp`, then renamed
/// over `path`, then the parent directory is fsynced — a crash at any
/// point leaves either the previous snapshot or the new one, never a
/// mixture.
pub fn commit(path: &Path, payload: &[u8]) -> Result<(), ResilError> {
    let _span = tasq_obs::span(
        tasq_obs::Level::Debug,
        "resil_snapshot_commit",
        &[("bytes", tasq_obs::FieldValue::U64(payload.len() as u64))],
    );
    let len = u32::try_from(payload.len()).map_err(|_| {
        ResilError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "snapshot payload exceeds u32 length",
        ))
    })?;
    let tmp = tmp_path(path);
    tasq_obs::sync::blocking();
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&SNAP_MAGIC)?;
        file.write_all(&SNAP_VERSION.to_le_bytes())?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    metrics().checkpoint_writes.inc();
    Ok(())
}

/// Load and verify a snapshot committed by [`commit`].
///
/// * Missing file → [`ResilError::NoCheckpoint`].
/// * Truncated header or payload → [`ResilError::TornTail`]. No crash
///   leaves a committed file short (the commit protocol tears only the
///   temp), so callers refuse it like corruption.
/// * Bytes past the payload → [`ResilError::TrailingBytes`]: [`commit`]
///   writes exactly header and payload, so the file grew after commit.
/// * Wrong magic/version → [`ResilError::BadMagic`]; CRC failure →
///   [`ResilError::CrcMismatch`]. All are refusals, never a partial load.
pub fn load(path: &Path) -> Result<Vec<u8>, ResilError> {
    let _span = tasq_obs::span(tasq_obs::Level::Debug, "resil_snapshot_restore", &[]);
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Err(ResilError::NoCheckpoint)
        }
        Err(err) => return Err(ResilError::Io(err)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let payload = load_bytes(&bytes)?;
    metrics().recoveries.inc();
    Ok(payload)
}

/// [`load`] over an in-memory image (exposed for torn-write fuzzing).
pub fn load_bytes(bytes: &[u8]) -> Result<Vec<u8>, ResilError> {
    if bytes.len() < 4 {
        return Err(torn(0));
    }
    if bytes[0..4] != SNAP_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[0..4]);
        return Err(ResilError::BadMagic { found });
    }
    if bytes.len() < SNAP_HEADER_LEN {
        return Err(torn(4));
    }
    let mut version = [0u8; 4];
    version.copy_from_slice(&bytes[4..8]);
    if u32::from_le_bytes(version) != SNAP_VERSION {
        return Err(ResilError::BadMagic { found: version });
    }
    let mut len4 = [0u8; 4];
    len4.copy_from_slice(&bytes[8..12]);
    let len = u32::from_le_bytes(len4) as usize;
    let mut crc4 = [0u8; 4];
    crc4.copy_from_slice(&bytes[12..16]);
    let stored = u32::from_le_bytes(crc4);
    let payload_end = SNAP_HEADER_LEN + len;
    if bytes.len() < payload_end {
        return Err(torn(SNAP_HEADER_LEN as u64));
    }
    if bytes.len() > payload_end {
        return Err(ResilError::TrailingBytes {
            offset: payload_end as u64,
            extra: (bytes.len() - payload_end) as u64,
        });
    }
    let payload = &bytes[SNAP_HEADER_LEN..payload_end];
    let computed = crc32(payload);
    if computed != stored {
        return Err(ResilError::CrcMismatch { offset: SNAP_HEADER_LEN as u64, stored, computed });
    }
    Ok(payload.to_vec())
}

fn torn(offset: u64) -> ResilError {
    metrics().torn_detected.inc();
    ResilError::TornTail { offset }
}

/// Where [`commit`] writes `path`'s next image before renaming it over
/// `path`; a crash mid-commit leaves it torn, and [`load`] never reads it.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsync the parent directory so a rename is durable.
fn sync_parent_dir(path: &Path) -> Result<(), ResilError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Opening a directory read-only suffices for fsync on linux.
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tasq-resil-snap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn commit_then_load_roundtrip() {
        let path = tmp("roundtrip.snap");
        commit(&path, b"model weights").unwrap();
        assert_eq!(load(&path).unwrap(), b"model weights");
        // Re-commit replaces atomically.
        commit(&path, b"newer weights").unwrap();
        assert_eq!(load(&path).unwrap(), b"newer weights");
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn missing_snapshot_is_typed() {
        let err = load(Path::new("/nonexistent/x.snap")).unwrap_err();
        assert!(matches!(err, ResilError::NoCheckpoint));
    }

    #[test]
    fn corrupt_snapshot_is_refused() {
        let path = tmp("corrupt.snap");
        commit(&path, b"pristine bytes").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip each bit of every header and payload byte: nothing loads.
        // A flipped magic or version is a foreign file, a flipped length
        // reads as a cut or as bytes past a shorter payload, and any
        // other flip fails the CRC.
        for at in 0..full.len() {
            for bit in 0..8 {
                let mut image = full.clone();
                image[at] ^= 1 << bit;
                let err = load_bytes(&image).unwrap_err();
                match at {
                    0..8 => assert!(matches!(err, ResilError::BadMagic { .. }), "{at}: {err:?}"),
                    8..12 => assert!(err.is_torn() || err.is_corrupt(), "{at}: {err:?}"),
                    _ => assert!(matches!(err, ResilError::CrcMismatch { .. }), "{at}: {err:?}"),
                }
            }
        }
    }

    /// A committed snapshot with bytes appended is refused, whatever the
    /// bytes: zeros, a copy of its own payload, or a whole second
    /// snapshot.
    #[test]
    fn appended_bytes_are_refused() {
        let path = tmp("appended.snap");
        commit(&path, b"model weights").unwrap();
        let full = std::fs::read(&path).unwrap();
        for tail in [vec![0u8; 16], vec![0u8; 1], b"model weights".to_vec(), full.clone()] {
            let mut image = full.clone();
            image.extend_from_slice(&tail);
            let err = load_bytes(&image).unwrap_err();
            let want = (full.len() as u64, tail.len() as u64);
            match err {
                ResilError::TrailingBytes { offset, extra } => assert_eq!((offset, extra), want),
                other => panic!("{} appended bytes: {other:?}", tail.len()),
            }
            assert!(err_is_corrupt(&image), "{} appended bytes", tail.len());
        }
        // Through the file, as a reader sees it.
        let mut image = full;
        image.extend_from_slice(&[0xa5; 16]);
        std::fs::write(&path, &image).unwrap();
        assert!(matches!(load(&path), Err(ResilError::TrailingBytes { extra: 16, .. })));
    }

    fn err_is_corrupt(image: &[u8]) -> bool {
        load_bytes(image).is_err_and(|e| e.is_corrupt())
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        let path = tmp("fuzz.snap");
        commit(&path, b"0123456789abcdef0123456789").unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let err = load_bytes(&full[..cut]).unwrap_err();
            assert!(
                err.is_torn() || err.is_corrupt(),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        assert!(load_bytes(&full).is_ok());
    }
}
