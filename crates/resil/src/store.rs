//! Directory of named per-stage checkpoint logs.
//!
//! A [`CheckpointStore`] maps stage names (`"flight"`, `"gbdt"`, …) to
//! [`FrameLog`] files under one directory, caching open writers so
//! appends after the first are O(1). Recovery is per-stage: each log's
//! valid prefix is scanned once at first touch, torn tails are trimmed
//! and counted, and the caller resumes from the last committed frame.

use crate::error::ResilError;
use crate::frame::{recover, FrameLog, Recovery};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tasq_obs::sync::{Mutex, Rank};

/// A directory of named append-only checkpoint logs.
pub struct CheckpointStore {
    dir: PathBuf,
    logs: Mutex<HashMap<String, FrameLog>>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ResilError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, logs: Mutex::new(Rank::CheckpointLogs, HashMap::new()) })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a stage's log file.
    pub fn stage_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }

    /// Durably append one checkpoint frame to `stage`; returns its
    /// sequence number.
    pub fn append(&self, stage: &str, payload: &[u8]) -> Result<u64, ResilError> {
        let _span = tasq_obs::span(
            tasq_obs::Level::Debug,
            "resil_checkpoint_commit",
            &[("bytes", tasq_obs::FieldValue::U64(payload.len() as u64))],
        );
        let mut logs = self.logs.lock();
        let log = match logs.get_mut(stage) {
            Some(log) => log,
            None => {
                let (log, _) = FrameLog::open_or_create(self.stage_path(stage))?;
                logs.entry(stage.to_string()).or_insert(log)
            }
        };
        log.append(payload)
    }

    /// Recover a stage's valid frame prefix (trimming any torn tail and
    /// leaving the log ready for appends that extend it).
    pub fn recover_stage(&self, stage: &str) -> Result<Recovery, ResilError> {
        let _span = tasq_obs::span(tasq_obs::Level::Debug, "resil_checkpoint_restore", &[]);
        let mut logs = self.logs.lock();
        let (log, recovery) = FrameLog::open_or_create(self.stage_path(stage))?;
        logs.insert(stage.to_string(), log);
        Ok(recovery)
    }

    /// Read-only scan of a stage's committed frames (no trimming, no
    /// writer cached). [`ResilError::NoCheckpoint`] when the log is
    /// absent.
    pub fn scan(&self, stage: &str) -> Result<Recovery, ResilError> {
        recover(&self.stage_path(stage))
    }

    /// Number of committed frames in a stage (0 when the log is absent).
    pub fn committed(&self, stage: &str) -> Result<usize, ResilError> {
        match self.scan(stage) {
            Ok(recovery) => Ok(recovery.frames.len()),
            Err(ResilError::NoCheckpoint) => Ok(0),
            Err(err) => Err(err),
        }
    }

    /// Delete every stage log (used to start a run from scratch).
    pub fn reset(&self) -> Result<(), ResilError> {
        let mut logs = self.logs.lock();
        logs.clear();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_ckpt = path.extension().is_some_and(|e| e == "ckpt");
            if is_ckpt {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join("tasq-resil-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    #[test]
    fn stages_are_independent() {
        let store = store("independent");
        store.append("flight", b"chunk-0").unwrap();
        store.append("gbdt", b"round-0").unwrap();
        store.append("flight", b"chunk-1").unwrap();
        assert_eq!(store.committed("flight").unwrap(), 2);
        assert_eq!(store.committed("gbdt").unwrap(), 1);
        assert_eq!(store.committed("nn").unwrap(), 0);
    }

    #[test]
    fn recover_resumes_appends() {
        let dir = std::env::temp_dir().join("tasq-resil-store-tests").join("resume");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = CheckpointStore::open(&dir).unwrap();
            store.append("stage", b"one").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        let recovery = store.recover_stage("stage").unwrap();
        assert_eq!(recovery.frames.len(), 1);
        store.append("stage", b"two").unwrap();
        assert_eq!(store.committed("stage").unwrap(), 2);
    }

    #[test]
    fn reset_clears_all_stages() {
        let store = store("reset");
        store.append("a", b"x").unwrap();
        store.append("b", b"y").unwrap();
        store.reset().unwrap();
        assert_eq!(store.committed("a").unwrap(), 0);
        assert_eq!(store.committed("b").unwrap(), 0);
    }
}
