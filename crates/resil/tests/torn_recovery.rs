//! Fuzz-style torn-write recovery: truncate a valid multi-frame
//! checkpoint log at *every* byte offset and assert the outcome is
//! always a typed recovery — the valid frame prefix plus a typed torn
//! tail — never a panic, a hard error, or silent garbage.

#![allow(clippy::unwrap_used)]

use tasq_resil::frame::{recover_bytes, FrameLog, LOG_HEADER_LEN};
use tasq_resil::{CheckpointStore, ResilError};

fn build_log(dir: &std::path::Path) -> (std::path::PathBuf, Vec<Vec<u8>>, Vec<u64>) {
    let path = dir.join("fuzz.ckpt");
    let payloads: Vec<Vec<u8>> = (0..4u8)
        .map(|i| (0..=(40 + i * 13)).map(|b| b ^ (i * 31)).collect())
        .collect();
    let mut log = FrameLog::create(&path).unwrap();
    let mut boundaries = vec![LOG_HEADER_LEN];
    for p in &payloads {
        log.append(p).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len());
    }
    (path, payloads, boundaries)
}

#[test]
fn truncation_at_every_byte_recovers_the_valid_prefix() {
    let dir = std::env::temp_dir().join("tasq-resil-torn-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (path, payloads, boundaries) = build_log(&dir);
    let full = std::fs::read(&path).unwrap();

    for cut in 0..=full.len() {
        let image = &full[..cut];
        let recovery = recover_bytes(image)
            .unwrap_or_else(|e| panic!("cut at {cut}: hard error {e}"));
        // Frames committed strictly before the cut must all survive.
        let intact =
            boundaries.iter().filter(|&&b| b <= cut as u64).count().saturating_sub(1);
        assert_eq!(recovery.frames.len(), intact, "cut at {cut}");
        for (frame, want) in recovery.frames.iter().zip(&payloads) {
            assert_eq!(&frame.payload, want, "cut at {cut}: payload mangled");
        }
        let on_boundary = boundaries.contains(&(cut as u64));
        if on_boundary {
            assert!(recovery.torn.is_none(), "cut at {cut}: boundary misread as tear");
        } else {
            // Mid-frame cut: the tear is typed, and recovery falls back
            // to the previous good frame.
            let torn = recovery.torn.as_ref().unwrap_or_else(|| {
                panic!("cut at {cut}: tear not detected")
            });
            assert!(torn.is_torn(), "cut at {cut}: {torn}");
            if intact > 0 {
                assert_eq!(
                    recovery.last().unwrap().payload,
                    payloads[intact - 1],
                    "cut at {cut}: wrong fallback frame"
                );
            }
        }
    }
}

#[test]
fn truncated_store_resumes_appends_from_last_good_frame() {
    let dir = std::env::temp_dir().join("tasq-resil-torn-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (path, payloads, boundaries) = build_log(&dir);
    let full = std::fs::read(&path).unwrap();

    // Shear mid-way through the last frame, then reopen through the
    // store and extend the log: the torn frame is replaced cleanly.
    let cut = (boundaries[3] as usize + full.len()) / 2;
    std::fs::write(&path, &full[..cut]).unwrap();
    let store = CheckpointStore::open(&dir).unwrap();
    let recovery = store.recover_stage("fuzz").unwrap();
    assert_eq!(recovery.frames.len(), 3);
    assert!(recovery.torn.as_ref().is_some_and(ResilError::is_torn));
    store.append("fuzz", &payloads[3]).unwrap();
    let clean = store.scan("fuzz").unwrap();
    assert!(clean.torn.is_none());
    assert_eq!(clean.frames.len(), 4);
    assert_eq!(clean.frames[3].payload, payloads[3]);
}

#[test]
fn bitflips_never_pass_as_valid_frames() {
    let dir = std::env::temp_dir().join("tasq-resil-flip-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (path, _payloads, boundaries) = build_log(&dir);
    let full = std::fs::read(&path).unwrap();

    // Flip one bit inside the *first* frame's payload region: recovery
    // must refuse (corruption), not reinterpret.
    let payload_start = boundaries[0] as usize + 16;
    for at in payload_start..payload_start + 8 {
        let mut image = full.clone();
        image[at] ^= 0x10;
        let err = recover_bytes(&image).unwrap_err();
        assert!(err.is_corrupt(), "flip at {at}: {err:?}");
    }
}
