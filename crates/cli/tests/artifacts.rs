//! Registered model artifacts through the real `tasq-cli` binary: a file
//! changed after `train` registered it is refused, not served.

#![allow(clippy::expect_used, clippy::panic)]

use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_tasq-cli");

fn cli(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("spawn tasq-cli")
}

/// `score` on a registered artifact with 16 bytes appended exits
/// non-zero and names the damage; on the artifact as registered, and on
/// the other family's untouched one, it scores.
#[test]
fn score_refuses_an_artifact_with_bytes_appended() {
    let dir = std::env::temp_dir().join(format!("tasq-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let workload = dir.join("w.bin");
    let models = dir.join("models");
    let (workload, models_str) = (workload.to_str().expect("utf8"), models.to_str().expect("utf8"));
    for args in [
        &["generate", "--out", workload, "--jobs", "8", "--seed", "3"][..],
        &["train", "--workload", workload, "--model-dir", models_str, "--nn-epochs", "3",
            "--xgb-rounds", "4"],
    ] {
        let out = cli(args);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let score = |model: &str| {
        cli(&["score", "--workload", workload, "--model-dir", models_str, "--model", model])
    };
    assert!(score("nn").status.success());

    let artifact = models.join("tasq-nn-pcc.v1.bin");
    let mut bytes = std::fs::read(&artifact).expect("read the NN artifact");
    bytes.extend_from_slice(&[0u8; 16]);
    std::fs::write(&artifact, &bytes).expect("append to the NN artifact");
    let refused = score("nn");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "scored an appended artifact: {stderr}");
    assert!(stderr.contains("past its payload"), "{stderr}");
    assert!(score("xgb-ss").status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
