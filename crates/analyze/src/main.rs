//! `tasq-analyze` — the workspace lock-discipline and lock-order gate.
//! (Source lints are rustc and clippy's: see `[workspace.lints]`.)
//!
//! ```text
//! tasq-analyze check [--root DIR] [--format human|json] [--out FILE]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 when any deny diagnostic is
//! produced, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;
use tasq_analyze::{report, run_check};

const USAGE: &str = "usage: tasq-analyze check [--root DIR] [--format human|json] [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("tasq-analyze: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    if command != "check" {
        return Err(format!("unknown command `{command}`"));
    }
    let mut root = PathBuf::from(".");
    let mut format = "human".to_string();
    let mut out_path: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                root = PathBuf::from(flag_value(args, &mut i)?);
            }
            "--format" => {
                format = flag_value(args, &mut i)?;
                if format != "human" && format != "json" {
                    return Err(format!("unknown format `{format}`"));
                }
            }
            "--out" => {
                out_path = Some(PathBuf::from(flag_value(args, &mut i)?));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let check = run_check(&root).map_err(|e| format!("check failed: {e}"))?;
    let rendered = if format == "json" {
        report::to_json(&check)
    } else {
        report::to_human(&check)
    };
    if let Some(path) = out_path {
        std::fs::write(&path, &rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        // Keep the terminal summary even when the full report goes to a
        // file — CI logs should show the verdict inline.
        print!("{}", report::to_human(&check));
    } else {
        print!("{rendered}");
    }
    Ok(check.ok())
}

fn flag_value(args: &[String], i: &mut usize) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}
