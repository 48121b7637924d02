//! `tasq-analyze` — the workspace gatekeeper for what rustc and clippy
//! cannot check. It reads source only: the source lints are
//! `[workspace.lints]` in the root `Cargo.toml` and the `clippy.toml`
//! files, fd ownership is `OwnedFd`'s, pointer provenance is borrowck's
//! (`IoSlice`) and rustc's (`&raw const`), and the simulator's dependency
//! order and the plan/PCC invariants are tier-1 tests.
//!
//! What is left needs whole functions and the whole workspace at once:
//! a string/comment-aware scanner ([`lexer`]) feeds a recursive-descent
//! parser ([`parser`]) that builds per-function ASTs, a CFG builder
//! ([`cfg`]) adds explicit `?`-error and panic edges, and a worklist
//! solver ([`dataflow`]) runs the lock-discipline audit ([`passes`]). Its
//! held sets also give the lock-order graph, and a cycle in it is a
//! `lock-order` deny.
//!
//! The binary exits nonzero when any deny diagnostic is produced, which is
//! what gates CI.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;

use passes::lock_discipline;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory; never fails the check.
    Warn,
    /// Fails `tasq-analyze check` (and CI).
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Warn => write!(f, "warn"),
            Self::Deny => write!(f, "deny"),
        }
    }
}

/// One finding, with its `file:line:col` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule or pass that produced this finding.
    pub rule: String,
    /// Whether it fails the check.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: [{}] {}",
            self.severity, self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Aggregate result of a `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Source files read.
    pub files_scanned: usize,
    /// Nested lock-acquisition edges observed.
    pub lock_edges: usize,
    /// Functions the recursive-descent parser handled across the
    /// workspace.
    pub functions_parsed: usize,
    /// Non-test functions the parser could not handle (each also gets a
    /// `parse-coverage` diagnostic).
    pub functions_unparsed: usize,
    /// Every finding.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// `true` when no deny diagnostic was produced.
    pub fn ok(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Deny)
    }
}

/// Run the lock-discipline and lock-order audit over every `.rs` file
/// under `root/crates` and aggregate the findings.
pub fn run_check(root: &Path) -> io::Result<CheckReport> {
    let mut report = CheckReport::default();

    // A missing `crates/` is an error, not a vacuous pass — a typo'd
    // --root must not go green.
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/ directory)", root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs_files(&crates_dir, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        sources.push((relative_path(root, file), fs::read_to_string(file)?));
    }
    report.files_scanned = sources.len();

    // Per file: parser → CFG → lock-discipline. Integration-test and
    // fixture trees are exempt — they hold planted defects on purpose.
    let mut lock_edges = Vec::new();
    for (rel, source) in &sources {
        if path_is_exempt(rel) {
            continue;
        }
        let outcome = passes::analyze_file(rel, source);
        report.functions_parsed += outcome.functions_parsed;
        report.functions_unparsed += outcome.functions_unparsed;
        report.diagnostics.extend(outcome.diagnostics);
        lock_edges.extend(outcome.lock_edges);
    }

    // Lock order across the workspace, from lock-discipline's edges.
    report.lock_edges = lock_edges.len();
    if let Some((cycle, edge)) = lock_discipline::find_cycle(&lock_edges) {
        report.diagnostics.push(Diagnostic {
            rule: lock_discipline::ORDER_RULE.into(),
            severity: Severity::Deny,
            path: edge.path.clone(),
            line: edge.at.line,
            col: edge.at.col,
            message: format!(
                "cyclic lock acquisition order (potential deadlock): {}",
                cycle.join(" -> ")
            ),
        });
    }
    Ok(report)
}

/// Recursively collect `.rs` files, skipping build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Paths the passes never analyze: vendored stand-ins and
/// integration-test / example trees (unit tests are excluded by the
/// scanner's `#[cfg(test)]` tracking instead).
fn path_is_exempt(path: &str) -> bool {
    ["vendor/", "/tests/", "/examples/"].iter().any(|p| path.contains(p))
        || path.ends_with("build.rs")
}

/// `root`-relative path with `/` separators (what diagnostics report).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
