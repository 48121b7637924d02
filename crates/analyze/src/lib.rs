//! `tasq-analyze` — the workspace gatekeeper for what rustc and clippy
//! cannot check (the source lints are `[workspace.lints]` in the root
//! `Cargo.toml` and the `clippy.toml` files). Three analysis families run
//! under one `tasq-analyze check` command:
//!
//! 1. **Dataflow passes** ([`passes`]): a string/comment-aware scanner
//!    ([`lexer`]) feeds a recursive-descent parser ([`parser`]) that
//!    builds per-function ASTs, a CFG builder ([`cfg`]) adds explicit
//!    `?`-error and panic edges, and a worklist solver ([`dataflow`]) runs
//!    the resource-leak, unsafe-boundary (raw-pointer provenance) and
//!    lock-discipline audits. Lock-discipline's held sets also give the
//!    lock-order graph, and a cycle in it is a `lock-order` deny.
//! 2. **Semantic invariants** ([`invariants`]): generated job plans must
//!    pass [`scope_sim::validate_job`]; measured scaling curves and fitted
//!    power-law PCCs must pass [`tasq::validate::validate_curve`] /
//!    [`tasq::validate::validate_pcc`] (positivity, monotonicity,
//!    Amdahl-consistency).
//! 3. **Happens-before replay** ([`hb`]): a vector-clock checker replays
//!    synchronization logs from seeded simulator runs to prove
//!    the recorded executions race-free and deterministic.
//!
//! The binary exits nonzero when any deny diagnostic is produced, which is
//! what gates CI.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod hb;
pub mod invariants;
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

/// One finding, with a `file:line:col` span when the source is a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule or pass that produced this finding.
    pub rule: String,
    /// Whether it fails the check.
    pub severity: Severity,
    /// Workspace-relative path, or a `dynamic/…` pseudo-path for findings
    /// from instrumented runs.
    pub path: String,
    /// 1-based line (0 for dynamic findings).
    pub line: usize,
    /// 1-based column (0 for dynamic findings).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}: {}:{}:{}: [{}] {}",
                self.severity, self.path, self.line, self.col, self.rule, self.message
            )
        } else {
            write!(f, "{}: {}: [{}] {}", self.severity, self.path, self.rule, self.message)
        }
    }
}

/// Aggregate result of a `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Source files read.
    pub files_scanned: usize,
    /// Nested lock-acquisition edges observed.
    pub lock_edges: usize,
    /// Jobs validated in the dynamic invariant pass.
    pub jobs_validated: usize,
    /// Scaling curves / fitted PCCs audited.
    pub curves_audited: usize,
    /// Synchronization events replayed by the happens-before checker.
    pub hb_events: usize,
    /// Functions the recursive-descent parser handled across the
    /// workspace (dataflow-pass phase only).
    pub functions_parsed: usize,
    /// Non-test functions the parser could not handle (each also gets a
    /// `parse-coverage` diagnostic).
    pub functions_unparsed: usize,
    /// Names of the dataflow passes that ran.
    pub passes: Vec<String>,
    /// Every finding, static and dynamic alike.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// `true` when no deny diagnostic was produced.
    pub fn ok(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Deny)
    }
}

/// What `run_check` should do.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Workspace root (the directory holding `crates/`).
    pub root: PathBuf,
    /// Skip the dynamic passes (workload validation, PCC audit,
    /// happens-before replay); dataflow passes only.
    pub static_only: bool,
    /// Run one dataflow pass instead of everything: `resource-leak`,
    /// `unsafe-boundary` or `lock-discipline` (which includes the
    /// lock-order audit).
    pub pass: Option<String>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self { root: PathBuf::from("."), static_only: false, pass: None }
    }
}

/// Run every analysis pass (or the one selected by `opts.pass`) and
/// aggregate the findings.
pub fn run_check(opts: &CheckOptions) -> io::Result<CheckReport> {
    let mut report = CheckReport::default();

    // Resolve the pass selection up front so a typo'd --pass errors
    // instead of silently running nothing.
    let (pass_names, run_dynamic): (Vec<&'static str>, bool) = match opts.pass.as_deref() {
        None => (passes::PASS_NAMES.to_vec(), true),
        Some(p) => match passes::PASS_NAMES.iter().copied().find(|n| *n == p) {
            Some(name) => (vec![name], false),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown pass `{p}` (expected {})", passes::PASS_NAMES.join(", ")),
                ));
            }
        },
    };

    // A missing `crates/` is an error, not a vacuous pass — a typo'd
    // --root must not go green.
    let crates_dir = opts.root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/ directory)", opts.root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs_files(&crates_dir, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        sources.push((relative_path(&opts.root, file), fs::read_to_string(file)?));
    }
    report.files_scanned = sources.len();

    // Phase 1: parser → CFG → dataflow passes. Integration-test and
    // fixture trees are exempt — they hold planted defects on purpose.
    report.passes = pass_names.iter().map(|s| s.to_string()).collect();
    let mut lock_edges = Vec::new();
    for (rel, source) in &sources {
        if path_is_exempt(rel) {
            continue;
        }
        let outcome = passes::analyze_file(rel, source, &pass_names);
        report.functions_parsed += outcome.functions_parsed;
        report.functions_unparsed += outcome.functions_unparsed;
        report.diagnostics.extend(outcome.diagnostics);
        lock_edges.extend(outcome.lock_edges);
    }

    // Phase 2: lock order across the workspace, from lock-discipline's
    // edges.
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

    // Phase 3: dynamic invariants + happens-before replay.
    if run_dynamic && !opts.static_only {
        invariants::run_dynamic_pass(&mut report);
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
