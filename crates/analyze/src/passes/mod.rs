//! The dataflow pass (parser → CFG → worklist solver).
//!
//! [`lock_discipline`] checks what no compiler lint can, because it needs
//! whole functions: [`crate::parser`] builds per-function ASTs,
//! [`crate::cfg`] lowers them to control-flow graphs with explicit
//! `?`-error and panic edges, and [`crate::dataflow`] runs the pass's
//! transfer function to a fixed point. That is what it takes to prove
//! "no guard is held when this thread blocks" on *every* path, error
//! paths included, and to see in what order locks are nested. (Fd and
//! buffer ownership and raw-pointer provenance need no pass: `tasq-net`
//! holds fds as `OwnedFd`, buffers as owned `Vec`s and iovecs as
//! borrowing `IoSlice`s, so rustc and borrowck prove them.)
//!
//! Functions the parser cannot handle are surfaced as `parse-coverage`
//! diagnostics (deny inside the crates the pass is contracted to
//! cover, warn elsewhere) instead of being silently skipped — an
//! analyzer that quietly sees nothing is worse than none.

pub mod lock_discipline;

use crate::cfg::build_all;
use crate::lexer::scan;
use crate::parser::parse_file;
use crate::{Diagnostic, Severity};
use lock_discipline::LockEdge;

/// Rule id for functions the parser could not handle.
pub const PARSE_COVERAGE: &str = "parse-coverage";

/// Crates whose sources the pass is contracted to fully parse: they hold
/// the blocking calls (`epoll_wait`, `read`, `writev`, worker joins) a
/// guard must never be held across, so an unparsed non-test function
/// there is a deny, not a shrug.
const COVERAGE_GATED: [&str; 2] = ["crates/net/", "crates/par/"];

/// One pass finding before it is tied to a file path.
#[derive(Debug)]
pub struct Finding {
    /// Rule id (`lock-discipline`, …).
    pub rule: &'static str,
    /// Deny fails the check.
    pub severity: Severity,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

/// The pass results for one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Functions the parser handled (test regions included).
    pub functions_parsed: usize,
    /// Non-test functions the parser could not handle.
    pub functions_unparsed: usize,
    /// Findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Lock-order edges (from the lock-discipline pass).
    pub lock_edges: Vec<LockEdge>,
}

/// Run the lock-discipline pass over one source file. `path` is the
/// workspace-relative path findings report.
pub fn analyze_file(path: &str, source: &str) -> FileOutcome {
    let parsed = parse_file(&scan(source));
    let mut outcome = FileOutcome {
        functions_parsed: parsed.functions.len(),
        ..FileOutcome::default()
    };
    let mut findings: Vec<Finding> = Vec::new();

    for u in &parsed.unparsed {
        if u.in_test {
            continue;
        }
        outcome.functions_unparsed += 1;
        let gated = COVERAGE_GATED.iter().any(|p| path.starts_with(p));
        findings.push(Finding {
            rule: PARSE_COVERAGE,
            severity: if gated { Severity::Deny } else { Severity::Warn },
            line: u.span.line,
            col: u.span.col,
            message: format!(
                "`{}` could not be parsed, so the lock-discipline pass did not audit it: {}",
                u.name, u.error
            ),
        });
    }

    for f in parsed.functions.iter().filter(|f| !f.in_test) {
        for cfg in build_all(f) {
            let (found, edges) = lock_discipline::run(&cfg, path);
            findings.extend(found);
            outcome.lock_edges.extend(edges);
        }
    }

    for f in findings {
        outcome.diagnostics.push(Diagnostic {
            rule: f.rule.to_string(),
            severity: f.severity,
            path: path.to_string(),
            line: f.line,
            col: f.col,
            message: f.message,
        });
    }
    outcome.diagnostics.sort_by_key(|d| (d.line, d.col));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unparsed_fn_denies_in_gated_crates_warns_elsewhere() {
        // A genuinely unparseable body: stray closing brace imbalance is
        // resynced, so use an exotic construct instead.
        let src = "fn f() {\n    let x = yield 3;\n}\n";
        let gated = analyze_file("crates/net/src/x.rs", src);
        let free = analyze_file("crates/tasq/src/x.rs", src);
        assert_eq!(gated.functions_unparsed, 1);
        assert_eq!(gated.diagnostics.len(), 1);
        assert_eq!(gated.diagnostics[0].severity, Severity::Deny);
        assert_eq!(free.diagnostics[0].severity, Severity::Warn);
    }
}
