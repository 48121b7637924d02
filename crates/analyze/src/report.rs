//! Diagnostic rendering: human text and machine JSON.
//!
//! The JSON writer is hand-rolled (the crate is intentionally
//! dependency-light) and emits a stable shape CI consumes as an artifact:
//!
//! ```json
//! {
//!   "schema": 2,
//!   "ok": true,
//!   "files_scanned": 120,
//!   "functions_parsed": 840,
//!   "functions_unparsed": 0,
//!   "passes": ["resource-leak", "unsafe-boundary", "lock-discipline"],
//!   "lock_edges": 1,
//!   "jobs_validated": 32,
//!   "curves_audited": 4,
//!   "hb_events": 2048,
//!   "diagnostics": [
//!     {"rule": "lock-order", "severity": "deny", "path": "crates/x/src/a.rs",
//!      "line": 10, "col": 5, "message": "cyclic lock acquisition order …"}
//!   ]
//! }
//! ```
//!
//! Schema history: v1 lacked `schema`, `functions_parsed`,
//! `functions_unparsed`, and `passes`; v2 added them with the dataflow
//! passes.

use crate::CheckReport;
use std::fmt::Write as _;

/// Render the report as indented JSON.
pub fn to_json(report: &CheckReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    let _ = writeln!(out, "  \"ok\": {},", report.ok());
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"functions_parsed\": {},", report.functions_parsed);
    let _ = writeln!(out, "  \"functions_unparsed\": {},", report.functions_unparsed);
    let passes: Vec<String> = report.passes.iter().map(|p| json_string(p)).collect();
    let _ = writeln!(out, "  \"passes\": [{}],", passes.join(", "));
    let _ = writeln!(out, "  \"lock_edges\": {},", report.lock_edges);
    let _ = writeln!(out, "  \"jobs_validated\": {},", report.jobs_validated);
    let _ = writeln!(out, "  \"curves_audited\": {},", report.curves_audited);
    let _ = writeln!(out, "  \"hb_events\": {},", report.hb_events);
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
             \"message\": {}",
            json_string(&d.rule),
            json_string(&d.severity.to_string()),
            json_string(&d.path),
            d.line,
            d.col,
            json_string(&d.message)
        );
        out.push('}');
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render the report as human-readable text.
pub fn to_human(report: &CheckReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "tasq-analyze: {} files, {} fns parsed ({} unparsed), {} lock edges, \
         {} jobs validated, {} curves audited, {} sync events replayed: {}",
        report.files_scanned,
        report.functions_parsed,
        report.functions_unparsed,
        report.lock_edges,
        report.jobs_validated,
        report.curves_audited,
        report.hb_events,
        if report.ok() {
            "OK".to_string()
        } else {
            format!(
                "{} deny finding(s)",
                report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == crate::Severity::Deny)
                    .count()
            )
        }
    );
    out
}

/// JSON string literal with the required escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagnostic, Severity};

    #[test]
    fn json_escapes_and_shape() {
        let mut report = CheckReport { files_scanned: 2, ..Default::default() };
        report.diagnostics.push(Diagnostic {
            rule: "no-panic".into(),
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            message: "say \"no\" to\npanics".into(),
        });
        let json = to_json(&report);
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\\\"no\\\" to\\npanics"));
        assert!(json.contains("\"line\": 3"));
    }

    #[test]
    fn json_reports_schema_2_with_pass_inventory() {
        let report = CheckReport {
            functions_parsed: 12,
            functions_unparsed: 1,
            passes: vec!["resource-leak".into(), "lock-discipline".into()],
            ..Default::default()
        };
        let json = to_json(&report);
        assert!(json.contains("\"schema\": 2"), "{json}");
        assert!(json.contains("\"functions_parsed\": 12"), "{json}");
        assert!(json.contains("\"functions_unparsed\": 1"), "{json}");
        assert!(json.contains("\"passes\": [\"resource-leak\", \"lock-discipline\"]"), "{json}");
    }

    #[test]
    fn human_summary_reports_ok() {
        let report = CheckReport { files_scanned: 5, ..Default::default() };
        let text = to_human(&report);
        assert!(text.contains("OK"), "{text}");
    }
}
