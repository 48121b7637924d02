//! Diagnostic rendering: human text and machine JSON.
//!
//! The JSON report is a [`JsonValue`] printed pretty (`{:#}`, see
//! [`tasq_obs::json`]), a stable shape CI greps and uploads as an
//! artifact:
//!
//! ```json
//! {
//!   "schema": 3,
//!   "ok": true,
//!   "files_scanned": 120,
//!   "functions_parsed": 840,
//!   "functions_unparsed": 0,
//!   "lock_edges": 1,
//!   "diagnostics": [
//!     {
//!       "rule": "lock-order",
//!       "severity": "deny",
//!       "path": "crates/x/src/a.rs",
//!       "line": 10,
//!       "col": 5,
//!       "message": "cyclic lock acquisition order …"
//!     }
//!   ]
//! }
//! ```
//!
//! Schema history: v1 lacked `schema`, `functions_parsed`,
//! `functions_unparsed`, and `passes`; v2 added them with the dataflow
//! passes; v3 dropped `passes`, `jobs_validated`, `curves_audited` and
//! `hb_events` when the analyzer came to read source only.

use crate::CheckReport;
use std::fmt::Write as _;
use tasq_obs::json::JsonValue;

/// Render the report as indented JSON.
pub fn to_json(report: &CheckReport) -> String {
    let diagnostics = report.diagnostics.iter().map(|d| {
        JsonValue::object([
            ("rule", d.rule.as_str().into()),
            ("severity", d.severity.to_string().into()),
            ("path", d.path.as_str().into()),
            ("line", d.line.into()),
            ("col", d.col.into()),
            ("message", d.message.as_str().into()),
        ])
    });
    let json = JsonValue::object([
        ("schema", 3u64.into()),
        ("ok", report.ok().into()),
        ("files_scanned", report.files_scanned.into()),
        ("functions_parsed", report.functions_parsed.into()),
        ("functions_unparsed", report.functions_unparsed.into()),
        ("lock_edges", report.lock_edges.into()),
        ("diagnostics", JsonValue::Array(diagnostics.collect())),
    ]);
    format!("{json:#}\n")
}

/// Render the report as human-readable text.
pub fn to_human(report: &CheckReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let _ = writeln!(
        out,
        "tasq-analyze: {} files, {} fns parsed ({} unparsed), {} lock edges: {}",
        report.files_scanned,
        report.functions_parsed,
        report.functions_unparsed,
        report.lock_edges,
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
    fn json_reports_schema_3_with_parse_coverage() {
        let report = CheckReport {
            functions_parsed: 12,
            functions_unparsed: 1,
            lock_edges: 1,
            ..Default::default()
        };
        let json = to_json(&report);
        assert!(json.contains("\"schema\": 3"), "{json}");
        assert!(json.contains("\"functions_parsed\": 12"), "{json}");
        assert!(json.contains("\"functions_unparsed\": 1"), "{json}");
        assert!(json.contains("\"lock_edges\": 1"), "{json}");
        for gone in ["passes", "jobs_validated", "curves_audited", "hb_events"] {
            assert!(!json.contains(gone), "{gone} is still in {json}");
        }
    }

    #[test]
    fn human_summary_reports_ok() {
        let report = CheckReport { files_scanned: 5, ..Default::default() };
        let text = to_human(&report);
        assert!(text.contains("OK"), "{text}");
    }
}
