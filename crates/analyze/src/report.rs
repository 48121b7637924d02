//! Diagnostic rendering: human text and machine JSON.
//!
//! The JSON report is a [`JsonValue`] printed pretty (`{:#}`, see
//! [`tasq_obs::json`]), a stable shape CI greps and uploads as an
//! artifact:
//!
//! ```json
//! {
//!   "schema": 2,
//!   "ok": true,
//!   "files_scanned": 120,
//!   "functions_parsed": 840,
//!   "functions_unparsed": 0,
//!   "passes": ["unsafe-boundary", "lock-discipline"],
//!   "lock_edges": 1,
//!   "jobs_validated": 32,
//!   "curves_audited": 4,
//!   "hb_events": 2048,
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
//! passes.

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
        ("schema", 2u64.into()),
        ("ok", report.ok().into()),
        ("files_scanned", report.files_scanned.into()),
        ("functions_parsed", report.functions_parsed.into()),
        ("functions_unparsed", report.functions_unparsed.into()),
        ("passes", report.passes.clone().into()),
        ("lock_edges", report.lock_edges.into()),
        ("jobs_validated", report.jobs_validated.into()),
        ("curves_audited", report.curves_audited.into()),
        ("hb_events", report.hb_events.into()),
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
            passes: vec!["unsafe-boundary".into(), "lock-discipline".into()],
            ..Default::default()
        };
        let json = to_json(&report);
        assert!(json.contains("\"schema\": 2"), "{json}");
        assert!(json.contains("\"functions_parsed\": 12"), "{json}");
        assert!(json.contains("\"functions_unparsed\": 1"), "{json}");
        assert!(json.contains("\"passes\": [\"unsafe-boundary\", \"lock-discipline\"]"), "{json}");
    }

    #[test]
    fn human_summary_reports_ok() {
        let report = CheckReport { files_scanned: 5, ..Default::default() };
        let text = to_human(&report);
        assert!(text.contains("OK"), "{text}");
    }
}
