//! Fixture-driven tests of the parser → CFG → dataflow pipeline: planted
//! defects must be flagged at exact `line:col` spans, clean code must
//! stay silent, and the parser must fully cover the crates whose unsafe
//! and fd handling the passes gate (`crates/net`, `crates/par`).

use std::path::Path;
use tasq_analyze::passes::{analyze_file, PASS_NAMES};
use tasq_analyze::{report, run_check, CheckOptions, Severity};

/// Analyze a fixture as if it lived at `path`, returning
/// `(rule, line, col, message)` per finding.
fn findings(path: &str, source: &str) -> Vec<(String, usize, usize, String)> {
    let out = analyze_file(path, source, &PASS_NAMES);
    assert_eq!(out.functions_unparsed, 0, "fixture must parse fully");
    out.diagnostics.into_iter().map(|d| (d.rule, d.line, d.col, d.message)).collect()
}

#[test]
fn planted_defects_are_flagged_at_exact_spans() {
    let src = include_str!("fixtures/dataflow_positive.rs");
    let found = findings("crates/serve/src/fixture.rs", src);
    let spans: Vec<(&str, usize, usize)> =
        found.iter().map(|(r, l, c, _)| (r.as_str(), *l, *c)).collect();
    assert_eq!(
        spans,
        vec![
            ("resource-leak", 8, 5),
            ("resource-leak", 17, 5),
            ("unsafe-boundary", 23, 5),
            ("lock-discipline", 28, 22),
            // The condvar wait on line 36 releases `g` while blocked; the
            // receive after it does not.
            ("lock-discipline", 38, 16),
        ],
        "{found:#?}"
    );
    assert!(found[0].3.contains("fd `ep`") && found[0].3.contains("error path"), "{found:#?}");
    assert!(found[1].3.contains("double close"), "{found:#?}");
    assert!(found[2].3.contains("outside the audited boundary"), "{found:#?}");
    assert!(found[3].3.contains("guard `g`") && found[3].3.contains("sys::read"), "{found:#?}");
    assert!(found[4].3.contains("guard `g`") && found[4].3.contains(".recv()"), "{found:#?}");
}

#[test]
fn clean_code_produces_no_findings() {
    let src = include_str!("fixtures/dataflow_negative.rs");
    // Analyzed under an allowlisted path so the SAFETY-commented unsafe
    // is inside the audited boundary.
    let found = findings("crates/net/src/sys.rs", src);
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn missing_safety_comment_is_flagged_even_inside_the_boundary() {
    let src = "pub fn f(b: &[u8]) -> u8 {\n    let p = b.as_ptr();\n    unsafe { *p }\n}\n";
    let found = findings("crates/net/src/sys.rs", src);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!((found[0].1, found[0].2), (3, 5));
    assert!(found[0].3.contains("SAFETY"), "{found:#?}");
}

/// The parser must handle every non-test function in the crates whose
/// coverage the gate denies on — otherwise the dataflow passes silently
/// skip the exact code they exist to audit.
#[test]
fn parser_fully_covers_the_gated_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
    for krate in ["net", "par"] {
        let src_dir = root.join(krate).join("src");
        let mut parsed = 0usize;
        for entry in std::fs::read_dir(&src_dir).expect("src dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("source");
            let rel = format!("crates/{krate}/src/{}", path.file_name().unwrap().to_string_lossy());
            let out = analyze_file(&rel, &source, &PASS_NAMES);
            assert_eq!(out.functions_unparsed, 0, "{rel}: {:#?}", out.diagnostics);
            parsed += out.functions_parsed;
        }
        assert!(parsed > 10, "only {parsed} functions parsed under {}", src_dir.display());
    }
}

/// End-to-end through `run_check` and both renderers: a planted leak in
/// a scratch workspace shows up with its `path:line:col` span in the
/// human report and as structured fields in the JSON report.
#[test]
fn reports_render_exact_spans_in_human_and_json() {
    let root = std::env::temp_dir().join(format!("tasq-analyze-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/net/src");
    std::fs::create_dir_all(&src_dir).expect("scratch workspace");
    std::fs::write(
        src_dir.join("leaky.rs"),
        "pub fn acquire() -> io::Result<i32> {\n    let fd = sys::socket()?;\n    let ep = sys::epoll_create1()?;\n    sys::close(ep);\n    Ok(fd)\n}\n",
    )
    .expect("fixture source");

    let check = run_check(&CheckOptions {
        root: root.clone(),
        static_only: true,
        pass: Some("resource-leak".to_string()),
    })
    .expect("check runs");
    std::fs::remove_dir_all(&root).ok();

    assert!(!check.ok());
    assert_eq!(check.functions_parsed, 1);
    assert_eq!(check.diagnostics.len(), 1, "{:#?}", check.diagnostics);
    let d = &check.diagnostics[0];
    assert_eq!(d.severity, Severity::Deny);
    // `let ep = …?;` on line 3 leaks `fd` (line 2) down the error edge.
    assert_eq!((d.path.as_str(), d.line, d.col), ("crates/net/src/leaky.rs", 3, 5));

    let human = report::to_human(&check);
    assert!(
        human.contains("deny: crates/net/src/leaky.rs:3:5: [resource-leak]"),
        "human report missing the span:\n{human}"
    );
    let json = report::to_json(&check);
    assert!(json.contains("\"schema\": 2"), "{json}");
    assert!(json.contains("\"passes\": [\"resource-leak\"]"), "{json}");
    assert!(
        json.contains("\"rule\": \"resource-leak\"")
            && json.contains("\"line\": 3")
            && json.contains("\"col\": 5"),
        "json report missing the span:\n{json}"
    );
}

/// An unknown pass name must be a hard error, not a silent no-op run.
#[test]
fn unknown_pass_name_is_rejected() {
    let err = run_check(&CheckOptions {
        root: std::path::PathBuf::from("does-not-matter"),
        static_only: true,
        pass: Some("resource-laek".to_string()),
    })
    .expect_err("typo'd pass must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("resource-leak"), "{err}");
}

/// Regression gate for the real workspace: the three dataflow passes,
/// the lints, and the lock-order audit must all be clean over the tree
/// as committed — every remaining `unsafe`, guard scope, and fd path is
/// either correct or carries a justified inline waiver.
#[test]
fn committed_workspace_is_clean_under_every_static_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let check =
        run_check(&CheckOptions { root, static_only: true, pass: None }).expect("check runs");
    let denies: Vec<_> =
        check.diagnostics.iter().filter(|d| d.severity == Severity::Deny).collect();
    assert!(denies.is_empty(), "{denies:#?}");
    assert_eq!(check.functions_unparsed, 0, "parser coverage regressed");
    assert_eq!(check.passes, PASS_NAMES.to_vec());
}
