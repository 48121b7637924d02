//! Fixture-driven tests of the parser → CFG → dataflow pipeline: planted
//! defects must be flagged at exact `line:col` spans, clean code must
//! stay silent, and the parser must fully cover the crates whose lock
//! handling the pass gates (`crates/net`, `crates/par`).

use std::path::Path;
use tasq_analyze::passes::analyze_file;
use tasq_analyze::{report, run_check, Severity};

/// Analyze a fixture as if it lived at `path`, returning
/// `(rule, line, col, message)` per finding.
fn findings(path: &str, source: &str) -> Vec<(String, usize, usize, String)> {
    let out = analyze_file(path, source);
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
            ("lock-discipline", 8, 22),
            // The condvar wait on line 16 releases `g` while blocked; the
            // receive after it does not.
            ("lock-discipline", 18, 16),
        ],
        "{found:#?}"
    );
    assert!(found[0].3.contains("guard `g`") && found[0].3.contains("sys::read"), "{found:#?}");
    assert!(found[1].3.contains("guard `g`") && found[1].3.contains(".recv()"), "{found:#?}");
}

#[test]
fn clean_code_produces_no_findings() {
    let src = include_str!("fixtures/dataflow_negative.rs");
    let found = findings("crates/serve/src/fixture.rs", src);
    assert!(found.is_empty(), "{found:#?}");
}

/// The parser must handle every non-test function in the crates whose
/// coverage the gate denies on — otherwise the dataflow pass silently
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
            let out = analyze_file(&rel, &source);
            assert_eq!(out.functions_unparsed, 0, "{rel}: {:#?}", out.diagnostics);
            parsed += out.functions_parsed;
        }
        assert!(parsed > 10, "only {parsed} functions parsed under {}", src_dir.display());
    }
}

/// End-to-end through `run_check` and both renderers: a guard held
/// across `sys::read` in a scratch workspace shows up with its
/// `path:line:col` span in the human report and as structured fields in
/// the JSON report.
#[test]
fn reports_render_exact_spans_in_human_and_json() {
    let root = std::env::temp_dir().join(format!("tasq-analyze-fixture-{}", std::process::id()));
    let src_dir = root.join("crates/net/src");
    std::fs::create_dir_all(&src_dir).expect("scratch workspace");
    std::fs::write(
        src_dir.join("held.rs"),
        "pub fn held(m: &Mutex<u32>, fd: i32, buf: &mut [u8]) -> io::Result<usize> {\n    \
         let g = m.lock();\n    let n = sys::read(fd, buf)?;\n    drop(g);\n    Ok(n)\n}\n",
    )
    .expect("fixture source");

    let check = run_check(&root).expect("check runs");
    std::fs::remove_dir_all(&root).ok();

    assert!(!check.ok());
    assert_eq!(check.functions_parsed, 1);
    assert_eq!(check.diagnostics.len(), 1, "{:#?}", check.diagnostics);
    let d = &check.diagnostics[0];
    assert_eq!(d.severity, Severity::Deny);
    // `sys::read` on line 3 blocks while `g` from line 2 is held.
    assert_eq!((d.path.as_str(), d.line, d.col), ("crates/net/src/held.rs", 3, 22));

    let human = report::to_human(&check);
    assert!(
        human.contains("deny: crates/net/src/held.rs:3:22: [lock-discipline]"),
        "human report missing the span:\n{human}"
    );
    let json = report::to_json(&check);
    assert!(json.contains("\"schema\": 3"), "{json}");
    assert!(
        json.contains("\"rule\": \"lock-discipline\"")
            && json.contains("\"line\": 3")
            && json.contains("\"col\": 22"),
        "json report missing the span:\n{json}"
    );
}

/// Regression gate for the real workspace: the lock-discipline pass and
/// the lock-order audit must be clean over the tree as committed — every
/// guard scope is correct. The audit must also see the registry's one
/// nested acquisition, so it cannot go blind silently.
#[test]
fn committed_workspace_is_clean_under_every_static_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let check = run_check(root).expect("check runs");
    let denies: Vec<_> =
        check.diagnostics.iter().filter(|d| d.severity == Severity::Deny).collect();
    assert!(denies.is_empty(), "{denies:#?}");
    assert_eq!(check.functions_unparsed, 0, "parser coverage regressed");
    assert!(check.lock_edges >= 1, "the lock-order audit saw no nested acquisition");
}
