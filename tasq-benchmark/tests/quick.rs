//! Drives the `tasq-benchmark` binary the way the driver does, on every
//! workload, in `--quick` mode: the result object has exactly the names
//! `BENCHMARK.json` registers, and the correctness checks really ran.

use std::path::PathBuf;
use std::process::Command;
use tasq_benchmark::spec;
use tasq_benchmark::stats::Better;
use tasq_benchmark::sut::json::{self, JsonValue};
use tasq_benchmark::sut::validate_chrome_trace;

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string {key}"))
}

/// `(name, unit, better)` of a metric list in `BENCHMARK.json`.
fn registered(list: &str) -> Vec<(String, String, Better)> {
    let doc = benchmark_json();
    let metrics = doc
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let better = if text(m, "better") == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                better,
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Run the binary; its exit code and the result object on the last line.
fn run(args: &[&str]) -> (i32, JsonValue, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_tasq-benchmark"))
        .args(args)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    (output.status.code().unwrap_or(-1), result, stdout)
}

/// The metrics of a result object as `(name, value, unit)`, after checking
/// the object's shape.
fn metrics_of(result: &JsonValue) -> Vec<(String, f64, String)> {
    let keys: Vec<&str> = result
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .expect("attempted")
            >= 1.0
    );
    result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            (name.clone(), value, text(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_registers_what_the_binary_reports() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);
    for (list, table) in [
        ("end_to_end", &spec::END_TO_END[..]),
        ("per_layer", spec::PER_LAYER),
    ] {
        let registered = registered(list);
        assert!(registered.iter().all(|(name, _, _)| well_formed(name)));
        let table: Vec<(String, String, Better)> = table
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b))
            .collect();
        assert_eq!(registered, table, "{list} differs from spec.rs");
    }
    let paths = doc
        .get("paths")
        .and_then(JsonValue::as_array)
        .expect("paths");
    assert_eq!(
        paths
            .iter()
            .filter_map(JsonValue::as_str)
            .collect::<Vec<_>>(),
        ["tasq-benchmark"]
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = registered("end_to_end");
    for workload in spec::WORKLOADS {
        let (code, result, stdout) = run(&[
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ]);
        assert_eq!(code, 0, "{stdout}");
        let metrics = metrics_of(&result);
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            expected.iter().map(|e| e.0.as_str()).collect::<Vec<_>>(),
            "{workload}"
        );
        for ((name, value, unit), (_, registered_unit, _)) in metrics.iter().zip(&expected) {
            assert_eq!(unit, registered_unit, "{workload} {name}");
            assert!(
                *value > 0.0,
                "{workload} {name} is {value}: end-to-end metrics are never 0"
            );
            // Printed by name with its unit, one per line.
            assert!(
                stdout.contains(&format!("{workload} {name} {value} {unit}")),
                "{stdout}"
            );
        }
        // The checks ran on a sample that is not empty.
        assert!(stdout.contains("# checks: "), "{stdout}");
        assert!(!stdout.contains("checks: 0 answers"), "{stdout}");
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_a_valid_trace() {
    let expected = registered("per_layer");
    for workload in spec::WORKLOADS {
        let (code, result, stdout) = run(&[
            "--workload",
            workload,
            "--seed",
            "6",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--quick",
        ]);
        assert_eq!(code, 0, "{stdout}");
        let metrics = metrics_of(&result);
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            expected.iter().map(|e| e.0.as_str()).collect::<Vec<_>>(),
            "{workload}"
        );
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.1)
                .expect("registered")
        };
        assert!(
            value("bench.spans") > 0.0
                && value("core.score.nn_ns") > 0.0
                && value("machine.ref_kops") > 0.0
        );
        let ratio = value("train.phase_sum_ratio");
        assert!(
            (0.9..=1.05).contains(&ratio),
            "{workload}: phases do not add up to the pass: {ratio}"
        );
        if workload == "train_offline" {
            assert_eq!(value("serve.cache.hit_share"), 0.0);
        } else {
            assert!(
                value("bench.oracle_checks") > 0.0,
                "{workload}: oracle comparison did not run"
            );
            assert!(value("serve.hop.pingpong_us_p50") > 0.0);
            assert!(stdout.contains("layer budget of one request"), "{stdout}");
        }
        if workload == "serve_adhoc" {
            assert_eq!(
                value("serve.cache.hit_share"),
                0.0,
                "ad-hoc traffic must never hit"
            );
        }
        if workload == "net_recurring" {
            assert!(value("net.syscalls_per_req") > 0.0 && value("net.binary.rtt_us_p50") > 0.0);
            assert!(value("net.fastpath_share") > 0.0);
        }
        let trace =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        let document = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(validate_chrome_trace(&document).expect("valid Chrome trace") > 2);
    }
}

#[test]
fn a_full_run_saves_results_that_compare_with_themselves() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("full.json");
    let status = Command::new(env!("CARGO_BIN_EXE_tasq-benchmark"))
        .args(["run", "--seed", "7", "--seconds", "1", "--quick", "--out"])
        .arg(&out)
        .status()
        .expect("binary runs");
    assert!(status.success());
    let saved = std::fs::read_to_string(&out).expect("results file");
    let doc = json::parse(&saved).expect("results file is JSON");
    let runs = doc.get("runs").and_then(JsonValue::as_array).expect("runs");
    assert_eq!(
        runs.iter().map(|r| text(r, "workload")).collect::<Vec<_>>(),
        spec::WORKLOADS
    );
    assert!(
        doc.get("machine")
            .and_then(|m| m.get("nproc"))
            .and_then(JsonValue::as_f64)
            .expect("nproc")
            >= 1.0
    );

    let spec_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let compare = Command::new(env!("CARGO_BIN_EXE_tasq-benchmark"))
        .arg("compare")
        .args([&out, &out])
        .arg("--spec")
        .arg(&spec_path)
        .output()
        .expect("binary runs");
    let report = String::from_utf8(compare.stdout).expect("utf-8");
    assert!(compare.status.success(), "{report}");
    assert_eq!(
        report.lines().count(),
        spec::WORKLOADS.len() * spec::END_TO_END.len(),
        "{report}"
    );
    assert!(
        report.lines().all(|line| line.contains(" within ")),
        "{report}"
    );

    // A run that cannot start says why and prints no result.
    let bad = Command::new(env!("CARGO_BIN_EXE_tasq-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output();
    let bad = bad.expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
