//! End-to-end networked serving through the real `tasq-cli` binary.
//!
//! These tests spawn the compiled CLI (via `CARGO_BIN_EXE_tasq-cli`): a
//! `serve --listen 127.0.0.1:0` server process discovered through its
//! `listening on <addr>` handshake, driven by `netgen` client processes
//! over both wire framings, then drained over the wire.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use tasq_net::HttpClient;
use tasq_obs::json::{self, JsonValue};

const EXE: &str = env!("CARGO_BIN_EXE_tasq-cli");

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tasq-netcli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> String {
    let out = Command::new(EXE).args(args).output().expect("spawn tasq-cli");
    assert!(
        out.status.success(),
        "tasq-cli {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn generate_workload(dir: &std::path::Path) -> String {
    let path = dir.join("workload.bin");
    let path = path.to_str().expect("utf8 path").to_string();
    run(&["generate", "--out", &path, "--jobs", "24", "--seed", "7"]);
    path
}

/// Spawn `serve --listen 127.0.0.1:0` (plus `extra` args) and read the
/// handshake line.
fn spawn_server_with(workload: &str, extra: &[&str]) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(EXE)
        .args([
            "serve", "--workload", workload, "--listen", "127.0.0.1:0", "--workers", "2",
            "--shards", "2",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --listen");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read handshake");
        assert!(n > 0, "server exited before handshake");
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (child, reader, addr)
}

fn spawn_server(workload: &str) -> (Child, BufReader<ChildStdout>, String) {
    spawn_server_with(workload, &[])
}

/// Every non-zero 32-hex trace id in a Chrome trace document (the
/// `"trace":"<32 hex>"` span args written by `FieldValue::TraceId`).
fn trace_ids(doc: &str) -> std::collections::BTreeSet<String> {
    let mut ids = std::collections::BTreeSet::new();
    let mut rest = doc;
    while let Some(at) = rest.find("\"trace\":\"") {
        rest = &rest[at + "\"trace\":\"".len()..];
        let candidate: String = rest.chars().take(32).collect();
        if candidate.len() == 32
            && candidate.chars().all(|c| c.is_ascii_hexdigit())
            && candidate.chars().any(|c| c != '0')
        {
            ids.insert(candidate);
        }
    }
    ids
}

fn parse_report(stdout: &str) -> JsonValue {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in output:\n{stdout}"));
    json::parse(line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"))
}

fn f64_field(value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {value:?}"))
}

#[test]
fn serve_listen_netgen_both_framings_and_drain() {
    let dir = scratch_dir("e2e");
    let workload = generate_workload(&dir);
    let (mut server, mut reader, addr) = spawn_server(&workload);

    for mode in ["binary", "http"] {
        let stdout = run(&[
            "netgen", "--addr", &addr, "--workload", &workload, "--requests", "30", "--mode",
            mode, "--connections", "2", "--seed", "3",
        ]);
        let report = parse_report(&stdout);
        assert_eq!(report.get("mode").and_then(JsonValue::as_str), Some(mode));
        let ok = f64_field(&report, "ok");
        let rejected = f64_field(&report, "rejected");
        assert_eq!(ok + rejected, 30.0, "every request must resolve ({stdout})");
        assert!(ok > 0.0, "server under no load must answer most requests ({stdout})");
        assert!(f64_field(&report, "p99_us") >= f64_field(&report, "p50_us"));
        assert!(f64_field(&report, "achieved_rps") > 0.0);
    }

    // Drain over the wire; the server prints its final stats JSON and exits 0.
    let mut control = HttpClient::connect(&addr).expect("connect control");
    control.set_timeout(Duration::from_secs(30)).expect("timeout");
    let ack = control.request("POST", "/drain", b"").expect("drain");
    assert_eq!(ack.status, 200);

    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read server stdout");
    let status = server.wait().expect("wait server");
    assert!(status.success(), "server exited {status}, stdout:\n{rest}");
    let stats = parse_report(&rest);
    let submitted = f64_field(&stats, "submitted");
    let resolved = f64_field(&stats, "resolved");
    assert!(submitted >= 60.0, "both netgen runs must reach the server ({rest})");
    assert_eq!(submitted, resolved, "drain must account for every request ({rest})");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_process_traces_share_a_trace_id() {
    let dir = scratch_dir("trace");
    let workload = generate_workload(&dir);
    let server_trace = dir.join("server_trace.json");
    let server_trace = server_trace.to_str().expect("utf8 path").to_string();
    let (mut server, mut reader, addr) =
        spawn_server_with(&workload, &["--trace-out", &server_trace]);

    // One traced netgen run per framing: the binary frame preamble and
    // the HTTP `traceparent` header both carry the context.
    let mut client_ids_by_mode = Vec::new();
    for mode in ["binary", "http"] {
        let client_trace = dir.join(format!("client_trace_{mode}.json"));
        let client_trace = client_trace.to_str().expect("utf8 path").to_string();
        let stdout = run(&[
            "netgen", "--trace-out", &client_trace, "--addr", &addr, "--workload", &workload,
            "--requests", "5", "--mode", mode, "--seed", "11",
        ]);
        let report = parse_report(&stdout);
        assert_eq!(f64_field(&report, "traced"), 5.0, "every request minted a context");
        assert_eq!(f64_field(&report, "ok"), 5.0);
        let doc = std::fs::read_to_string(&client_trace).expect("client trace written");
        tasq_obs::validate_chrome_trace(&doc).expect("client trace is valid Chrome JSON");
        let ids = trace_ids(&doc);
        assert!(!ids.is_empty(), "client spans must carry trace ids:\n{doc}");
        client_ids_by_mode.push((mode, ids));
    }

    // Drain; the server exports its trace on exit.
    let mut control = HttpClient::connect(&addr).expect("connect control");
    control.set_timeout(Duration::from_secs(30)).expect("timeout");
    let slowest = control.request("GET", "/debug/slowest", b"").expect("slowest");
    assert_eq!(slowest.status, 200);
    let parsed = json::parse(&String::from_utf8_lossy(&slowest.body)).expect("slowest json");
    let entries = parsed
        .get("slowest")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("missing slowest array"));
    assert!(!entries.is_empty(), "/debug/slowest must retain the traced traffic");
    let slo = control.request("GET", "/slo", b"").expect("slo");
    assert_eq!(slo.status, 200);
    let ack = control.request("POST", "/drain", b"").expect("drain");
    assert_eq!(ack.status, 200);
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read server stdout");
    assert!(server.wait().expect("wait server").success());

    let server_doc = std::fs::read_to_string(&server_trace).expect("server trace written");
    tasq_obs::validate_chrome_trace(&server_doc).expect("server trace is valid Chrome JSON");
    let server_ids = trace_ids(&server_doc);
    // The acceptance check: each client's minted trace ids reappear in
    // the server's exported spans, so one request forms one causally
    // linked cross-process trace.
    for (mode, client_ids) in &client_ids_by_mode {
        let shared: Vec<_> = client_ids.intersection(&server_ids).collect();
        assert!(
            !shared.is_empty(),
            "{mode}: no trace id shared between client {client_ids:?} and server \
             {server_ids:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
