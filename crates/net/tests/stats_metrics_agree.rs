//! `/stats` and `/metrics` read one set of counts.
//!
//! Exactly one test lives in this file: `/metrics` renders the
//! process-global registry, so the server under test must be the only one
//! in its process for the two documents to describe the same requests.

#![allow(clippy::expect_used, clippy::panic)]

mod common;

use common::{jobs, read_scores, registry};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use tasq_net::{frame, HttpClient, NetConfig, NetServer, ScoreOutcome};
use tasq_obs::json::{self, JsonValue};
use tasq_serve::{ScoringServer, ServeConfig};

/// The value of the unlabelled series `name` in a Prometheus exposition.
fn series(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in /metrics:\n{text}"))
}

#[test]
fn stats_and_metrics_agree_on_a_mixed_stream() {
    let scoring = ScoringServer::start(registry(), ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", NetConfig { shards: 2, ..Default::default() }, scoring)
        .expect("net server binds");
    let addr = net.local_addr().to_string();

    // Misses and hits over pipelined binary frames, more hits and
    // refusals over HTTP, on two connections that may land on different
    // shards.
    let population = jobs(10, 7301);
    let mut binary = TcpStream::connect(&addr).expect("connects");
    binary.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut wire = vec![tasq_net::BINARY_PREAMBLE];
    for job in population.iter().cycle().take(40) {
        frame::write_request_frame(&mut wire, &tasq::codec::to_bytes(job).expect("encode"));
    }
    binary.write_all(&wire).expect("send");
    assert_eq!(read_scores(&mut binary, 40).len(), 40);
    let mut http = HttpClient::connect(&addr).expect("connects");
    http.set_timeout(Duration::from_secs(30)).expect("timeout");
    for job in &population[..5] {
        assert!(matches!(http.score(job).expect("round trip"), ScoreOutcome::Ok(_)));
    }
    let mut unstageable = population[0].clone();
    unstageable.plan.operators.clear();
    unstageable.plan.edges.clear();
    for _ in 0..3 {
        let outcome = http.score(&unstageable).expect("a refusal is still a response");
        assert!(matches!(outcome, ScoreOutcome::Rejected(400)));
    }

    let stats = http.request("GET", "/stats", b"").expect("stats");
    let stats = json::parse(&String::from_utf8_lossy(&stats.body)).expect("stats json");
    let stat = |key: &str| stats.get(key).and_then(JsonValue::as_f64).expect(key) as u64;
    let metrics = http.request("GET", "/metrics", b"").expect("metrics");
    let metrics = String::from_utf8_lossy(&metrics.body).into_owned();

    assert_eq!(stat("submitted"), 48);
    assert_eq!(stat("rejected"), 3);
    assert_eq!(stat("cache_hits"), 35, "every repeat of the ten plans hits");
    for (key, name) in [
        ("submitted", "serve_submitted_total"),
        ("completed", "serve_completed_total"),
        ("cache_hits", "serve_cache_hits_total"),
        ("rejected", "serve_rejected_total"),
        ("completed", "serve_latency_us_count"),
    ] {
        assert_eq!(stat(key), series(&metrics, name), "/stats {key} against /metrics {name}");
    }
    let drained = net.shutdown();
    assert_eq!(drained.submitted, drained.resolved());
}
