//! The syscall budget of the serving hot path, as a gate.
//!
//! Exactly one test lives in this file: `tasq_net::syscall_counters()` is
//! process-global, so the measured window must not share a process with
//! any other server (`wire.rs` runs its tests concurrently).

#![allow(clippy::expect_used, clippy::panic)]

mod common;

use common::{jobs, read_scores, registry};
use scope_sim::{replay_traffic, TrafficConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use tasq_net::frame;
use tasq_net::{NetConfig, NetServer};
use tasq_serve::{ScoringServer, ServeConfig};

/// Frames written whole before any answer is read.
const DEPTH: usize = 32;

/// Write `burst` in one piece, then read until every frame is answered,
/// asserting the answers come back in request order.
fn exchange(stream: &mut TcpStream, burst: &[(u64, Vec<u8>)]) {
    let wire: Vec<u8> = burst.iter().flat_map(|(_, frame)| frame.iter().copied()).collect();
    stream.write_all(&wire).expect("send");
    let answered: Vec<u64> = read_scores(stream, burst.len()).iter().map(|s| s.job_id).collect();
    let sent: Vec<u64> = burst.iter().map(|(id, _)| *id).collect();
    assert_eq!(answered, sent, "responses out of request order");
}

#[test]
fn pipelined_recurring_traffic_costs_under_three_syscalls_per_request() {
    if !tasq_net::sys::supported() {
        return;
    }
    let scoring = ScoringServer::start(registry(), ServeConfig { workers: 1, ..Default::default() });
    let net = NetServer::bind("127.0.0.1:0", NetConfig { shards: 1, ..Default::default() }, scoring)
        .expect("net server binds");

    // Pre-encoded so the measured window holds only the exchange.
    let traffic = replay_traffic(
        &jobs(20, 7020),
        &TrafficConfig { requests: 20 * DEPTH + 1, repeat_fraction: 0.9, seed: 7021 },
    );
    let frames: Vec<(u64, Vec<u8>)> = traffic
        .iter()
        .map(|job| {
            let mut wire = Vec::new();
            frame::write_request_frame(&mut wire, &tasq::codec::to_bytes(job).expect("encode"));
            (job.id, wire)
        })
        .collect();

    let mut stream = TcpStream::connect(net.local_addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(&[tasq_net::BINARY_PREAMBLE]).expect("preamble");
    // One warm-up exchange puts accept and the preamble read outside the
    // window. Only the server's event loop issues counted syscalls — the
    // client above goes through std — so the delta is its kernel crossings.
    let (warmup, measured) = frames.split_at(1);
    exchange(&mut stream, warmup);

    let counters = tasq_net::syscall_counters();
    let before = counters.total();
    for burst in measured.chunks(DEPTH) {
        exchange(&mut stream, burst);
    }
    let per_request = (counters.total() - before) as f64 / measured.len() as f64;
    drop(stream);

    let stats = net.shutdown();
    assert!(per_request < 3.0, "{per_request:.2} syscalls per request on the pipelined hot path");
    assert!(stats.cache_hits >= 1, "recurring plans must hit the inline cache path: {stats:?}");
    assert_eq!(stats.submitted, stats.resolved(), "drain must account for every request");
}
