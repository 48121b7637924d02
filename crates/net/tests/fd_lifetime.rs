//! Every fd and shard thread a `NetServer` creates dies with it, whether
//! it ends in `shutdown` or is simply dropped.
//!
//! Exactly one test lives in this file: `/proc/self/fd` and
//! `/proc/self/task` are process-global, so the counted window must not
//! share a process with any other server (`wire.rs` runs its tests
//! concurrently).

#![allow(clippy::expect_used, clippy::panic)]

mod common;

use common::{jobs, read_scores, registry};
use scope_sim::Job;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use tasq_net::frame::{self, FrameResponseParse};
use tasq_net::{NetConfig, NetServer, BINARY_PREAMBLE};
use tasq_serve::{ScoringServer, ServeConfig};

/// Open fds and live `net-shard-*` threads in this process.
fn census() -> (usize, usize) {
    let fds = std::fs::read_dir("/proc/self/fd").expect("fd dir").count();
    let shards = std::fs::read_dir("/proc/self/task")
        .expect("task dir")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("net-shard-"))
        .count();
    (fds, shards)
}

/// Wait (up to 5 s) for the census to satisfy `done` and return what it
/// last read. A joined thread can linger in `/proc/self/task` for a
/// moment while the kernel reaps it; a leaked one never leaves.
fn settled(done: impl Fn((usize, usize)) -> bool) -> (usize, usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = census();
        if done(now) || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

fn request_frame(job: &Job) -> Vec<u8> {
    let mut wire = Vec::new();
    frame::write_request_frame(&mut wire, &tasq::codec::to_bytes(job).expect("encode"));
    wire
}

/// One connection attempt: preamble plus one scored frame. `None` when
/// the server closed the socket instead of answering — it was refused
/// because the accepting shard was at its connection cap.
fn try_binary(addr: SocketAddr, job: &Job) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut wire = vec![BINARY_PREAMBLE];
    wire.extend(request_frame(job));
    stream.write_all(&wire).ok()?;
    let (mut rbuf, mut chunk) = (Vec::new(), [0u8; 4096]);
    loop {
        match frame::parse_response_frame(&rbuf, 0) {
            FrameResponseParse::Complete(..) => return Some(stream),
            FrameResponseParse::NeedMore => match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            },
            FrameResponseParse::Malformed(why) => panic!("malformed response: {why}"),
        }
    }
}

/// A binary connection the server has taken into a slot. Retries while
/// a slot freed by an earlier peer is still being released.
fn served_binary(addr: SocketAddr, job: &Job) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(stream) = try_binary(addr, job) {
            return stream;
        }
        assert!(Instant::now() < deadline, "no shard took a connection");
        thread::sleep(Duration::from_millis(10));
    }
}

fn start(config: NetConfig) -> NetServer {
    let scoring = ScoringServer::start(registry(), ServeConfig::default());
    NetServer::bind("127.0.0.1:0", config, scoring).expect("net server binds")
}

#[test]
fn a_server_releases_every_fd_and_shard_thread_on_shutdown_and_on_drop() {
    if !tasq_net::sys::supported() {
        return;
    }
    let workload = jobs(6, 7040);
    let _ = registry(); // trained once, outside the counted window
    let baseline = census();

    // Served run: two shards of one connection each.
    let net = start(NetConfig { shards: 2, max_connections_per_shard: 1, ..Default::default() });
    let addr = net.local_addr();
    assert_eq!(settled(|(_, shards)| shards == 2).1, 2, "both shards run");

    // HTTP `Connection: close`: answered, then closed by the server.
    let mut http = TcpStream::connect(addr).expect("connects");
    http.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n").expect("send");
    let mut reply = String::new();
    http.read_to_string(&mut reply).expect("read to close");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.contains("connection: close\r\n"), "{reply}");
    drop(http);

    // A binary exchange, then hold connections until one is refused:
    // each held one fills a shard's only slot, so the third attempt at
    // the latest lands on a full shard.
    let mut held = vec![served_binary(addr, &workload[0])];
    let burst: Vec<u8> = workload.iter().flat_map(request_frame).collect();
    held[0].write_all(&burst).expect("pipelined send");
    let answered: Vec<u64> =
        read_scores(&mut held[0], workload.len()).iter().map(|s| s.job_id).collect();
    assert_eq!(answered, workload.iter().map(|j| j.id).collect::<Vec<_>>());
    let mut refused = 0;
    for job in &workload[1..3] {
        match try_binary(addr, job) {
            Some(stream) => held.push(stream),
            None => refused += 1,
        }
    }
    assert!(held.len() <= 2, "{} connections served past a cap of 2", held.len());
    assert!(refused >= 1, "no connection was refused past the cap");
    drop(held);

    // A peer that drops mid-frame: the length word promises more bytes
    // than ever arrive.
    let mut torn = served_binary(addr, &workload[1]);
    let frame = request_frame(&workload[2]);
    torn.write_all(&frame[..frame.len() / 2]).expect("half a frame");
    drop(torn);

    // A peer that drops with replies unread.
    let mut deaf = served_binary(addr, &workload[3]);
    deaf.write_all(&burst).expect("send burst");
    drop(deaf);

    let stats = net.shutdown();
    assert_eq!(stats.submitted, stats.resolved(), "drain must account for every request");
    let after = settled(|now| now == baseline);
    assert_eq!(after, baseline, "(fds, net-shard threads) after shutdown");

    // Dropped without `shutdown`, with a connection still open.
    let net = start(NetConfig { shards: 2, ..Default::default() });
    let open = served_binary(net.local_addr(), &workload[4]);
    drop(net);
    drop(open);
    let after = settled(|now| now == baseline);
    assert_eq!(after, baseline, "(fds, net-shard threads) after drop");
}
