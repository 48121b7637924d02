//! A panicking score on an event-loop shard: the panic boundary sits on
//! the shard's own thread, so a planted panic must cost exactly the
//! request it hit — not the connection, not the shard, not its
//! neighbours.

#![allow(clippy::expect_used, clippy::panic)]

mod common;

use common::{jobs, read_scores, registry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tasq::pipeline::ScoreResponse;
use tasq_net::frame::{self, FrameResponse, FrameResponseParse, FrameStatus};
use tasq_net::{NetConfig, NetServer, BINARY_PREAMBLE};
use tasq_resil::ChaosPlan;
use tasq_serve::{CacheConfig, ScoringServer, ServeConfig};

/// Read `n` binary response frames in wire order, refusals included.
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<FrameResponse> {
    let (mut frames, mut rbuf, mut consumed) = (Vec::with_capacity(n), Vec::new(), 0);
    let mut chunk = [0u8; 16384];
    while frames.len() < n {
        match frame::parse_response_frame(&rbuf, consumed) {
            FrameResponseParse::Complete(response, used) => {
                consumed += used;
                frames.push(response);
            }
            FrameResponseParse::NeedMore => {
                let read = stream.read(&mut chunk).expect("recv");
                assert!(read > 0, "server closed after {} responses", frames.len());
                rbuf.extend_from_slice(&chunk[..read]);
            }
            FrameResponseParse::Malformed(why) => panic!("malformed response: {why}"),
        }
    }
    assert_eq!(consumed, rbuf.len(), "bytes beyond the last expected frame");
    frames
}

fn connect(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(&[BINARY_PREAMBLE]).expect("preamble");
    stream
}

fn send(stream: &mut TcpStream, burst: &[scope_sim::Job]) {
    let mut wire = Vec::new();
    for job in burst {
        frame::write_request_frame(&mut wire, &tasq::codec::to_bytes(job).expect("encode"));
    }
    stream.write_all(&wire).expect("send");
}

#[test]
fn panics_on_one_connection_cost_only_their_own_requests() {
    // Cache off, so every request is a miss and takes the next sequence
    // number; panics are planted on the third and sixth.
    let plan = ChaosPlan {
        preset: "test".into(),
        seed: 0,
        kill_after_checkpoints: None,
        torn_tail_bytes: None,
        worker_panics: vec![2, 5],
        nn_fault_window: None,
        deadline_storm: None,
    };
    let scoring = ScoringServer::start(
        registry(),
        ServeConfig {
            cache: CacheConfig { enabled: false, ..Default::default() },
            chaos: Some(plan),
            ..Default::default()
        },
    );
    // One shard: both connections live on the thread that panics.
    let net = NetServer::bind("127.0.0.1:0", NetConfig { shards: 1, ..Default::default() }, scoring)
        .expect("net server binds");
    let addr = net.local_addr().to_string();
    let mut a = connect(&addr);
    let mut b = connect(&addr);

    // Connection A: eight pipelined frames, written whole; then one more
    // after the answers, to show the connection is still in frame sync.
    let burst = jobs(8, 7401);
    send(&mut a, &burst);
    let answers = read_frames(&mut a, burst.len());
    for (i, (job, answer)) in burst.iter().zip(&answers).enumerate() {
        match (i, answer) {
            (2 | 5, FrameResponse::Error(status)) => assert_eq!(*status, FrameStatus::WorkerLost),
            (2 | 5, FrameResponse::Ok(_)) => panic!("request {i} survived its panic"),
            (_, FrameResponse::Ok(score)) => assert_eq!(score.job_id, job.id, "request {i}"),
            (_, FrameResponse::Error(status)) => panic!("request {i} refused with {status:?}"),
        }
    }
    let after = jobs(1, 7402);
    send(&mut a, &after);
    assert_eq!(read_scores(&mut a, 1)[0].job_id, after[0].id, "A lost frame sync");

    // Connection B, on the same shard: bit-equal to direct scoring.
    let burst = jobs(16, 7403);
    send(&mut b, &burst);
    let active = registry().current();
    let strip = |r: &ScoreResponse| {
        tasq::codec::to_bytes(&ScoreResponse { job_id: 0, ..r.clone() }).expect("encode")
    };
    for (job, score) in burst.iter().zip(read_scores(&mut b, burst.len())) {
        assert_eq!(score.job_id, job.id);
        assert_eq!(strip(&score), strip(&active.service().score(job)), "job {}", job.id);
    }

    let stats = net.shutdown();
    assert_eq!(stats.worker_lost, 2);
    assert_eq!((stats.submitted, stats.completed), (25, 23));
    assert_eq!(stats.submitted, stats.resolved(), "zero silent loss");
}
