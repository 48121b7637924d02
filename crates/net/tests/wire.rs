//! End-to-end wire tests: real TCP sockets through both framings into a
//! live `ScoringServer` and back.
//!
//! One trained model registry is shared across tests (training is the
//! expensive part); every test binds its own ephemeral-port server so
//! they can run concurrently.

mod common;

use common::{jobs, read_scores, registry};
use scope_sim::Job;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tasq::pipeline::ScoreResponse;
use tasq_net::{BinaryClient, HttpClient, HttpLimits, NetConfig, NetServer, ScoreOutcome};
use tasq_serve::{ScoringServer, ServeConfig};

fn start_net(config: NetConfig) -> NetServer {
    let scoring = ScoringServer::start(registry(), ServeConfig::default());
    NetServer::bind("127.0.0.1:0", config, scoring).expect("net server binds")
}

#[test]
fn http_keep_alive_serves_100_requests_on_one_connection() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    let workload = jobs(10, 7002);
    for i in 0..100 {
        let job = workload[i % workload.len()].clone();
        let expect_id = job.id;
        match client.score(&job).expect("round trip") {
            ScoreOutcome::Ok(score) => {
                assert_eq!(score.job_id, expect_id, "request {i} answered out of order");
                assert!(score.optimal_tokens > 0);
            }
            ScoreOutcome::Rejected(status) => panic!("request {i} rejected with {status}"),
        }
    }
    // Introspection endpoints ride the same connection.
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");
    let stats = client.request("GET", "/stats", b"").expect("stats");
    assert_eq!(stats.status, 200);
    let parsed = tasq_obs::json::parse(&String::from_utf8_lossy(&stats.body)).expect("json");
    assert!(parsed.get("submitted").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 100.0);
    let final_stats = net.shutdown();
    assert_eq!(final_stats.submitted, final_stats.resolved());
}

#[test]
fn binary_framing_round_trips_and_preserves_order() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let mut client = BinaryClient::connect(&addr).expect("connects");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    let workload = jobs(8, 7003);
    for round in 0..25 {
        for job in &workload {
            match client.score(job).expect("round trip") {
                ScoreOutcome::Ok(score) => assert_eq!(score.job_id, job.id, "round {round}"),
                ScoreOutcome::Rejected(status) => panic!("rejected with {status}"),
            }
        }
    }
    let final_stats = net.shutdown();
    assert!(final_stats.submitted >= 200);
    assert_eq!(final_stats.submitted, final_stats.resolved());
}

/// Read `n` pipelined HTTP responses off `stream`, in wire order; any
/// status but 200 or an early close fails the test.
fn read_http_scores(stream: &mut TcpStream, n: usize) -> Vec<ScoreResponse> {
    let mut scores = Vec::with_capacity(n);
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16384];
    while scores.len() < n {
        let complete = rbuf.windows(4).position(|w| w == b"\r\n\r\n").and_then(|head_end| {
            let head = String::from_utf8_lossy(&rbuf[..head_end]).into_owned();
            assert!(head.starts_with("HTTP/1.1 200 "), "request {} refused: {head}", scores.len());
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length: "))
                .and_then(|v| v.parse().ok())
                .expect("content-length");
            let body = head_end + 4;
            (rbuf.len() >= body + length).then_some((body, body + length))
        });
        match complete {
            Some((body, end)) => {
                scores.push(tasq::codec::from_bytes(&rbuf[body..end]).expect("decode"));
                rbuf.drain(..end);
            }
            None => {
                let read = stream.read(&mut chunk).expect("recv");
                assert!(read > 0, "server closed after {} responses", scores.len());
                rbuf.extend_from_slice(&chunk[..read]);
            }
        }
    }
    scores
}

#[test]
fn pipelined_bursts_keep_wire_order_and_match_direct_scoring() {
    use tasq_net::frame;

    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let service = registry().current();
    // One connection per framing; `binary` says which.
    let encode = |binary: bool, wire: &mut Vec<u8>, job: &Job| {
        let payload = tasq::codec::to_bytes(job).expect("encode");
        if binary {
            frame::write_request_frame(wire, &payload);
        } else {
            wire.extend_from_slice(
                format!("POST /score HTTP/1.1\r\ncontent-length: {}\r\n\r\n", payload.len())
                    .as_bytes(),
            );
            wire.extend_from_slice(&payload);
        }
    };
    let mut streams: Vec<(bool, TcpStream)> = [true, false]
        .into_iter()
        .map(|binary| {
            let mut stream = TcpStream::connect(&addr).expect("connects");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            if binary {
                stream.write_all(&[tasq_net::BINARY_PREAMBLE]).expect("preamble");
            }
            (binary, stream)
        })
        .collect();
    let strip = |r: &ScoreResponse| {
        tasq::codec::to_bytes(&ScoreResponse { job_id: 0, ..r.clone() }).expect("encode")
    };
    // Each burst is written whole on every connection before any answer
    // is read, so several frames share a wake and the two connections'
    // requests interleave in the server.
    let mut exchange = |bursts: &[Vec<Job>; 2]| {
        for (burst, (binary, stream)) in bursts.iter().zip(&mut streams) {
            let mut wire = Vec::new();
            burst.iter().for_each(|job| encode(*binary, &mut wire, job));
            stream.write_all(&wire).expect("send");
        }
        for (burst, (binary, stream)) in bursts.iter().zip(&mut streams) {
            let scores = if *binary {
                read_scores(stream, burst.len())
            } else {
                read_http_scores(stream, burst.len())
            };
            for (answered, (job, score)) in burst.iter().zip(&scores).enumerate() {
                assert_eq!(score.job_id, job.id, "response {answered} out of request order");
                assert_eq!(
                    strip(score),
                    strip(&service.service().score(job)),
                    "wire answer {answered} differs from direct scoring"
                );
            }
        }
    };

    // Round one: 32 never-seen plans per connection, every frame a miss.
    let first = [jobs(32, 7010), jobs(32, 7011)];
    exchange(&first);
    // Round two: 32 more never-seen plans per connection, each followed
    // by a resubmission (fresh job id) of a plan the *other* connection
    // sent in round one — cached by now, since a worker fills the cache
    // before it replies and every round-one reply has been read.
    let fresh = [jobs(32, 7012), jobs(32, 7013)];
    let second = [0, 1].map(|conn| {
        fresh[conn]
            .iter()
            .zip(&first[1 - conn])
            .flat_map(|(new, seen)| [new.clone(), Job { id: seen.id + 1_000_000, ..seen.clone() }])
            .collect::<Vec<Job>>()
    });
    exchange(&second);
    drop(streams);

    let never_seen: Vec<&Job> = first.iter().chain(&fresh).flatten().collect();
    let distinct: std::collections::HashSet<_> =
        never_seen.iter().map(|job| tasq_serve::PlanSignature::of_job(job)).collect();
    assert_eq!(distinct.len(), never_seen.len(), "the never-seen plans must all differ");
    let stats = net.shutdown();
    assert_eq!(stats.model_scored, never_seen.len() as u64);
    assert_eq!(stats.cache_hits, 64, "every resubmission is answered from the cache");
    assert_eq!(
        stats.cache.misses,
        never_seen.len() as u64,
        "a wire request probes the cache once: only never-seen plans miss"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.worker_lost + stats.deadline_timeouts
    );
}

#[test]
fn oversized_http_body_is_rejected_with_413() {
    let config = NetConfig {
        http_limits: HttpLimits { max_body_bytes: 512, ..Default::default() },
        ..Default::default()
    };
    let net = start_net(config);
    let addr = net.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // Declare a body over the cap; the server must answer 413 from the
    // headers alone and close.
    stream
        .write_all(b"POST /score HTTP/1.1\r\ncontent-length: 4096\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(_) => break,
        }
    }
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "expected 413, got: {response:.60}"
    );
    net.shutdown();
}

#[test]
fn torn_and_garbage_bytes_never_wedge_the_server() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();

    // 1. A valid request delivered one byte at a time still scores.
    let job = jobs(1, 7004).remove(0);
    let payload = tasq::codec::to_bytes(&job).expect("encode");
    let mut raw = Vec::new();
    raw.extend_from_slice(
        format!("POST /score HTTP/1.1\r\ncontent-length: {}\r\n\r\n", payload.len()).as_bytes(),
    );
    raw.extend_from_slice(&payload);
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    for chunk in raw.chunks(7) {
        stream.write_all(chunk).expect("send");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut first = [0u8; 16];
    let mut got = 0;
    while got < first.len() {
        let n = stream.read(&mut first[got..]).expect("recv");
        assert!(n > 0, "server closed before answering");
        got += n;
    }
    assert!(first.starts_with(b"HTTP/1.1 200"), "torn request should score: {first:?}");
    drop(stream);

    // 2. Garbage bytes get a 4xx (or a close), never a hang; the server
    //    keeps serving fresh connections afterwards.
    let mut garbage = TcpStream::connect(&addr).expect("connects");
    garbage.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    garbage.write_all(b"\x7f\x45\x4c\x46 total nonsense\r\n\r\n").expect("send");
    let mut sink = Vec::new();
    let _ = garbage.read_to_end(&mut sink);
    drop(garbage);

    let mut client = HttpClient::connect(&addr).expect("reconnects");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    let health = client.request("GET", "/healthz", b"").expect("healthz after garbage");
    assert_eq!(health.status, 200);
    net.shutdown();
}

/// Three jobs the codec decodes happily and no plan constructor would
/// build: no operators, an edge off the end of the operator list, a cycle.
fn unstageable_jobs(seed: u64) -> Vec<scope_sim::Job> {
    let template = jobs(1, seed).remove(0);
    let mut empty = template.clone();
    empty.plan.operators.clear();
    empty.plan.edges.clear();
    let mut out_of_range = template.clone();
    out_of_range.plan.edges.push((0, out_of_range.plan.operators.len()));
    let mut cyclic = template;
    let &(from, to) = cyclic.plan.edges.first().expect("generated plans have edges");
    cyclic.plan.edges.push((to, from));
    vec![empty, out_of_range, cyclic]
}

/// Three hostile requests, then a good one, through one connection's
/// `score`: three refusals, then the answer direct scoring gives — the
/// shard thread that refused them is still serving.
fn refused_then_served(
    framing: &str,
    mut score: impl FnMut(&scope_sim::Job) -> ScoreOutcome,
    good: &scope_sim::Job,
    expected: &tasq::pipeline::ScoreResponse,
) {
    for (i, job) in unstageable_jobs(7020).iter().enumerate() {
        match score(job) {
            ScoreOutcome::Rejected(status) => assert_eq!(status, 400, "{framing} {i}"),
            ScoreOutcome::Ok(answer) => panic!("{framing} {i} was scored: {answer:?}"),
        }
    }
    match score(good) {
        ScoreOutcome::Ok(answer) => assert_eq!(
            tasq::codec::to_bytes(&answer).expect("encode"),
            tasq::codec::to_bytes(expected).expect("encode"),
            "{framing}: wire answer differs from direct scoring"
        ),
        ScoreOutcome::Rejected(status) => panic!("{framing}: good plan refused, {status}"),
    }
}

#[test]
fn decodable_but_unstageable_plans_are_refused_not_panicked_on() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let good = jobs(1, 7021).remove(0);
    let expected = registry().current().service().score(&good);

    let mut binary = BinaryClient::connect(&addr).expect("connects");
    binary.set_timeout(Duration::from_secs(10)).expect("timeout");
    let answered = "a refusal is still a response";
    refused_then_served("binary", |job| binary.score(job).expect(answered), &good, &expected);
    let mut http = HttpClient::connect(&addr).expect("connects");
    http.set_timeout(Duration::from_secs(10)).expect("timeout");
    refused_then_served("http", |job| http.score(job).expect(answered), &good, &expected);

    let stats = net.shutdown();
    assert_eq!(stats.rejected, 6, "each unstageable plan is a counted refusal");
    assert_eq!(stats.worker_lost, 0, "nothing reached a worker to kill it");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.worker_lost + stats.deadline_timeouts
    );
}

#[test]
fn drain_over_the_wire_keeps_exact_accounting() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let workload = jobs(6, 7005);
    let mut http = HttpClient::connect(&addr).expect("connects");
    http.set_timeout(Duration::from_secs(10)).expect("timeout");
    let mut binary = BinaryClient::connect(&addr).expect("connects");
    binary.set_timeout(Duration::from_secs(10)).expect("timeout");
    let mut submitted = 0u64;
    for job in &workload {
        assert!(matches!(http.score(job).expect("http score"), ScoreOutcome::Ok(_)));
        assert!(matches!(binary.score(job).expect("binary score"), ScoreOutcome::Ok(_)));
        submitted += 2;
    }
    let ack = http.request("POST", "/drain", b"").expect("drain ack");
    assert_eq!(ack.status, 200);
    let parsed = tasq_obs::json::parse(&String::from_utf8_lossy(&ack.body)).expect("json ack");
    assert_eq!(parsed.get("draining").and_then(|v| v.as_bool()), Some(true));
    assert!(net.drain_requested(), "wire drain must set the drain flag");
    net.wait_for_drain();
    let stats = net.shutdown();
    assert!(stats.submitted >= submitted);
    assert_eq!(
        stats.submitted,
        stats.resolved(),
        "drain must resolve every submission: {stats:?}"
    );
}

/// Read one HTTP response (head + content-length body) off a raw socket.
fn read_http_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("recv");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    let content_length: usize = head
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0);
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk).expect("recv body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    (status, buf[body_start..body_start + content_length].to_vec())
}

#[test]
fn fuzzed_traceparent_headers_parse_or_ignore_without_desync() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let job = jobs(1, 7007).remove(0);
    let payload = tasq::codec::to_bytes(&job).expect("encode");
    // Torn, truncated, non-hex, wrong-version, zero-id, and oversized
    // traceparent values: each request must still score (the header is
    // ignored), and the framing must stay in sync across all of them on
    // one keep-alive connection.
    let fuzzed = [
        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // missing flags
        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version ff
        "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
        "00-zzzz651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // non-hex
        "00-0af7",                                                 // truncated
        "garbage",
        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\x01", // control byte
    ];
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    for (i, tp) in fuzzed.iter().enumerate() {
        let mut raw = Vec::new();
        raw.extend_from_slice(
            format!(
                "POST /score HTTP/1.1\r\ntraceparent: {tp}\r\ncontent-length: {}\r\n\r\n",
                payload.len()
            )
            .as_bytes(),
        );
        raw.extend_from_slice(&payload);
        // Torn delivery: the header fragments must reassemble cleanly.
        for chunk in raw.chunks(5) {
            stream.write_all(chunk).expect("send");
        }
        let (status, _) = read_http_response(&mut stream);
        assert_eq!(status, 200, "fuzzed traceparent {i} ({tp:?}) broke the request");
    }
    // A well-formed traceparent on the same connection still works too.
    let mut raw = Vec::new();
    raw.extend_from_slice(
        format!(
            "POST /score HTTP/1.1\r\n\
             traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\
             content-length: {}\r\n\r\n",
            payload.len()
        )
        .as_bytes(),
    );
    raw.extend_from_slice(&payload);
    stream.write_all(&raw).expect("send");
    let (status, _) = read_http_response(&mut stream);
    assert_eq!(status, 200);
    drop(stream);
    // The introspection endpoints are live and the slowest tracker
    // retained the traffic above.
    let mut client = HttpClient::connect(&addr).expect("connects");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    let slo = client.request("GET", "/slo", b"").expect("slo");
    assert_eq!(slo.status, 200);
    let parsed = tasq_obs::json::parse(&String::from_utf8_lossy(&slo.body)).expect("slo json");
    assert!(parsed.get("objectives").is_some(), "missing objectives in /slo");
    let slowest = client.request("GET", "/debug/slowest", b"").expect("slowest");
    assert_eq!(slowest.status, 200);
    let parsed =
        tasq_obs::json::parse(&String::from_utf8_lossy(&slowest.body)).expect("slowest json");
    let entries = parsed.get("slowest").and_then(|v| v.as_array().map(|a| a.len()));
    assert!(entries.unwrap_or(0) > 0, "/debug/slowest empty after traffic");
    net.shutdown();
}

#[test]
fn malformed_binary_trace_fields_never_desync_framing() {
    use tasq_net::frame::{self, FrameResponse, FrameResponseParse};
    use tasq_net::TRACE_FLAG;
    use tasq_obs::TraceContext;

    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let job = jobs(1, 7008).remove(0);
    let payload = tasq::codec::to_bytes(&job).expect("encode");
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&[tasq_net::BINARY_PREAMBLE]).expect("preamble");

    let mut wire = Vec::new();
    // 1. A well-formed traced frame.
    let ctx = TraceContext { trace_id: 0xabcdef, span_id: 7, sampled: true };
    frame::write_request_frame_traced(&mut wire, &payload, ctx);
    // 2. A flagged frame whose 25-byte trace field is garbage (reserved
    //    flag bits set): the field must be skipped, the payload must
    //    still decode, and the framing must not slip.
    let body_len = (payload.len() + TraceContext::WIRE_BYTES) as u32;
    wire.extend_from_slice(&(body_len | TRACE_FLAG).to_le_bytes());
    wire.extend_from_slice(&[0xFF; 25]);
    wire.extend_from_slice(&payload);
    // 3. A flagged frame whose body is *shorter* than a trace field: the
    //    whole body is treated as payload (undecodable → BadRequest),
    //    and the next frame must still parse from the right offset.
    wire.extend_from_slice(&(5u32 | TRACE_FLAG).to_le_bytes());
    wire.extend_from_slice(&[0xAA; 5]);
    // 4. A plain untraced frame after all of the above.
    frame::write_request_frame(&mut wire, &payload);
    // Byte-at-a-time delivery to exercise every torn-boundary resume.
    for byte in &wire {
        stream.write_all(std::slice::from_ref(byte)).expect("send");
    }

    let mut rbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut outcomes = Vec::new();
    while outcomes.len() < 4 {
        match frame::parse_response_frame(&rbuf, 0) {
            FrameResponseParse::Complete(response, consumed) => {
                rbuf.drain(..consumed);
                outcomes.push(match response {
                    FrameResponse::Ok(score) => ("ok", score.job_id),
                    FrameResponse::Error(status) => ("err", status as u64),
                });
            }
            FrameResponseParse::NeedMore => {
                let n = stream.read(&mut chunk).expect("recv");
                assert!(n > 0, "server closed after {} responses", outcomes.len());
                rbuf.extend_from_slice(&chunk[..n]);
            }
            FrameResponseParse::Malformed(why) => panic!("malformed response: {why}"),
        }
    }
    assert_eq!(outcomes[0], ("ok", job.id), "traced frame must score");
    assert_eq!(outcomes[1], ("ok", job.id), "garbage trace field must be ignored");
    assert_eq!(outcomes[2].0, "err", "short flagged body must be a clean error");
    assert_eq!(outcomes[3], ("ok", job.id), "framing must stay in sync after errors");
    net.shutdown();
}

#[test]
fn metrics_endpoint_exposes_wire_counters() {
    let net = start_net(NetConfig::default());
    let addr = net.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");
    client.set_timeout(Duration::from_secs(10)).expect("timeout");
    let job = jobs(1, 7006).remove(0);
    assert!(matches!(client.score(&job).expect("score"), ScoreOutcome::Ok(_)));
    let metrics = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    for name in [
        "net_connections_total",
        "net_bytes_read_total",
        "net_bytes_written_total",
        "net_parse_errors_total",
        "net_wire_latency_us",
    ] {
        assert!(text.contains(name), "missing {name} in /metrics:\n{text}");
    }
    net.shutdown();
}
