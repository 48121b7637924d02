//! The epoll-sharded network front-end over [`ScoringServer`].
//!
//! `NetServer::bind` opens one nonblocking listener and spawns
//! `NetConfig::shards` event-loop threads. Every shard owns a private
//! epoll instance; the shared listener fd is registered in each with
//! `EPOLLEXCLUSIVE`, so the kernel wakes exactly one shard per incoming
//! connection burst instead of thundering the whole herd. Accepted
//! sockets stay pinned to the accepting shard for their lifetime and are
//! driven edge-triggered (`EPOLLET`): each readiness event drains the
//! socket to `EAGAIN`, locates every complete request as *spans* into
//! the receive buffer (no per-request copies), submits them all to the
//! scoring server, then resolves tickets in arrival order so responses
//! never reorder within a connection. Dispatch in the pool is
//! work-conserving, so a wake's misses are scored concurrently by the
//! workers while the shard submits the rest; by the time it blocks on the
//! first ticket it waits about one score time, not a batch-timer period.
//! Measured, the wire costs ≈ 0.4 of in-process capacity and ≈ 20 µs of
//! p50 on the recurring mix; DESIGN.md, "Why there is no batch timer",
//! has the reconciliation and what of that gap is still unexplained.
//!
//! The response path is syscall-lean: every response resolved in one
//! readiness event is rendered into a buffer checked out of the shard's
//! [`BufPool`] and queued; one `writev` then flushes the whole burst in
//! a single syscall, resuming exactly across partial writes.
//!
//! Each decoded request goes through `ScoringServer::submit` exactly
//! once — the same door in-process callers use, so a wire request pays
//! one plan signature and one cache probe. A signature-cache hit comes
//! back as an already-resolved ticket, answered on the event-loop thread
//! itself — no queue hop, no worker wakeup.
//!
//! Backpressure is inherited, not reinvented: `submit` still applies the
//! shed watermark and bounded-queue admission, and the wire simply
//! translates `SubmitError`/`RequestError` into 429/503 (or binary
//! status bytes). Draining arrives over the wire too — `POST
//! /drain` acks, flips a flag, and the owner thread joins the shards and
//! runs the scoring server's exact-accounting drain.

use crate::conn::{Conn, ExtractedSpans, ReadOutcome, WireError, WireRequestSpan};
use crate::frame::{self, FrameStatus};
use crate::http::{self, HttpHead, HttpLimits};
use crate::pool::BufPool;
use crate::sys::{self, EpollEvent, NetError};
use scope_sim::Job;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};
use tasq_obs::metrics::{Counter, Histogram, Registry};
use tasq_obs::{FieldValue, Level, TraceContext};
use tasq_serve::{ScoreRequest, ScoringServer, ServerStatsSnapshot, Ticket};

/// Tuning knobs for the network front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Event-loop threads; each owns an epoll instance and its accepted
    /// connections.
    pub shards: usize,
    /// Per-shard cap on concurrently open connections; accepts beyond it
    /// are closed immediately.
    pub max_connections_per_shard: usize,
    /// HTTP header/body size caps.
    pub http_limits: HttpLimits,
    /// Per-request deadline budget, carried as `ScoreRequest::deadline`.
    pub deadline: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            max_connections_per_shard: 1024,
            http_limits: HttpLimits::default(),
            deadline: None,
        }
    }
}

/// Free buffers each shard's [`BufPool`] retains: enough to turn over a
/// large pipelined burst without minting, bounded so idle shards do not
/// pin memory.
const POOL_RETAINED_BUFFERS: usize = 64;

/// Wire-level counters, registered once in the process-global registry.
pub struct NetMetrics {
    /// Connections accepted across all shards.
    pub connections: Counter,
    /// Bytes read off sockets.
    pub bytes_read: Counter,
    /// Bytes written to sockets.
    pub bytes_written: Counter,
    /// Connections terminated by a protocol parse error.
    pub parse_errors: Counter,
    /// Per-request latency from parse-complete to response-queued (µs).
    pub wire_latency_us: Histogram,
    /// Wire-parse time per readiness wake that located ≥ 1 request (µs) —
    /// the network-side head of the per-request segment chain (the
    /// serve-side segments pick up at `segment_fastpath_probe_us`).
    pub segment_parse_us: Histogram,
    /// Socket-flush time per readiness wake that wrote ≥ 1 byte (µs) —
    /// the network-side tail of the segment chain.
    pub segment_wire_flush_us: Histogram,
}

/// The process-global wire metrics.
pub fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        NetMetrics {
            connections: r.counter("net_connections_total", "connections accepted"),
            bytes_read: r.counter("net_bytes_read_total", "bytes read from sockets"),
            bytes_written: r.counter("net_bytes_written_total", "bytes written to sockets"),
            parse_errors: r.counter("net_parse_errors_total", "connections killed by parse errors"),
            wire_latency_us: r.histogram(
                "net_wire_latency_us",
                "request latency from parse to response enqueue (us)",
            ),
            segment_parse_us: r
                .histogram("segment_parse_us", "wire parse time per readiness wake (us)"),
            segment_wire_flush_us: r
                .histogram("segment_wire_flush_us", "socket flush time per readiness wake (us)"),
        }
    })
}

/// A running network front-end: listener + shard threads over a shared
/// [`ScoringServer`].
pub struct NetServer {
    addr: SocketAddr,
    // Kept alive so the listener fd stays valid for the shard epoll sets.
    _listener: TcpListener,
    shards: Vec<thread::JoinHandle<()>>,
    drain: Arc<AtomicBool>,
    server: Arc<ScoringServer>,
}

impl NetServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start the shard event loops
    /// over `server`.
    pub fn bind(addr: &str, config: NetConfig, server: ScoringServer) -> Result<Self, NetError> {
        if !sys::supported() {
            return Err(NetError::Unsupported);
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Bind(format!("{addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Bind(format!("set_nonblocking: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| NetError::Bind(format!("local_addr: {e}")))?;
        let server = Arc::new(server);
        let drain = Arc::new(AtomicBool::new(false));
        let listener_fd = listener.as_raw_fd();
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for shard_id in 0..shard_count {
            let server = Arc::clone(&server);
            let drain = Arc::clone(&drain);
            let config = config.clone();
            let handle = thread::Builder::new()
                .name(format!("net-shard-{shard_id}"))
                .spawn(move || {
                    // A failed shard must not take the process down; the
                    // other shards keep serving and drain still works.
                    if let Err(e) = shard_loop(listener_fd, &config, &server, &drain) {
                        eprintln!("net-shard-{shard_id}: event loop failed: {e}");
                    }
                })
                .map_err(|e| NetError::Bind(format!("spawn shard: {e}")))?;
            shards.push(handle);
        }
        Ok(Self { addr: local, _listener: listener, shards, drain, server })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a drain has been requested (over the wire or locally).
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Request a drain locally (same effect as `POST /drain`).
    pub fn trigger_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Block until a drain is requested.
    pub fn wait_for_drain(&self) {
        while !self.drain_requested() {
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop accepting, join the shard threads, and drain the scoring
    /// server, returning its exact-accounting final snapshot.
    pub fn shutdown(self) -> ServerStatsSnapshot {
        self.drain.store(true, Ordering::SeqCst);
        for handle in self.shards {
            let _ = handle.join();
        }
        match Arc::try_unwrap(self.server) {
            Ok(server) => server.drain(),
            // Unreachable once every shard has exited (they hold the only
            // other clones), but never panic on the shutdown path.
            Err(server) => server.stats(),
        }
    }
}

/// A connection slot plus its epoll interest state.
struct Slot {
    conn: Conn,
    /// Whether `EPOLLOUT` is currently armed for this fd.
    armed_out: bool,
}

const BASE_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET;

fn shard_loop(
    listener_fd: i32,
    config: &NetConfig,
    server: &Arc<ScoringServer>,
    drain: &AtomicBool,
) -> Result<(), NetError> {
    let epfd = sys::epoll_create1()?;
    let result = shard_loop_inner(epfd, listener_fd, config, server, drain);
    sys::close(epfd);
    result
}

fn shard_loop_inner(
    epfd: i32,
    listener_fd: i32,
    config: &NetConfig,
    server: &Arc<ScoringServer>,
    drain: &AtomicBool,
) -> Result<(), NetError> {
    // Level-triggered + EPOLLEXCLUSIVE on the shared listener: exactly
    // one shard wakes per connection burst, and un-accepted backlog
    // re-triggers on the next wait.
    sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, listener_fd, sys::EPOLLIN | sys::EPOLLEXCLUSIVE)?;
    let mut events = [EpollEvent::zeroed(); 64];
    let mut slots: HashMap<i32, Slot> = HashMap::new();
    // One buffer pool per shard: the event loop is single-threaded, so
    // checkout/restore are plain `&mut` calls with no synchronization.
    let mut pool = BufPool::new(POOL_RETAINED_BUFFERS);
    loop {
        if drain.load(Ordering::SeqCst) {
            flush_remaining(&mut slots, &mut pool);
            return Ok(());
        }
        let n = sys::epoll_wait(epfd, &mut events, 50)?;
        for event in events.iter().take(n) {
            let fd = event.fd();
            let ready = event.ready();
            if fd == listener_fd {
                accept_burst(epfd, listener_fd, config, &mut slots, &mut pool);
                continue;
            }
            let Some(slot) = slots.get_mut(&fd) else { continue };
            if ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                drop_slot(&mut slots, fd, &mut pool);
                continue;
            }
            let mut peer_closed = false;
            if ready & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
                match slot.conn.fill() {
                    Ok(ReadOutcome::Drained { bytes }) => {
                        net_metrics().bytes_read.add(bytes as u64);
                    }
                    Ok(ReadOutcome::Closed) => peer_closed = true,
                    Err(_) => {
                        drop_slot(&mut slots, fd, &mut pool);
                        continue;
                    }
                }
                let parse_start = Instant::now();
                let extracted = slot.conn.extract_spans(&config.http_limits);
                if !extracted.requests.is_empty() {
                    net_metrics()
                        .segment_parse_us
                        .record(parse_start.elapsed().as_micros() as u64);
                }
                serve_spans(extracted, &mut slot.conn, &mut pool, config, server, drain);
            }
            // Every response resolved in this wake leaves in one flush —
            // a single writev when more than one buffer is queued.
            let flush_start = Instant::now();
            match slot.conn.flush(&mut pool) {
                Ok(bytes) => {
                    if bytes > 0 {
                        net_metrics()
                            .segment_wire_flush_us
                            .record(flush_start.elapsed().as_micros() as u64);
                    }
                    net_metrics().bytes_written.add(bytes as u64);
                }
                Err(_) => {
                    drop_slot(&mut slots, fd, &mut pool);
                    continue;
                }
            }
            let done = slot.conn.pending_write() == 0;
            if done && (peer_closed || slot.conn.close_after_flush) {
                drop_slot(&mut slots, fd, &mut pool);
                continue;
            }
            // Arm or disarm EPOLLOUT as the transmit buffer fills/empties.
            if !done && !slot.armed_out {
                if sys::epoll_ctl(epfd, sys::EPOLL_CTL_MOD, fd, BASE_INTEREST | sys::EPOLLOUT)
                    .is_err()
                {
                    drop_slot(&mut slots, fd, &mut pool);
                    continue;
                }
                slot.armed_out = true;
            } else if done && slot.armed_out {
                if sys::epoll_ctl(epfd, sys::EPOLL_CTL_MOD, fd, BASE_INTEREST).is_err() {
                    drop_slot(&mut slots, fd, &mut pool);
                    continue;
                }
                slot.armed_out = false;
            }
        }
    }
}

/// Remove a connection from the event loop, handing every buffer it
/// still holds back to the shard pool before drop closes the fd.
fn drop_slot(slots: &mut HashMap<i32, Slot>, fd: i32, pool: &mut BufPool) {
    if let Some(mut slot) = slots.remove(&fd) {
        slot.conn.reclaim(pool);
    }
}

/// Accept until the listener would block, registering each socket
/// edge-triggered with this shard's epoll set.
fn accept_burst(
    epfd: i32,
    listener_fd: i32,
    config: &NetConfig,
    slots: &mut HashMap<i32, Slot>,
    pool: &mut BufPool,
) {
    loop {
        match sys::accept4(listener_fd) {
            Ok(fd) => {
                if slots.len() >= config.max_connections_per_shard {
                    sys::close(fd);
                    continue;
                }
                // Best effort: without it a response that leaves in more
                // than one write (a partial flush) stalls on Nagle × the
                // peer's delayed ACK. A socket that refuses the option
                // still serves.
                let _ = sys::setsockopt(fd, sys::IPPROTO_TCP, sys::TCP_NODELAY, 1);
                if sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, fd, BASE_INTEREST).is_err() {
                    sys::close(fd);
                    continue;
                }
                net_metrics().connections.inc();
                // Checked out only after the fd is registered, so the
                // early-exit paths above owe the pool nothing; the
                // connection owns the buffer until `drop_slot` reclaims.
                let rbuf = pool.checkout();
                slots.insert(fd, Slot { conn: Conn::from_fd(fd, rbuf), armed_out: false });
            }
            Err(_) => return,
        }
    }
}

/// Best-effort flush of pending responses (the drain ack, mostly) before
/// a shard exits. Bounded so a stuck peer cannot wedge shutdown.
fn flush_remaining(slots: &mut HashMap<i32, Slot>, pool: &mut BufPool) {
    let deadline = Instant::now() + Duration::from_secs(1);
    for slot in slots.values_mut() {
        while slot.conn.pending_write() > 0 && Instant::now() < deadline {
            match slot.conn.flush(pool) {
                Ok(bytes) => {
                    net_metrics().bytes_written.add(bytes as u64);
                    if slot.conn.pending_write() > 0 {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                Err(_) => break,
            }
        }
    }
    for (_, mut slot) in slots.drain() {
        slot.conn.reclaim(pool);
    }
}

/// A response whose bytes may depend on a still-inflight scoring ticket.
enum PendingReply {
    /// Bytes already rendered (health, metrics, admission errors, …).
    Ready(Vec<u8>),
    /// An admitted HTTP scoring request (a cache hit's ticket is already resolved).
    HttpTicket { ticket: Ticket, keep_alive: bool, parsed_at: Instant },
    /// An admitted binary scoring request, likewise.
    BinaryTicket { ticket: Ticket, parsed_at: Instant },
}

/// Render a complete HTTP response into a pooled buffer. Single exit:
/// every checkout leaves as a queued [`PendingReply::Ready`], which the
/// resource-leak pass can follow to `Conn::queue_buffer`.
fn ready_http(
    pool: &mut BufPool,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> PendingReply {
    let mut out = pool.checkout();
    http::write_response(&mut out, status, reason, content_type, body, close);
    PendingReply::Ready(out)
}

/// Render a binary response frame into a pooled buffer.
fn ready_frame(pool: &mut BufPool, status: FrameStatus, payload: &[u8]) -> PendingReply {
    let mut out = pool.checkout();
    frame::write_response_frame(&mut out, status, payload);
    PendingReply::Ready(out)
}

/// Submit every located request (borrowing payloads straight out of the
/// receive buffer — the only copy left is the `Job` decode at the
/// scoring boundary), then resolve tickets in arrival order: the worker
/// pool starts on a wake's misses as they are submitted and scores them
/// concurrently, while resolving in submission order is what keeps
/// responses in request order on the wire. The shard blocks on a ticket
/// for at most the scoring still outstanding ahead of it. Responses
/// render into pooled buffers and ride the write queue whole; the caller
/// flushes them in one `writev`.
fn serve_spans(
    extracted: ExtractedSpans,
    conn: &mut Conn,
    pool: &mut BufPool,
    config: &NetConfig,
    server: &Arc<ScoringServer>,
    drain: &AtomicBool,
) {
    let mut pending = Vec::with_capacity(extracted.requests.len());
    for span in &extracted.requests {
        let parsed_at = Instant::now();
        match span {
            WireRequestSpan::Http { head, body_start, body_len } => {
                let body = conn.payload(*body_start, *body_len);
                let (reply, close) =
                    submit_http(head, body, parsed_at, config, server, drain, pool);
                if close {
                    conn.close_after_flush = true;
                }
                pending.push(reply);
            }
            WireRequestSpan::Binary { payload_start, payload_len, trace } => {
                let payload = conn.payload(*payload_start, *payload_len);
                let ctx = trace.unwrap_or(TraceContext::NONE);
                pending.push(submit_binary(payload, ctx, parsed_at, config, server, pool));
            }
        }
    }
    // Every span has been decoded; reclaim the consumed receive prefix
    // before ticket resolution can block.
    conn.compact();
    for reply in pending {
        match reply {
            PendingReply::Ready(buf) => conn.queue_buffer(buf),
            PendingReply::HttpTicket { ticket, keep_alive, parsed_at } => {
                let mut out = pool.checkout();
                match ticket.outcome() {
                    Ok(served) => match tasq::codec::to_bytes(&served.response) {
                        Ok(body) => http::write_response(
                            &mut out,
                            200,
                            "OK",
                            "application/octet-stream",
                            &body,
                            !keep_alive,
                        ),
                        Err(_) => http::write_response(
                            &mut out,
                            500,
                            "Internal Server Error",
                            "text/plain",
                            b"response encoding failed\n",
                            !keep_alive,
                        ),
                    },
                    Err(e) => http::write_response(
                        &mut out,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        format!("{e}\n").as_bytes(),
                        !keep_alive,
                    ),
                }
                if !keep_alive {
                    conn.close_after_flush = true;
                }
                net_metrics().wire_latency_us.record(parsed_at.elapsed().as_micros() as u64);
                conn.queue_buffer(out);
            }
            PendingReply::BinaryTicket { ticket, parsed_at } => {
                let mut out = pool.checkout();
                match ticket.outcome() {
                    Ok(served) => match tasq::codec::to_bytes(&served.response) {
                        Ok(body) => frame::write_response_frame(&mut out, FrameStatus::Ok, &body),
                        Err(_) => {
                            frame::write_response_frame(&mut out, FrameStatus::BadRequest, &[]);
                        }
                    },
                    Err(e) => frame::write_response_frame(
                        &mut out,
                        FrameStatus::from_request_error(&e),
                        &[],
                    ),
                }
                net_metrics().wire_latency_us.record(parsed_at.elapsed().as_micros() as u64);
                conn.queue_buffer(out);
            }
        }
    }
    if let Some(error) = extracted.error {
        net_metrics().parse_errors.inc();
        let mut out = pool.checkout();
        match error {
            WireError::Http(e) => {
                let (status, reason) = http::error_status(&e);
                http::write_response(
                    &mut out,
                    status,
                    reason,
                    "text/plain",
                    format!("{e:?}\n").as_bytes(),
                    true,
                );
            }
            WireError::FrameTooLarge(_) => {
                frame::write_response_frame(&mut out, FrameStatus::TooLarge, &[]);
            }
        }
        conn.queue_buffer(out);
        conn.close_after_flush = true;
    }
}

/// Route one HTTP request: scoring goes through `submit`; the
/// introspection endpoints answer inline. Returns the reply plus whether
/// the connection must close after the flush (the caller owns the
/// connection state; the body borrowed from its receive buffer keeps it
/// immutable here).
fn submit_http(
    head: &HttpHead,
    body: &[u8],
    parsed_at: Instant,
    config: &NetConfig,
    server: &Arc<ScoringServer>,
    drain: &AtomicBool,
    pool: &mut BufPool,
) -> (PendingReply, bool) {
    let keep_alive = head.keep_alive;
    let mut close = !keep_alive;
    let ctx = head.trace.unwrap_or(TraceContext::NONE);
    let reply = match (head.method.as_str(), head.path.as_str()) {
        ("POST", "/score") => match tasq::codec::from_bytes::<Job>(body) {
            Ok(job) => {
                // The wire span joins the client's trace when the request
                // carried a sampled `traceparent`; the serve-side spans
                // parent from the same context below it.
                let _span = wire_span(ctx, "net_http_request");
                match server.submit(ScoreRequest { job, deadline: config.deadline, trace: ctx }) {
                    Ok(ticket) => {
                        let reply = PendingReply::HttpTicket { ticket, keep_alive, parsed_at };
                        return (reply, close);
                    }
                    Err(e) => {
                        let (status, reason) = match &e {
                            tasq_serve::SubmitError::Overloaded { .. } => {
                                (429, "Too Many Requests")
                            }
                            tasq_serve::SubmitError::ShuttingDown => (503, "Service Unavailable"),
                            tasq_serve::SubmitError::InvalidPlan { .. } => (400, "Bad Request"),
                        };
                        ready_http(
                            pool,
                            status,
                            reason,
                            "text/plain",
                            format!("{e}\n").as_bytes(),
                            close,
                        )
                    }
                }
            }
            Err(_) => {
                net_metrics().parse_errors.inc();
                ready_http(
                    pool,
                    400,
                    "Bad Request",
                    "text/plain",
                    b"body is not a codec-encoded Job\n",
                    close,
                )
            }
        },
        ("GET", "/healthz") => ready_http(pool, 200, "OK", "text/plain", b"ok\n", close),
        ("GET", "/metrics") => {
            let body = Registry::global().render_prometheus();
            ready_http(pool, 200, "OK", "text/plain; version=0.0.4", body.as_bytes(), close)
        }
        ("GET", "/stats") => {
            let body = stats_json(&server.stats());
            ready_http(pool, 200, "OK", "application/json", body.as_bytes(), close)
        }
        ("GET", "/slo") => {
            let body = server.slo_json();
            ready_http(pool, 200, "OK", "application/json", body.as_bytes(), close)
        }
        ("GET", "/debug/slowest") => {
            let body = server.slowest_json();
            ready_http(pool, 200, "OK", "application/json", body.as_bytes(), close)
        }
        ("POST", "/drain") => {
            close = true;
            drain.store(true, Ordering::SeqCst);
            ready_http(pool, 200, "OK", "application/json", b"{\"draining\":true}", true)
        }
        _ => ready_http(pool, 404, "Not Found", "text/plain", b"not found\n", close),
    };
    net_metrics().wire_latency_us.record(parsed_at.elapsed().as_micros() as u64);
    (reply, close)
}

/// Decode and submit one binary frame payload. `ctx` is the trace
/// context carried in the frame preamble ([`TraceContext::NONE`] when
/// absent).
fn submit_binary(
    payload: &[u8],
    ctx: TraceContext,
    parsed_at: Instant,
    config: &NetConfig,
    server: &Arc<ScoringServer>,
    pool: &mut BufPool,
) -> PendingReply {
    let reply = match tasq::codec::from_bytes::<Job>(payload) {
        Ok(job) => {
            let _span = wire_span(ctx, "net_binary_request");
            match server.submit(ScoreRequest { job, deadline: config.deadline, trace: ctx }) {
                Ok(ticket) => return PendingReply::BinaryTicket { ticket, parsed_at },
                Err(e) => ready_frame(pool, FrameStatus::from_submit_error(&e), &[]),
            }
        }
        Err(_) => {
            net_metrics().parse_errors.inc();
            ready_frame(pool, FrameStatus::BadRequest, &[])
        }
    };
    net_metrics().wire_latency_us.record(parsed_at.elapsed().as_micros() as u64);
    reply
}

/// A wire-side span joined to the request's carried trace context: the
/// client's span id becomes the parent, so the server-side tree hangs
/// under the client's request span in a joined Perfetto view. Untraced
/// requests get a plain (root) span, which costs one relaxed load when
/// the subscriber is off.
fn wire_span(ctx: TraceContext, name: &'static str) -> tasq_obs::SpanGuard {
    let fields = [("trace", FieldValue::TraceId(ctx.trace_id))];
    if ctx.sampled {
        tasq_obs::span_with_parent(Level::Debug, name, ctx.span_id, &fields)
    } else {
        tasq_obs::span(Level::Debug, name, &fields)
    }
}

/// Hand-rolled JSON for the `/stats` endpoint (no serde_json in the
/// workspace; the same counters `serve --listen` prints when drained).
fn stats_json(stats: &ServerStatsSnapshot) -> String {
    format!(
        "{{\"submitted\":{},\"completed\":{},\"cache_hits\":{},\"model_scored\":{},\
         \"shed\":{},\"rejected\":{},\"worker_lost\":{},\"deadline_timeouts\":{},\
         \"resolved\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1}}}",
        stats.submitted,
        stats.completed,
        stats.cache_hits,
        stats.model_scored,
        stats.shed,
        stats.rejected,
        stats.worker_lost,
        stats.deadline_timeouts,
        stats.resolved(),
        stats.latency.p50_us,
        stats.latency.p99_us,
        stats.latency.p999_us,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_parseable_and_complete() {
        let stats = ServerStatsSnapshot::default();
        let json = stats_json(&stats);
        let parsed = tasq_obs::json::parse(&json).expect("stats json must parse");
        assert!(parsed.as_object().is_some(), "stats json must be an object");
        for key in ["submitted", "completed", "rejected", "resolved", "p50_us", "p99_us", "p999_us"]
        {
            assert!(parsed.get(key).is_some(), "missing {key} in {json}");
        }
    }
}
