//! # tasq-net — the networked serving front-end
//!
//! Turns the in-process [`tasq_serve::ScoringServer`] into an actual
//! network server, std-only and dependency-free down to the syscall:
//!
//! - [`sys`] — direct `epoll`/`accept4`/`setsockopt`/`read`/`write`
//!   syscalls (no libc), `EINTR` retry, typed [`sys::NetError`]; fds are
//!   `OwnedFd` (closed on drop) and borrowed per call.
//! - [`http`] — incremental HTTP/1.1 parsing (request line + headers +
//!   `Content-Length` bodies, keep-alive) that survives torn and
//!   pipelined delivery.
//! - [`frame`] — length-prefixed binary framing for peak throughput,
//!   selected by a one-byte preamble.
//! - [`conn`] — per-connection buffers, protocol sniffing, in-order
//!   zero-copy request extraction (spans into the receive buffer), and a
//!   `writev`-gathered write queue with exact partial-write resumption.
//! - [`pool`] — bounded per-shard [`BufPool`] of reusable IO buffers,
//!   checked out on accept / per response and restored on close/flush.
//! - [`server`] — [`NetServer`]: sharded edge-triggered epoll event
//!   loops feeding `ScoringServer::submit` — once per decoded request,
//!   the same entry point in-process callers use — so admission
//!   control, circuit breaking, and exact-accounting drain carry over to
//!   the wire unchanged; every request, hit or miss, is answered on the
//!   event loop itself, and every readiness event's responses leave in a
//!   single `writev` (`net_syscalls_total{op}`).
//! - [`client`] — blocking persistent-connection clients for both
//!   framings (tests + load generation).
//! - [`pacer`] — token-bucket QPS pacing for the load generator.
//!
//! See DESIGN.md § "Networked serving" for the event-loop state machine
//! and the backpressure path from socket to reject.

pub mod client;
pub mod conn;
pub mod frame;
pub mod http;
pub mod pacer;
pub mod pool;
pub mod server;
#[expect(unsafe_code, reason = "the audited raw-syscall shim: the workspace's unsafe surface")]
pub mod sys;

pub use client::{BinaryClient, HttpClient, HttpResponse, ScoreOutcome};
pub use conn::{Conn, ExtractedSpans, Protocol, WireRequestSpan};
pub use frame::{FrameStatus, BINARY_PREAMBLE, MAX_FRAME_BYTES, TRACE_FLAG};
pub use http::{HttpHead, HttpLimits};
pub use pacer::TokenBucket;
pub use pool::BufPool;
pub use server::{net_metrics, NetConfig, NetMetrics, NetServer};
pub use sys::{syscall_counters, NetError};
