//! Per-connection state: receive/transmit buffers, protocol sniffing,
//! and incremental request extraction for both wire framings.
//!
//! A connection starts in [`Protocol::Unknown`]; the first byte decides
//! between binary framing ([`crate::frame::BINARY_PREAMBLE`]) and
//! HTTP/1.1 (anything else — request lines begin with an uppercase
//! ASCII method). From then on the connection never switches protocols.
//!
//! Both directions are zero-copy on the hot path:
//!
//! - **Receive**: [`Conn::extract_spans`] locates complete requests as
//!   *offsets* into the receive buffer (no per-request `to_vec()`); the
//!   server borrows each payload via [`Conn::payload`] exactly when it
//!   decodes, and [`Conn::compact`] reclaims the consumed prefix once
//!   per readiness event.
//! - **Transmit**: responses are whole pooled buffers queued with
//!   [`Conn::queue_buffer`]; [`Conn::flush`] gathers every queued buffer
//!   into a single `writev`, resumes exactly across partial writes (even
//!   mid-iovec), and returns fully written buffers to the shard's
//!   [`BufPool`].

use crate::frame::{self, FrameParseSpan};
use crate::http::{self, HttpHead, HttpLimits, HttpParseError, HttpRequest};
use crate::pool::BufPool;
use crate::sys::{self, IoVec, NetError};
use std::collections::VecDeque;

/// Most iovecs gathered into one `writev`. Linux caps a single call at
/// `IOV_MAX` (1024); 64 already amortizes the syscall across a large
/// pipelined burst without building huge transient arrays.
pub const MAX_WRITE_IOVS: usize = 64;

/// Wire protocol selected by the connection's first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// No bytes received yet.
    Unknown,
    /// HTTP/1.1 with `Content-Length` bodies.
    Http,
    /// Length-prefixed binary frames carrying codec-encoded jobs.
    Binary,
}

/// One request extracted from the stream, in arrival order (owning
/// form; the serving path uses [`WireRequestSpan`] instead).
#[derive(Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// A parsed HTTP request.
    Http(HttpRequest),
    /// A binary frame payload (codec-encoded `Job`, not yet decoded).
    Binary(Vec<u8>),
}

/// One request located in the receive buffer: payloads are absolute
/// offsets into the buffer, valid until the next [`Conn::fill`] /
/// [`Conn::compact`]; borrow the bytes with [`Conn::payload`].
#[derive(Debug, PartialEq, Eq)]
pub enum WireRequestSpan {
    /// A parsed HTTP head with its body's location.
    Http {
        /// Request line + connection semantics.
        head: HttpHead,
        /// Absolute offset of the body's first byte.
        body_start: usize,
        /// Body length in bytes.
        body_len: usize,
    },
    /// A binary frame payload's location (codec-encoded `Job`).
    Binary {
        /// Absolute offset of the payload's first byte.
        payload_start: usize,
        /// Payload length in bytes.
        payload_len: usize,
        /// Trace context carried in the frame's optional trace field.
        trace: Option<tasq_obs::TraceContext>,
    },
}

/// A protocol error that terminates the connection after one last
/// response is flushed.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// HTTP parse failure (maps to 400/413/431).
    Http(HttpParseError),
    /// Binary frame declared a payload over the cap.
    FrameTooLarge(usize),
}

/// Outcome of draining newly arrived bytes into requests (owning form).
#[derive(Debug, PartialEq, Eq)]
pub struct Extracted {
    /// Complete requests, in order.
    pub requests: Vec<WireRequest>,
    /// Fatal protocol error hit after the last complete request, if any.
    pub error: Option<WireError>,
}

/// Outcome of locating newly arrived requests (zero-copy form).
#[derive(Debug, PartialEq, Eq)]
pub struct ExtractedSpans {
    /// Complete requests, in order, as receive-buffer spans.
    pub requests: Vec<WireRequestSpan>,
    /// Fatal protocol error hit after the last complete request, if any.
    pub error: Option<WireError>,
}

/// State for one accepted socket.
pub struct Conn {
    fd: i32,
    protocol: Protocol,
    rbuf: Vec<u8>,
    consumed: usize,
    /// Queued response buffers, oldest first; each is flushed in order
    /// and returned to the pool once fully written.
    wqueue: VecDeque<Vec<u8>>,
    /// Bytes of the front queued buffer already written.
    wfront: usize,
    /// Close once the transmit buffer empties (error answered or
    /// `Connection: close` honoured).
    pub close_after_flush: bool,
}

/// What a read pass observed about the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Socket drained to `EAGAIN`; `bytes` new bytes buffered.
    Drained {
        /// Newly buffered byte count (may be 0).
        bytes: usize,
    },
    /// Peer closed its end (EOF or reset).
    Closed,
}

impl Conn {
    /// Wrap a freshly accepted nonblocking socket fd, taking ownership
    /// of both the fd (closed on drop) and a receive buffer — typically
    /// checked out of the shard's [`BufPool`] and handed back via
    /// [`Conn::reclaim`] when the connection closes.
    pub fn from_fd(fd: i32, rbuf: Vec<u8>) -> Self {
        Self {
            fd,
            protocol: Protocol::Unknown,
            rbuf,
            consumed: 0,
            wqueue: VecDeque::new(),
            wfront: 0,
            close_after_flush: false,
        }
    }

    /// [`Conn::from_fd`] with a fresh (unpooled) receive buffer.
    pub fn new(fd: i32) -> Self {
        Self::from_fd(fd, Vec::with_capacity(4096))
    }

    /// The underlying fd (for epoll registration).
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// The sniffed protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Read until `EAGAIN` or EOF, appending to the receive buffer.
    /// Edge-triggered epoll requires draining the socket fully here.
    pub fn fill(&mut self) -> Result<ReadOutcome, NetError> {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match sys::read(self.fd, &mut chunk) {
                Ok(0) => return Ok(ReadOutcome::Closed),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(NetError::WouldBlock) => return Ok(ReadOutcome::Drained { bytes: total }),
                Err(NetError::PeerClosed) => return Ok(ReadOutcome::Closed),
                Err(e) => return Err(e),
            }
        }
    }

    /// Locate every complete request currently buffered without copying
    /// any payload, sniffing the protocol on first bytes. Stops at (and
    /// reports) the first fatal protocol error.
    ///
    /// Returned spans stay valid until the receive buffer next changes;
    /// serve them (borrowing via [`Conn::payload`]) and then call
    /// [`Conn::compact`] before the next [`Conn::fill`].
    pub fn extract_spans(&mut self, limits: &HttpLimits) -> ExtractedSpans {
        let mut requests = Vec::new();
        let mut error = None;
        if self.protocol == Protocol::Unknown && self.consumed < self.rbuf.len() {
            if self.rbuf[self.consumed] == frame::BINARY_PREAMBLE {
                self.protocol = Protocol::Binary;
                self.consumed += 1;
            } else {
                self.protocol = Protocol::Http;
            }
        }
        loop {
            match self.protocol {
                Protocol::Unknown => break,
                Protocol::Http => {
                    match http::parse_request_span(&self.rbuf, self.consumed, limits) {
                        http::HttpParseSpan::NeedMore => break,
                        http::HttpParseSpan::Complete { head, body_start, body_len, used } => {
                            self.consumed += used;
                            requests.push(WireRequestSpan::Http { head, body_start, body_len });
                        }
                        http::HttpParseSpan::Failed(e) => {
                            error = Some(WireError::Http(e));
                            break;
                        }
                    }
                }
                Protocol::Binary => match frame::parse_frame_span(&self.rbuf, self.consumed) {
                    FrameParseSpan::NeedMore => break,
                    FrameParseSpan::Complete { payload_start, payload_len, used, trace } => {
                        self.consumed += used;
                        requests.push(WireRequestSpan::Binary { payload_start, payload_len, trace });
                    }
                    FrameParseSpan::TooLarge(declared) => {
                        error = Some(WireError::FrameTooLarge(declared));
                        break;
                    }
                },
            }
        }
        ExtractedSpans { requests, error }
    }

    /// Borrow the bytes a span points at.
    pub fn payload(&self, start: usize, len: usize) -> &[u8] {
        &self.rbuf[start..start + len]
    }

    /// Reclaim the consumed receive-buffer prefix. Invalidates any spans
    /// from earlier [`Conn::extract_spans`] calls; call once per
    /// readiness event after every located request has been served.
    pub fn compact(&mut self) {
        if self.consumed == 0 {
            return;
        }
        if self.consumed >= self.rbuf.len() {
            self.rbuf.clear();
        } else {
            self.rbuf.drain(..self.consumed);
        }
        self.consumed = 0;
    }

    /// Extract every complete request currently buffered, copying
    /// payloads out (convenience wrapper over [`Conn::extract_spans`];
    /// the server uses the span form and skips these copies).
    pub fn extract(&mut self, limits: &HttpLimits) -> Extracted {
        let spans = self.extract_spans(limits);
        let requests = spans
            .requests
            .into_iter()
            .map(|span| match span {
                WireRequestSpan::Http { head, body_start, body_len } => {
                    WireRequest::Http(HttpRequest {
                        method: head.method,
                        path: head.path,
                        body: self.payload(body_start, body_len).to_vec(),
                        keep_alive: head.keep_alive,
                    })
                }
                WireRequestSpan::Binary { payload_start, payload_len, .. } => {
                    WireRequest::Binary(self.payload(payload_start, payload_len).to_vec())
                }
            })
            .collect();
        self.compact();
        Extracted { requests, error: spans.error }
    }

    /// Queue an owned response buffer for transmission (zero-copy: the
    /// buffer itself rides the write queue and is returned to the pool
    /// by [`Conn::flush`] once fully written). Empty buffers are dropped.
    pub fn queue_buffer(&mut self, buf: Vec<u8>) {
        if !buf.is_empty() {
            self.wqueue.push_back(buf);
        }
    }

    /// Queue response bytes for transmission, copying them into a fresh
    /// buffer (compatibility path; the server renders straight into
    /// pooled buffers and uses [`Conn::queue_buffer`]).
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.queue_buffer(bytes.to_vec());
    }

    /// Bytes still pending transmission.
    pub fn pending_write(&self) -> usize {
        let queued: usize = self.wqueue.iter().map(Vec::len).sum();
        queued - self.wfront
    }

    /// Gather the pending write queue into iovecs (front buffer offset
    /// by what is already written), up to [`MAX_WRITE_IOVS`] entries.
    /// The iovecs alias the queued buffers: consume them (via
    /// [`sys::writev`]) before the queue next changes.
    pub fn gather(&self, iovs: &mut Vec<IoVec>) {
        iovs.clear();
        for (i, buf) in self.wqueue.iter().take(MAX_WRITE_IOVS).enumerate() {
            if i == 0 {
                iovs.push(IoVec::new(&buf[self.wfront..]));
            } else {
                iovs.push(IoVec::new(buf));
            }
        }
    }

    /// Record that the kernel accepted `n` more bytes of the write
    /// queue: advances across iovec/buffer boundaries exactly, popping
    /// fully written buffers back into `pool`.
    pub fn advance_write(&mut self, mut n: usize, pool: &mut BufPool) {
        while let Some(front) = self.wqueue.front() {
            let remaining = front.len() - self.wfront;
            if n < remaining {
                self.wfront += n;
                return;
            }
            n -= remaining;
            self.wfront = 0;
            if let Some(spent) = self.wqueue.pop_front() {
                pool.restore(spent);
            }
            if n == 0 {
                return;
            }
        }
    }

    /// Write until the queue empties or the socket blocks, gathering
    /// all queued responses into single `writev` calls (a lone buffer
    /// uses plain `write`). Returns the bytes written this pass;
    /// `pending_write() > 0` afterwards means the caller must arm
    /// `EPOLLOUT` and retry on writability.
    pub fn flush(&mut self, pool: &mut BufPool) -> Result<usize, NetError> {
        let mut pass = 0usize;
        let mut iovs: Vec<IoVec> = Vec::new();
        while let Some(front) = self.wqueue.front() {
            let wrote = if self.wqueue.len() > 1 {
                self.gather(&mut iovs);
                sys::writev(self.fd, &iovs)
            } else {
                sys::write(self.fd, &front[self.wfront..])
            };
            match wrote {
                Ok(n) => {
                    pass += n;
                    self.advance_write(n, pool);
                }
                Err(NetError::WouldBlock) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(pass)
    }

    /// Hand every buffer this connection holds back to the pool (the
    /// receive buffer plus any unflushed responses). Call when removing
    /// the connection from the event loop, before drop closes the fd.
    pub fn reclaim(&mut self, pool: &mut BufPool) {
        pool.restore(std::mem::take(&mut self.rbuf));
        self.consumed = 0;
        self.wfront = 0;
        while let Some(buf) = self.wqueue.pop_front() {
            pool.restore(buf);
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        sys::close(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_request_frame;
    use std::os::fd::IntoRawFd;

    /// Build a `Conn` around an fd we never read/write (extraction and
    /// buffering logic is exercised by stuffing `rbuf` directly).
    fn detached_conn() -> Conn {
        // fd -1 is invalid; Drop's close() ignores the error.
        Conn::new(-1)
    }

    fn push(conn: &mut Conn, bytes: &[u8]) {
        conn.rbuf.extend_from_slice(bytes);
    }

    /// The exact bytes the write queue still owes the socket.
    fn queued_bytes(conn: &Conn) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, buf) in conn.wqueue.iter().enumerate() {
            if i == 0 {
                out.extend_from_slice(&buf[conn.wfront..]);
            } else {
                out.extend_from_slice(buf);
            }
        }
        out
    }

    /// Tiny deterministic xorshift for fuzz-style tests (the workspace
    /// lint bans unseeded RNGs; this needs no dependency at all).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn sniffs_http_and_extracts_pipelined_requests() {
        let mut conn = detached_conn();
        push(
            &mut conn,
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /score HTTP/1.1\r\ncontent-length: 2\r\n\r\nok",
        );
        let out = conn.extract(&HttpLimits::default());
        assert!(out.error.is_none());
        assert_eq!(out.requests.len(), 2);
        assert_eq!(conn.protocol(), Protocol::Http);
        match &out.requests[1] {
            WireRequest::Http(req) => assert_eq!(req.body, b"ok"),
            other => panic!("expected http, got {other:?}"),
        }
    }

    #[test]
    fn sniffs_binary_from_preamble_and_frames() {
        let mut conn = detached_conn();
        let mut wire = vec![frame::BINARY_PREAMBLE];
        write_request_frame(&mut wire, b"payload-1");
        write_request_frame(&mut wire, b"payload-2");
        push(&mut conn, &wire);
        let out = conn.extract(&HttpLimits::default());
        assert!(out.error.is_none());
        assert_eq!(conn.protocol(), Protocol::Binary);
        assert_eq!(
            out.requests,
            vec![
                WireRequest::Binary(b"payload-1".to_vec()),
                WireRequest::Binary(b"payload-2".to_vec()),
            ]
        );
    }

    #[test]
    fn span_extraction_borrows_without_copying() {
        let mut conn = detached_conn();
        let mut wire = vec![frame::BINARY_PREAMBLE];
        write_request_frame(&mut wire, b"alpha");
        push(&mut conn, &wire);
        push(&mut conn, b"");
        let out = conn.extract_spans(&HttpLimits::default());
        assert!(out.error.is_none());
        let [WireRequestSpan::Binary { payload_start, payload_len, trace }] = out.requests[..]
        else {
            panic!("expected one binary span, got {:?}", out.requests);
        };
        assert_eq!(trace, None);
        assert_eq!(conn.payload(payload_start, payload_len), b"alpha");
        // Spans do not drain the buffer; compact() reclaims the prefix.
        assert_eq!(conn.consumed, wire.len());
        conn.compact();
        assert_eq!(conn.consumed, 0);
        assert!(conn.rbuf.is_empty());
    }

    #[test]
    fn torn_delivery_never_misframes() {
        let mut wire = vec![frame::BINARY_PREAMBLE];
        write_request_frame(&mut wire, b"abc");
        write_request_frame(&mut wire, b"defgh");
        let mut conn = detached_conn();
        let mut got = Vec::new();
        for &byte in &wire {
            push(&mut conn, &[byte]);
            let out = conn.extract(&HttpLimits::default());
            assert!(out.error.is_none());
            got.extend(out.requests);
        }
        assert_eq!(
            got,
            vec![WireRequest::Binary(b"abc".to_vec()), WireRequest::Binary(b"defgh".to_vec())]
        );
    }

    #[test]
    fn traced_frames_survive_torn_delivery_with_context_intact() {
        let ctx = tasq_obs::TraceContext::mint(true);
        let mut wire = vec![frame::BINARY_PREAMBLE];
        frame::write_request_frame_traced(&mut wire, b"traced", ctx);
        write_request_frame(&mut wire, b"plain");
        let mut conn = detached_conn();
        let mut got = Vec::new();
        for &byte in &wire {
            push(&mut conn, &[byte]);
            let out = conn.extract_spans(&HttpLimits::default());
            assert!(out.error.is_none());
            for span in out.requests {
                let WireRequestSpan::Binary { payload_start, payload_len, trace } = span else {
                    panic!("expected binary span");
                };
                got.push((conn.payload(payload_start, payload_len).to_vec(), trace));
            }
            conn.compact();
        }
        assert_eq!(
            got,
            vec![(b"traced".to_vec(), Some(ctx)), (b"plain".to_vec(), None)]
        );
    }

    #[test]
    fn error_reported_after_preceding_requests() {
        let mut conn = detached_conn();
        push(
            &mut conn,
            b"GET / HTTP/1.1\r\n\r\nPOST /score HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
        );
        let out = conn.extract(&HttpLimits::default());
        assert_eq!(out.requests.len(), 1);
        assert!(matches!(
            out.error,
            Some(WireError::Http(HttpParseError::BodyTooLarge { .. }))
        ));
    }

    #[test]
    fn byte_at_a_time_advance_resumes_exactly() {
        let mut pool = BufPool::new(8);
        let mut conn = detached_conn();
        let mut expected = Vec::new();
        for i in 0..5u8 {
            let chunk: Vec<u8> = (0..7 + usize::from(i)).map(|j| i * 31 + j as u8).collect();
            expected.extend_from_slice(&chunk);
            conn.queue_buffer(chunk);
        }
        let mut sink = Vec::new();
        while conn.pending_write() > 0 {
            let owed = queued_bytes(&conn);
            sink.push(owed[0]);
            conn.advance_write(1, &mut pool);
        }
        assert_eq!(sink, expected, "byte-at-a-time resumption duplicated or dropped bytes");
        assert_eq!(pool.pooled(), 5, "every fully written buffer returns to the pool");
    }

    #[test]
    fn random_partial_writes_across_iovec_boundaries_resume_exactly() {
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for round in 0..50 {
            let mut pool = BufPool::new(64);
            let mut conn = detached_conn();
            let mut expected = Vec::new();
            let buffers = 2 + (rng.next() % 9) as usize;
            for b in 0..buffers {
                let len = 1 + (rng.next() % 40) as usize;
                let chunk: Vec<u8> =
                    (0..len).map(|j| (round * 7 + b * 13 + j) as u8).collect();
                expected.extend_from_slice(&chunk);
                conn.queue_buffer(chunk);
            }
            // The gathered iovecs must describe exactly the owed bytes.
            let mut iovs = Vec::new();
            conn.gather(&mut iovs);
            let gathered: usize = iovs.iter().map(IoVec::len).sum();
            assert_eq!(gathered, conn.pending_write());

            // Simulate a kernel that accepts arbitrary k bytes per call,
            // deliberately landing mid-iovec most of the time.
            let mut sink = Vec::new();
            while conn.pending_write() > 0 {
                let pending = conn.pending_write();
                let k = 1 + (rng.next() as usize) % pending;
                let owed = queued_bytes(&conn);
                sink.extend_from_slice(&owed[..k]);
                conn.advance_write(k, &mut pool);
            }
            assert_eq!(sink, expected, "round {round}: resumption was not exact");
            assert_eq!(pool.pooled(), buffers.min(64));
        }
    }

    #[test]
    fn flush_resumes_exactly_across_partial_socket_writes() {
        if !sys::supported() {
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::net::TcpStream::connect(addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let (mut reader, _) = listener.accept().expect("accept");
        reader.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout");

        // Queue far more than the socket buffer holds so writev is
        // forced into partial acceptance mid-iovec.
        let mut pool = BufPool::new(4);
        let mut conn = Conn::from_fd(client.into_raw_fd(), pool.checkout());
        let mut expected = Vec::new();
        for i in 0..400u32 {
            let chunk: Vec<u8> = (0..1024).map(|j| (i as usize * 131 + j) as u8).collect();
            expected.extend_from_slice(&chunk);
            conn.queue_buffer(chunk);
        }

        let mut received = Vec::new();
        let mut scratch = [0u8; 16 * 1024];
        while conn.pending_write() > 0 {
            conn.flush(&mut pool).expect("flush");
            while received.len() < expected.len() {
                match std::io::Read::read(&mut reader, &mut scratch) {
                    Ok(0) => panic!("writer closed early"),
                    Ok(n) => {
                        received.extend_from_slice(&scratch[..n]);
                        if conn.pending_write() > 0 {
                            break; // let the writer make progress again
                        }
                    }
                    Err(e) => panic!("reader failed: {e}"),
                }
            }
        }
        while received.len() < expected.len() {
            let n = std::io::Read::read(&mut reader, &mut scratch).expect("tail read");
            assert!(n > 0, "stream ended short");
            received.extend_from_slice(&scratch[..n]);
        }
        assert_eq!(received.len(), expected.len());
        assert_eq!(received, expected, "bytes duplicated or dropped across partial writes");
    }

    #[test]
    fn reclaim_returns_all_buffers_to_the_pool() {
        let mut pool = BufPool::new(8);
        let mut conn = Conn::from_fd(-1, pool.checkout());
        conn.queue_buffer(pool.checkout().tap_extend(b"pending"));
        assert_eq!(pool.pooled(), 0);
        conn.reclaim(&mut pool);
        assert_eq!(pool.pooled(), 2);
        assert_eq!(conn.pending_write(), 0);
    }

    /// Test-only sugar: extend and return (keeps checkout chains terse).
    trait TapExtend {
        fn tap_extend(self, bytes: &[u8]) -> Self;
    }

    impl TapExtend for Vec<u8> {
        fn tap_extend(mut self, bytes: &[u8]) -> Self {
            self.extend_from_slice(bytes);
            self
        }
    }
}
