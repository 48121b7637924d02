//! Incremental HTTP/1.1 request parsing and response rendering.
//!
//! The parser is a pull-style state machine over a connection's receive
//! buffer: feed it the buffer and a start offset, get back either a
//! complete request (with how many bytes it consumed), "need more bytes",
//! or a typed protocol error that maps onto a 4xx status. It never copies
//! the buffer while searching and never panics on torn, pipelined, or
//! hostile input — byte-at-a-time delivery must walk through the same
//! states as a single large read.
//!
//! Supported surface (all the serving front-end needs):
//! request line + headers, `Content-Length` bodies, keep-alive /
//! `Connection: close`, and a hard cap on header and body sizes. Chunked
//! transfer encoding is intentionally rejected (`411 Length Required`
//! semantics folded into 400): every producer in this workspace sends
//! explicit lengths.
//!
//! A `traceparent` header, when present and well-formed, is decoded into
//! [`HttpHead::trace`]; malformed values are ignored (the request just
//! proceeds untraced) — tracing is diagnostics, never a reason to 400.

use tasq_obs::TraceContext;

/// Why a request could not be parsed. Each variant maps to the HTTP
/// status the server should answer with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// Malformed request line, header, or unsupported framing → 400.
    BadRequest(&'static str),
    /// Headers exceeded the configured cap → 431 (reported as 400 family).
    HeadersTooLarge,
    /// Declared body exceeds the configured cap → 413.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
}

/// Parsed request line + headers; the body stays in the receive buffer
/// (see [`HttpParseSpan::Complete`] for its location).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpHead {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), e.g. `/score`.
    pub path: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Trace context from a well-formed `traceparent` header, if any.
    pub trace: Option<TraceContext>,
}

/// One step of the incremental parse. The body is reported as absolute
/// offsets into `buf` instead of being copied out, so the serving path
/// can decode straight from the receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpParseSpan {
    /// The buffer does not yet hold a complete request.
    NeedMore,
    /// A complete request was located.
    Complete {
        /// Parsed request line + connection semantics.
        head: HttpHead,
        /// Absolute offset of the body's first byte within `buf`.
        body_start: usize,
        /// Body byte length (0 when no `Content-Length`).
        body_len: usize,
        /// Total bytes consumed from `start` (head + body).
        used: usize,
    },
    /// Parsing failed; the connection should answer and close.
    Failed(HttpParseError),
}

/// Size caps enforced during parsing.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (including the blank line).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self { max_head_bytes: 8 * 1024, max_body_bytes: 1024 * 1024 }
    }
}

/// Try to parse one request starting at `buf[start..]` without copying
/// the body; offsets in the result are absolute into `buf`.
///
/// Stateless between calls: the caller re-invokes with the same `start`
/// as more bytes arrive (the head search is cheap and bounded by
/// `max_head_bytes`), then advances `start` by `used` on
/// [`HttpParseSpan::Complete`].
pub fn parse_request_span(buf: &[u8], start: usize, limits: &HttpLimits) -> HttpParseSpan {
    let start = start.min(buf.len());
    let input = &buf[start..];
    if input.is_empty() {
        return HttpParseSpan::NeedMore;
    }
    let Some(head_end) = find_head_end(input, limits.max_head_bytes) else {
        if input.len() > limits.max_head_bytes {
            return HttpParseSpan::Failed(HttpParseError::HeadersTooLarge);
        }
        return HttpParseSpan::NeedMore;
    };
    let head = &input[..head_end];
    let Ok(head_text) = std::str::from_utf8(head) else {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("non-UTF-8 header block"));
    };
    let mut lines = head_text.split("\r\n");
    let Some(request_line) = lines.next() else {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("empty head"));
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("malformed request line"));
    };
    if parts.next().is_some() {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("bad method"));
    }
    if path.is_empty() || !path.starts_with('/') {
        return HttpParseSpan::Failed(HttpParseError::BadRequest("bad request target"));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return HttpParseSpan::Failed(HttpParseError::BadRequest("unsupported HTTP version")),
    };

    let mut content_length = 0usize;
    let mut keep_alive = keep_alive_default;
    let mut trace = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return HttpParseSpan::Failed(HttpParseError::BadRequest("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(parsed) = value.parse::<usize>() else {
                return HttpParseSpan::Failed(HttpParseError::BadRequest("bad Content-Length"));
            };
            content_length = parsed;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("traceparent") {
            // Lenient by design: junk traceparent values parse to None
            // and the request proceeds untraced.
            trace = TraceContext::parse_traceparent(value);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return HttpParseSpan::Failed(HttpParseError::BadRequest(
                "chunked transfer encoding unsupported",
            ));
        }
    }
    if content_length > limits.max_body_bytes {
        return HttpParseSpan::Failed(HttpParseError::BodyTooLarge {
            declared: content_length,
            limit: limits.max_body_bytes,
        });
    }
    let body_offset = head_end + 4;
    if input.len() < body_offset + content_length {
        return HttpParseSpan::NeedMore;
    }
    HttpParseSpan::Complete {
        head: HttpHead {
            method: method.to_string(),
            path: path.to_string(),
            keep_alive,
            trace,
        },
        body_start: start + body_offset,
        body_len: content_length,
        used: body_offset + content_length,
    }
}

/// Find the byte offset of `\r\n\r\n` (start of the blank line) within
/// the first `cap + 4` bytes, or `None` if not yet present.
fn find_head_end(input: &[u8], cap: usize) -> Option<usize> {
    let window = &input[..input.len().min(cap.saturating_add(4))];
    window.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Render a response head + body into `out`. `content_type` is sent
/// verbatim; connection close is signalled explicitly when `close`.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("content-type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
    if close {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// The status line (code + reason) a parse error maps to.
pub fn error_status(error: &HttpParseError) -> (u16, &'static str) {
    match error {
        HttpParseError::BadRequest(_) => (400, "Bad Request"),
        HttpParseError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
        HttpParseError::BodyTooLarge { .. } => (413, "Payload Too Large"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> HttpLimits {
        HttpLimits::default()
    }

    /// The body bytes a completed parse located in `buf`.
    fn body(buf: &[u8], body_start: usize, body_len: usize) -> &[u8] {
        &buf[body_start..body_start + body_len]
    }

    #[test]
    fn parses_a_complete_get() {
        let raw = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
        match parse_request_span(raw, 0, &limits()) {
            HttpParseSpan::Complete { head, body_start, body_len, used } => {
                assert_eq!(head.method, "GET");
                assert_eq!(head.path, "/healthz");
                assert!(body(raw, body_start, body_len).is_empty());
                assert!(head.keep_alive);
                assert_eq!(used, raw.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_walks_need_more_then_completes() {
        let raw = b"POST /score HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        let mut buf = Vec::new();
        for (i, &byte) in raw.iter().enumerate() {
            buf.push(byte);
            match parse_request_span(&buf, 0, &limits()) {
                HttpParseSpan::NeedMore => {
                    assert!(i + 1 < raw.len(), "must complete on last byte")
                }
                HttpParseSpan::Complete { body_start, body_len, used, .. } => {
                    assert_eq!(i + 1, raw.len());
                    assert_eq!(body(&buf, body_start, body_len), b"abcd");
                    assert_eq!(used, raw.len());
                }
                HttpParseSpan::Failed(e) => panic!("unexpected failure at byte {i}: {e:?}"),
            }
        }
    }

    #[test]
    fn pipelined_requests_consume_in_order() {
        let raw: Vec<u8> = [
            &b"POST /score HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"[..],
            &b"GET /metrics HTTP/1.1\r\n\r\n"[..],
        ]
        .concat();
        let HttpParseSpan::Complete { head: first, body_start, body_len, used: consumed } =
            parse_request_span(&raw, 0, &limits())
        else {
            panic!("first request should parse");
        };
        assert_eq!(first.path, "/score");
        assert_eq!(body(&raw, body_start, body_len), b"hi");
        let HttpParseSpan::Complete { head: second, used: consumed2, .. } =
            parse_request_span(&raw, consumed, &limits())
        else {
            panic!("second request should parse");
        };
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n";
        let HttpParseSpan::Complete { head, .. } = parse_request_span(raw, 0, &limits()) else {
            panic!("should parse");
        };
        assert!(!head.keep_alive);
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        let HttpParseSpan::Complete { head, .. } = parse_request_span(raw, 0, &limits()) else {
            panic!("should parse");
        };
        assert!(!head.keep_alive);
    }

    #[test]
    fn oversized_declared_body_fails_as_413() {
        let raw = b"POST /score HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
        match parse_request_span(raw, 0, &limits()) {
            HttpParseSpan::Failed(e @ HttpParseError::BodyTooLarge { declared, .. }) => {
                assert_eq!(declared, 999_999_999);
                assert_eq!(error_status(&e).0, 413);
            }
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn oversized_headers_fail_without_completing() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= limits().max_head_bytes {
            raw.extend_from_slice(b"x-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        match parse_request_span(&raw, 0, &limits()) {
            HttpParseSpan::Failed(HttpParseError::HeadersTooLarge) => {}
            other => panic!("expected header cap, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_fail_typed_never_panic() {
        let cases: &[&[u8]] = &[
            b"\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: -4\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: 4e2\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"\xff\xfe\x00 / HTTP/1.1\r\n\r\n",
        ];
        for case in cases {
            match parse_request_span(case, 0, &limits()) {
                HttpParseSpan::Failed(e) => {
                    let (status, _) = error_status(&e);
                    assert!((400..500).contains(&status));
                }
                other => panic!("{case:?} should fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn traceparent_header_is_decoded_into_the_head() {
        let ctx = TraceContext::mint(true);
        let raw = format!(
            "POST /score HTTP/1.1\r\ntraceparent: {}\r\ncontent-length: 2\r\n\r\nhi",
            ctx.traceparent()
        );
        let HttpParseSpan::Complete { head, .. } =
            parse_request_span(raw.as_bytes(), 0, &limits())
        else {
            panic!("should parse");
        };
        assert_eq!(head.trace, Some(ctx));
    }

    #[test]
    fn malformed_traceparent_is_ignored_not_rejected() {
        for junk in ["nonsense", "00-zz-zz-zz", "ff-00-00-00", "00-0-0-0", ""] {
            let raw = format!("GET /healthz HTTP/1.1\r\ntraceparent: {junk}\r\n\r\n");
            let HttpParseSpan::Complete { head, .. } =
                parse_request_span(raw.as_bytes(), 0, &limits())
            else {
                panic!("request with junk traceparent {junk:?} must still parse");
            };
            assert_eq!(head.trace, None, "junk {junk:?} must not decode");
        }
    }

    #[test]
    fn response_renders_with_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "Too Many Requests", "text/plain", b"slow down", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 9\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nslow down"));
    }
}
