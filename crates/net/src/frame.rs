//! Length-prefixed binary framing — the peak-throughput wire mode.
//!
//! A client opts in by sending a single [`BINARY_PREAMBLE`] byte (0x01)
//! as the first byte on the connection; HTTP request lines always start
//! with an uppercase ASCII letter, so one byte is enough to sniff the
//! protocol. After the preamble the stream is a sequence of frames:
//!
//! ```text
//! request:  [u32 LE body len][body = tasq::codec(Job)]
//! traced:   [u32 LE body len | TRACE_FLAG][25-byte TraceContext][payload]
//! response: [u32 LE rest len][status: u8][payload = tasq::codec(ScoreResponse) if status == 0]
//! ```
//!
//! A request's length word may set [`TRACE_FLAG`] (bit 31 — safe because
//! [`MAX_FRAME_BYTES`] keeps legitimate lengths far below it) to declare
//! that the body opens with a fixed [`TraceContext::WIRE_BYTES`] trace
//! field before the payload. The length word counts the whole body
//! (trace field included) and stays the sole framing authority: a
//! malformed or truncated trace field is *ignored* (the request proceeds
//! untraced or fails `Job` decode) but can never desynchronize framing.
//!
//! The response length counts the status byte plus the payload, so a
//! reader can always frame on the prefix alone. Error responses carry
//! the status byte and an empty payload.

use tasq::pipeline::ScoreResponse;
use tasq_obs::TraceContext;
use tasq_serve::{RequestError, SubmitError};

/// First byte a client sends to select binary framing for the connection.
pub const BINARY_PREAMBLE: u8 = 0x01;

/// Hard cap on a request frame's declared payload length.
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Bit set in a request frame's length word when the body opens with a
/// [`TraceContext`] wire field. The remaining 31 bits are the body
/// length, which [`MAX_FRAME_BYTES`] keeps well clear of this bit.
pub const TRACE_FLAG: u32 = 1 << 31;

/// Status byte in a binary response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameStatus {
    /// Scored successfully; payload is a codec-encoded `ScoreResponse`.
    Ok = 0,
    /// Admission control refused the request (every in-flight slot taken).
    Overloaded = 1,
    /// Server is closed for drain; no new work accepted.
    ShuttingDown = 2,
    /// Scoring this request panicked.
    WorkerLost = 3,
    /// The request's deadline elapsed before completion.
    DeadlineExceeded = 4,
    /// The request payload did not decode as a `Job`, or decoded to a job
    /// whose plan cannot be staged.
    BadRequest = 5,
    /// The declared frame length exceeded [`MAX_FRAME_BYTES`].
    TooLarge = 6,
}

impl FrameStatus {
    /// Decode a status byte from the wire.
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Ok),
            1 => Some(Self::Overloaded),
            2 => Some(Self::ShuttingDown),
            3 => Some(Self::WorkerLost),
            4 => Some(Self::DeadlineExceeded),
            5 => Some(Self::BadRequest),
            6 => Some(Self::TooLarge),
            _ => None,
        }
    }

    /// Map a submit-side rejection to its wire status.
    pub fn from_submit_error(error: &SubmitError) -> Self {
        match error {
            SubmitError::Overloaded { .. } => Self::Overloaded,
            SubmitError::ShuttingDown => Self::ShuttingDown,
            SubmitError::InvalidPlan { .. } => Self::BadRequest,
        }
    }

    /// Map a resolution-side failure to its wire status.
    pub fn from_request_error(error: &RequestError) -> Self {
        match error {
            RequestError::WorkerLost => Self::WorkerLost,
            RequestError::DeadlineExceeded { .. } => Self::DeadlineExceeded,
        }
    }
}

/// One step of pulling a request frame out of a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameParse {
    /// The buffer does not yet hold the full frame.
    NeedMore,
    /// A complete payload plus total bytes consumed (prefix + payload).
    Complete(Vec<u8>, usize),
    /// The declared length exceeds [`MAX_FRAME_BYTES`]; answer
    /// [`FrameStatus::TooLarge`] and close.
    TooLarge(usize),
}

/// One step of locating a request frame in a receive buffer without
/// copying it: the zero-copy twin of [`FrameParse`], reporting *where*
/// the payload sits instead of materializing it.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameParseSpan {
    /// The buffer does not yet hold the full frame.
    NeedMore,
    /// A complete frame was located.
    Complete {
        /// Absolute offset of the payload's first byte within `buf`.
        payload_start: usize,
        /// Payload byte length.
        payload_len: usize,
        /// Total bytes consumed from `start` (prefix + body).
        used: usize,
        /// Trace context carried by the frame, if the length word set
        /// [`TRACE_FLAG`] and the field decoded. `None` never fails the
        /// frame — the request just proceeds untraced.
        trace: Option<TraceContext>,
    },
    /// The declared length exceeds [`MAX_FRAME_BYTES`]; answer
    /// [`FrameStatus::TooLarge`] and close.
    TooLarge(usize),
}

/// Locate one request frame starting at `buf[start..]` without copying
/// the payload. Offsets in the result are absolute into `buf`, so the
/// caller can keep extracting pipelined frames and only borrow payload
/// slices when each request is actually served.
pub fn parse_frame_span(buf: &[u8], start: usize) -> FrameParseSpan {
    let start = start.min(buf.len());
    let input = &buf[start..];
    if input.len() < 4 {
        return FrameParseSpan::NeedMore;
    }
    let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    let traced = word & TRACE_FLAG != 0;
    let len = (word & !TRACE_FLAG) as usize;
    let cap = if traced { MAX_FRAME_BYTES + TraceContext::WIRE_BYTES } else { MAX_FRAME_BYTES };
    if len > cap {
        return FrameParseSpan::TooLarge(len);
    }
    if input.len() < 4 + len {
        return FrameParseSpan::NeedMore;
    }
    // The length word alone frames the body; the trace field is an
    // optional prefix inside it. A flagged body too short to hold the
    // field, or holding junk, yields `trace: None` — never a desync.
    let (trace, skip) = if traced && len >= TraceContext::WIRE_BYTES {
        (TraceContext::decode(&input[4..4 + TraceContext::WIRE_BYTES]), TraceContext::WIRE_BYTES)
    } else {
        (None, 0)
    };
    FrameParseSpan::Complete {
        payload_start: start + 4 + skip,
        payload_len: len - skip,
        used: 4 + len,
        trace,
    }
}

/// Try to pull one request frame starting at `buf[start..]`, copying the
/// payload out (convenience wrapper over [`parse_frame_span`]; the
/// serving path uses the span form and skips this copy).
pub fn parse_frame(buf: &[u8], start: usize) -> FrameParse {
    match parse_frame_span(buf, start) {
        FrameParseSpan::NeedMore => FrameParse::NeedMore,
        FrameParseSpan::TooLarge(declared) => FrameParse::TooLarge(declared),
        FrameParseSpan::Complete { payload_start, payload_len, used, .. } => {
            FrameParse::Complete(buf[payload_start..payload_start + payload_len].to_vec(), used)
        }
    }
}

/// Append a request frame (`Job` payload already codec-encoded) to `out`.
pub fn write_request_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append a request frame carrying a trace field. Falls back to the
/// plain encoding when `ctx` is inactive, so untraced requests stay
/// byte-identical to the pre-tracing wire format.
pub fn write_request_frame_traced(out: &mut Vec<u8>, payload: &[u8], ctx: TraceContext) {
    if !ctx.is_active() {
        return write_request_frame(out, payload);
    }
    let body_len = (payload.len() + TraceContext::WIRE_BYTES) as u32;
    out.extend_from_slice(&(body_len | TRACE_FLAG).to_le_bytes());
    ctx.encode(out);
    out.extend_from_slice(payload);
}

/// Append a response frame to `out`. `payload` must be empty unless
/// `status` is [`FrameStatus::Ok`].
pub fn write_response_frame(out: &mut Vec<u8>, status: FrameStatus, payload: &[u8]) {
    out.extend_from_slice(&((1 + payload.len()) as u32).to_le_bytes());
    out.push(status as u8);
    out.extend_from_slice(payload);
}

/// A decoded response frame, as seen by a client.
#[derive(Debug)]
pub enum FrameResponse {
    /// Successful score.
    Ok(ScoreResponse),
    /// Server-side rejection or failure.
    Error(FrameStatus),
}

/// One step of pulling a response frame out of a client's receive buffer.
#[derive(Debug)]
pub enum FrameResponseParse {
    /// The buffer does not yet hold the full frame.
    NeedMore,
    /// A decoded response plus total bytes consumed.
    Complete(FrameResponse, usize),
    /// The frame was malformed (bad status byte, undecodable payload,
    /// zero-length rest, or oversized declared length).
    Malformed(&'static str),
}

/// Try to pull one response frame starting at `buf[start..]`.
pub fn parse_response_frame(buf: &[u8], start: usize) -> FrameResponseParse {
    let input = &buf[start.min(buf.len())..];
    if input.len() < 4 {
        return FrameResponseParse::NeedMore;
    }
    let len = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    if len == 0 {
        return FrameResponseParse::Malformed("zero-length response frame");
    }
    if len > MAX_FRAME_BYTES + 1 {
        return FrameResponseParse::Malformed("oversized response frame");
    }
    if input.len() < 4 + len {
        return FrameResponseParse::NeedMore;
    }
    let Some(status) = FrameStatus::from_byte(input[4]) else {
        return FrameResponseParse::Malformed("unknown status byte");
    };
    let payload = &input[5..4 + len];
    let response = if status == FrameStatus::Ok {
        match tasq::codec::from_bytes::<ScoreResponse>(payload) {
            Ok(decoded) => FrameResponse::Ok(decoded),
            Err(_) => return FrameResponseParse::Malformed("undecodable ok payload"),
        }
    } else {
        FrameResponse::Error(status)
    };
    FrameResponseParse::Complete(response, 4 + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasq::pipeline::{AllocationDecision, ServedTier};

    #[test]
    fn request_frame_round_trips_byte_at_a_time() {
        let payload = b"some job bytes".to_vec();
        let mut wire = Vec::new();
        write_request_frame(&mut wire, &payload);
        let mut buf = Vec::new();
        for (i, &byte) in wire.iter().enumerate() {
            buf.push(byte);
            match parse_frame(&buf, 0) {
                FrameParse::NeedMore => assert!(i + 1 < wire.len()),
                FrameParse::Complete(got, consumed) => {
                    assert_eq!(i + 1, wire.len());
                    assert_eq!(got, payload);
                    assert_eq!(consumed, wire.len());
                }
                FrameParse::TooLarge(n) => panic!("spurious too-large ({n})"),
            }
        }
    }

    #[test]
    fn traced_request_frame_round_trips_byte_at_a_time() {
        let payload = b"traced job bytes".to_vec();
        let ctx = TraceContext::mint(true);
        let mut wire = Vec::new();
        write_request_frame_traced(&mut wire, &payload, ctx);
        assert_eq!(wire.len(), 4 + TraceContext::WIRE_BYTES + payload.len());
        let mut buf = Vec::new();
        for (i, &byte) in wire.iter().enumerate() {
            buf.push(byte);
            match parse_frame_span(&buf, 0) {
                FrameParseSpan::NeedMore => assert!(i + 1 < wire.len()),
                FrameParseSpan::Complete { payload_start, payload_len, used, trace } => {
                    assert_eq!(i + 1, wire.len());
                    assert_eq!(&buf[payload_start..payload_start + payload_len], &payload[..]);
                    assert_eq!(used, wire.len());
                    assert_eq!(trace, Some(ctx));
                }
                FrameParseSpan::TooLarge(n) => panic!("spurious too-large ({n})"),
            }
        }
    }

    #[test]
    fn inactive_context_writes_the_plain_encoding() {
        let mut traced = Vec::new();
        write_request_frame_traced(&mut traced, b"job", TraceContext::NONE);
        let mut plain = Vec::new();
        write_request_frame(&mut plain, b"job");
        assert_eq!(traced, plain);
    }

    #[test]
    fn malformed_trace_fields_never_desync_framing() {
        // Flagged frame whose trace field is junk (reserved flag bits):
        // the payload after the field still frames correctly.
        let payload = b"payload".to_vec();
        let ctx = TraceContext::mint(true);
        let mut wire = Vec::new();
        write_request_frame_traced(&mut wire, &payload, ctx);
        wire[4 + TraceContext::WIRE_BYTES - 1] = 0xff; // corrupt flags byte
        match parse_frame_span(&wire, 0) {
            FrameParseSpan::Complete { payload_start, payload_len, used, trace } => {
                assert_eq!(trace, None);
                assert_eq!(&wire[payload_start..payload_start + payload_len], &payload[..]);
                assert_eq!(used, wire.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
        // Flagged frame whose body is shorter than the trace field: the
        // whole body becomes the (undecodable) payload, frame intact.
        let mut short = Vec::new();
        short.extend_from_slice(&(3u32 | TRACE_FLAG).to_le_bytes());
        short.extend_from_slice(b"abc");
        match parse_frame_span(&short, 0) {
            FrameParseSpan::Complete { payload_len, used, trace, .. } => {
                assert_eq!(trace, None);
                assert_eq!(payload_len, 3);
                assert_eq!(used, short.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
        // Zero trace id in the field: ignored, payload intact.
        let mut zero = Vec::new();
        zero.extend_from_slice(
            &((TraceContext::WIRE_BYTES as u32 + 2) | TRACE_FLAG).to_le_bytes(),
        );
        zero.extend_from_slice(&[0u8; TraceContext::WIRE_BYTES]);
        zero.extend_from_slice(b"ok");
        match parse_frame_span(&zero, 0) {
            FrameParseSpan::Complete { payload_start, payload_len, trace, .. } => {
                assert_eq!(trace, None);
                assert_eq!(&zero[payload_start..payload_start + payload_len], b"ok");
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn traced_oversize_is_still_rejected_from_the_prefix() {
        let declared = (MAX_FRAME_BYTES + TraceContext::WIRE_BYTES + 1) as u32;
        let wire = (declared | TRACE_FLAG).to_le_bytes();
        match parse_frame_span(&wire, 0) {
            FrameParseSpan::TooLarge(n) => {
                assert_eq!(n, MAX_FRAME_BYTES + TraceContext::WIRE_BYTES + 1);
            }
            other => panic!("expected too-large, got {other:?}"),
        }
    }

    #[test]
    fn oversized_request_frame_is_rejected_from_the_prefix_alone() {
        let wire = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        match parse_frame(&wire, 0) {
            FrameParse::TooLarge(n) => assert_eq!(n, MAX_FRAME_BYTES + 1),
            other => panic!("expected too-large, got {other:?}"),
        }
    }

    #[test]
    fn response_frame_round_trips_ok_and_errors() {
        let response = ScoreResponse {
            job_id: 42,
            predicted_runtime_at_request: 1.5,
            optimal_tokens: 7,
            decision: AllocationDecision::Automatic { tokens: 7 },
            served_tier: ServedTier::Primary,
        };
        let payload = tasq::codec::to_bytes(&response).unwrap();
        let mut wire = Vec::new();
        write_response_frame(&mut wire, FrameStatus::Ok, &payload);
        write_response_frame(&mut wire, FrameStatus::Overloaded, &[]);
        let FrameResponseParse::Complete(FrameResponse::Ok(decoded), consumed) =
            parse_response_frame(&wire, 0)
        else {
            panic!("ok frame should decode");
        };
        assert_eq!(decoded.job_id, 42);
        assert_eq!(decoded.optimal_tokens, 7);
        let FrameResponseParse::Complete(FrameResponse::Error(status), consumed2) =
            parse_response_frame(&wire, consumed)
        else {
            panic!("error frame should decode");
        };
        assert_eq!(status, FrameStatus::Overloaded);
        assert_eq!(consumed + consumed2, wire.len());
    }

    #[test]
    fn malformed_response_frames_fail_typed() {
        let zero = 0u32.to_le_bytes();
        assert!(matches!(parse_response_frame(&zero, 0), FrameResponseParse::Malformed(_)));
        let mut bad_status = Vec::new();
        bad_status.extend_from_slice(&1u32.to_le_bytes());
        bad_status.push(250);
        assert!(matches!(parse_response_frame(&bad_status, 0), FrameResponseParse::Malformed(_)));
        let mut bad_payload = Vec::new();
        write_response_frame(&mut bad_payload, FrameStatus::Ok, b"not a score response");
        assert!(matches!(
            parse_response_frame(&bad_payload, 0),
            FrameResponseParse::Malformed(_)
        ));
    }

    #[test]
    fn status_bytes_round_trip() {
        for byte in 0u8..=6 {
            let status = FrameStatus::from_byte(byte).unwrap();
            assert_eq!(status as u8, byte);
        }
        assert!(FrameStatus::from_byte(7).is_none());
    }
}
