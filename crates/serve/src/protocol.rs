//! Wire protocol: length-prefixed JSON frames and typed request/reply
//! messages.
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON. The length prefix is capped at [`MAX_FRAME_LEN`] so a
//! corrupt or hostile peer cannot make the server allocate unbounded
//! memory; an oversized prefix is rejected *before* any payload is read.
//!
//! Malformed input at any layer — bad framing, invalid JSON, wrong
//! tensor shape, non-finite pixels — produces a typed [`Reply`] variant,
//! never a panic: the serving layer's contract is that only the process
//! owner (via config bugs) can crash it, not a client.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};
use ull_obs::MetricsSnapshot;

use crate::breaker::BreakerState;

/// Upper bound on a frame's payload length in bytes.
///
/// Large enough for a few hundred 32×32×3 images per request, small
/// enough that a garbage length prefix (e.g. ASCII read as big-endian)
/// is rejected instead of triggering a gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 8 << 20;

/// One inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: u64,
    /// Flattened input pixels for a single sample.
    pub pixels: Vec<f32>,
    /// Per-sample shape (no batch dimension), e.g. `[3, 8, 8]`.
    pub shape: Vec<usize>,
    /// Time budget in milliseconds from admission to reply. `None` uses
    /// the server's default; `Some(0)` is an already-expired deadline and
    /// deterministically yields [`Reply::DeadlineExceeded`].
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// The degradation rung a batch was served at, echoed to clients so they
/// can observe quality degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RungLabel {
    /// Full-T forward.
    Full,
    /// Anytime early exit behind the calibrated margin schedule.
    Anytime,
    /// Reduced-T forward.
    Reduced,
}

/// One typed reply. Exactly one reply is produced per admitted frame —
/// the server never drops a request silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Successful inference.
    Prediction {
        /// Echo of [`Request::id`].
        id: u64,
        /// Server-assigned deterministic trace id (see [`trace_id`]).
        #[serde(default)]
        trace: u64,
        /// Argmax class.
        class: usize,
        /// Running-mean output logits.
        logits: Vec<f32>,
        /// Ladder rung the batch was served at.
        rung: RungLabel,
        /// Time steps actually simulated for this sample.
        steps: usize,
    },
    /// Admission queue was full; request was shed without inference.
    Overloaded {
        /// Echo of [`Request::id`].
        id: u64,
        /// Server-assigned deterministic trace id.
        #[serde(default)]
        trace: u64,
    },
    /// Deadline expired before the request reached a worker.
    DeadlineExceeded {
        /// Echo of [`Request::id`].
        id: u64,
        /// Server-assigned deterministic trace id.
        #[serde(default)]
        trace: u64,
    },
    /// The request was structurally invalid (shape, pixels, framing).
    BadRequest {
        /// Echo of [`Request::id`] (0 when the frame never parsed).
        id: u64,
        /// Server-assigned deterministic trace id (0 when the frame
        /// never reached admission).
        #[serde(default)]
        trace: u64,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// Inference failed after retries (e.g. repeated worker panics).
    Error {
        /// Echo of [`Request::id`].
        id: u64,
        /// Server-assigned deterministic trace id.
        #[serde(default)]
        trace: u64,
        /// Human-readable failure reason.
        reason: String,
    },
}

impl Reply {
    /// The correlation id carried by any variant.
    pub fn id(&self) -> u64 {
        match self {
            Reply::Prediction { id, .. }
            | Reply::Overloaded { id, .. }
            | Reply::DeadlineExceeded { id, .. }
            | Reply::BadRequest { id, .. }
            | Reply::Error { id, .. } => *id,
        }
    }

    /// The server-assigned trace id carried by any variant (0 for
    /// replies to frames that never reached admission).
    pub fn trace(&self) -> u64 {
        match self {
            Reply::Prediction { trace, .. }
            | Reply::Overloaded { trace, .. }
            | Reply::DeadlineExceeded { trace, .. }
            | Reply::BadRequest { trace, .. }
            | Reply::Error { trace, .. } => *trace,
        }
    }

    /// Whether this is a successful prediction.
    pub fn is_prediction(&self) -> bool {
        matches!(self, Reply::Prediction { .. })
    }
}

/// The deterministic per-request trace id: a [`mix64`] hash of the
/// submitting connection's serial and the request's serial on that
/// connection. Both serials are assigned by arrival order, so for any
/// fixed submission schedule the ids are bit-identical across
/// `ULL_THREADS` settings and reruns.
///
/// [`mix64`]: ull_tensor::init::mix64
pub fn trace_id(conn_serial: u64, req_serial: u64) -> u64 {
    ull_tensor::init::mix64(conn_serial, &[req_serial])
}

/// An out-of-band control frame: telemetry requests served directly on
/// the connection thread, never touching the admission queue or the
/// batch workers. Wire format is the same length-prefixed JSON as
/// [`Request`]; the server distinguishes the two by shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlRequest {
    /// Scrape the live [`MetricsSnapshot`] plus serving state.
    Metrics {
        /// Client-chosen correlation id, echoed in the reply.
        #[serde(default)]
        id: u64,
    },
    /// Cheap liveness/readiness probe.
    Health {
        /// Client-chosen correlation id, echoed in the reply.
        #[serde(default)]
        id: u64,
    },
}

/// Reply to a [`ControlRequest`]. Bounded in size: the snapshot holds
/// fixed-cardinality aggregate keys (no per-request data) and every
/// histogram is a fixed [`ull_obs::HIST_BUCKETS`]-bucket array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlReply {
    /// Live telemetry scrape.
    Metrics {
        /// Echo of the request id.
        id: u64,
        /// Point-in-time copy of every obs aggregate, including
        /// histograms.
        snapshot: MetricsSnapshot,
        /// Replica names in routing-preference order.
        replicas: Vec<String>,
        /// Breaker state per replica.
        breakers: Vec<BreakerState>,
        /// Served model version per replica.
        versions: Vec<u64>,
        /// Lifetime breaker trips summed over replicas.
        breaker_trips: u64,
        /// Flight-recorder dumps written so far.
        flight_dumps: u64,
        /// Requests currently queued.
        queue_depth: u64,
        /// Whether the server is draining (rejecting admissions).
        draining: bool,
        /// Milliseconds since the engine was built (breaker clock).
        uptime_ms: u64,
    },
    /// Liveness/readiness probe result.
    Health {
        /// Echo of the request id.
        id: u64,
        /// Whether the server is accepting and able to serve (not
        /// draining, at least one breaker closed or half-open).
        ok: bool,
        /// Whether the server is draining.
        draining: bool,
        /// Requests currently queued.
        queue_depth: u64,
        /// Breaker state per replica.
        breakers: Vec<BreakerState>,
    },
}

impl ControlReply {
    /// The echoed correlation id.
    pub fn id(&self) -> u64 {
        match self {
            ControlReply::Metrics { id, .. } | ControlReply::Health { id, .. } => *id,
        }
    }
}

/// Serializes a control reply and writes it as one frame.
pub fn write_control_reply(writer: &mut impl Write, reply: &ControlReply) -> std::io::Result<()> {
    write_json_frame(writer, reply)
}

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a length prefix.
    Closed,
    /// The declared length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// An I/O error or a truncated frame.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

/// Reads one length-prefixed frame. The payload is only allocated after
/// the length prefix passes the [`MAX_FRAME_LEN`] check.
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io("truncated length prefix".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader
        .read_exact(&mut payload)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    Ok(payload)
}

/// Writes one length-prefixed frame with a single `write_all` of
/// prefix ‖ payload.
///
/// Splitting the frame into two writes would stall every round trip on
/// TCP: Nagle's algorithm holds the second segment until the first is
/// acknowledged, and the peer delays that ACK by about 40 ms.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&frame_len(payload.len())?.to_be_bytes());
    frame.extend_from_slice(payload);
    send_frame(writer, &frame)
}

/// Serializes a reply and writes it as one frame.
pub fn write_reply(writer: &mut impl Write, reply: &Reply) -> std::io::Result<()> {
    write_json_frame(writer, reply)
}

/// Serializes `value` straight into a frame buffer behind 4 reserved
/// prefix bytes, patches the length in, and writes the frame once — the
/// payload is never copied into a second buffer.
fn write_json_frame(writer: &mut impl Write, value: &impl Serialize) -> std::io::Result<()> {
    let mut frame = vec![0u8; 4];
    serde_json::to_writer(&mut frame, value).map_err(|e| std::io::Error::other(e.to_string()))?;
    let len = frame_len(frame.len() - 4)?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    send_frame(writer, &frame)
}

fn frame_len(payload_len: usize) -> std::io::Result<u32> {
    u32::try_from(payload_len)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))
}

fn send_frame(writer: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reply_round_trip_through_json() {
        let req = Request {
            id: 42,
            pixels: vec![0.0, 0.5, 1.0],
            shape: vec![3, 1, 1],
            deadline_ms: Some(25),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        for reply in [
            Reply::Prediction {
                id: 1,
                trace: trace_id(0, 0),
                class: 2,
                logits: vec![0.1, -0.2, 0.9],
                rung: RungLabel::Anytime,
                steps: 3,
            },
            Reply::Overloaded { id: 2, trace: 7 },
            Reply::DeadlineExceeded { id: 3, trace: 8 },
            Reply::BadRequest {
                id: 4,
                trace: 0,
                reason: "bad shape".into(),
            },
            Reply::Error {
                id: 5,
                trace: 9,
                reason: "worker died".into(),
            },
        ] {
            let json = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&json).unwrap();
            assert_eq!(reply, back);
            assert_eq!(reply.id(), back.id());
            assert_eq!(reply.trace(), back.trace());
        }
    }

    #[test]
    fn replies_without_trace_field_still_parse() {
        // Wire backward compatibility: pre-telemetry peers omit `trace`.
        let back: Reply = serde_json::from_str(r#"{"Overloaded":{"id":6}}"#).unwrap();
        assert_eq!(back, Reply::Overloaded { id: 6, trace: 0 });
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id(3, 5), trace_id(3, 5));
        assert_ne!(trace_id(3, 5), trace_id(5, 3));
        assert_ne!(trace_id(0, 0), trace_id(0, 1));
    }

    #[test]
    fn control_frames_round_trip_and_are_distinguishable() {
        for creq in [
            ControlRequest::Metrics { id: 11 },
            ControlRequest::Health { id: 12 },
        ] {
            let json = serde_json::to_string(&creq).unwrap();
            let back: ControlRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(creq, back);
            // A control frame must never parse as an inference request.
            assert!(serde_json::from_str::<Request>(&json).is_err());
        }
        let reply = ControlReply::Health {
            id: 12,
            ok: true,
            draining: false,
            queue_depth: 0,
            breakers: vec![BreakerState::Closed, BreakerState::Open],
        };
        let mut buf = Vec::new();
        write_control_reply(&mut buf, &reply).unwrap();
        let mut cursor = &buf[..];
        let payload = read_frame(&mut cursor).unwrap();
        let back: ControlReply = serde_json::from_str(&String::from_utf8_lossy(&payload)).unwrap();
        assert_eq!(reply, back);
        assert_eq!(back.id(), 12);
    }

    #[test]
    fn deadline_defaults_to_none_when_absent() {
        let req: Request =
            serde_json::from_str(r#"{"id": 7, "pixels": [1.0], "shape": [1]}"#).unwrap();
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor), Err(FrameError::Closed));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(u32::MAX))
        );
    }

    #[test]
    fn truncated_frame_is_an_io_error_not_a_hang() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }
}
