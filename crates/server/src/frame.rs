//! The wire protocol: tiny length-prefixed binary frames.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Payloads are fixed-layout (no varints, no schema evolution
//! machinery — the daemon and loadgen ship together):
//!
//! ```text
//! request  (client → server), 18 bytes:
//!   op:u8 = 1 | seq:u64 | class:u8 | item:u32 | deadline_ms:u32
//! shutdown (client → server), 1 byte:
//!   op:u8 = 3
//! reply    (server → client), 22 bytes:
//!   op:u8 = 2 | seq:u64 | status:u8 | item:u32 | wait_ms:f64
//! ```
//!
//! `seq` is a client-chosen correlation id echoed verbatim in the reply;
//! `deadline_ms = 0` means "use the server's default deadline (if any)".
//! `wait_ms` is the server-side wait from frame ingest to the reply
//! decision, in wall milliseconds. A `shutdown` frame is the in-band
//! SIGTERM equivalent (used by tests and orchestration); the daemon also
//! honors the real signals.

use std::io::{self, Read, Write};

/// Frame opcodes.
pub const OP_REQUEST: u8 = 1;
/// Reply opcode.
pub const OP_REPLY: u8 = 2;
/// In-band graceful-shutdown opcode.
pub const OP_SHUTDOWN: u8 = 3;

/// Frames larger than this are a protocol violation (greatest legal frame
/// is the 22-byte reply; the slack leaves room for future fields).
pub const MAX_FRAME: u32 = 256;

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed in the reply.
    pub seq: u64,
    /// Service class index (0 = highest priority).
    pub class: u8,
    /// Requested catalog item.
    pub item: u32,
    /// Per-request deadline in wall ms; 0 = server default.
    pub deadline_ms: u32,
}

impl RequestFrame {
    /// Serializes including the length prefix.
    pub fn encode(&self) -> [u8; 22] {
        let mut out = [0u8; 22];
        out[..4].copy_from_slice(&18u32.to_le_bytes());
        out[4] = OP_REQUEST;
        out[5..13].copy_from_slice(&self.seq.to_le_bytes());
        out[13] = self.class;
        out[14..18].copy_from_slice(&self.item.to_le_bytes());
        out[18..22].copy_from_slice(&self.deadline_ms.to_le_bytes());
        out
    }

    /// Parses a request payload (without the length prefix or opcode).
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        if body.len() != 17 {
            return Err(format!("request body must be 17 bytes, got {}", body.len()));
        }
        Ok(RequestFrame {
            seq: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
            class: body[8],
            item: u32::from_le_bytes(body[9..13].try_into().expect("4 bytes")),
            deadline_ms: u32::from_le_bytes(body[13..17].try_into().expect("4 bytes")),
        })
    }
}

/// How the server resolved a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Delivered by the cyclic broadcast.
    ServedPush,
    /// Delivered by an on-demand pull transmission.
    ServedPull,
    /// Rejected by admission control (ingress bound or bandwidth test).
    Shed,
    /// Dropped because its deadline passed before service.
    TimedOut,
    /// Lost on the contended request uplink.
    UplinkLost,
}

impl ReplyStatus {
    /// Wire value.
    pub fn as_u8(self) -> u8 {
        match self {
            ReplyStatus::ServedPush => 0,
            ReplyStatus::ServedPull => 1,
            ReplyStatus::Shed => 2,
            ReplyStatus::TimedOut => 3,
            ReplyStatus::UplinkLost => 4,
        }
    }

    /// Parses a wire value.
    pub(crate) fn from_u8(v: u8) -> Result<Self, String> {
        Ok(match v {
            0 => ReplyStatus::ServedPush,
            1 => ReplyStatus::ServedPull,
            2 => ReplyStatus::Shed,
            3 => ReplyStatus::TimedOut,
            4 => ReplyStatus::UplinkLost,
            other => return Err(format!("unknown reply status {other}")),
        })
    }

    /// `true` for the two served variants.
    pub fn is_served(self) -> bool {
        matches!(self, ReplyStatus::ServedPush | ReplyStatus::ServedPull)
    }
}

/// One server reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyFrame {
    /// Echoed correlation id.
    pub seq: u64,
    /// Outcome.
    pub status: ReplyStatus,
    /// Item concerned.
    pub item: u32,
    /// Server-side wait (ingest → decision), wall milliseconds.
    pub wait_ms: f64,
}

impl ReplyFrame {
    /// Serializes including the length prefix.
    pub fn encode(&self) -> [u8; 26] {
        let mut out = [0u8; 26];
        out[..4].copy_from_slice(&22u32.to_le_bytes());
        out[4] = OP_REPLY;
        out[5..13].copy_from_slice(&self.seq.to_le_bytes());
        out[13] = self.status.as_u8();
        out[14..18].copy_from_slice(&self.item.to_le_bytes());
        out[18..26].copy_from_slice(&self.wait_ms.to_le_bytes());
        out
    }

    /// Parses a reply payload (without the length prefix or opcode).
    pub fn decode(body: &[u8]) -> Result<Self, String> {
        if body.len() != 21 {
            return Err(format!("reply body must be 21 bytes, got {}", body.len()));
        }
        Ok(ReplyFrame {
            seq: u64::from_le_bytes(body[..8].try_into().expect("8 bytes")),
            status: ReplyStatus::from_u8(body[8])?,
            item: u32::from_le_bytes(body[9..13].try_into().expect("4 bytes")),
            wait_ms: f64::from_le_bytes(body[13..21].try_into().expect("8 bytes")),
        })
    }
}

/// Encodes the 5-byte in-band shutdown frame.
pub fn encode_shutdown() -> [u8; 5] {
    let mut out = [0u8; 5];
    out[..4].copy_from_slice(&1u32.to_le_bytes());
    out[4] = OP_SHUTDOWN;
    out
}

/// Reads one length-prefixed frame payload (opcode byte included).
/// Returns `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_FRAME}]"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes raw pre-encoded frame bytes.
pub fn write_all<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)
}

/// A decoded frame, any direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// A client request.
    Request(RequestFrame),
    /// A server reply (the loadgen decodes these through the same path).
    Reply(ReplyFrame),
    /// The in-band graceful-shutdown marker.
    Shutdown,
}

/// Why a byte stream stopped decoding. All variants are fatal for the
/// connection: the framing is self-synchronizing only at frame
/// boundaries, so after any of these the stream cannot be re-entered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Length prefix of 0 or beyond [`MAX_FRAME`].
    BadLength(u32),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Opcode was legal but the body size didn't match its fixed layout.
    BadBody(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadLength(l) => write!(f, "frame length {l} outside (0, {MAX_FRAME}]"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            DecodeError::BadBody(msg) => write!(f, "malformed frame body: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Stateful batch decoder: a per-connection accumulation buffer that
/// yields every complete frame per pass and keeps the incomplete tail.
///
/// The event loop [`FrameBatch::extend`]s it with whatever a readable
/// edge produced, then drains via [`FrameBatch::decode_next`] in a loop —
/// one buffer compaction per drain, not per frame, so a 64 KiB read of
/// ~3k back-to-back requests costs one `copy_within` total.
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames. Compacted away
    /// lazily on the next `extend`.
    consumed: usize,
}

impl FrameBatch {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Appends freshly read bytes, compacting out already-decoded ones.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed.., 0);
            self.buf.truncate(self.buf.len() - self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// `true` when the buffer ends exactly at a frame boundary — the only
    /// state in which a peer EOF is clean rather than a truncation.
    pub fn at_boundary(&self) -> bool {
        self.pending() == 0
    }

    /// Decodes the next complete frame, or `Ok(None)` if the remaining
    /// bytes are a frame prefix. After `Err`, the stream is poisoned and
    /// the connection must be dropped.
    pub fn decode_next(&mut self) -> Result<Option<Frame>, DecodeError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME {
            return Err(DecodeError::BadLength(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[4..total];
        let frame = match body[0] {
            OP_REQUEST => {
                Frame::Request(RequestFrame::decode(&body[1..]).map_err(DecodeError::BadBody)?)
            }
            OP_REPLY => Frame::Reply(ReplyFrame::decode(&body[1..]).map_err(DecodeError::BadBody)?),
            OP_SHUTDOWN => {
                if body.len() != 1 {
                    return Err(DecodeError::BadBody(format!(
                        "shutdown body must be 1 byte, got {}",
                        body.len()
                    )));
                }
                Frame::Shutdown
            }
            other => return Err(DecodeError::BadOpcode(other)),
        };
        self.consumed += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = RequestFrame {
            seq: 0xDEAD_BEEF_0123,
            class: 2,
            item: 77,
            deadline_ms: 250,
        };
        let bytes = req.encode();
        let mut cursor = io::Cursor::new(bytes.to_vec());
        let body = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(body[0], OP_REQUEST);
        assert_eq!(RequestFrame::decode(&body[1..]).unwrap(), req);
    }

    #[test]
    fn reply_round_trips() {
        let rep = ReplyFrame {
            seq: 9,
            status: ReplyStatus::TimedOut,
            item: 3,
            wait_ms: 12.75,
        };
        let bytes = rep.encode();
        let mut cursor = io::Cursor::new(bytes.to_vec());
        let body = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(body[0], OP_REPLY);
        assert_eq!(ReplyFrame::decode(&body[1..]).unwrap(), rep);
    }

    #[test]
    fn eof_at_boundary_is_none_mid_frame_is_error() {
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut partial = io::Cursor::new(vec![5u8, 0, 0]);
        assert!(read_frame(&mut partial).is_err());
    }

    #[test]
    fn hostile_length_is_rejected() {
        let mut huge = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
        let mut zero = io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(read_frame(&mut zero).is_err());
    }

    #[test]
    fn every_status_round_trips() {
        for s in [
            ReplyStatus::ServedPush,
            ReplyStatus::ServedPull,
            ReplyStatus::Shed,
            ReplyStatus::TimedOut,
            ReplyStatus::UplinkLost,
        ] {
            assert_eq!(ReplyStatus::from_u8(s.as_u8()).unwrap(), s);
        }
        assert!(ReplyStatus::from_u8(200).is_err());
    }
}
