//! Length-prefixed framing for [`Message`]s over byte streams.
//!
//! A frame is a 4-byte big-endian payload length followed by the
//! message's canonical JSON bytes. The length cap ([`MAX_FRAME_BYTES`])
//! bounds allocation on garbage input; a stream that ends mid-frame is a
//! [`WireError::Truncated`], distinct from the clean end-of-stream
//! (`Ok(None)`) at a frame boundary.

use crate::proto::{message_from_value, message_to_value, Message};
use bdb_engine::json;
use std::io::{ErrorKind, Read, Write};

/// Payload encoding for outgoing frames. Canonical JSON is the only
/// one; the enum and [`encode_frame_with`] remain because the
/// `perfbench` benchmark crate names them when it sizes result frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireFormat {
    /// Canonical-JSON payloads.
    #[default]
    Json,
}

/// Upper bound on one frame's payload (a full 77-task assign batch plus
/// profile results stay far under this; anything bigger is garbage).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// A framing or codec failure on the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (length prefix or payload).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload is not a valid message (JSON or schema error).
    Decode(String),
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::Decode(e) => write!(f, "frame payload decode failed: {e}"),
            WireError::Io(e) => write!(f, "stream I/O error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one message as a length-prefixed canonical-JSON frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    encode_payload_frame(message_to_value(msg).encode().as_bytes())
}

/// [`encode_frame`] under its older, format-taking name (see
/// [`WireFormat`] for why it remains).
pub fn encode_frame_with(format: WireFormat, msg: &Message) -> Vec<u8> {
    match format {
        WireFormat::Json => encode_frame(msg),
    }
}

/// Wraps an already-encoded payload in the outer `[u32 BE len]` frame.
/// This is the protocol-agnostic half of the framing: `bdb-serve` reuses
/// it with its own payload codec, so both protocols share one frame
/// layout (and one size cap) on the wire.
pub fn encode_payload_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame's raw payload from `r` without interpreting it.
/// `Ok(None)` is a clean end-of-stream at a frame boundary; a stream
/// that ends mid-frame is [`WireError::Truncated`].
pub fn read_frame_payload(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated => return Err(WireError::Truncated),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Filled => {}
        ReadOutcome::CleanEof | ReadOutcome::Truncated => return Err(WireError::Truncated),
    }
    Ok(Some(payload))
}

/// Writes one frame to `w` (no flush; the caller flushes per batch).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    w.write_all(&encode_frame(msg))
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one frame from `r`. `Ok(None)` is a clean end-of-stream at a
/// frame boundary; an end-of-stream after at least one payload byte was
/// promised is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Message>, WireError> {
    match read_frame_payload(r)? {
        Some(payload) => decode_payload(&payload).map(Some),
        None => Ok(None),
    }
}

/// Decodes every frame in `buf` (testing / offline inspection). Errors
/// carry the index of the first bad frame.
pub fn decode_frames(buf: &[u8]) -> Result<Vec<Message>, (usize, WireError)> {
    let mut r = buf;
    let mut messages = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(Some(msg)) => messages.push(msg),
            Ok(None) => return Ok(messages),
            Err(e) => return Err((messages.len(), e)),
        }
    }
}

/// Decodes one canonical-JSON frame payload into a [`Message`].
pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| WireError::Decode(format!("not UTF-8: {e}")))?;
    let value = json::parse(text).map_err(|e| WireError::Decode(format!("{e:?}")))?;
    message_from_value(&value).map_err(|e| WireError::Decode(e.0))
}

enum ReadOutcome {
    /// The buffer was filled completely.
    Filled,
    /// End-of-stream before the first byte.
    CleanEof,
    /// End-of-stream after at least one byte.
    Truncated,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        // bdb-lint: allow(panic-reachability): the loop condition bounds `filled` below buf.len()
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PROTOCOL_VERSION;

    fn hello() -> Message {
        Message::Hello {
            worker: "w".to_owned(),
            protocol: PROTOCOL_VERSION,
            cached: Vec::new(),
        }
    }

    #[test]
    fn frame_roundtrips_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello()).unwrap();
        write_frame(&mut buf, &Message::Bye).unwrap();
        let msgs = decode_frames(&buf).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(encode_frame(&msgs[0]), encode_frame(&hello()));
        assert_eq!(encode_frame(&msgs[1]), encode_frame(&Message::Bye));
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let frame = encode_frame(&hello());
        for cut in 1..frame.len() {
            let err = decode_frames(&frame[..cut]).unwrap_err();
            assert_eq!(err, (0, WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_frames(&buf),
            Err((0, WireError::TooLarge(_)))
        ));
    }

    #[test]
    fn garbage_payload_is_a_decode_error() {
        // The second payload is a BDBC wire record, as older builds
        // could send.
        for payload in [&b"{{{"[..], b"BDBC\x01\x00\x04\x00binary wire"] {
            assert!(matches!(
                decode_frames(&encode_payload_frame(payload)),
                Err((0, WireError::Decode(_)))
            ));
        }
    }
}
