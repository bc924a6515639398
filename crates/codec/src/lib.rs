//! `bdb-codec` — the workspace's byte-format authority: the canonical
//! JSON record encoding plus a versioned, CRC-64-checksummed,
//! little-endian binary container for trace chunks.
//!
//! Every layer that persists or ships bytes encodes through this crate:
//!
//! * **Canonical JSON** ([`json`]): the one record encoding — engine
//!   cache entries and run-journal frames, cluster wire messages, and
//!   `bdb-serve` requests and replies. Byte-stable
//!   (`encode(decode(b)) == b`), shortest-roundtrip floats, non-finite
//!   sentinels. Cache entries and journal frames carry their own CRC-64.
//! * **BDBC binary records** (this module + [`columnar`]): a compact,
//!   little-endian container with a CRC-64/XZ trailer, used for
//!   `TraceBuffer` chunk spills, where the columnar encoding is roughly
//!   14x smaller than JSON. Every chunk decodes to columns whose JSON
//!   interchange form round-trips losslessly back to the identical
//!   binary bytes — the `binary → JSON → binary` contract the golden
//!   trace-chunk fixture under `contracts/fixtures/` pins.
//!
//! # Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "BDBC"
//! 4       2     format version (currently 1)
//! 6       2     record kind (RecordKind)
//! 8       8     payload length N
//! 16      N     payload (kind-specific)
//! 16+N    8     CRC-64/XZ of the payload
//! ```
//!
//! Decoding is strict: bad magic, an unknown version or kind, a length
//! that disagrees with the input, trailing bytes, or a checksum mismatch
//! are each a distinct, clean error — never a panic, never a wrong
//! record. A single bit flip anywhere in a record is always detected
//! (header fields by the structural checks, payload and trailer by the
//! CRC).
//!
//! # Versioning policy
//!
//! The version field gates the *container*: readers reject any version
//! they do not know ([`CodecError::UnsupportedVersion`]), so a future
//! layout change bumps [`FORMAT_VERSION`] and old readers fail closed.
//! Payload schema evolution rides the owning layer's versioning (e.g.
//! the engine's cache format version participates in the cache key, so
//! schema bumps invalidate by key, not by in-place migration).

pub mod columnar;
pub mod json;
pub mod varint;

mod crc;

pub use crc::crc64;

/// Magic prefix of every BDBC binary record.
pub const MAGIC: [u8; 4] = *b"BDBC";

/// Current container format version.
pub const FORMAT_VERSION: u16 = 1;

/// Container header size in bytes (magic + version + kind + length).
pub const HEADER_BYTES: usize = 16;

/// Container trailer size in bytes (CRC-64 of the payload).
pub const TRAILER_BYTES: usize = 8;

/// What a BDBC record's payload contains. Tags 2–6 are retired (older
/// builds wrote binary cache, journal, wire and serve records under
/// them) and decode as unknown kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A columnar trace chunk ([`columnar`]).
    TraceChunk,
}

impl RecordKind {
    /// The on-disk kind tag.
    pub fn tag(self) -> u16 {
        match self {
            RecordKind::TraceChunk => 1,
        }
    }

    /// Parses a kind tag.
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(RecordKind::TraceChunk),
            _ => None,
        }
    }
}

/// A decode failure. Every variant is a clean, detected error — decoding
/// never panics and never fabricates a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure did.
    Truncated {
        /// Byte offset where more input was needed.
        at: usize,
    },
    /// The input does not start with the BDBC magic.
    BadMagic,
    /// The container version is newer than this reader.
    UnsupportedVersion(u16),
    /// The record kind tag is unknown.
    UnknownKind(u16),
    /// The payload CRC-64 trailer does not match the payload.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u64,
        /// CRC computed over the payload.
        computed: u64,
    },
    /// Input continues past the end of the record.
    TrailingBytes {
        /// Offset of the first unexpected byte.
        at: usize,
    },
    /// Structurally invalid payload content.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "truncated input at byte {at}"),
            CodecError::BadMagic => write!(f, "missing BDBC magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            CodecError::TrailingBytes { at } => write!(f, "trailing bytes at offset {at}"),
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Wraps `payload` in a BDBC container of the given kind.
pub fn encode_record(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out
}

/// Decodes one container that must span `bytes` exactly, returning the
/// kind and a zero-copy payload slice.
pub fn decode_record(bytes: &[u8]) -> Result<(RecordKind, &[u8]), CodecError> {
    let (kind, payload, consumed) = decode_record_prefix(bytes)?;
    if consumed != bytes.len() {
        return Err(CodecError::TrailingBytes { at: consumed });
    }
    Ok((kind, payload))
}

/// Decodes one container at the start of `bytes` (which may continue with
/// further records), returning `(kind, payload, bytes consumed)`. The
/// payload slice borrows `bytes` — alignment-safe and copy-free, so a
/// memory-mapped spill file can be walked without materializing it.
pub fn decode_record_prefix(bytes: &[u8]) -> Result<(RecordKind, &[u8], usize), CodecError> {
    if bytes.len() < MAGIC.len() {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind_tag = u16::from_le_bytes([bytes[6], bytes[7]]);
    let kind = RecordKind::from_tag(kind_tag).ok_or(CodecError::UnknownKind(kind_tag))?;
    let len64 = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let len = usize::try_from(len64).map_err(|_| CodecError::Truncated { at: bytes.len() })?;
    let end = HEADER_BYTES
        .checked_add(len)
        .and_then(|n| n.checked_add(TRAILER_BYTES))
        .ok_or(CodecError::Truncated { at: bytes.len() })?;
    if bytes.len() < end {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + len];
    let mut crc_bytes = [0u8; 8];
    crc_bytes.copy_from_slice(&bytes[HEADER_BYTES + len..end]);
    let stored = u64::from_le_bytes(crc_bytes);
    let computed = crc64(payload);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, payload, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips() {
        let payload = b"hello columnar world";
        let record = encode_record(RecordKind::TraceChunk, payload);
        let (kind, got) = decode_record(&record).unwrap();
        assert_eq!(kind, RecordKind::TraceChunk);
        assert_eq!(got, payload);
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let record = encode_record(RecordKind::TraceChunk, b"payload bytes");
        for cut in 0..record.len() {
            assert!(
                decode_record(&record[..cut]).is_err(),
                "cut at {cut} of {} must fail",
                record.len()
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        // `TraceChunk` is the only valid kind tag, so a flip in the kind
        // field is an unknown kind; every other flip fails the structural
        // checks or the CRC.
        let record = encode_record(RecordKind::TraceChunk, b"flip me");
        for bit in 0..record.len() * 8 {
            let mut damaged = record.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_record(&damaged).is_err(),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_clean_errors() {
        let mut record = encode_record(RecordKind::TraceChunk, b"x");
        record[4] = 0xff; // version low byte
        assert!(matches!(
            decode_record(&record),
            Err(CodecError::UnsupportedVersion(_))
        ));
        let mut record = encode_record(RecordKind::TraceChunk, b"x");
        record[6] = 0x7f; // kind low byte
        assert!(matches!(
            decode_record(&record),
            Err(CodecError::UnknownKind(_))
        ));
    }

    #[test]
    fn prefix_decoding_walks_concatenated_records() {
        let mut stream = encode_record(RecordKind::TraceChunk, b"one");
        stream.extend_from_slice(&encode_record(RecordKind::TraceChunk, b"two"));
        let (_, first, used) = decode_record_prefix(&stream).unwrap();
        assert_eq!(first, b"one");
        let (_, second, used2) = decode_record_prefix(&stream[used..]).unwrap();
        assert_eq!(second, b"two");
        assert_eq!(used + used2, stream.len());
        assert!(matches!(
            decode_record(&stream),
            Err(CodecError::TrailingBytes { .. })
        ));
    }
}
