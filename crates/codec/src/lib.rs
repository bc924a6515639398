//! `bdb-codec` — the workspace's byte-format authority: the canonical
//! JSON record encoding and the CRC-64 content checksum.
//!
//! Every layer that persists or ships bytes encodes through this crate:
//!
//! * **Canonical JSON** ([`json`]): the one record encoding — engine
//!   cache entries and run-journal frames, cluster wire messages, and
//!   `bdb-serve` requests and replies. Byte-stable
//!   (`encode(decode(b)) == b`), shortest-roundtrip floats, non-finite
//!   sentinels.
//! * **CRC-64/XZ** ([`crc64`]): the checksum that cache entries and
//!   journal frames carry over their bytes, and that the contract pins
//!   and the linter's artifact passes re-verify.
//!
//! Payload schema evolution rides the owning layer's versioning (e.g.
//! the engine's cache format version participates in the cache key, so
//! schema bumps invalidate by key, not by in-place migration).

pub mod json;

mod crc;

pub use crc::crc64;
