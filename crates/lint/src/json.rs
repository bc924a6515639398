//! Canonical JSON for the artifact passes — a re-export of the
//! workspace's single reference implementation in [`bdb_codec::json`].
//!
//! The linter used to carry a deliberate byte-format mirror of the
//! engine's encoder; the two were deduplicated behind `bdb-codec` so the
//! codec has exactly one JSON reference form. Drift protection moved
//! with it: the golden cache-entry fixture under `contracts/fixtures/`
//! (checked by the `cache-format` pass) pins the reference form itself,
//! and every artifact pass still re-encodes checked-in JSON and compares
//! bytes, so a hand-edited, non-canonical artifact surfaces exactly as
//! before.

pub use bdb_codec::json::{parse, ParseError, Value};
