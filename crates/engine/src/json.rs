//! Canonical JSON for the profile cache — a re-export of the workspace's
//! single reference implementation in [`bdb_codec::json`].
//!
//! Historically this module owned its own encoder; it now shares one
//! implementation with the linter, the cluster wire and serve, so
//! "canonical bytes" is defined in exactly one place. The byte format is unchanged:
//! compact, insertion-ordered object keys, shortest-roundtrip floats via
//! `{:?}`, and the non-finite sentinels `"NaN"` / `"inf"` / `"-inf"`.

pub use bdb_codec::json::{parse, ParseError, Value, MAX_DEPTH};
