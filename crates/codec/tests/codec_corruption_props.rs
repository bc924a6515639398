//! Corruption properties of the BDBC binary container.
//!
//! The engine-level suite (`cache_corruption_props.rs` in `bdb-engine`)
//! proves damaged *cache entries* are detected and quarantined; this
//! suite proves the same contract one layer down, for the trace-chunk
//! record the workspace ships: starting from a genuine record, truncate
//! it at every byte offset, flip random bits, and rewrite the version
//! field — decoding must always be a clean, detected [`CodecError`],
//! never a panic and never a wrong record. The lossless
//! `binary → JSON → binary` interchange contract is pinned here too.

use bdb_codec::{columnar, decode_record, CodecError, RecordKind, FORMAT_VERSION};
use proptest::collection;
use proptest::prelude::*;

/// One genuine trace-chunk record. The property tests damage copies,
/// never the original.
fn genuine_records() -> Vec<(RecordKind, Vec<u8>)> {
    let pc: Vec<u64> = (0..200).map(|i| 0x40_0000 + i * 4).collect();
    let arg: Vec<u64> = (0..200).map(|i| 0x7f00_0000 + i * 8).collect();
    let kind: Vec<u8> = (0..200).map(|i| (i % 7) as u8).collect();
    let aux: Vec<u8> = (0..200).map(|i| (i % 3) as u8).collect();
    let chunk = columnar::encode_trace_chunk(&pc, &arg, &kind, &aux).expect("columns agree");
    vec![(RecordKind::TraceChunk, chunk)]
}

/// Full strict decode of one record, through the kind-specific payload
/// decoder — the deepest path a reader exercises. Returns a canonical
/// byte form so callers can check losslessness.
fn deep_decode(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (kind, payload) = decode_record(bytes)?;
    match kind {
        RecordKind::TraceChunk => {
            let columns = columnar::TraceChunkView::parse(payload)?.to_columns();
            columnar::encode_trace_chunk(&columns.pc, &columns.arg, &columns.kind, &columns.aux)
        }
    }
}

#[test]
fn every_kind_roundtrips_binary_to_json_to_binary_losslessly() {
    for (kind, record) in genuine_records() {
        // binary → decode → re-encode is byte-identical...
        let reencoded = deep_decode(&record).expect("pristine record decodes");
        assert_eq!(reencoded, record, "{kind:?} deep round-trip drifted");
        // ...and the trace chunk also survives the JSON interchange form.
        let columns = columnar::decode_trace_chunk(&record).expect("chunk decodes");
        let via_json = columnar::trace_chunk_from_json(&columnar::trace_chunk_to_json(&columns))
            .expect("JSON interchange parses");
        let back = columnar::encode_trace_chunk(
            &via_json.pc,
            &via_json.arg,
            &via_json.kind,
            &via_json.aux,
        )
        .expect("columns agree");
        assert_eq!(back, record, "binary → JSON → binary drifted");
    }
}

#[test]
fn truncation_at_every_offset_is_a_detected_failure() {
    for (kind, record) in genuine_records() {
        for cut in 0..record.len() {
            assert!(
                deep_decode(&record[..cut]).is_err(),
                "{kind:?}: truncation at byte {cut} of {} must be detected",
                record.len()
            );
        }
    }
}

#[test]
fn unknown_versions_fail_closed_for_every_kind() {
    for (kind, record) in genuine_records() {
        for version in [0u16, 2, FORMAT_VERSION + 1, 0x7fff, 0xffff] {
            let mut future = record.clone();
            future[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    deep_decode(&future),
                    Err(CodecError::UnsupportedVersion(v)) if v == version
                ),
                "{kind:?}: version {version} must be rejected by name"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in any record kind is detected —
    /// header damage by the structural checks, payload and trailer
    /// damage by the CRC-64.
    #[test]
    fn any_single_bit_flip_is_a_detected_failure(bit_seed in any::<u64>()) {
        for (kind, record) in genuine_records() {
            let bit = (bit_seed as usize) % (record.len() * 8);
            let mut damaged = record.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                deep_decode(&damaged).is_err(),
                "{:?}: flipping bit {} went undetected",
                kind,
                bit
            );
        }
    }

    /// Multi-bit damage (a burst of up to 8 random flips) never panics
    /// and never yields a record unless the flips cancelled out to the
    /// original bytes.
    #[test]
    fn random_bit_bursts_never_yield_a_wrong_record(
        seeds in collection::vec(any::<u64>(), 1..8),
    ) {
        for (kind, record) in genuine_records() {
            let mut damaged = record.clone();
            for seed in &seeds {
                let bit = (*seed as usize) % (record.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            match deep_decode(&damaged) {
                Err(_) => prop_assert!(
                    damaged != record,
                    "{:?}: undamaged record must decode",
                    kind
                ),
                Ok(reencoded) => {
                    // Flips can cancel pairwise; decoding may only
                    // succeed if the bytes really are pristine again.
                    prop_assert_eq!(&damaged, &record, "{:?}: damaged bytes decoded", kind);
                    prop_assert_eq!(&reencoded, &record);
                }
            }
        }
    }

    /// Arbitrary garbage never panics: it decodes or it errors, and the
    /// only inputs that decode are genuine BDBC records (which then
    /// re-encode to the identical bytes).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        match deep_decode(&bytes) {
            Err(_) => {}
            Ok(reencoded) => prop_assert_eq!(reencoded, bytes),
        }
    }
}
