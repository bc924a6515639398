//! Golden cache-entry envelope: canonical JSON is the profile cache's
//! only encoding, so its bytes are a compatibility contract.
//!
//! The committed fixture under `contracts/fixtures/` is the envelope
//! [`encode_cache_entry`] writes for a profile fixed in this file. This
//! test re-encodes that profile and diffs the result byte-for-byte
//! against the checkout, so any change to the envelope — key order,
//! float formatting, the CRC-64, the format version — fails until it is
//! deliberate and blessed:
//!
//! ```text
//! BDB_BLESS=1 cargo test -p bdb-engine --test golden_cache_entry
//! ```
//!
//! `bdb-lint`'s `cache-format` pass checks the same file against the cache
//! schema, and [`verify_cache_entry`] must accept it.

use bdb_datagen::DataSetId;
use bdb_engine::codec::profile_to_value;
use bdb_engine::{encode_cache_entry, verify_cache_entry};
use bdb_node::SystemMetrics;
use bdb_sim::{BranchStats, CacheStats, PerfReport};
use bdb_stacks::{DataBehavior, Relation, StackKind};
use bdb_trace::InstructionMix;
use bdb_wcrt::{MetricVector, SystemClass, WorkloadProfile, METRIC_COUNT};
use bdb_workloads::{Category, KernelKind, WorkloadSpec};
use std::path::PathBuf;

const FINGERPRINT: u64 = 0x00c0_ffee_f00d_beef;

fn fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../contracts/fixtures/H-WordCount-00c0ffeef00dbeef.json"
    ))
}

/// A profile built from data fixed forever — never regenerate it from
/// live simulator output. The floats cover shortest-roundtrip decimals,
/// integers stored as floats, and negative zero.
fn golden_profile() -> WorkloadProfile {
    let cache = |accesses, misses, writebacks| CacheStats {
        accesses,
        misses,
        writebacks,
    };
    let metrics: [f64; METRIC_COUNT] = std::array::from_fn(|i| match i {
        0 => -0.0,
        1 => 1.0,
        _ => (i as f64 + 1.0) / 7.0,
    });
    WorkloadProfile {
        spec: WorkloadSpec {
            id: "H-WordCount".to_owned(),
            stack: StackKind::Hadoop,
            category: Category::DataAnalysis,
            dataset: DataSetId::Wikipedia,
            kernel: KernelKind::WordCount,
        },
        report: PerfReport {
            platform: "golden".to_owned(),
            mix: InstructionMix {
                loads: 300,
                stores: 120,
                branches: 150,
                int_addr: 200,
                fp_addr: 10,
                int_other: 210,
                fp: 10,
                bytes_moved: 3360,
            },
            instructions: 1000,
            cycles: 1234.5,
            l1i: cache(1000, 17, 0),
            l1d: cache(420, 31, 9),
            l2: cache(48, 12, 3),
            l3: cache(12, 5, 1),
            itlb_misses: 4,
            dtlb_misses: 6,
            itlb_walks: 1,
            dtlb_walks: 2,
            stlb_misses: 3,
            branch: BranchStats {
                branches: 150,
                mispredicts: 11,
                conditionals: 120,
                cond_mispredicts: 9,
            },
            fetch_stall_cycles: 101.25,
            data_stall_cycles: 0.1,
            branch_stall_cycles: 165.0,
            tlb_stall_cycles: 1e-3,
            offcore_requests: 17,
            snoop_responses: 2,
        },
        system: SystemMetrics {
            wall_seconds: 2.5,
            cpu_utilization: 91.75,
            io_wait_ratio: 0.3,
            weighted_io_ratio: 1.0 / 3.0,
            disk_bandwidth_mbps: 120.0,
            net_bandwidth_mbps: 0.0,
        },
        system_class: SystemClass::CpuIntensive,
        data_behavior: DataBehavior {
            output: Relation::Less,
            intermediate: Some(Relation::Greater),
        },
        input_bytes: 1 << 20,
        intermediate_bytes: 3 << 19,
        output_bytes: 4096,
        metrics: MetricVector::from_values(metrics),
    }
}

#[test]
fn golden_cache_entry_matches_the_checkout() {
    let profile = golden_profile();
    let entry = encode_cache_entry(FINGERPRINT, &profile);
    let path = fixture_path();
    if std::env::var_os("BDB_BLESS").is_some() {
        std::fs::write(&path, &entry).expect("bless golden cache entry");
        return;
    }
    let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden cache entry {}: {e} (bless with BDB_BLESS=1)",
            path.display()
        )
    });
    assert_eq!(
        String::from_utf8_lossy(&on_disk),
        String::from_utf8_lossy(&entry),
        "the cache-entry envelope drifted from the encoder — a format change must be \
         deliberate; re-bless with BDB_BLESS=1 and say so in the change notes"
    );
    let decoded = verify_cache_entry(&on_disk, FINGERPRINT).expect("golden entry verifies");
    assert_eq!(
        profile_to_value(&decoded).encode(),
        profile_to_value(&profile).encode()
    );
    assert!(
        verify_cache_entry(&on_disk, FINGERPRINT ^ 1).is_err(),
        "an entry must not verify under another fingerprint"
    );
}

/// The golden entry's text, for the damage cases below.
fn golden_text() -> String {
    String::from_utf8(encode_cache_entry(FINGERPRINT, &golden_profile()))
        .expect("entries are UTF-8")
}

/// `entry` with its first `from` replaced by `to`; panics if `from` is
/// absent so a damage case can never silently test the pristine entry.
fn damaged(entry: &str, from: &str, to: &str) -> Vec<u8> {
    assert!(entry.contains(from), "{from:?} not in the entry");
    entry.replacen(from, to, 1).into_bytes()
}

#[test]
fn value_equal_damage_to_a_profile_float_fails_the_checksum() {
    // An exponent-form float: flipping its `e` to `E` leaves the parsed
    // value unchanged, so only the stored-bytes checksum can catch it.
    let mut profile = golden_profile();
    profile.report.tlb_stall_cycles = 1e-7;
    let entry = String::from_utf8(encode_cache_entry(FINGERPRINT, &profile)).unwrap();
    verify_cache_entry(entry.as_bytes(), FINGERPRINT).expect("pristine entry verifies");
    let err = verify_cache_entry(&damaged(&entry, "1e-7", "1E-7"), FINGERPRINT).unwrap_err();
    assert!(err.contains("checksum mismatch"), "{err}");
}

#[test]
fn reordered_envelope_keys_are_rejected() {
    let entry = golden_text();
    let (head, rest) = entry.split_once(",\"crc64\":").unwrap();
    let (crc, rest) = rest.split_once(',').unwrap();
    let format = head.strip_prefix('{').unwrap();
    let reordered = format!("{{\"crc64\":{crc},{format},{rest}");
    assert!(verify_cache_entry(reordered.as_bytes(), FINGERPRINT).is_err());
}

#[test]
fn whitespace_inside_the_envelope_is_rejected() {
    let entry = golden_text();
    for (from, to) in [
        ("{\"format\":", "{ \"format\":"),
        ("\"format\":", "\"format\": "),
        (",\"crc64\"", ", \"crc64\""),
        (",\"profile\":", ",\"profile\" :"),
    ] {
        assert!(
            verify_cache_entry(&damaged(&entry, from, to), FINGERPRINT).is_err(),
            "{to:?} accepted"
        );
    }
    let closing = entry.trim_end().strip_suffix('}').unwrap();
    assert!(verify_cache_entry(format!("{closing} }}\n").as_bytes(), FINGERPRINT).is_err());
}

#[test]
fn another_format_version_reports_the_format_error() {
    let entry = golden_text();
    let err = verify_cache_entry(
        &damaged(&entry, "{\"format\":3,", "{\"format\":2,"),
        FINGERPRINT,
    )
    .unwrap_err();
    assert!(err.contains("unsupported cache format"), "{err}");
}
