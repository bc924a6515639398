//! Golden binary fixture: the committed trace-chunk bytes under
//! `contracts/fixtures/` are the BDBC format's compatibility contract.
//!
//! The fixture is one BDBC trace-chunk record built from fixed sample
//! data, with a JSON interchange sidecar in exactly the shape
//! `bdb-lint`'s `binary-stability` pass validates. This test re-derives
//! both files and diffs them byte-for-byte against the checkout, so
//! *any* encoding change — column order, varint width, CRC polynomial —
//! fails CI until the change is deliberate and blessed:
//!
//! ```text
//! BDB_BLESS=1 cargo test -p bdb-codec --test golden_fixtures
//! ```

use bdb_codec::columnar;
use bdb_codec::json::Value;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../contracts/fixtures"
    ))
}

/// The golden record and its JSON interchange sidecar, built from data
/// fixed forever — never regenerate from live engine output.
fn golden() -> Vec<(&'static str, Vec<u8>, Value)> {
    let pc: Vec<u64> = (0..64).map(|i| 0x40_1000 + i * 4).collect();
    let arg: Vec<u64> = (0..64).map(|i| 0x7ffe_0000 + i * 8).collect();
    let kind: Vec<u8> = (0..64).map(|i| (i % 7) as u8).collect();
    let aux: Vec<u8> = (0..64).map(|i| (i % 5) as u8).collect();
    let chunk = columnar::encode_trace_chunk(&pc, &arg, &kind, &aux).expect("columns agree");
    let chunk_json =
        columnar::trace_chunk_to_json(&columnar::TraceChunkColumns { pc, arg, kind, aux });
    vec![("trace_chunk", chunk, chunk_json)]
}

#[test]
fn golden_fixtures_match_the_checkout() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("BDB_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("create contracts/fixtures");
    }
    for (name, record, interchange) in golden() {
        let bin = dir.join(format!("{name}.bin"));
        let json = dir.join(format!("{name}.json"));
        let sidecar = format!("{}\n", interchange.encode());
        if bless {
            std::fs::write(&bin, &record).expect("bless binary fixture");
            std::fs::write(&json, &sidecar).expect("bless JSON sidecar");
            continue;
        }
        let on_disk = std::fs::read(&bin).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {}: {e} (bless with BDB_BLESS=1)",
                bin.display()
            )
        });
        assert_eq!(
            on_disk, record,
            "{name}.bin drifted from the encoder — a format change must be deliberate; \
             re-bless with BDB_BLESS=1 and call it out in the PR"
        );
        let sidecar_on_disk = std::fs::read_to_string(&json)
            .unwrap_or_else(|e| panic!("missing sidecar {}: {e}", json.display()));
        assert_eq!(sidecar_on_disk, sidecar, "{name}.json sidecar drifted");
    }
}
