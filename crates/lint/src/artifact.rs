//! Artifact passes: the checked-in paper contracts and the on-disk JSON
//! artifacts.
//!
//! * `catalog-spec` — `contracts/catalog.tsv` lists exactly 77 workloads
//!   with unique ids and full subclass coverage.
//! * `metric-schema` — `contracts/metrics.txt` lists exactly 45 unique
//!   metric names.
//! * `reduction-config` — `contracts/reduction.txt` pins 17 clusters
//!   whose representative weights sum to 77 and whose ids exist in the
//!   catalog spec.
//! * `cache-format` — every `results/cache/*.json` entry and every
//!   golden cache-entry envelope under `contracts/fixtures/` parses,
//!   matches the v3 cache schema (format version, CRC-64 content
//!   checksum, fingerprint-in-filename, 45-metric vector), and survives
//!   canonical re-encoding byte for byte.
//! * `bench-format` — every `BENCH_*.json` record at the repo root is a
//!   canonical single-line JSON object with a `bench` tag.
//!
//! The code contracts these artifacts mirror are enforced by the root
//! test-suite (`tests/contracts_sync.rs`), which regenerates the files
//! from `bdb-workloads` / `bdb-wcrt` and compares bytes.

use crate::json::{self, Value};
use crate::{Diagnostic, PAPER_CLUSTERS, PAPER_METRICS, PAPER_WORKLOADS};
use bdb_codec::crc64;
use std::collections::BTreeSet;
use std::path::Path;

/// The three workload subclasses (paper §2) the catalog must cover.
const CATEGORIES: &[&str] = &["Service", "DataAnalysis", "InteractiveAnalysis"];

/// Runs every artifact pass.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let catalog_ids = check_catalog(root, &mut diags);
    check_metrics(root, &mut diags);
    check_reduction(root, &catalog_ids, &mut diags);
    check_cache_dir(&root.join("results/cache"), &mut diags);
    check_cache_dir(&root.join("contracts/fixtures"), &mut diags);
    check_bench_files(root, &mut diags);
    Ok(diags)
}

/// Non-comment, non-empty lines with their 1-indexed numbers.
fn data_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn check_catalog(root: &Path, diags: &mut Vec<Diagnostic>) -> BTreeSet<String> {
    const RULE: &str = "catalog-spec";
    let path = root.join("contracts/catalog.tsv");
    let mut ids = BTreeSet::new();
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing catalog spec (must list the {PAPER_WORKLOADS} workloads)"),
        ));
        return ids;
    };
    let rows = data_lines(&text);
    if rows.len() != PAPER_WORKLOADS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "catalog lists {} workloads; the paper's catalog has exactly {PAPER_WORKLOADS}",
                rows.len()
            ),
        ));
    }
    let mut categories_seen = BTreeSet::new();
    for (lineno, row) in rows {
        let fields: Vec<&str> = row.split('\t').collect();
        if fields.len() != 5 {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!(
                    "expected 5 tab-separated fields (id, category, stack, kernel, dataset), got {}",
                    fields.len()
                ),
            ));
            continue;
        }
        let id = fields[0];
        if !ids.insert(id.to_owned()) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("duplicate workload id `{id}`"),
            ));
        }
        if !CATEGORIES.contains(&fields[1]) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("unknown category `{}` for `{id}`", fields[1]),
            ));
        }
        categories_seen.insert(fields[1].to_owned());
    }
    for category in CATEGORIES {
        if !categories_seen.contains(*category) {
            diags.push(Diagnostic::new(
                &path,
                0,
                RULE,
                format!("no workload covers the `{category}` subclass"),
            ));
        }
    }
    ids
}

fn check_metrics(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "metric-schema";
    let path = root.join("contracts/metrics.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing metric schema (must list the {PAPER_METRICS} metrics)"),
        ));
        return;
    };
    let rows = data_lines(&text);
    if rows.len() != PAPER_METRICS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "schema lists {} metrics; the characterization vector has exactly {PAPER_METRICS}",
                rows.len()
            ),
        ));
    }
    let mut seen = BTreeSet::new();
    for (lineno, name) in rows {
        if !seen.insert(name.to_owned()) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("duplicate metric name `{name}`"),
            ));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("metric name `{name}` is not snake_case"),
            ));
        }
    }
}

fn check_reduction(root: &Path, catalog_ids: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "reduction-config";
    let path = root.join("contracts/reduction.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing reduction config (must pin the {PAPER_CLUSTERS} clusters)"),
        ));
        return;
    };
    let mut clusters: Option<u64> = None;
    let mut reps: Vec<(usize, String, u64)> = Vec::new();
    for (lineno, line) in data_lines(&text) {
        if let Some(rhs) = line.strip_prefix("clusters") {
            let rhs = rhs.trim_start().strip_prefix('=').map(str::trim);
            match rhs.and_then(|v| v.parse().ok()) {
                Some(v) => clusters = Some(v),
                None => diags.push(Diagnostic::new(
                    &path,
                    lineno,
                    RULE,
                    "malformed `clusters = <n>` line",
                )),
            }
        } else if let Some((id, weight)) = line.split_once('\t') {
            match weight.trim().parse() {
                Ok(w) => reps.push((lineno, id.to_owned(), w)),
                Err(_) => diags.push(Diagnostic::new(
                    &path,
                    lineno,
                    RULE,
                    format!("malformed weight for representative `{id}`"),
                )),
            }
        } else {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                "expected `clusters = <n>` or `<representative>\\t<weight>`",
            ));
        }
    }
    if clusters != Some(PAPER_CLUSTERS as u64) {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "reduction pins {clusters:?} clusters; the paper reduces 77 → {PAPER_CLUSTERS}"
            ),
        ));
    }
    if reps.len() != PAPER_CLUSTERS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "{} representatives listed; one per cluster means exactly {PAPER_CLUSTERS}",
                reps.len()
            ),
        ));
    }
    let total: u64 = reps.iter().map(|(_, _, w)| w).sum();
    if total != PAPER_WORKLOADS as u64 {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("representative weights sum to {total}, not {PAPER_WORKLOADS}"),
        ));
    }
    let mut seen = BTreeSet::new();
    for (lineno, id, _) in &reps {
        if !seen.insert(id.clone()) {
            diags.push(Diagnostic::new(
                &path,
                *lineno,
                RULE,
                format!("duplicate representative `{id}`"),
            ));
        }
        if !catalog_ids.is_empty() && !catalog_ids.contains(id) {
            diags.push(Diagnostic::new(
                &path,
                *lineno,
                RULE,
                format!("representative `{id}` is not in the catalog spec"),
            ));
        }
    }
}

/// Runs [`check_cache_entry`] on every `.json` file in `dir`: the
/// engine's cache directory and the golden envelopes under
/// `contracts/fixtures/`.
fn check_cache_dir(dir: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "cache-format";
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // a missing directory is fine — nothing persisted yet
    };
    let mut files: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            diags.push(Diagnostic::new(&file, 0, RULE, "unreadable cache entry"));
            continue;
        };
        check_cache_entry(&file, &text, diags);
    }
}

fn check_cache_entry(file: &Path, text: &str, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "cache-format";
    let mut emit = |message: String| diags.push(Diagnostic::new(file, 0, RULE, message));
    if !text.ends_with('\n') || text.ends_with("\n\n") || text.contains('\r') {
        emit("cache entry must be one line terminated by a single newline".into());
    }
    let body = text.trim_end_matches('\n');
    let value = match json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            emit(format!("cache entry is not valid JSON: {e}"));
            return;
        }
    };
    if value.encode() != body {
        emit("cache entry is not byte-stable: canonical re-encoding differs from the file".into());
    }
    if value.get("format").and_then(Value::as_u64) != Some(3) {
        emit("cache entry `format` must be the integer 3 (checksummed v3 schema)".into());
    }
    let crc = value
        .get("crc64")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned();
    if crc.len() != 16 || !crc.bytes().all(|b| b.is_ascii_hexdigit()) {
        emit(format!("`crc64` must be 16 hex digits, got {crc:?}"));
    } else if let Some(profile) = value.get("profile") {
        let actual = format!("{:016x}", crc64(profile.encode().as_bytes()));
        if !actual.eq_ignore_ascii_case(&crc) {
            emit(format!(
                "`crc64` is {crc} but the profile body hashes to {actual} — entry content was altered"
            ));
        }
    }
    let stem = file
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let fingerprint = value
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned();
    if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
        emit(format!(
            "`fingerprint` must be 16 hex digits, got {fingerprint:?}"
        ));
    } else if !stem.ends_with(&format!("-{fingerprint}")) {
        emit(format!(
            "filename fingerprint does not match the `fingerprint` field `{fingerprint}`"
        ));
    }
    let Some(profile) = value.get("profile") else {
        emit("cache entry has no `profile` object".into());
        return;
    };
    check_profile_shape(profile, &fingerprint, &stem, &mut emit);
}

/// Profile-schema checks of one cache entry.
fn check_profile_shape(
    profile: &Value,
    fingerprint: &str,
    stem: &str,
    emit: &mut dyn FnMut(String),
) {
    for key in ["spec", "report", "system", "metrics"] {
        if profile.get(key).is_none() {
            emit(format!("profile is missing the `{key}` field"));
        }
    }
    if let Some(id) = profile
        .get("spec")
        .and_then(|s| s.get("id"))
        .and_then(Value::as_str)
    {
        let safe: String = id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if !fingerprint.is_empty() && stem != format!("{safe}-{fingerprint}") {
            emit(format!(
                "filename does not encode the workload id `{id}` (expected `{safe}-{fingerprint}`)"
            ));
        }
    }
    match profile.get("metrics").and_then(Value::as_array) {
        Some(metrics) => {
            if metrics.len() != PAPER_METRICS {
                emit(format!(
                    "profile carries {} metrics; the characterization vector has exactly {PAPER_METRICS}",
                    metrics.len()
                ));
            }
            if let Some(bad) = metrics.iter().position(|m| !m.is_numeric()) {
                emit(format!("metric #{bad} is not numeric"));
            }
        }
        None => emit("profile `metrics` must be an array".into()),
    }
}

fn check_bench_files(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "bench-format";
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut files: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            diags.push(Diagnostic::new(&file, 0, RULE, "unreadable bench record"));
            continue;
        };
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            match json::parse(line) {
                Ok(value) => {
                    if value.get("bench").and_then(Value::as_str).is_none() {
                        diags.push(Diagnostic::new(
                            &file,
                            lineno,
                            RULE,
                            "bench record has no string `bench` tag",
                        ));
                    }
                    if value.encode() != line {
                        diags.push(Diagnostic::new(
                            &file,
                            lineno,
                            RULE,
                            "bench record is not byte-stable: canonical re-encoding differs",
                        ));
                    }
                }
                Err(e) => diags.push(Diagnostic::new(
                    &file,
                    lineno,
                    RULE,
                    format!("bench record is not valid JSON: {e}"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-lint-art-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("contracts")).unwrap();
        dir
    }

    fn catalog_text(n: usize) -> String {
        let mut out = String::from("# id\tcategory\tstack\tkernel\tdataset\n");
        for i in 0..n {
            let category = CATEGORIES[i % CATEGORIES.len()];
            out.push_str(&format!("W-{i}\t{category}\tHadoop\tSort\tWikipedia\n"));
        }
        out
    }

    #[test]
    fn short_catalog_is_rejected() {
        let root = scratch("catalog76");
        std::fs::write(root.join("contracts/catalog.tsv"), catalog_text(76)).unwrap();
        let mut diags = Vec::new();
        check_catalog(&root, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "catalog-spec" && d.message.contains("76")),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn full_catalog_is_accepted() {
        let root = scratch("catalog77");
        std::fs::write(root.join("contracts/catalog.tsv"), catalog_text(77)).unwrap();
        let mut diags = Vec::new();
        let ids = check_catalog(&root, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(ids.len(), 77);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn short_metric_schema_is_rejected() {
        let root = scratch("metrics44");
        let names: Vec<String> = (0..44).map(|i| format!("metric_{i}")).collect();
        std::fs::write(root.join("contracts/metrics.txt"), names.join("\n") + "\n").unwrap();
        let mut diags = Vec::new();
        check_metrics(&root, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == "metric-schema" && d.message.contains("44")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_unstable_cache_entry_is_rejected() {
        let mut diags = Vec::new();
        // Extra whitespace: parses fine, re-encodes differently.
        check_cache_entry(
            Path::new("X-1234567890abcdef.json"),
            "{ \"format\": 2 }\n",
            &mut diags,
        );
        assert!(diags.iter().any(|d| d.message.contains("byte-stable")));
    }

    #[test]
    fn crc64_matches_the_engine_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995dc9bbdf1939fa);
    }

    #[test]
    fn legacy_format_2_entry_is_rejected() {
        let mut diags = Vec::new();
        check_cache_entry(
            Path::new("X-1234567890abcdef.json"),
            "{\"format\":2,\"fingerprint\":\"1234567890abcdef\"}\n",
            &mut diags,
        );
        assert!(
            diags.iter().any(|d| d.message.contains("integer 3")),
            "{diags:?}"
        );
    }

    #[test]
    fn checksum_mismatch_is_rejected_and_match_accepted() {
        let profile = "{\"x\":1}";
        let good = format!("{:016x}", crc64(profile.as_bytes()));
        let entry = |crc: &str| {
            format!("{{\"format\":3,\"crc64\":\"{crc}\",\"fingerprint\":\"1234567890abcdef\",\"profile\":{profile}}}\n")
        };
        let mut diags = Vec::new();
        check_cache_entry(
            Path::new("X-1234567890abcdef.json"),
            &entry("0000000000000000"),
            &mut diags,
        );
        assert!(
            diags.iter().any(|d| d.message.contains("altered")),
            "{diags:?}"
        );
        let mut diags = Vec::new();
        check_cache_entry(
            Path::new("X-1234567890abcdef.json"),
            &entry(&good),
            &mut diags,
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("altered")),
            "{diags:?}"
        );
    }

    #[test]
    fn golden_envelope_passes_and_damage_is_flagged() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../contracts/fixtures/H-WordCount-00c0ffeef00dbeef.json");
        let text = std::fs::read_to_string(&golden).unwrap();
        let root = scratch("golden");
        std::fs::create_dir_all(root.join("contracts/fixtures")).unwrap();
        let copy = root.join("contracts/fixtures/H-WordCount-00c0ffeef00dbeef.json");
        std::fs::write(&copy, &text).unwrap();
        let mut diags = Vec::new();
        check_cache_dir(&root.join("contracts/fixtures"), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let damaged = text.replacen("\"instructions\":1000,", "\"instructions\":1001,", 1);
        assert_ne!(damaged, text);
        std::fs::write(&copy, damaged).unwrap();
        check_cache_dir(&root.join("contracts/fixtures"), &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "cache-format" && d.message.contains("altered")),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fixture_cache_envelope_gets_the_cache_entry_checks() {
        let root = scratch("envelope");
        std::fs::create_dir_all(root.join("contracts/fixtures")).unwrap();
        let envelope = root.join("contracts/fixtures/X-1234567890abcdef.json");
        std::fs::write(&envelope, "{\"format\":2}\n").unwrap();
        let mut diags = Vec::new();
        check_cache_dir(&root.join("contracts/fixtures"), &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "cache-format" && d.message.contains("integer 3")),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
