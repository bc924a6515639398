//! Guards against `--help` / environment-knob drift.
//!
//! Every engine-backed figure/table binary renders its help through the
//! single shared [`bdb_bench::help_text`] (wired in via
//! `scale_from_args`). These tests pin both halves of that invariant:
//! the shared text lists every knob the engine actually reads, and every
//! engine-backed binary actually routes through the shared parser.

use std::path::Path;

/// Every CLI option and environment variable the engine layer honours.
/// Adding a knob to `EngineConfig::from_env` or `cluster_addrs` without
/// documenting it here (and thus in every binary's --help) is a bug.
const REQUIRED_KNOBS: &[&str] = &[
    "--scale",
    "--cluster",
    "BDB_THREADS",
    "BDB_POINT_THREADS",
    "BDB_CACHE_DIR",
    "BDB_NO_CACHE",
    "BDB_CACHE_MAX_BYTES",
    "BDB_CLUSTER",
    "--resume",
    "BDB_JOURNAL",
    "BDB_RESUME",
];

#[test]
fn shared_help_lists_every_engine_knob() {
    let help = bdb_bench::help_text("fig1_instruction_mix");
    for knob in REQUIRED_KNOBS {
        assert!(
            help.contains(knob),
            "help text is missing the {knob} knob:\n{help}"
        );
    }
    assert!(help.contains("fig1_instruction_mix"), "bin name rendered");
}

#[test]
fn every_engine_backed_binary_wires_the_shared_help() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut checked = 0;
    for entry in std::fs::read_dir(&bin_dir).expect("list src/bin") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read bin source");
        let engine_backed = ["profile_on", "engine()", "group_sweep", "suite_profiles"]
            .iter()
            .any(|marker| source.contains(marker));
        if !engine_backed {
            continue;
        }
        assert!(
            source.contains("scale_from_args"),
            "{} profiles through the engine but does not call scale_from_args, \
             so it lacks the shared --help/--scale/--cluster handling",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 19,
        "expected at least 19 engine-backed binaries, found {checked}"
    );
}

/// The daemon binaries render help through the shared
/// `daemon_help_text` (in `bdb-cluster`), not hand-rolled strings.
const DAEMON_BINS: &[&str] = &[
    "../cluster/src/bin/bdb_clusterd.rs",
    "../serve/src/bin/bdb_served.rs",
    "../serve/src/bin/serve_smoke.rs",
];

#[test]
fn every_daemon_binary_wires_the_shared_help() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in DAEMON_BINS {
        let path = crate_dir.join(rel);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            source.contains("daemon_help_text("),
            "{} hand-rolls its help instead of using daemon_help_text",
            path.display()
        );
    }
}

#[test]
fn shared_daemon_env_block_lists_every_engine_knob() {
    let block: Vec<&str> = bdb_cluster::DAEMON_ENGINE_ENV
        .iter()
        .map(|(name, _)| *name)
        .collect();
    for knob in REQUIRED_KNOBS {
        if !knob.starts_with("BDB_") || *knob == "BDB_CLUSTER" {
            continue; // CLI flags and the coordinator-side fleet list
        }
        assert!(
            block.contains(knob),
            "DAEMON_ENGINE_ENV is missing the engine knob {knob}"
        );
    }
}

#[test]
fn served_help_documents_its_own_knobs() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(crate_dir.join("../serve/src/bin/bdb_served.rs"))
        .expect("read bdb_served source");
    for knob in [
        "BDB_SERVE_ADDR",
        "BDB_SERVE_MAX_CLIENTS",
        "BDB_SERVE_SUB_QUEUE",
    ] {
        assert!(
            source.contains(knob),
            "bdb_served help must document {knob}"
        );
    }
}
