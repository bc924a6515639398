//! The shared `--help` renderer for the long-running daemons
//! (`bdb-clusterd`, `bdb-served`).
//!
//! The daemons used to hand-roll their usage strings, which drifted from
//! the engine's real knob surface (the clusterd text was missing four
//! `BDB_*` knobs it honoured). This module is the single source of the
//! daemon help layout: each binary supplies its summary, usage line,
//! options, and daemon-specific environment entries, and the shared
//! engine knob block is appended — so the block cannot drift
//! per-binary, and `crates/bench/tests/help_consistency.rs` pins every
//! daemon to this renderer.

/// One `name` + `description` row of an OPTIONS or ENVIRONMENT block.
pub type HelpEntry<'a> = (&'a str, &'a str);

/// The environment knobs every daemon honours: the full
/// `EngineConfig::from_env` surface. A
/// daemon built on the engine reads all of these, whether or not its
/// author remembered to document them — which is exactly why the list
/// lives here and not in each binary.
pub const DAEMON_ENGINE_ENV: &[HelpEntry<'static>] = &[
    (
        "BDB_THREADS",
        "Worker-pool width for the local engine (default: all cores)",
    ),
    (
        "BDB_POINT_THREADS",
        "Capacity-point fan-out width within one sweep (default: auto)",
    ),
    (
        "BDB_CACHE_DIR",
        "Profile-cache directory (default: results/cache/)",
    ),
    ("BDB_NO_CACHE", "Set to disable the disk cache"),
    (
        "BDB_CACHE_MAX_BYTES",
        "Disk-cache size cap in bytes with LRU eviction (default: unbounded)",
    ),
    ("BDB_JOURNAL", "Write-ahead run-journal path"),
    (
        "BDB_RESUME",
        "Set to resume completed work from the journal",
    ),
];

/// Renders one aligned `name  description` block line.
fn entry_line(out: &mut String, (name, desc): &HelpEntry<'_>) {
    out.push_str("    ");
    out.push_str(name);
    for _ in name.len()..24 {
        out.push(' ');
    }
    out.push(' ');
    out.push_str(desc);
    out.push('\n');
}

/// Renders a daemon's full `--help` text: summary, usage, options (with
/// `-h, --help` appended), then the ENVIRONMENT block — daemon-specific
/// entries first, the shared engine block after.
pub fn help_text(
    bin: &str,
    summary: &str,
    usage: &str,
    options: &[HelpEntry<'_>],
    extra_env: &[HelpEntry<'_>],
) -> String {
    let mut out = format!("{bin}: {summary}\n\nUSAGE:\n    {usage}\n\nOPTIONS:\n");
    for entry in options {
        entry_line(&mut out, entry);
    }
    entry_line(&mut out, &("-h, --help", "Print this help"));
    out.push_str("\nENVIRONMENT:\n");
    for entry in extra_env {
        entry_line(&mut out, entry);
    }
    for entry in DAEMON_ENGINE_ENV {
        entry_line(&mut out, entry);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_blocks_in_order() {
        let text = help_text(
            "bdb-testd",
            "test daemon",
            "bdb-testd [--listen <addr>]",
            &[("--listen <addr>", "Bind address")],
            &[("BDB_TEST_KNOB", "A daemon-specific knob")],
        );
        assert!(text.starts_with("bdb-testd: test daemon\n"));
        for needle in [
            "USAGE:",
            "OPTIONS:",
            "--listen <addr>",
            "-h, --help",
            "ENVIRONMENT:",
            "BDB_TEST_KNOB",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        for (name, _) in DAEMON_ENGINE_ENV {
            assert!(text.contains(name), "engine knob {name} missing");
        }
        let env_at = text.find("BDB_TEST_KNOB").unwrap();
        let engine_at = text.find("BDB_THREADS").unwrap();
        assert!(env_at < engine_at, "daemon-specific env renders first");
    }
}
