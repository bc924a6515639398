//! Pinned output digests: the benchmark's correctness check.
//!
//! `pinned/digests.tsv` holds a CRC-64 of every catalog profile's
//! canonical bytes, of every capacity-sweep curve and of the 77→17
//! reduction's representative list, all produced by the serial engine
//! path (`perfbench pin`). Every output the timed runs produce is checked
//! against it, so a change that moves one simulated bit fails the run.

use crate::{catalog_defs, catalog_scale, sweep_defs, sweep_scale};
use bdb_engine::{codec::profile_to_value, crc64, Engine};
use bdb_node::NodeConfig;
use bdb_sim::{MachineConfig, MissRatioCurve, SweepResult, PAPER_SWEEP_KIB};
use bdb_wcrt::reduction::ReductionConfig;
use bdb_wcrt::{reduce, ReductionResult, WorkloadProfile};
use std::collections::BTreeMap;

/// The pinned digest file, compiled in.
pub const PINNED: &str = include_str!("../pinned/digests.tsv");

/// CRC-64 of a profile's canonical bytes (the cache and wire encoding).
pub fn profile_digest(profile: &WorkloadProfile) -> u64 {
    crc64(profile_to_value(profile).encode().as_bytes())
}

/// CRC-64 of one miss-ratio curve: its label, metric and every point's
/// capacity and exact ratio bits.
pub fn curve_digest(curve: &MissRatioCurve) -> u64 {
    let mut text = format!("{}|{:?}", curve.label, curve.metric);
    for (kib, ratio) in &curve.points {
        text.push_str(&format!("|{kib}:{:016x}", ratio.to_bits()));
    }
    crc64(text.as_bytes())
}

/// The three curves of a sweep result, keyed `<label>/<curve>`.
pub fn sweep_curves(result: &SweepResult) -> [(String, &MissRatioCurve); 3] {
    let label = &result.instruction.label;
    [
        (format!("{label}/instruction"), &result.instruction),
        (format!("{label}/data"), &result.data),
        (format!("{label}/unified"), &result.unified),
    ]
}

/// CRC-64 of the reduction's representative ids, in result order.
pub fn reduction_digest(result: &ReductionResult) -> u64 {
    crc64(result.representative_ids().join(",").as_bytes())
}

/// The parsed digest table.
#[derive(Debug, Clone)]
pub struct Pinned {
    digests: BTreeMap<(String, String), u64>,
}

impl Pinned {
    /// Parses the compiled-in table.
    pub fn load() -> Result<Pinned, String> {
        Pinned::parse(PINNED)
    }

    /// Parses `kind<TAB>key<TAB>crc64-hex` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [kind, key, hex] = fields[..] else {
                return Err(format!("pinned digests line {}: want 3 fields", n + 1));
            };
            let crc = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("pinned digests line {}: {e}", n + 1))?;
            digests.insert((kind.to_owned(), key.to_owned()), crc);
        }
        if digests.is_empty() {
            return Err("pinned digest table is empty".to_owned());
        }
        Ok(Pinned { digests })
    }

    /// Compares one output digest with its pinned value.
    pub fn check(&self, kind: &str, key: &str, actual: u64) -> Result<(), String> {
        match self.digests.get(&(kind.to_owned(), key.to_owned())) {
            Some(&want) if want == actual => Ok(()),
            Some(&want) => Err(format!(
                "{kind} {key}: digest {actual:016x}, pinned {want:016x}"
            )),
            None => Err(format!("{kind} {key}: no pinned digest")),
        }
    }
}

/// Renders the digest table from the serial engine path — how
/// `pinned/digests.tsv` is produced (`perfbench pin`).
pub fn render_pinned() -> String {
    let engine = Engine::serial();
    let node = NodeConfig::default();
    let machine = MachineConfig::xeon_e5645();
    let defs = catalog_defs();
    let profiles = engine.profile_all(&defs, catalog_scale(), &machine, &node);
    let reduction = reduce(&profiles, ReductionConfig::default());
    let mut out = String::from(
        "# CRC-64 digests of the benchmark's outputs, rendered by `perfbench pin`\n\
         # from the serial engine path. Profiles: full catalog at Scale::tiny() on\n\
         # the Xeon E5645. Curves: Fig 6-9 sweep sets at scale 0.05 over\n\
         # PAPER_SWEEP_KIB. Columns: kind, key, crc64.\n",
    );
    for profile in &profiles {
        out.push_str(&format!(
            "profile\t{}\t{:016x}\n",
            profile.spec.id,
            profile_digest(profile)
        ));
    }
    out.push_str(&format!(
        "reduction\trepresentatives\t{:016x}\n",
        reduction_digest(&reduction)
    ));
    for def in sweep_defs() {
        let result = engine.sweep(&def.spec.id, &PAPER_SWEEP_KIB, |sink| {
            let _ = def.run(sink, sweep_scale());
        });
        for (key, curve) in sweep_curves(&result) {
            out.push_str(&format!("curve\t{key}\t{:016x}\n", curve_digest(curve)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Pinned::parse("profile\tx\n").is_err());
        assert!(Pinned::parse("profile\tx\tzz\n").is_err());
        let pinned = Pinned::parse("# c\nprofile\tx\t00000000000000ff\n").expect("parses");
        assert!(pinned.check("profile", "x", 255).is_ok());
        assert!(pinned.check("profile", "x", 254).is_err());
        assert!(pinned.check("profile", "y", 255).is_err());
    }

    #[test]
    fn compiled_table_covers_every_output() {
        let pinned = Pinned::load().expect("pinned table parses");
        let count = |kind: &str| pinned.digests.keys().filter(|(k, _)| k == kind).count();
        assert_eq!(count("profile"), catalog_defs().len());
        assert_eq!(count("curve"), 3 * sweep_defs().len());
        assert_eq!(count("reduction"), 1);
    }
}
