//! The checked-in contract artifacts under `contracts/` are the static
//! mirror of the paper's structural invariants: `bdb-lint` validates the
//! files without building the workload crates, and these tests pin the
//! files to the code by regenerating them and comparing bytes.
//!
//! To refresh after an intentional catalog/metric/reduction change, run
//! `BDB_BLESS_CONTRACTS=1 cargo test --test contracts_sync` and commit
//! the rewritten files (then make `bdb-lint` pass again — a contract
//! that drifts from 77/45/17 is a paper regression, not a refresh).
//!
//! `contracts/machine_reports.tsv` pins `sim::Machine` itself: a
//! speed-only change to the simulator must leave it byte-identical, and
//! a bless that moves a row must say in CHANGES.md which metric moved
//! and why.

use bdb_engine::codec::report_to_value;
use bdb_sim::{CacheConfig, Machine, MachineConfig, PerfReport, Replacement};
use bdb_trace::TraceBuffer;
use bdb_workloads::catalog;
use bdb_workloads::{Scale, Suite, WorkloadDef};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn catalog_tsv() -> String {
    let mut out = String::from(
        "# The full workload catalog (BigDataBench 3.0 analog, paper §2).\n\
         # Generated by tests/contracts_sync.rs — do not edit by hand.\n\
         # id\tcategory\tstack\tkernel\tdataset\n",
    );
    for w in catalog::full_catalog() {
        let _ = writeln!(
            out,
            "{}\t{:?}\t{:?}\t{:?}\t{:?}",
            w.spec.id, w.spec.category, w.spec.stack, w.spec.kernel, w.spec.dataset
        );
    }
    out
}

fn metrics_txt() -> String {
    let mut out = String::from(
        "# The 45-metric characterization vector (paper §3), in order.\n\
         # Generated by tests/contracts_sync.rs — do not edit by hand.\n",
    );
    for name in bdb_wcrt::METRIC_NAMES {
        let _ = writeln!(out, "{name}");
    }
    out
}

fn reduction_txt() -> String {
    let mut out = String::from(
        "# The 77 -> 17 reduction (paper Table 2): cluster count, then one\n\
         # representative per cluster with the number of catalog workloads\n\
         # it stands for. Weights sum to 77.\n\
         # Generated by tests/contracts_sync.rs — do not edit by hand.\n\
         clusters = 17\n",
    );
    for (id, weight) in catalog::representative_weights() {
        let _ = writeln!(out, "{id}\t{weight}");
    }
    out
}

/// Workloads the machine pin replays: one per software-stack family.
const PINNED_WORKLOADS: [&str; 6] = [
    "H-WordCount",
    "S-Sort",
    "I-SelectQuery",
    "H-Read",
    "M-Grep",
    "PARSEC:canneal-like",
];

/// Small enough to keep the debug-profile test quick, large enough that
/// every cache level, TLB and predictor sees evictions.
const PIN_SCALE: f64 = 0.01;

/// The machine presets each pinned trace is replayed into, with the
/// row label. The last one is the only Random-replacement cache in use.
fn pinned_machines() -> Vec<(&'static str, MachineConfig)> {
    let random = |l1: CacheConfig| CacheConfig {
        replacement: Replacement::Random,
        ..l1
    };
    let sweep = MachineConfig::atom_sweep(16);
    vec![
        ("xeon_e5645", MachineConfig::xeon_e5645()),
        ("atom_d510", MachineConfig::atom_d510()),
        ("xeon_e5_2697", MachineConfig::xeon_e5_2697()),
        ("atom_sweep16", sweep.clone()),
        (
            "atom_sweep16_random_l1",
            MachineConfig {
                l1i: random(sweep.l1i),
                l1d: random(sweep.l1d),
                ..sweep
            },
        ),
    ]
}

fn pinned_def(id: &str) -> WorkloadDef {
    catalog::full_catalog()
        .into_iter()
        .chain(catalog::mpi_workloads())
        .chain(catalog::suite_workloads(Suite::Parsec))
        .find(|w| w.spec.id == id)
        .unwrap_or_else(|| panic!("pinned workload {id} is not in the catalog"))
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn report_row(workload: &str, machine: &str, r: &PerfReport) -> String {
    let bytes = report_to_value(r).encode();
    format!(
        "{workload}\t{machine}\t{:016x}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
        bdb_codec::crc64(bytes.as_bytes()),
        r.ipc(),
        r.l1i_mpki(),
        r.l2_mpki(),
        percent(r.branch.mispredicts, r.branch.branches),
        r.dtlb_mpki(),
    )
}

fn machine_reports_tsv() -> String {
    let mut out = String::from(
        "# sim::Machine reports: each workload captured once at Scale::custom(0.01)\n\
         # and replayed into every machine preset. crc64 covers the report's\n\
         # canonical JSON; the other columns say what moved when it changes.\n\
         # Generated by tests/contracts_sync.rs — do not edit by hand.\n\
         # workload\tmachine\tcrc64\tipc\tl1i_mpki\tl2_mpki\tmispredict_pct\tdtlb_mpki\n",
    );
    let machines = pinned_machines();
    for id in PINNED_WORKLOADS {
        let mut trace = TraceBuffer::new();
        let _ = pinned_def(id).run(&mut trace, Scale::custom(PIN_SCALE));
        for (label, config) in &machines {
            let mut machine = Machine::new(config.clone());
            trace.replay_into(&mut machine);
            let _ = writeln!(out, "{}", report_row(id, label, &machine.report()));
        }
    }
    out
}

fn check(rel: &str, expected: &str) {
    let path = repo_root().join(rel);
    if std::env::var_os("BDB_BLESS_CONTRACTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).unwrap();
        std::fs::write(&path, expected).unwrap();
        return;
    }
    let actual = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{rel} unreadable ({e}); run with BDB_BLESS_CONTRACTS=1"));
    assert_eq!(
        actual, expected,
        "{rel} is out of sync with the code; regenerate with BDB_BLESS_CONTRACTS=1 cargo test --test contracts_sync"
    );
}

#[test]
fn catalog_spec_matches_code() {
    check("contracts/catalog.tsv", &catalog_tsv());
}

#[test]
fn metric_schema_matches_code() {
    check("contracts/metrics.txt", &metrics_txt());
}

#[test]
fn reduction_config_matches_code() {
    check("contracts/reduction.txt", &reduction_txt());
}

#[test]
fn machine_reports_match_code() {
    check("contracts/machine_reports.tsv", &machine_reports_tsv());
}
