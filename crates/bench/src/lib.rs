//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; this library holds the common plumbing: scale parsing, the
//! process-wide execution [`engine`] all measurements flow through, and
//! grouping/averaging helpers.
//!
//! # The shared engine
//!
//! Binaries obtain profiles exclusively via [`profile_on`] /
//! [`profile_on_xeon`] and sweeps via [`group_sweep`], which all route
//! through one lazily-built [`bdb_engine::Engine`]. That gives every
//! binary parallel fan-out plus the on-disk profile cache for free.
//! Environment knobs (parsed by [`EngineConfig::from_env`], shared with
//! `bdb-clusterd` so the harness and workers cannot drift; every binary's
//! `--help` renders the same list via [`help_text`]):
//!
//! * `BDB_CACHE_DIR` — cache directory (default: `results/cache/` at the
//!   workspace root).
//! * `BDB_NO_CACHE=1` — disable the disk cache for this run.
//! * `BDB_THREADS=<n>` — cap the worker pool (default: all cores).
//! * `BDB_POINT_THREADS=<n>` — fan each capacity sweep's points across
//!   `n` threads even below the auto work threshold (default: auto —
//!   width follows the worker pool, small sweeps stay serial).
//! * `BDB_CACHE_MAX_BYTES=<n>` — cap the disk cache (LRU eviction).
//! * `BDB_CLUSTER=<addr,addr>` — profile via remote `bdb-clusterd`
//!   workers instead of the local engine (also `--cluster addr,addr`).
//! * `BDB_JOURNAL=<path>` — checkpoint completed profiles/sweeps into a
//!   write-ahead run journal.
//! * `BDB_RESUME=1` (or the `--resume` flag) — resume completed work
//!   from the journal instead of recomputing it; with no explicit
//!   journal path, each binary journals to `results/journal/<bin>.wal`.

use bdb_cluster::{profile_all_distributed, TcpTransport, Transport};
use bdb_engine::{Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::profile::WorkloadProfile;
use bdb_wcrt::SystemClass;
use bdb_workloads::{Category, Scale, WorkloadDef};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

static ENGINE: OnceLock<Engine> = OnceLock::new();
static CLUSTER: OnceLock<Option<Vec<String>>> = OnceLock::new();

/// The process-wide execution engine every measurement flows through.
///
/// Built on first use from the environment (see the crate docs for the
/// knobs). All figure/table binaries and the Criterion benches share this
/// one instance, so a profile computed for one table is a memory-cache
/// hit for the next.
pub fn engine() -> &'static Engine {
    ENGINE.get_or_init(|| {
        let engine = Engine::new(engine_config_from_invocation());
        if let Some((tasks, sweeps)) = engine.journal_preloaded() {
            if tasks + sweeps > 0 {
                eprintln!("bdb-bench: journal preloaded {tasks} profiles and {sweeps} sweeps");
            }
        }
        engine
    })
}

/// [`EngineConfig::from_env`] plus the bench-only `--resume` argv flag.
///
/// `--resume` behaves exactly like `BDB_RESUME=1`, except that the
/// default journal path is per-binary (`results/journal/<bin>.wal`) so
/// two figure binaries interrupted back to back never splice into each
/// other's journal. An explicit `BDB_JOURNAL` always wins.
fn engine_config_from_invocation() -> EngineConfig {
    let mut config = EngineConfig::from_env();
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "--resume") {
        config = config.resume();
    }
    if config.resume && config.journal_path.is_none() {
        let path = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/journal"
        ))
        .join(format!("{}.wal", bin_name(&args)));
        config = config
            .journal(path)
            .journal_context(bdb_engine::argv_journal_context());
    }
    config
}

/// The invoking binary's name (argv\[0\] file stem), for per-binary
/// journal paths and `--help` headers.
fn bin_name(args: &[String]) -> String {
    args.first()
        .map(|p| {
            std::path::Path::new(p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.clone())
        })
        .unwrap_or_else(|| "bdb-bench".to_owned())
}

/// Worker addresses for distributed profiling, if configured via
/// `--cluster a,b` or `BDB_CLUSTER=a,b`. `None` means run locally.
pub fn cluster_addrs() -> Option<&'static [String]> {
    CLUSTER
        .get_or_init(|| {
            let args: Vec<String> = std::env::args().collect();
            let mut spec = None;
            for pair in args.windows(2) {
                if pair[0] == "--cluster" {
                    spec = Some(pair[1].clone());
                }
            }
            let spec = spec.or_else(|| std::env::var("BDB_CLUSTER").ok())?;
            let addrs: Vec<String> = spec
                .split(',')
                .filter(|a| !a.is_empty())
                .map(str::to_owned)
                .collect();
            (!addrs.is_empty()).then_some(addrs)
        })
        .as_deref()
}

/// The usage text every figure/table binary prints for `--help`: one
/// shared renderer, so the option and environment-knob lists cannot
/// drift between binaries (a test greps this for every knob).
pub fn help_text(bin: &str) -> String {
    format!(
        "\
{bin}: regenerates one table/figure of the paper reproduction

USAGE:
    {bin} [--scale tiny|small|paper|<factor>] [--cluster <addr,addr,...>] [--resume]

OPTIONS:
    --scale <s>       Input scale (default small; paper regenerates reported numbers)
    --cluster <list>  Profile via remote bdb-clusterd workers (comma-separated addresses)
    --resume          Resume completed work from the run journal (results/journal/{bin}.wal)
    -h, --help        Print this help

ENVIRONMENT:
    BDB_THREADS          Worker-pool width for the local engine (default: all cores)
    BDB_POINT_THREADS    Capacity-point fan-out width within one sweep (default: auto)
    BDB_CACHE_DIR        Profile-cache directory (default: results/cache/)
    BDB_NO_CACHE         Set to disable the disk cache
    BDB_CACHE_MAX_BYTES  Disk-cache size cap in bytes with LRU eviction (default: unbounded)
    BDB_CLUSTER          Worker addresses, same meaning as --cluster
    BDB_JOURNAL          Write-ahead run-journal path (default: results/journal/{bin}.wal)
    BDB_RESUME           Set to resume from the journal, same meaning as --resume
"
    )
}

/// Parses `--scale tiny|small|paper|<factor>` from argv (default: small),
/// and handles `--help`/`-h` by printing [`help_text`] and exiting.
///
/// The figure binaries accept this so CI can smoke-test them quickly while
/// `--scale paper` regenerates the reported numbers.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "--help" || a == "-h") {
        print!("{}", help_text(&bin_name(&args)));
        std::process::exit(0);
    }
    let mut scale = Scale::small();
    for pair in args.windows(2) {
        if pair[0] == "--scale" {
            scale = match pair[1].as_str() {
                "tiny" => Scale::tiny(),
                "small" => Scale::small(),
                "paper" => Scale::paper(),
                other => Scale::custom(
                    other
                        .parse()
                        // bdb-lint: allow(panic-hygiene): CLI config abort.
                        .unwrap_or_else(|_| panic!("bad scale: {other}")),
                ),
            };
        }
    }
    scale
}

/// Profiles workloads on an arbitrary platform. With a cluster
/// configured ([`cluster_addrs`]) the batch is sharded across the remote
/// workers — the merge is byte-identical to a local run, so callers
/// cannot tell the difference; any cluster failure falls back to the
/// local [`engine`] with a warning rather than aborting the figure.
pub fn profile_on(
    defs: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Vec<WorkloadProfile> {
    if let Some(addrs) = cluster_addrs() {
        match profile_via_cluster(addrs, defs, scale, machine, node) {
            Ok(profiles) => return profiles,
            Err(e) => {
                eprintln!("warning: distributed run failed ({e}); falling back to local engine");
            }
        }
    }
    engine().profile_all(defs, scale, machine, node)
}

/// One coordinator session over TCP: dial every worker, shard, merge.
fn profile_via_cluster(
    addrs: &[String],
    defs: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Result<Vec<WorkloadProfile>, String> {
    let mut workers: Vec<Arc<dyn Transport>> = Vec::new();
    for addr in addrs {
        let transport = TcpTransport::connect(addr, Duration::from_secs(10))
            .map_err(|e| format!("worker {addr}: {e}"))?;
        workers.push(Arc::new(transport));
    }
    profile_all_distributed(workers, defs, scale, machine, node).map_err(|e| e.to_string())
}

/// Profiles workloads on the reference platform (Xeon E5645 + default node).
pub fn profile_on_xeon(defs: &[WorkloadDef], scale: Scale) -> Vec<WorkloadProfile> {
    profile_on(
        defs,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    )
}

/// Mean of `f` over the profiles (0 for an empty slice).
pub fn mean_of(profiles: &[&WorkloadProfile], f: impl Fn(&WorkloadProfile) -> f64) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    profiles.iter().map(|p| f(p)).sum::<f64>() / profiles.len() as f64
}

/// Splits profiles by application category (paper's three subclasses).
pub fn by_category(profiles: &[WorkloadProfile]) -> Vec<(Category, Vec<&WorkloadProfile>)> {
    [
        Category::Service,
        Category::DataAnalysis,
        Category::InteractiveAnalysis,
    ]
    .into_iter()
    .map(|c| {
        (
            c,
            profiles.iter().filter(|p| p.spec.category == c).collect(),
        )
    })
    .collect()
}

/// Splits profiles by system-behaviour class (paper's other subclassing).
pub fn by_system_class(profiles: &[WorkloadProfile]) -> Vec<(SystemClass, Vec<&WorkloadProfile>)> {
    [
        SystemClass::CpuIntensive,
        SystemClass::IoIntensive,
        SystemClass::Hybrid,
    ]
    .into_iter()
    .map(|c| (c, profiles.iter().filter(|p| p.system_class == c).collect()))
    .collect()
}

/// Profiles every kernel of a comparison suite and returns
/// `(suite label, per-kernel profiles)`.
pub fn suite_profiles(scale: Scale) -> Vec<(String, Vec<WorkloadProfile>)> {
    bdb_workloads::catalog::ALL_SUITES
        .iter()
        .map(|&suite| {
            let defs = bdb_workloads::catalog::suite_workloads(suite);
            (suite.to_string(), profile_on_xeon(&defs, scale))
        })
        .collect()
}

/// Averages per-workload capacity-sweep curves point-wise over a workload
/// group (how Figures 6–9 aggregate "Hadoop-workloads" etc.).
pub fn group_sweep(
    label: &str,
    defs: &[WorkloadDef],
    scale: Scale,
    pick: fn(&bdb_sim::SweepResult) -> &bdb_sim::MissRatioCurve,
) -> bdb_sim::MissRatioCurve {
    use bdb_sim::PAPER_SWEEP_KIB;
    let mut acc = vec![0.0f64; PAPER_SWEEP_KIB.len()];
    for def in defs {
        let result = engine().sweep(&def.spec.id, &PAPER_SWEEP_KIB, |machine| {
            let _ = def.run(machine, scale);
        });
        let curve = pick(&result);
        for (a, (_, r)) in acc.iter_mut().zip(&curve.points) {
            *a += r / defs.len() as f64;
        }
    }
    bdb_sim::MissRatioCurve {
        label: label.to_owned(),
        metric: bdb_sim::SweepMetric::Instruction,
        points: PAPER_SWEEP_KIB.iter().copied().zip(acc).collect(),
    }
}

/// The Hadoop workloads used in the paper's §5.4 locality case study.
pub fn hadoop_sweep_defs() -> Vec<WorkloadDef> {
    bdb_workloads::catalog::full_catalog()
        .into_iter()
        .filter(|w| {
            matches!(w.spec.stack, bdb_stacks::StackKind::Hadoop)
                && ["H-WordCount", "H-Grep", "H-Sort", "H-NaiveBayes"].contains(&w.spec.id.as_str())
        })
        .collect()
}

/// The PARSEC comparison kernels used by the sweep figures: the paper's
/// MARSS runs use `simsmall` inputs, whose working sets are modest, so the
/// sweep uses the kernels with simsmall-like footprints (blackscholes,
/// bodytrack, streamcluster, swaptions) rather than canneal's deliberately
/// huge random set.
pub fn parsec_sweep_defs() -> Vec<WorkloadDef> {
    let all = bdb_workloads::catalog::suite_workloads(bdb_workloads::suites::Suite::Parsec);
    [0usize, 1, 5, 6].iter().map(|&i| all[i].clone()).collect()
}

/// The six MPI control workloads (Figure 9's third curve).
pub fn mpi_sweep_defs() -> Vec<WorkloadDef> {
    bdb_workloads::catalog::mpi_workloads()
        .into_iter()
        .filter(|w| {
            ["M-WordCount", "M-Grep", "M-Sort", "M-NaiveBayes"].contains(&w.spec.id.as_str())
        })
        .collect()
}

/// The per-point replay reference sweep: captures `def`'s trace once and
/// replays a full Atom-like machine at every capacity
/// ([`bdb_sim::sweep_point_replay`]). Byte-identical to the engine's
/// fused sweep; `perf_smoke` and the engine bench check and time it.
pub fn replay_per_point_sweep(
    def: &WorkloadDef,
    scale: Scale,
    capacities_kib: &[u64],
) -> bdb_sim::SweepResult {
    let buffer = bdb_trace::TraceBuffer::capture(|sink| {
        let _ = def.run(sink, scale);
    });
    let points = capacities_kib
        .iter()
        .map(|&kib| bdb_sim::sweep_point_replay(kib, &buffer))
        .collect();
    bdb_sim::assemble_sweep(&def.spec.id, capacities_kib, points)
}

/// Renders a sweep-figure table with one column per curve.
pub fn render_sweep_table(curves: &[&bdb_sim::MissRatioCurve]) -> String {
    let mut headers = vec!["cache KiB".to_owned()];
    headers.extend(curves.iter().map(|c| format!("{} miss%", c.label)));
    let mut table = bdb_wcrt::report::TextTable::new(headers);
    for (i, &kib) in bdb_sim::PAPER_SWEEP_KIB.iter().enumerate() {
        let mut row = vec![kib.to_string()];
        row.extend(
            curves
                .iter()
                .map(|c| format!("{:.4}", c.points[i].1 * 100.0)),
        );
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::catalog;

    #[test]
    fn category_split_covers_all_profiles() {
        let reps: Vec<WorkloadDef> = catalog::representatives().into_iter().take(3).collect();
        let profiles = profile_on_xeon(&reps, Scale::tiny());
        let split = by_category(&profiles);
        let total: usize = split.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, profiles.len());
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean_of(&[], |_| 1.0), 0.0);
    }
}
