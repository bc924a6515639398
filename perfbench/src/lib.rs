//! `perfbench` — the repository's benchmark.
//!
//! It drives the library from outside, through the public functions of
//! the workload, trace, simulator, node, WCRT, engine, codec, cluster and
//! serve crates, and times those calls. Four workloads each stress a
//! different layer (see `BENCHMARK.json` for why each was chosen and
//! which layer metric should move which end-to-end metric):
//!
//! * [`catalog`] — `Engine::profile_all` over the 77-workload catalog,
//!   then the 77→17 reduction (the paper's main experiment).
//! * [`sweep`] — `Engine::sweep_all` over the Fig 6–9 sets in the fused
//!   mode, which bypasses `sim::Machine`.
//! * [`serve`] — open-loop queries beside closed-loop mutations against
//!   an in-process `bdb_serve::Server` on localhost TCP. Not declared in
//!   `BENCHMARK.json` while its delta-versus-cold-recompute check fails
//!   (see `README.md`).
//! * [`cluster`] — repeated 77-task merges over loopback workers whose
//!   disk caches are primed, so nothing is computed.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans at the benchmark's calls into each layer
//! and reports per-layer metrics instead. Every output is checked against
//! the pinned digests in [`digests`].

pub mod catalog;
pub mod cluster;
pub mod digests;
pub mod layers;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod tracer;

use bdb_workloads::{Scale, WorkloadDef};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Scale of the profiled catalog (`catalog_profile`, `serve_mixed`,
/// `cluster_warm`).
pub fn catalog_scale() -> Scale {
    Scale::tiny()
}

/// Scale of the capacity sweeps (`capacity_sweep`).
pub fn sweep_scale() -> Scale {
    Scale::custom(0.05)
}

/// The full 77-workload catalog, in catalog order.
pub fn catalog_defs() -> Vec<WorkloadDef> {
    bdb_workloads::catalog::full_catalog()
}

/// The Fig 6–9 sweep sets: Hadoop, PARSEC and MPI, 12 workloads.
pub fn sweep_defs() -> Vec<WorkloadDef> {
    let mut defs = bdb_bench::hadoop_sweep_defs();
    defs.extend(bdb_bench::parsec_sweep_defs());
    defs.extend(bdb_bench::mpi_sweep_defs());
    defs
}

/// The seed a result is recorded under unless a claim needs another.
pub const DEFAULT_SEED: u64 = 1;

/// The seed kept aside for confirming a claim made on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7;

/// Times a cheap set-up (catalog and sweep job construction) is
/// repeated; `setup_s` is the median.
pub const CHEAP_SETUP_REPS: usize = 25;

/// Times a set-up that computes (serve materialization, cluster cache
/// priming) is repeated; `setup_s` is the median.
pub const COMPUTING_SETUP_REPS: usize = 3;

/// End-to-end metrics and their units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_mips", "1/us"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics and their units, reported by every traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.gen_ns_per_event", "ns"),
    ("workloads.events", "count"),
    ("trace.replay_ns_per_event", "ns"),
    ("trace.untraced_ns_per_event", "ns"),
    ("trace.layer_coverage_pct", "%"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("sim.machine_ns_per_event", "ns"),
    ("sim.cache_ns_per_access", "ns"),
    ("sim.extract_ns_per_event", "ns"),
    ("sim.fused_ns_per_entry", "ns"),
    ("sim.stream_entries", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "cycles"),
    ("sim.fetch_stall_cycles", "cycles"),
    ("sim.data_stall_cycles", "cycles"),
    ("sim.branch_stall_cycles", "cycles"),
    ("sim.tlb_stall_cycles", "cycles"),
    ("sim.l1i_misses", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.l3_misses", "count"),
    ("sim.branch_mispredicts", "count"),
    ("sim.paper_err_pct", "%"),
    ("node.run_phase_us", "us"),
    ("wcrt.reduce_ms", "ms"),
    ("engine.store_write_us", "us"),
    ("engine.store_read_us", "us"),
    ("engine.computed", "count"),
    ("engine.disk_hits", "count"),
    ("codec.cache_entry_bytes", "bytes"),
    ("codec.result_frame_bytes", "bytes"),
    ("codec.verify_us_per_entry", "us"),
    ("cluster.task_rtt_us_p50", "us"),
    ("cluster.task_rtt_us_p99", "us"),
    ("cluster.assigned", "count"),
    ("cluster.completed", "count"),
    ("cluster.waste_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `profile_all` over the catalog, then the reduction.
    CatalogProfile,
    /// Fused capacity sweeps of the Fig 6–9 sets.
    CapacitySweep,
    /// Open-loop queries beside closed-loop mutations on a server.
    ServeMixed,
    /// Warm 77-task merges across loopback workers.
    ClusterWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CatalogProfile,
        Workload::CapacitySweep,
        Workload::ServeMixed,
        Workload::ClusterWarm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogProfile => "catalog_profile",
            Workload::CapacitySweep => "capacity_sweep",
            Workload::ServeMixed => "serve_mixed",
            Workload::ClusterWarm => "cluster_warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload: the untraced run, or the traced one when
    /// `cfg.trace` is set.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        match (self, cfg.trace) {
            (Workload::CatalogProfile, false) => catalog::run(cfg),
            (Workload::CatalogProfile, true) => catalog::run_traced(cfg),
            (Workload::CapacitySweep, false) => sweep::run(cfg),
            (Workload::CapacitySweep, true) => sweep::run_traced(cfg),
            (Workload::ServeMixed, false) => serve::run(cfg),
            (Workload::ServeMixed, true) => serve::run_traced(cfg),
            (Workload::ClusterWarm, false) => cluster::run(cfg),
            (Workload::ClusterWarm, true) => cluster::run_traced(cfg),
        }
    }

    /// The input scale factor the workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::CapacitySweep => sweep_scale().factor(),
            _ => catalog_scale().factor(),
        }
    }
}

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for everything the benchmark generates.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads for the engine and the cluster (`nproc`).
    pub threads: usize,
    /// Scratch directory for disk caches; removed when the run ends.
    pub workdir: PathBuf,
}

/// Where the benchmark writes: scratch caches and span files, relative
/// to the directory it runs from.
pub const OUTPUT_DIR: &str = ".bench_run";

impl RunConfig {
    /// The span file a traced run of `workload` writes.
    pub fn trace_file(&self, workload: &str) -> PathBuf {
        PathBuf::from(OUTPUT_DIR)
            .join("traces")
            .join(format!("{workload}-seed{}.jsonl", self.seed))
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: u64,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Workload-specific figures printed in the report line only.
    pub report: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    /// Counts one checked operation and records its failure, if any.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failures.push(message);
        }
    }

    /// Sets a metric reported on the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Sets a figure reported on the report line only.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.report.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records the batch-workload end-to-end metrics from per-round
    /// latencies and the work each round did. Throughputs divide one
    /// round's work by the median round, so a burst of load from outside
    /// the benchmark moves them no more than it moves the median.
    pub fn batch_metrics(&mut self, rounds: &[Duration], ops_per_round: u64, instr_per_round: f64) {
        let secs: Vec<f64> = rounds.iter().map(Duration::as_secs_f64).collect();
        let median_s = stats::median(&secs);
        let n = rounds.len() as u64;
        self.metric("op_p50_ms", median_s * 1e3, "ms", n);
        self.metric("ops_per_s", ops_per_round as f64 / median_s, "1/s", n);
        self.metric("sim_mips", instr_per_round / (median_s * 1e6), "1/us", n);
    }
}

/// Runs `setup` `reps` times, records the median set-up time as
/// `setup_s` in `out` and returns the last result.
pub fn timed_setup<T>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let value = last.ok_or_else(|| "set-up never ran".to_owned())?;
    out.metric("setup_s", stats::median(&times), "s", reps as u64);
    Ok(value)
}

/// Runs `round` back to back until `window` has passed (at least once)
/// and returns each round's own latency as `round` measured it.
pub fn timed_rounds(
    window: Duration,
    mut round: impl FnMut() -> Result<Duration, String>,
) -> Result<Vec<Duration>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < window {
        rounds.push(round()?);
    }
    Ok(rounds)
}

/// Sum of simulated instructions over `profiles`.
pub fn instructions(profiles: &[bdb_wcrt::WorkloadProfile]) -> u64 {
    profiles.iter().map(|p| p.report.instructions).sum()
}

/// Records the modelled-design counts summed over `profiles` (in the
/// order given, so float sums repeat bit for bit) and the error against
/// the paper's reference averages over `representatives`.
pub fn sim_counts(
    out: &mut Outcome,
    profiles: &[bdb_wcrt::WorkloadProfile],
    representatives: &[&bdb_wcrt::WorkloadProfile],
) {
    let n = profiles.len() as u64;
    let sum_u = |f: &dyn Fn(&bdb_wcrt::WorkloadProfile) -> u64| -> f64 {
        profiles.iter().map(f).sum::<u64>() as f64
    };
    let sum_f = |f: &dyn Fn(&bdb_wcrt::WorkloadProfile) -> f64| -> f64 {
        profiles.iter().map(f).sum::<f64>()
    };
    out.metric(
        "sim.instructions",
        sum_u(&|p| p.report.instructions),
        "count",
        n,
    );
    out.metric("sim.cycles", sum_f(&|p| p.report.cycles), "cycles", n);
    out.metric(
        "sim.fetch_stall_cycles",
        sum_f(&|p| p.report.fetch_stall_cycles),
        "cycles",
        n,
    );
    out.metric(
        "sim.data_stall_cycles",
        sum_f(&|p| p.report.data_stall_cycles),
        "cycles",
        n,
    );
    out.metric(
        "sim.branch_stall_cycles",
        sum_f(&|p| p.report.branch_stall_cycles),
        "cycles",
        n,
    );
    out.metric(
        "sim.tlb_stall_cycles",
        sum_f(&|p| p.report.tlb_stall_cycles),
        "cycles",
        n,
    );
    out.metric(
        "sim.l1i_misses",
        sum_u(&|p| p.report.l1i.misses),
        "count",
        n,
    );
    out.metric(
        "sim.l1d_misses",
        sum_u(&|p| p.report.l1d.misses),
        "count",
        n,
    );
    out.metric("sim.l2_misses", sum_u(&|p| p.report.l2.misses), "count", n);
    out.metric("sim.l3_misses", sum_u(&|p| p.report.l3.misses), "count", n);
    out.metric(
        "sim.branch_mispredicts",
        sum_u(&|p| p.report.branch.mispredicts),
        "count",
        n,
    );
    out.metric(
        "sim.paper_err_pct",
        paper_err_pct(representatives),
        "%",
        representatives.len() as u64,
    );
}

/// The paper's averages over its 17 representatives (Figs 1, 3, 4, 5),
/// as `(report name, unit, paper value)`: IPC, L1I/L2/L3 MPKI, branch
/// share of instructions, ITLB and DTLB MPKI.
pub const PAPER_AVERAGES: [(&str, &str, f64); 7] = [
    ("rep_ipc", "ratio", 1.28),
    ("rep_l1i_mpki", "MPKI", 15.0),
    ("rep_l2_mpki", "MPKI", 11.0),
    ("rep_l3_mpki", "MPKI", 1.2),
    ("rep_branch_pct", "%", 18.7),
    ("rep_itlb_mpki", "MPKI", 0.05),
    ("rep_dtlb_mpki", "MPKI", 0.9),
];

/// Each [`PAPER_AVERAGES`] quantity averaged over `profiles`, in the
/// same order.
pub fn paper_measured(profiles: &[&bdb_wcrt::WorkloadProfile]) -> [f64; 7] {
    let mean = |f: &dyn Fn(&bdb_wcrt::WorkloadProfile) -> f64| -> f64 {
        profiles.iter().map(|p| f(p)).sum::<f64>() / profiles.len().max(1) as f64
    };
    [
        mean(&|p| p.report.ipc()),
        mean(&|p| p.report.l1i_mpki()),
        mean(&|p| p.report.l2_mpki()),
        mean(&|p| p.report.l3_mpki()),
        mean(&|p| 100.0 * p.report.branch.branches as f64 / p.report.instructions.max(1) as f64),
        mean(&|p| p.report.itlb_mpki()),
        mean(&|p| p.report.dtlb_mpki()),
    ]
}

/// Mean of |measured / paper − 1| × 100 over [`PAPER_AVERAGES`], with
/// each measured value averaged over `profiles`. Deterministic.
pub fn paper_err_pct(profiles: &[&bdb_wcrt::WorkloadProfile]) -> f64 {
    if profiles.is_empty() {
        return 0.0;
    }
    let total: f64 = paper_measured(profiles)
        .iter()
        .zip(PAPER_AVERAGES)
        .map(|(m, (_, _, paper))| (m / paper - 1.0).abs() * 100.0)
        .sum();
    total / PAPER_AVERAGES.len() as f64
}
