//! `catalog_profile`: `Engine::profile_all` over the full 77-workload
//! catalog on the Xeon E5645, `nproc` threads, no memory cache and a
//! fresh disk-cache directory each round, then `bdb_wcrt::reduce` from
//! 77 to 17. The seed only sets the order workloads are submitted in,
//! a fresh permutation each round.

use crate::digests::{profile_digest, reduction_digest, Pinned};
use crate::layers::TimingStore;
use crate::rng::round_order;
use crate::stats::median;
use crate::tracer::Tracer;
use crate::{catalog_defs, catalog_scale, instructions, sim_counts, timed_rounds, timed_setup};
use crate::{paper_measured, Outcome, RunConfig, PAPER_AVERAGES};
use bdb_engine::{CacheStore, Engine, EngineConfig};
use bdb_node::{Node, NodeConfig};
use bdb_sim::{Cache, Machine, MachineConfig};
use bdb_trace::{CountingSink, MicroOp, TraceBuffer};
use bdb_wcrt::reduction::ReductionConfig;
use bdb_wcrt::{reduce, ReductionResult, WorkloadProfile};
use bdb_workloads::WorkloadDef;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed stream for the submission order.
const ORDER_STREAM: u64 = 1;

/// The workload whose captured data addresses feed the standalone
/// cache measurement.
const CACHE_PROBE_WORKLOAD: &str = "H-WordCount";

/// Untraced/traced serial pass pairs behind the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Everything set up before timing starts.
pub struct Inputs {
    /// The catalog, in catalog order.
    pub defs: Vec<WorkloadDef>,
    /// The benchmark seed the submission orders derive from.
    pub seed: u64,
    /// The pinned output digests.
    pub pinned: Pinned,
    /// The measured machine.
    pub machine: MachineConfig,
    /// The node model.
    pub node: NodeConfig,
}

/// Builds the catalog and the digest table.
pub fn setup(seed: u64) -> Result<Inputs, String> {
    Ok(Inputs {
        defs: catalog_defs(),
        seed,
        pinned: Pinned::load()?,
        machine: MachineConfig::xeon_e5645(),
        node: NodeConfig::default(),
    })
}

impl Inputs {
    /// Round `round`'s submission order and the catalog in that order:
    /// `submitted[k]` is `defs[order[k]]`.
    pub fn submission(&self, round: u64) -> (Vec<usize>, Vec<WorkloadDef>) {
        let order = round_order(self.defs.len(), self.seed, ORDER_STREAM, round);
        let submitted = order.iter().map(|&i| self.defs[i].clone()).collect();
        (order, submitted)
    }
}

/// One round's outputs.
pub struct Round {
    /// Profiles in catalog order.
    pub profiles: Vec<WorkloadProfile>,
    /// The 77→17 reduction of `profiles`.
    pub reduction: ReductionResult,
    /// Time in `profile_all`.
    pub profile_time: Duration,
    /// Time in `reduce`.
    pub reduce_time: Duration,
}

/// Profiles the catalog in round `index`'s order with a fresh engine over
/// a fresh cache directory `dir`, then reduces it.
pub fn round(
    inputs: &Inputs,
    index: u64,
    threads: usize,
    dir: &Path,
    store: Option<Arc<dyn CacheStore>>,
) -> Round {
    let mut config = EngineConfig::default()
        .threads(threads)
        .without_memory_cache()
        .cache_dir(dir);
    if let Some(store) = store {
        config = config.store(store);
    }
    let engine = Engine::new(config);
    let (order, submitted) = inputs.submission(index);
    let start = Instant::now();
    let submitted = engine.profile_all(&submitted, catalog_scale(), &inputs.machine, &inputs.node);
    let mid = Instant::now();
    let profiles = in_catalog_order(&order, submitted);
    let reduction = reduce(&profiles, ReductionConfig::default());
    let end = Instant::now();
    Round {
        profiles,
        reduction,
        profile_time: mid - start,
        reduce_time: end - mid,
    }
}

/// Puts results submitted in `order` back into catalog order.
pub fn in_catalog_order<T>(order: &[usize], submitted: Vec<T>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
    for (&slot, item) in order.iter().zip(submitted) {
        slots[slot] = Some(item);
    }
    slots.into_iter().flatten().collect()
}

/// Checks every profile and the reduction against the pinned digests.
pub fn check(pinned: &Pinned, profiles: &[WorkloadProfile], out: &mut Outcome) {
    for profile in profiles {
        out.check(pinned.check("profile", &profile.spec.id, profile_digest(profile)));
    }
}

fn check_reduction(pinned: &Pinned, reduction: &ReductionResult, out: &mut Outcome) {
    out.check(pinned.check("reduction", "representatives", reduction_digest(reduction)));
}

/// The reduction's representatives among `profiles`.
pub fn representatives<'a>(
    profiles: &'a [WorkloadProfile],
    reduction: &ReductionResult,
) -> Vec<&'a WorkloadProfile> {
    let ids = reduction.representative_ids();
    profiles
        .iter()
        .filter(|p| ids.contains(&p.spec.id.as_str()))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = timed_setup(&mut out, crate::CHEAP_SETUP_REPS, || setup(cfg.seed))?;
    let mut index = 0;
    let mut last = None;
    let rounds = timed_rounds(cfg.seconds, || {
        let dir = cfg.workdir.join(format!("catalog-{index}"));
        let r = round(&inputs, index, cfg.threads, &dir, None);
        index += 1;
        check(&inputs.pinned, &r.profiles, &mut out);
        check_reduction(&inputs.pinned, &r.reduction, &mut out);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        let elapsed = r.profile_time + r.reduce_time;
        last = Some(r);
        Ok(elapsed)
    })?;
    let last = last.ok_or_else(|| "no round ran".to_owned())?;
    let instr = instructions(&last.profiles) as f64;
    out.batch_metrics(&rounds, last.profiles.len() as u64, instr);
    let reps = representatives(&last.profiles, &last.reduction);
    let n = reps.len() as u64;
    out.note("paper_err_pct", crate::paper_err_pct(&reps), "%", n);
    for ((name, unit, _), measured) in PAPER_AVERAGES.iter().zip(paper_measured(&reps)) {
        out.note(name, measured, unit, n);
    }
    Ok(out)
}

/// Per-workload layer timings from one split pass.
#[derive(Debug, Default)]
struct Split {
    events: u64,
    generate: Duration,
    replay: Duration,
    machine: Duration,
    node: Duration,
    profiles: u64,
}

/// The traced run: per-layer metrics.
pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let start = Instant::now();
    let inputs = setup(cfg.seed)?;

    // The engine's disk write path, under a timing store.
    let store = Arc::new(TimingStore::default());
    let dir = cfg.workdir.join("catalog-traced");
    let (r, _) = tracer.span("engine.profile_all", None, "catalog", |_| {
        round(
            &inputs,
            0,
            cfg.threads,
            &dir,
            Some(store.clone() as Arc<dyn CacheStore>),
        )
    });
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    check(&inputs.pinned, &r.profiles, &mut out);
    check_reduction(&inputs.pinned, &r.reduction, &mut out);
    let reps = representatives(&r.profiles, &r.reduction);
    sim_counts(&mut out, &r.profiles, &reps);
    out.metric("wcrt.reduce_ms", r.reduce_time.as_secs_f64() * 1e3, "ms", 1);
    out.metric(
        "engine.store_write_us",
        store.writes.mean_us(),
        "us",
        store.writes.calls(),
    );
    out.metric(
        "codec.cache_entry_bytes",
        store.writes.mean_bytes(),
        "bytes",
        store.writes.calls(),
    );
    out.metric("engine.computed", r.profiles.len() as f64, "count", 1);

    // Tracing overhead: the same serial profiling pass without and with
    // a span around each call into the engine, alternated and taken as
    // medians so one slow pass does not decide the sign.
    let serial = Engine::new(EngineConfig::default().threads(1).without_memory_cache());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        let pass = Instant::now();
        for def in &inputs.defs {
            let _ = serial.profile(def, catalog_scale(), &inputs.machine, &inputs.node);
        }
        untraced_s.push(pass.elapsed().as_secs_f64());
        let pass = Instant::now();
        for def in &inputs.defs {
            tracer.span("engine.profile", None, &def.spec.id, |_| {
                serial.profile(def, catalog_scale(), &inputs.machine, &inputs.node)
            });
        }
        traced_s.push(pass.elapsed().as_secs_f64());
    }
    let untraced = median(&untraced_s);
    let traced = median(&traced_s);

    // The per-layer split, repeated until the window is used.
    let mut split = Split::default();
    while split.profiles == 0 || start.elapsed() < cfg.seconds {
        split_pass(&tracer, &inputs, &r.profiles, &mut split, &mut out);
    }
    let passes = split.profiles as f64 / inputs.defs.len() as f64;
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / split.events as f64;
    let events_per_pass = (split.events as f64 / passes).round();
    let untraced_ns = untraced * 1e9 / events_per_pass;
    let gen_ns = per_event(split.generate);
    let machine_ns = per_event(split.machine.saturating_sub(split.replay));
    out.metric("workloads.events", events_per_pass, "count", 1);
    out.metric("workloads.gen_ns_per_event", gen_ns, "ns", split.profiles);
    out.metric(
        "trace.replay_ns_per_event",
        per_event(split.replay),
        "ns",
        split.profiles,
    );
    out.metric("sim.machine_ns_per_event", machine_ns, "ns", split.profiles);
    let pairs = OVERHEAD_PAIRS as u64;
    out.metric("trace.untraced_ns_per_event", untraced_ns, "ns", pairs);
    out.metric(
        "trace.layer_coverage_pct",
        100.0 * (gen_ns + machine_ns) / untraced_ns,
        "%",
        1,
    );
    let overhead = traced - untraced;
    out.metric("trace.overhead_ms", overhead * 1e3, "ms", pairs);
    out.metric(
        "trace.overhead_pct",
        100.0 * overhead / untraced,
        "%",
        pairs,
    );
    out.metric(
        "node.run_phase_us",
        split.node.as_secs_f64() * 1e6 / split.profiles as f64,
        "us",
        split.profiles,
    );
    cache_probe(&inputs, &mut out);
    let trace_path = cfg.trace_file("catalog_profile");
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(out)
}

/// Splits each profile into generate → capture → replay into
/// `Machine` → node, in catalog order, checking that the split path
/// measures exactly what the engine did.
fn split_pass(
    tracer: &Tracer,
    inputs: &Inputs,
    engine_profiles: &[WorkloadProfile],
    split: &mut Split,
    out: &mut Outcome,
) {
    let scale = catalog_scale();
    for (def, expected) in inputs.defs.iter().zip(engine_profiles) {
        let id = def.spec.id.as_str();
        tracer.span("catalog.profile", None, id, |parent| {
            let (events, generate) = tracer.span("workloads.generate", Some(parent), id, |_| {
                let mut sink = CountingSink::new();
                let _ = def.run(&mut sink, scale);
                sink.ops()
            });
            let ((buffer, stats), _) = tracer.span("trace.capture", Some(parent), id, |_| {
                let mut stats = None;
                let buffer = TraceBuffer::capture(|sink| stats = Some(def.run(sink, scale)));
                (buffer, stats)
            });
            let (_, replay) = tracer.span("trace.replay", Some(parent), id, |_| {
                let mut sink = CountingSink::new();
                buffer.replay_into(&mut sink);
                sink.ops()
            });
            let (report, machine) = tracer.span("sim.machine", Some(parent), id, |_| {
                let mut machine = Machine::new(inputs.machine.clone());
                buffer.replay_into(&mut machine);
                machine.report()
            });
            let (_, node) = tracer.span("node.run_phase", Some(parent), id, |_| {
                let mut node = Node::new(inputs.node);
                for phase in stats.iter().flat_map(|s| s.phases.iter()) {
                    node.run_phase(phase.clone());
                }
                node.metrics()
            });
            out.check(if report == expected.report {
                Ok(())
            } else {
                Err(format!("{id}: split-path report differs from the engine's"))
            });
            split.events += events;
            split.generate += generate;
            split.replay += replay;
            split.machine += machine;
            split.node += node;
            split.profiles += 1;
        });
    }
}

/// A standalone `sim::Cache` with the L1D geometry, fed one captured
/// trace's data addresses: the cache model's own cost per access.
fn cache_probe(inputs: &Inputs, out: &mut Outcome) {
    let def = inputs
        .defs
        .iter()
        .find(|d| d.spec.id == CACHE_PROBE_WORKLOAD)
        .unwrap_or(&inputs.defs[0]);
    let buffer = TraceBuffer::capture(|sink| {
        let _ = def.run(sink, catalog_scale());
    });
    let accesses: Vec<(u64, bool)> = buffer
        .events()
        .filter_map(|e| match e.op {
            MicroOp::Load { addr, .. } => Some((addr, false)),
            MicroOp::Store { addr, .. } => Some((addr, true)),
            _ => None,
        })
        .collect();
    let mut total = Duration::ZERO;
    let mut count = 0u64;
    let mut misses = 0u64;
    while total < Duration::from_millis(200) {
        let mut cache = Cache::new(inputs.machine.l1d);
        let start = Instant::now();
        for &(addr, is_store) in &accesses {
            if !cache.access(addr, is_store) {
                misses += 1;
            }
        }
        total += start.elapsed();
        count += accesses.len() as u64;
    }
    std::hint::black_box(misses);
    out.metric(
        "sim.cache_ns_per_access",
        total.as_secs_f64() * 1e9 / count as f64,
        "ns",
        count,
    );
}
