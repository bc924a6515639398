//! `cluster_warm`: a `Coordinator` plus `nproc` in-process `run_worker`
//! workers over `loopback_pair` transports (which still encode and decode
//! every frame), merging the 77-task catalog in repeated rounds. Each
//! worker's engine has no memory cache and a disk cache primed during
//! set-up, so every task is a disk hit, a checksum and canonical-bytes
//! check, a decode, a wire round trip and a fingerprint-verified merge;
//! nothing is computed. The seed only sets the task order, a fresh
//! permutation each round.

use crate::catalog::{in_catalog_order, representatives};
use crate::digests::{profile_digest, Pinned};
use crate::layers::{TimingStore, TimingTransport, WireTally};
use crate::rng::round_order;
use crate::tracer::Tracer;
use crate::{catalog_defs, catalog_scale, instructions, sim_counts, timed_rounds, timed_setup};
use crate::{Outcome, RunConfig};
use bdb_cluster::wire::encode_frame_with;
use bdb_cluster::{loopback_pair, run_worker, ClusterConfig, Coordinator, Message, Transport};
use bdb_cluster::{WireFormat, WorkerConfig};
use bdb_engine::{profile_fingerprint, verify_cache_entry, CacheStore, Engine, EngineConfig, Task};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::reduction::ReductionConfig;
use bdb_wcrt::{reduce, WorkloadProfile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed stream for the task order.
const ORDER_STREAM: u64 = 3;

/// Everything set up before timing starts.
pub struct Inputs {
    /// The catalog's tasks, in catalog order.
    pub tasks: Vec<Task>,
    /// The benchmark seed the task orders derive from.
    pub seed: u64,
    /// One engine per worker, each over its own primed cache directory.
    pub engines: Vec<Engine>,
    /// The worker cache directories.
    pub dirs: Vec<PathBuf>,
    /// The pinned output digests.
    pub pinned: Pinned,
}

/// Computes the catalog once and admits every profile into each
/// worker's fresh disk cache.
pub fn setup(cfg: &RunConfig, store: Option<Arc<dyn CacheStore>>) -> Result<Inputs, String> {
    let defs = catalog_defs();
    let (scale, machine, node) = (
        catalog_scale(),
        MachineConfig::xeon_e5645(),
        NodeConfig::default(),
    );
    let primer = Engine::new(
        EngineConfig::default()
            .threads(cfg.threads)
            .without_memory_cache(),
    );
    let profiles = primer.profile_all(&defs, scale, &machine, &node);
    let mut engines = Vec::new();
    let mut dirs = Vec::new();
    for worker in 0..cfg.threads {
        let dir = cfg.workdir.join(format!("cluster-w{worker}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        let mut config = EngineConfig::default()
            .threads(1)
            .without_memory_cache()
            .cache_dir(&dir);
        if let Some(store) = &store {
            config = config.store(store.clone());
        }
        let engine = Engine::new(config);
        for profile in &profiles {
            let id = &profile.spec.id;
            engine.admit(id, profile_fingerprint(id, scale, &machine, &node), profile);
        }
        engines.push(engine);
        dirs.push(dir);
    }
    let tasks = defs
        .iter()
        .map(|def| Task::new(def, scale, &machine, &node))
        .collect();
    Ok(Inputs {
        tasks,
        seed: cfg.seed,
        engines,
        dirs,
        pinned: Pinned::load()?,
    })
}

/// One merge of every task, submitted in round `index`'s order, across
/// fresh sessions with the workers. Returns the merged profiles in
/// catalog order and the coordinator's run time.
pub fn round(
    inputs: &Inputs,
    index: u64,
    tally: Option<&Arc<WireTally>>,
) -> Result<(Vec<WorkloadProfile>, Duration), String> {
    let order = round_order(inputs.tasks.len(), inputs.seed, ORDER_STREAM, index);
    let tasks: Vec<Task> = order.iter().map(|&i| inputs.tasks[i].clone()).collect();
    std::thread::scope(|scope| {
        let mut ends: Vec<Arc<dyn Transport>> = Vec::new();
        let mut workers = Vec::new();
        for (w, engine) in inputs.engines.iter().enumerate() {
            let name = format!("w{w}");
            let (coordinator_end, worker_end) = loopback_pair(&name);
            workers.push(
                scope.spawn(move || run_worker(&worker_end, engine, &WorkerConfig::named(&name))),
            );
            ends.push(match tally {
                Some(tally) => Arc::new(TimingTransport::new(coordinator_end, tally.clone())),
                None => Arc::new(coordinator_end),
            });
        }
        let start = Instant::now();
        let merged = Coordinator::new(ClusterConfig::default()).run(ends, &tasks);
        let elapsed = start.elapsed();
        for worker in workers {
            match worker.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("worker failed: {e}")),
                Err(_) => return Err("worker thread panicked".to_owned()),
            }
        }
        let merged = merged.map_err(|e| format!("merge failed: {e}"))?;
        Ok((in_catalog_order(&order, merged), elapsed))
    })
}

/// Computed-profile count across the worker engines.
fn computed(inputs: &Inputs) -> u64 {
    inputs.engines.iter().map(|e| e.counters().computed).sum()
}

/// Checks a merge: every profile against its pinned digest, and nothing
/// computed.
fn check(inputs: &Inputs, merged: &[WorkloadProfile], out: &mut Outcome) {
    for profile in merged {
        out.check(
            inputs
                .pinned
                .check("profile", &profile.spec.id, profile_digest(profile)),
        );
    }
    let computed = computed(inputs);
    out.check(if computed == 0 {
        Ok(())
    } else {
        Err(format!("warm merge computed {computed} profiles"))
    });
}

fn cleanup(inputs: &Inputs) -> Result<(), String> {
    for dir in &inputs.dirs {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = timed_setup(&mut out, crate::COMPUTING_SETUP_REPS, || setup(cfg, None))?;
    let mut instr = 0.0;
    let mut index = 0;
    let rounds = timed_rounds(cfg.seconds, || {
        let (merged, elapsed) = round(&inputs, index, None)?;
        index += 1;
        check(&inputs, &merged, &mut out);
        instr = instructions(&merged) as f64;
        Ok(elapsed)
    })?;
    out.batch_metrics(&rounds, inputs.tasks.len() as u64, instr);
    cleanup(&inputs)?;
    Ok(out)
}

/// The traced run: the engine's disk reads, the wire round trip per
/// task and the codec's frame sizes and verify cost.
pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new());
    let start = Instant::now();
    let store = Arc::new(TimingStore::default());
    let inputs = setup(cfg, Some(store.clone() as Arc<dyn CacheStore>))?;
    let tally = Arc::new(WireTally::with_tracer(tracer.clone()));
    let mut merged = Vec::new();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < cfg.seconds {
        let request = format!("merge-{rounds}");
        let (result, _) = tracer.span("cluster.merge", None, &request, |_| {
            round(&inputs, rounds, Some(&tally))
        });
        let (profiles, _) = result?;
        check(&inputs, &profiles, &mut out);
        merged = profiles;
        rounds += 1;
    }
    let disk_hits: u64 = inputs.engines.iter().map(|e| e.counters().disk_hits).sum();
    out.metric(
        "engine.store_read_us",
        store.reads.mean_us(),
        "us",
        store.reads.calls(),
    );
    out.metric(
        "engine.disk_hits",
        disk_hits as f64 / rounds as f64,
        "count",
        rounds,
    );
    out.metric("engine.computed", computed(&inputs) as f64, "count", rounds);
    out.metric(
        "codec.cache_entry_bytes",
        store.reads.mean_bytes(),
        "bytes",
        store.reads.calls(),
    );
    let frames: Vec<usize> = merged
        .iter()
        .zip(&inputs.tasks)
        .map(|(profile, task)| {
            encode_frame_with(
                WireFormat::Json,
                &Message::Result {
                    task_id: 0,
                    fingerprint: task.fingerprint(),
                    outcome: Ok(Box::new(profile.clone())),
                },
            )
            .len()
        })
        .collect();
    out.metric(
        "codec.result_frame_bytes",
        frames.iter().sum::<usize>() as f64 / frames.len().max(1) as f64,
        "bytes",
        frames.len() as u64,
    );
    verify_probe(&tracer, &inputs, &mut out)?;
    out.metric(
        "cluster.task_rtt_us_p50",
        tally.rtt_us(50.0),
        "us",
        tally.rtt_samples() as u64,
    );
    out.metric(
        "cluster.task_rtt_us_p99",
        tally.rtt_us(99.0),
        "us",
        tally.rtt_samples() as u64,
    );
    out.metric("cluster.assigned", tally.assigned() as f64, "count", rounds);
    out.metric(
        "cluster.completed",
        tally.completed() as f64,
        "count",
        rounds,
    );
    out.metric(
        "cluster.waste_ratio",
        tally.assigned() as f64 / tally.completed().max(1) as f64,
        "ratio",
        tally.completed(),
    );
    let reduction = reduce(&merged, ReductionConfig::default());
    let reps = representatives(&merged, &reduction);
    sim_counts(&mut out, &merged, &reps);
    cleanup(&inputs)?;
    let trace_path = cfg.trace_file("cluster_warm");
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(out)
}

/// Times `verify_cache_entry` over every entry in the first worker's
/// cache directory.
fn verify_probe(tracer: &Tracer, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let dir = inputs.dirs.first().ok_or("no worker directory")?;
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit_once('-'))
            .and_then(|(_, hex)| u64::from_str_radix(hex, 16).ok());
        if let Some(key) = key {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            entries.push((key, bytes));
        }
    }
    let (verified, elapsed) = tracer.span("codec.verify", None, "worker-0", |_| {
        entries
            .iter()
            .filter(|(key, bytes)| verify_cache_entry(bytes, *key).is_ok())
            .count()
    });
    out.check(if verified == entries.len() && !entries.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{verified} of {} cache entries verified",
            entries.len()
        ))
    });
    out.metric(
        "codec.verify_us_per_entry",
        elapsed.as_secs_f64() * 1e6 / entries.len().max(1) as f64,
        "us",
        entries.len() as u64,
    );
    Ok(())
}
