//! `capacity_sweep`: `Engine::sweep_all` over the Fig 6–9 sets (12
//! workloads) × `PAPER_SWEEP_KIB` (10 capacities) in the default fused
//! mode with `nproc` threads. The fused path extracts L1 streams once per
//! workload and replays them per capacity, bypassing `sim::Machine`. The
//! seed only sets the order jobs are submitted in, a fresh permutation
//! each round.

use crate::digests::{curve_digest, sweep_curves, Pinned};
use crate::rng::round_order;
use crate::tracer::Tracer;
use crate::{sweep_defs, sweep_scale, timed_rounds, timed_setup, Outcome, RunConfig};
use bdb_engine::{Engine, EngineConfig};
use bdb_sim::PAPER_SWEEP_KIB;
use bdb_sim::{assemble_sweep, fused_point, SweepFamily, SweepResult, SweepStreams};
use bdb_trace::{CountingSink, TraceSink};
use bdb_workloads::WorkloadDef;
use std::time::{Duration, Instant};

/// Seed stream for the submission order.
const ORDER_STREAM: u64 = 2;

/// A sweep job's generator.
pub type Generator = Box<dyn Fn(&mut dyn TraceSink) + Sync>;

/// Everything set up before timing starts.
pub struct Inputs {
    /// The sweep sets, in definition order.
    pub defs: Vec<WorkloadDef>,
    /// One generator per workload, in definition order.
    pub generators: Vec<Generator>,
    /// The benchmark seed the submission orders derive from.
    pub seed: u64,
    /// The engine (its stream arena is reused across rounds).
    pub engine: Engine,
    /// The pinned output digests.
    pub pinned: Pinned,
}

/// Builds one generator per sweep workload and the engine.
pub fn setup(seed: u64, threads: usize) -> Result<Inputs, String> {
    let defs = sweep_defs();
    let generators = defs
        .iter()
        .map(|def| {
            let def = def.clone();
            Box::new(move |sink: &mut dyn TraceSink| {
                let _ = def.run(sink, sweep_scale());
            }) as Generator
        })
        .collect();
    Ok(Inputs {
        defs,
        generators,
        seed,
        engine: Engine::new(
            EngineConfig::default()
                .threads(threads)
                .without_memory_cache(),
        ),
        pinned: Pinned::load()?,
    })
}

/// Sweeps every workload at every capacity, submitted in round
/// `index`'s order.
pub fn round(inputs: &Inputs, index: u64) -> (Vec<SweepResult>, Duration) {
    let order = round_order(inputs.defs.len(), inputs.seed, ORDER_STREAM, index);
    let jobs: Vec<(String, &Generator)> = order
        .iter()
        .map(|&i| (inputs.defs[i].spec.id.clone(), &inputs.generators[i]))
        .collect();
    let start = Instant::now();
    let results = inputs.engine.sweep_all(&jobs, &PAPER_SWEEP_KIB);
    (results, start.elapsed())
}

/// Checks every curve against the pinned digests.
pub fn check(pinned: &Pinned, results: &[SweepResult], out: &mut Outcome) {
    for result in results {
        for (key, curve) in sweep_curves(result) {
            out.check(pinned.check("curve", &key, curve_digest(curve)));
        }
    }
}

/// Generator instructions summed over the sweep workloads, one pass
/// each into a `CountingSink`.
pub fn generator_events(defs: &[WorkloadDef]) -> u64 {
    defs.iter()
        .map(|def| {
            let mut sink = CountingSink::new();
            let _ = def.run(&mut sink, sweep_scale());
            sink.ops()
        })
        .sum()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = timed_setup(&mut out, crate::CHEAP_SETUP_REPS, || {
        setup(cfg.seed, cfg.threads)
    })?;
    // Work count for sim_mips, taken outside both set-up and the window.
    let points = PAPER_SWEEP_KIB.len() as u64;
    let instr_per_round = (generator_events(&inputs.defs) * points) as f64;
    let mut index = 0;
    let rounds = timed_rounds(cfg.seconds, || {
        let (results, elapsed) = round(&inputs, index);
        index += 1;
        check(&inputs.pinned, &results, &mut out);
        Ok(elapsed)
    })?;
    out.batch_metrics(&rounds, inputs.defs.len() as u64 * points, instr_per_round);
    Ok(out)
}

/// The traced run: generation, stream extraction and per-capacity
/// fused replay, each in its own span, per workload.
pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let start = Instant::now();
    let inputs = setup(cfg.seed, cfg.threads)?;
    let family = SweepFamily::atom();
    let (mut events, mut entries, mut passes) = (0u64, 0u64, 0u64);
    let (mut generate, mut extract, mut replay) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    while passes == 0 || start.elapsed() < cfg.seconds {
        for def in &inputs.defs {
            let id = def.spec.id.as_str();
            tracer.span("sweep.workload", None, id, |parent| {
                let (n, gen) = tracer.span("workloads.generate", Some(parent), id, |_| {
                    let mut sink = CountingSink::new();
                    let _ = def.run(&mut sink, sweep_scale());
                    sink.ops()
                });
                let (streams, ext) = tracer.span("sim.extract", Some(parent), id, |_| {
                    SweepStreams::record(|sink| {
                        let _ = def.run(sink, sweep_scale());
                    })
                });
                let mut points = Vec::with_capacity(PAPER_SWEEP_KIB.len());
                for &kib in &PAPER_SWEEP_KIB {
                    let (point, t) = tracer.span("sim.fused_point", Some(parent), id, |_| {
                        fused_point(&family, kib, &streams)
                    });
                    points.push(point);
                    replay += t;
                }
                let result = assemble_sweep(id, &PAPER_SWEEP_KIB, points);
                check(&inputs.pinned, std::slice::from_ref(&result), &mut out);
                events += n;
                entries += streams.compressed_entries() as u64;
                generate += gen;
                extract += ext;
            });
        }
        passes += 1;
    }
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / events as f64;
    let replayed = entries * PAPER_SWEEP_KIB.len() as u64;
    out.metric("workloads.events", (events / passes) as f64, "count", 1);
    out.metric(
        "workloads.gen_ns_per_event",
        per_event(generate),
        "ns",
        passes,
    );
    out.metric(
        "sim.extract_ns_per_event",
        per_event(extract.saturating_sub(generate)),
        "ns",
        passes,
    );
    out.metric(
        "sim.fused_ns_per_entry",
        replay.as_secs_f64() * 1e9 / replayed as f64,
        "ns",
        passes,
    );
    out.metric("sim.stream_entries", (entries / passes) as f64, "count", 1);
    let trace_path = cfg.trace_file("capacity_sweep");
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(out)
}
