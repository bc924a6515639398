#![allow(missing_docs)]
//! Execution-engine benchmarks: serial vs parallel `profile_all`, cold
//! vs warm profile cache, and per-point vs fused (trace-once/replay-many)
//! capacity sweeps.
//!
//! Besides the Criterion groups, this bench writes `BENCH_engine.json` at
//! the workspace root with one explicit wall-clock measurement per
//! configuration, so CI and the paper-repro notes can quote the numbers
//! without parsing Criterion output. Parallel speedup scales with the
//! machine's core count (a single-core runner reports ~1.0×); the warm
//! cache speedup and the fused-sweep speedup are hardware-independent
//! and large. Every multi-thread point asserts `Engine::worker_threads`
//! equals the requested width, so a pool that silently falls back to
//! serial fails the bench run loudly instead of reporting a fake 1.0×.

use bdb_bench::replay_per_point_sweep;
use bdb_cluster::{loopback_pair, profile_all_distributed, run_worker, wire};
use bdb_cluster::{Message, Transport, WorkerConfig};
use bdb_codec::columnar;
use bdb_engine::{json::Value, Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_serve::{Mutation, ServeClient, ServeSpec, ServeState, Server, ServerConfig};
use bdb_sim::{sweep_per_point, MachineConfig, SweepFamily, SweepResult, PAPER_SWEEP_KIB};
use bdb_trace::TraceBuffer;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workloads() -> Vec<WorkloadDef> {
    catalog::representatives()
}

/// Base input scale, selectable with `BDB_BENCH_SCALE` (`tiny`, `small`,
/// `paper`, or a float factor; default `tiny` so CI stays fast). A bad
/// value aborts rather than silently benchmarking the wrong scale.
fn scale() -> Scale {
    match std::env::var("BDB_BENCH_SCALE") {
        Err(_) => Scale::tiny(),
        Ok(v) => match v.as_str() {
            "tiny" => Scale::tiny(),
            "small" => Scale::small(),
            "paper" => Scale::paper(),
            other => match other.parse() {
                Ok(f) => Scale::custom(f),
                Err(_) => panic!("bad BDB_BENCH_SCALE {other:?} (tiny|small|paper|<factor>)"),
            },
        },
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

fn fingerprint(profiles: &[WorkloadProfile]) -> Vec<(String, u64, u64)> {
    profiles
        .iter()
        .map(|p| {
            (
                p.spec.id.clone(),
                p.report.instructions,
                p.report.cycles.to_bits(),
            )
        })
        .collect()
}

fn scratch_cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("bdb-engine-bench-{}", std::process::id()))
}

/// Builds a sweep engine with an honest worker pool: if the requested
/// width is not what the pool actually delivers (a silent serial
/// fallback), the bench aborts instead of recording a bogus point.
fn sweep_engine(threads: usize) -> Engine {
    let engine = Engine::new(
        EngineConfig::default()
            .threads(threads)
            .without_memory_cache(),
    );
    assert_eq!(
        engine.worker_threads(),
        threads,
        "requested a {threads}-thread pool but got {} workers: \
         the pool silently fell back — refusing to record this point",
        engine.worker_threads()
    );
    engine
}

/// Sweeps every def over the full paper capacity axis on `engine`.
fn run_sweeps(engine: &Engine, defs: &[WorkloadDef], at: Scale) -> Vec<SweepResult> {
    defs.iter()
        .map(|def| {
            engine.sweep(&def.spec.id, &PAPER_SWEEP_KIB, |sink| {
                let _ = def.run(sink, at);
            })
        })
        .collect()
}

/// The reference sweep: re-runs the workload generator on a full machine
/// once per capacity point, with no trace replay anywhere — the cost the
/// fused speedup is quoted against.
fn run_reference_sweeps(defs: &[WorkloadDef], at: Scale) -> Vec<SweepResult> {
    let family = SweepFamily::atom();
    defs.iter()
        .map(|def| {
            sweep_per_point(&family, &def.spec.id, &PAPER_SWEEP_KIB, |sink| {
                let _ = def.run(sink, at);
            })
        })
        .collect()
}

/// Times a 3-worker loopback distributed run, returning
/// `(seconds, profiles)`.
fn run_distributed(
    defs: &[WorkloadDef],
    at: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> (f64, Vec<WorkloadProfile>) {
    let mut ends = Vec::new();
    for i in 0..3 {
        let (coord_end, worker_end) = loopback_pair(&format!("bench-w{i}"));
        std::thread::spawn(move || {
            let engine = Engine::in_memory();
            run_worker(
                &worker_end,
                &engine,
                &WorkerConfig::named(&format!("bench-w{i}")),
            )
        });
        ends.push(Arc::new(coord_end) as Arc<dyn Transport>);
    }
    let (secs, outcome) = time(|| profile_all_distributed(ends, defs, at, machine, node));
    (secs, outcome.expect("loopback distributed run converges"))
}

/// One explicit measurement per configuration, written to
/// `BENCH_engine.json`.
fn measure_and_report() {
    let defs = workloads();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let (serial_s, serial) = time(|| Engine::serial().profile_all(&defs, scale(), &machine, &node));
    let (parallel_s, parallel) = time(|| {
        Engine::new(
            EngineConfig::default()
                .threads(threads)
                .without_memory_cache(),
        )
        .profile_all(&defs, scale(), &machine, &node)
    });
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "parallel run must be bit-identical to serial"
    );

    let dir = scratch_cache_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_s, _) = time(|| {
        Engine::new(
            EngineConfig::default()
                .threads(threads)
                .cache_dir(&dir)
                .without_memory_cache(),
        )
        .profile_all(&defs, scale(), &machine, &node)
    });
    let warm_engine = Engine::new(
        EngineConfig::default()
            .threads(threads)
            .cache_dir(&dir)
            .without_memory_cache(),
    );
    let (warm_s, warm) = time(|| warm_engine.profile_all(&defs, scale(), &machine, &node));
    assert_eq!(
        warm_engine.counters().computed,
        0,
        "warm run must not simulate"
    );
    assert_eq!(fingerprint(&serial), fingerprint(&warm));
    let _ = std::fs::remove_dir_all(&dir);

    // Sweep section: the per-point reference re-runs the workload
    // generator and a full Machine for each of the 10 capacity points;
    // the fused path extracts the L1 event streams once and replays them
    // per capacity. Same bits, fraction of the work. Per-point replay
    // (trace once, full machine replayed per point) is timed as a third
    // column and must also match bit for bit.
    let (sweep_serial_s, serial_sweeps) = time(|| run_reference_sweeps(&defs, scale()));
    let (sweep_replay_pp_s, replay_pp_sweeps) = time(|| {
        defs.iter()
            .map(|def| replay_per_point_sweep(def, scale(), &PAPER_SWEEP_KIB))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        serial_sweeps, replay_pp_sweeps,
        "per-point replay must be bit-identical to the reference sweep"
    );
    let (sweep_fused_s, fused_sweeps) = time(|| run_sweeps(&sweep_engine(1), &defs, scale()));
    assert_eq!(
        serial_sweeps, fused_sweeps,
        "fused sweep must be bit-identical to the per-point sweep"
    );
    let fused_speedup = sweep_serial_s / sweep_fused_s;

    // Multi-thread fused points (1/2/4 workers), each honesty-checked
    // against `worker_threads` and against the serial reference bits.
    let mut sweep_thread_fields = Vec::new();
    for t in [1usize, 2, 4] {
        let (secs, sweeps) = time(|| run_sweeps(&sweep_engine(t), &defs, scale()));
        assert_eq!(
            serial_sweeps, sweeps,
            "{t}-thread fused sweep must be bit-identical to serial"
        );
        sweep_thread_fields.push((t, secs));
    }

    // Larger-scale fused triplet: the same 1/2/4-thread points at 4x the
    // base scale, where per-event costs dominate fixed overheads. Each
    // width sweeps the whole batch through `sweep_all`, which fans
    // *workloads* across the pool and splits the leftover width over
    // each sweep's capacity points — one workload's serial trace
    // extraction bounds its own speedup (Amdahl), but not the batch's.
    // The 1-thread result is the bit-identity reference for the rest.
    let scaled = Scale::custom(scale().factor() * 4.0);
    let scaled_jobs: Vec<(String, _)> = defs
        .iter()
        .map(|def| {
            let job = move |sink: &mut dyn bdb_trace::TraceSink| {
                let _ = def.run(sink, scaled);
            };
            (def.spec.id.clone(), job)
        })
        .collect();
    let mut sweep_scaled_fields = Vec::new();
    let mut scaled_reference: Option<Vec<SweepResult>> = None;
    for t in [1usize, 2, 4] {
        let engine = sweep_engine(t);
        let (secs, sweeps) = time(|| engine.sweep_all(&scaled_jobs, &PAPER_SWEEP_KIB));
        match &scaled_reference {
            None => scaled_reference = Some(sweeps),
            Some(reference) => assert_eq!(
                reference, &sweeps,
                "{t}-thread scaled fused sweep must be bit-identical to 1-thread"
            ),
        }
        sweep_scaled_fields.push((t, secs));
    }
    let scaled_speedup_4t = sweep_scaled_fields[0].1 / sweep_scaled_fields[2].1;
    // The >=2x floor is a claim about multi-core scaling; a single-core
    // runner's honest ratio is ~1.0x (the header comment says so), so
    // the assert only arms where four hardware threads actually exist.
    if threads >= 4 {
        assert!(
            scaled_speedup_4t >= 2.0,
            "scaled fused sweep 4t/1t speedup {scaled_speedup_4t:.2}x is below the 2x floor"
        );
    }

    // Intra-workload point parallelism in isolation: a 1-wide worker
    // pool with each sweep's capacity points fanned across the
    // BDB_POINT_THREADS width, honesty-checked before timing.
    let mut sweep_point_fields = Vec::new();
    for t in [1usize, 4] {
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .point_threads(t)
                .without_memory_cache(),
        );
        assert_eq!(
            engine.point_threads(),
            t,
            "requested a {t}-wide point fan-out but the engine reports otherwise"
        );
        let (secs, sweeps) = time(|| run_sweeps(&engine, &defs, scaled));
        assert_eq!(
            scaled_reference.as_ref().unwrap(),
            &sweeps,
            "{t}-point-thread scaled sweep must be bit-identical to serial"
        );
        sweep_point_fields.push((t, secs));
    }

    // Codec section: BDBC binary vs canonical JSON for the byte-heavy
    // artifacts. Trace chunks are where the columnar format pays off —
    // delta-varint columns against JSON arrays of decimal integers.
    let captured = TraceBuffer::capture(|sink| {
        let _ = defs[0].run(sink, scale());
    });
    let (spill_s, spill) = time(|| captured.spill().expect("trace spill encodes"));
    let (load_s, reloaded) = time(|| TraceBuffer::load(&spill).expect("trace spill loads"));
    assert_eq!(reloaded.len(), captured.len(), "reloaded trace lost events");
    // Two JSON baselines: the columnar-array interchange form (what
    // `trace_chunk_to_json` pins for the fixtures) and the per-event
    // JSON-lines form a non-columnar spill would write. The >=10x
    // frame-size claim is against event frames; the array form is
    // already column-compressed by construction, so its ratio is
    // smaller and reported as its own field.
    let mut trace_json_bytes = 0usize;
    let mut trace_event_json_bytes = 0usize;
    let mut rest: &[u8] = &spill;
    while !rest.is_empty() {
        let (_, payload, used) =
            bdb_codec::decode_record_prefix(rest).expect("spill holds whole records");
        let columns = columnar::TraceChunkView::parse(payload)
            .expect("chunk payload parses")
            .to_columns();
        trace_json_bytes += columnar::trace_chunk_to_json(&columns).encode().len() + 1;
        for i in 0..columns.len() {
            trace_event_json_bytes += format!(
                "{{\"arg\":{},\"aux\":{},\"kind\":{},\"pc\":{}}}\n",
                columns.arg[i], columns.aux[i], columns.kind[i], columns.pc[i]
            )
            .len();
        }
        rest = &rest[used..];
    }
    let trace_array_ratio = trace_json_bytes as f64 / spill.len() as f64;
    let trace_ratio = trace_event_json_bytes as f64 / spill.len() as f64;
    assert!(
        trace_ratio >= 10.0,
        "columnar trace chunks must be >=10x smaller than JSON event \
         frames (got {trace_ratio:.1}x)"
    );
    let spill_mib = spill.len() as f64 / (1024.0 * 1024.0);

    let cache_json_bytes = bdb_engine::codec::profile_to_value(&serial[0])
        .encode()
        .len()
        + 1;
    let result_msg = Message::Result {
        task_id: 0,
        fingerprint: 0,
        outcome: Ok(Box::new(serial[0].clone())),
    };
    let wire_json_bytes = wire::encode_frame(&result_msg).len();

    // Cluster merge over a loopback fleet: byte-identical to serial.
    let (merge_json_s, merged_json) = run_distributed(&defs, scale(), &machine, &node);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&merged_json),
        "JSON-wire merge must be bit-identical to serial"
    );

    // Serve section: cold catalog materialization, warm query latency
    // from the daemon's materialized map, the incremental recompute a
    // one-knob edit triggers, and delta fan-out to a subscriber fleet.
    let serve_spec = {
        let mut spec = ServeSpec::empty(scale());
        spec.configs
            .insert("xeon-e5645".to_owned(), machine.clone());
        spec.workloads = defs.iter().map(|d| d.spec.id.clone()).collect();
        spec
    };
    let serve_keys = serve_spec.entries();
    let serve_engine = Arc::new(Engine::in_memory());
    let (serve_cold_s, serve_state) = time(|| {
        ServeState::materialize(serve_engine.clone(), serve_spec.clone())
            .expect("serve catalog materializes")
    });
    let serve_entries = serve_state.len() as u64;
    let server = Server::new(serve_state, ServerConfig::named("bench-served"));
    let session = |label: &str| {
        let (client_end, server_end) = loopback_pair(label);
        let srv = server.clone();
        std::thread::spawn(move || srv.serve_session(Arc::new(server_end)));
        let mut client = ServeClient::over(Arc::new(client_end));
        client.hello(label).expect("serve hello");
        client
    };
    const FANOUT_SUBSCRIBERS: usize = 8;
    let mut subscribers: Vec<ServeClient> = (0..FANOUT_SUBSCRIBERS)
        .map(|i| {
            let mut sub = session(&format!("bench-sub{i}"));
            sub.subscribe().expect("serve subscribe");
            sub
        })
        .collect();
    let mut client = session("bench-client");
    let (serve_query_s, _) = time(|| {
        for key in &serve_keys {
            client
                .query(key)
                .expect("serve query")
                .expect("served key is present");
        }
    });
    let serve_query_us = serve_query_s * 1e6 / serve_keys.len() as f64;
    let serve_computed_before = serve_engine.counters().computed;
    let (serve_mutate_s, mutated) = time(|| {
        client
            .mutate(Mutation::SetKnob {
                config: "xeon-e5645".to_owned(),
                knob: "l1d.size_bytes".to_owned(),
                value: Value::UInt(16384),
            })
            .expect("serve mutate")
    });
    let serve_recomputed = serve_engine.counters().computed - serve_computed_before;
    assert_eq!(
        serve_recomputed, serve_entries,
        "the knob edit must recompute exactly the served catalog"
    );
    let (serve_drain_s, _) = time(|| {
        for sub in &mut subscribers {
            let batch = sub
                .next_delta(Duration::from_secs(60))
                .expect("serve delta stream")
                .expect("delta batch arrives");
            assert_eq!(
                batch.seq, mutated.seq,
                "fan-out delivers the mutation batch"
            );
        }
    });

    let mut fields = vec![
        ("bench", Value::Str("engine".into())),
        ("workloads", Value::UInt(defs.len() as u64)),
        ("scale_factor", Value::Float(scale().factor())),
        ("threads", Value::UInt(threads as u64)),
        ("serial_seconds", Value::Float(serial_s)),
        ("parallel_seconds", Value::Float(parallel_s)),
        ("parallel_speedup", Value::Float(serial_s / parallel_s)),
        ("cold_cache_seconds", Value::Float(cold_s)),
        ("warm_cache_seconds", Value::Float(warm_s)),
        ("warm_cache_speedup", Value::Float(cold_s / warm_s)),
        (
            "sweep_capacity_points",
            Value::UInt(PAPER_SWEEP_KIB.len() as u64),
        ),
        ("sweep_serial_seconds", Value::Float(sweep_serial_s)),
        (
            "sweep_replay_per_point_seconds",
            Value::Float(sweep_replay_pp_s),
        ),
        ("sweep_fused_seconds", Value::Float(sweep_fused_s)),
        ("fused_speedup", Value::Float(fused_speedup)),
    ];
    for &(t, secs) in &sweep_thread_fields {
        let key = match t {
            1 => "sweep_fused_1t_seconds",
            2 => "sweep_fused_2t_seconds",
            _ => "sweep_fused_4t_seconds",
        };
        fields.push((key, Value::Float(secs)));
    }
    fields.push(("sweep_scaled_factor", Value::Float(scaled.factor())));
    for &(t, secs) in &sweep_scaled_fields {
        let key = match t {
            1 => "sweep_fused_scaled_1t_seconds",
            2 => "sweep_fused_scaled_2t_seconds",
            _ => "sweep_fused_scaled_4t_seconds",
        };
        fields.push((key, Value::Float(secs)));
    }
    fields.push((
        "sweep_fused_scaled_speedup_4t",
        Value::Float(scaled_speedup_4t),
    ));
    for &(t, secs) in &sweep_point_fields {
        let key = match t {
            1 => "sweep_scaled_point_threads_1_seconds",
            _ => "sweep_scaled_point_threads_4_seconds",
        };
        fields.push((key, Value::Float(secs)));
    }
    fields.extend([
        ("trace_chunk_binary_bytes", Value::UInt(spill.len() as u64)),
        (
            "trace_chunk_json_bytes",
            Value::UInt(trace_json_bytes as u64),
        ),
        (
            "trace_event_json_bytes",
            Value::UInt(trace_event_json_bytes as u64),
        ),
        (
            "trace_chunk_binary_vs_json_array",
            Value::Float(trace_array_ratio),
        ),
        (
            "trace_chunk_binary_vs_json_events",
            Value::Float(trace_ratio),
        ),
        (
            "trace_spill_encode_mib_per_s",
            Value::Float(spill_mib / spill_s),
        ),
        (
            "trace_spill_decode_mib_per_s",
            Value::Float(spill_mib / load_s),
        ),
        (
            "cache_entry_json_bytes",
            Value::UInt(cache_json_bytes as u64),
        ),
        (
            "wire_result_frame_json_bytes",
            Value::UInt(wire_json_bytes as u64),
        ),
        (
            "cluster_merge_json_wire_seconds",
            Value::Float(merge_json_s),
        ),
        ("serve_entries", Value::UInt(serve_entries)),
        ("serve_cold_materialize_seconds", Value::Float(serve_cold_s)),
        ("serve_warm_query_us", Value::Float(serve_query_us)),
        (
            "serve_delta_recompute_entries",
            Value::UInt(serve_recomputed),
        ),
        ("serve_delta_mutate_seconds", Value::Float(serve_mutate_s)),
        (
            "serve_delta_fanout_subscribers",
            Value::UInt(FANOUT_SUBSCRIBERS as u64),
        ),
        (
            "serve_delta_fanout_drain_seconds",
            Value::Float(serve_drain_s),
        ),
    ]);
    let report = Value::object(fields);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let mut text = report.encode();
    text.push('\n');
    if std::fs::write(path, &text).is_ok() {
        println!("wrote {path}");
    }
    println!(
        "engine: serial {serial_s:.2}s, parallel({threads}) {parallel_s:.2}s ({:.2}x), \
         cold cache {cold_s:.2}s, warm cache {warm_s:.3}s ({:.1}x)",
        serial_s / parallel_s,
        cold_s / warm_s
    );
    println!(
        "sweep:  per-point {sweep_serial_s:.2}s, per-point(replay) {sweep_replay_pp_s:.2}s, \
         fused {sweep_fused_s:.2}s ({fused_speedup:.1}x), fused threads {}",
        sweep_thread_fields
            .iter()
            .map(|&(t, s)| format!("{t}t={s:.2}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "sweep:  scaled({:.2}) batch {} (4t/1t {scaled_speedup_4t:.2}x), point threads {}",
        scaled.factor(),
        sweep_scaled_fields
            .iter()
            .map(|&(t, s)| format!("{t}t={s:.2}s"))
            .collect::<Vec<_>>()
            .join(" "),
        sweep_point_fields
            .iter()
            .map(|&(t, s)| format!("{t}pt={s:.2}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "codec:  trace chunks {}B binary vs {trace_event_json_bytes}B JSON event frames \
         ({trace_ratio:.1}x; {trace_array_ratio:.1}x vs the array form), \
         cache entry {cache_json_bytes}B, result frame {wire_json_bytes}B, \
         merge {merge_json_s:.2}s",
        spill.len()
    );
    println!(
        "serve:  cold materialize({serve_entries}) {serve_cold_s:.2}s, \
         warm query {serve_query_us:.0}us, knob delta recompute({serve_recomputed}) \
         {serve_mutate_s:.2}s, fan-out to {FANOUT_SUBSCRIBERS} subscribers {serve_drain_s:.3}s"
    );
}

fn profile_all_serial_vs_parallel(c: &mut Criterion) {
    measure_and_report();

    let defs = workloads();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut group = c.benchmark_group("engine_profile_all");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| Engine::serial().profile_all(&defs, scale(), &machine, &node))
    });
    group.bench_function("parallel", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .threads(threads)
                .without_memory_cache(),
        );
        b.iter(|| engine.profile_all(&defs, scale(), &machine, &node))
    });
    group.finish();
}

fn cache_cold_vs_warm(c: &mut Criterion) {
    let defs = workloads();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let dir = scratch_cache_dir().with_extension("criterion");

    let mut group = c.benchmark_group("engine_cache");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            Engine::new(
                EngineConfig::default()
                    .cache_dir(&dir)
                    .without_memory_cache(),
            )
            .profile_all(&defs, scale(), &machine, &node)
        })
    });
    // Prime once, then measure pure warm hits.
    let _ = std::fs::remove_dir_all(&dir);
    Engine::new(
        EngineConfig::default()
            .cache_dir(&dir)
            .without_memory_cache(),
    )
    .profile_all(&defs, scale(), &machine, &node);
    group.bench_function("warm", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        b.iter(|| engine.profile_all(&defs, scale(), &machine, &node))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn sweep_per_point_vs_fused(c: &mut Criterion) {
    let defs = workloads();
    let def = &defs[0];
    let caps = [16u64, 256, 4096];

    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    group.bench_function("per_point", |b| {
        b.iter(|| replay_per_point_sweep(def, scale(), &caps))
    });
    group.bench_function("fused", |b| {
        let engine = sweep_engine(1);
        b.iter(|| {
            engine.sweep(&def.spec.id, &caps, |sink| {
                let _ = def.run(sink, scale());
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    profile_all_serial_vs_parallel,
    cache_cold_vs_warm,
    sweep_per_point_vs_fused
);
criterion_main!(benches);
