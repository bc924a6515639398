//! `serve_mixed`: an in-process `bdb_serve::Server` on a localhost TCP
//! listener serving the 17 representatives on the Xeon E5645, loaded by
//! two client sessions at once:
//!
//! * an open-loop query thread issuing `ServeClient::query` every
//!   [`QUERY_INTERVAL`] over a seeded Zipf key sequence, each query timed
//!   from its due time so queries that wait behind a stall count it;
//! * a closed-loop mutator, subscribed to deltas, applying a seeded
//!   sequence of knob edits and add/remove pairs with
//!   [`MUTATION_PAUSE`] between them.
//!
//! `ServeState::apply` recomputes while holding the state lock, so the
//! query tail measures exactly that stall. After the window, the
//! mutator's initial snapshot with every delta batch applied must equal a
//! cold `ServeState::materialize` of the final spec.

use crate::rng::{permutation, SplitMix, Zipf};
use crate::stats::{median, percentile};
use crate::tracer::Tracer;
use crate::{catalog_defs, catalog_scale, sim_counts, timed_setup, Outcome, RunConfig};
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{Engine, EngineConfig};
use bdb_serve::{apply_delta_batch, DeltaBatch, EntryKey, Mutation, ServeClient, ServeError};
use bdb_serve::{ServeSpec, ServeState, Server, ServerConfig, SnapshotEntry};
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served machine config's name.
pub const CONFIG: &str = "xeon-e5645";

/// Open-loop query spacing: 1000 queries per second, far below the warm
/// path's capacity (tens of µs per query).
pub const QUERY_INTERVAL: Duration = Duration::from_millis(1);

/// Pause between mutations: long enough for the query backlog a
/// recompute stall builds to drain before the next mutation.
pub const MUTATION_PAUSE: Duration = Duration::from_millis(300);

/// A query slower than this from its due time misses the latency limit.
pub const QUERY_LIMIT: Duration = Duration::from_millis(10);

/// Zipf exponent of the query key popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;

const KEY_STREAM: u64 = 4;
const MUTATION_STREAM: u64 = 5;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const DELTA_DRAIN: Duration = Duration::from_secs(5);

/// The seeded query key sequence: Zipf ranks over the served
/// representatives, mapped through a seeded popularity order.
pub struct QueryKeys {
    keys: Vec<EntryKey>,
    zipf: Zipf,
    rng: SplitMix,
}

impl QueryKeys {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> Self {
        let ids: Vec<String> = bdb_workloads::catalog::representatives()
            .iter()
            .map(|w| w.spec.id.clone())
            .collect();
        let keys = permutation(ids.len(), seed, KEY_STREAM)
            .into_iter()
            .map(|i| EntryKey::new(CONFIG, &ids[i]))
            .collect();
        QueryKeys {
            zipf: Zipf::new(ids.len(), ZIPF_EXPONENT),
            keys,
            rng: SplitMix::new(seed, KEY_STREAM),
        }
    }
}

impl Iterator for QueryKeys {
    type Item = EntryKey;

    fn next(&mut self) -> Option<EntryKey> {
        Some(self.keys[self.zipf.sample(&mut self.rng)].clone())
    }
}

/// The seeded mutation sequence. It repeats a fixed five-step shape —
/// knob, knob, add, knob, remove — so every seed has the same mix of
/// costs; the seed picks which knob each knob step toggles and which
/// non-representative workload each add/remove pair uses. Knobs toggle
/// between the Xeon's value and an alternative (`l1d.size_bytes`
/// 32768 ↔ 65536, `pipeline.mem_latency` base ↔ base + 40), so every
/// knob step recomputes all served entries.
pub struct Mutations {
    rng: SplitMix,
    step: usize,
    l1d_alt: bool,
    latency_alt: bool,
    extra: Vec<String>,
    added: String,
}

impl Mutations {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> Self {
        let reps: Vec<String> = bdb_workloads::catalog::representatives()
            .iter()
            .map(|w| w.spec.id.clone())
            .collect();
        let extra = catalog_defs()
            .into_iter()
            .map(|w| w.spec.id)
            .filter(|id| !reps.contains(id))
            .collect();
        Mutations {
            rng: SplitMix::new(seed, MUTATION_STREAM),
            step: 0,
            l1d_alt: false,
            latency_alt: false,
            extra,
            added: String::new(),
        }
    }

    fn knob(&mut self) -> Mutation {
        let base = MachineConfig::xeon_e5645();
        let (knob, value) = if self.rng.below(2) == 0 {
            self.l1d_alt = !self.l1d_alt;
            let size = if self.l1d_alt {
                65536
            } else {
                base.l1d.size_bytes
            };
            ("l1d.size_bytes", size)
        } else {
            self.latency_alt = !self.latency_alt;
            let base = u64::from(base.pipeline.mem_latency);
            (
                "pipeline.mem_latency",
                if self.latency_alt { base + 40 } else { base },
            )
        };
        Mutation::SetKnob {
            config: CONFIG.to_owned(),
            knob: knob.to_owned(),
            value: Value::UInt(value),
        }
    }
}

impl Iterator for Mutations {
    type Item = Mutation;

    fn next(&mut self) -> Option<Mutation> {
        let step = self.step % 5;
        self.step += 1;
        Some(match step {
            2 => {
                self.added = self.extra[self.rng.below(self.extra.len())].clone();
                Mutation::AddWorkload {
                    id: self.added.clone(),
                }
            }
            4 => Mutation::RemoveWorkload {
                id: std::mem::take(&mut self.added),
            },
            _ => self.knob(),
        })
    }
}

/// One query as the open-loop generator saw it.
#[derive(Debug, Clone, Copy)]
struct QuerySample {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

/// One mutation as the mutator saw it.
#[derive(Debug, Clone, Copy)]
struct MutationSample {
    sent: Instant,
    done: Instant,
}

/// What the mutator session produced.
struct MutatorLog {
    samples: Vec<MutationSample>,
    /// Simulated instructions in the created or updated entries the
    /// delta batches carried.
    recomputed_instructions: u64,
    /// The initial snapshot, as profiles in key order.
    initial: Vec<WorkloadProfile>,
    /// The initial snapshot with every delta batch applied.
    mirror: BTreeMap<String, SnapshotEntry>,
    /// The spec every accepted mutation led to.
    spec: ServeSpec,
}

/// Asks the server to stop accepting sessions, from a session of its own
/// opened after the load ends.
fn stop_server(addr: &str) -> Result<(), String> {
    let mut client =
        ServeClient::connect(addr, CONNECT_TIMEOUT).map_err(|e| format!("stop connect: {e}"))?;
    client
        .hello("perfbench-stop")
        .map_err(|e| format!("stop hello: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))
}

fn materialize(threads: usize) -> Result<ServeState, String> {
    let engine = Arc::new(Engine::new(EngineConfig::default().threads(threads)));
    ServeState::materialize(engine, ServeSpec::representatives(catalog_scale()))
        .map_err(|e| format!("materialize failed: {e}"))
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    load(cfg, None)
}

/// The traced run: the same load, with spans around each query and
/// mutation, and the serve and load-generator layer metrics.
pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let out = load(cfg, Some(&tracer))?;
    let trace_path = cfg.trace_file("serve_mixed");
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    Ok(out)
}

fn load(cfg: &RunConfig, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let state = timed_setup(&mut out, crate::COMPUTING_SETUP_REPS, || {
        materialize(cfg.threads)
    })?;
    let server = Server::new(state, ServerConfig::named("perfbench"));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let computed_before = server.stats().computed;

    let (queries, log, stopped) = std::thread::scope(|scope| {
        let listening = server.clone();
        let listener_thread = scope.spawn(move || listening.serve_listener(&listener));
        let deadline = Instant::now() + cfg.seconds;
        let addr = addr.as_str();
        let mutator = scope.spawn(move || mutator(addr, cfg.seed, deadline, tracer));
        let queries = query_loop(addr, cfg.seed, cfg.seconds, tracer);
        let log = mutator
            .join()
            .map_err(|_| "mutator thread panicked".to_owned())
            .and_then(|log| log);
        let stopped = stop_server(addr).and_then(|()| {
            listener_thread
                .join()
                .map_err(|_| "listener thread panicked".to_owned())?
                .map_err(|e| format!("listener failed: {e}"))
        });
        (queries, log, stopped)
    });
    let queries = queries?;
    let log = log?;
    stopped?;
    let computed = server.stats().computed - computed_before;

    // Correctness: the queries, and the delta-patched mirror against a
    // cold recompute of the final spec (outside the measured window).
    for q in &queries {
        out.check(if q.ok {
            Ok(())
        } else {
            Err("query failed or was refused".to_owned())
        });
    }
    out.check(check_mirror(&log, cfg.threads));

    let latencies_us: Vec<f64> = queries
        .iter()
        .map(|q| (q.done - q.due).as_secs_f64() * 1e6)
        .collect();
    let misses = queries
        .iter()
        .filter(|q| !q.ok || q.done - q.due > QUERY_LIMIT)
        .count();
    let mutate_ms: Vec<f64> = log
        .samples
        .iter()
        .map(|m| (m.done - m.sent).as_secs_f64() * 1e3)
        .collect();
    let answered = queries.iter().filter(|q| q.ok).count();
    let n_queries = queries.len() as u64;
    let n_mutations = log.samples.len() as u64;
    let mutate_busy_us: f64 = mutate_ms.iter().sum::<f64>() * 1e3;

    if tracer.is_none() {
        out.metric(
            "op_p50_ms",
            percentile(&latencies_us, 50.0) / 1e3,
            "ms",
            n_queries,
        );
        out.metric(
            "ops_per_s",
            answered as f64 / cfg.seconds.as_secs_f64(),
            "1/s",
            n_queries,
        );
        out.metric(
            "sim_mips",
            log.recomputed_instructions as f64 / mutate_busy_us,
            "1/us",
            n_mutations,
        );
    } else {
        let rtt_us: Vec<f64> = queries
            .iter()
            .map(|q| (q.done - q.sent).as_secs_f64() * 1e6)
            .collect();
        let late_ms: Vec<f64> = queries
            .iter()
            .map(|q| q.sent.saturating_duration_since(q.due).as_secs_f64() * 1e3)
            .collect();
        let during = queries
            .iter()
            .filter(|q| {
                log.samples
                    .iter()
                    .any(|m| q.sent < m.done && m.sent < q.done)
            })
            .count();
        out.note(
            "serve.query_rtt_us_p50",
            percentile(&rtt_us, 50.0),
            "us",
            n_queries,
        );
        out.note(
            "serve.query_rtt_us_p99",
            percentile(&rtt_us, 99.0),
            "us",
            n_queries,
        );
        out.note("serve.mutate_ms", median(&mutate_ms), "ms", n_mutations);
        out.note(
            "serve.recomputed_per_mutation",
            computed as f64 / n_mutations.max(1) as f64,
            "count",
            n_mutations,
        );
        out.note(
            "serve.queries_during_mutation",
            during as f64 / n_mutations.max(1) as f64,
            "count",
            n_mutations,
        );
        out.note("serve.mutations", n_mutations as f64, "count", 1);
        out.note(
            "loadgen.late_ms_p99",
            percentile(&late_ms, 99.0),
            "ms",
            n_queries,
        );
        out.note("loadgen.queries", n_queries as f64, "count", 1);
        let reps: Vec<&WorkloadProfile> = log.initial.iter().collect();
        sim_counts(&mut out, &log.initial, &reps);
    }
    out.note(
        "query_p50_us",
        percentile(&latencies_us, 50.0),
        "us",
        n_queries,
    );
    out.note(
        "query_p99_us",
        percentile(&latencies_us, 99.0),
        "us",
        n_queries,
    );
    out.note(
        "query_slo_miss_frac",
        misses as f64 / n_queries.max(1) as f64,
        "fraction",
        n_queries,
    );
    out.note("mutate_p50_ms", median(&mutate_ms), "ms", n_mutations);
    out.note("query_limit_ms", QUERY_LIMIT.as_secs_f64() * 1e3, "ms", 1);
    out.note(
        "query_rate_hz",
        1.0 / QUERY_INTERVAL.as_secs_f64(),
        "1/s",
        1,
    );
    Ok(out)
}

/// The open-loop query session.
fn query_loop(
    addr: &str,
    seed: u64,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Result<Vec<QuerySample>, String> {
    let mut client =
        ServeClient::connect(addr, CONNECT_TIMEOUT).map_err(|e| format!("query connect: {e}"))?;
    client
        .hello("perfbench-query")
        .map_err(|e| format!("query hello: {e}"))?;
    let start = Instant::now();
    let mut samples = Vec::new();
    for (i, key) in QueryKeys::new(seed).enumerate() {
        let due = start + QUERY_INTERVAL * i as u32;
        if due >= start + window {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = client.query(&key);
        let done = Instant::now();
        if let Some(tracer) = tracer {
            let request = format!("query-{i}");
            let parent = tracer.reserve();
            tracer.record(parent, "loadgen.query", None, &request, due, done);
            let id = tracer.reserve();
            tracer.record(id, "serve.query", Some(parent), &request, sent, done);
        }
        let ok = matches!(reply, Ok(Some(_)));
        samples.push(QuerySample {
            due,
            sent,
            done,
            ok,
        });
    }
    client.bye().map_err(|e| format!("query bye: {e}"))?;
    Ok(samples)
}

/// The closed-loop mutator session.
fn mutator(
    addr: &str,
    seed: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Result<MutatorLog, String> {
    fn err(what: &'static str) -> impl Fn(ServeError) -> String {
        move |e| format!("mutator {what}: {e}")
    }
    let mut client = ServeClient::connect(addr, CONNECT_TIMEOUT).map_err(err("connect"))?;
    client.hello("perfbench-mutator").map_err(err("hello"))?;
    client.subscribe().map_err(err("subscribe"))?;
    let (base_seq, entries) = client.snapshot().map_err(err("snapshot"))?;
    let initial: Vec<WorkloadProfile> = entries.iter().map(|e| (*e.profile).clone()).collect();
    let mut mirror: BTreeMap<String, SnapshotEntry> =
        entries.into_iter().map(|e| (e.key.render(), e)).collect();
    let mut spec = ServeSpec::representatives(catalog_scale());
    let mut batches: Vec<DeltaBatch> = Vec::new();
    let mut samples = Vec::new();
    let mut last_seq = base_seq;
    for (i, mutation) in Mutations::new(seed).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let next = spec
            .apply(&mutation)
            .map_err(|e| format!("mutation {i} is invalid for the spec: {e}"))?;
        let sent = Instant::now();
        let outcome = client.mutate(mutation).map_err(err("mutate"))?;
        let done = Instant::now();
        if let Some(tracer) = tracer {
            let id = tracer.reserve();
            tracer.record(
                id,
                "serve.mutate",
                None,
                &format!("mutation-{i}"),
                sent,
                done,
            );
        }
        spec = next;
        last_seq = outcome.seq;
        samples.push(MutationSample { sent, done });
        // The pause doubles as delta drain time, so the subscriber queue
        // never backs up.
        let resume = done + MUTATION_PAUSE;
        while let Some(wait) = resume.checked_duration_since(Instant::now()) {
            match client.next_delta(wait).map_err(err("delta"))? {
                Some(batch) => batches.push(batch),
                None => break,
            }
        }
    }
    let drain_until = Instant::now() + DELTA_DRAIN;
    while batches.last().map_or(base_seq, |b| b.seq) < last_seq {
        let Some(wait) = drain_until.checked_duration_since(Instant::now()) else {
            break;
        };
        match client.next_delta(wait).map_err(err("delta"))? {
            Some(batch) => batches.push(batch),
            None => break,
        }
    }
    let mut recomputed_instructions = 0;
    for batch in batches.iter().filter(|b| b.seq > base_seq) {
        for delta in &batch.deltas {
            if let bdb_serve::Delta::Created { profile, .. }
            | bdb_serve::Delta::Updated { profile, .. } = delta
            {
                recomputed_instructions += profile.report.instructions;
            }
        }
        apply_delta_batch(&mut mirror, batch);
    }
    client.bye().map_err(err("bye"))?;
    Ok(MutatorLog {
        samples,
        recomputed_instructions,
        initial,
        mirror,
        spec,
    })
}

/// The delta-patched snapshot must equal a cold materialization of the
/// final spec, entry for entry and byte for byte.
fn check_mirror(log: &MutatorLog, threads: usize) -> Result<(), String> {
    let engine = Arc::new(Engine::new(
        EngineConfig::default()
            .threads(threads)
            .without_memory_cache(),
    ));
    let cold = ServeState::materialize(engine, log.spec.clone())
        .map_err(|e| format!("cold materialize: {e}"))?;
    let cold_keys: Vec<String> = cold.keys().iter().map(EntryKey::render).collect();
    let mirror_keys: Vec<&String> = log.mirror.keys().collect();
    if cold_keys.iter().collect::<Vec<_>>() != mirror_keys {
        return Err(format!(
            "delta-patched snapshot has {} entries, cold recompute {}",
            mirror_keys.len(),
            cold_keys.len()
        ));
    }
    for key in cold.keys() {
        let rendered = key.render();
        let entry = &log.mirror[&rendered];
        let (fingerprint, _) = cold.get(&key).ok_or("cold entry vanished")?;
        let bytes = cold.get_bytes(&key).ok_or("cold entry vanished")?;
        let same_bytes = profile_to_value(&entry.profile).encode() == bytes;
        if entry.fingerprint != fingerprint || !same_bytes {
            return Err(format!(
                "{rendered}: delta-patched entry differs from cold recompute \
                 (fingerprint {:016x}, cold {fingerprint:016x}; profile bytes {})",
                entry.fingerprint,
                if same_bytes { "equal" } else { "differ" }
            ));
        }
    }
    Ok(())
}
