//! The serve contract: applying mutations incrementally must leave the
//! materialized catalog **byte-identical** to a cold full recompute of
//! the final spec, while touching only the entries each mutation
//! invalidates. The loopback tests drive the same guarantees through a
//! real server session — warm queries never hit the engine, and a
//! subscriber patching its snapshot with streamed deltas converges to
//! the server's own catalog bytes.

use bdb_cluster::loopback_pair;
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{Engine, EngineConfig};
use bdb_serve::{
    apply_delta_batch, Mutation, ServeClient, ServeSpec, ServeState, Server, ServerConfig,
    SnapshotEntry,
};
use bdb_sim::MachineConfig;
use bdb_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn small_spec() -> ServeSpec {
    ServeSpec::representatives(Scale::tiny())
        .with_workloads(&[
            "H-WordCount".to_owned(),
            "H-Grep".to_owned(),
            "S-Project".to_owned(),
        ])
        .expect("catalog ids resolve")
}

/// Spawns a loopback session thread against `server` and returns a
/// connected client. The session thread exits when the client says
/// `Bye` (or drops its transport).
fn session(server: &Server) -> ServeClient {
    let (client_end, server_end) = loopback_pair("test-session");
    let server = server.clone();
    std::thread::spawn(move || server.serve_session(Arc::new(server_end)));
    ServeClient::over(Arc::new(client_end))
}

fn snapshot_lines(entries: &[SnapshotEntry]) -> Vec<String> {
    entries
        .iter()
        .map(|e| {
            format!(
                "{} {:016x} {}",
                e.key.render(),
                e.fingerprint,
                profile_to_value(&e.profile).encode()
            )
        })
        .collect()
}

#[test]
fn mutation_sequence_matches_cold_full_recompute_byte_for_byte() {
    let engine = Arc::new(Engine::in_memory());
    let mut state = ServeState::materialize(engine.clone(), small_spec()).expect("materialize");
    // Exercise every mutation kind: knob edit, workload add/remove,
    // config add/remove (add two so the remove leaves a mixed catalog),
    // and a scale change that invalidates everything.
    let mutations = [
        Mutation::SetKnob {
            config: "xeon-e5645".to_owned(),
            knob: "l1d.size_bytes".to_owned(),
            value: Value::UInt(16384),
        },
        Mutation::AddConfig {
            name: "atom-d510".to_owned(),
            machine: Box::new(MachineConfig::atom_d510()),
        },
        Mutation::AddWorkload {
            id: "M-Sort".to_owned(),
        },
        Mutation::AddConfig {
            name: "xeon-e5-2697".to_owned(),
            machine: Box::new(MachineConfig::xeon_e5_2697()),
        },
        Mutation::RemoveWorkload {
            id: "H-Grep".to_owned(),
        },
        Mutation::RemoveConfig {
            name: "xeon-e5-2697".to_owned(),
        },
        Mutation::SetScale { factor: 0.0625 },
    ];
    for (i, mutation) in mutations.iter().enumerate() {
        let batch = state.apply(mutation).expect("mutation applies");
        assert_eq!(batch.seq, (i + 1) as u64, "seq advances once per mutation");
    }
    assert_eq!(state.len(), 6, "2 configs x 3 workloads survive");

    let cold = ServeState::materialize(Arc::new(Engine::in_memory()), state.spec().clone())
        .expect("cold materialize");
    assert_eq!(
        state.snapshot_bytes(),
        cold.snapshot_bytes(),
        "incremental catalog must be byte-identical to a cold recompute"
    );
}

#[test]
fn warm_restart_re_materializes_without_recomputing() {
    let dir = std::env::temp_dir().join(format!("bdb-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(&dir)));
    let cold = ServeState::materialize(cold_engine.clone(), small_spec()).expect("cold");
    assert_eq!(cold_engine.counters().computed, 3, "cold run simulates");
    let cold_bytes = cold.snapshot_bytes();
    drop(cold);

    // A restarted daemon pointing at the same cache dir comes back warm:
    // every profile loads from disk, nothing is simulated.
    let warm_engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(&dir)));
    let warm = ServeState::materialize(warm_engine.clone(), small_spec()).expect("warm");
    assert_eq!(
        warm_engine.counters().computed,
        0,
        "restart must not simulate"
    );
    assert_eq!(warm_engine.counters().disk_hits, 3);
    assert_eq!(
        warm.snapshot_bytes(),
        cold_bytes,
        "warm catalog is byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loopback_queries_and_snapshots_are_served_from_the_materialized_map() {
    let engine = Arc::new(Engine::in_memory());
    let state = ServeState::materialize(engine.clone(), small_spec()).expect("materialize");
    let keys = state.keys();
    let server = Server::new(state, ServerConfig::named("warm-test"));

    let mut client = session(&server);
    let info = client.hello("reader").expect("hello");
    assert_eq!(info.entries, 3);
    assert_eq!(info.seq, 0);

    let computed_before = engine.counters().computed;
    for key in &keys {
        let (fingerprint, profile) = client
            .query(key)
            .expect("query")
            .expect("served key is present");
        assert_ne!(fingerprint, 0);
        assert_eq!(profile.spec.id, key.workload);
    }
    let (seq, entries) = client.snapshot().expect("snapshot");
    assert_eq!(seq, 0);
    assert_eq!(entries.len(), 3);
    assert!(
        client
            .query(&bdb_serve::EntryKey::new("xeon-e5645", "NoSuchWorkload"))
            .expect("query")
            .is_none(),
        "unknown keys are NotFound, not errors"
    );
    assert_eq!(
        engine.counters().computed,
        computed_before,
        "warm queries and snapshots must never reach the engine"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.entries, 3);
    assert_eq!(
        stats.computed, 3,
        "only the initial materialization simulated"
    );
    assert_eq!(stats.sessions_active, 1);
    client.bye().expect("bye");
}

#[test]
fn subscriber_patches_snapshot_to_byte_identical_catalog() {
    let engine = Arc::new(Engine::in_memory());
    let state = ServeState::materialize(engine.clone(), small_spec()).expect("materialize");
    let server = Server::new(state, ServerConfig::named("delta-test"));

    let mut subscriber = session(&server);
    subscriber.hello("subscriber").expect("hello");
    let covered = subscriber.subscribe().expect("subscribe");
    let (snap_seq, entries) = subscriber.snapshot().expect("snapshot");
    assert_eq!(covered, snap_seq);
    let mut catalog: BTreeMap<String, SnapshotEntry> =
        entries.into_iter().map(|e| (e.key.render(), e)).collect();

    let mut mutator = session(&server);
    mutator.hello("mutator").expect("hello");
    let computed_before = engine.counters().computed;
    let outcome = mutator
        .mutate(Mutation::SetKnob {
            config: "xeon-e5645".to_owned(),
            knob: "l1d.size_bytes".to_owned(),
            value: Value::UInt(16384),
        })
        .expect("knob mutate");
    assert_eq!(outcome.seq, snap_seq + 1);
    assert_eq!(outcome.created, 0);
    assert_eq!(outcome.deleted, 0);
    assert!(outcome.updated >= 1, "shrinking L1d must move some profile");
    assert_eq!(
        engine.counters().computed,
        computed_before + 3,
        "the delta recompute touches exactly the affected entries"
    );
    let removed = mutator
        .mutate(Mutation::RemoveWorkload {
            id: "H-Grep".to_owned(),
        })
        .expect("remove mutate");
    assert_eq!(removed.deleted, 1);

    // The subscriber replays both pushed batches onto its snapshot…
    for expect_seq in [snap_seq + 1, snap_seq + 2] {
        let batch = subscriber
            .next_delta(Duration::from_secs(30))
            .expect("delta stream")
            .expect("batch arrives before timeout");
        assert_eq!(batch.seq, expect_seq, "batches arrive in strict seq order");
        apply_delta_batch(&mut catalog, &batch);
    }

    // …and must land on the server's own catalog, byte for byte.
    let (final_seq, fresh) = mutator.snapshot().expect("fresh snapshot");
    assert_eq!(final_seq, snap_seq + 2);
    let patched: Vec<SnapshotEntry> = catalog.into_values().collect();
    assert_eq!(snapshot_lines(&patched), snapshot_lines(&fresh));

    let stats = mutator.stats().expect("stats");
    assert_eq!(stats.subscribers, 1);
    assert_eq!(stats.delta_batches, 2);
    // The flusher credits `deltas_streamed` *after* each successful
    // send, so the counter can trail the subscriber's receipt by an
    // instruction or two — poll it to the full fan-out.
    let expected = outcome.updated + removed.deleted;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let streamed = mutator.stats().expect("stats").deltas_streamed;
        if streamed == expected {
            break;
        }
        assert!(
            streamed < expected,
            "deltas_streamed {streamed} overshot the fan-out {expected}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "deltas_streamed {streamed} never reached {expected}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    subscriber.bye().expect("bye");
    mutator.bye().expect("bye");
}

#[test]
fn session_cap_sheds_with_a_deterministic_retry_hint() {
    let state =
        ServeState::materialize(Arc::new(Engine::in_memory()), small_spec()).expect("materialize");
    let server = Server::new(
        state,
        ServerConfig {
            max_clients: 0,
            ..ServerConfig::named("full")
        },
    );
    let mut client = session(&server);
    match client.hello("late") {
        Err(bdb_serve::ServeError::ServerFull {
            max_clients,
            retry_after_ticks,
        }) => {
            assert_eq!(max_clients, 0);
            // One session over a cap of zero: exactly one retry quantum.
            assert_eq!(retry_after_ticks, bdb_serve::RETRY_QUANTUM_TICKS);
        }
        other => panic!("expected a busy refusal, got {other:?}"),
    }
}

/// A server-side transport driven by a script: requests come from a
/// channel that stays open (so the session blocks instead of closing),
/// and the peer stops reading after `free_sends` replies — every later
/// send parks forever, wedging the subscriber's flusher thread mid-send
/// the way a stalled TCP peer would.
struct StuckSubscriber {
    requests: std::sync::Mutex<std::sync::mpsc::Receiver<Vec<u8>>>,
    _keep_open: std::sync::mpsc::Sender<Vec<u8>>,
    sends: std::sync::atomic::AtomicU64,
    free_sends: u64,
}

impl bdb_cluster::FrameTransport for StuckSubscriber {
    fn send_payload(&self, _payload: &[u8]) -> Result<(), bdb_cluster::TransportError> {
        let n = self.sends.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if n >= self.free_sends {
            loop {
                std::thread::park();
            }
        }
        Ok(())
    }

    fn recv_payload(&self) -> Result<Vec<u8>, bdb_cluster::TransportError> {
        self.requests
            .lock()
            .expect("script lock")
            .recv()
            .map_err(|_| bdb_cluster::TransportError::Closed)
    }

    fn recv_payload_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, bdb_cluster::TransportError> {
        match self
            .requests
            .lock()
            .expect("script lock")
            .recv_timeout(timeout)
        {
            Ok(p) => Ok(Some(p)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Err(bdb_cluster::TransportError::Closed)
            }
        }
    }

    fn peer_label(&self) -> String {
        "stuck-subscriber".to_owned()
    }
}

#[test]
fn slow_subscriber_is_evicted_not_buffered_without_bound() {
    let state =
        ServeState::materialize(Arc::new(Engine::in_memory()), small_spec()).expect("materialize");
    let server = Server::new(
        state,
        ServerConfig {
            sub_queue: 1,
            ..ServerConfig::named("evict")
        },
    );

    // A subscriber that registers and then never reads another frame:
    // its one allowed send is the `Subscribed` reply, so the flusher
    // wedges on the first delta frame.
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(bdb_serve::encode_request(
        &bdb_serve::ServeRequest::Subscribe { id: 1 },
    ))
    .expect("script send");
    let stuck = Arc::new(StuckSubscriber {
        requests: std::sync::Mutex::new(rx),
        _keep_open: tx,
        sends: std::sync::atomic::AtomicU64::new(0),
        free_sends: 1,
    });
    {
        let server = server.clone();
        let stuck: Arc<dyn bdb_cluster::FrameTransport> = stuck;
        std::thread::spawn(move || server.serve_session(stuck));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().subscribers < 1 {
        assert!(std::time::Instant::now() < deadline, "subscriber registers");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Three effective mutations: the first delta wedges the flusher,
    // the queue (depth 1) fills, and the subscriber is shed instead of
    // buffered without bound.
    let mut mutator = session(&server);
    mutator.hello("mutator").expect("hello");
    for size in [16384u64, 32768, 8192] {
        mutator
            .mutate(Mutation::SetKnob {
                config: "xeon-e5645".to_owned(),
                knob: "l1d.size_bytes".to_owned(),
                value: Value::UInt(size),
            })
            .expect("mutation applies");
    }
    let stats = mutator.stats().expect("stats");
    assert_eq!(
        stats.subscribers_evicted, 1,
        "slow consumer shed exactly once"
    );
    assert_eq!(stats.subscribers, 0, "evicted subscriber unregistered");
    mutator.bye().expect("bye");
}

/// A server-side transport whose sends park on a gate after
/// `free_sends` frames, recording every delivered payload — a slow (but
/// not dead) peer. Opening the gate lets the flusher drain.
struct GatedSubscriber {
    requests: std::sync::Mutex<std::sync::mpsc::Receiver<Vec<u8>>>,
    _keep_open: std::sync::mpsc::Sender<Vec<u8>>,
    sent: std::sync::Mutex<Vec<Vec<u8>>>,
    gate_open: std::sync::Mutex<bool>,
    gate_cv: std::sync::Condvar,
    sends: std::sync::atomic::AtomicU64,
    free_sends: u64,
}

impl bdb_cluster::FrameTransport for GatedSubscriber {
    fn send_payload(&self, payload: &[u8]) -> Result<(), bdb_cluster::TransportError> {
        let n = self.sends.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if n >= self.free_sends {
            let mut open = self.gate_open.lock().expect("gate lock");
            while !*open {
                open = self.gate_cv.wait(open).expect("gate wait");
            }
        }
        self.sent.lock().expect("sent lock").push(payload.to_vec());
        Ok(())
    }

    fn recv_payload(&self) -> Result<Vec<u8>, bdb_cluster::TransportError> {
        self.requests
            .lock()
            .expect("script lock")
            .recv()
            .map_err(|_| bdb_cluster::TransportError::Closed)
    }

    fn recv_payload_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, bdb_cluster::TransportError> {
        match self
            .requests
            .lock()
            .expect("script lock")
            .recv_timeout(timeout)
        {
            Ok(p) => Ok(Some(p)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Err(bdb_cluster::TransportError::Closed)
            }
        }
    }

    fn peer_label(&self) -> String {
        "gated-subscriber".to_owned()
    }
}

/// An evicted subscriber must receive a final `Error` notice (the shed
/// is announced, not silent), and `deltas_streamed` must count only the
/// frames that actually reached the peer — not frames discarded by the
/// eviction.
#[test]
fn evicted_subscriber_gets_a_farewell_error_frame() {
    let state =
        ServeState::materialize(Arc::new(Engine::in_memory()), small_spec()).expect("materialize");
    let server = Server::new(
        state,
        ServerConfig {
            sub_queue: 1,
            ..ServerConfig::named("evict-notice")
        },
    );

    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(bdb_serve::encode_request(
        &bdb_serve::ServeRequest::Subscribe { id: 1 },
    ))
    .expect("script send");
    // One free send for the `Subscribed` reply; the first delta frame
    // parks the flusher on the gate.
    let gated = Arc::new(GatedSubscriber {
        requests: std::sync::Mutex::new(rx),
        _keep_open: tx,
        sent: std::sync::Mutex::new(Vec::new()),
        gate_open: std::sync::Mutex::new(false),
        gate_cv: std::sync::Condvar::new(),
        sends: std::sync::atomic::AtomicU64::new(0),
        free_sends: 1,
    });
    {
        let server = server.clone();
        let clone: Arc<GatedSubscriber> = Arc::clone(&gated);
        let transport: Arc<dyn bdb_cluster::FrameTransport> = clone;
        std::thread::spawn(move || server.serve_session(transport));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().subscribers < 1 {
        assert!(std::time::Instant::now() < deadline, "subscriber registers");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut mutator = session(&server);
    mutator.hello("mutator").expect("hello");
    let knob = |size: u64| Mutation::SetKnob {
        config: "xeon-e5645".to_owned(),
        knob: "l1d.size_bytes".to_owned(),
        value: Value::UInt(size),
    };
    // Mutation 1's frame is popped by the flusher, which parks on the
    // gate mid-send; wait for that pickup (send #2 = Subscribed + this
    // frame) so the queue is deterministically empty again.
    mutator.mutate(knob(16384)).expect("mutation 1");
    while gated.sends.load(std::sync::atomic::Ordering::SeqCst) < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "flusher picks up the first delta frame"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Mutation 2 fills the depth-1 queue; mutation 3 finds it full and
    // evicts, queueing the farewell notice behind the undelivered frame.
    mutator.mutate(knob(32768)).expect("mutation 2");
    mutator.mutate(knob(8192)).expect("mutation 3");
    let stats = mutator.stats().expect("stats");
    assert_eq!(stats.subscribers_evicted, 1, "shed exactly once");
    assert_eq!(stats.subscribers, 0, "evicted subscriber unregistered");

    // Open the gate: the flusher drains the closed queue — delta 1,
    // delta 2, then the farewell — and exits.
    *gated.gate_open.lock().expect("gate lock") = true;
    gated.gate_cv.notify_all();
    while gated.sent.lock().expect("sent lock").len() < 4 {
        assert!(
            std::time::Instant::now() < deadline,
            "flusher drains the closed queue"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let sent = gated.sent.lock().expect("sent lock").clone();
    assert_eq!(sent.len(), 4, "subscribed + 2 deltas + farewell");
    let mut delivered_deltas = 0u64;
    for frame in &sent[1..3] {
        match bdb_serve::decode_reply(frame).expect("delta frame decodes") {
            bdb_serve::ServeReply::Delta(batch) => delivered_deltas += batch.deltas.len() as u64,
            other => panic!("expected delta frame, got {other:?}"),
        }
    }
    match bdb_serve::decode_reply(&sent[3]).expect("farewell decodes") {
        bdb_serve::ServeReply::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(
                message.contains("evicted"),
                "farewell names the eviction: {message}"
            );
        }
        other => panic!("expected the farewell error frame, got {other:?}"),
    }
    // Only the delivered frames are counted: the discarded third batch
    // and the farewell itself never touch `deltas_streamed`.
    assert_eq!(
        server.stats().deltas_streamed,
        delivered_deltas,
        "deltas_streamed counts delivery, not enqueueing"
    );
    mutator.bye().expect("bye");
}
