//! Timing wrappers the traced run slips under the engine and the
//! coordinator through their public seams ([`CacheStore`] via
//! `EngineConfig::store`, [`Transport`] via the coordinator's worker
//! list). They forward every call unchanged and only count and time it.

use crate::stats::percentile;
use crate::tracer::Tracer;
use bdb_cluster::{Message, Transport, TransportError};
use bdb_engine::{CacheStore, FileMeta, RealFs, StoreError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Call count, total busy time and bytes moved for one store operation.
#[derive(Debug, Default)]
pub struct OpTally {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl OpTally {
    fn add(&self, elapsed: Duration, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean microseconds per call (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        per_call(
            self.nanos.load(Ordering::Relaxed) as f64 / 1e3,
            self.calls(),
        )
    }

    /// Mean bytes per call (0 with no calls).
    pub fn mean_bytes(&self) -> f64 {
        per_call(self.bytes.load(Ordering::Relaxed) as f64, self.calls())
    }
}

fn per_call(total: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total / calls as f64
    }
}

/// A [`CacheStore`] over the real filesystem that times entry reads and
/// writes — the engine's disk tier.
#[derive(Debug, Default)]
pub struct TimingStore {
    /// Whole-file reads (cache lookups).
    pub reads: OpTally,
    /// Whole-file writes (the tmp half of tmp+rename persistence).
    pub writes: OpTally,
}

impl CacheStore for TimingStore {
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
        RealFs.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        let start = Instant::now();
        let out = RealFs.read(path);
        let bytes = out.as_ref().map_or(0, |b| b.as_ref().map_or(0, Vec::len));
        self.reads.add(start.elapsed(), bytes);
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let out = RealFs.write(path, bytes);
        self.writes.add(start.elapsed(), bytes.len());
        out
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        RealFs.append(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        RealFs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        RealFs.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<FileMeta>, StoreError> {
        RealFs.list(dir)
    }

    fn touch(&self, path: &Path) -> Result<(), StoreError> {
        RealFs.touch(path)
    }
}

/// What a [`TimingTransport`] saw, shared by every worker's wrapper.
#[derive(Debug, Default)]
pub struct WireTally {
    inflight: Mutex<BTreeMap<u64, Instant>>,
    rtts_us: Mutex<Vec<f64>>,
    assigned: AtomicU64,
    completed: AtomicU64,
    tracer: Option<Arc<Tracer>>,
}

impl WireTally {
    /// A tally that also records one `cluster.task` span per round trip.
    pub fn with_tracer(tracer: Arc<Tracer>) -> Self {
        WireTally {
            tracer: Some(tracer),
            ..WireTally::default()
        }
    }

    /// `Assign` messages sent.
    pub fn assigned(&self) -> u64 {
        self.assigned.load(Ordering::Relaxed)
    }

    /// `Result` messages received.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile of Assign→Result round trips, in µs.
    pub fn rtt_us(&self, p: f64) -> f64 {
        percentile(&lock(&self.rtts_us), p)
    }

    /// Round trips measured.
    pub fn rtt_samples(&self) -> usize {
        lock(&self.rtts_us).len()
    }

    fn on_send(&self, msg: &Message) {
        if let Message::Assign { task_id, .. } = msg {
            self.assigned.fetch_add(1, Ordering::Relaxed);
            lock(&self.inflight).insert(*task_id, Instant::now());
        }
    }

    fn on_recv(&self, msg: &Message) {
        if let Message::Result { task_id, .. } = msg {
            self.completed.fetch_add(1, Ordering::Relaxed);
            let sent = lock(&self.inflight).remove(task_id);
            if let Some(sent) = sent {
                let now = Instant::now();
                lock(&self.rtts_us).push((now - sent).as_secs_f64() * 1e6);
                if let Some(tracer) = &self.tracer {
                    let id = tracer.reserve();
                    tracer.record(
                        id,
                        "cluster.task",
                        None,
                        &format!("task-{task_id}"),
                        sent,
                        now,
                    );
                }
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("tally lock poisoned by a panicking thread")
}

/// A coordinator-side [`Transport`] that matches each `Assign` to its
/// `Result` by task id and records the round trip.
pub struct TimingTransport<T> {
    inner: T,
    tally: Arc<WireTally>,
}

impl<T> TimingTransport<T> {
    /// Wraps `inner`, reporting into `tally`.
    pub fn new(inner: T, tally: Arc<WireTally>) -> Self {
        TimingTransport { inner, tally }
    }
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn send(&self, msg: &Message) -> Result<(), TransportError> {
        self.tally.on_send(msg);
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<Message, TransportError> {
        let msg = self.inner.recv()?;
        self.tally.on_recv(&msg);
        Ok(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        let msg = self.inner.recv_timeout(timeout)?;
        if let Some(msg) = &msg {
            self.tally.on_recv(msg);
        }
        Ok(msg)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
