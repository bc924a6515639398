//! Execution engine — the one way figures, tables, sweeps, and the 77→17
//! reduction obtain measurements.
//!
//! Every consumer used to call `bdb_wcrt::profile::profile_workload` (or
//! the `sweep` harness) directly and serially. The [`Engine`] wraps those
//! entry points with two orthogonal services:
//!
//! * **Parallel fan-out** — [`Engine::profile_all`] and [`Engine::sweep`]
//!   dispatch independent simulations across a rayon thread pool. Results
//!   are collected back into catalog order, so output is bit-identical to
//!   a serial run (the `profile_is_deterministic` contract extends to the
//!   parallel path: same inputs, same bytes, any thread count).
//! * **Profile cache** — profiling the full catalog at paper scale takes
//!   minutes; the 45-metric vector for a given (workload, scale, machine
//!   config, node config) never changes. The engine memoizes profiles in
//!   memory and, when a cache directory is configured, as one JSON file
//!   per profile keyed by a content fingerprint. Re-running a figure
//!   binary after changing only presentation code touches no simulation.
//!
//! Persistence is crash-safe and integrity-checked (DESIGN.md §14):
//! every filesystem access flows through the [`store::CacheStore`] seam
//! (real backend or a seeded fault-injecting [`ChaosFs`]), cache entries
//! carry a CRC-64 content checksum and are moved to a `quarantine/`
//! subdirectory when verification fails — never silently reused or
//! recomputed over — and an optional write-ahead [`RunJournal`]
//! checkpoints completed profiles and sweeps so an interrupted run
//! resumes (`BDB_RESUME`) byte-identical to an uninterrupted one.
//!
//! Capacity sweeps run the workload generator exactly **once**: its
//! events stream into capacity-independent L1 event streams that are
//! replayed per capacity (trace-once/replay-many, DESIGN.md §13). The
//! per-point reference semantics live on as `bdb_sim` functions the
//! tests compare against. Points parallelize across the pool (each is independent) but are
//! *not* cached: a sweep is driven by an arbitrary workload closure
//! whose content cannot be fingerprinted.
//!
//! # Examples
//!
//! ```
//! use bdb_engine::Engine;
//! use bdb_node::NodeConfig;
//! use bdb_sim::MachineConfig;
//! use bdb_workloads::{catalog, Scale};
//!
//! let engine = Engine::in_memory();
//! let reps = catalog::representatives();
//! let profiles = engine.profile_all(
//!     &reps[..2],
//!     Scale::tiny(),
//!     &MachineConfig::xeon_e5645(),
//!     &NodeConfig::default(),
//! );
//! assert_eq!(profiles.len(), 2);
//! assert_eq!(profiles[0].spec.id, reps[0].spec.id);
//! ```

pub mod codec;
pub mod journal;
pub mod json;
pub mod store;
pub mod task;

pub use journal::{sweep_key, JournalStats, RunJournal};
pub use store::{
    crc64, CacheStore, ChaosCounters, ChaosFs, ChaosPlan, FileMeta, RealFs, StoreError,
};
pub use task::{resolve_workload, Task, TaskError, TaskResult};

use bdb_node::NodeConfig;
use bdb_sim::{
    assemble_sweep, fused_points_parallel, MachineConfig, StreamArena, SweepFamily, SweepResult,
};
use bdb_trace::TraceSink;
use bdb_wcrt::{profile_workload, WorkloadProfile};
use bdb_workloads::{Scale, WorkloadDef};
use rayon::prelude::*;
// The in-memory cache below is keyed-lookup only (get/insert by
// fingerprint, never iterated), so map order cannot reach profile bytes.
// bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bumped whenever the cache file layout changes. The version feeds
/// [`profile_fingerprint`], so old-format files simply stop being
/// referenced (their keys no longer occur) and fresh entries are written
/// under new names. Version 2 added the `crc64` content checksum;
/// version 3 moved the canonical encoder into `bdb-codec`. (Version 3
/// also briefly had a binary `.bin` entry form; it is gone, and such
/// files are ignored.)
pub const CACHE_FORMAT_VERSION: u64 = 3;

/// Subdirectory of the cache dir where entries that fail verification
/// are moved (bytes preserved for forensics, never reused or
/// recomputed-over in place).
pub const QUARANTINE_DIR: &str = "quarantine";

/// Minimum sweep work — trace events times capacity points — before the
/// auto point width fans one sweep's replay across threads. Below this,
/// pool setup and per-point stream sharing cost more than the replay
/// itself (the old "1 thread beats 4 at tiny scale" inversion), so the
/// engine replays serially. An explicit `BDB_POINT_THREADS` overrides
/// the threshold. The value is roughly where the parallel path breaks
/// even on commodity cores: a few million replayed events.
pub const POINT_PARALLEL_MIN_WORK: u64 = 8 * 1024 * 1024;

/// How an [`Engine`] runs and where it remembers results.
#[derive(Clone, Default)]
pub struct EngineConfig {
    /// Worker threads for `profile_all` / `sweep`. `None` uses the
    /// machine's available parallelism; `Some(1)` is fully serial.
    pub threads: Option<usize>,
    /// Threads one sweep fans its capacity points across (intra-workload
    /// parallelism). `None` derives a width from the worker pool and
    /// falls back to serial replay below the
    /// [`POINT_PARALLEL_MIN_WORK`] threshold; an explicit value always
    /// wins, threshold included.
    pub point_threads: Option<usize>,
    /// Directory for the on-disk profile cache (one JSON file per
    /// profile). `None` disables the disk cache.
    pub cache_dir: Option<PathBuf>,
    /// Whether to also memoize profiles in memory (cheap; only worth
    /// disabling in cache-behaviour tests).
    pub no_memory_cache: bool,
    /// Size cap for the on-disk cache in bytes. When a write pushes the
    /// directory past the cap, least-recently-used entries (hits refresh
    /// recency) are evicted until it fits. `None` means unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Storage backend behind every engine filesystem access. `None`
    /// uses the real filesystem ([`RealFs`]); chaos tests inject a
    /// seeded [`ChaosFs`].
    pub store: Option<Arc<dyn CacheStore>>,
    /// Path of the write-ahead run journal (see [`RunJournal`]). `None`
    /// disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Whether to load completed work from an existing journal instead
    /// of starting it fresh.
    pub resume: bool,
    /// Context string pinned into the journal's `start` record; a
    /// journal resumes only under a byte-identical context (in the
    /// bench bins: the command line minus `--resume`).
    pub journal_context: String,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("threads", &self.threads)
            .field("point_threads", &self.point_threads)
            .field("cache_dir", &self.cache_dir)
            .field("no_memory_cache", &self.no_memory_cache)
            .field("cache_max_bytes", &self.cache_max_bytes)
            .field("store", &self.store.as_ref().map(|_| "<custom>"))
            .field("journal_path", &self.journal_path)
            .field("resume", &self.resume)
            .field("journal_context", &self.journal_context)
            .finish()
    }
}

impl EngineConfig {
    /// Caps the worker pool at `threads`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Fans each sweep's capacity points across `threads` workers,
    /// bypassing the [`POINT_PARALLEL_MIN_WORK`] threshold (an explicit
    /// width is an instruction, not a hint).
    #[must_use]
    pub fn point_threads(mut self, threads: usize) -> Self {
        self.point_threads = Some(threads);
        self
    }

    /// Enables the on-disk cache under `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the in-memory memo (the disk cache, if any, still works).
    #[must_use]
    pub fn without_memory_cache(mut self) -> Self {
        self.no_memory_cache = true;
        self
    }

    /// Caps the on-disk cache at `bytes` (LRU-style eviction).
    #[must_use]
    pub fn cache_max_bytes(mut self, bytes: u64) -> Self {
        self.cache_max_bytes = Some(bytes);
        self
    }

    /// Routes every filesystem access through `store` (tests inject a
    /// seeded [`ChaosFs`] here).
    #[must_use]
    pub fn store(mut self, store: Arc<dyn CacheStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables the write-ahead run journal at `path`.
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Resumes completed work from an existing journal (no-op without
    /// [`journal`](Self::journal)).
    #[must_use]
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Sets the journal context string (see the field docs).
    #[must_use]
    pub fn journal_context(mut self, context: impl Into<String>) -> Self {
        self.journal_context = context.into();
        self
    }

    /// Builds a config from the standard `BDB_*` environment knobs — the
    /// one place their semantics live, shared by the bench harness and
    /// the cluster worker daemon so the two cannot drift:
    ///
    /// * `BDB_CACHE_DIR` — disk-cache directory (default:
    ///   `results/cache/` at the workspace root).
    /// * `BDB_NO_CACHE=1` — disable the disk cache for this run.
    /// * `BDB_THREADS=<n>` — cap the worker pool (default: all cores).
    /// * `BDB_POINT_THREADS=<n>` — fan each sweep's capacity points
    ///   across `n` threads, even below the auto threshold (default:
    ///   auto — width follows the worker pool, and small sweeps stay
    ///   serial; see [`POINT_PARALLEL_MIN_WORK`]).
    /// * `BDB_CACHE_MAX_BYTES=<n>` — cap the disk cache; LRU entries are
    ///   evicted past the cap (default: unbounded).
    /// * `BDB_JOURNAL=<path>` — write-ahead run journal checkpointing
    ///   completed profiles and sweeps (default: none).
    /// * `BDB_RESUME=1` — resume completed work from the journal
    ///   (implies a default journal path of `results/journal/run.wal`
    ///   at the workspace root when `BDB_JOURNAL` is unset).
    pub fn from_env() -> Self {
        let mut config = EngineConfig::default();
        if std::env::var_os("BDB_NO_CACHE").is_none() {
            let dir = std::env::var_os("BDB_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| {
                    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cache"))
                });
            config = config.cache_dir(dir);
        }
        if let Some(threads) = std::env::var("BDB_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
        {
            config = config.threads(threads);
        }
        if let Some(threads) = std::env::var("BDB_POINT_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
        {
            config = config.point_threads(threads);
        }
        if let Some(bytes) = std::env::var("BDB_CACHE_MAX_BYTES")
            .ok()
            .and_then(|b| b.parse().ok())
        {
            config = config.cache_max_bytes(bytes);
        }
        if let Some(path) = std::env::var_os("BDB_JOURNAL") {
            config = config.journal(PathBuf::from(path));
        }
        if std::env::var_os("BDB_RESUME").is_some() {
            config = config.resume();
            if config.journal_path.is_none() {
                config = config.journal(PathBuf::from(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../results/journal/run.wal"
                )));
            }
        }
        if config.journal_path.is_some() {
            config = config.journal_context(argv_journal_context());
        }
        config
    }
}

/// The default journal context: the process's own command line minus the
/// `--resume` flag itself, so "the same command, resumed" matches while
/// any change to the inputs (scale, workload list, cluster set) resets
/// the journal instead of splicing in stale results.
pub fn argv_journal_context() -> String {
    std::env::args()
        .filter(|arg| arg != "--resume")
        .collect::<Vec<_>>()
        .join(" ")
}

/// Cache-traffic counters (monotonic over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Profiles served from the in-memory memo.
    pub memory_hits: u64,
    /// Profiles decoded from a cache file.
    pub disk_hits: u64,
    /// Profiles and sweeps replayed from the run journal.
    pub journal_hits: u64,
    /// Profiles actually simulated.
    pub computed: u64,
    /// Store operations that failed (reads, writes, renames, journal
    /// appends). The old code swallowed all of these with `.ok()`.
    pub disk_errors: u64,
    /// Cache entries that failed verification and were moved to the
    /// [`QUARANTINE_DIR`] subdirectory.
    pub corrupt_quarantined: u64,
    /// Stale `.tmp` files from crashed writers reclaimed at startup.
    pub tmp_reclaimed: u64,
    /// Memoized profiles dropped via [`Engine::invalidate`] (incremental
    /// recomputation marking entries stale).
    pub invalidated: u64,
    /// Profiles computed elsewhere and admitted via [`Engine::admit`]
    /// (the cluster's replicated result tier pushing entries here).
    pub replicas_admitted: u64,
}

/// How the engine dispatches independent simulations.
///
/// Degradation is always safe: the parallel path is bit-identical to the
/// serial one, so falling back from `Pool` to `Serial` (when thread-pool
/// construction fails) changes wall-clock time, never output bytes.
enum Dispatch {
    /// A dedicated pool capped at the configured width.
    Pool(rayon::ThreadPool),
    /// The ambient rayon context (machine parallelism).
    Ambient,
    /// Plain serial iteration on the calling thread — used for
    /// `threads = 1` and as the fallback when pool construction fails.
    Serial,
}

/// The parallel, cache-aware measurement engine. See the crate docs.
pub struct Engine {
    dispatch: Dispatch,
    store: Arc<dyn CacheStore>,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    /// Threads one sweep fans its capacity points across (`None` =
    /// derive from the pool, threshold-gated).
    point_threads: Option<usize>,
    /// Recycled RLE stream buffers for fused sweeps — repeated sweeps
    /// reuse the extracted-stream vectors instead of reallocating them.
    streams: StreamArena,
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
    memory: Option<Mutex<HashMap<u64, WorkloadProfile>>>,
    journal: Option<Mutex<RunJournal>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    journal_hits: AtomicU64,
    computed: AtomicU64,
    disk_errors: AtomicU64,
    corrupt_quarantined: AtomicU64,
    tmp_reclaimed: AtomicU64,
    invalidated: AtomicU64,
    replicas_admitted: AtomicU64,
}

impl Engine {
    /// Builds an engine from `config`. The cache directory is created
    /// eagerly; if creation fails the disk cache is disabled (profiling
    /// still works, nothing persists). Likewise, if the worker pool
    /// cannot be built the engine degrades to serial execution rather
    /// than panicking — output is identical either way.
    pub fn new(config: EngineConfig) -> Self {
        let dispatch = match config.threads {
            None => Dispatch::Ambient,
            Some(1) => Dispatch::Serial,
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_or(Dispatch::Serial, Dispatch::Pool),
        };
        let store: Arc<dyn CacheStore> = config.store.unwrap_or_else(|| Arc::new(RealFs));
        let cache_dir = config
            .cache_dir
            .filter(|dir| store.create_dir_all(dir).is_ok());
        let tmp_reclaimed = cache_dir
            .as_ref()
            .map_or(0, |dir| reclaim_stale_tmp(store.as_ref(), dir));
        let mut disk_errors = 0u64;
        let journal = config.journal_path.map(|path| {
            let (journal, stats) =
                RunJournal::open(store.clone(), path, &config.journal_context, config.resume);
            disk_errors += stats.io_errors;
            Mutex::new(journal)
        });
        Engine {
            dispatch,
            store,
            cache_dir,
            cache_max_bytes: config.cache_max_bytes,
            point_threads: config.point_threads,
            streams: StreamArena::new(),
            // bdb-lint: allow(determinism): keyed-lookup-only memo.
            memory: (!config.no_memory_cache).then(|| Mutex::new(HashMap::new())),
            journal,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            journal_hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            disk_errors: AtomicU64::new(disk_errors),
            corrupt_quarantined: AtomicU64::new(0),
            tmp_reclaimed: AtomicU64::new(tmp_reclaimed),
            invalidated: AtomicU64::new(0),
            replicas_admitted: AtomicU64::new(0),
        }
    }

    /// Completed work currently known to this engine's journal as
    /// `(tasks, sweeps)`, or `None` when journaling is disabled. Right
    /// after construction this is what a resume preloaded.
    pub fn journal_preloaded(&self) -> Option<(usize, usize)> {
        let journal = self.journal.as_ref()?;
        let guard = lock_journal(journal);
        Some((guard.task_count(), guard.sweep_count()))
    }

    /// Parallel engine with the in-memory memo only (no disk cache).
    pub fn in_memory() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Single-threaded engine with all caching disabled — the baseline
    /// the parallel path must match bit for bit.
    pub fn serial() -> Self {
        Engine::new(EngineConfig::default().threads(1).without_memory_cache())
    }

    /// Worker threads `profile_all` / `sweep` fan out to.
    pub fn worker_threads(&self) -> usize {
        match &self.dispatch {
            Dispatch::Pool(pool) => pool.current_num_threads(),
            Dispatch::Ambient => rayon::current_num_threads(),
            Dispatch::Serial => 1,
        }
    }

    /// Threads one sweep fans its capacity points across when the work
    /// clears the [`POINT_PARALLEL_MIN_WORK`] threshold: the configured
    /// `BDB_POINT_THREADS` width, or the worker-pool width when unset.
    pub fn point_threads(&self) -> usize {
        self.point_threads.unwrap_or_else(|| self.worker_threads())
    }

    /// Width one sweep's capacity-point replay actually fans out to, for
    /// a sweep of `events` trace events replayed at `points` capacities.
    ///
    /// Below [`POINT_PARALLEL_MIN_WORK`] (events × points) the auto
    /// width demotes to serial: forking a pool costs more than replaying
    /// a small trace, which is how 1 thread used to beat 4 at tiny
    /// scale. An explicit `BDB_POINT_THREADS` is an instruction, not a
    /// hint, and skips the threshold.
    pub fn point_fanout(&self, events: u64, points: usize) -> usize {
        let width = self.point_threads();
        if width <= 1 {
            return 1;
        }
        if self.point_threads.is_none()
            && events.saturating_mul(points as u64) < POINT_PARALLEL_MIN_WORK
        {
            return 1;
        }
        width
    }

    /// Cache-traffic counters so far.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            journal_hits: self.journal_hits.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::Relaxed),
            tmp_reclaimed: self.tmp_reclaimed.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            replicas_admitted: self.replicas_admitted.load(Ordering::Relaxed),
        }
    }

    /// Admits a profile computed *elsewhere* (a replica pushed by the
    /// cluster coordinator) into this engine's caches: persisted exactly
    /// like a locally computed entry — same CRC-64 envelope, same
    /// tmp+rename write, same LRU cap — and memoized. Read-side
    /// verification is unchanged, so a replica that corrupts on disk
    /// quarantines independently of every other copy.
    pub fn admit(&self, workload_id: &str, fingerprint: u64, profile: &WorkloadProfile) {
        self.write_cache_file(workload_id, fingerprint, profile);
        self.remember(fingerprint, profile);
        self.replicas_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// The content fingerprints of every entry in the disk cache, sorted
    /// and deduplicated — what a cluster worker advertises in `Hello` so
    /// the coordinator can route matching tasks to warm machines. Keys
    /// are parsed from file names only; no entry bytes are read or
    /// verified here (a corrupt entry is still quarantined at read time,
    /// and the task then recomputes).
    pub fn cached_fingerprints(&self) -> Vec<u64> {
        let Some(dir) = &self.cache_dir else {
            return Vec::new();
        };
        let Ok(files) = self.store.list(dir) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = files
            .iter()
            .filter_map(|meta| {
                let name = meta.path.file_name()?.to_str()?;
                let stem = name.strip_suffix(".json")?;
                let (_, hex) = stem.rsplit_once('-')?;
                if hex.len() != 16 {
                    return None;
                }
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Drops one memoized profile by fingerprint, returning whether an
    /// entry was present. This is the invalidation hook incremental
    /// consumers (`bdb-serve`) use when a spec or knob change supersedes
    /// an entry: the stale profile stops occupying memo space, and a
    /// later request for the *same* fingerprint recomputes (or re-reads
    /// disk) instead of trusting a value the caller declared stale. The
    /// disk cache is content-keyed by the same fingerprint, so entries
    /// there stay valid by construction and are left in place.
    pub fn invalidate(&self, fingerprint: u64) -> bool {
        let Some(memory) = &self.memory else {
            return false;
        };
        let dropped = lock(memory).remove(&fingerprint).is_some();
        if dropped {
            self.invalidated.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// [`Engine::invalidate`] for a [`Task`]: drops the memo entry the
    /// task's fingerprint keys.
    pub fn invalidate_task(&self, task: &Task) -> bool {
        self.invalidate(task.fingerprint())
    }

    /// The cache file a profile persists to, if a disk cache is
    /// configured.
    pub fn cache_file(
        &self,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> Option<PathBuf> {
        let key = profile_fingerprint(&workload.spec.id, scale, machine, node);
        self.cache_dir
            .as_ref()
            .map(|dir| dir.join(cache_file_name(&workload.spec.id, key)))
    }

    /// Profiles one workload, consulting the caches first.
    pub fn profile(
        &self,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> WorkloadProfile {
        let key = profile_fingerprint(&workload.spec.id, scale, machine, node);
        if let Some(memory) = &self.memory {
            if let Some(hit) = lock(memory).get(&key) {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return hit.clone();
            }
        }
        if let Some(journal) = &self.journal {
            let hit = lock_journal(journal).completed_task(key).cloned();
            if let Some(profile) = hit {
                self.journal_hits.fetch_add(1, Ordering::Relaxed);
                self.remember(key, &profile);
                return profile;
            }
        }
        if let Some(profile) = self.read_cache_file(&workload.spec.id, key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.remember(key, &profile);
            return profile;
        }
        let profile = profile_workload(workload, scale, machine.clone(), *node);
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.write_cache_file(&workload.spec.id, key, &profile);
        self.journal_task(key, &profile);
        self.remember(key, &profile);
        profile
    }

    /// Profiles every workload, fanning the independent simulations out
    /// across the worker pool. The result vector is in `workloads` order
    /// and bit-identical to calling [`Engine::profile`] in a serial loop.
    pub fn profile_all(
        &self,
        workloads: &[WorkloadDef],
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> Vec<WorkloadProfile> {
        if matches!(self.dispatch, Dispatch::Serial) {
            return workloads
                .iter()
                .map(|w| self.profile(w, scale, machine, node))
                .collect();
        }
        self.install(|| {
            workloads
                .par_iter()
                .map(|w| self.profile(w, scale, machine, node))
                .collect()
        })
    }

    /// Runs a capacity sweep (paper §5.4), fanning the independent
    /// capacity points across [`Engine::point_fanout`] threads when the
    /// sweep is big enough to pay for them (serial below
    /// [`POINT_PARALLEL_MIN_WORK`]; `BDB_POINT_THREADS` overrides).
    /// Equivalent to [`bdb_sim::sweep`]; the curves are assembled in
    /// `capacities_kib` order, so output is identical at any thread
    /// count.
    ///
    /// The workload generator runs exactly **once**: its events stream
    /// straight into the extracted L1 event streams
    /// ([`bdb_sim::SweepStreams::record`] — no trace is materialized)
    /// and each capacity point replays those streams
    /// ([`bdb_sim::fused_point`]). The result is byte-identical to the
    /// reference semantics of one whole machine per point
    /// ([`bdb_sim::sweep_point_replay`]), which the tests check.
    ///
    /// # Panics
    ///
    /// Panics if `capacities_kib` is empty.
    pub fn sweep<F>(&self, label: &str, capacities_kib: &[u64], workload: F) -> SweepResult
    where
        F: Fn(&mut dyn TraceSink) + Sync,
    {
        self.sweep_with_fanout(label, capacities_kib, &workload, None)
    }

    /// Runs every labelled sweep job at the same capacities, fanning
    /// *workloads* across the worker pool and splitting the leftover
    /// width across each sweep's capacity points. With `J` jobs on a
    /// `W`-wide pool each sweep replays its points `max(W / J, 1)` wide,
    /// so workloads × points fill the pool without oversubscribing it —
    /// the shape that scales past the per-workload Amdahl ceiling (one
    /// sweep's serial trace extraction bounds its own speedup, but not
    /// the batch's). Results are in `jobs` order and byte-identical to
    /// calling [`Engine::sweep`] in a serial loop.
    pub fn sweep_all<F>(&self, jobs: &[(String, F)], capacities_kib: &[u64]) -> Vec<SweepResult>
    where
        F: Fn(&mut dyn TraceSink) + Sync,
    {
        let width = self.worker_threads();
        if matches!(self.dispatch, Dispatch::Serial) || jobs.len() <= 1 || width <= 1 {
            return jobs
                .iter()
                .map(|(label, workload)| {
                    self.sweep_with_fanout(label, capacities_kib, workload, None)
                })
                .collect();
        }
        // Explicit inner width: the shim's pool-local width is not
        // inherited by its workers, so each sweep must be told its
        // share of the pool rather than asking the ambient context.
        let inner = (width / jobs.len().min(width)).max(1);
        self.install(|| {
            jobs.par_iter()
                .map(|(label, workload)| {
                    self.sweep_with_fanout(label, capacities_kib, workload, Some(inner))
                })
                .collect()
        })
    }

    /// [`Engine::sweep`] with an optional cap on the capacity-point
    /// fan-out width — [`Engine::sweep_all`] passes each job its share
    /// of the pool so nested parallelism cannot oversubscribe.
    fn sweep_with_fanout<F>(
        &self,
        label: &str,
        capacities_kib: &[u64],
        workload: &F,
        fanout_cap: Option<usize>,
    ) -> SweepResult
    where
        F: Fn(&mut dyn TraceSink) + Sync,
    {
        assert!(
            !capacities_kib.is_empty(),
            "sweep needs at least one capacity"
        );
        // Sweeps are driven by arbitrary closures whose content cannot
        // be fingerprinted, so journaled sweeps are keyed by (label,
        // capacities) and gated by the journal's context string: only
        // the byte-identical command line replays them.
        let key = journal::sweep_key(label, capacities_kib);
        if let Some(journal) = &self.journal {
            let hit = lock_journal(journal).completed_sweep(key).cloned();
            if let Some(result) = hit {
                self.journal_hits.fetch_add(1, Ordering::Relaxed);
                return result;
            }
        }
        let mut streams = self.streams.checkout();
        streams.record_into(|sink| workload(sink));
        let fanout = self.point_fanout(streams.event_count(), capacities_kib.len());
        let fanout = fanout_cap.map_or(fanout, |cap| fanout.min(cap.max(1)));
        let points = fused_points_parallel(&SweepFamily::atom(), capacities_kib, &streams, fanout);
        self.streams.checkin(streams);
        let result = assemble_sweep(label, capacities_kib, points);
        if let Some(journal) = &self.journal {
            if lock_journal(journal).record_sweep(key, &result).is_err() {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.dispatch {
            Dispatch::Pool(pool) => pool.install(f),
            Dispatch::Ambient | Dispatch::Serial => f(),
        }
    }

    fn remember(&self, key: u64, profile: &WorkloadProfile) {
        if let Some(memory) = &self.memory {
            lock(memory).insert(key, profile.clone());
        }
    }

    fn read_cache_file(&self, id: &str, key: u64) -> Option<WorkloadProfile> {
        let dir = self.cache_dir.as_ref()?;
        let path = dir.join(cache_file_name(id, key));
        let bytes = match self.store.read(&path) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return None,
            Err(_) => {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match verify_cache_entry(&bytes, key) {
            Ok(profile) => {
                // A hit refreshes the entry's recency so LRU eviction
                // spares hot entries. Best-effort: a failed touch only
                // skews eviction order.
                if self.cache_max_bytes.is_some() {
                    let _ = self.store.touch(&path);
                }
                Some(profile)
            }
            Err(_) => {
                self.quarantine(dir, &path);
                None
            }
        }
    }

    /// Moves an entry that failed verification into [`QUARANTINE_DIR`]:
    /// the damaged bytes are preserved for forensics and the slot is
    /// freed for a fresh entry — never silently reused, never
    /// recomputed-over in place. If even the move fails, the entry is
    /// removed so the live cache cannot keep serving it.
    fn quarantine(&self, dir: &Path, path: &Path) {
        self.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
        let moved = path.file_name().is_some_and(|name| {
            let quarantine_dir = dir.join(QUARANTINE_DIR);
            if self.store.create_dir_all(&quarantine_dir).is_err() {
                return false;
            }
            match self.store.rename(path, &quarantine_dir.join(name)) {
                Ok(()) => true,
                Err(_) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
        if !moved {
            let _ = self.store.remove(path);
        }
    }

    fn write_cache_file(&self, id: &str, key: u64, profile: &WorkloadProfile) {
        let Some(dir) = &self.cache_dir else {
            return;
        };
        let name = cache_file_name(id, key);
        let path = dir.join(&name);
        let bytes = encode_cache_entry(key, profile);
        // Write-to-temp + rename so concurrent engines never observe a
        // half-written entry; all writers produce identical bytes, so the
        // last rename winning is harmless. Both failure arms remove the
        // temp file — a failed write used to leak its partial `.tmp`.
        let tmp = dir.join(format!(".{name}.tmp{}", std::process::id()));
        match self.store.write(&tmp, &bytes) {
            Ok(()) => {
                if self.store.rename(&tmp, &path).is_err() {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = self.store.remove(&tmp);
                }
            }
            Err(_) => {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
                let _ = self.store.remove(&tmp);
            }
        }
        if let Some(cap) = self.cache_max_bytes {
            enforce_cache_cap(self.store.as_ref(), dir, cap);
        }
    }

    fn journal_task(&self, key: u64, profile: &WorkloadProfile) {
        if let Some(journal) = &self.journal {
            if lock_journal(journal).record_task(key, profile).is_err() {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Removes stale temp files left by crashed writers. They are invisible
/// to [`enforce_cache_cap`] (which only counts `.json` entries), so
/// without this startup sweep they would accumulate forever.
fn reclaim_stale_tmp(store: &dyn CacheStore, dir: &Path) -> u64 {
    let Ok(files) = store.list(dir) else {
        return 0;
    };
    let mut reclaimed = 0;
    for meta in files {
        let name = meta
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with('.') && name.contains(".tmp") && store.remove(&meta.path).is_ok() {
            reclaimed += 1;
        }
    }
    reclaimed
}

/// Evicts least-recently-used cache entries until the directory's
/// `.json` entries total at most `max_bytes`. Recency is file
/// mtime (refreshed on hits); ties break on file name so eviction order
/// is deterministic.
/// Eviction removes whole files only — surviving entries are never
/// rewritten, so a cap can shrink the cache but never corrupt it.
/// Quarantined entries live in a subdirectory, which [`CacheStore::list`]
/// does not descend into, so they never count against the cap.
fn enforce_cache_cap(store: &dyn CacheStore, dir: &Path, max_bytes: u64) {
    let Ok(listed) = store.list(dir) else {
        return;
    };
    let mut files: Vec<FileMeta> = listed
        .into_iter()
        .filter(|meta| meta.path.extension().is_some_and(|e| e == "json"))
        .collect();
    let mut total: u64 = files.iter().map(|meta| meta.len).sum();
    if total <= max_bytes {
        return;
    }
    files.sort_by(|a, b| (a.modified, &a.path).cmp(&(b.modified, &b.path)));
    for meta in files {
        if total <= max_bytes {
            break;
        }
        if store.remove(&meta.path).is_ok() {
            total = total.saturating_sub(meta.len);
        }
    }
}

/// Locks the memo with poison recovery: a panic in another profiling
/// thread must not cascade into every later cache lookup. The map holds
/// only fully-computed profiles (inserted after simulation completes),
/// so a poisoned guard still sees consistent data.
fn lock<'a>(
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
    memory: &'a Mutex<HashMap<u64, WorkloadProfile>>,
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
) -> std::sync::MutexGuard<'a, HashMap<u64, WorkloadProfile>> {
    memory
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Locks the journal with the same poison-recovery rationale as [`lock`]:
/// the journal only ever holds fully-appended records.
fn lock_journal(journal: &Mutex<RunJournal>) -> std::sync::MutexGuard<'_, RunJournal> {
    journal
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Content fingerprint of one measurement: FNV-1a over the cache format
/// version, the workload id, the exact scale factor bits, and the full
/// `Debug` renderings of both hardware configs. Any change to either
/// config type therefore changes every key, which is exactly right — the
/// measurement inputs changed.
pub fn profile_fingerprint(
    workload_id: &str,
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(CACHE_FORMAT_VERSION);
    h.write(workload_id.as_bytes());
    h.write_u64(scale.factor().to_bits());
    h.write(format!("{machine:?}").as_bytes());
    h.write(format!("{node:?}").as_bytes());
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        // Length terminator so concatenated fields cannot alias.
        self.write_u64(bytes.len() as u64);
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn cache_file_name(id: &str, key: u64) -> String {
    let safe: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{key:016x}.json")
}

/// Encodes one cache entry: a single-line canonical-JSON envelope of
/// the format version, the CRC-64 of the profile body's canonical
/// bytes, the fingerprint it is keyed under, and the profile itself.
/// [`verify_cache_entry`] is its inverse; `contracts/fixtures/` pins
/// its bytes.
pub fn encode_cache_entry(key: u64, profile: &WorkloadProfile) -> Vec<u8> {
    let body = codec::profile_to_value(profile);
    let crc = crc64(body.encode().as_bytes());
    let mut text = json::Value::object(vec![
        ("format", json::Value::UInt(CACHE_FORMAT_VERSION)),
        ("crc64", json::Value::Str(format!("{crc:016x}"))),
        ("fingerprint", json::Value::Str(format!("{key:016x}"))),
        ("profile", body),
    ])
    .encode();
    text.push('\n');
    text.into_bytes()
}

/// Verifies and decodes one cache entry against the key it was looked up
/// under. This is the single decode path for every reader (the engine's
/// own cache reads and [`read_cache_dir`]), so no two readers can
/// disagree on what counts as a valid entry. Any failure — bad UTF-8,
/// bad JSON, non-canonical bytes, wrong format version, checksum or
/// fingerprint mismatch, undecodable profile — is grounds for
/// quarantine: entries are written canonically, so a valid entry can
/// only fail here if its bytes changed underneath us.
pub fn verify_cache_entry(bytes: &[u8], expected_key: u64) -> Result<WorkloadProfile, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_owned())?;
    let body = text.trim_end();
    let value = json::parse(body).map_err(|_| "entry is not valid JSON".to_owned())?;
    // Canonical-byte stability first: stored entries are canonical, so
    // even damage that still parses to an equal JSON value (e.g. a case
    // flip inside a float exponent) re-encodes differently and is
    // caught before the checksum is even consulted.
    if value.encode() != body {
        return Err("entry bytes are not canonical".to_owned());
    }
    if value.get("format").and_then(|v| v.as_u64()) != Some(CACHE_FORMAT_VERSION) {
        return Err(format!(
            "unsupported cache format (want {CACHE_FORMAT_VERSION})"
        ));
    }
    let stored_crc = value
        .get("crc64")
        .and_then(|v| v.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "missing or malformed crc64".to_owned())?;
    let profile_value = value
        .get("profile")
        .ok_or_else(|| "missing profile".to_owned())?;
    let actual_crc = crc64(profile_value.encode().as_bytes());
    if stored_crc != actual_crc {
        return Err(format!(
            "checksum mismatch: stored {stored_crc:016x}, computed {actual_crc:016x}"
        ));
    }
    let expected = format!("{expected_key:016x}");
    if value.get("fingerprint").and_then(|v| v.as_str()) != Some(expected.as_str()) {
        return Err(format!("fingerprint mismatch (want {expected})"));
    }
    codec::profile_from_value(profile_value).map_err(|e| e.to_string())
}

/// Loads every valid cache entry under `dir` (diagnostics / inspection).
/// Each entry is verified by [`verify_cache_entry`] against the
/// fingerprint in its own file name — the same decode-and-verify path
/// the engine's cache reads use. Read-only: entries that fail
/// verification are skipped here, not quarantined.
pub fn read_cache_dir(dir: &Path) -> Vec<WorkloadProfile> {
    let Ok(files) = RealFs.list(dir) else {
        return Vec::new();
    };
    let mut profiles: Vec<(PathBuf, WorkloadProfile)> = files
        .into_iter()
        .filter_map(|meta| {
            let path = meta.path;
            if path.extension()? != "json" {
                return None;
            }
            // `cache_file_name` ends the stem with `-{key:016x}`.
            let (_, hex) = path.file_stem()?.to_str()?.rsplit_once('-')?;
            let key = u64::from_str_radix(hex, 16).ok()?;
            let bytes = RealFs.read(&path).ok()??;
            let profile = verify_cache_entry(&bytes, key).ok()?;
            Some((path, profile))
        })
        .collect();
    profiles.sort_by(|(a, _), (b, _)| a.cmp(b));
    profiles.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::catalog;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bdb-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reps(n: usize) -> Vec<WorkloadDef> {
        catalog::representatives().into_iter().take(n).collect()
    }

    fn profile_bits(p: &WorkloadProfile) -> (u64, u64, Vec<u64>) {
        (
            p.report.instructions,
            p.report.cycles.to_bits(),
            p.metrics.values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let workloads = reps(4);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let parallel = Engine::new(EngineConfig::default().threads(4)).profile_all(
            &workloads,
            Scale::tiny(),
            &machine,
            &node,
        );
        let serial = Engine::serial().profile_all(&workloads, Scale::tiny(), &machine, &node);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.spec.id, s.spec.id, "order must be catalog order");
            assert_eq!(profile_bits(p), profile_bits(s), "{}", p.spec.id);
        }
    }

    #[test]
    fn invalidate_drops_the_memo_entry_and_counts() {
        let workloads = reps(1);
        let engine = Engine::in_memory();
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let w = &workloads[0];
        let key = profile_fingerprint(&w.spec.id, Scale::tiny(), &machine, &node);
        engine.profile(w, Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 1);
        assert!(engine.invalidate(key), "entry was memoized");
        assert!(!engine.invalidate(key), "second drop is a no-op");
        assert_eq!(engine.counters().invalidated, 1);
        // The next request recomputes instead of hitting the memo.
        engine.profile(w, Scale::tiny(), &machine, &node);
        let counters = engine.counters();
        assert_eq!(counters.computed, 2);
        assert_eq!(counters.memory_hits, 0);
    }

    #[test]
    fn memory_cache_serves_repeat_lookups() {
        let workloads = reps(2);
        let engine = Engine::in_memory();
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let first = engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
        let again = engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
        let counters = engine.counters();
        assert_eq!(counters.computed, 2);
        assert_eq!(counters.memory_hits, 2);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(profile_bits(a), profile_bits(b));
        }
    }

    #[test]
    fn disk_cache_round_trips_identical_bytes() {
        let dir = scratch_dir("disk");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();

        let cold_engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let cold = cold_engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path = cold_engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        let cold_bytes = std::fs::read_to_string(&path).expect("cache file written");

        // A fresh engine over the same directory must hit, not recompute,
        // and leave the exact bytes in place.
        let warm_engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let warm = warm_engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(warm_engine.counters().disk_hits, 1);
        assert_eq!(warm_engine.counters().computed, 0);
        assert_eq!(profile_bits(&cold), profile_bits(&warm));
        let warm_bytes = std::fs::read_to_string(&path).unwrap();
        assert_eq!(warm_bytes, cold_bytes, "warm read must return cold bytes");

        // The diagnostics loader sees the entry too.
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_bin_entry_is_ignored_and_recomputed() {
        // Older builds could write BDBC `.bin` entries. They are neither
        // read, quarantined nor counted: the JSON entry is computed and
        // written beside them.
        let dir = scratch_dir("legacybin");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let path = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        let legacy = path.with_extension("bin");
        std::fs::write(&legacy, b"BDBC\x01\x00\x02\x00legacy").unwrap();
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let counters = engine.counters();
        assert_eq!((counters.computed, counters.disk_hits), (1, 0));
        assert_eq!(counters.corrupt_quarantined, 0);
        assert!(path.exists(), "the JSON entry is written");
        assert!(legacy.exists(), "the legacy file is left alone");
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_recomputed() {
        let dir = scratch_dir("corrupt");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let p = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let q = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 2, "corrupt entry must miss");
        assert_eq!(engine.counters().corrupt_quarantined, 1);
        assert_eq!(profile_bits(&p), profile_bits(&q));
        // The damaged bytes moved to quarantine/ — preserved, not
        // recomputed-over in place.
        let quarantined = dir.join(QUARANTINE_DIR).join(path.file_name().unwrap());
        assert_eq!(std::fs::read_to_string(&quarantined).unwrap(), "{not json");
        // The miss rewrote a fresh valid entry in the live slot.
        let key = profile_fingerprint(&workloads[0].spec.id, Scale::tiny(), &machine, &node);
        assert!(verify_cache_entry(&std::fs::read(&path).unwrap(), key).is_ok());
        // The quarantine subdirectory is invisible to the diagnostics
        // loader (and to cap enforcement, which shares `list`).
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_fingerprint_entry_is_quarantined_not_served() {
        let dir = scratch_dir("wrongkey");
        let workloads = reps(2);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path_a = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        let path_b = engine
            .cache_file(&workloads[1], Scale::tiny(), &machine, &node)
            .unwrap();
        // A valid entry parked under the wrong key must not be served.
        std::fs::copy(&path_a, &path_b).unwrap();
        engine.profile(&workloads[1], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 2, "foreign entry must miss");
        assert_eq!(engine.counters().corrupt_quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_reclaimed_at_startup() {
        let dir = scratch_dir("tmpsweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".H-Grep-00ff.json.tmp4242"), "partial").unwrap();
        std::fs::write(dir.join(".other.json.tmp7"), "partial").unwrap();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        assert_eq!(engine.counters().tmp_reclaimed, 2);
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "stale tmp files must be gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cache_write_counts_and_leaves_no_tmp() {
        let dir = scratch_dir("wfail");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let chaos = Arc::new(ChaosFs::new(ChaosPlan {
            write_error_period: Some(1), // every write fails
            ..ChaosPlan::clean(9)
        }));
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .store(chaos),
        );
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().disk_errors, 1, "failed write counted");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "failed write must not leak a tmp file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_cap_evicts_without_corrupting_survivors() {
        let dir = scratch_dir("evict");
        let workloads = reps(4);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();

        // Measure one entry to size the cap at roughly two entries.
        let probe = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        probe.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let entry_bytes = std::fs::metadata(
            probe
                .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
                .unwrap(),
        )
        .unwrap()
        .len();
        let _ = std::fs::remove_dir_all(&dir);

        let cap = entry_bytes * 2 + entry_bytes / 2;
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(cap),
        );
        for w in &workloads {
            engine.profile(w, Scale::tiny(), &machine, &node);
        }

        // The cap held: at most two entries survive and the total fits.
        let survivors = read_cache_dir(&dir);
        assert!(
            (1..=2).contains(&survivors.len()),
            "expected 1-2 survivors under the cap, got {}",
            survivors.len()
        );
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= cap, "cache dir {total} B exceeds cap {cap} B");

        // Surviving entries are intact: each decodes and is served as a
        // disk hit with bytes identical to a fresh recompute.
        for p in &survivors {
            let w = workloads
                .iter()
                .find(|w| w.spec.id == p.spec.id)
                .expect("survivor is one of the profiled workloads");
            let warm = Engine::new(
                EngineConfig::default()
                    .threads(1)
                    .cache_dir(&dir)
                    .without_memory_cache(),
            );
            let served = warm.profile(w, Scale::tiny(), &machine, &node);
            assert_eq!(warm.counters().disk_hits, 1, "{} must hit", w.spec.id);
            let fresh = Engine::serial().profile(w, Scale::tiny(), &machine, &node);
            assert_eq!(profile_bits(&served), profile_bits(&fresh), "{}", w.spec.id);
        }

        // Evicted entries are recomputed transparently.
        let recount = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(cap),
        );
        for w in &workloads {
            recount.profile(w, Scale::tiny(), &machine, &node);
        }
        assert_eq!(
            recount.counters().computed + recount.counters().disk_hits,
            workloads.len() as u64
        );
        assert!(
            recount.counters().computed >= 2,
            "evicted entries recompute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_hits_refresh_recency_for_eviction() {
        let dir = scratch_dir("lru");
        let workloads = reps(3);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let entry_bytes = {
            let probe = Engine::new(
                EngineConfig::default()
                    .threads(1)
                    .cache_dir(&dir)
                    .without_memory_cache(),
            );
            probe.profile(&workloads[0], Scale::tiny(), &machine, &node);
            let len = std::fs::metadata(
                probe
                    .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
                    .unwrap(),
            )
            .unwrap()
            .len();
            let _ = std::fs::remove_dir_all(&dir);
            len
        };

        // Cap fits two entries. Write A then B, re-read A (refreshing its
        // recency), then write C: B, not A, must be the eviction victim.
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(entry_bytes * 2 + entry_bytes / 2),
        );
        let mtime = |w: &WorkloadDef| {
            std::fs::metadata(
                engine
                    .cache_file(w, Scale::tiny(), &machine, &node)
                    .unwrap(),
            )
            .and_then(|m| m.modified())
            .ok()
        };
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        engine.profile(&workloads[1], Scale::tiny(), &machine, &node);
        let before = mtime(&workloads[0]).expect("entry A exists");
        // File mtimes can be coarse; wait until the touch is observable.
        for _ in 0..50 {
            engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
            if mtime(&workloads[0]).is_some_and(|t| t > before) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(engine.counters().computed, 2);
        engine.profile(&workloads[2], Scale::tiny(), &machine, &node);

        let check = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        check.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(
            check.counters().disk_hits,
            1,
            "recently-read entry A must survive eviction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let machine = MachineConfig::xeon_e5645();
        let atom = MachineConfig::atom_sweep(64);
        let node = NodeConfig::default();
        let base = profile_fingerprint("H-WordCount", Scale::tiny(), &machine, &node);
        assert_ne!(
            base,
            profile_fingerprint("H-Grep", Scale::tiny(), &machine, &node)
        );
        assert_ne!(
            base,
            profile_fingerprint("H-WordCount", Scale::small(), &machine, &node)
        );
        assert_ne!(
            base,
            profile_fingerprint("H-WordCount", Scale::tiny(), &atom, &node)
        );
        assert_eq!(
            base,
            profile_fingerprint("H-WordCount", Scale::tiny(), &machine, &node)
        );
    }

    fn sweep_probe_workload(sink: &mut dyn TraceSink) {
        let mut layout = bdb_trace::CodeLayout::new();
        let region = layout.region("kernel", 16 * 1024);
        let mut ctx = bdb_trace::ExecCtx::new(&layout, sink);
        let data = ctx.heap_alloc(64 * 1024, 64);
        ctx.frame(region, |ctx| {
            for i in 0..20_000u64 {
                ctx.read(data.addr(i * 64 % data.len()), 8);
                ctx.int_other(1);
            }
        });
    }

    #[test]
    fn engine_sweep_matches_serial_sweep() {
        let serial = bdb_sim::sweep("probe", &[16, 64, 256], sweep_probe_workload);
        let engine = Engine::new(EngineConfig::default().threads(3));
        let parallel = engine.sweep("probe", &[16, 64, 256], sweep_probe_workload);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sweep_matches_per_point_reference_at_any_thread_count() {
        let caps = [16u64, 64, 256];
        let reference =
            bdb_sim::sweep_per_point(&SweepFamily::atom(), "probe", &caps, sweep_probe_workload);
        for threads in [1, 3] {
            let engine = Engine::new(EngineConfig::default().threads(threads));
            let result = engine.sweep("probe", &caps, sweep_probe_workload);
            assert_eq!(result, reference, "{threads} threads");
        }
    }

    #[test]
    fn point_fanout_demotes_small_sweeps_to_serial() {
        // Auto width: big sweeps fan out, small ones stay serial — the
        // fix for the tiny-scale "1 thread beats 4" inversion.
        let engine = Engine::new(EngineConfig::default().threads(4));
        assert_eq!(engine.point_threads(), 4);
        let points = 10usize;
        let below = POINT_PARALLEL_MIN_WORK / points as u64 - 1;
        let above = POINT_PARALLEL_MIN_WORK / points as u64 + 1;
        assert_eq!(engine.point_fanout(below, points), 1, "below threshold");
        assert_eq!(engine.point_fanout(above, points), 4, "above threshold");
        // An explicit width is an instruction: no threshold, any size.
        let pinned = Engine::new(EngineConfig::default().threads(4).point_threads(2));
        assert_eq!(pinned.point_threads(), 2);
        assert_eq!(pinned.point_fanout(1, 1), 2);
        // Width 1 (explicit or serial dispatch) never fans out.
        let serial = Engine::serial();
        assert_eq!(serial.point_fanout(u64::MAX, points), 1);
    }

    #[test]
    fn point_parallel_sweep_is_byte_identical_on_both_threshold_sides() {
        let caps = [16u64, 64, 256];
        let reference = bdb_sim::sweep("probe", &caps, sweep_probe_workload);
        // The tiny probe sits below the work threshold (auto → serial);
        // explicit point widths force the parallel replay on the same
        // trace, covering both sides of the threshold.
        for point_threads in [1usize, 2, 4] {
            let engine = Engine::new(
                EngineConfig::default()
                    .threads(2)
                    .point_threads(point_threads),
            );
            let result = engine.sweep("probe", &caps, sweep_probe_workload);
            assert_eq!(result, reference, "{point_threads} point threads");
            let auto = Engine::new(EngineConfig::default().threads(point_threads));
            assert_eq!(auto.sweep("probe", &caps, sweep_probe_workload), reference);
        }
    }

    #[test]
    fn sweep_all_matches_serial_sweep_loop() {
        let caps = [16u64, 64, 256];
        type Job = fn(&mut dyn TraceSink);
        let jobs: Vec<(String, Job)> = vec![
            ("alpha".to_owned(), sweep_probe_workload),
            ("beta".to_owned(), sweep_probe_workload),
            ("gamma".to_owned(), sweep_probe_workload),
        ];
        let serial: Vec<SweepResult> = jobs
            .iter()
            .map(|(label, w)| Engine::serial().sweep(label, &caps, w))
            .collect();
        for threads in [1usize, 4] {
            let engine = Engine::new(EngineConfig::default().threads(threads));
            let batch = engine.sweep_all(&jobs, &caps);
            assert_eq!(batch, serial, "{threads} threads");
        }
    }

    #[test]
    fn repeated_engine_sweeps_reuse_the_stream_arena() {
        // Same engine, back-to-back sweeps: the second record reuses the
        // first sweep's stream buffers (behavioural check: results stay
        // identical; the capacity reuse itself is pinned in bdb-sim).
        let engine = Engine::new(EngineConfig::default().threads(2));
        let caps = [16u64, 64];
        let first = engine.sweep("probe", &caps, sweep_probe_workload);
        let second = engine.sweep("probe", &caps, sweep_probe_workload);
        assert_eq!(first, second);
    }
}
