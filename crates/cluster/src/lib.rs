//! `bdb-cluster` — distributed coordinator/worker execution of the
//! trace → sim → wcrt profiling fleet.
//!
//! The paper's characterization sweep profiles 77 workloads; locally the
//! [`bdb_engine::Engine`] fans that out over threads. This crate shards
//! the same task batch across *processes* (loopback channels in tests,
//! TCP workers in real runs) and merges the results **byte-identically**
//! to a serial engine run — the same canonical JSON, in the same task
//! order, regardless of worker count, stealing, retries, crashes, or
//! duplicated frames.
//!
//! Layers, bottom up:
//!
//! * [`proto`] — the six-message protocol (`Hello`/`Assign`/`Result`/
//!   `Replicate`/`Heartbeat`/`Bye`) encoded as `bdb-engine` canonical
//!   JSON.
//! * [`wire`] — 4-byte length-prefixed framing with a size cap and a
//!   strict truncated-stream error.
//! * [`transport`] — the [`Transport`] trait plus the in-process
//!   loopback implementation; [`tcp`] adds the std-only blocking TCP
//!   implementation (no async runtime).
//! * [`fault`] — [`FaultPlan`] injection (connection drops, delays,
//!   worker crashes, duplicated results) for exercising recovery paths.
//! * [`worker`] — the blocking serve loop around a local cache-aware
//!   engine; advertises its warm cache in `Hello` and admits
//!   `Replicate` pushes into it.
//! * [`fleet`] — the pure membership + scheduling state machine: live
//!   join/leave, admission control (in-flight depth, suspect deferral),
//!   replica affinity, capped-exponential-backoff retry.
//! * [`coordinator`] — the transport glue around [`fleet`]: static
//!   chunking + work stealing, tick-based deadlines and heartbeats,
//!   fingerprint-verified deduplicating merge, elastic membership via
//!   [`Coordinator::run_elastic`], and replica pushes.
//!
//! # Example (three in-process workers)
//!
//! ```
//! use bdb_cluster::{loopback_pair, run_worker, WorkerConfig};
//! use bdb_cluster::{ClusterConfig, Coordinator, Transport};
//! use bdb_engine::{Engine, Task};
//! use bdb_node::NodeConfig;
//! use bdb_sim::MachineConfig;
//! use bdb_workloads::{catalog, Scale};
//! use std::sync::Arc;
//!
//! let mut ends = Vec::new();
//! for i in 0..3 {
//!     let (coord_end, worker_end) = loopback_pair(&format!("w{i}"));
//!     std::thread::spawn(move || {
//!         let engine = Engine::in_memory();
//!         run_worker(&worker_end, &engine, &WorkerConfig::named(&format!("w{i}")))
//!     });
//!     ends.push(Arc::new(coord_end) as Arc<dyn Transport>);
//! }
//! let workloads = catalog::full_catalog();
//! let tasks: Vec<Task> = workloads
//!     .iter()
//!     .take(6)
//!     .map(|w| Task::new(w, Scale::tiny(), &MachineConfig::xeon_e5645(), &NodeConfig::default()))
//!     .collect();
//! let profiles = Coordinator::new(ClusterConfig::default()).run(ends, &tasks).unwrap();
//! assert_eq!(profiles.len(), 6);
//! ```

pub mod coordinator;
pub mod fault;
pub mod fleet;
pub mod help;
pub mod proto;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterError, Coordinator};
pub use fault::{FaultPlan, FaultyTransport};
pub use fleet::{Fleet, FleetError};
pub use help::help_text as daemon_help_text;
pub use help::DAEMON_ENGINE_ENV;
pub use proto::{Message, PROTOCOL_VERSION};
pub use tcp::TcpTransport;
pub use transport::{loopback_pair, FrameTransport, LoopbackTransport, Transport, TransportError};
pub use wire::{WireError, WireFormat, MAX_FRAME_BYTES};
pub use worker::{run_worker, WorkerConfig, WorkerError};

use bdb_engine::Task;
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{Scale, WorkloadDef};
use std::sync::Arc;

/// Builds the task batch for a workload sweep: one [`Task`] per workload,
/// all on the same scale/machine/node — the distributed analogue of
/// [`bdb_engine::Engine::profile_all`].
pub fn fleet_tasks(
    workloads: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Vec<Task> {
    workloads
        .iter()
        .map(|w| Task::new(w, scale, machine, node))
        .collect()
}

/// Profiles `workloads` across `workers` with default cluster tunables,
/// returning profiles in workload order (byte-identical to a local
/// engine run).
pub fn profile_all_distributed(
    workers: Vec<Arc<dyn Transport>>,
    workloads: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Result<Vec<WorkloadProfile>, ClusterError> {
    let tasks = fleet_tasks(workloads, scale, machine, node);
    Coordinator::new(ClusterConfig::default()).run(workers, &tasks)
}
