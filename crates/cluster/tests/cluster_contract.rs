//! The cluster contract: a distributed run merges **byte-identically**
//! to a serial local engine run — across worker counts, work stealing,
//! injected crashes, delayed replies, and duplicated result frames.
//!
//! This is the acceptance test for the subsystem: the full 77-workload
//! catalog sharded over three loopback workers, one of which crashes
//! mid-run, must still converge to exactly the serial profile bytes.

use bdb_cluster::{
    fleet_tasks, loopback_pair, run_worker, ClusterConfig, Coordinator, FaultPlan, FaultyTransport,
    Transport, WorkerConfig,
};
use bdb_engine::codec::profile_to_value;
use bdb_engine::Engine;
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::sync::Arc;
use std::time::Duration;

/// Fast tick so deadline/backoff recovery converges quickly in tests.
fn test_config() -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(5),
        ..ClusterConfig::default()
    }
}

/// Spawns a loopback worker thread with the given fault plan and returns
/// the coordinator-side transport end.
fn spawn_worker(name: &str, faults: FaultPlan) -> Arc<dyn Transport> {
    let (coord_end, worker_end) = loopback_pair(name);
    let config = WorkerConfig {
        name: name.to_owned(),
        faults: faults.clone(),
    };
    std::thread::spawn(move || {
        let engine = Engine::in_memory();
        let transport = FaultyTransport::new(worker_end, config.faults.clone());
        run_worker(&transport, &engine, &config)
    });
    Arc::new(coord_end)
}

fn canonical_bytes(profiles: &[WorkloadProfile]) -> Vec<String> {
    profiles
        .iter()
        .map(|p| profile_to_value(p).encode())
        .collect()
}

fn serial_baseline(workloads: &[WorkloadDef], scale: Scale) -> Vec<String> {
    let profiles = Engine::serial().profile_all(
        workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    canonical_bytes(&profiles)
}

fn run_cluster(
    workloads: &[WorkloadDef],
    scale: Scale,
    workers: Vec<Arc<dyn Transport>>,
) -> Vec<String> {
    let tasks = fleet_tasks(
        workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let profiles = Coordinator::new(test_config())
        .run(workers, &tasks)
        .expect("distributed run must converge");
    canonical_bytes(&profiles)
}

#[test]
fn full_catalog_with_midrun_crash_is_byte_identical_to_serial() {
    let workloads = catalog::full_catalog();
    assert_eq!(workloads.len(), 77, "the paper's full fleet");
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    // Three workers; the middle one crashes while the fleet is mid-run
    // (after accepting 5 of its ~26 planned tasks), orphaning work that
    // must be stolen and retried by the survivors.
    let workers = vec![
        spawn_worker("w0", FaultPlan::default()),
        spawn_worker(
            "w1",
            FaultPlan {
                crash_on_task: Some(5),
                ..FaultPlan::default()
            },
        ),
        spawn_worker("w2", FaultPlan::default()),
    ];
    let distributed = run_cluster(&workloads, scale, workers);
    assert_eq!(
        distributed, serial,
        "merged cluster profiles must be byte-identical to the serial engine"
    );
}

#[test]
fn delays_duplicates_and_drops_do_not_corrupt_the_merge() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(12).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let workers = vec![
        // Slow worker: every reply delayed.
        spawn_worker(
            "slow",
            FaultPlan {
                delay_reply: Some(Duration::from_millis(20)),
                ..FaultPlan::default()
            },
        ),
        // Chatty worker: every Result frame sent twice (dedup path).
        spawn_worker(
            "dup",
            FaultPlan {
                duplicate_results: true,
                ..FaultPlan::default()
            },
        ),
        // Flaky worker: connection drops after a handful of frames.
        spawn_worker(
            "flaky",
            FaultPlan {
                drop_after_frames: Some(6),
                ..FaultPlan::default()
            },
        ),
    ];
    let distributed = run_cluster(&workloads, scale, workers);
    assert_eq!(distributed, serial);
}

#[test]
fn single_worker_cluster_matches_serial() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(5).collect();
    let scale = Scale::tiny();
    assert_eq!(
        run_cluster(
            &workloads,
            scale,
            vec![spawn_worker("only", FaultPlan::default())]
        ),
        serial_baseline(&workloads, scale)
    );
}

#[test]
fn killed_coordinator_resumes_from_journal_without_rerunning_shards() {
    use bdb_engine::{CacheStore, RealFs, RunJournal};
    use std::path::PathBuf;

    // Membership is fixed at startup: the join channel is closed.
    let closed_joins = || std::sync::mpsc::channel::<Arc<dyn Transport>>().1;

    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(8).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(
        &workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let dir = std::env::temp_dir().join(format!("bdb-cluster-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path: PathBuf = dir.join("run.wal");
    let context = "cluster-contract restart";

    // First coordinator: completes only the first five shards before the
    // process "dies" (we simply stop after a partial batch — every
    // verified result is already on disk in the write-ahead journal).
    let completed = 5usize;
    {
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let (mut journal, _) = RunJournal::open(store, path.clone(), context, false);
        let partial = Coordinator::new(test_config())
            .run_elastic(
                vec![spawn_worker("first-life", FaultPlan::default())],
                closed_joins(),
                &tasks[..completed],
                Some(&mut journal),
            )
            .expect("partial journaled run must converge");
        assert_eq!(partial.len(), completed);
    }

    // Second coordinator: resumes from the journal. Its only worker is
    // rigged to crash if it is ever assigned more than the three
    // remaining shards, so any re-dispatch of a finished shard fails the
    // whole run — resumption must come purely from the journal.
    let store: Arc<dyn CacheStore> = Arc::new(RealFs);
    let (mut journal, stats) = RunJournal::open(store, path, context, true);
    assert_eq!(
        stats.loaded_tasks, completed,
        "journal must replay all completed shards"
    );
    let remaining = (tasks.len() - completed) as u64;
    let resumed = Coordinator::new(test_config())
        .run_elastic(
            vec![spawn_worker(
                "second-life",
                FaultPlan {
                    crash_on_task: Some(remaining),
                    ..FaultPlan::default()
                },
            )],
            closed_joins(),
            &tasks,
            Some(&mut journal),
        )
        .expect("resumed run must converge without re-dispatching finished shards");
    assert_eq!(
        canonical_bytes(&resumed),
        serial,
        "resumed merge must be byte-identical to an uninterrupted serial run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_workers_crashing_is_a_clean_error() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(4).collect();
    let tasks = fleet_tasks(
        &workloads,
        Scale::tiny(),
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let workers = vec![
        spawn_worker(
            "dead0",
            FaultPlan {
                crash_on_task: Some(0),
                ..FaultPlan::default()
            },
        ),
        spawn_worker(
            "dead1",
            FaultPlan {
                crash_on_task: Some(0),
                ..FaultPlan::default()
            },
        ),
    ];
    let outcome = Coordinator::new(test_config()).run(workers, &tasks);
    assert!(outcome.is_err(), "no workers left must surface an error");
}
