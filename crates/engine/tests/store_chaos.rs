//! Storage-chaos soak: the crash-safety acceptance test.
//!
//! A seeded [`ChaosFs`] injects ENOSPC-style write failures, torn
//! writes, rename failures, read errors, and read-time bit corruption
//! under a journaled, disk-cached engine, and the run is killed at every
//! task boundary. The contract under test:
//!
//! 1. **Byte identity.** A resumed run's profiles are byte-identical to
//!    an uninterrupted serial run, for every seeded fault schedule and
//!    every kill point.
//! 2. **Exact fault accounting.** Every injected fault is visible in
//!    [`CacheCounters`]: failed store ops land in `disk_errors`,
//!    injected bit corruption lands in `corrupt_quarantined` — nothing
//!    lost, nothing double-counted.
//! 3. **No silent damage.** Entries surviving in the main cache dir all
//!    decode cleanly; damaged ones are in `quarantine/`, not reused.
//!
//! `BDB_CHAOS_SEEDS=<n>` widens the seed sweep (CI's chaos-smoke job
//! sets it); the default keeps local runs quick.

use bdb_engine::{codec, CacheStore, ChaosFs, ChaosPlan, Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CONTEXT: &str = "store-chaos soak";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet() -> Vec<WorkloadDef> {
    catalog::representatives().into_iter().take(4).collect()
}

fn bytes_of(profiles: &[WorkloadProfile]) -> Vec<String> {
    profiles
        .iter()
        .map(|p| codec::profile_to_value(p).encode())
        .collect()
}

fn baseline(workloads: &[WorkloadDef]) -> Vec<String> {
    bytes_of(&Engine::serial().profile_all(
        workloads,
        Scale::tiny(),
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    ))
}

/// A single-threaded journaled engine over `chaos`, so the fault
/// schedule (and therefore the accounting) is deterministic per seed.
fn chaos_engine(chaos: &Arc<ChaosFs>, dir: &Path, resume: bool) -> Engine {
    let store: Arc<dyn CacheStore> = Arc::<ChaosFs>::clone(chaos);
    let mut config = EngineConfig::default()
        .threads(1)
        .store(store)
        .cache_dir(dir.join("cache"))
        .journal(dir.join("run.wal"))
        .journal_context(CONTEXT);
    if resume {
        config = config.resume();
    }
    Engine::new(config)
}

/// Injected faults and engine counters must balance exactly: every
/// failed op is one `disk_errors` tick, every injected corruption is one
/// `corrupt_quarantined` tick.
fn assert_accounted(engine: &Engine, chaos: &ChaosFs, leg: &str) {
    let counters = engine.counters();
    let injected = chaos.counters();
    assert_eq!(
        counters.disk_errors,
        injected.op_errors(),
        "{leg}: disk_errors must equal injected op faults ({injected:?} vs {counters:?})"
    );
    assert_eq!(
        counters.corrupt_quarantined, injected.read_corruptions,
        "{leg}: every injected corruption must be quarantined ({injected:?} vs {counters:?})"
    );
}

/// Entries still in the main cache dir must all decode cleanly — damage
/// either never landed (torn tmp writes are discarded) or was moved to
/// `quarantine/`.
fn assert_no_silent_damage(dir: &Path) {
    let cache = dir.join("cache");
    let entry_files = std::fs::read_dir(&cache)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                .count()
        })
        .unwrap_or(0);
    let decoded = bdb_engine::read_cache_dir(&cache).len();
    assert_eq!(
        decoded, entry_files,
        "every surviving main-dir entry must verify"
    );
}

fn seed_count() -> u64 {
    std::env::var("BDB_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

#[test]
fn resumed_chaos_runs_are_byte_identical_and_fully_accounted() {
    let workloads = fleet();
    let serial = baseline(&workloads);
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();

    for seed in 0..seed_count() {
        for kill_point in 0..=workloads.len() {
            let dir = scratch(&format!("soak-{seed}-{kill_point}"));

            // First life: profile the first `kill_point` workloads under
            // a storm of injected faults, then "die" (drop the engine).
            let chaos1 = Arc::new(ChaosFs::new(ChaosPlan::storm(seed)));
            {
                let engine = chaos_engine(&chaos1, &dir, false);
                for w in &workloads[..kill_point] {
                    let p = engine.profile(w, Scale::tiny(), &machine, &node);
                    assert_eq!(
                        codec::profile_to_value(&p).encode(),
                        serial[workloads
                            .iter()
                            .position(|x| x.spec.id == w.spec.id)
                            .unwrap()],
                        "seed {seed} kill {kill_point}: first-life profile diverged"
                    );
                }
                assert_accounted(&engine, &chaos1, "first life");
            }

            // Second life: resume over the same directory, under a
            // *different* fault schedule, and finish the whole fleet.
            let chaos2 = Arc::new(ChaosFs::new(ChaosPlan::storm(seed.wrapping_add(1000))));
            let engine = chaos_engine(&chaos2, &dir, true);
            let resumed = engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
            assert_eq!(
                bytes_of(&resumed),
                serial,
                "seed {seed} kill {kill_point}: resumed bytes diverged from serial"
            );
            assert_accounted(&engine, &chaos2, "second life");
            assert_no_silent_damage(&dir);

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_replays_journaled_tasks_instead_of_recomputing() {
    let workloads = fleet();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let dir = scratch("resume-honesty");

    // No disk cache: the journal must be the only reuse channel, so the
    // counters prove exactly where each profile came from.
    let journaled = |resume: bool| {
        let mut config = EngineConfig::default()
            .threads(1)
            .journal(dir.join("run.wal"))
            .journal_context(CONTEXT);
        if resume {
            config = config.resume();
        }
        Engine::new(config)
    };

    let first = journaled(false);
    for w in &workloads[..2] {
        first.profile(w, Scale::tiny(), &machine, &node);
    }
    assert_eq!(first.counters().computed, 2);
    drop(first);

    let second = journaled(true);
    assert_eq!(second.journal_preloaded(), Some((2, 0)));
    second.profile_all(&workloads, Scale::tiny(), &machine, &node);
    let counters = second.counters();
    assert_eq!(
        counters.journal_hits, 2,
        "two tasks must come from the journal"
    );
    assert_eq!(counters.computed, 2, "only the unfinished tasks recompute");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sweep_does_not_rerun_the_generator() {
    let def = fleet().remove(0);
    let capacities = [16u64, 64];
    let dir = scratch("sweep-resume");
    let invocations = AtomicU64::new(0);
    let workload = |machine: &mut dyn bdb_trace::TraceSink| {
        invocations.fetch_add(1, Ordering::Relaxed);
        let _ = def.run(machine, Scale::tiny());
    };

    let journaled = |resume: bool| {
        let mut config = EngineConfig::default()
            .threads(1)
            .journal(dir.join("run.wal"))
            .journal_context(CONTEXT);
        if resume {
            config = config.resume();
        }
        Engine::new(config)
    };

    let first = journaled(false);
    let cold = first.sweep("sweep-resume", &capacities, workload);
    let cold_runs = invocations.load(Ordering::Relaxed);
    assert!(cold_runs >= 1, "cold sweep must run the generator");
    drop(first);

    let second = journaled(true);
    assert_eq!(second.journal_preloaded(), Some((0, 1)));
    let warm = second.sweep("sweep-resume", &capacities, workload);
    assert_eq!(
        invocations.load(Ordering::Relaxed),
        cold_runs,
        "resumed sweep must not re-run the workload generator"
    );
    assert_eq!(second.counters().journal_hits, 1);
    assert_eq!(
        codec::sweep_result_to_value(&warm).encode(),
        codec::sweep_result_to_value(&cold).encode(),
        "journal-replayed sweep must be byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
