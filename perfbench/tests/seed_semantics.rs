//! The benchmark's seed reaches only what the benchmark generates: the
//! order batch work is submitted in and, for `serve_mixed`, the query
//! keys and the mutations. Every output and every simulated count must
//! be identical under the default and the held-out seed.

use bdb_engine::json::{parse, Value};
use perfbench::digests::{profile_digest, reduction_digest};
use perfbench::serve::{Mutations, QueryKeys};
use perfbench::{catalog, cluster, sim_counts, sweep, Outcome, RunConfig, Workload};
use perfbench::{DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

const THREADS: usize = 2;

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear test workdir");
    }
    dir
}

fn config(seed: u64, dir: &str) -> RunConfig {
    RunConfig {
        seed,
        seconds: Duration::ZERO,
        trace: false,
        threads: THREADS,
        workdir: workdir(dir),
    }
}

/// Every `sim.*` count and the paper error over a profile set.
fn counts(
    profiles: &[bdb_wcrt::WorkloadProfile],
    reps: &[&bdb_wcrt::WorkloadProfile],
) -> Vec<(String, u64)> {
    let mut out = Outcome::default();
    sim_counts(&mut out, profiles, reps);
    out.metrics
        .iter()
        .map(|(name, m)| ((*name).to_owned(), m.value.to_bits()))
        .collect()
}

#[test]
fn catalog_outputs_and_counts_do_not_depend_on_the_seed() {
    let run = |seed: u64| {
        let cfg = config(seed, &format!("catalog-{seed}"));
        let inputs = catalog::setup(seed).expect("catalog set-up");
        let round = catalog::round(&inputs, 0, THREADS, &cfg.workdir, None);
        std::fs::remove_dir_all(&cfg.workdir).expect("remove cache dir");
        let digests: Vec<u64> = round.profiles.iter().map(profile_digest).collect();
        let reps = catalog::representatives(&round.profiles, &round.reduction);
        let counts = counts(&round.profiles, &reps);
        (
            inputs.submission(0).0,
            digests,
            reduction_digest(&round.reduction),
            counts,
        )
    };
    let (order_a, digests_a, reduction_a, counts_a) = run(DEFAULT_SEED);
    let (order_b, digests_b, reduction_b, counts_b) = run(HELD_OUT_SEED);
    assert_ne!(
        order_a, order_b,
        "the seeds must submit in different orders"
    );
    assert_eq!(digests_a, digests_b);
    assert_eq!(reduction_a, reduction_b);
    assert_eq!(counts_a, counts_b);
}

#[test]
fn sweep_outputs_do_not_depend_on_the_seed() {
    let run = |seed: u64| {
        let inputs = sweep::setup(seed, THREADS).expect("sweep set-up");
        let (mut results, _) = sweep::round(&inputs, 0);
        results.sort_by(|a, b| a.instruction.label.cmp(&b.instruction.label));
        results
    };
    assert_eq!(run(DEFAULT_SEED), run(HELD_OUT_SEED));
}

#[test]
fn cluster_merges_and_counts_do_not_depend_on_the_seed() {
    let run = |seed: u64| {
        let cfg = config(seed, &format!("cluster-{seed}"));
        let inputs = cluster::setup(&cfg, None).expect("cluster set-up");
        let (merged, _) = cluster::round(&inputs, 0, None).expect("merge");
        let computed: u64 = inputs.engines.iter().map(|e| e.counters().computed).sum();
        std::fs::remove_dir_all(&cfg.workdir).expect("remove cache dirs");
        let digests: Vec<u64> = merged.iter().map(profile_digest).collect();
        (digests, counts(&merged, &[]), computed)
    };
    let (digests_a, counts_a, computed_a) = run(DEFAULT_SEED);
    let (digests_b, counts_b, computed_b) = run(HELD_OUT_SEED);
    assert_eq!(digests_a, digests_b);
    assert_eq!(counts_a, counts_b);
    assert_eq!(
        (computed_a, computed_b),
        (0, 0),
        "a warm merge computes nothing"
    );
}

#[test]
fn serve_sequences_follow_the_seed() {
    let keys = |seed| QueryKeys::new(seed).take(500).collect::<Vec<_>>();
    let mutations = |seed| Mutations::new(seed).take(25).collect::<Vec<_>>();
    assert_eq!(keys(DEFAULT_SEED), keys(DEFAULT_SEED));
    assert_eq!(mutations(DEFAULT_SEED), mutations(DEFAULT_SEED));
    assert_ne!(keys(DEFAULT_SEED), keys(HELD_OUT_SEED));
    assert_ne!(mutations(DEFAULT_SEED), mutations(HELD_OUT_SEED));
}

/// `BENCHMARK.json` and the binary must agree on every name and unit.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = parse(&text).expect("BENCHMARK.json parses");
    let pairs = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string field");
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), table(&END_TO_END));
    assert_eq!(pairs("per_layer"), table(&PER_LAYER));
    for workload in json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let name = workload
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
