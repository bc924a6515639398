//! `serve-smoke` — client and local oracle for the serve daemon.
//!
//! One binary, two roles, so `scripts/serve_smoke.sh` can diff them
//! byte-for-byte:
//!
//! * `--baseline` runs the catalog **locally** (fresh in-memory engine,
//!   no daemon) with the same `--mutate` sequence, printing snapshot
//!   lines — the cold-recompute oracle.
//! * `--connect <addr>` talks to a live daemon: `--snapshot`,
//!   `--query <key>`, `--mutate <spec>` (repeatable, in order),
//!   `--subscribe --expect-batches <n>` (take a snapshot, apply pushed
//!   deltas to it, print the result), `--stats`, `--shutdown`.
//!
//! Snapshot lines are `key fingerprint profile-json`, one per entry, in
//! key order — identical bytes whether they came from a baseline run, a
//! daemon snapshot, or a delta-patched snapshot.
//!
//! Mutation specs: `knob:<config>:<path>=<value>`,
//! `add-workload:<id>`, `remove-workload:<id>`,
//! `add-config:<name>=<base>` (base: `xeon-e5645`, `xeon-e5-2697`,
//! `atom-d510`), `remove-config:<name>`, `scale:<factor>`.

use bdb_cluster::daemon_help_text;
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::Engine;
use bdb_serve::{
    apply_delta_batch, machine_knobs, EntryKey, Mutation, ServeClient, ServeSpec, ServeState,
    SnapshotEntry,
};
use bdb_sim::MachineConfig;
use bdb_workloads::Scale;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> String {
    daemon_help_text(
        "serve-smoke",
        "client and cold-recompute oracle for bdb-served",
        "serve-smoke (--baseline | --connect <addr>) [action flags]",
        &[
            (
                "--baseline",
                "Run the catalog locally and print snapshot lines",
            ),
            ("--connect <addr>", "Talk to a daemon at addr"),
            (
                "--scale <s>",
                "Baseline scale: tiny | small | paper | <factor>",
            ),
            (
                "--workloads <set>",
                "Baseline catalog: reps | all | comma-separated ids",
            ),
            (
                "--mutate <spec>",
                "Apply a mutation (repeatable, in order); see module docs",
            ),
            ("--snapshot", "Fetch and print the daemon's catalog"),
            ("--query <key>", "Fetch one entry (key is config/workload)"),
            (
                "--subscribe",
                "Subscribe, then patch a snapshot from deltas",
            ),
            (
                "--expect-batches <n>",
                "With --subscribe: batches to await before printing",
            ),
            ("--stats", "Print server + engine counters"),
            ("--shutdown", "Ask the daemon to exit"),
            ("--knobs", "List every machine-config knob path and exit"),
        ],
        &[],
    )
}

struct Args {
    baseline: bool,
    connect: Option<String>,
    scale: Scale,
    workloads: String,
    mutations: Vec<String>,
    snapshot: bool,
    query: Option<String>,
    subscribe: bool,
    expect_batches: u64,
    stats: bool,
    shutdown: bool,
    knobs: bool,
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::tiny()),
        "small" => Ok(Scale::small()),
        "paper" => Ok(Scale::paper()),
        other => match other.parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => Ok(Scale::custom(f)),
            _ => Err(format!("bad scale {other:?}")),
        },
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: false,
        connect: None,
        scale: Scale::tiny(),
        workloads: "reps".to_owned(),
        mutations: Vec::new(),
        snapshot: false,
        query: None,
        subscribe: false,
        expect_batches: 1,
        stats: false,
        shutdown: false,
        knobs: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.get(i) {
        match arg.as_str() {
            "--baseline" => args.baseline = true,
            "--connect" => args.connect = Some(value(&mut i, "--connect")?),
            "--scale" => args.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--workloads" => args.workloads = value(&mut i, "--workloads")?,
            "--mutate" => args.mutations.push(value(&mut i, "--mutate")?),
            "--snapshot" => args.snapshot = true,
            "--query" => args.query = Some(value(&mut i, "--query")?),
            "--subscribe" => args.subscribe = true,
            "--expect-batches" => {
                let v = value(&mut i, "--expect-batches")?;
                args.expect_batches = v.parse().map_err(|_| format!("bad batch count {v:?}"))?;
            }
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            "--knobs" => args.knobs = true,
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn parse_leaf_value(s: &str) -> Value {
    if let Ok(u) = s.parse::<u64>() {
        return Value::UInt(u);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Str(s.to_owned())
}

fn base_machine(name: &str) -> Result<MachineConfig, String> {
    match name {
        "xeon-e5645" => Ok(MachineConfig::xeon_e5645()),
        "xeon-e5-2697" => Ok(MachineConfig::xeon_e5_2697()),
        "atom-d510" => Ok(MachineConfig::atom_d510()),
        other => Err(format!(
            "unknown base machine {other:?} (xeon-e5645 | xeon-e5-2697 | atom-d510)"
        )),
    }
}

fn parse_mutation(spec: &str) -> Result<Mutation, String> {
    let (op, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad mutation {spec:?} (want op:...)"))?;
    match op {
        "knob" => {
            let (config, assignment) = rest.split_once(':').ok_or_else(|| {
                format!("bad knob mutation {spec:?} (want knob:config:path=value)")
            })?;
            let (path, value) = assignment
                .split_once('=')
                .ok_or_else(|| format!("bad knob mutation {spec:?} (missing =value)"))?;
            Ok(Mutation::SetKnob {
                config: config.to_owned(),
                knob: path.to_owned(),
                value: parse_leaf_value(value),
            })
        }
        "add-workload" => Ok(Mutation::AddWorkload {
            id: rest.to_owned(),
        }),
        "remove-workload" => Ok(Mutation::RemoveWorkload {
            id: rest.to_owned(),
        }),
        "add-config" => {
            let (name, base) = rest.split_once('=').ok_or_else(|| {
                format!("bad config mutation {spec:?} (want add-config:name=base)")
            })?;
            Ok(Mutation::AddConfig {
                name: name.to_owned(),
                machine: Box::new(base_machine(base)?),
            })
        }
        "remove-config" => Ok(Mutation::RemoveConfig {
            name: rest.to_owned(),
        }),
        "scale" => {
            let factor: f64 = rest.parse().map_err(|_| format!("bad scale {rest:?}"))?;
            Ok(Mutation::SetScale { factor })
        }
        other => Err(format!("unknown mutation op {other:?}")),
    }
}

fn build_spec(scale: Scale, workloads: &str) -> Result<ServeSpec, String> {
    match workloads {
        "reps" => Ok(ServeSpec::representatives(scale)),
        "all" => Ok(ServeSpec::full_catalog(scale)),
        list => {
            let ids: Vec<String> = list.split(',').map(str::to_owned).collect();
            ServeSpec::representatives(scale)
                .with_workloads(&ids)
                .map_err(|e| e.to_string())
        }
    }
}

fn entry_line(key: &str, fingerprint: u64, profile_json: &str) -> String {
    format!("{key} {fingerprint:016x} {profile_json}")
}

fn print_snapshot_entries(entries: &[SnapshotEntry]) {
    for e in entries {
        println!(
            "{}",
            entry_line(
                &e.key.render(),
                e.fingerprint,
                &profile_to_value(&e.profile).encode()
            )
        );
    }
}

fn run_baseline(args: &Args) -> Result<(), String> {
    let spec = build_spec(args.scale, &args.workloads)?;
    let engine = Arc::new(Engine::in_memory());
    let mut state = ServeState::materialize(engine, spec).map_err(|e| e.to_string())?;
    for raw in &args.mutations {
        let mutation = parse_mutation(raw)?;
        let batch = state.apply(&mutation).map_err(|e| e.to_string())?;
        eprintln!(
            "serve-smoke: baseline applied {raw} (seq {}, {} deltas)",
            batch.seq,
            batch.deltas.len()
        );
    }
    for key in state.keys() {
        if let (Some((fingerprint, _)), Some(bytes)) = (state.get(&key), state.get_bytes(&key)) {
            println!("{}", entry_line(&key.render(), fingerprint, bytes));
        }
    }
    Ok(())
}

fn run_remote(args: &Args, addr: &str) -> Result<(), String> {
    let mut client =
        ServeClient::connect(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let info = client.hello("serve-smoke").map_err(|e| e.to_string())?;
    eprintln!(
        "serve-smoke: connected to {addr} ({} entries, seq {})",
        info.entries, info.seq
    );

    if args.subscribe {
        return run_subscriber(args, client);
    }

    for raw in &args.mutations {
        let mutation = parse_mutation(raw)?;
        let outcome = client.mutate(mutation).map_err(|e| e.to_string())?;
        eprintln!(
            "serve-smoke: mutated {raw} (seq {}, +{} ~{} -{})",
            outcome.seq, outcome.created, outcome.updated, outcome.deleted
        );
    }
    if let Some(key) = &args.query {
        let key = EntryKey::parse(key).map_err(|e| e.to_string())?;
        match client.query(&key).map_err(|e| e.to_string())? {
            Some((fingerprint, profile)) => println!(
                "{}",
                entry_line(
                    &key.render(),
                    fingerprint,
                    &profile_to_value(&profile).encode()
                )
            ),
            None => return Err(format!("no entry {}", key.render())),
        }
    }
    if args.snapshot {
        let (_seq, entries) = client.snapshot().map_err(|e| e.to_string())?;
        print_snapshot_entries(&entries);
    }
    if args.stats {
        let stats = client.stats().map_err(|e| e.to_string())?;
        println!("computed={}", stats.computed);
        println!("delta_batches={}", stats.delta_batches);
        println!("deltas_streamed={}", stats.deltas_streamed);
        println!("disk_hits={}", stats.disk_hits);
        println!("entries={}", stats.entries);
        println!("invalidated={}", stats.invalidated);
        println!("journal_hits={}", stats.journal_hits);
        println!("memory_hits={}", stats.memory_hits);
        println!("seq={}", stats.seq);
        println!("sessions_active={}", stats.sessions_active);
        println!("sessions_total={}", stats.sessions_total);
        println!("subscribers={}", stats.subscribers);
    }
    if args.shutdown {
        client.shutdown().map_err(|e| e.to_string())?;
        eprintln!("serve-smoke: daemon acknowledged shutdown");
        return Ok(());
    }
    let _ = client.bye();
    Ok(())
}

/// Subscribe, snapshot, patch the snapshot with pushed delta batches,
/// print the patched catalog. The printed bytes must equal a fresh
/// daemon snapshot *and* the baseline oracle — the client half of the
/// incremental-recomputation contract.
fn run_subscriber(args: &Args, mut client: ServeClient) -> Result<(), String> {
    let subscribed_seq = client.subscribe().map_err(|e| e.to_string())?;
    let (snap_seq, entries) = client.snapshot().map_err(|e| e.to_string())?;
    eprintln!("serve-smoke: subscribed at seq {subscribed_seq}, snapshot at seq {snap_seq}");
    let mut catalog: BTreeMap<String, SnapshotEntry> =
        entries.into_iter().map(|e| (e.key.render(), e)).collect();
    let mut applied = 0;
    while applied < args.expect_batches {
        match client
            .next_delta(Duration::from_secs(60))
            .map_err(|e| e.to_string())?
        {
            Some(batch) => {
                if batch.seq <= snap_seq {
                    eprintln!(
                        "serve-smoke: skipping batch seq {} (already in snapshot)",
                        batch.seq
                    );
                    continue;
                }
                apply_delta_batch(&mut catalog, &batch);
                applied += 1;
                eprintln!(
                    "serve-smoke: applied batch seq {} ({} deltas)",
                    batch.seq,
                    batch.deltas.len()
                );
            }
            None => return Err(format!("timed out waiting for batch {}", applied + 1)),
        }
    }
    for (key, e) in &catalog {
        println!(
            "{}",
            entry_line(key, e.fingerprint, &profile_to_value(&e.profile).encode())
        );
    }
    let _ = client.bye();
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve-smoke: {e}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.knobs {
        for knob in machine_knobs(&MachineConfig::xeon_e5645()) {
            println!("{knob}");
        }
        return ExitCode::SUCCESS;
    }
    let result = if args.baseline {
        run_baseline(&args)
    } else if let Some(addr) = args.connect.clone() {
        run_remote(&args, &addr)
    } else {
        Err("need --baseline, --connect, or --knobs".to_owned())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-smoke: {e}");
            ExitCode::from(1)
        }
    }
}
