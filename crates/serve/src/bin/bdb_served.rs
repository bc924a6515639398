//! `bdb-served` — the profiling-as-a-service daemon.
//!
//! Materializes the configured catalog once (through the engine's
//! caches, so a warm `BDB_CACHE_DIR` makes restart free), prints
//! `listening on <addr>` (scrapeable for ephemeral ports) and
//! `materialized <n> entries`, then serves sessions until a client
//! sends `Shutdown`. See DESIGN.md §17 for the protocol and the
//! incremental-recomputation contract.

use bdb_cluster::daemon_help_text;
use bdb_engine::{Engine, EngineConfig};
use bdb_serve::{ServeSpec, ServeState, Server, ServerConfig};
use bdb_workloads::Scale;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    daemon_help_text(
        "bdb-served",
        "profiling-as-a-service daemon with incremental delta recomputation",
        "bdb-served [--listen <addr>] [--name <name>] [--scale <s>] [--workloads <set>]",
        &[
            (
                "--listen <addr>",
                "Bind address (default: $BDB_SERVE_ADDR, else 127.0.0.1:0)",
            ),
            (
                "--name <name>",
                "Server name sent in Hello (default bdb-served)",
            ),
            (
                "--scale <s>",
                "Input scale: tiny | small | paper | <factor> (default tiny)",
            ),
            (
                "--workloads <set>",
                "Catalog: reps | all | comma-separated ids (default reps)",
            ),
        ],
        &[
            (
                "BDB_SERVE_ADDR",
                "Default bind address when --listen is omitted",
            ),
            (
                "BDB_SERVE_MAX_CLIENTS",
                "Concurrent session cap (default 64); excess sessions get a busy reply with a retry hint",
            ),
            (
                "BDB_SERVE_SUB_QUEUE",
                "Per-subscriber delta queue bound in frames (default 64); slower subscribers are evicted",
            ),
        ],
    )
}

struct Args {
    listen: String,
    name: String,
    scale: Scale,
    workloads: String,
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
        listen: std::env::var("BDB_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_owned()),
        name: "bdb-served".to_owned(),
        scale: Scale::tiny(),
        workloads: "reps".to_owned(),
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
            "--listen" => args.listen = value(&mut i, "--listen")?,
            "--name" => args.name = value(&mut i, "--name")?,
            "--scale" => args.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--workloads" => args.workloads = value(&mut i, "--workloads")?,
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bdb-served: {e}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = match build_spec(args.scale, &args.workloads) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("bdb-served: {e}");
            return ExitCode::from(2);
        }
    };
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bdb-served: bind {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.listen.clone());
    println!("listening on {bound}");

    let engine = Arc::new(Engine::new(EngineConfig::from_env()));
    let state = match ServeState::materialize(engine, spec) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("bdb-served: materialize: {e}");
            return ExitCode::from(2);
        }
    };
    let computed = state.engine().counters().computed;
    println!(
        "materialized {} entries ({computed} computed, rest from cache)",
        state.len()
    );

    let mut config = ServerConfig::from_env();
    config.name = args.name;
    let server = Server::new(state, config);
    match server.serve_listener(&listener) {
        Ok(()) => {
            eprintln!("bdb-served: shutdown requested, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bdb-served: {e}");
            ExitCode::from(1)
        }
    }
}
