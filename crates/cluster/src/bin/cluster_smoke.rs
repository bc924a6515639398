//! `cluster-smoke` — byte-level oracle for distributed vs. serial runs.
//!
//! Profiles the first N catalog workloads and prints one canonical-JSON
//! line per profile, in catalog order. Without `--cluster` the profiles
//! come from a fully serial local engine; with `--cluster a,b,...` they
//! come from a coordinator run over the listed TCP workers. Because the
//! cluster contract is *byte* identity, CI simply diffs the two outputs:
//!
//! ```text
//! cluster-smoke --workloads 12 > serial.jsonl
//! cluster-smoke --workloads 12 --cluster 127.0.0.1:9001,127.0.0.1:9002 > cluster.jsonl
//! diff serial.jsonl cluster.jsonl
//! ```

use bdb_cluster::{fleet_tasks, ClusterConfig, Coordinator};
use bdb_cluster::{TcpTransport, Transport};
use bdb_engine::{argv_journal_context, codec, CacheStore, Engine, RealFs, RunJournal};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_workloads::{catalog, Scale};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
cluster-smoke: print canonical profile bytes, serially or via a cluster

USAGE:
    cluster-smoke [--workloads <n>] [--scale tiny|small|paper|<factor>] [--cluster <addr,addr,...>]
                  [--join-listen <addr>] [--replication <r>] [--journal <path>] [--resume]

OPTIONS:
    --workloads <n>     Profile the first n catalog workloads (default 12)
    --scale <s>         Input scale (default tiny)
    --cluster <list>    Comma-separated worker addresses; omit for a serial local run
    --join-listen <a>   Accept workers joining mid-run on this address (elastic fleet);
                        the bound address is printed to stderr as 'join listening on <addr>'.
                        While the join channel is open a fully-dead fleet WAITS for new
                        joiners instead of failing — bound that wait with --join-idle-secs
    --join-idle-secs <s> Close the join channel after s seconds without a new joiner
                        (default 0 = never close); once closed, total fleet death
                        aborts the run with an error instead of waiting forever
    --replication <r>   Replicate each verified result to r peer workers (default from
                        BDB_REPLICATION, else 0)
    --journal <path>    Checkpoint completed tasks into a write-ahead run journal
    --resume            Merge completed tasks from the journal instead of re-running them
    -h, --help          Print this help
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut count: usize = 12;
    let mut scale = Scale::tiny();
    let mut cluster: Option<String> = None;
    let mut join_listen: Option<String> = None;
    let mut join_idle_secs: u64 = 0;
    let mut replication: Option<usize> = None;
    let mut journal_path: Option<PathBuf> = None;
    let resume = argv.iter().any(|a| a == "--resume");
    for pair in argv.windows(2) {
        match pair[0].as_str() {
            "--workloads" => match pair[1].parse() {
                Ok(n) => count = n,
                Err(_) => {
                    eprintln!("cluster-smoke: bad workload count {:?}", pair[1]);
                    return ExitCode::from(2);
                }
            },
            "--scale" => {
                scale = match pair[1].as_str() {
                    "tiny" => Scale::tiny(),
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => match other.parse() {
                        Ok(f) => Scale::custom(f),
                        Err(_) => {
                            eprintln!("cluster-smoke: bad scale {other:?}");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            "--cluster" => cluster = Some(pair[1].clone()),
            "--join-listen" => join_listen = Some(pair[1].clone()),
            "--join-idle-secs" => match pair[1].parse() {
                Ok(s) => join_idle_secs = s,
                Err(_) => {
                    eprintln!("cluster-smoke: bad join idle seconds {:?}", pair[1]);
                    return ExitCode::from(2);
                }
            },
            "--replication" => match pair[1].parse() {
                Ok(r) => replication = Some(r),
                Err(_) => {
                    eprintln!("cluster-smoke: bad replication count {:?}", pair[1]);
                    return ExitCode::from(2);
                }
            },
            "--journal" => journal_path = Some(PathBuf::from(&pair[1])),
            _ => {}
        }
    }
    // The journal context is the command line minus --resume, so only
    // the identical invocation replays journaled results.
    let mut journal = journal_path.map(|path| {
        let store: Arc<dyn CacheStore> = Arc::new(RealFs);
        let (journal, stats) = RunJournal::open(store, path, &argv_journal_context(), resume);
        eprintln!(
            "cluster-smoke: journal preloaded {} of {count} tasks",
            stats.loaded_tasks
        );
        journal
    });
    let workloads: Vec<_> = catalog::full_catalog().into_iter().take(count).collect();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let profiles = if cluster.is_none() && join_listen.is_none() {
        Engine::serial().profile_all(&workloads, scale, &machine, &node)
    } else {
        let mut workers: Vec<Arc<dyn Transport>> = Vec::new();
        if let Some(addrs) = &cluster {
            for addr in addrs.split(',').filter(|a| !a.is_empty()) {
                match TcpTransport::connect(addr, Duration::from_secs(10)) {
                    Ok(t) => workers.push(Arc::new(t)),
                    Err(e) => {
                        eprintln!("cluster-smoke: worker {addr}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        let mut config = ClusterConfig::from_env();
        if let Some(r) = replication {
            config.replication = r;
        }
        // With --join-listen the join channel stays open for the whole
        // run: workers may dial in at any point and are eligible for
        // stealing immediately. Without it the sender is dropped up
        // front, restoring the fixed-membership failure semantics.
        let (join_tx, join_rx) = std::sync::mpsc::channel();
        if let Some(addr) = &join_listen {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cluster-smoke: bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            let bound = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            // To stderr: stdout is reserved for the profile bytes.
            eprintln!("cluster-smoke: join listening on {bound}");
            // With no idle limit the accept thread holds the join
            // sender forever, so the coordinator WAITS for new joiners
            // whenever the whole fleet dies — an idle limit turns that
            // indefinite wait into a diagnosable AllWorkersDead error
            // by dropping the sender (delivering JoinsClosed) once no
            // joiner has arrived for the given stretch.
            std::thread::spawn(move || {
                let poll = Duration::from_millis(100);
                if join_idle_secs > 0 && listener.set_nonblocking(true).is_err() {
                    return;
                }
                let mut idle = Duration::ZERO;
                loop {
                    match listener.accept() {
                        Ok((stream, peer_addr)) => {
                            idle = Duration::ZERO;
                            let _ = stream.set_nonblocking(false);
                            let peer = peer_addr.to_string();
                            let Ok(transport) = TcpTransport::from_stream(stream, &peer) else {
                                continue;
                            };
                            if join_tx
                                .send(Arc::new(transport) as Arc<dyn Transport>)
                                .is_err()
                            {
                                return; // run finished; stop accepting
                            }
                        }
                        Err(_) => {
                            // WouldBlock under the nonblocking poll, or
                            // a transient accept failure: back off and
                            // charge the idle clock either way.
                            std::thread::sleep(poll);
                            idle += poll;
                            if join_idle_secs > 0 && idle >= Duration::from_secs(join_idle_secs) {
                                eprintln!(
                                    "cluster-smoke: no joiner for {join_idle_secs}s; \
                                     closing the join channel"
                                );
                                return; // drops join_tx -> JoinsClosed
                            }
                        }
                    }
                }
            });
        } else {
            drop(join_tx);
            if workers.is_empty() {
                eprintln!("cluster-smoke: --cluster list is empty and no --join-listen given");
                return ExitCode::from(2);
            }
        }
        let tasks = fleet_tasks(&workloads, scale, &machine, &node);
        let coordinator = Coordinator::new(config);
        let outcome = coordinator.run_elastic(workers, join_rx, &tasks, journal.as_mut());
        match outcome {
            Ok(profiles) => profiles,
            Err(e) => {
                eprintln!("cluster-smoke: distributed run failed: {e}");
                return ExitCode::from(1);
            }
        }
    };
    for profile in &profiles {
        println!("{}", codec::profile_to_value(profile).encode());
    }
    ExitCode::SUCCESS
}
