//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin > perfbench/pinned/digests.tsv
//! ```
//!
//! A run prints a report line (runner identity, workload-specific figures
//! with sample counts, failures) and then, as its last line, the result
//! object: `correct`, `attempted`, `failed` and `metrics`. It exits
//! non-zero if any output differs from the pinned digests or the run
//! cannot complete.

use bdb_engine::json::Value;
use perfbench::{digests, Metric, Outcome, RunConfig, Workload};
use perfbench::{DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, OUTPUT_DIR, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <catalog_profile|capacity_sweep|serve_mixed|cluster_warm> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench pin";

/// Failure messages echoed on the report line.
const SHOWN_FAILURES: usize = 10;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        print!("{}", digests::render_pinned());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workdir =
        PathBuf::from(OUTPUT_DIR).join(format!("{}-{}", cli.workload.name(), std::process::id()));
    let cfg = RunConfig {
        seed: cli.seed,
        seconds: Duration::from_secs(cli.seconds),
        trace: cli.trace,
        threads: available_parallelism(),
        workdir: workdir.clone(),
    };
    let outcome = std::fs::create_dir_all(&workdir)
        .map_err(|e| format!("creating {}: {e}", workdir.display()))
        .and_then(|()| cli.workload.run(&cfg));
    let cleaned = remove_workdir(&workdir);
    let mut outcome = match outcome.and_then(|o| cleaned.map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if !cli.trace {
        match peak_rss_mib() {
            Ok(mib) => outcome.metric("peak_rss_mib", mib, "MiB", 1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics = match result_metrics(&outcome, cli.trace) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report_line(&cli, &outcome).encode());
    let failed = outcome.failures.len() as u64;
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let result = Value::object(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.encode());
    if failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Removes the run's scratch directory.
fn remove_workdir(workdir: &Path) -> Result<(), String> {
    if workdir.exists() {
        std::fs::remove_dir_all(workdir)
            .map_err(|e| format!("removing {}: {e}", workdir.display()))?;
    }
    Ok(())
}

/// The result line's metrics: every end-to-end metric (untraced) or
/// every per-layer metric (traced), by name with its unit.
fn result_metrics(outcome: &Outcome, trace: bool) -> Result<Value, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut pairs = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(metric) if metric.unit == unit => metric.value,
            Some(metric) => {
                return Err(format!(
                    "{name} measured in {}, declared in {unit}",
                    metric.unit
                ))
            }
            // A layer this workload does not exercise.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        pairs.push((
            name.to_owned(),
            Value::object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.to_owned())),
            ]),
        ));
    }
    Ok(Value::Object(pairs))
}

fn metric_value(metric: &Metric) -> Value {
    Value::object(vec![
        ("value", Value::Float(metric.value)),
        ("unit", Value::Str(metric.unit.to_owned())),
        ("samples", Value::UInt(metric.samples)),
    ])
}

/// Runner identity, every metric with its sample count, the
/// workload-specific figures and the first failures.
fn report_line(cli: &Cli, outcome: &Outcome) -> Value {
    let runner = Value::object(vec![
        (
            "available_parallelism",
            Value::UInt(available_parallelism() as u64),
        ),
        ("git_revision", Value::Str(git_revision())),
        (
            "rustc",
            Value::Str(env!("PERFBENCH_RUSTC_VERSION").to_owned()),
        ),
        ("scale", Value::Float(cli.workload.scale())),
        ("seed", Value::UInt(cli.seed)),
        ("default_seed", Value::UInt(DEFAULT_SEED)),
        ("held_out_seed", Value::UInt(HELD_OUT_SEED)),
        ("seconds", Value::UInt(cli.seconds)),
        ("trace", Value::Bool(cli.trace)),
    ]);
    let named = |map: &std::collections::BTreeMap<&'static str, Metric>| {
        Value::Object(
            map.iter()
                .map(|(name, m)| ((*name).to_owned(), metric_value(m)))
                .collect(),
        )
    };
    let failed = outcome.failures.len() as f64;
    let failures = outcome
        .failures
        .iter()
        .take(SHOWN_FAILURES)
        .map(|f| Value::Str(f.clone()))
        .collect();
    Value::object(vec![
        ("perfbench", Value::Str("report".to_owned())),
        ("workload", Value::Str(cli.workload.name().to_owned())),
        ("runner", runner),
        ("metrics", named(&outcome.metrics)),
        ("report", named(&outcome.report)),
        (
            "failed_frac",
            Value::Float(failed / outcome.attempted.max(1) as f64),
        ),
        ("failures", Value::Array(failures)),
    ])
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's resident-set high-water mark (Linux `VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
