//! Production-path benchmark for the `sedspecd` enforcement daemon.
//!
//! ```text
//! sedspec-e2ebench --workload bulk_replay|small_replay|attack_mix|all
//!                  --seed N --seconds S --trace 0|1|both --sedspec PATH
//!                  [--source-rev REV]
//! sedspec-e2ebench --smoke --sedspec PATH
//! ```
//!
//! `--trace 0` starts `sedspec serve` as a separate process and drives
//! it through `CtlClient` over a Unix socket in a closed loop, printing
//! the end-to-end metrics. `--trace 1` replays the workload's request
//! sequence once over the socket (untraced) and once in-process with
//! every layer call timed, printing the per-layer metrics and how well
//! they reconcile with the untraced latency. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `run.py` next to this crate builds both binaries and is the entry
//! point; see `WORKLOADS.md` for why each workload exists.

mod e2e;
mod layers;
mod proc;
mod stats;
mod workload;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::RunResult;
use workload::Workload;

/// Scratch directory for stores, sockets and daemon logs, relative to
/// the repository root the benchmark runs from (which keeps socket
/// paths under the 108-byte `sun_path` limit).
const WORK_ROOT: &str = ".bench_run";
/// The benchmark definition the smoke mode checks metric names against.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Settings every mode shares.
pub struct Ctx {
    /// The `sedspec` binary that serves the daemon.
    pub sedspec: PathBuf,
    /// This run's scratch directory (stores, socket, daemon log).
    pub work: PathBuf,
    /// Selects both training and replay.
    pub seed: u64,
    /// Measured load duration.
    pub seconds: f64,
}

impl Ctx {
    /// The daemon socket path.
    pub fn socket(&self) -> PathBuf {
        self.work.join("d.sock")
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sedspec-e2ebench --workload NAME|all --seed N --seconds S --trace 0|1|both \
         --sedspec PATH [--source-rev REV]\n       \
         sedspec-e2ebench --smoke --sedspec PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sedspec) = flag(&args, "--sedspec").map(PathBuf::from) else { return usage() };
    if !sedspec.is_file() {
        eprintln!("no sedspec binary at {}", sedspec.display());
        return ExitCode::FAILURE;
    }
    let root = PathBuf::from(WORK_ROOT);
    let source_rev = flag(&args, "--source-rev").unwrap_or("unknown").to_string();
    if args.iter().any(|a| a == "--smoke") {
        return smoke(&sedspec, &root, &source_rev);
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload"),
        flag(&args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(&args, "--seconds").and_then(|v| v.parse::<f64>().ok()),
        flag(&args, "--trace").and_then(|v| match v {
            "0" => Some(vec![false]),
            "1" => Some(vec![true]),
            "both" => Some(vec![false, true]),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let workloads = if name == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::parse(name) {
        vec![w]
    } else {
        eprintln!("unknown workload {name}; expected bulk_replay, small_replay, attack_mix or all");
        return ExitCode::from(2);
    };
    let mut all_ok = true;
    let mut last = RunResult::default();
    let runs = workloads.len() * trace.len();
    for workload in workloads {
        for &traced in &trace {
            let result = run_one(&sedspec, &root, &source_rev, workload, seed, seconds, traced);
            print_result(workload, traced, &result);
            all_ok &= result.correct();
            last = result;
        }
    }
    if runs > 1 {
        // Several runs are for people: every block above; the last line
        // sums up.
        println!("{{\"correct\": {all_ok}}}");
    } else {
        println!("{}", last.json_line());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in one mode, in its own scratch directory.
fn run_one(
    sedspec: &std::path::Path,
    root: &std::path::Path,
    source_rev: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> RunResult {
    let work = root.join(format!("{}-{}", std::process::id(), workload.name()));
    let _ = fs::remove_dir_all(&work);
    let mut result = RunResult::default();
    if let Err(e) = fs::create_dir_all(&work) {
        result.check_errors.push(format!("work dir {}: {e}", work.display()));
        return result;
    }
    let ctx = Ctx { sedspec: sedspec.to_path_buf(), work: work.clone(), seed, seconds };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    result.note("workload", workload.name());
    result.note("trace", u8::from(trace));
    result.note("seed", seed);
    result.note("seconds", seconds);
    result.note("nproc", nproc);
    result.note("source_rev", source_rev);
    result.note("store_fs", proc::fs_type(&work));
    result.note("cases_per_device", workload::CASES);
    result.note("connections", workload::CONNECTIONS);
    let outcome = if trace {
        layers::run(&ctx, workload, &mut result)
    } else {
        e2e::run(&ctx, workload, &mut result)
    };
    if let Err(e) = outcome {
        result.check_errors.push(e);
    }
    flag_core_count_change(root, workload, trace, nproc);
    let _ = fs::remove_dir_all(&work);
    result
}

/// Remembers the core count each workload last ran with and warns when
/// it changes: a result from a host with another core count is not
/// comparable (a 1-core and a 2-core run of the same code differ by
/// far more than any bound).
fn flag_core_count_change(root: &std::path::Path, workload: Workload, trace: bool, nproc: usize) {
    let path = root.join(format!("nproc-{}-trace{}", workload.name(), u8::from(trace)));
    if let Some(prev) = fs::read_to_string(&path).ok().and_then(|s| s.trim().parse::<usize>().ok())
    {
        if prev != nproc {
            println!(
                "WARNING: the previous {} run here had {prev} cores, this one has {nproc}; \
                 do not compare their figures",
                workload.name()
            );
        }
    }
    let _ = fs::write(&path, nproc.to_string());
}

fn print_result(workload: Workload, trace: bool, result: &RunResult) {
    println!("== {} (trace {})", workload.name(), u8::from(trace));
    for (k, v) in &result.provenance {
        println!("provenance {k} = {v}");
    }
    for p in &result.phases {
        println!(
            "phase {:<8} attempted {:>7} succeeded {:>7} failed {:>4}",
            p.name, p.attempted, p.succeeded, p.failed
        );
    }
    for f in &result.failures {
        println!("failure {f}");
    }
    for e in &result.check_errors {
        println!("check-error {e}");
    }
    for m in &result.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "correct {} attempted {} failed {}",
        result.correct(),
        result.attempted(),
        result.failed()
    );
}

/// Runs every workload briefly in both modes and asserts that each
/// metric `BENCHMARK.json` names is present with its unit, that no
/// request failed, and that the traced run reconciles.
fn smoke(sedspec: &std::path::Path, root: &std::path::Path, rev: &str) -> ExitCode {
    let bench_json = BENCHMARK_JSON;
    let text = match fs::read_to_string(bench_json) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {bench_json}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match serde_json::from_str_value(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("smoke: {bench_json}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = |key: &str| -> Vec<(String, String)> {
        match spec.get(key) {
            Some(serde_json::Value::Seq(items)) => items
                .iter()
                .filter_map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(serde_json::Value::Str(n)), Some(serde_json::Value::Str(u))) => {
                        Some((n.clone(), u.clone()))
                    }
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = run_one(sedspec, root, rev, workload, 1, 1.0, trace);
            print_result(workload, trace, &result);
            let tag = format!("{} trace {}", workload.name(), u8::from(trace));
            if !result.correct() || result.failed() > 0 {
                problems.push(format!("{tag}: error_rate is not 0 or a check failed"));
            }
            let want = expected(if trace { "per_layer" } else { "end_to_end" });
            if want.is_empty() {
                problems.push(format!("{tag}: {bench_json} lists no metrics"));
            }
            for (name, unit) in want {
                match result.metrics.iter().find(|m| m.name == name) {
                    None => problems.push(format!("{tag}: metric {name} missing")),
                    Some(m) if m.unit != unit => {
                        problems.push(format!("{tag}: metric {name} in {} not {unit}", m.unit));
                    }
                    Some(m) if !m.value.is_finite() => {
                        problems.push(format!("{tag}: metric {name} is not finite"));
                    }
                    Some(_) => {}
                }
            }
            if trace {
                let err = result.metrics.iter().find(|m| m.name == "trace.reconcile_err");
                if err.is_none_or(|m| m.value > layers::RECONCILE_BOUND) {
                    problems.push(format!(
                        "{tag}: layer self times do not reconcile within {}",
                        layers::RECONCILE_BOUND
                    ));
                }
            }
        }
    }
    for p in &problems {
        println!("smoke-problem {p}");
    }
    let ok = problems.is_empty();
    println!("{{\"smoke\": {}, \"problems\": {}}}", ok, problems.len());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
