//! The repo benchmark. See `benchmark/README.md` for the glossary.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one process
//! benchmark run   [--seed N] [--workload NAME] [--seconds S] [--smoke]
//! benchmark trace [--seed N] [--workload NAME] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it runs one workload in
//! this process and prints its result object as the last line. `run` and
//! `trace` start that form once per workload, each in a child process of
//! its own, and print and record every metric.

mod checks;
mod compare;
mod drivers;
mod harness;
mod inputs;
mod metrics;
mod serve;
mod services;
mod sim;
mod spans;
mod stats;
mod sweep;

use harness::{out_dir, Args};
use inputs::SimKind;
use metrics::WORKLOADS;
use numa_gpu_testkit::json::Json;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// `--seconds` says otherwise.
const RUN_SECONDS: f64 = 20.0;
/// The budget of a `--smoke` run, which only has to reach every code path.
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark run   [--seed N] [--workload NAME] [--seconds S] [--smoke]
  benchmark trace [--seed N] [--workload NAME] [--smoke]
  benchmark compare A.json B.json";

/// Flags shared by every mode.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_flags(words: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = words.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value) {
                    return Err(format!(
                        "unknown workload `{value}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                flags.workload = Some(value.to_string());
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds_given = true;
                flags.seconds = value.parse().map_err(|_| bad())?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                flags.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if flags.smoke && !seconds_given {
        flags.seconds = SMOKE_SECONDS;
    }
    Ok(flags)
}

/// nproc, CPU model, rustc and commit, embedded in every record.
fn environment(full: bool) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']).trim());
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = vec![
        ("nproc".to_string(), Json::UInt(nproc as u64)),
        ("cpu_model".to_string(), Json::Str(cpu.to_string())),
    ];
    // Only the parent modes start other programs; a measuring process
    // never does.
    if full {
        env.push((
            "rustc".to_string(),
            Json::Str(tool("rustc", &["--version"])),
        ));
        env.push((
            "commit".to_string(),
            Json::Str(tool("git", &["rev-parse", "HEAD"])),
        ));
    }
    Json::Obj(env)
}

fn write_out(name: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(name), format!("{doc}\n"))
}

/// Runs one workload in this process and prints its result line last.
fn one_workload(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.workload.clone() else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        smoke: flags.smoke,
    };
    let started = Instant::now();
    let name = args.workload.as_str();
    let mode = if flags.trace { "trace" } else { "run" };
    let outcome = if flags.trace {
        let mut tracer = spans::Tracer::new();
        let outcome = match (SimKind::from_name(name), name) {
            (Some(kind), _) => sim::trace(kind, &args, &mut tracer),
            (None, "sweep_cold") => sweep::trace(true, &args, &mut tracer),
            (None, "sweep_warm") => sweep::trace(false, &args, &mut tracer),
            (None, "serve_cold") => serve::trace(true, &args, &mut tracer),
            (None, _) => serve::trace(false, &args, &mut tracer),
        };
        let doc = spans::chrome_trace(name, &tracer.finish());
        if let Err(e) = write_out(&format!("trace-{name}.json"), &doc) {
            eprintln!("cannot write the span file: {e}");
            return ExitCode::FAILURE;
        }
        outcome
    } else {
        match (SimKind::from_name(name), name) {
            (Some(kind), _) => sim::run(kind, &args),
            (None, "sweep_cold") => sweep::run(true, &args),
            (None, "sweep_warm") => sweep::run(false, &args),
            (None, "serve_cold") => serve::run(true, &args),
            (None, _) => serve::run(false, &args),
        }
    };
    let tag = if args.smoke { "smoke " } else { "" };
    outcome.print_table(name, tag);
    let mut record = vec![
        ("workload".to_string(), Json::Str(name.to_string())),
        ("mode".to_string(), Json::Str(mode.to_string())),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        (
            "wall_s".to_string(),
            Json::Float(started.elapsed().as_secs_f64()),
        ),
        ("environment".to_string(), environment(false)),
    ];
    if let Json::Obj(fields) = outcome.to_json() {
        record.extend(fields);
    }
    let file = format!("{mode}-{name}-seed{}.json", args.seed);
    if let Err(e) = write_out(&file, &Json::Obj(record)) {
        eprintln!("cannot write {file}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line());
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` / `trace`: every workload (or the one named) in a child process
/// of its own, one after the other; prints every metric and writes the
/// merged record.
fn all_workloads(flags: &Flags, trace: bool) -> ExitCode {
    let mode = if trace { "trace" } else { "run" };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = match &flags.workload {
        Some(one) => vec![one.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let started = Instant::now();
    let mut records = Vec::new();
    let mut ok = true;
    for name in names {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if flags.smoke {
            child.arg("--smoke");
        }
        // The child's table goes straight to this terminal.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: workload process failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: cannot start the workload process: {e}");
                ok = false;
                continue;
            }
        }
        let file = out_dir().join(format!("{mode}-{name}-seed{}.json", flags.seed));
        match std::fs::read_to_string(&file)
            .map_err(|e| e.to_string())
            .and_then(|raw| Json::parse(&raw).map_err(|e| e.to_string()))
        {
            Ok(record) => records.push(record),
            Err(e) => {
                eprintln!("{name}: no record at {}: {e}", file.display());
                ok = false;
            }
        }
    }
    let merged = Json::obj([
        ("schema", Json::Str("numa-gpu-benchmark-v1".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("seed", Json::UInt(flags.seed)),
        ("smoke", Json::Bool(flags.smoke)),
        ("environment", environment(true)),
        ("wall_s", Json::Float(started.elapsed().as_secs_f64())),
        ("workloads", Json::Arr(records)),
    ]);
    let suffix = if flags.smoke { "-smoke" } else { "" };
    let file = format!("{mode}-seed{}{suffix}.json", flags.seed);
    match write_out(&file, &merged) {
        Ok(()) => println!(
            "wrote {} ({:.0} s)",
            out_dir().join(&file).display(),
            started.elapsed().as_secs_f64()
        ),
        Err(e) => {
            eprintln!("cannot write {file}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match words.first().map(String::as_str) {
        Some(mode @ ("run" | "trace" | "compare")) => (mode, &words[1..]),
        _ => ("", &words[..]),
    };
    if mode == "compare" {
        return match rest {
            [a, b] => compare::compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "run" => all_workloads(&flags, false),
        "trace" => all_workloads(&flags, true),
        _ => one_workload(&flags),
    }
}
