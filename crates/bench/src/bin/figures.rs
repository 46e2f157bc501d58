//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [--quick] [--jobs N] [--profile] [--out DIR]
//!         [--cache-dir DIR] [artifact...]
//!
//! artifacts: table1 table2 fig2 fig3 fig5 fig6 fig6-sens fig8 fig9
//!            fig9-wb fig10 fig11 power
//!            (default: all)
//! ```
//!
//! `--quick` uses the reduced workload scale (CI-sized); default is the
//! full committed scale. `--jobs N` runs up to `N` simulations in parallel
//! (default: available parallelism; `1` reproduces the serial behavior
//! exactly — output is byte-identical either way); each simulation runs
//! on one thread. With `--out DIR` each artifact is also written to
//! `DIR/<name>.txt`. `--profile` prints a work-attribution table summed over every
//! simulation at the end; it never changes the artifacts themselves (the
//! profile is assembled at report time from counters the simulator
//! maintains unconditionally). `--cache-dir DIR` backs the in-memory memo
//! with the on-disk content-addressed store: a second run of the same
//! figures serves every simulation warm from disk and prints
//! byte-identical artifacts (warm-hit counts go to stderr at the end).
//! A `--out` or `--cache-dir` directory that cannot be used exits 2.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use numa_gpu_bench::{experiments, Runner};
use numa_gpu_exec::ThreadPool;
use numa_gpu_workloads::Scale;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Renders one artifact's text, running the simulations it needs.
type Render = fn(&mut Runner) -> String;

/// Every artifact in default order, with the function that renders it.
const ARTIFACTS: [(&str, Render); 13] = [
    ("table1", |_| experiments::table1()),
    ("table2", |r| experiments::table2(r).to_string()),
    ("fig2", |r| experiments::fig2(r).to_string()),
    ("fig3", |r| experiments::fig3(r).to_string()),
    ("fig5", experiments::fig5),
    ("fig6", |r| experiments::fig6(r).to_string()),
    ("fig6-sens", |r| {
        experiments::fig6_switch_sensitivity(r).to_string()
    }),
    ("fig8", |r| experiments::fig8(r).to_string()),
    ("fig9", |r| experiments::fig9(r).to_string()),
    ("fig9-wb", |r| experiments::fig9_writeback(r).to_string()),
    ("fig10", |r| experiments::fig10(r).to_string()),
    ("fig11", |r| experiments::fig11(r).to_string()),
    ("power", |r| experiments::power(r).to_string()),
];

/// Prints `msg` and the usage text, then exits with status 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!(
        "usage: figures [--quick] [--jobs N] [--profile] [--out DIR] \
         [--cache-dir DIR] [artifact...]\n\n\
         artifacts (default: all): {}",
        ARTIFACTS.map(|(name, _)| name).join(" ")
    );
    std::process::exit(2);
}

/// Prints why the directory given to `flag` cannot be used, then exits
/// with status 2.
fn dir_error(flag: &str, dir: &str, e: std::io::Error) -> ! {
    eprintln!("{flag} {dir}: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut profile = false;
    let mut out_dir = None;
    let mut jobs = ThreadPool::available().workers();
    let mut cache_dir = None;
    let mut selected = Vec::new();
    // One pass, each flag consuming its value where it stands, so a value
    // can never be mistaken for an artifact name (or the reverse).
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--out" => out_dir = Some(value("--out")),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--jobs" => {
                let v = value("--jobs");
                jobs = v.parse::<NonZeroUsize>().map_or_else(
                    |_| usage(&format!("--jobs expects a positive integer, got `{v}`")),
                    NonZeroUsize::get,
                );
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            name => match ARTIFACTS.iter().find(|(known, _)| *known == name) {
                Some(artifact) => selected.push(*artifact),
                None => usage(&format!("unknown artifact `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        selected = ARTIFACTS.to_vec();
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut runner = Runner::new(scale).verbose().jobs(jobs);
    if profile {
        runner = runner.profile();
    }
    if let Some(dir) = &cache_dir {
        runner = runner
            .cache_dir(dir)
            .unwrap_or_else(|e| dir_error("--cache-dir", dir, e));
    }
    eprintln!("using {} worker thread(s)", runner.job_count());
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| dir_error("--out", dir, e));
    }

    for (name, render) in selected {
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-artifact timer goes to stderr only, never into an artifact"
        )]
        let t0 = Instant::now();
        eprintln!(">>> {name}");
        let text = render(&mut runner);
        println!("{text}");
        if let Some(dir) = &out_dir {
            std::fs::write(format!("{dir}/{name}.txt"), &text)
                .unwrap_or_else(|e| dir_error("--out", dir, e));
        }
        eprintln!(
            "<<< {name} done in {:.1?} ({} sims so far)",
            t0.elapsed(),
            runner.runs()
        );
    }

    if profile {
        println!(
            "cumulative over {} simulation(s):\n{}",
            runner.runs(),
            runner.aggregate_profile().render_table()
        );
    }
    if let Some(stats) = runner.store_stats() {
        eprintln!(
            "store: {} warm hit(s), {} miss(es), {} write(s), {} quarantined",
            stats.hits, stats.misses, stats.writes, stats.quarantined
        );
    }
}
