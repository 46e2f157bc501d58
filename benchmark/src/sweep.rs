//! The sweep workloads: the quick-scale Figure 3 plan (164 simulations)
//! through `Runner::new(Scale::quick()).jobs(1).cache_dir(dir)` — what a
//! `figures --quick` user waits for. `sweep_cold` times passes into a fresh
//! directory with a fresh `Runner`; `sweep_warm` times passes of a fresh
//! `Runner` over a directory an earlier pass filled, so no simulation runs.

use crate::checks::Checks;
use crate::harness::{keep_going, peak_rss_mib, setup_burst, Args, Scratch};
use crate::inputs::sweep_plan;
use crate::metrics::Outcome;
use crate::services::{self, JobSamples};
use crate::sim::report_counts;
use crate::spans::Tracer;
use numa_gpu_bench::codec::encode_report;
use numa_gpu_bench::{DiskStore, JobKey, Runner, SimPlan, StoreKey};
use numa_gpu_core::{ProfileReport, SimReport};
use numa_gpu_workloads::{catalog, Scale};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A warm pass takes milliseconds; the median of this many is as steady as
/// the box lets it get, so the run ends here if `--seconds` have not passed.
const MAX_PASSES: usize = 300;
/// Every n-th job of the first pass is also simulated directly and
/// compared with what the `Runner` returned.
const DIRECT_EVERY: usize = 8;

/// `to_json()` of every job's report, the reference later passes must
/// reproduce byte for byte.
type Reference = BTreeMap<JobKey, String>;

/// One pass: a fresh `Runner` on `dir` executes the whole plan. Returns the
/// wall seconds of the two calls together.
fn pass(plan: &SimPlan, dir: &Path) -> std::io::Result<(f64, Runner)> {
    let todo = plan.clone();
    let start = Instant::now();
    let mut runner = Runner::new(Scale::quick()).jobs(1).cache_dir(dir)?;
    runner.execute(todo);
    Ok((start.elapsed().as_secs_f64(), runner))
}

/// [`pass`] with a span around each of the two calls.
fn traced_pass(plan: &SimPlan, dir: &Path, tracer: &mut Tracer) -> std::io::Result<(f64, Runner)> {
    let todo = plan.clone();
    let (runner, open_s) = tracer.timed("bench.runner_open", 0, || {
        Runner::new(Scale::quick()).jobs(1).cache_dir(dir)
    });
    let mut runner = runner?;
    let ((), execute_s) = tracer.timed("bench.runner_execute", 0, || runner.execute(todo));
    Ok((open_s + execute_s, runner))
}

/// Checks one pass, one operation per simulation plus one for the pass.
fn check_pass(
    plan: &SimPlan,
    runner: &Runner,
    cold: bool,
    reference: &mut Reference,
    checks: &mut Checks,
) {
    let first = reference.is_empty();
    for (i, job) in plan.jobs().iter().enumerate() {
        let mut op = checks.operation();
        let Some(report) = runner.cached(&job.key) else {
            op.check("runner_returned_a_report", false);
            continue;
        };
        let json = report.to_json().to_string();
        if first {
            op.report_invariants(&report);
            if i % DIRECT_EVERY == 0 {
                let direct = numa_gpu_core::run_workload(job.cfg.clone(), &job.workload);
                op.check(
                    "runner_equals_direct_run",
                    direct.is_ok_and(|d| d == *report),
                );
            }
            reference.insert(job.key.clone(), json);
        } else {
            op.check(
                "report_identical_to_first_pass",
                reference.get(&job.key) == Some(&json),
            );
        }
    }
    let mut op = checks.operation();
    let jobs = plan.len() as u64;
    if cold {
        op.check("cold_pass_simulated_every_job", runner.runs() == jobs);
    } else {
        op.check("warm_pass_simulated_nothing", runner.runs() == 0);
        op.check("warm_pass_hit_every_job", runner.warm_hits() == jobs);
    }
}

/// The end-to-end run of `sweep_cold` (`cold`) or `sweep_warm`.
pub fn run(cold: bool, args: &Args) -> Outcome {
    let started = Instant::now();
    let name = if cold { "sweep_cold" } else { "sweep_warm" };
    let mut checks = Checks::new(name);
    let mut out = Outcome::end_to_end();
    let mut reference = Reference::new();
    let result = (|| -> std::io::Result<()> {
        let scratch = Scratch::new(name)?;
        let (plan, setup) = setup_burst(|| sweep_plan(args.seed, args.smoke));
        // An untimed cold pass first: it warms the host, fixes the
        // reference, and fills the directory the warm passes read. It is
        // not part of `sweep_warm`'s set-up because it is `sweep_cold`'s
        // measured pass.
        let filled = scratch.sub("filled");
        let (_, runner) = pass(&plan, &filled)?;
        check_pass(&plan, &runner, true, &mut reference, &mut checks);
        let mut walls = Vec::new();
        while walls.len() < MAX_PASSES && keep_going(started, args.seconds, &walls) {
            let dir = if cold {
                scratch.sub("fresh")
            } else {
                filled.clone()
            };
            let (wall, runner) = pass(&plan, &dir)?;
            walls.push(wall);
            check_pass(&plan, &runner, cold, &mut reference, &mut checks);
        }
        out.timings(plan.len() as u64, &walls, &setup);
        Ok(())
    })();
    if let Err(e) = result {
        checks.operation().check(&format!("sweep I/O ({e})"), false);
    }
    out.set("peak_rss_mib", peak_rss_mib());
    out.counted(&checks)
}

/// Sums of the simulated statistics over a pass, shaped like one report so
/// `report_counts` can read them.
fn add_report(total: &mut SimReport, profile: &mut ProfileReport, report: &SimReport) {
    total.total_cycles += report.total_cycles;
    total.remote_read_fraction += report.remote_read_fraction;
    total.sockets.extend(report.sockets.iter().cloned());
    for (sum, part) in [
        (&mut total.l1.local_hits, report.l1.local_hits),
        (&mut total.l1.local_misses, report.l1.local_misses),
        (&mut total.l1.remote_hits, report.l1.remote_hits),
        (&mut total.l1.remote_misses, report.l1.remote_misses),
    ] {
        sum.add(part.get());
    }
    if let Some(p) = &report.profile {
        for scope in &p.scopes {
            for (counter, value) in &scope.counters {
                // A high-water mark does not add up; keep the largest.
                if counter == "queue_peak_len" {
                    let seen = profile.get(&scope.name, counter).unwrap_or(0);
                    profile
                        .scope(&scope.name)
                        .count(counter, value.saturating_sub(seen));
                } else {
                    profile.scope(&scope.name).count(counter, *value);
                }
            }
        }
    }
}

/// The traced run. Each sweep workload traces its own phase: `sweep_cold`
/// the cold pass and every job step by step (with the self-profile on, for
/// the counts); `sweep_warm` the warm pass and every entry's load and
/// decode.
pub fn trace(cold: bool, args: &Args, tracer: &mut Tracer) -> Outcome {
    let name = if cold { "sweep_cold" } else { "sweep_warm" };
    let mut checks = Checks::new(name);
    let mut out = Outcome::per_layer();
    let mut reference = Reference::new();
    let result = (|| -> std::io::Result<()> {
        let scratch = Scratch::new(name)?;
        let (plan, _) = tracer.timed("setup", 0, || sweep_plan(args.seed, args.smoke));
        let filled = scratch.sub("filled");
        let (cold_s, runner) = tracer.timed("pass.cold", 0, || pass(&plan, &filled)).0?;
        check_pass(&plan, &runner, true, &mut reference, &mut checks);
        if cold {
            trace_cold(
                &plan,
                cold_s,
                &scratch,
                &mut reference,
                tracer,
                &mut checks,
                &mut out,
            )
        } else {
            trace_warm(
                &plan,
                &runner,
                &filled,
                &mut reference,
                tracer,
                &mut checks,
                &mut out,
            )
        }
    })();
    if let Err(e) = result {
        checks.operation().check(&format!("sweep I/O ({e})"), false);
    }
    out.counted(&checks)
}

/// The cold pass once more under spans, then (c) every job step by step, a
/// span around each public call, with the self-profile on for the counts
/// (a).
fn trace_cold(
    plan: &SimPlan,
    cold_s: f64,
    scratch: &Scratch,
    reference: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let builds: Vec<f64> = (0..25)
        .map(|_| {
            let build = || catalog(&Scale::quick());
            tracer.timed("workloads.catalog_build", 0, build).1 * 1e3
        })
        .collect();
    out.set_median("workloads.catalog_build_ms", &builds);

    let span = tracer.enter("pass.cold_traced", 0);
    let (traced_s, runner) = traced_pass(plan, &scratch.sub("fresh"), tracer)?;
    tracer.exit(span);
    check_pass(plan, &runner, true, reference, checks);
    out.set("obs.trace_overhead_ratio", traced_s / cold_s);

    let span = tracer.enter("pass.step_by_step", 0);
    let mut store = DiskStore::open(scratch.sub("steps"))?;
    let mut total = SimReport::default();
    let mut profile = ProfileReport::new();
    let mut samples = JobSamples::default();
    let mut report_bytes = 0usize;
    for (i, job) in plan.jobs().iter().enumerate() {
        let mut op = checks.operation();
        match samples.job(tracer, i as u64 + 1, &mut store, job, true) {
            Ok((report, stored)) => {
                op.check("store_round_trip", stored);
                let mut bare = report.clone();
                bare.profile = None;
                let json = bare.to_json().to_string();
                op.check(
                    "step_by_step_equals_runner",
                    reference.get(&job.key) == Some(&json),
                );
                report_bytes += json.len();
                add_report(&mut total, &mut profile, &report);
            }
            Err(e) => op.check(&format!("{} ({e})", job.key.display()), false),
        }
    }
    tracer.exit(span);

    total.remote_read_fraction /= plan.len().max(1) as f64;
    let run_s = samples.total("core.run_ms") / 1e3;
    let sim_s = samples.total("core.construct_ms") / 1e3 + run_s;
    report_counts(out, &total, &profile, run_s);
    out.set("core.report_bytes", report_bytes as f64);
    out.set("bench.runner_overhead_share", (cold_s - sim_s) / cold_s);
    samples.report(out);
    let pool = tracer.timed("driver.pool", 0, services::pool).0;
    out.set("exec.pool_us_per_job", pool.ns_per_call() / 1e3);
    Ok(())
}

/// A warm pass plain and once more under spans, then (c) every entry of
/// the filled store step by step: `StoreKey::new`, `DiskStore::load`,
/// `decode_report`.
fn trace_warm(
    plan: &SimPlan,
    filler: &Runner,
    filled: &Path,
    reference: &mut Reference,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let (warm_s, runner) = tracer.timed("pass.warm", 0, || pass(plan, filled)).0?;
    check_pass(plan, &runner, false, reference, checks);
    let span = tracer.enter("pass.warm_traced", 0);
    let (traced_s, runner) = traced_pass(plan, filled, tracer)?;
    tracer.exit(span);
    check_pass(plan, &runner, false, reference, checks);
    out.set("obs.trace_overhead_ratio", traced_s / warm_s);

    let span = tracer.enter("pass.step_by_step", 0);
    let mut store = DiskStore::open(filled)?;
    let mut samples = JobSamples::default();
    for (i, job) in plan.jobs().iter().enumerate() {
        let id = i as u64 + 1;
        let mut op = checks.operation();
        let Some(report) = filler.cached(&job.key) else {
            op.check("runner_returned_a_report", false);
            continue;
        };
        let (skey, secs) = tracer.timed("bench.store_key", id, || {
            StoreKey::new(&job.key, &job.cfg, &Scale::quick())
        });
        samples.push("bench.store_key_us", secs * 1e6);
        let doc = encode_report(&report).ok();
        let same = samples.load_steps(tracer, id, &mut store, &skey, doc, &report);
        op.check("filled_store_gives_the_report_back", same);
    }
    tracer.exit(span);
    samples.report(out);
    Ok(())
}
