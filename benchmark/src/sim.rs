//! The three simulation workloads: `numa_gpu_core::run_workload` at
//! `sim_threads = 1`, modelled caches empty at the start of every
//! repetition, one warm-up repetition discarded to warm the host's caches.

use crate::checks::{codec_round_trips, Checks};
use crate::drivers::{self, Batch};
use crate::harness::{keep_going, peak_rss_mib, setup_burst, Args, Scratch};
use crate::inputs::{sim_input, SimInput, SimKind};
use crate::metrics::Outcome;
use crate::services::JobSamples;
use crate::spans::Tracer;
use crate::stats;
use numa_gpu_bench::{DiskStore, JobKey};
use numa_gpu_core::{run_workload, NumaGpuSystem, ProfileReport, SimReport};
use numa_gpu_types::{ObsConfig, SimError, SystemConfig};
use std::time::Instant;

/// Rounds of the traced run, each one repetition of every variant.
const TRACE_ROUNDS: usize = 3;

fn counter(profile: &ProfileReport, scope: &str, name: &str) -> u64 {
    profile.get(scope, name).unwrap_or(0)
}

/// The report as the first repetition printed it, profile stripped, so
/// repetitions with and without the profile compare byte for byte.
fn canonical_json(report: &SimReport) -> String {
    let mut bare = report.clone();
    bare.profile = None;
    bare.to_json().to_string()
}

/// The warm-up repetition, profiled so the op and CTA counts can be
/// checked against the input; returns the reference every later
/// repetition must reproduce.
fn warm_up(input: &SimInput, checks: &mut Checks) -> Option<(SimReport, String)> {
    let mut cfg = input.cfg.clone();
    cfg.obs.profile = true;
    let mut op = checks.operation();
    match run_workload(cfg, &input.workload) {
        Ok(report) => {
            op.report_invariants(&report);
            let profile = report.profile.clone().unwrap_or_default();
            op.check(
                "warp_ops_issued_equals_input_ops",
                counter(&profile, "sm", "warp_ops_issued") == input.warp_ops,
            );
            op.check(
                "ctas_completed_equals_input_ctas",
                counter(&profile, "sm", "ctas_completed") == input.ctas,
            );
            let json = canonical_json(&report);
            Some((report, json))
        }
        Err(e) => {
            op.check(&format!("run_workload ({e})"), false);
            None
        }
    }
}

/// One timed repetition; checks run after the clock stops.
fn timed_rep(
    input: &SimInput,
    reference: &str,
    checks: &mut Checks,
    run: impl FnOnce() -> Result<SimReport, SimError>,
) -> (f64, Option<SimReport>) {
    let start = Instant::now();
    let result = run();
    let secs = start.elapsed().as_secs_f64();
    let mut op = checks.operation();
    match result {
        Ok(report) => {
            if report.metrics.is_none() {
                op.report_invariants(&report);
            }
            let mut bare = report.clone();
            bare.metrics = None;
            bare.trace_events.clear();
            op.check(
                "report_identical_to_first",
                canonical_json(&bare) == reference,
            );
            (secs, Some(report))
        }
        Err(e) => {
            op.check(&format!("{} ({e})", input.workload.meta.name), false);
            (secs, None)
        }
    }
}

/// The end-to-end run: tracing off.
pub fn run(kind: SimKind, args: &Args) -> Outcome {
    let started = Instant::now();
    let mut checks = Checks::new(kind.name());
    let (input, setup) = setup_burst(|| sim_input(kind, args.seed, args.smoke));
    let mut out = Outcome::end_to_end();
    let mut reps = Vec::new();
    if let Some((_, reference)) = warm_up(&input, &mut checks) {
        while keep_going(started, args.seconds, &reps) {
            let (secs, _) = timed_rep(&input, &reference, &mut checks, || {
                run_workload(input.cfg.clone(), &input.workload)
            });
            reps.push(secs);
        }
    }
    out.timings(input.warp_ops, &reps, &setup);
    out.set("peak_rss_mib", peak_rss_mib());
    out.counted(&checks)
}

/// The traced run: per-layer counts from a profiled repetition, ns/op from
/// the replay drivers, outside spans around each public call, and what the
/// instrumented repetitions cost against the untraced ones.
pub fn trace(kind: SimKind, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut checks = Checks::new(kind.name());
    let mut out = Outcome::per_layer();
    let (input, _) = tracer.timed("setup", 0, || sim_input(kind, args.seed, args.smoke));
    let warm = tracer
        .timed("rep.warm_up", 0, || warm_up(&input, &mut checks))
        .0;
    let Some((_, reference)) = warm else {
        return out.counted(&checks);
    };

    // Every variant runs once per round, and the rounds interleave them so
    // that the box's drift hits all alike; a variant costs the median of
    // its repetitions.
    let variant = |obs: ObsConfig, sim_threads: u16| {
        let mut cfg = input.cfg.clone();
        cfg.obs = obs;
        cfg.sim_threads = sim_threads;
        cfg
    };
    let profile_on = ObsConfig {
        profile: true,
        ..ObsConfig::off()
    };
    let rep = |name: &str, cfg: SystemConfig, tracer: &mut Tracer, checks: &mut Checks| {
        tracer
            .timed(name, 0, || {
                timed_rep(&input, &reference, checks, || {
                    run_workload(cfg, &input.workload)
                })
            })
            .0
    };
    let (mut base, mut profile_on_s, mut full_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut threads2_s) = (Vec::new(), Vec::new());
    let mut samples = JobSamples::default();
    let mut profiled = None;
    for _ in 0..TRACE_ROUNDS {
        let untraced = variant(ObsConfig::off(), 1);
        base.push(rep("rep.untraced", untraced, tracer, &mut checks).0);
        // (a) counts: the repetition with the self-profile on.
        let (secs, report) = rep("rep.profile", variant(profile_on, 1), tracer, &mut checks);
        profile_on_s.push(secs);
        profiled = report.or(profiled);
        let all_obs = variant(ObsConfig::full(), 1);
        full_s.push(rep("rep.full_obs", all_obs, tracer, &mut checks).0);
        // The measured operation under the tracer, a span around each
        // public call it makes.
        let span = tracer.enter("rep.traced", 0);
        let (secs, _) = timed_rep(&input, &reference, &mut checks, || {
            let (sys, secs) = tracer.timed("core.construct", 0, || {
                NumaGpuSystem::new(input.cfg.clone())
            });
            samples.push("core.construct_ms", secs * 1e3);
            let mut sys = sys?;
            let (report, secs) = tracer.timed("core.run", 0, || sys.run(&input.workload));
            samples.push("core.run_ms", secs * 1e3);
            report
        });
        tracer.exit(span);
        traced_s.push(secs);
        let two = variant(ObsConfig::off(), 2);
        threads2_s.push(rep("rep.sim_threads_2", two, tracer, &mut checks).0);
    }
    let base_s = stats::median(&base);
    out.set(
        "obs.profile_overhead_ratio",
        stats::median(&profile_on_s) / base_s,
    );
    out.set("obs.full_overhead_ratio", stats::median(&full_s) / base_s);
    out.set(
        "obs.trace_overhead_ratio",
        stats::median(&traced_s) / base_s,
    );
    out.set(
        "exec.sim_threads_2_ratio",
        stats::median(&threads2_s) / base_s,
    );

    if let Some(report) = profiled {
        let profile = report.profile.clone().unwrap_or_default();
        let costs = layer_costs(&input, &profile, tracer);
        report_counts(&mut out, &report, &profile, base_s);
        report_costs(&mut out, &costs);
        let attributed = attribute(&mut out, &profile, &costs, base_s);
        // The drivers are layer-alone lower bounds; together they cannot
        // explain more than the whole repetition.
        checks
            .operation()
            .check("attributed_share_at_most_one", attributed <= 1.0);
        let stored = Scratch::new(kind.name()).and_then(|scratch| {
            let mut store = DiskStore::open(scratch.sub("store"))?;
            let key = JobKey::new("bench", report.workload.clone(), false);
            Ok(samples.store_steps(tracer, 0, &mut store, &key, &input.cfg, &report))
        });
        let mut op = checks.operation();
        match stored {
            Ok(same) => op.check("store_round_trip", same),
            Err(e) => op.check(&format!("scratch directory ({e})"), false),
        }
        op.check("codec_round_trip", codec_round_trips(&report));
        samples.report(&mut out);
    }
    out.counted(&checks)
}

/// Counts and simulated statistics read from a profiled report (summed
/// reports for a sweep). `wall_s` is the untraced time they took.
pub fn report_counts(out: &mut Outcome, report: &SimReport, profile: &ProfileReport, wall_s: f64) {
    let c = |scope: &str, name: &str| counter(profile, scope, name) as f64;
    let events = c("engine", "events_popped");
    out.set("engine.events_popped", events);
    out.set("engine.ns_per_event", wall_s * 1e9 / events.max(1.0));
    for name in [
        "queue_rebuilds",
        "queue_overflow_pushes",
        "queue_promotions",
        "queue_rebases",
        "queue_peak_len",
        "cross_msgs_merged",
        "window_barriers",
    ] {
        out.set(&format!("engine.{name}"), c("engine", name));
    }
    for name in ["warp_ops_issued", "ctas_completed", "mshr_stall_parks"] {
        out.set(&format!("sm.{name}"), c("sm", name));
    }
    for name in [
        "l1_accesses",
        "l2_accesses",
        "l1_fills",
        "l2_fills",
        "l2_evictions",
    ] {
        out.set(&format!("cache.{name}"), c("cache", name));
    }
    out.set("cache.l1_hit_ratio", report.l1.hit_rate());
    let (mut hits, mut accesses) = (0u64, 0u64);
    for socket in &report.sockets {
        let l2 = &socket.l2;
        let h = l2.local_hits.get() + l2.remote_hits.get();
        hits += h;
        accesses += h + l2.local_misses.get() + l2.remote_misses.get();
    }
    out.set("cache.l2_hit_ratio", hits as f64 / accesses.max(1) as f64);
    for name in ["page_lookups", "pages_placed", "dram_reads", "dram_writes"] {
        out.set(&format!("mem.{name}"), c("mem", name));
    }
    out.set(
        "interconnect.noc_requests",
        c("interconnect", "noc_requests"),
    );
    out.set(
        "interconnect.link_bytes",
        c("interconnect", "link_egress_bytes"),
    );
    out.set("interconnect.lane_turns", c("interconnect", "lane_turns"));
    out.set("core.total_cycles", report.total_cycles as f64);
    out.set("core.remote_read_fraction", report.remote_read_fraction);
    out.set("core.report_bytes", canonical_json(report).len() as f64);
}

/// ns/op of every layer the replay drivers cover.
struct LayerCosts {
    tracegen: Batch,
    launch: Batch,
    page_table: Batch,
    sm_issue: Batch,
    cache_hit: Batch,
    cache_miss_fill: Batch,
    mshr: Batch,
    partitioned: Batch,
    dram: Batch,
    queue_near: Batch,
    queue_rebuild: Batch,
    merge: Batch,
    service_queue: Batch,
    link_send: Batch,
    route: Batch,
}

/// (b) replay drivers, one span per batch.
fn layer_costs(input: &SimInput, profile: &ProfileReport, tracer: &mut Tracer) -> LayerCosts {
    let cfg = &input.cfg;
    let all = tracer.enter("drivers", 0);
    let stream = tracer
        .timed("driver.materialise", 0, || drivers::mem_stream(input))
        .0;
    let tracegen = tracer
        .timed("driver.tracegen", 0, || drivers::tracegen(input))
        .0;
    let launch = tracer
        .timed("driver.launch", 0, || drivers::launch(input))
        .0;
    let (page_table, homes) = tracer
        .timed("driver.page_table", 0, || drivers::page_table(cfg, &stream))
        .0;
    let sm_issue = tracer
        .timed("driver.sm_issue", 0, || drivers::sm_issue(input, &homes))
        .0;
    let cache_hit = tracer
        .timed("driver.cache_hit", 0, || {
            drivers::cache_hit(cfg, &stream, &homes)
        })
        .0;
    let cache_miss_fill = tracer
        .timed("driver.cache_miss_fill", 0, || {
            drivers::cache_miss_fill(cfg, &stream, &homes)
        })
        .0;
    let mshr = tracer
        .timed("driver.mshr", 0, || drivers::mshr(cfg, &stream, &homes))
        .0;
    let (partitioned, misses) = tracer
        .timed("driver.cache_partitioned", 0, || {
            drivers::partitioned(cfg, &stream, &homes)
        })
        .0;
    let dram = tracer
        .timed("driver.dram", 0, || drivers::dram(cfg, &misses, &stream))
        .0;
    let queue_near = tracer
        .timed("driver.event_queue_near", 0, || {
            drivers::event_queue_near(cfg, counter(profile, "engine", "queue_peak_len"))
        })
        .0;
    let queue_rebuild = tracer
        .timed("driver.event_queue_rebuild", 0, || {
            drivers::event_queue_rebuild(counter(profile, "engine", "queue_peak_len"))
        })
        .0;
    let merge = tracer
        .timed("driver.merge", 0, || {
            drivers::merge(
                cfg,
                counter(profile, "engine", "cross_msgs_merged"),
                counter(profile, "engine", "window_barriers"),
            )
        })
        .0;
    let service_queue = tracer
        .timed("driver.service_queue", 0, || drivers::service_queue(cfg))
        .0;
    let link_send = tracer
        .timed("driver.link_send", 0, || drivers::link_send(cfg))
        .0;
    let route = tracer.timed("driver.route", 0, || drivers::route(cfg)).0;
    tracer.exit(all);
    LayerCosts {
        tracegen,
        launch,
        page_table,
        sm_issue,
        cache_hit,
        cache_miss_fill,
        mshr,
        partitioned,
        dram,
        queue_near,
        queue_rebuild,
        merge,
        service_queue,
        link_send,
        route,
    }
}

fn report_costs(out: &mut Outcome, c: &LayerCosts) {
    for (name, batch) in [
        ("workloads.tracegen_ns_per_op", c.tracegen),
        ("runtime.launch_ns_per_cta", c.launch),
        ("mem.page_table_ns_per_lookup", c.page_table),
        ("sm.issue_ns_per_op", c.sm_issue),
        ("cache.hit_ns_per_access", c.cache_hit),
        ("cache.miss_fill_ns_per_access", c.cache_miss_fill),
        ("cache.mshr_ns_per_op", c.mshr),
        ("cache.partitioned_ns_per_access", c.partitioned),
        ("mem.dram_ns_per_req", c.dram),
        ("engine.event_queue_near_ns_per_op", c.queue_near),
        ("engine.queue_rebuild_ns_at_peak", c.queue_rebuild),
        ("engine.merge_ns_per_msg", c.merge),
        ("engine.service_queue_ns_per_req", c.service_queue),
        ("interconnect.link_send_ns", c.link_send),
        ("interconnect.route_ns_per_msg", c.route),
    ] {
        out.set(name, batch.ns_per_call());
    }
}

/// (a × b): Σ count × ns/op over rows that do not overlap, as a share of
/// the untraced repetition; the rest is what no layer driver explains —
/// glue in `core::exec` / `mempath`, host-cache misses the warm drivers do
/// not pay, and the event queue's overflow and rebuild paths, which are
/// priced at the near-tick cost only (`core.rebuild_share_at_most` says how
/// much of the rest the rebuilds can be). The SM row already contains its L1
/// and MSHRs, so the cache rows cover the L2 only; `Topology::route` is not
/// on the simulator's path (the shards charge their own access links) and
/// is left out. Returns the attributed share.
fn attribute(out: &mut Outcome, profile: &ProfileReport, c: &LayerCosts, wall_s: f64) -> f64 {
    let n = |scope: &str, name: &str| counter(profile, scope, name) as f64;
    let l2_fills = n("cache", "l2_fills");
    let l2_hits = (n("cache", "l2_accesses") - l2_fills).max(0.0);
    let rows = [
        n("sm", "warp_ops_issued") * c.tracegen.ns_per_call(),
        n("sm", "ctas_completed") * c.launch.ns_per_call(),
        n("sm", "warp_ops_issued") * c.sm_issue.ns_per_call(),
        n("mem", "page_lookups") * c.page_table.ns_per_call(),
        l2_hits * c.cache_hit.ns_per_call(),
        l2_fills * c.cache_miss_fill.ns_per_call(),
        (n("mem", "dram_reads") + n("mem", "dram_writes")) * c.dram.ns_per_call(),
        n("engine", "events_popped") * c.queue_near.ns_per_call(),
        n("engine", "cross_msgs_merged") * c.merge.ns_per_call(),
        n("interconnect", "noc_requests") * c.service_queue.ns_per_call(),
        // Every cross-socket message is one egress and one ingress send.
        2.0 * n("engine", "cross_msgs_merged") * c.link_send.ns_per_call(),
    ];
    let attributed = rows.iter().sum::<f64>() / (wall_s * 1e9);
    out.set("core.attributed_share", attributed);
    out.set("core.residual_share", 1.0 - attributed);
    let rebuilds_ns = n("engine", "queue_rebuilds") * c.queue_rebuild.ns_per_call();
    // Above 1 the bound says nothing: the queue rebuilt far below its peak.
    let at_most = (rebuilds_ns / (wall_s * 1e9)).min(1.0);
    out.set("core.rebuild_share_at_most", at_most);
    attributed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each replay driver makes as many calls as the simulator counts for
    /// the same workload. The page table is the one with a tolerance: the
    /// driver looks up once per memory op, the simulator once more for
    /// every dirty line it writes back (evictions and kernel-boundary
    /// flushes), and writes are under half of any workload's memory ops.
    #[test]
    fn driver_calls_match_profile_counts() {
        for kind in [
            SimKind::RemoteIrregular,
            SimKind::LocalStream,
            SimKind::HitTiled,
        ] {
            let input = sim_input(kind, 5, true);
            let mut checks = Checks::new(kind.name());
            let (report, _) = warm_up(&input, &mut checks).expect("smoke workload runs");
            assert_eq!(checks.failed, 0, "{kind:?}");
            let profile = report.profile.expect("warm-up is profiled");
            let issued = counter(&profile, "sm", "warp_ops_issued");
            let stream = drivers::mem_stream(&input);
            assert_eq!(drivers::tracegen(&input).calls, issued, "{kind:?}");
            let (lookups, homes) = drivers::page_table(&input.cfg, &stream);
            assert_eq!(drivers::sm_issue(&input, &homes).calls, issued, "{kind:?}");
            let counted = counter(&profile, "mem", "page_lookups");
            assert!(
                lookups.calls <= counted && counted <= lookups.calls * 3 / 2,
                "{kind:?}: driver {} vs profile {counted}",
                lookups.calls
            );
            assert_eq!(
                drivers::launch(&input).calls % counter(&profile, "sm", "ctas_completed"),
                0,
                "{kind:?}"
            );
        }
    }

    /// The drivers are layer-alone lower bounds, so what they attribute of
    /// a real repetition stays between nothing and all of it.
    #[test]
    fn attributed_share_of_a_real_repetition_is_a_share() {
        let input = sim_input(SimKind::HitTiled, 5, true);
        let mut checks = Checks::new("hit_tiled");
        let (report, reference) = warm_up(&input, &mut checks).expect("smoke workload runs");
        let profile = report.profile.clone().expect("warm-up is profiled");
        let (wall_s, _) = timed_rep(&input, &reference, &mut checks, || {
            run_workload(input.cfg.clone(), &input.workload)
        });
        let mut tracer = Tracer::new();
        let costs = layer_costs(&input, &profile, &mut tracer);
        let mut out = Outcome::per_layer();
        let attributed = attribute(&mut out, &profile, &costs, wall_s);
        assert!(attributed > 0.0 && attributed <= 1.0, "{attributed}");
        let share = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(share("core.attributed_share"), attributed);
        assert!((attributed + share("core.residual_share") - 1.0).abs() < 1e-12);
        let spans = tracer.finish();
        assert!(spans.iter().any(|s| s.name == "driver.page_table"));
    }
}
