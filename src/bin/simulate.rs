//! Command-line front end: run one catalog workload on one configuration,
//! or host/query the sim-as-a-service daemon.
//!
//! ```text
//! simulate serve --socket PATH --cache-dir DIR [--workers N] [--verbose]
//!                [--deadline SECS]   # host the daemon (blocks until SHUTDOWN)
//! simulate submit --socket PATH key=value...   # submit a job (see serve protocol)
//! simulate submit --socket PATH --ping|--stats|--shutdown
//!
//! simulate --workload Rodinia-Euler3D [--sockets N] [--quick|--full]
//!          [--cache memside|static|shared|numa-aware]
//!          [--link static|dynamic|2x]
//!          [--placement fine|page|first-touch]
//!          [--cta interleave|contiguous]
//!          [--baseline]            # also run the single-GPU baseline
//!          [--jobs N]              # worker threads (with --baseline, runs both sims
//!                                  # concurrently; output is byte-identical to --jobs 1)
//!          [--timeline]            # print the link utilization timeline
//!          [--metrics]             # collect counters and print the metrics snapshot JSON
//!          [--profile]             # print the self-profile work-attribution table
//!                                  # (report-time summary; cannot perturb timing)
//!          [--trace-out FILE]      # write a Chrome trace_event JSON (chrome://tracing)
//!          [--max-cycles N]        # abort with an error if the run exceeds N cycles
//!          [--cache-dir DIR]       # read/write the on-disk content-addressed result
//!                                  # store (observability runs bypass it)
//! ```
//!
//! Simulation failures (scheduler deadlock, cycle budget exhausted) print
//! the error and exit with status 3; usage errors exit with status 2.

use numa_gpu::bench::{JobKey, Runner, SimPlan};
use numa_gpu::types::{
    CacheMode, CtaSchedulingPolicy, LinkMode, PagePlacement, SimError, SystemConfig,
};
use numa_gpu::workloads::{by_name, Scale, WORKLOAD_NAMES};
use std::num::NonZeroUsize;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!(
        "usage: simulate --workload NAME [--sockets N] [--quick|--full] \
         [--cache memside|static|shared|numa-aware] [--link static|dynamic|2x] \
         [--placement fine|page|first-touch] [--cta interleave|contiguous] \
         [--baseline] [--jobs N] [--timeline] [--metrics] [--profile] \
         [--trace-out FILE] [--max-cycles N] [--cache-dir DIR]\n\
         \x20      simulate serve --socket PATH --cache-dir DIR [--workers N] [--verbose] \
         [--deadline SECS]\n\
         \x20      simulate submit --socket PATH key=value... | --ping | --stats | --shutdown"
    );
    eprintln!("\nworkloads:");
    for n in WORKLOAD_NAMES {
        eprintln!("  {n}");
    }
    std::process::exit(2);
}

/// Prints a simulation failure and exits with a status distinct from usage
/// errors so harnesses can tell "bad invocation" from "run did not finish".
fn fail(e: &SimError) -> ! {
    eprintln!("simulation error: {e}");
    std::process::exit(3);
}

/// `simulate serve`: host the daemon in the foreground until SHUTDOWN.
fn serve_main(args: &[String]) {
    use numa_gpu::serve::{Daemon, DaemonConfig};

    let mut socket = None;
    let mut cache_dir = None;
    let mut workers: usize = 2;
    let mut verbose = false;
    let mut deadline_secs: u64 = 600;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--workers" => {
                workers = value("--workers").parse::<NonZeroUsize>().map_or_else(
                    |_| usage("--workers must be a positive integer"),
                    NonZeroUsize::get,
                );
            }
            "--deadline" => {
                deadline_secs = value("--deadline")
                    .parse()
                    .unwrap_or_else(|_| usage("--deadline must be seconds"));
            }
            "--verbose" => verbose = true,
            other => usage(&format!("unknown serve argument `{other}`")),
        }
    }
    let socket = socket.unwrap_or_else(|| usage("serve requires --socket PATH"));
    let cache_dir = cache_dir.unwrap_or_else(|| usage("serve requires --cache-dir DIR"));
    let mut config = DaemonConfig::new(socket, cache_dir);
    config.workers = workers;
    config.verbose = verbose;
    config.default_deadline = std::time::Duration::from_secs(deadline_secs);
    let daemon = Daemon::bind(config).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(3);
    });
    if let Err(e) = daemon.serve() {
        eprintln!("serve: {e}");
        std::process::exit(3);
    }
}

/// `simulate submit`: one protocol exchange with a running daemon.
fn submit_main(args: &[String]) {
    use numa_gpu::serve::{Client, JobSpec};

    let mut socket = None;
    let mut action = None; // --ping | --stats | --shutdown
    let mut spec_tokens: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--socket needs a value"))
                        .clone(),
                );
            }
            "--ping" | "--stats" | "--shutdown" => action = Some(arg.clone()),
            other if other.contains('=') => spec_tokens.push(other.to_string()),
            other => usage(&format!("unknown submit argument `{other}`")),
        }
    }
    let socket = socket.unwrap_or_else(|| usage("submit requires --socket PATH"));
    let mut client = Client::connect(&socket).unwrap_or_else(|e| {
        eprintln!("submit: cannot connect to {socket}: {e}");
        std::process::exit(3);
    });
    let outcome = match action.as_deref() {
        Some("--ping") => client.ping().map(|()| println!("PONG")),
        Some("--stats") => client.stats().map(|s| println!("{s}")),
        Some("--shutdown") => client.shutdown().map(|()| println!("OK")),
        _ => {
            if spec_tokens.is_empty() {
                usage("submit requires key=value job tokens (or --ping/--stats/--shutdown)");
            }
            let spec = JobSpec::parse(&spec_tokens.join(" ")).unwrap_or_else(|e| usage(&e));
            match client.submit(&spec) {
                Err(e) => Err(e),
                Ok(sub) => {
                    for event in &sub.events {
                        eprintln!("event: {event}");
                    }
                    if let Some((class, msg)) = &sub.error {
                        eprintln!("job failed ({class}): {msg}");
                        std::process::exit(3);
                    }
                    println!("{}", sub.result.as_deref().unwrap_or(""));
                    Ok(())
                }
            }
        }
    };
    if let Err(e) = outcome {
        eprintln!("submit: {e}");
        std::process::exit(3);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("submit") => return submit_main(&args[1..]),
        _ => {}
    }
    let mut workload_name = None;
    let mut sockets: u8 = 4;
    let mut scale = Scale::full();
    let mut cache = CacheMode::NumaAwareDynamic;
    let mut link = LinkMode::DynamicAsymmetric;
    let mut lane_rate_factor = 1;
    let mut placement = PagePlacement::FirstTouch;
    let mut cta = CtaSchedulingPolicy::ContiguousBlock;
    let mut baseline = false;
    let mut jobs: usize = 1;
    let mut timeline = false;
    let mut metrics = false;
    let mut profile = false;
    let mut trace_out: Option<String> = None;
    let mut max_cycles: u64 = 0;
    let mut cache_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--workload" => workload_name = Some(value("--workload")),
            "--sockets" => {
                sockets = value("--sockets")
                    .parse()
                    .unwrap_or_else(|_| usage("--sockets must be 1..=32"));
            }
            "--quick" => scale = Scale::quick(),
            "--full" => scale = Scale::full(),
            "--cache" => {
                cache = match value("--cache").as_str() {
                    "memside" => CacheMode::MemSideLocalOnly,
                    "static" => CacheMode::StaticRemoteCache,
                    "shared" => CacheMode::SharedCoherent,
                    "numa-aware" => CacheMode::NumaAwareDynamic,
                    other => usage(&format!("unknown cache mode `{other}`")),
                }
            }
            "--link" => {
                (link, lane_rate_factor) = match value("--link").as_str() {
                    "static" => (LinkMode::StaticSymmetric, 1),
                    "dynamic" => (LinkMode::DynamicAsymmetric, 1),
                    // Fig 6's upper bound: static links at twice the lane rate.
                    "2x" => (LinkMode::StaticSymmetric, 2),
                    other => usage(&format!("unknown link mode `{other}`")),
                }
            }
            "--placement" => {
                placement = match value("--placement").as_str() {
                    "fine" => PagePlacement::FineInterleave,
                    "page" => PagePlacement::PageInterleave,
                    "first-touch" => PagePlacement::FirstTouch,
                    other => usage(&format!("unknown placement `{other}`")),
                }
            }
            "--cta" => {
                cta = match value("--cta").as_str() {
                    "interleave" => CtaSchedulingPolicy::Interleave,
                    "contiguous" => CtaSchedulingPolicy::ContiguousBlock,
                    other => usage(&format!("unknown CTA policy `{other}`")),
                }
            }
            "--baseline" => baseline = true,
            "--jobs" => {
                jobs = value("--jobs").parse::<NonZeroUsize>().map_or_else(
                    |_| usage("--jobs must be a positive integer"),
                    NonZeroUsize::get,
                );
            }
            "--timeline" => timeline = true,
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--max-cycles" => {
                max_cycles = value("--max-cycles")
                    .parse()
                    .unwrap_or_else(|_| usage("--max-cycles must be a positive integer"));
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let Some(name) = workload_name else {
        usage("--workload is required");
    };
    let Some(workload) = by_name(&name, &scale) else {
        usage(&format!("unknown workload `{name}`"));
    };

    let mut cfg = SystemConfig::numa_sockets(sockets);
    cfg.cache_mode = cache;
    cfg.link.mode = link;
    cfg.link.lane_bytes_per_cycle *= lane_rate_factor;
    cfg.placement = placement;
    cfg.cta_policy = cta;
    cfg.obs.metrics = metrics;
    cfg.obs.profile = profile;
    cfg.obs.trace = trace_out.is_some();
    cfg.max_cycles = max_cycles;
    cfg.validate().unwrap_or_else(|e| usage(&e.to_string()));

    // One job path: the main job (plus the single-GPU baseline) is a
    // `SimPlan` run by the same `Runner` that runs `figures`, so the memo,
    // the store policy and the worker pool are the ones every front end
    // uses. Stdout is byte-identical at any `--jobs` count (printing stays
    // serial, in a fixed order).
    let mut runner = Runner::new(scale).jobs(jobs);
    if let Some(dir) = &cache_dir {
        runner = runner
            .cache_dir(dir)
            .unwrap_or_else(|e| usage(&format!("--cache-dir {dir}: {e}")));
    }
    let main_key = JobKey::new("cli", workload.meta.name.clone(), timeline);
    let mut plan = SimPlan::new();
    plan.push(main_key.clone(), cfg, &workload);
    if baseline {
        plan.job("single", SystemConfig::pascal_single(), &workload);
    }
    runner.try_execute(plan).unwrap_or_else(|e| fail(&e));
    let report = runner.lookup_key(&main_key);
    println!("{report}");
    for (i, s) in report.sockets.iter().enumerate() {
        println!(
            "  GPU{i}: egress {:>6} KiB, ingress {:>6} KiB, dram {:>6} KiB, L2 hit {:.1}%, lane turns {}{}",
            s.egress_bytes >> 10,
            s.ingress_bytes >> 10,
            s.dram_bytes >> 10,
            100.0 * s.l2.hit_rate(),
            s.lane_turns,
            match s.l2_partition {
                Some((l, r)) => format!(", L2 ways {l}L/{r}R"),
                None => String::new(),
            }
        );
    }
    if timeline {
        println!("\ncycle,gpu,egress_util,ingress_util,egress_lanes,ingress_lanes");
        for (g, tl) in report.link_timelines.iter().enumerate() {
            for s in tl {
                println!(
                    "{},{},{:.3},{:.3},{},{}",
                    s.cycle, g, s.egress_util, s.ingress_util, s.egress_lanes, s.ingress_lanes
                );
            }
        }
    }

    if let Some(path) = &trace_out {
        let doc = report.chrome_trace().to_string();
        std::fs::write(path, &doc).unwrap_or_else(|e| usage(&format!("cannot write trace: {e}")));
        eprintln!(
            "wrote {} trace event(s) to {path}",
            report.trace_events.len()
        );
    }
    if metrics {
        let snap = report.metrics.as_ref().expect("metrics enabled before run");
        println!("\nmetrics {}", snap.to_json());
    }
    if profile {
        let p = report.profile.as_ref().expect("profile enabled before run");
        println!("\n{}", p.render_table());
    }

    if baseline {
        let single = runner.lookup("single", &workload);
        println!("\nbaseline {single}");
        println!(
            "speedup vs single GPU: {:.2}x",
            report.speedup_over(&single)
        );
    }
    if let Some(stats) = runner.store_stats() {
        eprintln!(
            "cache: {} warm hit(s), {} miss(es), {} write(s), {} quarantined",
            stats.hits, stats.misses, stats.writes, stats.quarantined
        );
    }
}
