//! The service workloads: an in-process `Daemon` (2 workers, fresh socket
//! and cache directory) and `min(2, nproc)` closed-loop clients speaking
//! the line protocol — closed loop because each caller waits for its
//! reply before sending the next request. `serve_cold` times passes of the
//! 533-job mix, each into a fresh daemon with an empty store, every job a
//! simulation; `serve_warm` times passes over a store that already holds
//! every result, so no simulation runs and the protocol, dispatcher, store
//! and codec are all that is left.

use crate::checks::Checks;
use crate::harness::{keep_going, peak_rss_mib, setup_burst, Args, Scratch};
use crate::inputs::serve_jobs;
use crate::metrics::Outcome;
use crate::services::{self, JobSamples};
use crate::spans::Tracer;
use crate::stats;
use numa_gpu_bench::codec::{decode_report, encode_report};
use numa_gpu_bench::{DiskStore, StoreKey};
use numa_gpu_serve::{Client, Daemon, DaemonConfig, JobSpec};
use numa_gpu_testkit::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

const DAEMON_WORKERS: usize = 2;

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A daemon serving on its own thread; stopped and joined on drop.
struct Server {
    socket: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(dir: &Path) -> std::io::Result<Server> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let mut config = DaemonConfig::new(&socket, dir.join("cache"));
        config.workers = DAEMON_WORKERS;
        let daemon = Daemon::bind(config)?;
        Ok(Server {
            socket,
            thread: Some(std::thread::spawn(move || daemon.serve())),
        })
    }

    /// The daemon's `STATS` document.
    fn stats(&self) -> std::io::Result<Json> {
        let raw = Client::connect(&self.socket)?.stats()?;
        Json::parse(&raw).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.socket) {
            let _ = client.shutdown();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One submission as its client saw it, an instant per protocol line.
#[derive(Debug)]
struct Exchange {
    sent: Instant,
    acked: Instant,
    /// The first `EVENT` line: `queued` on the cold path, `warm` on a hit.
    event: Option<(String, Instant)>,
    done: Instant,
    /// The `RESULT` document, or the error line.
    result: Result<String, String>,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    fn was(&self, word: &str) -> bool {
        self.event.as_ref().is_some_and(|(w, _)| w == word)
    }
}

/// A client that stamps every line it reads.
struct LineClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl LineClient {
    fn connect(socket: &Path) -> std::io::Result<LineClient> {
        let writer = UnixStream::connect(socket)?;
        Ok(LineClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn submit(&mut self, spec: &JobSpec) -> std::io::Result<Exchange> {
        let request = format!("SUBMIT {}\n", spec.to_line());
        let sent = Instant::now();
        self.writer.write_all(request.as_bytes())?;
        let mut acked = None;
        let mut event = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let now = Instant::now();
            let mut words = line.trim_end().splitn(3, ' ');
            let (tag, rest) = (words.next().unwrap_or(""), words.nth(1).unwrap_or(""));
            let result = match tag {
                "ACK" => {
                    acked = Some(now);
                    continue;
                }
                "EVENT" => {
                    event.get_or_insert((rest.to_string(), now));
                    continue;
                }
                "RESULT" => Ok(rest.to_string()),
                _ => Err(line.trim_end().to_string()),
            };
            return Ok(Exchange {
                sent,
                acked: acked.unwrap_or(now),
                event,
                done: now,
                result,
            });
        }
    }
}

/// One pass: the clients take jobs off a shared cursor until none is left.
/// Returns the wall seconds and each job's exchange, in job order.
fn pass(socket: &Path, jobs: &[JobSpec]) -> std::io::Result<(f64, Vec<Exchange>)> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<std::io::Result<Vec<(usize, Exchange)>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut client = LineClient::connect(socket)?;
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(i) else {
                            return Ok(mine);
                        };
                        mine.push((i, client.submit(spec)?));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut all = Vec::with_capacity(jobs.len());
    for exchanges in per_client {
        all.extend(exchanges?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok((secs, all.into_iter().map(|(_, e)| e).collect()))
}

/// Checks a pass, one operation per submission. A cold pass fixes the
/// reference documents; a warm pass must reproduce them byte for byte and
/// carry the `warm` event on every submission.
fn check_pass(
    exchanges: &[Exchange],
    warm: bool,
    reference: &mut Vec<String>,
    checks: &mut Checks,
) {
    for (i, exchange) in exchanges.iter().enumerate() {
        let mut op = checks.operation();
        let doc = match &exchange.result {
            Ok(doc) => doc,
            Err(line) => {
                op.check(&format!("submission_got_a_result ({line})"), false);
                continue;
            }
        };
        if warm {
            op.check("warm_submission_has_warm_event", exchange.was("warm"));
            op.check(
                "warm_result_identical_to_cold",
                reference.get(i) == Some(doc),
            );
        } else {
            op.check("cold_submission_was_queued", exchange.was("queued"));
            let round_trip = Json::parse(doc)
                .ok()
                .and_then(|d| decode_report(&d).ok())
                .and_then(|r| encode_report(&r).ok())
                .is_some_and(|d| d.to_string() == *doc);
            op.check("codec_round_trip", round_trip);
            reference.push(doc.clone());
        }
    }
}

/// The passes of `serve_cold` (`cold`) or `serve_warm`. A pass starts a
/// daemon — on a fresh, empty directory (`cold`) or on the directory one
/// untimed cold pass filled — and pushes the whole mix through it, by wall
/// clock from `Daemon::bind` to the last `RESULT`. The daemon's start is
/// inside the pass, not in `setup_s`: it is one fsync, whose latency on the
/// reference box's disk differs threefold between runs of one commit, and
/// inside the pass a start that grew by a preload would still show. The
/// fill is not part of `serve_warm`'s set-up either: it is `serve_cold`'s
/// measured pass.
fn run_passes(
    cold: bool,
    args: &Args,
    checks: &mut Checks,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let started = Instant::now();
    let scratch = Scratch::new(if cold { "serve_cold" } else { "serve_warm" })?;
    let (jobs, setup) = setup_burst(|| serve_jobs(args.seed, args.smoke));
    let mut reference = Vec::new();
    let filled = scratch.sub("filled");
    if !cold {
        let server = Server::start(&filled)?;
        let (_, exchanges) = pass(&server.socket, &jobs)?;
        check_pass(&exchanges, false, &mut reference, checks);
    }
    let mut walls = Vec::new();
    while keep_going(started, args.seconds, &walls) {
        let dir = if cold {
            scratch.sub("fresh")
        } else {
            filled.clone()
        };
        let start = Instant::now();
        let server = Server::start(&dir)?;
        let (_, exchanges) = pass(&server.socket, &jobs)?;
        walls.push(start.elapsed().as_secs_f64());
        if cold {
            reference.clear();
        }
        check_pass(&exchanges, !cold, &mut reference, checks);
    }
    out.timings(jobs.len() as u64, &walls, &setup);
    Ok(())
}

/// The end-to-end run of `serve_cold` (`cold`) or `serve_warm`.
pub fn run(cold: bool, args: &Args) -> Outcome {
    let mut checks = Checks::new(if cold { "serve_cold" } else { "serve_warm" });
    let mut out = Outcome::end_to_end();
    if let Err(e) = run_passes(cold, args, &mut checks, &mut out) {
        checks.operation().check(&format!("serve I/O ({e})"), false);
    }
    out.set("peak_rss_mib", peak_rss_mib());
    out.counted(&checks)
}

/// Turns a pass's exchanges into spans: one per submission under `parent`,
/// one child per protocol line.
fn record_spans(tracer: &mut Tracer, parent: usize, exchanges: &[Exchange]) {
    for (i, e) in exchanges.iter().enumerate() {
        let id = i as u64 + 1;
        let submission = tracer.record_under(parent, "serve.submission", id, e.sent, e.done);
        tracer.record_under(submission, "serve.ack", id, e.sent, e.acked);
        let after_ack = match &e.event {
            Some((word, at)) => {
                tracer.record_under(submission, &format!("serve.event.{word}"), id, e.acked, *at);
                *at
            }
            None => e.acked,
        };
        tracer.record_under(submission, "serve.result", id, after_ack, e.done);
    }
}

/// Submit→`RESULT` latencies of a pass in milliseconds.
fn latencies_ms(exchanges: &[Exchange]) -> Vec<f64> {
    exchanges.iter().map(Exchange::latency_ms).collect()
}

/// The traced run. Each service workload traces its own phase:
/// `serve_cold` two cold passes (the second with a span per protocol
/// line), the journal and a sample of the mix step by step; `serve_warm`
/// two warm passes over a filled store and a sample of its entries' load
/// and decode. Both read the daemon's own `STATS` and run the protocol and
/// dispatcher drivers.
pub fn trace(cold: bool, args: &Args, tracer: &mut Tracer) -> Outcome {
    let name = if cold { "serve_cold" } else { "serve_warm" };
    let mut checks = Checks::new(name);
    let mut out = Outcome::per_layer();
    let result = (|| -> std::io::Result<()> {
        let scratch = Scratch::new(name)?;
        let dir = scratch.sub("daemon");
        let jobs = tracer
            .timed("setup", 0, || serve_jobs(args.seed, args.smoke))
            .0;
        let server = Server::start(&dir)?;
        let mut reference = Vec::new();
        let span = tracer.enter("pass.cold", 0);
        let (cold_s, first) = pass(&server.socket, &jobs)?;
        tracer.exit(span);
        check_pass(&first, false, &mut reference, &mut checks);
        if cold {
            drop(server);
            trace_cold(
                &jobs,
                cold_s,
                first,
                &reference,
                &scratch,
                tracer,
                &mut checks,
                &mut out,
            )?;
        } else {
            trace_warm(
                &jobs,
                server,
                &dir,
                &mut reference,
                tracer,
                &mut checks,
                &mut out,
            )?;
        }
        let parse = tracer.timed("driver.parse", 0, || services::parse(&jobs)).0;
        out.set("serve.parse_us", parse.ns_per_call() / 1e3);
        let dispatcher = tracer.timed("driver.dispatcher", 0, services::dispatcher).0;
        out.set("exec.dispatcher_us_per_job", dispatcher.ns_per_call() / 1e3);
        Ok(())
    })();
    if let Err(e) = result {
        checks.operation().check(&format!("serve I/O ({e})"), false);
    }
    out.counted(&checks)
}

/// `Daemon::bind` and its serving thread, ten times over, the daemon
/// stopped in between; `empty` starts each on a fresh directory, otherwise
/// all start on `dir` as it is. Milliseconds each.
fn daemon_starts(dir: &Path, empty: bool, tracer: &mut Tracer) -> std::io::Result<Vec<f64>> {
    let mut ms = Vec::new();
    for _ in 0..10 {
        if empty {
            let _ = std::fs::remove_dir_all(dir);
        }
        let (server, secs) = tracer.timed("serve.daemon_start", 0, || Server::start(dir));
        server?;
        ms.push(secs * 1e3);
    }
    Ok(ms)
}

fn stat(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// A second cold pass into a fresh daemon, its exchanges recorded as
/// spans; the journal driver; (c) every 13th job of the mix step by step.
#[allow(clippy::too_many_arguments)]
fn trace_cold(
    jobs: &[JobSpec],
    plain_s: f64,
    plain: Vec<Exchange>,
    reference: &[String],
    scratch: &Scratch,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let server = Server::start(&scratch.sub("daemon"))?;
    let span = tracer.enter("pass.cold_traced", 0);
    let (traced_s, traced) = pass(&server.socket, jobs)?;
    tracer.exit(span);
    record_spans(tracer, span, &traced);
    check_pass(&traced, false, &mut Vec::new(), checks);
    // The instants are taken by the clients either way, so this should
    // read 1 but for the box.
    out.set("obs.trace_overhead_ratio", traced_s / plain_s);
    let daemon = server.stats()?;
    out.set("serve.retries", stat(&daemon, "retries"));
    out.set("serve.failed", stat(&daemon, "failed"));
    drop(server);

    let both: Vec<Exchange> = plain.into_iter().chain(traced).collect();
    let ms = |from: fn(&Exchange) -> Instant, to: fn(&Exchange) -> Instant| -> Vec<f64> {
        both.iter()
            .map(|e| (to(e) - from(e)).as_secs_f64() * 1e3)
            .collect()
    };
    let queued = |e: &Exchange| e.event.as_ref().map_or(e.acked, |(_, at)| *at);
    out.set_median("serve.ack_ms_p50", &ms(|e| e.sent, queued));
    out.set_median("serve.run_ms_p50", &ms(queued, |e| e.done));
    out.set_median("serve.cold_p50_ms", &latencies_ms(&both));
    out.set(
        "serve.cold_p95_ms",
        stats::percentile(&latencies_ms(&both), 95.0),
    );

    let starts = daemon_starts(&scratch.sub("starts"), true, tracer)?;
    out.set_median("serve.daemon_start_ms", &starts);
    let journal = tracer
        .timed("driver.journal", 0, || {
            services::journal(&scratch.sub("journal"), jobs)
        })
        .0?;
    out.set("serve.journal_us_per_record", journal.ns_per_call() / 1e3);

    let span = tracer.enter("jobs.step_by_step", 0);
    let mut store = DiskStore::open(scratch.sub("steps"))?;
    let mut samples = JobSamples::default();
    for (i, spec) in jobs.iter().enumerate().step_by(13) {
        let mut op = checks.operation();
        let stepped = spec.to_job().and_then(|job| {
            samples
                .job(tracer, i as u64 + 1, &mut store, &job, false)
                .map_err(|e| e.to_string())
        });
        match stepped {
            Ok((report, stored)) => {
                op.check("store_round_trip", stored);
                let same = encode_report(&report).is_ok_and(|d| d.to_string() == reference[i]);
                op.check("step_by_step_equals_daemon", same);
            }
            Err(e) => op.check(&format!("{} ({e})", spec.to_line()), false),
        }
    }
    tracer.exit(span);
    samples.report(out);
    Ok(())
}

/// Two warm passes against the daemon whose store the cold pass filled,
/// the second recorded as spans; then (c) every 13th entry of that store
/// step by step: `StoreKey::new`, `DiskStore::load`, `decode_report`.
fn trace_warm(
    jobs: &[JobSpec],
    server: Server,
    dir: &Path,
    reference: &mut Vec<String>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let store_reads = |daemon: &Json| {
        let store = daemon.get("store").cloned().unwrap_or(Json::Null);
        (stat(&store, "hits"), stat(&store, "misses"))
    };
    let (hits_before, misses_before) = store_reads(&server.stats()?);
    let span = tracer.enter("pass.warm", 0);
    let (plain_s, plain) = pass(&server.socket, jobs)?;
    tracer.exit(span);
    check_pass(&plain, true, reference, checks);
    let span = tracer.enter("pass.warm_traced", 0);
    let (traced_s, traced) = pass(&server.socket, jobs)?;
    tracer.exit(span);
    record_spans(tracer, span, &traced);
    check_pass(&traced, true, reference, checks);
    out.set("obs.trace_overhead_ratio", traced_s / plain_s);
    let warm_ms: Vec<f64> = latencies_ms(&plain)
        .into_iter()
        .chain(latencies_ms(&traced))
        .collect();
    out.set_median("serve.warm_p50_ms", &warm_ms);
    out.set("serve.warm_p99_ms", stats::percentile(&warm_ms, 99.0));

    // Store reads of the two warm passes.
    let daemon = server.stats()?;
    let (hits, misses) = store_reads(&daemon);
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    out.set("serve.warm_hit_ratio", hits / (hits + misses).max(1.0));
    out.set("serve.retries", stat(&daemon, "retries"));
    out.set("serve.failed", stat(&daemon, "failed"));
    drop(server);
    out.set_median("serve.daemon_start_ms", &daemon_starts(dir, false, tracer)?);

    let span = tracer.enter("jobs.step_by_step", 0);
    let mut store = DiskStore::open(dir.join("cache"))?;
    let mut samples = JobSamples::default();
    for (i, spec) in jobs.iter().enumerate().step_by(13) {
        let id = i as u64 + 1;
        let mut op = checks.operation();
        let doc = Json::parse(&reference[i]).ok();
        let report = doc.as_ref().and_then(|d| decode_report(d).ok());
        let (Ok(job), Some(report)) = (spec.to_job(), report) else {
            op.check("job_and_reference_are_readable", false);
            continue;
        };
        let (skey, secs) = tracer.timed("bench.store_key", id, || {
            StoreKey::new(&job.key, &job.cfg, &spec.scale())
        });
        samples.push("bench.store_key_us", secs * 1e6);
        let same = samples.load_steps(tracer, id, &mut store, &skey, doc, &report);
        op.check("filled_store_gives_the_result_back", same);
    }
    tracer.exit(span);
    samples.report(out);
    Ok(())
}
