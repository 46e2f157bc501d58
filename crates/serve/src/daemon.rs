//! The sim-as-a-service daemon.
//!
//! One process owns a Unix domain socket, a [`Dispatcher`] worker pool,
//! the content-addressed [`DiskStore`], and the restart [`Journal`].
//! Each accepted connection gets its own thread speaking the line
//! protocol ([`crate::protocol`]); a warm hit is answered with the store's
//! bytes, and other jobs are scheduled on the pool and deliver
//! progress/result events back to the submitting connection through a
//! per-job channel.
//!
//! ## Supervision matrix
//!
//! | Failure                         | Detected by              | Policy |
//! |---------------------------------|--------------------------|--------|
//! | Invalid request                 | protocol parse           | `ERROR … parse`, connection lives on |
//! | [`SimError`](numa_gpu_types::SimError) | `try_run` returns it | fail fast: `ERROR … deterministic` (a re-run fails the same way) |
//! | Job panic                       | the [`Dispatcher`]       | `ERROR … transient`; journal entry stays pending |
//! | Store write fails               | `save_job_text` error    | retry the write on a fixed backoff; deliver the result either way |
//! | Hung/slow job                   | wall-clock [`Deadline`]  | `ERROR … deadline`; job finishes in background and still warms the store |
//! | Sim-level hang                  | cycle watchdog (in-sim)  | surfaces as a deterministic `SimError` |
//! | Corrupt store entry             | checksum on read         | quarantined + recomputed (store layer) |
//! | `kill -9` of the daemon         | journal replay on restart| pending jobs recomputed into the store |
//! | Client disconnect mid-job       | send on closed channel   | job completes and caches anyway |

use crate::journal::Journal;
use crate::protocol::{JobSpec, LineSender, Request};
use numa_gpu_bench::codec::encode_report;
use numa_gpu_bench::{DiskStore, KeyedJob};
use numa_gpu_exec::{Deadline, Dispatcher, JobOutcome, Reporter};
use numa_gpu_testkit::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Delay before each retry of a failed store write, in milliseconds;
/// `RETRY_BACKOFF_MS.len() + 1` total attempts. Fixed, so a given failure
/// sequence always waits the same deterministic delays — no randomized
/// jitter to make test runs flaky.
const RETRY_BACKOFF_MS: [u64; 3] = [25, 100, 400];

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix domain socket path to listen on.
    pub socket: PathBuf,
    /// Root of the content-addressed store (and the journal).
    pub cache_dir: PathBuf,
    /// Worker threads simulating concurrently.
    pub workers: usize,
    /// Log accepted connections and job lifecycle to stderr.
    pub verbose: bool,
    /// Wall-clock budget for jobs that do not specify `deadline=`.
    pub default_deadline: Duration,
}

impl DaemonConfig {
    /// A config with the given socket and cache dir and sensible
    /// defaults: 2 workers, quiet, 10-minute default deadline.
    pub fn new(socket: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            cache_dir: cache_dir.into(),
            workers: 2,
            verbose: false,
            default_deadline: Duration::from_secs(600),
        }
    }
}

/// What a worker reports back to the submitting connection.
enum JobMsg {
    Event(String),
    Done(String),
    Failed { class: &'static str, msg: String },
}

struct Shared {
    store: DiskStore,
    journal: Mutex<Journal>,
    dispatcher: Dispatcher,
    reporter: Arc<Reporter>,
    default_deadline: Duration,
    socket: PathBuf,
    next_id: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    retries: AtomicU64,
    shutting_down: AtomicBool,
}

/// A bound, replayed, ready-to-serve daemon. [`Daemon::bind`] prepares
/// everything (so a caller knows the socket is live before spawning
/// clients); [`Daemon::serve`] blocks until a `SHUTDOWN` request drains
/// the pool.
pub struct Daemon {
    listener: UnixListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("socket", &self.shared.socket)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the socket, opens the store, replays the journal (pending
    /// jobs from a previous crashed process are resubmitted to the pool),
    /// and returns a daemon ready to [`serve`](Daemon::serve).
    ///
    /// A stale socket file from a crashed daemon is removed and rebound;
    /// a socket another *live* daemon answers on is an error.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors binding the socket or opening the store.
    pub fn bind(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = match UnixListener::bind(&config.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&config.socket).is_ok() {
                    return Err(std::io::Error::other(format!(
                        "another daemon is live on {}",
                        config.socket.display()
                    )));
                }
                std::fs::remove_file(&config.socket)?;
                UnixListener::bind(&config.socket)?
            }
            Err(e) => return Err(e),
        };
        let store = DiskStore::open(&config.cache_dir)?;
        let (journal, pending) = Journal::open(&config.cache_dir.join("journal"))?;
        let shared = Arc::new(Shared {
            store,
            journal: Mutex::new(journal),
            dispatcher: Dispatcher::new(config.workers),
            reporter: Arc::new(Reporter::stderr(config.verbose)),
            default_deadline: config.default_deadline,
            socket: config.socket,
            next_id: AtomicU64::new(1),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });
        shared
            .reporter
            .line(&format!("serve: listening on {}", shared.socket.display()));
        for spec in pending {
            shared.reporter.line(&format!(
                "serve: replaying journaled job: {}",
                spec.to_line()
            ));
            match keyed(&spec) {
                // Results deliver to a dropped receiver: replay has no
                // client, it exists to warm the store and clear the journal.
                Ok(job) => {
                    let (tx, _rx) = mpsc::channel();
                    submit_to_pool(&shared, spec, job, tx);
                }
                // Can only happen on a journal replayed from a different
                // build (e.g. a workload was renamed); drop the entry rather
                // than replaying it forever.
                Err(_) => {
                    let _ = shared.journal.lock().unwrap().record_done(&spec);
                    shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(Daemon { listener, shared })
    }

    /// The number of journaled jobs still pending (after replay started;
    /// reaches zero once the replayed jobs complete).
    pub fn in_flight(&self) -> u64 {
        self.shared.dispatcher.in_flight()
    }

    /// Serves one connection on the calling thread — request lines from
    /// `reader`, replies to `writer` — until the peer closes or sends
    /// `SHUTDOWN`. [`serve`](Daemon::serve) runs this once per accepted
    /// socket; any `BufRead`/`Write` pair will do, so a test can see every
    /// `write` a reply takes.
    pub fn serve_connection(&self, reader: impl BufRead, writer: impl Write) {
        handle_connection(&self.shared, reader, writer);
    }

    /// Serves connections until a `SHUTDOWN` request, then drains the
    /// worker pool (every accepted job completes and is journaled done)
    /// and removes the socket file.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors.
    pub fn serve(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    self.shared
                        .reporter
                        .line(&format!("serve: accept error: {e}"));
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                if let Ok(reader) = stream.try_clone() {
                    handle_connection(&shared, BufReader::new(reader), stream);
                }
            });
        }
        self.shared.reporter.line("serve: draining in-flight jobs");
        self.shared.dispatcher.drain();
        let _ = std::fs::remove_file(&self.shared.socket);
        self.shared.reporter.line("serve: stopped");
        Ok(())
    }
}

/// One thread per connection: read request lines, write response lines.
/// Replies queue in a [`LineSender`] and leave when the request is done —
/// one write per request, a warm hit's `ACK`/`EVENT`/`RESULT` included —
/// or earlier where [`handle_submit`] is about to block.
fn handle_connection(shared: &Arc<Shared>, reader: impl BufRead, writer: impl Write) {
    let mut reply = LineSender::new(writer);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let keep_going = handle_request(shared, &line, &mut reply);
        if reply.flush().is_err() || !keep_going {
            break;
        }
    }
}

/// Handles one request line; returns `false` when the connection should
/// close (shutdown).
fn handle_request(shared: &Arc<Shared>, line: &str, reply: &mut LineSender<impl Write>) -> bool {
    match Request::parse(line) {
        Err(msg) => reply.line(format_args!("ERROR 0 parse {msg}")),
        Ok(Request::Ping) => reply.line(format_args!("PONG")),
        Ok(Request::Stats) => {
            let count = |counter: &AtomicU64| Json::UInt(counter.load(Ordering::Relaxed));
            let doc = Json::obj([
                ("done", count(&shared.jobs_done)),
                ("failed", count(&shared.jobs_failed)),
                ("retries", count(&shared.retries)),
                ("panics", Json::UInt(shared.dispatcher.panic_count())),
                ("in_flight", Json::UInt(shared.dispatcher.in_flight())),
                ("store", shared.store.stats().to_json()),
            ]);
            reply.line(format_args!("STATS {doc}"));
        }
        Ok(Request::Shutdown) => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            reply.line(format_args!("OK draining"));
            // The reply leaves first: once the accept loop is unblocked and
            // observes the flag, the process may exit under this thread.
            let _ = reply.flush();
            let _ = UnixStream::connect(&shared.socket);
            return false;
        }
        Ok(Request::Submit(spec)) => handle_submit(shared, keyed(&spec), spec, reply),
    }
    true
}

/// Resolves `spec` into its job, sealed with the one store key it carries
/// from the `ACK` through the warm read, the pre-run check and the write.
fn keyed(spec: &JobSpec) -> Result<KeyedJob, String> {
    Ok(KeyedJob::new(spec.to_job()?, &spec.scale()))
}

fn handle_submit(
    shared: &Arc<Shared>,
    job: Result<KeyedJob, String>,
    spec: JobSpec,
    reply: &mut LineSender<impl Write>,
) {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let job = match job {
        Ok(job) => job,
        Err(msg) => return reply.line(format_args!("ERROR {id} parse {msg}")),
    };
    reply.line(format_args!("ACK {id} {}", job.key().hash));

    // Warm path: serve straight from the store (a corrupt entry
    // quarantines inside the load and falls through to the cold path).
    if let Some(hit) = shared.store.load_job(&job) {
        reply.line(format_args!("EVENT {id} warm"));
        reply.line(format_args!("RESULT {id} {}", hit.text()));
        return;
    }

    // The ACK leaves before the journal's fsync, as it always has.
    let _ = reply.flush();
    if let Err(e) = shared.journal.lock().unwrap().record_queued(&spec) {
        shared
            .reporter
            .line(&format!("serve: journal write failed: {e}"));
    }
    let deadline = Deadline::after(
        spec.deadline_secs
            .map_or(shared.default_deadline, Duration::from_secs),
    );
    let (tx, rx) = mpsc::channel();
    reply.line(format_args!("EVENT {id} queued"));
    if !submit_to_pool(shared, spec, job, tx) {
        reply.line(format_args!("ERROR {id} transient daemon is shutting down"));
        return;
    }

    // Stream worker messages until the job resolves or the wall-clock
    // deadline expires. On expiry the job keeps running in the background
    // — its result still lands in the store for the next submit.
    loop {
        // Nothing may sit queued while this thread waits.
        let _ = reply.flush();
        match rx.recv_timeout(deadline.remaining()) {
            Ok(JobMsg::Event(word)) => {
                reply.line(format_args!("EVENT {id} {word}"));
                continue;
            }
            Ok(JobMsg::Done(doc)) => reply.line(format_args!("RESULT {id} {doc}")),
            Ok(JobMsg::Failed { class, msg }) => {
                reply.line(format_args!("ERROR {id} {class} {msg}"));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => reply.line(format_args!(
                "ERROR {id} deadline wall-clock budget exhausted; the job continues \
                 in the background and will be served warm once complete"
            )),
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }
        return;
    }
}

/// Queues a job on the pool. The worker closure owns the supervised
/// lifecycle — store write-through, journal `done` — and the dispatcher is
/// the one panic boundary: a panicking job fails `transient`, its journal
/// entry left pending.
fn submit_to_pool(
    shared: &Arc<Shared>,
    spec: JobSpec,
    job: KeyedJob,
    tx: mpsc::Sender<JobMsg>,
) -> bool {
    let worker_shared = Arc::clone(shared);
    let done_shared = Arc::clone(shared);
    let events = tx.clone();
    shared.dispatcher.submit(
        move || run_supervised(&worker_shared, &spec, job, &events),
        move |outcome| {
            let msg = match outcome {
                JobOutcome::Done(msg) => msg,
                JobOutcome::Panicked(msg) => {
                    done_shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    JobMsg::Failed {
                        class: "transient",
                        msg,
                    }
                }
            };
            let _ = tx.send(msg);
        },
    )
}

/// Runs one job and writes its report through to the store, retrying a
/// failed write on the [`RETRY_BACKOFF_MS`] schedule. Returns the message
/// to deliver.
fn run_supervised(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    job: KeyedJob,
    events: &mpsc::Sender<JobMsg>,
) -> JobMsg {
    // A replayed (or raced) job may already be in the store: done.
    if let Some(hit) = shared.store.load_job(&job) {
        let _ = shared.journal.lock().unwrap().record_done(spec);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        return JobMsg::Done(hit.text().to_owned());
    }
    shared
        .reporter
        .line(&format!("serve: sim {}", job.job().key.display()));
    let report = match job.job().try_run() {
        Ok(report) => report,
        Err(sim_err) => {
            let _ = shared.journal.lock().unwrap().record_done(spec);
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            return JobMsg::Failed {
                class: "deterministic",
                msg: sim_err.to_string(),
            };
        }
    };
    // Encoded once: the entry and the `RESULT` carry this text.
    let encoded = encode_report(&report)
        .expect("a daemon job records no metrics and no trace")
        .to_string();
    let mut saved = shared.store.save_job_text(&job, &encoded);
    for (attempt, delay) in (1..).zip(RETRY_BACKOFF_MS) {
        let Err(e) = &saved else { break };
        shared
            .reporter
            .line(&format!("serve: store write failed (will retry): {e}"));
        shared.retries.fetch_add(1, Ordering::Relaxed);
        let _ = events.send(JobMsg::Event(format!("retry:{attempt}")));
        std::thread::sleep(Duration::from_millis(delay));
        saved = shared.store.save_job_text(&job, &encoded);
    }
    // Out of retries the result is still correct: deliver it, and leave
    // the journal entry pending so a restart recomputes it into the store.
    if saved.is_ok() {
        let _ = shared.journal.lock().unwrap().record_done(spec);
    }
    shared.jobs_done.fetch_add(1, Ordering::Relaxed);
    JobMsg::Done(encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_runtime::Kernel;
    use numa_gpu_types::{CtaId, CtaProgram};

    /// A kernel the simulator refuses at launch: a CTA with no warps.
    struct NoWarps;

    impl Kernel for NoWarps {
        fn num_ctas(&self) -> u32 {
            1
        }

        fn warps_per_cta(&self) -> u32 {
            0
        }

        fn cta(&self, _: CtaId) -> Box<dyn CtaProgram> {
            unreachable!("a kernel with no warps never launches")
        }
    }

    #[test]
    fn a_panicking_job_fails_transient_once_at_the_dispatcher() {
        let dir =
            std::env::temp_dir().join(format!("numa-gpu-daemon-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = DaemonConfig::new(dir.join("sock"), dir.join("cache"));
        let daemon = Daemon::bind(config).expect("bind");
        let spec = JobSpec::parse("workload=Other-Bitcoin-Crypto sockets=2").unwrap();
        let mut job = spec.to_job().unwrap();
        job.workload.kernels = vec![Arc::new(NoWarps)];
        let job = KeyedJob::new(job, &spec.scale());

        let mut out = Vec::new();
        let mut reply = LineSender::new(&mut out);
        handle_submit(&daemon.shared, Ok(job), spec.clone(), &mut reply);
        handle_request(&daemon.shared, "STATS", &mut reply);
        reply.flush().unwrap();
        drop(reply);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();

        // One run, no retries: ACK, queued, the panic as a transient error.
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].starts_with("ACK 1 "), "{text}");
        assert_eq!(lines[1], "EVENT 1 queued");
        assert!(
            lines[2].starts_with("ERROR 1 transient kernel warps_per_cta 0"),
            "{text}"
        );
        assert!(
            lines[3].contains(r#""failed":1,"retries":0,"panics":1"#),
            "{text}"
        );
        // The journal keeps the job pending, so a restart would retry it.
        let journal = std::fs::read_to_string(dir.join("cache/journal/journal.log")).unwrap();
        assert_eq!(journal, format!("queued {}\n", spec.to_line()));
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
