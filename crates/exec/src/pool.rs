//! The one worker pool: [`Dispatcher`] starts every worker thread, and
//! [`ThreadPool::run`] is a batch call on it.
//!
//! A daemon's jobs arrive one at a time over its lifetime, each wants its
//! result delivered somewhere else (a client connection), and the process
//! must be able to drain and stop. [`Dispatcher`] is that shape: a fixed
//! set of workers pulling from a shared queue, with per-job panic
//! containment (a panicking job is reported to its completion callback as
//! an error string, never taking a worker or the process down) and a
//! two-phase shutdown (`drain`, then `shutdown`).
//!
//! A figure sweep hands over a complete job vector and wants the results
//! back in submission order. [`ThreadPool::run`] does that on top of the
//! same pieces: one worker runs the batch inline on the calling thread;
//! more submit every job to a `Dispatcher` and shut it down. Either way
//! each job passes through `contain`, the one `catch_unwind` around a
//! job.
//!
//! [`Deadline`] is the wall-clock companion: services supervise jobs with
//! "must finish within N seconds" budgets, which the simulation itself —
//! cycle-accurate and wall-clock-oblivious by design — cannot express.

use crate::panic_message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work: a label (used in panic reports and progress lines)
/// plus the closure to run.
pub struct Job<T> {
    label: String,
    work: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Creates a job.
    pub fn new(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish()
    }
}

/// A batch executor of a fixed worker count.
///
/// The pool is a *value*, not a set of parked OS threads: each
/// [`ThreadPool::run`] call with more than one worker starts a
/// [`Dispatcher`] for the batch and shuts it down before returning, so no
/// work outlives the batch.
///
/// With one worker the batch runs in order on the calling thread — the
/// exact pre-pool behavior — so `--jobs 1` reproduces serial runs bit for
/// bit, scheduling included, and starts no thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool with `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn available() -> Self {
        ThreadPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the results **in submission order**.
    ///
    /// An empty batch returns at once. One worker runs the jobs in order
    /// on the calling thread; more submit every job to a [`Dispatcher`] of
    /// `min(workers, jobs)` workers and shut it down, which drains them.
    /// Execution order is then scheduler dependent, but each outcome comes
    /// back tagged with its submission index and is put in that place: the
    /// returned vector is identical for every worker count (given
    /// deterministic jobs).
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here once every job has
    /// run, as ``job `<label>` (index i) panicked: <msg>``. When several
    /// jobs panic, the one with the lowest submission index is reported
    /// (again for determinism).
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        let workers = self.workers.min(jobs.len());
        let (labels, works): (Vec<String>, Vec<_>) =
            jobs.into_iter().map(|job| (job.label, job.work)).unzip();
        let outcomes: Vec<JobOutcome<T>> = if workers <= 1 {
            works.into_iter().map(contain).collect()
        } else {
            let (tx, rx) = mpsc::channel();
            let dispatcher = Dispatcher::new(workers);
            for (index, work) in works.into_iter().enumerate() {
                let tx = tx.clone();
                dispatcher.submit(work, move |outcome| {
                    tx.send((index, outcome))
                        .expect("receiver outlives the batch");
                });
            }
            dispatcher.shutdown();
            drop(tx);
            let mut indexed: Vec<_> = rx.into_iter().collect();
            indexed.sort_unstable_by_key(|&(index, _)| index);
            indexed.into_iter().map(|(_, outcome)| outcome).collect()
        };
        outcomes
            .into_iter()
            .zip(labels)
            .enumerate()
            .map(|(index, (outcome, label))| match outcome {
                JobOutcome::Done(value) => value,
                JobOutcome::Panicked(msg) => {
                    panic!("job `{label}` (index {index}) panicked: {msg}")
                }
            })
            .collect()
    }
}

/// A wall-clock budget for supervising a job from outside.
///
/// The simulator's own watchdog supervises in *cycles* (deadlock and
/// cycle-budget detection inside the run); a `Deadline` supervises in
/// *seconds* from the serving layer, catching jobs that are making cycle
/// progress but too slowly to be worth waiting for.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// Starts a deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget,
        }
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Time left before expiry (zero once expired) — the right value for
    /// a blocking wait that must not overshoot the deadline.
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a value.
    Done(T),
    /// The job panicked; the payload is the panic message. The worker
    /// survives — panics are contained per job.
    Panicked(String),
}

/// Runs `job`, turning a panic into [`JobOutcome::Panicked`]: the one
/// panic boundary around a job, on both batch paths and in the daemon.
fn contain<T>(job: impl FnOnce() -> T) -> JobOutcome<T> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(value) => JobOutcome::Done(value),
        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

type DynJob = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<DynJob>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    idle: Condvar,
    in_flight: AtomicU64,
    panics: AtomicU64,
}

/// A persistent worker pool: jobs are submitted one at a time over the
/// pool's lifetime and deliver their outcome through a per-job callback.
///
/// This is the only code that starts worker threads. Determinism is kept
/// the way [`ThreadPool::run`] keeps it: jobs are pure functions of their
/// inputs, so *what* each job produces is independent of scheduling; only
/// delivery order varies, and callers key deliveries by job identity (the
/// serving layer) or submission index (the batch call), never by order.
pub struct Dispatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("workers", &self.workers.len())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl Dispatcher {
    /// Spawns a dispatcher with `workers` worker threads (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Dispatcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            in_flight: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Dispatcher { shared, workers }
    }

    /// Queues `job`; `complete` receives its outcome on the worker thread.
    /// A panicking job is delivered as [`JobOutcome::Panicked`] with the
    /// panic message — the worker, and every other queued job, is
    /// unaffected.
    ///
    /// Returns `false` (without queuing) if the dispatcher is already
    /// shutting down.
    pub fn submit<T, F, C>(&self, job: F, complete: C) -> bool
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        C: FnOnce(JobOutcome<T>) + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let wrapped: DynJob = Box::new(move || {
            let outcome = contain(job);
            if matches!(outcome, JobOutcome::Panicked(_)) {
                shared.panics.fetch_add(1, Ordering::Relaxed);
            }
            // The callback is guarded on its own: a panicking completion
            // handler (say, a vanished client pipe) must not kill the
            // worker.
            let _ = catch_unwind(AssertUnwindSafe(move || complete(outcome)));
        });
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.shutting_down {
            return false;
        }
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        queue.jobs.push_back(wrapped);
        self.shared.available.notify_one();
        true
    }

    /// Jobs queued or running right now.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs whose closure panicked over this dispatcher's lifetime.
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Blocks until every queued and running job has completed. New
    /// submissions remain possible afterwards; to stop for good, follow
    /// with [`Dispatcher::shutdown`].
    pub fn drain(&self) {
        let mut queue = self.shared.queue.lock().unwrap();
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            queue = self.shared.idle.wait(queue).unwrap();
        }
    }

    /// Drains all in-flight work, then stops and joins every worker.
    /// Submissions racing with shutdown either complete fully or are
    /// rejected by [`Dispatcher::submit`] — never half-run.
    pub fn shutdown(mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutting_down = true;
            while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
                queue = self.shared.idle.wait(queue).unwrap();
            }
            self.shared.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        // `shutdown` already joined and emptied `workers`; a plain drop
        // still stops the workers (without waiting for queued jobs to be
        // picked up by anyone — they are dropped unrun).
        let mut queue = self.shared.queue.lock().unwrap();
        queue.shutting_down = true;
        queue.jobs.clear();
        self.shared.available.notify_all();
        drop(queue);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        job();
        if shared.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last job out: wake anyone blocked in drain()/shutdown().
            let _guard = shared.queue.lock().unwrap();
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message")
    }

    #[test]
    fn empty_batch_returns_empty() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.run(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert!(ThreadPool::available().workers() >= 1);
    }

    #[test]
    fn results_follow_submission_order() {
        let expect: Vec<u64> = (0..37u64).map(|i| i * i).collect();
        for workers in [1, 2, 5, 16] {
            let jobs = (0..37u64)
                .map(|i| Job::new(format!("j{i}"), move || i * i))
                .collect();
            assert_eq!(
                ThreadPool::new(workers).run(jobs),
                expect,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs = (0..3)
            .map(|i| Job::new(format!("j{i}"), || std::thread::current().id()))
            .collect();
        assert_eq!(ThreadPool::new(1).run(jobs), vec![caller; 3]);
    }

    #[test]
    fn panic_carries_label_and_index() {
        let pool = ThreadPool::new(2);
        let jobs = vec![
            Job::new("fine", || 1u32),
            Job::new("broken", || panic!("boom")),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)))
            .expect_err("panic must propagate");
        let msg = panic_text(err);
        assert!(msg.contains("`broken`"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn lowest_index_panic_wins() {
        // Every job runs before the panic is re-raised, so both panics
        // fire; the report must still name the lowest index.
        for workers in [1, 4] {
            let jobs = vec![
                Job::new("ok", || 0u32),
                Job::new("first", || panic!("early")),
                Job::new("second", || panic!("late")),
            ];
            let pool = ThreadPool::new(workers);
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)))
                .expect_err("panic must propagate");
            let msg = panic_text(err);
            assert_eq!(
                msg, "job `first` (index 1) panicked: early",
                "workers={workers}"
            );
        }
    }

    #[test]
    fn job_debug_and_label() {
        let j = Job::new("named", || 0u8);
        assert_eq!(j.label(), "named");
        assert!(format!("{j:?}").contains("named"));
    }

    #[test]
    fn delivers_outcomes_keyed_by_job_identity() {
        let d = Dispatcher::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u64 {
            let tx = tx.clone();
            d.submit(move || i * i, move |out| tx.send((i, out)).unwrap());
        }
        let mut got: Vec<_> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_by_key(|(i, _)| *i);
        for (i, out) in got {
            assert_eq!(out, JobOutcome::Done(i * i));
        }
        d.shutdown();
    }

    #[test]
    fn contains_panics_per_job_and_counts_them() {
        let d = Dispatcher::new(2);
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        d.submit(
            || -> u64 { panic!("boom in job") },
            move |out| tx.send(out).unwrap(),
        );
        d.submit(|| 7u64, move |out| tx2.send(out).unwrap());
        let mut outcomes = [rx.recv().unwrap(), rx.recv().unwrap()];
        outcomes.sort_by_key(|o| matches!(o, JobOutcome::Panicked(_)));
        assert_eq!(outcomes[0], JobOutcome::Done(7));
        match &outcomes[1] {
            JobOutcome::Panicked(msg) => assert!(msg.contains("boom in job"), "{msg}"),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        assert_eq!(d.panic_count(), 1);
        d.drain();
        assert_eq!(d.in_flight(), 0);
        d.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_rejects_new() {
        let d = Dispatcher::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let tx = tx.clone();
            assert!(d.submit(move || i, move |out| tx.send(out).unwrap()));
        }
        drop(tx);
        d.shutdown();
        let mut seen: Vec<_> = rx.into_iter().collect();
        seen.sort_by_key(|o| match o {
            JobOutcome::Done(i) => *i,
            JobOutcome::Panicked(_) => u64::MAX,
        });
        assert_eq!(
            seen,
            (0..8).map(JobOutcome::Done).collect::<Vec<_>>(),
            "shutdown must drain every queued job"
        );
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let d = Dispatcher::new(1);
        {
            let mut q = d.shared.queue.lock().unwrap();
            q.shutting_down = true;
        }
        assert!(!d.submit(|| 1u64, |_| {}));
        {
            let mut q = d.shared.queue.lock().unwrap();
            q.shutting_down = false;
        }
        d.shutdown();
    }

    #[test]
    fn deadline_expires_and_saturates() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_secs(3600));
        let z = Deadline::after(Duration::ZERO);
        assert!(z.expired());
        assert_eq!(z.remaining(), Duration::ZERO);
    }

    #[test]
    fn panicking_completion_callback_does_not_kill_worker() {
        let d = Dispatcher::new(1);
        d.submit(|| 1u64, |_| panic!("callback boom"));
        let (tx, rx) = mpsc::channel();
        d.submit(|| 2u64, move |out| tx.send(out).unwrap());
        assert_eq!(rx.recv().unwrap(), JobOutcome::Done(2));
        d.shutdown();
    }
}
