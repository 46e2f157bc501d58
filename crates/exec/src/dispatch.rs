//! A persistent job dispatcher for long-running services.
//!
//! [`ThreadPool`] is a *batch* executor: it is handed a complete job
//! vector, blocks until every job finishes, and returns the results in
//! submission order. A daemon has the opposite shape — jobs arrive one at
//! a time over its lifetime, each wants its result delivered somewhere
//! else (a client connection), and the process must be able to drain and
//! stop. [`Dispatcher`] is that shape: a fixed set of workers pulling from
//! a shared queue, with per-job panic containment (a panicking job is
//! reported to its completion callback as an error string, never taking a
//! worker or the process down) and a two-phase shutdown (`drain`, then
//! `shutdown`).
//!
//! [`Deadline`] is the wall-clock companion: services supervise jobs with
//! "must finish within N seconds" budgets, which the simulation itself —
//! cycle-accurate and wall-clock-oblivious by design — cannot express.

use crate::panic_message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// How a dispatched job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a value.
    Done(T),
    /// The job panicked; the payload is the panic message. The worker
    /// survives — panics are contained per job.
    Panicked(String),
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
/// Compare [`ThreadPool`](crate::ThreadPool), the batch executor used for
/// figure sweeps: a `Dispatcher` trades its submission-order result vector
/// for an open-ended lifetime, which is the shape a daemon needs.
/// Determinism is preserved the same way — jobs are pure functions of
/// their inputs, so *what* each job produces is independent of scheduling;
/// only delivery order varies, and callers (the serving layer) key
/// deliveries by job identity, never by order.
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
            let outcome = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(value) => JobOutcome::Done(value),
                Err(payload) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    JobOutcome::Panicked(panic_message(payload.as_ref()))
                }
            };
            // The callback itself is guarded too: a panicking completion
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
    use std::sync::mpsc;

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
