//! Fixed-worker thread pool with deterministic result ordering.

use crate::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// A fixed-size pool of worker threads executing job batches.
///
/// The pool is a *value*, not a set of parked OS threads: workers are
/// spawned scoped per [`ThreadPool::run`] call and joined before it
/// returns, which keeps job closures free of `'static` borrows on the
/// batch state and guarantees no work outlives the batch.
///
/// With one worker the batch runs sequentially on the calling thread — the
/// exact pre-pool behavior — so `--jobs 1` reproduces serial runs bit for
/// bit, scheduling included.
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
        ThreadPool::new(available_workers())
    }

    /// Number of worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the results **in submission order**.
    ///
    /// Jobs are claimed by workers through a shared atomic cursor, so
    /// execution order is scheduler dependent, but each result is written
    /// to the slot of its submission index: the returned vector is
    /// identical for every worker count (given deterministic jobs).
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here once all workers have
    /// drained, with the message prefixed by the failing job's label. When
    /// several jobs panic, the one with the lowest submission index is
    /// reported (again for determinism).
    pub fn run<T: Send>(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        // Each task contains its own panic and hands back the label with
        // the message, so the one batch loop in `run_scoped` never sees a
        // job unwind and every job still runs.
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                move || {
                    catch_unwind(AssertUnwindSafe(job.work))
                        .map_err(|payload| (job.label, panic_message(payload.as_ref())))
                }
            })
            .collect();
        self.run_scoped(tasks)
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| {
                outcome.unwrap_or_else(|(label, msg)| {
                    panic!("job `{label}` (index {index}) panicked: {msg}")
                })
            })
            .collect()
    }

    /// The batch loop under [`ThreadPool::run`]: runs `tasks` and returns
    /// their results in submission order.
    ///
    /// Workers are scoped to this call, claim tasks through an atomic
    /// cursor, and are joined before it returns. With one worker the batch
    /// runs inline on the calling thread, reproducing serial execution
    /// exactly.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic payload of the lowest submission index
    /// is re-raised here once all workers have drained (deterministic
    /// regardless of which worker hit it first).
    fn run_scoped<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        let n = tasks.len();
        let workers = self.workers.min(n);

        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        type Payload = Box<dyn std::any::Any + Send>;
        let panicked: Mutex<Option<(usize, Payload)>> = Mutex::new(None);

        let body = |_worker: usize| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let task = slots[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("task claimed twice");
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(value) => *results[i].lock().expect("result slot poisoned") = Some(value),
                Err(payload) => {
                    let mut first = panicked.lock().expect("panic slot poisoned");
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        *first = Some((i, payload));
                    }
                }
            }
        };

        if workers == 1 {
            body(0);
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || body(w));
                }
            });
        }

        if let Some((_, payload)) = panicked.into_inner().expect("panic slot poisoned") {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("task finished without a result")
            })
            .collect()
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pool = ThreadPool::new(3);
        let jobs = (0..17u64)
            .map(|i| Job::new(format!("j{i}"), move || i * 10))
            .collect();
        assert_eq!(
            pool.run(jobs),
            (0..17u64).map(|i| i * 10).collect::<Vec<_>>()
        );
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
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message");
        assert!(msg.contains("`broken`"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn lowest_index_panic_wins() {
        // Sequential single-worker run makes both panics fire; the report
        // must still name the lowest index.
        let pool = ThreadPool::new(1);
        let jobs = vec![
            Job::new("first", || -> u32 { panic!("early") }),
            Job::new("second", || panic!("late")),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("`first`") && msg.contains("early"), "{msg}");
    }

    #[test]
    fn scoped_tasks_borrow_caller_state() {
        // Tasks may mutate disjoint slices of a stack-local vector: no
        // 'static required.
        let pool = ThreadPool::new(4);
        let mut parts: Vec<Vec<u64>> = (0..8).map(|i| vec![i]).collect();
        let tasks: Vec<_> = parts
            .iter_mut()
            .map(|p| {
                move || {
                    p.push(p[0] * 2);
                    p[0]
                }
            })
            .collect();
        let out = pool.run_scoped(tasks);
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p, &vec![i as u64, 2 * i as u64]);
        }
    }

    #[test]
    fn scoped_results_identical_at_any_worker_count() {
        let work: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = work.iter().map(|v| v * v).collect();
        for workers in [1, 2, 5, 16] {
            let pool = ThreadPool::new(workers);
            let tasks: Vec<_> = work.iter().map(|v| move || v * v).collect();
            assert_eq!(pool.run_scoped(tasks), expect, "workers={workers}");
        }
    }

    #[test]
    fn scoped_empty_batch_returns_empty() {
        let pool = ThreadPool::new(3);
        let out: Vec<u8> = pool.run_scoped(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_lowest_index_panic_wins() {
        let pool = ThreadPool::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("early")), Box::new(|| panic!("late"))];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_scoped(tasks)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap();
        assert_eq!(msg, "early");
    }

    #[test]
    fn job_debug_and_label() {
        let j = Job::new("named", || 0u8);
        assert_eq!(j.label(), "named");
        assert!(format!("{j:?}").contains("named"));
    }
}
