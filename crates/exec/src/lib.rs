//! Deterministic batch execution for simulation sweeps.
//!
//! The benchmark harness runs hundreds of independent `(config, workload)`
//! simulations. This crate provides the minimal, std-only execution
//! substrate for fanning those out over OS threads *without* giving up the
//! workspace's byte-for-byte determinism guarantee:
//!
//! * [`ThreadPool`] — a fixed-worker batch executor. Jobs are indexed at
//!   submission and results are returned **in submission order** no matter
//!   which worker finishes first, so any output derived from the result
//!   vector is independent of thread scheduling. A panic inside a job is
//!   caught and re-raised on the submitting thread, labelled with the job
//!   that caused it. One worker runs the batch on the calling thread; more
//!   run it on a [`Dispatcher`].
//! * [`Dispatcher`] — the one worker pool, persistent, for long-running
//!   services (the serving daemon) and for [`ThreadPool`]'s batches: jobs
//!   arrive one at a time over the pool's lifetime, each delivers its
//!   outcome through a per-job callback, and a panicking job is contained
//!   (reported as [`JobOutcome::Panicked`]) rather than taking the worker
//!   down. [`Deadline`] supplies the wall-clock budgets such services
//!   supervise with.
//! * [`Reporter`] — a mutexed, line-buffered progress logger. Each line is
//!   formatted completely before a single locked write, so progress output
//!   from concurrent workers never shears mid-line.
//!
//! Determinism argument: the pool imposes no ordering on *execution* (any
//! worker may run any job at any time), only on *observation*. As long as
//! each job is a pure function of its inputs — true for the simulator,
//! whose runs share no mutable state — the result vector, and everything
//! computed from it, is identical at every worker count.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_exec::{Job, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let jobs = (0..8).map(|i| Job::new(format!("square-{i}"), move || i * i));
//! let squares = pool.run(jobs.collect());
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod pool;
mod reporter;

pub use pool::{Deadline, Dispatcher, Job, JobOutcome, ThreadPool};
pub use reporter::Reporter;

/// Best-effort extraction of a caught panic payload's message: the two
/// shapes `panic!` produces (`&str` and `String`), then a fallback.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
