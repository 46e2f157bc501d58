//! Crash-safe sim-as-a-service: a supervised daemon over a Unix domain
//! socket, backed by the self-healing content-addressed result store.
//!
//! Every figure sweep used to re-simulate from scratch in a fresh process;
//! this crate keeps a long-running [`Daemon`] owning a worker pool
//! ([`numa_gpu_exec::Dispatcher`]) and the on-disk store
//! ([`numa_gpu_bench::DiskStore`]), so repeated sweeps across processes
//! and CI runs hit warm results. The robustness contract, proven by the
//! crash-recovery CI job and the tests in `tests/`:
//!
//! * `kill -9` mid-sweep loses no acknowledged work — queued jobs are
//!   journaled with `fsync` and replayed on restart ([`Journal`]);
//! * torn or corrupt cache entries are quarantined and recomputed at the
//!   store layer, invisible to clients;
//! * a failing or panicking job fails fast (a job is a pure function of
//!   its spec); a failed store write retries on a fixed backoff;
//! * a hung job trips a wall-clock [`Deadline`](numa_gpu_exec::Deadline)
//!   at the serving layer (the in-sim cycle watchdog covers sim-level
//!   hangs) — and still warms the store when it eventually finishes;
//! * results are byte-identical whether served cold, warm, after a
//!   crash-restart, or from a plain `figures --cache-dir` run.
//!
//! The wire protocol is a human-typable line protocol (see
//! [`protocol`]); [`Client`] is the blocking Rust client the `simulate
//! submit` CLI and the tests use.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod journal;
pub mod protocol;

pub use client::{Client, Submission};
pub use daemon::{Daemon, DaemonConfig};
pub use journal::Journal;
pub use protocol::{JobSpec, Request};
