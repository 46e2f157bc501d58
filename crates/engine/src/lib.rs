//! Discrete-event simulation primitives for the `numa-gpu` workspace.
//!
//! Two building blocks drive the whole simulator:
//!
//! * [`EventQueue`] — a deterministic timestamped queue of
//!   `(Tick, payload)` pairs with FIFO tie-breaking, so identical runs
//!   replay identically. Implemented as a bucketed calendar queue (one
//!   cycle per bucket) whose pop order is exactly that of a min-heap over
//!   `(tick, seq)`. Its 512-cycle window starts at the cycle of the last
//!   pop, so the hot push path is an O(1) bucket append and a saturated
//!   DRAM or link, whose backlog runs deeper than the window, costs an
//!   overflow deque append (or, out of order, a min-heap push) and never
//!   a calendar rebuild.
//! * [`ServiceQueue`] — a bandwidth-limited FIFO resource (DRAM interface,
//!   NoC, one link direction). Requests occupy the resource for
//!   `bytes / rate` cycles; the queue tracks windowed busy time so the
//!   paper's controllers can ask "was this ≥99% saturated in the last
//!   sample period?".
//!
//! On top of these, [`conservative_window`] and [`merge_cross_into`]
//! provide the windowing and deterministic barrier-merge rules of the
//! serial windowed loop, which runs one [`EventQueue`] per partition, one
//! partition after another within each window (see the `partition` module
//! docs; windows stay because they keep one socket's state hot, DESIGN
//! §13). [`Watchdog`] supervises forward progress — cross-partition
//! message deliveries count as progress, so a partition idling at a window
//! barrier is never mistaken for a deadlock.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_engine::ServiceQueue;
//! use numa_gpu_types::TICKS_PER_CYCLE;
//!
//! // A 64 B/cycle link direction.
//! let mut link = ServiceQueue::new(64);
//! let done = link.service(0, 128); // one cache line
//! assert_eq!(done, 2 * TICKS_PER_CYCLE);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod event_queue;
mod partition;
mod service_queue;
mod watchdog;

pub use event_queue::{EventQueue, EventQueueStats};
pub use partition::{conservative_window, merge_cross_into, CrossMessage};
pub use service_queue::ServiceQueue;
pub use watchdog::{Watchdog, WatchdogTrip};
