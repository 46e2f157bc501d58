//! Structured observability for the numa-gpu simulator.
//!
//! The paper's mechanisms (§4 dynamic lane allocation, §5 cache
//! partitioning) are argued from *time-resolved* resource behaviour —
//! Fig. 5's link-utilization phases, Fig. 8's cache-pressure shifts — so
//! the simulator needs more than end-of-run aggregates. This crate is the
//! one uniform mechanism every model crate reports through:
//!
//! - [`MetricsSnapshot`]: named counters, gauges, and power-of-two
//!   histograms, folded at report time from plain fields each component
//!   owns and always maintains ([`Pow2Histogram`] is the one value type
//!   that needs more than a `u64`). Metrics on and off do the same work
//!   until the report is built.
//! - [`TraceEvent`] + [`RingBufferSink`]: a cycle-stamped structured
//!   event trace emitted from the engine's event loop and from lane-turn /
//!   repartition decision points, recorded into a bounded in-memory ring.
//! - [`chrome_trace`]: export to Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or Perfetto (1 viewer µs = 1 simulated cycle).
//! - [`ProfileReport`]: per-subsystem attribution of simulation work,
//!   assembled at report time from the simulator's own monotonic counters
//!   (the `--profile` plane). Timing-invariant by construction: it reads
//!   values that exist whether or not profiling is on.
//!
//! # Determinism
//!
//! Every output is byte-stable: snapshots list metrics in the fixed order
//! the fold pushes them, trace export stable-sorts by start cycle, and all
//! encoding goes through `testkit::json`. Two runs with the same
//! configuration and seed produce identical bytes.
//!
//! # Example
//!
//! ```
//! use numa_gpu_obs::{chrome_trace, Pow2Histogram, RingBufferSink, TraceEvent};
//!
//! // A component owns its histogram; the report merges per-SM ones.
//! let mut occupancy = Pow2Histogram::default();
//! occupancy.observe(3);
//! assert_eq!(occupancy.summary().max, 3);
//!
//! // The system records cycle-stamped events into a bounded ring and
//! // exports what it retained as a Chrome trace.
//! let mut sink = RingBufferSink::new(1024);
//! sink.record(TraceEvent::instant("link.turn", "interconnect", 500, 0));
//! let doc = chrome_trace(&sink.into_events());
//! assert!(doc.to_string().contains("link.turn"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod metrics;
pub mod profiler;
pub mod trace;

pub use chrome::{chrome_event_json, chrome_trace, TRACE_PID};
pub use metrics::{HistogramSummary, MetricValue, MetricsSnapshot, Pow2Histogram};
pub use profiler::{ProfileReport, ProfileScope};
pub use trace::{RingBufferSink, TraceEvent, TracePhase, TraceValue};
