//! Observability state the system owns while it runs: the trace sink
//! built from [`ObsConfig`](numa_gpu_types::ObsConfig) and the Fig-5 link
//! timelines. Metrics need none — `NumaGpuSystem::build_metrics` folds
//! them at report time from counters the components always keep.

use numa_gpu_interconnect::LinkSample;
use numa_gpu_obs::{RingBufferSink, TraceEvent};
use numa_gpu_types::ObsConfig;

/// Per-run observability state owned by the system.
#[derive(Debug, Default)]
pub(crate) struct ObsState {
    /// Trace event sink, present when `obs.trace` is on.
    pub sink: Option<RingBufferSink>,
    /// Whether Fig-5 link timelines are being recorded (back-compat path).
    pub record_timeline: bool,
    /// Per-socket utilization timelines recorded at each link sample.
    pub timelines: Vec<Vec<LinkSample>>,
}

impl ObsState {
    /// Builds the state implied by `cfg` for `sockets` sockets.
    pub fn new(cfg: &ObsConfig, sockets: usize) -> Self {
        ObsState {
            sink: cfg.trace.then(|| {
                RingBufferSink::new(if cfg.trace_capacity == 0 {
                    usize::MAX
                } else {
                    cfg.trace_capacity as usize
                })
            }),
            record_timeline: false,
            timelines: vec![Vec::new(); sockets],
        }
    }

    /// Whether trace events should be emitted.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one trace event (no-op when tracing is off).
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(event);
        }
    }

    /// Takes the recorded trace. Subsequent emits are dropped.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink
            .take()
            .map_or_else(Vec::new, RingBufferSink::into_events)
    }
}
