//! Observability wiring: builds the metrics registry and trace sink from
//! [`ObsConfig`](numa_gpu_types::ObsConfig) and installs per-component
//! handles at system construction time.
//!
//! Aggregation is per socket: every SM of a socket shares clones of the
//! same handles, so metric cardinality stays bounded at 256 SMs. With
//! observability off (the default) no registry or sink exists and every
//! handle is a disabled no-op.

use numa_gpu_cache::CacheObs;
use numa_gpu_interconnect::{LinkObs, LinkSample};
use numa_gpu_mem::DramObs;
use numa_gpu_obs::{MetricsRegistry, RingBufferSink, TraceEvent};
use numa_gpu_sm::SmObs;
use numa_gpu_types::ObsConfig;

/// Per-run observability state owned by the system.
#[derive(Debug, Default)]
pub(crate) struct ObsState {
    /// Metrics registry, present when `obs.metrics` is on.
    pub registry: Option<MetricsRegistry>,
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
            registry: cfg.metrics.then(MetricsRegistry::new),
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

    /// Registers the per-socket handle bundle for socket `s`. Returns
    /// all-disabled handles when metrics are off.
    pub fn socket_handles(&mut self, s: usize) -> SocketObs {
        let Some(reg) = &mut self.registry else {
            return SocketObs::default();
        };
        SocketObs {
            sm: SmObs {
                issue_stalls: reg.counter(&format!("sm.s{s}.issue_stalls")),
                mshr_occupancy: reg.histogram(&format!("sm.s{s}.mshr_occupancy")),
            },
            l2: CacheObs {
                repartitions: reg.counter(&format!("l2.s{s}.repartitions")),
                local_ways: reg.gauge(&format!("l2.s{s}.local_ways")),
            },
            dram: DramObs {
                row_hits: reg.counter(&format!("dram.s{s}.row_hits")),
                row_misses: reg.counter(&format!("dram.s{s}.row_misses")),
            },
            link: LinkObs {
                egress_backlog_cycles: reg.histogram(&format!("link.s{s}.egress_backlog_cycles")),
                ingress_backlog_cycles: reg.histogram(&format!("link.s{s}.ingress_backlog_cycles")),
                conflicts: reg.counter(&format!("link.s{s}.conflicts")),
            },
        }
    }

    /// Takes the recorded trace. Subsequent emits are dropped.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink
            .take()
            .map_or_else(Vec::new, RingBufferSink::into_events)
    }
}

/// The handle bundle every component of one socket shares.
#[derive(Debug, Clone, Default)]
pub(crate) struct SocketObs {
    pub sm: SmObs,
    pub l2: CacheObs,
    pub dram: DramObs,
    pub link: LinkObs,
}
