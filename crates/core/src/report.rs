//! Simulation reports.

use numa_gpu_cache::CacheStats;
use numa_gpu_interconnect::LinkSample;
use numa_gpu_obs::{chrome_trace, MetricsSnapshot, ProfileReport, TraceEvent};
use numa_gpu_testkit::json::Json;

/// Per-socket results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocketReport {
    /// Bytes this socket sent toward the switch.
    pub egress_bytes: u64,
    /// Bytes this socket received from the switch.
    pub ingress_bytes: u64,
    /// Bytes moved through this socket's DRAM interface.
    pub dram_bytes: u64,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Lane reversals performed on this socket's link.
    pub lane_turns: u64,
    /// Equalization steps performed on this socket's link.
    pub equalizations: u64,
    /// Final L2 way split (local ways, remote ways) when partitioned.
    pub l2_partition: Option<(u16, u16)>,
}

/// Complete result of simulating one workload on one configuration.
///
/// Speedups between configurations are ratios of [`SimReport::total_cycles`]
/// ([`SimReport::speedup_over`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Total execution time of the region of interest, in GPU cycles.
    pub total_cycles: u64,
    /// Per-kernel execution cycles, in launch order.
    pub kernel_cycles: Vec<u64>,
    /// Cycle at which each kernel launched (for Fig-5-style timelines).
    pub kernel_start_cycles: Vec<u64>,
    /// Per-socket breakdowns.
    pub sockets: Vec<SocketReport>,
    /// Per-socket link utilization timelines (empty unless recording was
    /// enabled).
    pub link_timelines: Vec<Vec<LinkSample>>,
    /// Aggregated L1 statistics over every SM.
    pub l1: CacheStats,
    /// Fraction of read accesses whose home was a remote socket.
    pub remote_read_fraction: f64,
    /// End-to-end bytes transported over the switch (each packet counted
    /// once).
    pub interconnect_bytes: u64,
    /// Average interconnect power in watts under the §6 energy model.
    pub link_power_w: f64,
    /// End-of-run metrics snapshot (`None` unless `SystemConfig::obs.metrics`
    /// was set).
    pub metrics: Option<MetricsSnapshot>,
    /// Structured trace events recorded during the run (empty unless
    /// `SystemConfig::obs.trace` was set). Export with
    /// [`SimReport::chrome_trace`].
    pub trace_events: Vec<TraceEvent>,
    /// Per-subsystem work attribution (`None` unless
    /// `SystemConfig::obs.profile` was set). Assembled at report time from
    /// monotonic counters, so enabling it never changes any other field.
    pub profile: Option<ProfileReport>,
}

impl std::fmt::Display for SimReport {
    /// One-line human summary: cycles, remote fraction, link traffic/power.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} cycles over {} kernels, {:.0}% reads remote, {} MiB over links ({:.1} W), {} lane turns",
            self.workload,
            self.total_cycles,
            self.kernel_cycles.len(),
            100.0 * self.remote_read_fraction,
            self.interconnect_bytes >> 20,
            self.link_power_w,
            self.lane_turns(),
        )
    }
}

// Reports cross thread boundaries as `Arc<SimReport>` when sweeps fan out
// over the worker pool; this fails to compile if a field ever stops being
// thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimReport>();
};

impl SimReport {
    /// Speedup of `self` relative to `baseline` (`>1` means faster).
    ///
    /// Returns `0.0` if `self` recorded zero cycles (empty workload).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            baseline.total_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Total lane turns across all sockets.
    pub fn lane_turns(&self) -> u64 {
        self.sockets.iter().map(|s| s.lane_turns).sum()
    }

    /// Total DRAM bytes across all sockets.
    pub fn dram_bytes(&self) -> u64 {
        self.sockets.iter().map(|s| s.dram_bytes).sum()
    }

    /// Renders the recorded trace as a Chrome `trace_event` JSON document
    /// loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
    ///
    /// Timestamps are GPU cycles (1 ts = 1 cycle); the document is empty but
    /// well-formed when tracing was off.
    pub fn chrome_trace(&self) -> Json {
        chrome_trace(&self.trace_events)
    }

    /// Machine-readable form of the report. Fields keep insertion order,
    /// so the encoding of a given report is byte-stable across runs.
    /// The `metrics` field is `null` when metrics collection was off.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("total_cycles", Json::UInt(self.total_cycles)),
            (
                "kernel_cycles",
                Json::Arr(self.kernel_cycles.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            (
                "sockets",
                Json::Arr(self.sockets.iter().map(SocketReport::to_json).collect()),
            ),
            ("l1", cache_stats_json(&self.l1)),
            (
                "remote_read_fraction",
                Json::Float(self.remote_read_fraction),
            ),
            ("interconnect_bytes", Json::UInt(self.interconnect_bytes)),
            ("link_power_w", Json::Float(self.link_power_w)),
            (
                "metrics",
                match &self.metrics {
                    Some(snap) => snap.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "profile",
                match &self.profile {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl SocketReport {
    /// Machine-readable form of one socket's breakdown.
    pub fn to_json(&self) -> Json {
        let partition = match self.l2_partition {
            Some((local, remote)) => {
                Json::Arr(vec![Json::UInt(local as u64), Json::UInt(remote as u64)])
            }
            None => Json::Null,
        };
        Json::obj([
            ("egress_bytes", Json::UInt(self.egress_bytes)),
            ("ingress_bytes", Json::UInt(self.ingress_bytes)),
            ("dram_bytes", Json::UInt(self.dram_bytes)),
            ("l2", cache_stats_json(&self.l2)),
            ("lane_turns", Json::UInt(self.lane_turns)),
            ("equalizations", Json::UInt(self.equalizations)),
            ("l2_partition", partition),
        ])
    }
}

/// JSON form of cache statistics (a free function because the type lives
/// in another crate); also the form the result store's codec writes.
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj([
        ("local_hits", Json::UInt(s.local_hits.get())),
        ("local_misses", Json::UInt(s.local_misses.get())),
        ("remote_hits", Json::UInt(s.remote_hits.get())),
        ("remote_misses", Json::UInt(s.remote_misses.get())),
        ("fills", Json::UInt(s.fills.get())),
        ("evictions", Json::UInt(s.evictions.get())),
        ("dirty_evictions", Json::UInt(s.dirty_evictions.get())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_ratio() {
        let base = SimReport {
            total_cycles: 1000,
            ..SimReport::default()
        };
        let fast = SimReport {
            total_cycles: 500,
            ..SimReport::default()
        };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_speedup_is_zero() {
        let base = SimReport {
            total_cycles: 100,
            ..SimReport::default()
        };
        let empty = SimReport::default();
        assert_eq!(empty.speedup_over(&base), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let r = SimReport {
            workload: "w".into(),
            total_cycles: 10,
            kernel_cycles: vec![10],
            ..SimReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("w: 10 cycles over 1 kernels"));
    }

    #[test]
    fn json_encoding_is_stable_and_reparses() {
        let mut r = SimReport {
            workload: "w".into(),
            total_cycles: 42,
            kernel_cycles: vec![40, 2],
            ..SimReport::default()
        };
        r.sockets.push(SocketReport {
            dram_bytes: 7,
            l2_partition: Some((3, 5)),
            ..SocketReport::default()
        });
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b, "encoding must be byte-stable");
        let parsed = numa_gpu_testkit::json::Json::parse(&a).unwrap();
        assert_eq!(parsed.get("total_cycles").unwrap().as_u64(), Some(42));
        assert_eq!(
            parsed.get("sockets").unwrap().as_array().unwrap()[0]
                .get("dram_bytes")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn aggregates_sum_over_sockets() {
        let mut r = SimReport::default();
        r.sockets.push(SocketReport {
            lane_turns: 2,
            dram_bytes: 10,
            ..SocketReport::default()
        });
        r.sockets.push(SocketReport {
            lane_turns: 3,
            dram_bytes: 30,
            ..SocketReport::default()
        });
        assert_eq!(r.lane_turns(), 5);
        assert_eq!(r.dram_bytes(), 40);
    }
}
