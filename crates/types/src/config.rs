//! System configuration, transcribing the paper's Table 1 and the policy
//! knobs studied in Sections 3–5.

use crate::error::ConfigError;
use crate::LINE_SIZE;

/// CTA-to-socket scheduling policy used by the NUMA-aware runtime (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtaSchedulingPolicy {
    /// Fine-grained modulo interleaving of CTAs across sockets — the
    /// traditional single-GPU policy adapted to multiple sockets.
    Interleave,
    /// Contiguous block decomposition: CTA `i` of `C` goes to socket
    /// `i * N / C`. Preserves inter-CTA locality (the paper's
    /// locality-optimized runtime).
    ContiguousBlock,
}

/// Memory page placement policy (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePlacement {
    /// Cache-line-granular interleaving across sockets — the traditional
    /// single-GPU channel interleaving extended across sockets.
    FineInterleave,
    /// Round-robin page-granular interleaving (Linux `interleave` style).
    PageInterleave,
    /// First-touch: a page is placed on the socket that first accesses it
    /// (UVM on-demand migration as in Arunkumar et al.).
    FirstTouch,
}

/// L2 cache organization under study (paper Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// (a) Memory-side L2 caching local memory only; remote accesses are
    /// never cached on the requesting socket's L2.
    MemSideLocalOnly,
    /// (b) Static 50/50 split: half the ways are a GPU-side coherent remote
    /// cache (R$), half remain a memory-side local cache.
    StaticRemoteCache,
    /// (c) Fully GPU-side coherent L1+L2 where local and remote data contend
    /// for the whole capacity.
    SharedCoherent,
    /// (d) NUMA-aware dynamic way partitioning between local and remote
    /// classes, driven by link/DRAM saturation (the paper's proposal).
    NumaAwareDynamic,
}

impl CacheMode {
    /// Whether a socket's own L2 may cache *remote* data in this mode.
    #[inline]
    pub const fn caches_remote(self) -> bool {
        !matches!(self, CacheMode::MemSideLocalOnly)
    }
}

/// Shape of the inter-socket fabric connecting the GPU sockets: the
/// single-switch star of Figure 1, the one fabric the paper evaluates.
///
/// A one-value enum that no config field holds: it stays only because the
/// out-of-workspace benchmark package passes it to `Topology::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// Every socket attaches to one central switch (the paper's fabric).
    #[default]
    Star,
}

/// Inter-socket link management policy (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// Static symmetric design-time lane assignment (baseline).
    StaticSymmetric,
    /// Dynamic asymmetric lane allocation: the link load balancer samples
    /// directional saturation and turns lanes around at runtime.
    DynamicAsymmetric,
}

/// Write policy of the L2 (the L1 is write-through by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Writes propagate to the next level immediately; lines never dirty.
    WriteThrough,
    /// Writes dirty the line; data moves on eviction or coherence flush.
    WriteBack,
}

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u16,
    /// Hit latency in cycles.
    pub hit_latency_cycles: u32,
}

impl CacheConfig {
    /// Highest associativity a cache may have: the tag array keeps each
    /// way's LRU rank within its set in one byte.
    pub const MAX_WAYS: u16 = 256;

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Does not panic; invalid geometries are caught by
    /// [`SystemConfig::validate`].
    #[inline]
    pub const fn num_sets(&self) -> u64 {
        self.size_bytes / (LINE_SIZE * self.ways as u64)
    }

    /// Total number of lines.
    #[inline]
    pub const fn num_lines(&self) -> u64 {
        self.size_bytes / LINE_SIZE
    }
}

/// Streaming multiprocessor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmConfig {
    /// SMs per GPU socket (Table 1: 64).
    pub sms_per_socket: u16,
    /// Maximum resident warps per SM (Table 1: 64).
    pub max_warps: u16,
    /// Maximum resident CTAs per SM regardless of warp occupancy.
    pub max_ctas: u16,
    /// L1 miss status holding registers per SM.
    pub mshrs: u16,
    /// Maximum independent outstanding loads per warp (scoreboard depth):
    /// a warp keeps issuing until this many reads are in flight, then
    /// blocks — the memory-level parallelism real SIMT cores extract.
    pub max_pending_loads: u16,
}

/// DRAM (on-package HBM) parameters per socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Aggregate bandwidth in bytes per GPU cycle (768 GB/s at 1 GHz = 768).
    pub bytes_per_cycle: u64,
    /// Access latency in cycles (100 ns at 1 GHz).
    pub latency_cycles: u32,
}

/// Intra-socket network-on-chip parameters (SM↔L2 crossbar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Aggregate crossbar bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Traversal latency in cycles.
    pub latency_cycles: u32,
}

/// Inter-socket link parameters (Table 1 plus §4 policy knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkConfig {
    /// Lanes per direction at kernel launch (Table 1: 8).
    pub lanes_per_direction: u8,
    /// Bandwidth of one lane in bytes per cycle (8 GB/s at 1 GHz = 8).
    pub lane_bytes_per_cycle: u64,
    /// One-way GPU-to-GPU latency in cycles (Table 1: 128).
    pub latency_cycles: u32,
    /// Cost of reversing one lane's direction, in cycles (§4.1: 100).
    pub switch_time_cycles: u32,
    /// Link load balancer sampling period in cycles (§4.1: 5000).
    pub sample_time_cycles: u32,
    /// Link management policy.
    pub mode: LinkMode,
}

impl LinkConfig {
    /// Aggregate per-direction bandwidth at symmetric configuration, in
    /// bytes per cycle.
    #[inline]
    pub const fn direction_bytes_per_cycle(&self) -> u64 {
        self.lanes_per_direction as u64 * self.lane_bytes_per_cycle
    }
}

/// Observability (metrics + event tracing) configuration.
///
/// Both switches default to off: the disabled configuration must add no
/// observable overhead to the simulation, and neither switch may affect
/// simulated timing — only what gets recorded about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ObsConfig {
    /// Fold a metrics snapshot (SM issue stalls, MSHR occupancy, link
    /// backlog, DRAM row locality, repartitions) into the report, read at
    /// report time from counters the components keep on every run.
    pub metrics: bool,
    /// Emit cycle-stamped structured trace events (kernel spans, lane
    /// turns, repartition decisions, link-utilization counters) into the
    /// report for Chrome-trace export.
    pub trace: bool,
    /// Cap on retained trace events; `0` means unbounded. When the cap is
    /// hit the oldest events are dropped (ring-buffer semantics).
    pub trace_capacity: u32,
    /// Fold a self-profile (per-subsystem work attribution assembled from
    /// the simulator's own monotonic counters) into the report. Purely a
    /// report-time summary: it reads counters the simulator maintains
    /// anyway, so it cannot perturb simulated timing or determinism.
    pub profile: bool,
}

impl ObsConfig {
    /// Everything off (the default).
    pub const fn off() -> Self {
        ObsConfig {
            metrics: false,
            trace: false,
            trace_capacity: 0,
            profile: false,
        }
    }

    /// Metrics, tracing, and profiling all on, unbounded trace retention.
    pub const fn full() -> Self {
        ObsConfig {
            metrics: true,
            trace: true,
            trace_capacity: 0,
            profile: true,
        }
    }

    /// Whether any observability feature is on.
    #[inline]
    pub const fn any(&self) -> bool {
        self.metrics || self.trace || self.profile
    }
}

/// Forward-progress watchdog configuration.
///
/// Both limits default to off (`0`): a watchdog must never change what a
/// healthy run computes, only how an unhealthy one terminates. The stall
/// window is armed by the simulator even when `stall_cycles` is `0` — it
/// then falls back to [`WatchdogConfig::DEFAULT_STALL_CYCLES`] — because a
/// genuine scheduler deadlock would otherwise spin forever behind the
/// free-running samplers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WatchdogConfig {
    /// Hard cycle budget for a whole run; `0` means unlimited. Exceeding it
    /// yields [`SimError::CycleLimit`](crate::SimError::CycleLimit).
    pub max_cycles: u64,
    /// Cycles without a progress-bearing event (while CTAs are outstanding
    /// and no memory is in flight) before the run is declared deadlocked;
    /// `0` selects [`WatchdogConfig::DEFAULT_STALL_CYCLES`].
    pub stall_cycles: u64,
}

impl WatchdogConfig {
    /// Default stall window when `stall_cycles` is left at `0`. Compute-op
    /// waits are tens of cycles and dispatch jitter is sub-thousand, so a
    /// million idle cycles with no memory in flight is unambiguous.
    pub const DEFAULT_STALL_CYCLES: u64 = 1_000_000;

    /// The stall window actually in force (resolves the `0` default).
    #[inline]
    pub const fn effective_stall_cycles(&self) -> u64 {
        if self.stall_cycles == 0 {
            Self::DEFAULT_STALL_CYCLES
        } else {
            self.stall_cycles
        }
    }
}

/// Saturation threshold used by both the link load balancer and the cache
/// partitioning algorithm (the paper uses "99% saturated").
pub const SATURATION_THRESHOLD: f64 = 0.99;

/// Request/response header and acknowledgment packet size in bytes.
pub const HEADER_BYTES: u32 = 16;

/// Full configuration of a simulated system: one or more GPU sockets behind
/// a switch, plus every policy knob the paper studies.
///
/// # Examples
///
/// ```
/// use numa_gpu_types::SystemConfig;
///
/// let cfg = SystemConfig::pascal_4_socket();
/// cfg.validate().expect("Table 1 config is valid");
/// assert_eq!(cfg.total_sms(), 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of GPU sockets (1 for the single-GPU baselines).
    pub num_sockets: u8,
    /// SM parameters.
    pub sm: SmConfig,
    /// Per-SM L1 cache.
    pub l1: CacheConfig,
    /// Per-socket L2 cache.
    pub l2: CacheConfig,
    /// Per-socket DRAM.
    pub dram: DramConfig,
    /// Per-socket NoC.
    pub noc: NocConfig,
    /// Per-socket switch link.
    pub link: LinkConfig,
    /// L2 organization (Figure 7 variants).
    pub cache_mode: CacheMode,
    /// Page placement policy.
    pub placement: PagePlacement,
    /// CTA scheduling policy.
    pub cta_policy: CtaSchedulingPolicy,
    /// NUMA-aware cache partition controller sampling period in cycles.
    pub cache_sample_time_cycles: u32,
    /// When `true`, L2 caches ignore kernel-boundary invalidation events —
    /// the hypothetical upper bound of Figure 9.
    pub ideal_no_l2_invalidate: bool,
    /// L2 write policy (Table 1: write-back; write-through is the §5.2
    /// sensitivity study's comparison point).
    pub l2_write_policy: WritePolicy,
    /// Observability switches (metrics snapshot + event tracing). Defaults
    /// to fully off; never affects simulated timing.
    pub obs: ObsConfig,
    /// Forward-progress watchdog (cycle budget + stall detector). Defaults
    /// to off; never affects the timing of a run that completes.
    pub watchdog: WatchdogConfig,
    /// Ignored: a simulation always runs on one thread. The field stays
    /// only so existing callers that assign it still compile; the result
    /// store canonicalizes it out of its key. It will be removed.
    pub sim_threads: u16,
}

// Configs are cloned into sweep worker threads; this fails to compile if a
// field ever stops being thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemConfig>();
};

impl SystemConfig {
    /// The paper's Table 1 single-GPU baseline (one 64-SM Pascal-class
    /// socket with uniform memory).
    pub fn pascal_single() -> Self {
        SystemConfig {
            num_sockets: 1,
            sm: SmConfig {
                sms_per_socket: 64,
                max_warps: 64,
                max_ctas: 32,
                mshrs: 64,
                max_pending_loads: 4,
            },
            l1: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 4,
                hit_latency_cycles: 28,
            },
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                ways: 16,
                hit_latency_cycles: 34,
            },
            dram: DramConfig {
                bytes_per_cycle: 768,
                latency_cycles: 100,
            },
            noc: NocConfig {
                bytes_per_cycle: 2048,
                latency_cycles: 10,
            },
            link: LinkConfig {
                lanes_per_direction: 8,
                lane_bytes_per_cycle: 8,
                latency_cycles: 128,
                switch_time_cycles: 100,
                sample_time_cycles: 5_000,
                mode: LinkMode::StaticSymmetric,
            },
            cache_mode: CacheMode::MemSideLocalOnly,
            placement: PagePlacement::FineInterleave,
            cta_policy: CtaSchedulingPolicy::Interleave,
            cache_sample_time_cycles: 5_000,
            ideal_no_l2_invalidate: false,
            l2_write_policy: WritePolicy::WriteBack,
            obs: ObsConfig::off(),
            watchdog: WatchdogConfig::default(),
            sim_threads: 1,
        }
    }

    /// The paper's evaluated 4-socket NUMA GPU with the locality-optimized
    /// runtime but baseline microarchitecture (mem-side L2, static links).
    pub fn pascal_4_socket() -> Self {
        Self::numa_sockets(4)
    }

    /// An `n`-socket NUMA GPU with the locality-optimized runtime
    /// (first-touch pages + contiguous-block CTAs) and baseline
    /// microarchitecture.
    pub fn numa_sockets(n: u8) -> Self {
        let mut cfg = Self::pascal_single();
        cfg.num_sockets = n;
        cfg.placement = PagePlacement::FirstTouch;
        cfg.cta_policy = CtaSchedulingPolicy::ContiguousBlock;
        cfg
    }

    /// The fully NUMA-aware `n`-socket design: dynamic asymmetric links plus
    /// dynamic L1/L2 cache partitioning (the paper's proposal, Figures 10
    /// and 11).
    pub fn numa_aware_sockets(n: u8) -> Self {
        let mut cfg = Self::numa_sockets(n);
        cfg.link.mode = LinkMode::DynamicAsymmetric;
        cfg.cache_mode = CacheMode::NumaAwareDynamic;
        cfg
    }

    /// A hypothetical (unbuildable) single GPU with all resources scaled by
    /// `factor`: SM count, DRAM bandwidth, L2 capacity, and NoC bandwidth.
    /// This is the red-dash theoretical ceiling of Figures 3, 10 and 11.
    pub fn hypothetical_scaled(factor: u8) -> Self {
        let mut cfg = Self::pascal_single();
        let f = factor as u64;
        cfg.sm.sms_per_socket *= factor as u16;
        cfg.dram.bytes_per_cycle *= f;
        cfg.l2.size_bytes *= f;
        cfg.noc.bytes_per_cycle *= f;
        cfg
    }

    /// Total SMs across all sockets.
    #[inline]
    pub fn total_sms(&self) -> u32 {
        self.num_sockets as u32 * self.sm.sms_per_socket as u32
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any geometry or policy parameter is
    /// degenerate (zero sockets, non-power-of-two sets, fewer than two lanes
    /// per link, etc.).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sockets == 0 || self.num_sockets > 32 {
            return Err(ConfigError::new(format!(
                "num_sockets must be in 1..=32, got {}",
                self.num_sockets
            )));
        }
        if self.sm.sms_per_socket == 0 {
            return Err(ConfigError::new("sms_per_socket must be nonzero"));
        }
        if self.sm.max_warps == 0 || self.sm.max_ctas == 0 || self.sm.mshrs == 0 {
            return Err(ConfigError::new(
                "max_warps, max_ctas and mshrs must be nonzero",
            ));
        }
        if self.sm.max_pending_loads == 0 {
            return Err(ConfigError::new("max_pending_loads must be nonzero"));
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2)] {
            if c.ways == 0 || c.ways > CacheConfig::MAX_WAYS {
                return Err(ConfigError::new(format!(
                    "{name}: ways must be in 1..={}, got {}",
                    CacheConfig::MAX_WAYS,
                    c.ways
                )));
            }
            if c.size_bytes == 0 || c.size_bytes % (LINE_SIZE * c.ways as u64) != 0 {
                return Err(ConfigError::new(format!(
                    "{name}: size {} is not a multiple of line_size*ways",
                    c.size_bytes
                )));
            }
        }
        if self.dram.bytes_per_cycle == 0 || self.noc.bytes_per_cycle == 0 {
            return Err(ConfigError::new("dram and noc bandwidth must be nonzero"));
        }
        if self.link.lanes_per_direction == 0 || self.link.lane_bytes_per_cycle == 0 {
            return Err(ConfigError::new("link lanes and lane rate must be nonzero"));
        }
        // A link pools both directions' lanes in one `u8` lane total.
        let max_lanes = u8::MAX / 2;
        if self.link.lanes_per_direction > max_lanes {
            return Err(ConfigError::new(format!(
                "link: lanes_per_direction must be in 1..={max_lanes}, got {}",
                self.link.lanes_per_direction
            )));
        }
        if self.link.sample_time_cycles == 0 || self.cache_sample_time_cycles == 0 {
            return Err(ConfigError::new("sample times must be nonzero"));
        }
        if self.cache_mode == CacheMode::StaticRemoteCache && self.l2.ways < 2 {
            return Err(ConfigError::new(
                "static remote cache requires at least 2 L2 ways",
            ));
        }
        // Both classes keep at least one way of every partitioned cache.
        if self.cache_mode == CacheMode::NumaAwareDynamic && (self.l1.ways < 2 || self.l2.ways < 2)
        {
            return Err(ConfigError::new(
                "NUMA-aware partitioning requires at least 2 L1 and 2 L2 ways",
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    /// Defaults to the paper's 4-socket evaluation platform.
    fn default() -> Self {
        Self::pascal_4_socket()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_validate() {
        SystemConfig::pascal_single().validate().unwrap();
        SystemConfig::pascal_4_socket().validate().unwrap();
        SystemConfig::numa_aware_sockets(8).validate().unwrap();
        SystemConfig::hypothetical_scaled(8).validate().unwrap();
    }

    #[test]
    fn table1_values_match_paper() {
        let c = SystemConfig::pascal_4_socket();
        assert_eq!(c.num_sockets, 4);
        assert_eq!(c.sm.sms_per_socket, 64);
        assert_eq!(c.sm.max_warps, 64);
        assert_eq!(c.l1.size_bytes, 128 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.dram.bytes_per_cycle, 768);
        assert_eq!(c.dram.latency_cycles, 100);
        assert_eq!(c.link.direction_bytes_per_cycle(), 64);
        assert_eq!(c.link.latency_cycles, 128);
    }

    #[test]
    fn scaled_gpu_multiplies_resources() {
        let c = SystemConfig::hypothetical_scaled(4);
        assert_eq!(c.num_sockets, 1);
        assert_eq!(c.sm.sms_per_socket, 256);
        assert_eq!(c.dram.bytes_per_cycle, 768 * 4);
        assert_eq!(c.l2.size_bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn numa_aware_turns_on_both_mechanisms() {
        let c = SystemConfig::numa_aware_sockets(4);
        assert_eq!(c.link.mode, LinkMode::DynamicAsymmetric);
        assert_eq!(c.cache_mode, CacheMode::NumaAwareDynamic);
        assert_eq!(c.placement, PagePlacement::FirstTouch);
        assert_eq!(c.cta_policy, CtaSchedulingPolicy::ContiguousBlock);
    }

    #[test]
    fn zero_sockets_rejected() {
        let mut c = SystemConfig::pascal_single();
        c.num_sockets = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn socket_cap_is_32() {
        let mut c = SystemConfig::pascal_single();
        c.num_sockets = 32;
        c.validate().unwrap();
        c.num_sockets = 33;
        let err = c.validate().unwrap_err();
        assert!(err.message().contains("1..=32"), "stale cap: {err}");
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let mut c = SystemConfig::pascal_single();
        c.l2.size_bytes = 1000; // not a multiple of 128*16
        assert!(c.validate().is_err());
        let mut c = SystemConfig::pascal_single();
        c.l1.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn associativity_capped_at_a_rank_byte() {
        // 512 lines: a multiple of line_size * ways at both 256 and 512.
        let mut c = SystemConfig::pascal_single();
        c.l2.size_bytes = 512 * LINE_SIZE;
        c.l2.ways = 256;
        c.validate().unwrap();
        c.l2.ways = 512;
        let err = c.validate().unwrap_err();
        assert!(
            err.message().contains("l2: ways must be in 1..=256"),
            "{err}"
        );
        let mut c = SystemConfig::pascal_single();
        c.l1.size_bytes = 512 * LINE_SIZE;
        c.l1.ways = 257;
        assert!(c.validate().is_err());
    }

    #[test]
    fn numa_aware_partitioning_needs_two_ways_at_both_levels() {
        let mut c = SystemConfig::numa_aware_sockets(4);
        c.l1.size_bytes = 256 * LINE_SIZE;
        c.l1.ways = 1;
        assert!(c.validate().is_err());
        c.cache_mode = CacheMode::SharedCoherent;
        c.validate().unwrap();
        let mut c = SystemConfig::numa_aware_sockets(4);
        c.l2.size_bytes = 256 * LINE_SIZE;
        c.l2.ways = 1;
        let err = c.validate().unwrap_err();
        assert!(
            err.message().contains("at least 2 L1 and 2 L2 ways"),
            "{err}"
        );
    }

    #[test]
    fn link_lanes_capped_so_the_lane_total_fits_a_byte() {
        let mut c = SystemConfig::pascal_single();
        c.link.lanes_per_direction = 127;
        c.validate().unwrap();
        c.link.lanes_per_direction = 128;
        let err = c.validate().unwrap_err();
        assert!(
            err.message()
                .contains("lanes_per_direction must be in 1..=127"),
            "{err}"
        );
    }

    #[test]
    fn cache_mode_predicates() {
        assert!(!CacheMode::MemSideLocalOnly.caches_remote());
        assert!(CacheMode::StaticRemoteCache.caches_remote());
        assert!(CacheMode::SharedCoherent.caches_remote());
        assert!(CacheMode::NumaAwareDynamic.caches_remote());
    }

    #[test]
    fn obs_defaults_off() {
        let c = SystemConfig::pascal_single();
        assert_eq!(c.obs, ObsConfig::off());
        assert!(!c.obs.any());
        assert!(ObsConfig::full().any());
        assert_eq!(ObsConfig::default(), ObsConfig::off());
    }

    #[test]
    fn watchdog_defaults_off_with_effective_stall_window() {
        let c = SystemConfig::pascal_single();
        assert_eq!(c.watchdog, WatchdogConfig::default());
        assert_eq!(c.watchdog.max_cycles, 0);
        assert_eq!(
            c.watchdog.effective_stall_cycles(),
            WatchdogConfig::DEFAULT_STALL_CYCLES
        );
        let w = WatchdogConfig {
            max_cycles: 10,
            stall_cycles: 7,
        };
        assert_eq!(w.effective_stall_cycles(), 7);
    }

    #[test]
    fn sets_geometry() {
        let c = SystemConfig::pascal_single();
        assert_eq!(c.l1.num_sets(), 128 * 1024 / (128 * 4));
        assert_eq!(c.l2.num_sets(), 4 * 1024 * 1024 / (128 * 16));
    }
}
