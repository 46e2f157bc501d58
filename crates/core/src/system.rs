//! The multi-socket NUMA GPU system: construction and public API.
//!
//! # Partitioned event loop
//!
//! The simulator runs one event-queue *partition per socket* — a
//! [`SocketShard`] bundling the socket's SMs, L2, DRAM, NoC, and switch
//! link — plus a shared *control partition* for the cross-cutting plane
//! (link balancer sampling, cache repartition sampling).
//! Shards advance one after another inside conservative lookahead windows
//! and exchange cross-socket traffic as explicit [`XMsg`] messages, merged
//! deterministically at window barriers (see `exec` for the executor and
//! `mempath` for the message plane).

use crate::observe::ObsState;
use crate::power::average_link_power_w;
use crate::report::{SimReport, SocketReport};
use numa_gpu_cache::LineClass;
use numa_gpu_cache::{CacheStats, PartitionController, SetAssocCache, WayPartition};
use numa_gpu_engine::{CrossMessage, EventQueue, EventQueueStats, ServiceQueue, Watchdog};
use numa_gpu_interconnect::{GpuLink, LinkDirection, Topology};
use numa_gpu_mem::{Dram, PageTable};
use numa_gpu_obs::{MetricValue, MetricsSnapshot, Pow2Histogram, ProfileReport, TraceEvent};
use numa_gpu_runtime::{Kernel, Workload};
use numa_gpu_sm::Sm;
use numa_gpu_types::{
    cycles_to_ticks, ticks_to_cycles, CacheMode, ConfigError, CtaId, LineAddr, PageId, SimError,
    SocketId, SystemConfig, Tick, TopologyKind, WarpOp, WarpSlot,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Cycles without a progress-bearing event (while CTAs are outstanding
/// and no memory is in flight) before a run is declared deadlocked.
/// Compute-op waits are tens of cycles and dispatch jitter is
/// sub-thousand, so a million idle cycles with no memory in flight is
/// unambiguous. The window is always armed, because a genuine scheduler
/// deadlock would otherwise spin forever behind the free-running samplers.
const STALL_CYCLES: u64 = 1_000_000;

/// Events driving the simulation. Memory-path stages are separate events so
/// each bandwidth resource is touched at its true arrival time (keeping
/// queue timestamps monotone).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A warp is ready to issue its next operation.
    WarpIssue { sm: u32, slot: WarpSlot },
    /// Read request reached the requester's L2 complex.
    ReadAtL2 {
        sm: u32,
        line: LineAddr,
        home: SocketId,
    },
    /// Read request reached the home socket (remote path).
    ReadAtHome {
        sm: u32,
        line: LineAddr,
        home: SocketId,
    },
    /// Data ready at home; response crosses the switch back.
    ReadReturn {
        sm: u32,
        line: LineAddr,
        home: SocketId,
    },
    /// Data at the requester socket boundary: optional L2 fill, then the
    /// response NoC.
    DataToSm {
        sm: u32,
        line: LineAddr,
        class: LineClass,
        fill_l2: bool,
    },
    /// A fill response arrives at an SM's L1.
    L1Fill {
        sm: u32,
        line: LineAddr,
        class: LineClass,
    },
    /// Write data reached the requester's L2 complex. Carries the issuing
    /// warp so store backpressure can wake it on acceptance.
    WriteAtL2 {
        sm: u32,
        slot: WarpSlot,
        line: LineAddr,
        home: SocketId,
    },
    /// Write data reached the home socket (remote path).
    WriteAtHome {
        from: SocketId,
        line: LineAddr,
        home: SocketId,
    },
    /// A cross-partition message reaches this shard's switch boundary: the
    /// payload still has to cross the ingress lanes before its next stage.
    /// Delivered at the barrier merge; counts as watchdog forward progress
    /// like every other shard event.
    XArrive { msg: XMsg },
    /// Periodic link load balancer sampling (§4). Control partition only.
    LinkSample,
    /// Periodic NUMA-aware cache partition sampling (§5). Control partition
    /// only.
    CacheSample,
}

impl Ev {
    /// Whether this event is an in-flight memory-path stage (tracked so the
    /// kernel loop drains outstanding traffic before finishing).
    pub(crate) fn is_mem_stage(&self) -> bool {
        !matches!(
            self,
            Ev::WarpIssue { .. } | Ev::LinkSample | Ev::CacheSample
        )
    }
}

/// A cross-partition message: one leg of socket-to-socket traffic. The
/// emitting shard pays its egress lanes and the access-hop latency, stamps
/// the switch arrival tick, and appends the message to its window outbox;
/// the destination shard pays ingress plus the final access hop on
/// delivery — reproducing the switch's transfer timing leg for leg.
#[derive(Debug, Clone, Copy)]
pub(crate) enum XMsg {
    /// Read request travelling to the home socket (header-sized).
    ReadReq {
        sm: u32,
        line: LineAddr,
        home: SocketId,
    },
    /// Read response returning to the requester (line + header).
    ReadResp { sm: u32, line: LineAddr },
    /// Write data travelling to the home socket (line + header).
    WriteData {
        from: SocketId,
        line: LineAddr,
        home: SocketId,
    },
    /// Write acknowledgment returning to the requester (header-sized);
    /// extends the requester's write drain on arrival.
    WriteAck,
}

/// Per-warp load scoreboard state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WarpMemState {
    /// Loads in flight for this warp.
    pub outstanding: u16,
    /// Warp stalled because the scoreboard is full.
    pub blocked: bool,
    /// Warp has exhausted its trace and waits for outstanding loads.
    pub draining: bool,
}

/// One event-loop partition: a socket's private state — SMs, L1s, L2,
/// DRAM, NoC queues, switch link, partition controller — plus its event
/// queue and the cross-partition outbox. Events carry *global* SM ids; the
/// shard translates to its local slice via `base_sm`.
///
/// All fields a window touches live here, so what one shard does inside a
/// window reaches another only through the barrier.
pub(crate) struct SocketShard {
    pub socket: SocketId,
    pub base_sm: u32,
    pub cfg: Arc<SystemConfig>,
    /// Kernel whose CTAs this shard is dispatching (set per kernel run).
    pub kernel: Option<Arc<dyn Kernel>>,
    /// Pending CTAs for this socket, drained from the launch plan at kernel
    /// start (dispatch never steals across sockets, matching the paper).
    pub ctas: VecDeque<CtaId>,
    pub sms: Vec<Sm>,
    /// Pending (not yet successfully issued) memory op per warp slot,
    /// parked on MSHR-full and replayed on retry. Like `warp_mem`, one
    /// flat array indexed by [`Self::warp_index`].
    pub pending_ops: Vec<Option<WarpOp>>,
    /// Per-warp memory scoreboard: outstanding loads and wait state.
    pub warp_mem: Vec<WarpMemState>,
    pub l2: SetAssocCache,
    pub dram: Dram,
    /// Request-direction crossbar (SM -> L2/switch).
    pub noc_req: ServiceQueue,
    /// Response-direction crossbar (L2/switch -> SM).
    pub noc_resp: ServiceQueue,
    /// This socket's link to the switch (egress and ingress lanes), owned
    /// by the shard so a window drives it without touching another
    /// socket's state.
    pub link: GpuLink,
    pub ctl: PartitionController,
    /// This partition's event queue.
    pub queue: EventQueue<Ev>,
    /// Cross-partition messages emitted this window, in emission order,
    /// stamped with their switch-boundary tick and destination.
    pub outbox: Vec<(Tick, (SocketId, XMsg))>,
    /// First-touch pages this shard claimed this window (page -> first
    /// claim tick); the barrier arbitrates racing claims deterministically.
    pub claims: BTreeMap<PageId, Tick>,
    /// Outgoing remote read requests in the current cache sampling window
    /// (the paper's incoming-bandwidth estimator).
    pub remote_reads_window: u64,
    pub reads_local_class: u64,
    pub reads_remote_class: u64,
    /// Shard-local high-water mark of fire-and-forget write completions;
    /// folded into the global drain at each barrier.
    pub write_drain: Tick,
    /// Net change to the global in-flight memory event count this window.
    pub inflight_delta: i64,
    /// CTAs retired this window; folded at the barrier.
    pub retired_ctas: u32,
    /// Page-table lookups answered against the shared borrow this window.
    pub lookups: u64,
    /// Events processed this window (watchdog progress evidence).
    pub processed: u64,
    /// Highest event tick this shard has processed.
    pub last_tick: Tick,
    /// Scratch buffer recycled across CTA dispatches and L1 fills, so the
    /// per-event hot path allocates no warp-slot vectors in steady state.
    pub scratch_slots: Vec<WarpSlot>,
    /// Times `scratch_slots` was reused with retained capacity
    /// (allocations avoided; feeds the self-profiler).
    pub buf_reuses: u64,
    // Derived constants.
    pub noc_latency: Tick,
    pub l2_hit_latency: Tick,
    /// The access-hop latency (half the one-way link latency): the cost
    /// each message leg pays to cross between this socket and its switch.
    pub hop_latency: Tick,
}

impl SocketShard {
    /// A socket's partition around its switch `link`; `hop_latency` is the
    /// fabric's access-hop latency.
    fn new(cfg: &Arc<SystemConfig>, socket: SocketId, link: GpuLink, hop_latency: Tick) -> Self {
        let sms_per_socket = cfg.sm.sms_per_socket as u32;
        let warp_slots = sms_per_socket as usize * cfg.sm.max_warps as usize;
        let l1_partition = if cfg.cache_mode == CacheMode::NumaAwareDynamic {
            Some(WayPartition::balanced(cfg.l1.ways))
        } else {
            None
        };
        let l2_partition = match cfg.cache_mode {
            CacheMode::NumaAwareDynamic | CacheMode::StaticRemoteCache => {
                Some(WayPartition::balanced(cfg.l2.ways))
            }
            _ => None,
        };
        SocketShard {
            socket,
            base_sm: socket.index() as u32 * sms_per_socket,
            kernel: None,
            ctas: VecDeque::new(),
            sms: (0..sms_per_socket)
                .map(|_| Sm::new(&cfg.sm, &cfg.l1, l1_partition))
                .collect(),
            pending_ops: vec![None; warp_slots],
            warp_mem: vec![WarpMemState::default(); warp_slots],
            l2: SetAssocCache::new(&cfg.l2, l2_partition),
            dram: Dram::new(cfg.dram),
            noc_req: ServiceQueue::new(cfg.noc.bytes_per_cycle),
            noc_resp: ServiceQueue::new(cfg.noc.bytes_per_cycle),
            link,
            ctl: PartitionController::new(cfg.l2.ways),
            queue: EventQueue::new(),
            outbox: Vec::new(),
            claims: BTreeMap::new(),
            remote_reads_window: 0,
            reads_local_class: 0,
            reads_remote_class: 0,
            write_drain: 0,
            inflight_delta: 0,
            retired_ctas: 0,
            lookups: 0,
            processed: 0,
            last_tick: 0,
            scratch_slots: Vec::new(),
            buf_reuses: 0,
            noc_latency: cycles_to_ticks(cfg.noc.latency_cycles as u64),
            l2_hit_latency: cycles_to_ticks(cfg.l2.hit_latency_cycles as u64),
            hop_latency,
            cfg: Arc::clone(cfg),
        }
    }

    /// Index of `slot` of local SM `li` in `pending_ops` / `warp_mem`.
    #[inline]
    pub(crate) fn warp_index(&self, li: usize, slot: WarpSlot) -> usize {
        li * self.cfg.sm.max_warps as usize + slot.index()
    }

    /// Schedules a memory-path stage event in this shard's queue, tracking
    /// it as in flight.
    #[inline]
    pub(crate) fn push_mem(&mut self, at: Tick, ev: Ev) {
        debug_assert!(ev.is_mem_stage());
        self.inflight_delta += 1;
        self.queue.push(at, ev);
    }

    /// Resolves `line`'s home socket against the window's shared table. An
    /// unplaced first-touch page is *claimed* for this shard (treated as
    /// local until the barrier arbitrates); claims and lookup counts fold
    /// into the table at the barrier.
    pub(crate) fn home_of_line(&mut self, t: Tick, line: LineAddr, pages: &PageTable) -> SocketId {
        self.lookups += 1;
        if let Some(home) = pages.peek_line(line) {
            return home;
        }
        self.claims.entry(line.page()).or_insert(t);
        self.socket
    }

    /// Emits a cross-partition message: pays this socket's egress lanes and
    /// the access hop, then parks the message in the outbox for the barrier
    /// merge. The message is in flight until its final stage pops.
    pub(crate) fn send_cross(&mut self, t: Tick, to: SocketId, msg: XMsg, bytes: u32) -> Tick {
        debug_assert_ne!(to, self.socket, "local traffic must not cross the switch");
        let egress_clear = self
            .link
            .send(t, numa_gpu_interconnect::LinkDirection::Egress, bytes);
        let at_switch = egress_clear + self.hop_latency;
        self.inflight_delta += 1;
        self.outbox.push((at_switch, (to, msg)));
        egress_clear
    }
}

/// A simulated multi-socket NUMA GPU (or single-GPU baseline).
///
/// Build one per run with [`NumaGpuSystem::new`], optionally enable
/// timeline recording, then call [`NumaGpuSystem::run`] with a workload.
///
/// # Examples
///
/// ```no_run
/// use numa_gpu_core::NumaGpuSystem;
/// use numa_gpu_types::SystemConfig;
///
/// # fn workload() -> numa_gpu_runtime::Workload { unimplemented!() }
/// let mut sys = NumaGpuSystem::new(SystemConfig::numa_aware_sockets(4))?;
/// let report = sys.run(&workload())?;
/// println!("took {} cycles", report.total_cycles);
/// # Ok::<(), numa_gpu_types::SimError>(())
/// ```
pub struct NumaGpuSystem {
    pub(crate) cfg: Arc<SystemConfig>,
    /// One event-loop partition per socket.
    pub(crate) shards: Vec<SocketShard>,
    pub(crate) pages: PageTable,
    /// The shared control partition: balancer and cache sampling. Always
    /// handled serially, after same-tick shard events (the control
    /// partition sorts as the highest partition index).
    pub(crate) control: EventQueue<Ev>,
    /// The access-hop latency each socket↔switch message leg pays (half
    /// the one-way link latency). It is also the executor's conservative
    /// lookahead, bounding window width: every cross-socket message pays
    /// it before it reaches another socket.
    pub(crate) hop_latency: Tick,
    pub(crate) now: Tick,
    pub(crate) outstanding_ctas: u32,
    /// In-flight staged memory events (the kernel loop drains these).
    pub(crate) inflight_mem: u64,
    /// High-water mark of fire-and-forget write completions, so a kernel
    /// that ends in a write burst is charged for the drain.
    pub(crate) write_drain: Tick,
    pub(crate) samplers_scheduled: bool,
    pub(crate) has_run: bool,
    pub(crate) kernel_starts: Vec<u64>,
    /// Forward-progress watchdog (cycle budget + no-progress detector).
    /// Cross-partition message deliveries count as progress like any other
    /// shard event, so barrier-heavy runs never trip the stall detector.
    pub(crate) watchdog: Watchdog,
    /// Trace sink and Fig-5 timelines (see `observe`).
    pub(crate) obs: ObsState,
    /// Persistent merge buffer for the window barrier; outboxes drain into
    /// it in place, so the steady-state barrier allocates nothing.
    pub(crate) merge_buf: Vec<CrossMessage<(SocketId, XMsg)>>,
    /// Window barriers folded so far.
    pub(crate) barriers: u64,
    /// Cross-partition messages merged and delivered at barriers.
    pub(crate) xmsgs_merged: u64,
    /// Barrier buffer reuses with retained capacity (allocations avoided).
    pub(crate) merge_reuses: u64,
}

impl std::fmt::Debug for NumaGpuSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaGpuSystem")
            .field("sockets", &self.cfg.num_sockets)
            .field("now_cycles", &ticks_to_cycles(self.now))
            .finish_non_exhaustive()
    }
}

impl NumaGpuSystem {
    /// Builds a system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg.validate()` fails.
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let sockets = cfg.num_sockets as usize;
        let cfg = Arc::new(cfg);

        // Each socket's switch link goes to its shard, so a window drives
        // it without touching another socket's state.
        let fabric = Topology::new(TopologyKind::Star, &cfg.link, cfg.num_sockets)?;
        let hop_latency = fabric.hop_latency();
        let shards: Vec<SocketShard> = fabric
            .into_links()
            .into_iter()
            .enumerate()
            .map(|(s, link)| SocketShard::new(&cfg, SocketId::new(s as u8), link, hop_latency))
            .collect();

        let obs = ObsState::new(&cfg.obs, sockets);
        let pages = PageTable::new(cfg.placement, cfg.num_sockets);
        let budget = (cfg.max_cycles > 0).then(|| cycles_to_ticks(cfg.max_cycles));
        let watchdog = Watchdog::new(budget, cycles_to_ticks(STALL_CYCLES));
        Ok(NumaGpuSystem {
            hop_latency,
            cfg,
            shards,
            pages,
            control: EventQueue::new(),
            now: 0,
            outstanding_ctas: 0,
            inflight_mem: 0,
            write_drain: 0,
            samplers_scheduled: false,
            has_run: false,
            kernel_starts: Vec::new(),
            watchdog,
            obs,
            merge_buf: Vec::new(),
            barriers: 0,
            xmsgs_merged: 0,
            merge_reuses: 0,
        })
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Every socket's switch link, in socket order.
    pub(crate) fn links(&self) -> impl Iterator<Item = &GpuLink> {
        self.shards.iter().map(|shard| &shard.link)
    }

    /// [`Self::links`], mutably.
    pub(crate) fn links_mut(&mut self) -> impl Iterator<Item = &mut GpuLink> {
        self.shards.iter_mut().map(|shard| &mut shard.link)
    }

    /// Enables per-sample link utilization recording (Fig 5 timelines).
    /// Call before [`Self::run`].
    pub fn enable_link_timeline(&mut self) {
        self.obs.record_timeline = true;
    }

    /// Runs `workload` to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the scheduler stops making forward
    /// progress (event queues empty with CTAs outstanding, or the stall
    /// watchdog sees no progress for a million cycles), and
    /// [`SimError::CycleLimit`] if `max_cycles` is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if called twice on the same system (state is single-use), if
    /// the workload has no kernels, or if a kernel's CTAs need more warps
    /// than an SM can hold.
    pub fn run(&mut self, workload: &Workload) -> Result<SimReport, SimError> {
        assert!(!self.has_run, "NumaGpuSystem::run is single-use");
        assert!(
            !workload.kernels.is_empty(),
            "workload must contain at least one kernel"
        );
        self.has_run = true;

        for kernel in &workload.kernels {
            assert!(
                kernel.warps_per_cta() >= 1
                    && kernel.warps_per_cta() <= self.cfg.sm.max_warps as u32,
                "kernel warps_per_cta {} exceeds SM capacity",
                kernel.warps_per_cta()
            );
            let start = self.kernel_boundary();
            self.now = start;
            self.kernel_starts.push(ticks_to_cycles(start));
            self.run_kernel(kernel.clone())?;
            if self.obs.tracing() {
                let start_cycle = ticks_to_cycles(start);
                let end_cycle = ticks_to_cycles(self.now.max(self.write_drain));
                let idx = self.kernel_starts.len() - 1;
                self.obs.emit(
                    TraceEvent::complete(
                        format!("kernel[{idx}] {}", kernel.name()),
                        "kernel",
                        start_cycle,
                        end_cycle.saturating_sub(start_cycle),
                        0,
                    )
                    .arg("ctas", kernel.num_ctas() as u64),
                );
            }
        }
        // Charge the final write drain.
        self.now = self.now.max(self.write_drain);
        Ok(self.build_report(workload))
    }

    fn build_report(&mut self, workload: &Workload) -> SimReport {
        // `run` folds the trailing write drain into `now` before reporting;
        // `kernel_cycles` relies on this so the last kernel's span covers
        // its fire-and-forget writes.
        debug_assert!(
            self.now >= self.write_drain,
            "build_report before the final write drain was charged"
        );
        let total_cycles = ticks_to_cycles(self.now);
        let sockets: Vec<SocketReport> = self
            .shards
            .iter()
            .map(|shard| SocketReport {
                egress_bytes: shard.link.stats().egress_bytes.get(),
                ingress_bytes: shard.link.stats().ingress_bytes.get(),
                dram_bytes: shard.dram.stats().bytes.get(),
                l2: shard.l2.stats(),
                lane_turns: shard.link.stats().lane_turns.get(),
                equalizations: shard.link.stats().equalizations.get(),
                l2_partition: shard
                    .l2
                    .partition()
                    .map(|p| (p.local_ways(), p.remote_ways())),
            })
            .collect();
        // Egress counts each cross-socket transfer once.
        let interconnect_bytes: u64 = sockets.iter().map(|s| s.egress_bytes).sum();
        debug_assert_eq!(
            interconnect_bytes,
            sockets.iter().map(|s| s.ingress_bytes).sum::<u64>(),
            "links received a different byte count than they sent"
        );
        let mut l1 = CacheStats::default();
        for sm in self.shards.iter().flat_map(|shard| shard.sms.iter()) {
            let s = sm.l1_stats();
            l1.local_hits.add(s.local_hits.get());
            l1.local_misses.add(s.local_misses.get());
            l1.remote_hits.add(s.remote_hits.get());
            l1.remote_misses.add(s.remote_misses.get());
            l1.fills.add(s.fills.get());
            l1.evictions.add(s.evictions.get());
        }
        let reads_local: u64 = self.shards.iter().map(|s| s.reads_local_class).sum();
        let reads_remote: u64 = self.shards.iter().map(|s| s.reads_remote_class).sum();
        let reads = reads_local + reads_remote;
        let link_timelines = std::mem::take(&mut self.obs.timelines);
        // Both are assembled from counters the simulator maintains
        // regardless of the flags, so enabling either cannot change any
        // other report field.
        let profile = self.cfg.obs.profile.then(|| self.build_profile());
        let metrics = self
            .cfg
            .obs
            .metrics
            .then(|| self.build_metrics(profile.as_ref()));
        let trace_events = self.obs.take_trace();
        SimReport {
            workload: workload.meta.name.clone(),
            total_cycles,
            kernel_cycles: self.kernel_cycles(),
            kernel_start_cycles: self.kernel_starts.clone(),
            sockets,
            link_timelines,
            l1,
            remote_read_fraction: if reads == 0 {
                0.0
            } else {
                reads_remote as f64 / reads as f64
            },
            interconnect_bytes,
            link_power_w: average_link_power_w(interconnect_bytes, total_cycles),
            metrics,
            trace_events,
            profile,
        }
    }

    /// Assembles the metrics snapshot: per socket, the instruments watching
    /// the paper's two mechanisms (§4 lane allocation, §5 cache
    /// partitioning) and what feeds them; then the engine's queue totals;
    /// then, when the profile is also on, its counters as `profile.*`.
    /// Names, kinds and order are fixed, so the encoding is byte-stable.
    /// Like [`Self::build_profile`], a pure read of state every run keeps.
    fn build_metrics(&self, profile: Option<&ProfileReport>) -> MetricsSnapshot {
        use LinkDirection::{Egress, Ingress};
        use MetricValue::{Counter, Gauge, Histogram};
        let mut entries = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut stalls = 0u64;
            let mut occupancy = Pow2Histogram::default();
            for sm in &shard.sms {
                stalls += sm.stats().mshr_stalls.get();
                occupancy.merge(sm.mshr_occupancy());
            }
            let (l2, dram, link) = (&shard.l2, &shard.dram, &shard.link);
            let local_ways = l2.partition().map_or(0, |p| p.local_ways());
            let hist = |h: &Pow2Histogram| Histogram(h.summary().clone());
            let mut put = |layer: &str, name: &str, value: MetricValue| {
                entries.push((format!("{layer}.s{s}.{name}"), value));
            };
            put("sm", "issue_stalls", Counter(stalls));
            put("sm", "mshr_occupancy", hist(&occupancy));
            put("l2", "repartitions", Counter(l2.repartitions()));
            put("l2", "local_ways", Gauge(local_ways as u64));
            put("dram", "row_hits", Counter(dram.row_hits()));
            put("dram", "row_misses", Counter(dram.row_misses()));
            let (egress, ingress) = (link.backlog_cycles(Egress), link.backlog_cycles(Ingress));
            put("link", "egress_backlog_cycles", hist(egress));
            put("link", "ingress_backlog_cycles", hist(ingress));
            put("link", "conflicts", Counter(link.stats().conflicts.get()));
        }
        let q = self.queue_totals();
        entries.extend([
            ("engine.events_scheduled".to_string(), Gauge(q.pushes)),
            ("engine.events_dispatched".to_string(), Gauge(q.pops)),
            ("engine.queue_max_len".to_string(), Gauge(q.max_len as u64)),
        ]);
        for scope in profile.iter().flat_map(|p| &p.scopes) {
            for (name, value) in &scope.counters {
                entries.push((format!("profile.{}.{name}", scope.name), Counter(*value)));
            }
        }
        MetricsSnapshot { entries }
    }

    /// Event-queue traffic summed over every partition queue plus the
    /// control queue (`max_len` is the largest single queue's peak).
    fn queue_totals(&self) -> EventQueueStats {
        let mut q = self.control.stats();
        for shard in &self.shards {
            let s = shard.queue.stats();
            q.pushes += s.pushes;
            q.pops += s.pops;
            q.max_len = q.max_len.max(s.max_len);
            q.bucket_pushes += s.bucket_pushes;
            q.sorted_pushes += s.sorted_pushes;
            q.overflow_pushes += s.overflow_pushes;
            q.promotions += s.promotions;
            q.rebases += s.rebases;
            q.rebuilds += s.rebuilds;
        }
        q
    }

    /// Assembles the self-profile: every subsystem's monotonic work
    /// counters, attributed to fixed scopes in a fixed order (so the JSON
    /// encoding is byte-stable). Pure read of state that exists whether or
    /// not profiling is enabled — see `numa_gpu_obs::profiler` for the
    /// timing-invariance argument.
    fn build_profile(&self) -> ProfileReport {
        let mut p = ProfileReport::new();

        // Engine: event-queue traffic (split by calendar-queue path),
        // window barriers, and the cross-partition merge plane.
        let q = self.queue_totals();
        p.scope("engine")
            .count("events_scheduled", q.pushes)
            .count("events_popped", q.pops)
            .count("queue_peak_len", q.max_len as u64)
            .count("queue_bucket_pushes", q.bucket_pushes)
            .count("queue_sorted_pushes", q.sorted_pushes)
            .count("queue_overflow_pushes", q.overflow_pushes)
            .count("queue_promotions", q.promotions)
            .count("queue_rebases", q.rebases)
            .count("queue_rebuilds", q.rebuilds)
            .count("window_barriers", self.barriers)
            .count("cross_msgs_merged", self.xmsgs_merged)
            .count("allocations_avoided", self.merge_reuses);

        // SM: warp issue volume and the dispatch/fill recycling plane.
        let (mut ops, mut ctas, mut stalls, mut recycled) = (0u64, 0u64, 0u64, 0u64);
        for shard in &self.shards {
            recycled += shard.buf_reuses;
            for sm in &shard.sms {
                let s = sm.stats();
                ops += s.ops_issued.get();
                ctas += s.ctas_completed.get();
                stalls += s.mshr_stalls.get();
                recycled += sm.recycled_allocations();
            }
        }
        p.scope("sm")
            .count("warp_ops_issued", ops)
            .count("ctas_completed", ctas)
            .count("mshr_stall_parks", stalls)
            .count("allocations_avoided", recycled);

        // Cache: access volumes at both levels.
        let (mut l1a, mut l1f, mut l2a, mut l2f, mut l2e) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for shard in &self.shards {
            for sm in &shard.sms {
                let s = sm.l1_stats();
                l1a += s.local_hits.get()
                    + s.local_misses.get()
                    + s.remote_hits.get()
                    + s.remote_misses.get();
                l1f += s.fills.get();
            }
            let s = shard.l2.stats();
            l2a += s.local_hits.get()
                + s.local_misses.get()
                + s.remote_hits.get()
                + s.remote_misses.get();
            l2f += s.fills.get();
            l2e += s.evictions.get();
        }
        p.scope("cache")
            .count("l1_accesses", l1a)
            .count("l1_fills", l1f)
            .count("l2_accesses", l2a)
            .count("l2_fills", l2f)
            .count("l2_evictions", l2e);

        // Mem: DRAM transfer volume and page-home resolution.
        let (mut reads, mut writes, mut bytes) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let s = shard.dram.stats();
            reads += s.reads.get();
            writes += s.writes.get();
            bytes += s.bytes.get();
        }
        let pt = self.pages.stats();
        p.scope("mem")
            .count("dram_reads", reads)
            .count("dram_writes", writes)
            .count("dram_bytes", bytes)
            .count("page_lookups", pt.lookups.get())
            .count("pages_placed", pt.pages_placed.get());

        // Interconnect: NoC service requests and traffic over every link.
        let noc: u64 = self
            .shards
            .iter()
            .map(|shard| shard.noc_req.total_requests() + shard.noc_resp.total_requests())
            .sum();
        let (mut egress, mut ingress, mut turns) = (0u64, 0u64, 0u64);
        for link in self.links() {
            let s = link.stats();
            egress += s.egress_bytes.get();
            ingress += s.ingress_bytes.get();
            turns += s.lane_turns.get();
        }
        p.scope("interconnect")
            .count("noc_requests", noc)
            .count("link_egress_bytes", egress)
            .count("link_ingress_bytes", ingress)
            .count("lane_turns", turns);
        p
    }

    fn kernel_cycles(&self) -> Vec<u64> {
        // Derive per-kernel durations from consecutive start marks plus the
        // final end time. Inter-kernel boundaries already fold the write
        // drain into the next start (`kernel_boundary`), so only the last
        // kernel needs the explicit `max` here: a trailing fire-and-forget
        // write burst belongs to the kernel that issued it, matching the
        // `now.max(write_drain)` fold in `run`.
        let mut cycles = Vec::with_capacity(self.kernel_starts.len());
        let last_end = ticks_to_cycles(self.now.max(self.write_drain));
        for (i, &start) in self.kernel_starts.iter().enumerate() {
            let end = self.kernel_starts.get(i + 1).copied().unwrap_or(last_end);
            cycles.push(end.saturating_sub(start));
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole 1..=32 socket range builds, one switch link per socket.
    #[test]
    fn fabrics_build_across_the_full_socket_range() {
        for n in 1u8..=32 {
            let sys = NumaGpuSystem::new(SystemConfig::numa_sockets(n)).unwrap();
            assert_eq!(sys.links().count(), n as usize);
        }
    }
}
