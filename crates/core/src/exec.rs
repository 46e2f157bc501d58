//! Kernel execution: the partitioned window-barrier event loop, warp
//! lifecycle, and CTA dispatch.
//!
//! # Conservative lookahead executor
//!
//! The loop repeatedly picks the earliest pending shard event `start`,
//! opens a window `[start, w_end)` with
//! `w_end = conservative_window(start, hop_latency, next_control_tick)`,
//! runs every shard's events inside the window, one shard after another
//! in partition order, and then executes a *barrier*: cross-partition
//! outboxes are merged in canonical `(tick, partition, seq)` order and
//! delivered, first-touch page claims are arbitrated, and global counters
//! fold. Control-plane events (the samplers) run serially between
//! windows, after same-tick shard events — the control partition sorts
//! last.
//!
//! The lookahead is the access-hop latency (`Topology::hop_latency`):
//! every cross-socket message pays it between its source and the switch,
//! so events inside a window can only schedule cross-partition work at or
//! after the window's end. Control events are excluded from windows the
//! same way — a control event at tick `c` bounds `w_end` to `c + 1`, and
//! everything it schedules lands at least the dispatch latency later.
//!
//! Inside a window a shard touches only its own state plus the page
//! table, which every shard reads shared (a first touch waits for the
//! barrier as a claim), so the order in which shards run a window cannot
//! be observed: only the barrier's canonical merge decides what crosses
//! between them.

use crate::system::{Ev, NumaGpuSystem, SocketShard};
use numa_gpu_cache::LineClass;
use numa_gpu_engine::{conservative_window, merge_cross_into, WatchdogTrip};
use numa_gpu_interconnect::{BalanceAction, LinkDirection};
use numa_gpu_mem::PageTable;
use numa_gpu_obs::TraceEvent;
use numa_gpu_runtime::{Kernel, LaunchPlan};
use numa_gpu_sm::L1ReadOutcome;
use numa_gpu_types::{
    cycles_to_ticks, ticks_to_cycles, CacheMode, MemKind, PageId, SimError, SocketId, Tick, WarpOp,
    WarpSlot, SATURATION_THRESHOLD, TICKS_PER_CYCLE,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Latency between CTA dispatch and its warps' first issue, in cycles.
const DISPATCH_LATENCY_CYCLES: u64 = 10;

impl NumaGpuSystem {
    /// Runs one kernel to completion. `self.now` must already be the kernel
    /// launch time (after the boundary flush).
    ///
    /// Returns [`SimError::Deadlock`] when forward progress stops (all
    /// partition queues empty with CTAs outstanding, or the stall watchdog
    /// fires) and [`SimError::CycleLimit`] when the configured cycle budget
    /// runs out.
    pub(crate) fn run_kernel(&mut self, kernel: Arc<dyn Kernel>) -> Result<(), SimError> {
        self.launch(kernel);
        let result = self.event_loop();
        for shard in &mut self.shards {
            shard.kernel = None;
            shard.ctas.clear();
        }
        result
    }

    /// Queues `kernel`'s CTAs on their sockets, dispatches the first wave
    /// and starts the samplers.
    fn launch(&mut self, kernel: Arc<dyn Kernel>) {
        let total_ctas = kernel.num_ctas();
        assert!(total_ctas > 0, "kernel with zero CTAs");
        // The launch plan's per-socket queues drain straight into the
        // shards: CTA dispatch never steals across sockets (matching the
        // paper's scheduler), so each shard owns its CTA list outright.
        let mut plan = LaunchPlan::new(self.cfg.cta_policy, total_ctas, self.cfg.num_sockets);
        self.outstanding_ctas = total_ctas;

        let launch = self.now;
        self.watchdog.note_progress(launch);
        for shard in &mut self.shards {
            while let Some(cta) = plan.next_for_socket(shard.socket) {
                shard.ctas.push_back(cta);
            }
            shard.kernel = Some(kernel.clone());
            shard.dispatch_local(launch);
        }
        self.ensure_samplers(launch);
    }

    /// The window-barrier loop (see the module docs for the algorithm).
    fn event_loop(&mut self) -> Result<(), SimError> {
        while self.outstanding_ctas > 0 || self.inflight_mem > 0 {
            // In-flight traffic is always materialized: every staged event
            // sits in some shard queue, and outboxes are empty here (the
            // barrier drains them). So empty shard queues with work
            // outstanding means only the self-rescheduling control plane is
            // left; control events are not progress, and the stall watchdog
            // converts the spin into a deadlock report.
            let shard_next = self.shards.iter().filter_map(|s| s.queue.peek_tick()).min();
            let ctrl_next = self.control.peek_tick();
            match (shard_next, ctrl_next) {
                (None, None) => return Err(self.deadlock()),
                (None, Some(_)) => self.step_control()?,
                (Some(start), ctrl) => {
                    if ctrl.is_some_and(|c| c < start) {
                        self.step_control()?;
                        continue;
                    }
                    let w_end = conservative_window(start, self.hop_latency, ctrl);
                    self.run_windows(w_end);
                    self.barrier_fold()?;
                    // Control events at the window edge run now, *after*
                    // the shard events of the same tick (control is the
                    // highest partition in the canonical order).
                    while self.control.peek_tick().is_some_and(|c| c < w_end) {
                        self.step_control()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Pops and handles exactly one control-partition event.
    fn step_control(&mut self) -> Result<(), SimError> {
        let Some((t, ev)) = self.control.pop() else {
            return Ok(());
        };
        self.now = self.now.max(t);
        // Samplers fire unconditionally, so they are not evidence of
        // forward progress; shard events (including cross-partition
        // deliveries) are what resets the stall watchdog.
        let idle = self.outstanding_ctas > 0 && self.inflight_mem == 0;
        self.check_watchdog(idle)?;
        match ev {
            Ev::LinkSample => self.on_link_sample(t),
            Ev::CacheSample => self.on_cache_sample(t),
            _ => debug_assert!(false, "shard event {ev:?} in the control partition"),
        }
        Ok(())
    }

    /// Runs every shard up to (exclusive) `w_end`, in partition order.
    fn run_windows(&mut self, w_end: Tick) {
        for shard in &mut self.shards {
            shard.run_window(w_end, &self.pages);
        }
    }

    /// The window barrier: merge and deliver cross-partition messages,
    /// arbitrate first-touch page claims, fold shard counters into the
    /// globals, and run the watchdog.
    fn barrier_fold(&mut self) -> Result<(), SimError> {
        // Cross-partition messages, gathered in partition order and merged
        // into the canonical (tick, partition, seq) order. Delivery pushes
        // are in merged order, so a destination queue's insertion sequence
        // never depends on the order shards ran. Outboxes drain in place
        // and the merge buffer persists across barriers, so the steady
        // state allocates nothing here.
        self.barriers += 1;
        self.merge_reuses += self
            .shards
            .iter()
            .filter(|s| s.outbox.capacity() > 0)
            .count() as u64
            + u64::from(self.merge_buf.capacity() > 0);
        let shards = &mut self.shards;
        let merge_buf = &mut self.merge_buf;
        merge_cross_into(shards.iter_mut().map(|s| &mut s.outbox), merge_buf);
        self.xmsgs_merged += merge_buf.len() as u64;
        for m in merge_buf.iter() {
            // In-flight accounting happened at emission (`send_cross`);
            // the XArrive pop decrements it.
            let (dest, msg) = m.payload;
            shards[dest.index()].queue.push(m.at, Ev::XArrive { msg });
        }

        // First-touch claims: the earliest (tick, partition) touch wins,
        // exactly the order a single global queue would have placed in.
        let mut winners: BTreeMap<PageId, (Tick, usize)> = BTreeMap::new();
        for (p, shard) in self.shards.iter_mut().enumerate() {
            for (&page, &tick) in &shard.claims {
                let entry = winners.entry(page).or_insert((tick, p));
                if (tick, p) < *entry {
                    *entry = (tick, p);
                }
            }
            shard.claims.clear();
        }
        for (page, (_tick, p)) in winners {
            self.pages.commit_claim(page, SocketId::new(p as u8));
        }

        let mut delta: i64 = 0;
        let mut retired: u32 = 0;
        let mut lookups: u64 = 0;
        let mut processed: u64 = 0;
        let mut max_tick: Tick = 0;
        for shard in &mut self.shards {
            delta += std::mem::take(&mut shard.inflight_delta);
            retired += std::mem::take(&mut shard.retired_ctas);
            lookups += std::mem::take(&mut shard.lookups);
            processed += std::mem::take(&mut shard.processed);
            max_tick = max_tick.max(shard.last_tick);
            self.write_drain = self.write_drain.max(shard.write_drain);
        }
        let inflight = self.inflight_mem as i64 + delta;
        debug_assert!(inflight >= 0, "in-flight memory events went negative");
        self.inflight_mem = inflight.max(0) as u64;
        debug_assert!(
            retired <= self.outstanding_ctas,
            "retired more CTAs than launched"
        );
        self.outstanding_ctas = self.outstanding_ctas.saturating_sub(retired);
        self.pages.note_lookups(lookups);
        if processed > 0 {
            // Every shard event — cross-partition deliveries included — is
            // forward progress; a barrier-heavy run under a tight stall
            // watchdog must never trip while messages still flow.
            self.watchdog.note_progress(max_tick);
        }
        self.now = self.now.max(max_tick);
        let idle = self.outstanding_ctas > 0 && self.inflight_mem == 0;
        self.check_watchdog(idle)
    }

    /// Maps a watchdog trip onto the public error type.
    fn check_watchdog(&self, idle: bool) -> Result<(), SimError> {
        match self.watchdog.check(self.now, idle) {
            Ok(()) => Ok(()),
            Err(WatchdogTrip::Budget { limit, .. }) => Err(SimError::CycleLimit {
                limit_cycles: ticks_to_cycles(limit),
                at_cycle: ticks_to_cycles(self.now),
            }),
            Err(WatchdogTrip::Stall { .. }) => Err(self.deadlock()),
        }
    }

    /// The error for a run whose scheduler stopped making forward progress.
    fn deadlock(&self) -> SimError {
        SimError::Deadlock {
            cycle: ticks_to_cycles(self.now),
            outstanding_ctas: self.outstanding_ctas,
            inflight_mem: self.inflight_mem,
        }
    }

    /// Schedules the periodic samplers the first time a kernel runs.
    fn ensure_samplers(&mut self, now: Tick) {
        if self.samplers_scheduled {
            return;
        }
        self.samplers_scheduled = true;
        self.control.push(
            now + cycles_to_ticks(self.cfg.link.sample_time_cycles as u64),
            Ev::LinkSample,
        );
        self.control.push(
            now + cycles_to_ticks(self.cfg.cache_sample_time_cycles as u64),
            Ev::CacheSample,
        );
        for shard in &mut self.shards {
            shard.dram.begin_window(now);
        }
    }

    /// Periodic link load balancer tick (§4).
    fn on_link_sample(&mut self, t: Tick) {
        // Capture window state before the balancer consumes it: rebalancing
        // resets the sampling window, so this is the only point where the
        // utilizations the decision saw are observable.
        let observing = self.obs.record_timeline || self.obs.tracing();
        // Every link runs the same per-GPU balancer, serially in socket
        // order.
        let (mut samples, mut actions) = (Vec::new(), Vec::new());
        for link in self.links_mut() {
            if observing {
                samples.push(link.sample_point(t));
            }
            actions.push(link.sample_and_rebalance(t, SATURATION_THRESHOLD));
        }
        if self.obs.record_timeline {
            for (timeline, &sample) in self.obs.timelines.iter_mut().zip(&samples) {
                timeline.push(sample);
            }
        }
        if self.obs.tracing() {
            let cycle = ticks_to_cycles(t);
            for (s, sample) in samples.iter().enumerate() {
                self.obs.emit(
                    TraceEvent::counter(format!("link.s{s}.util"), "link", cycle, s as u32)
                        .arg("egress", sample.egress_util)
                        .arg("ingress", sample.ingress_util),
                );
                self.obs.emit(
                    TraceEvent::counter(format!("link.s{s}.lanes"), "link", cycle, s as u32)
                        .arg("egress", sample.egress_lanes as u64)
                        .arg("ingress", sample.ingress_lanes as u64),
                );
            }
            for (s, (&action, sample)) in actions.iter().zip(&samples).enumerate() {
                if action != BalanceAction::Hold {
                    self.obs.emit(
                        TraceEvent::instant(
                            format!("link.s{s}.{action:?}"),
                            "rebalance",
                            cycle,
                            s as u32,
                        )
                        .arg("egress_util", sample.egress_util)
                        .arg("ingress_util", sample.ingress_util),
                    );
                }
            }
        }
        self.control.push(
            t + cycles_to_ticks(self.cfg.link.sample_time_cycles as u64),
            Ev::LinkSample,
        );
    }

    /// Periodic NUMA-aware cache partition tick (§5, Figure 7(d)).
    fn on_cache_sample(&mut self, t: Tick) {
        let window = self.cfg.cache_sample_time_cycles as u64;
        if self.cfg.cache_mode == CacheMode::NumaAwareDynamic {
            let l1_ways = self.cfg.l1.ways;
            for s in 0..self.shards.len() {
                let shard = &mut self.shards[s];
                // Step 1: estimate incoming inter-GPU bandwidth from the
                // outgoing read-request rate times the response packet size
                // (avoids mistaking incoming writes for read pressure).
                let resp_bytes = numa_gpu_types::LINE_SIZE + numa_gpu_types::HEADER_BYTES as u64;
                let est_incoming = shard.remote_reads_window * resp_bytes;
                let capacity = shard.link.direction_rate(LinkDirection::Ingress) * window;
                // The paper projects link utilization from demand. A
                // link-throttled requester issues at exactly the link rate
                // (the estimate hovers *at* capacity, never above), so the
                // projection counts ≥85% of capacity — or a directly
                // backlogged ingress queue — as saturated demand.
                let link_sat = est_incoming as f64 >= 0.85 * capacity as f64
                    || shard
                        .link
                        .is_saturated(t, LinkDirection::Ingress, SATURATION_THRESHOLD);
                let dram_sat = shard.dram.is_saturated(t, SATURATION_THRESHOLD);
                let action = shard.ctl.step(link_sat, dram_sat);
                let p = shard.ctl.partition();
                shard.l2.set_partition(p);
                let l1p = scale_partition(p, l1_ways);
                for sm in &mut shard.sms {
                    sm.set_l1_partition(l1p);
                }
                shard.remote_reads_window = 0;
                shard.dram.begin_window(t);
                if action != numa_gpu_cache::PartitionAction::Hold && self.obs.tracing() {
                    self.obs.emit(
                        TraceEvent::instant(
                            format!("l2.s{s}.{action:?}"),
                            "repartition",
                            ticks_to_cycles(t),
                            s as u32,
                        )
                        .arg("local_ways", p.local_ways() as u64)
                        .arg("remote_ways", p.remote_ways() as u64),
                    );
                }
            }
        }
        self.control
            .push(t + cycles_to_ticks(window), Ev::CacheSample);
    }
}

impl SocketShard {
    /// Runs this partition's events with timestamps strictly below `w_end`.
    /// Same-tick pushes made by handlers re-enter the loop, so a window is
    /// exactly the events a single global queue would have run for this
    /// socket in `[start, w_end)`.
    pub(crate) fn run_window(&mut self, w_end: Tick, pages: &PageTable) {
        while let Some((t, ev)) = self.queue.pop_if_before(w_end) {
            if ev.is_mem_stage() {
                self.inflight_delta -= 1;
            }
            self.processed += 1;
            self.last_tick = self.last_tick.max(t);
            self.handle(t, ev, pages);
        }
    }

    fn handle(&mut self, t: Tick, ev: Ev, pages: &PageTable) {
        match ev {
            Ev::WarpIssue { sm, slot } => self.on_warp_issue(t, sm, slot, pages),
            Ev::ReadAtL2 { sm, line, home } => self.on_read_at_l2(t, sm, line, home),
            Ev::ReadAtHome { sm, line, home } => {
                debug_assert_eq!(home, self.socket);
                self.on_read_at_home(t, sm, line, pages);
            }
            Ev::ReadReturn { sm, line, home } => {
                debug_assert_eq!(home, self.socket);
                self.on_read_return(t, sm, line);
            }
            Ev::DataToSm {
                sm,
                line,
                class,
                fill_l2,
            } => self.on_data_to_sm(t, sm, line, class, fill_l2, pages),
            Ev::L1Fill { sm, line, class } => self.on_l1_fill(t, sm, line, class),
            Ev::WriteAtL2 {
                sm,
                slot,
                line,
                home,
            } => self.on_write_at_l2(t, sm, slot, line, home, pages),
            Ev::WriteAtHome { from, line, home } => {
                debug_assert_eq!(home, self.socket);
                self.on_write_at_home(t, from, line, pages);
            }
            Ev::XArrive { msg } => self.on_x_arrive(t, msg),
            Ev::LinkSample | Ev::CacheSample => {
                debug_assert!(false, "control event {ev:?} in a shard partition");
            }
        }
    }

    /// Socket owning global SM id `sm`.
    #[inline]
    pub(crate) fn socket_of(&self, sm: u32) -> SocketId {
        SocketId::new((sm / self.sms.len() as u32) as u8)
    }

    /// Fills this socket's SMs with pending CTAs, in SM order.
    pub(crate) fn dispatch_local(&mut self, t: Tick) {
        let Some(kernel) = self.kernel.clone() else {
            return;
        };
        let warps = kernel.warps_per_cta();
        // Recycle the shard scratch buffer across dispatches (and L1
        // fills): in steady state no warp-slot vector is allocated.
        let mut slots = std::mem::take(&mut self.scratch_slots);
        'outer: loop {
            if self.ctas.is_empty() {
                break;
            }
            // Find the next SM with capacity.
            let mut placed = false;
            for i in 0..self.sms.len() {
                if self.sms[i].can_accept_cta(warps) {
                    let Some(cta) = self.ctas.pop_front() else {
                        break 'outer;
                    };
                    let program = kernel.cta(cta);
                    slots.clear();
                    if slots.capacity() > 0 {
                        self.buf_reuses += 1;
                    }
                    self.sms[i].dispatch_cta_into(cta, program, &mut slots);
                    let sm = self.base_sm + i as u32;
                    for &slot in &slots {
                        let wi = self.warp_index(i, slot);
                        self.warp_mem[wi] = Default::default();
                        // Deterministic per-warp jitter staggers first
                        // issues so near-simultaneous first touches spread
                        // across sockets instead of following event order.
                        let jitter = (sm as u64)
                            .wrapping_mul(2_654_435_761)
                            .wrapping_add(slot.index() as u64 * 40_503)
                            % 509;
                        let wake = t + cycles_to_ticks(DISPATCH_LATENCY_CYCLES + jitter);
                        self.queue.push(wake, Ev::WarpIssue { sm, slot });
                    }
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }
        self.scratch_slots = slots;
    }

    /// A warp is ready: pull its next op (or replay a parked one) and model
    /// its issue.
    fn on_warp_issue(&mut self, t: Tick, sm: u32, slot: WarpSlot, pages: &PageTable) {
        let li = (sm - self.base_sm) as usize;
        let wi = self.warp_index(li, slot);
        let op = match self.pending_ops[wi].take() {
            Some(op) => op,
            None => match self.sms[li].next_op(slot) {
                Some(op) => op,
                None => {
                    // Trace exhausted: wait for outstanding loads, then
                    // retire (and maybe complete the CTA).
                    if self.warp_mem[wi].outstanding > 0 {
                        self.warp_mem[wi].draining = true;
                        return;
                    }
                    if self.sms[li].retire_warp(slot).is_some() {
                        self.retired_ctas += 1;
                        self.dispatch_local(t);
                    }
                    return;
                }
            },
        };
        match op {
            WarpOp::Compute { cycles } => {
                let issue = self.sms[li].reserve_issue(t);
                self.queue.push(
                    issue + cycles_to_ticks(cycles as u64),
                    Ev::WarpIssue { sm, slot },
                );
            }
            WarpOp::Mem { addr, kind } => {
                let issue = self.sms[li].reserve_issue(t);
                let line = addr.line();
                let home = self.home_of_line(t, line, pages);
                let class = if home == self.socket {
                    LineClass::Local
                } else {
                    LineClass::Remote
                };
                match kind {
                    MemKind::Write => {
                        self.sms[li].l1_write(line);
                        // The warp resumes when the store is accepted
                        // (WriteAtL2 schedules the wakeup).
                        self.start_write(issue, sm, slot, line, home);
                    }
                    MemKind::Read => {
                        match self.sms[li].l1_read(line, class, slot) {
                            L1ReadOutcome::Hit => {
                                self.count_read(class);
                                let lat = self.sms[li].l1_hit_latency();
                                self.queue.push(issue + lat, Ev::WarpIssue { sm, slot });
                            }
                            outcome @ (L1ReadOutcome::MissMerged | L1ReadOutcome::MissPrimary) => {
                                self.count_read(class);
                                if outcome == L1ReadOutcome::MissPrimary {
                                    self.start_read(issue, sm, line, home);
                                }
                                // The load enters the warp's scoreboard; the
                                // warp keeps issuing until the scoreboard
                                // fills (memory-level parallelism), then
                                // blocks until a fill wakes it.
                                let st = &mut self.warp_mem[wi];
                                st.outstanding += 1;
                                if (st.outstanding as u32) < self.cfg.sm.max_pending_loads as u32 {
                                    self.queue
                                        .push(issue + TICKS_PER_CYCLE, Ev::WarpIssue { sm, slot });
                                } else {
                                    st.blocked = true;
                                }
                            }
                            L1ReadOutcome::MshrFull => {
                                self.pending_ops[wi] = Some(op);
                                self.sms[li].park_retry(slot);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Accounts one issued read by NUMA class (MSHR-full retries are not
    /// counted until they issue).
    fn count_read(&mut self, class: LineClass) {
        match class {
            LineClass::Local => self.reads_local_class += 1,
            LineClass::Remote => self.reads_remote_class += 1,
        }
    }

    /// A fill arrived at an SM: install the line, credit each waiting
    /// warp's scoreboard, and wake the ones that were stalled on it.
    fn on_l1_fill(&mut self, t: Tick, sm: u32, line: numa_gpu_types::LineAddr, class: LineClass) {
        let li = (sm - self.base_sm) as usize;
        // Reuse the shard scratch buffer for the woken-warp list: the MSHR
        // file recycles its waiter storage internally, so a steady-state
        // fill allocates nothing.
        let mut woken = std::mem::take(&mut self.scratch_slots);
        woken.clear();
        if woken.capacity() > 0 {
            self.buf_reuses += 1;
        }
        self.sms[li].l1_fill_into(line, class, &mut woken);
        for &slot in &woken {
            let wi = self.warp_index(li, slot);
            let st = &mut self.warp_mem[wi];
            debug_assert!(st.outstanding > 0, "fill without outstanding load");
            st.outstanding -= 1;
            if st.blocked {
                st.blocked = false;
                self.queue.push(t, Ev::WarpIssue { sm, slot });
            } else if st.draining && st.outstanding == 0 {
                self.queue.push(t, Ev::WarpIssue { sm, slot });
            }
        }
        self.scratch_slots = woken;
        // An MSHR freed: retry one parked warp.
        if let Some(slot) = self.sms[li].pop_retry() {
            self.queue.push(t, Ev::WarpIssue { sm, slot });
        }
    }
}

/// Projects an L2 way split onto a cache with `ways` ways, preserving the
/// local fraction and both one-way floors.
pub(crate) fn scale_partition(
    p: numa_gpu_cache::WayPartition,
    ways: u16,
) -> numa_gpu_cache::WayPartition {
    let local = (p.local_ways() as u32 * ways as u32 / p.total_ways() as u32) as u16;
    let local = local.clamp(1, ways - 1);
    numa_gpu_cache::WayPartition::with_local_ways(local, ways)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_cache::WayPartition;
    use numa_gpu_engine::EventQueue;
    use numa_gpu_types::SystemConfig;
    use numa_gpu_workloads::{by_name, Scale};

    /// A machine that can no longer make progress ends in a deadlock
    /// report. A launched kernel is stranded: its CTAs are outstanding,
    /// no memory is in flight, and the shard queues and CTA lists are
    /// emptied. The samplers keep rescheduling themselves, so the control
    /// queue never runs dry: the stall window ends the run, not the
    /// empty-queue check.
    #[test]
    fn starved_machine_trips_the_stall_detector_as_deadlock() {
        let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
        let mut cfg = SystemConfig::numa_aware_sockets(4);
        cfg.watchdog.stall_cycles = 5_000;
        let mut sys = NumaGpuSystem::new(cfg).unwrap();
        sys.launch(wl.kernels[0].clone());
        for shard in &mut sys.shards {
            shard.queue = EventQueue::new();
            shard.ctas.clear();
        }
        assert_eq!(sys.inflight_mem, 0);
        match sys.event_loop() {
            Err(SimError::Deadlock {
                cycle,
                outstanding_ctas,
                inflight_mem,
            }) => {
                assert!(outstanding_ctas > 0, "CTAs must still be pending");
                assert_eq!(inflight_mem, 0);
                assert!(cycle >= 5_000, "tripped at cycle {cycle}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    /// First-touch arbitration at the barrier: the earliest
    /// `(tick, partition)` claim places each page, and every claim drains.
    #[test]
    fn barrier_places_each_page_at_its_earliest_claim() {
        let mut sys = NumaGpuSystem::new(SystemConfig::numa_aware_sockets(4)).unwrap();
        let (a, b) = (PageId::from_index(7), PageId::from_index(8));
        sys.shards[0].claims.insert(a, 9);
        sys.shards[2].claims.insert(a, 5);
        sys.shards[3].claims.insert(b, 6);
        sys.shards[1].claims.insert(b, 6);
        sys.barrier_fold().unwrap();
        assert_eq!(sys.pages.peek_page(a), Some(SocketId::new(2)));
        assert_eq!(sys.pages.peek_page(b), Some(SocketId::new(1)));
        assert_eq!(sys.pages.stats().pages_placed.get(), 2);
        assert!(sys.shards.iter().all(|s| s.claims.is_empty()));
    }

    #[test]
    fn scale_partition_preserves_fraction() {
        let p = WayPartition::with_local_ways(4, 16); // 25% local
        let q = scale_partition(p, 4);
        assert_eq!(q.local_ways(), 1);
        assert_eq!(q.total_ways(), 4);
    }

    #[test]
    fn scale_partition_respects_floors() {
        let p = WayPartition::with_local_ways(15, 16);
        let q = scale_partition(p, 4);
        assert!(q.local_ways() >= 1 && q.remote_ways() >= 1);
        let p = WayPartition::with_local_ways(1, 16);
        let q = scale_partition(p, 4);
        assert_eq!(q.local_ways(), 1);
    }
}
