//! One GPU socket's link to the switch: reversible lanes in two directions.

use crate::balancer::{BalanceAction, LinkBalancer};
use numa_gpu_engine::ServiceQueue;
use numa_gpu_obs::Pow2Histogram;
use numa_gpu_types::{cycles_to_ticks, ticks_to_cycles, Counter, LinkConfig, LinkMode, Tick};

/// Direction of travel relative to the owning GPU socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// From this GPU toward the switch.
    Egress,
    /// From the switch into this GPU.
    Ingress,
}

impl LinkDirection {
    /// The opposite direction.
    #[inline]
    pub const fn other(self) -> Self {
        match self {
            LinkDirection::Egress => LinkDirection::Ingress,
            LinkDirection::Ingress => LinkDirection::Egress,
        }
    }
}

/// One point of the Fig-5-style utilization timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Cycle at which the sample window ended.
    pub cycle: u64,
    /// Egress utilization over the window, `[0, 1]`.
    pub egress_util: f64,
    /// Ingress utilization over the window, `[0, 1]`.
    pub ingress_util: f64,
    /// Egress lanes at sampling time.
    pub egress_lanes: u8,
    /// Ingress lanes at sampling time.
    pub ingress_lanes: u8,
}

/// Aggregate traffic statistics for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Bytes sent GPU→switch.
    pub egress_bytes: Counter,
    /// Bytes received switch→GPU.
    pub ingress_bytes: Counter,
    /// Lane reversals performed.
    pub lane_turns: Counter,
    /// Equalization steps performed.
    pub equalizations: Counter,
    /// Sends that found their direction busy and had to queue — the switch
    /// arbitration conflict count.
    pub conflicts: Counter,
}

/// A GPU↔switch link built from individually reversible lanes.
///
/// At kernel launch the link is symmetric (`lanes_per_direction` each way).
/// Under [`LinkMode::DynamicAsymmetric`] the load balancer may reverse
/// lanes one at a time; the donor direction loses bandwidth immediately
/// (the lane quiesces) and the gaining direction receives it `switch_time`
/// cycles later.
///
/// # Examples
///
/// ```
/// use numa_gpu_interconnect::{GpuLink, LinkDirection};
/// use numa_gpu_types::{LinkConfig, LinkMode, TICKS_PER_CYCLE};
///
/// let cfg = LinkConfig {
///     lanes_per_direction: 8,
///     lane_bytes_per_cycle: 8,
///     latency_cycles: 128,
///     switch_time_cycles: 100,
///     sample_time_cycles: 5000,
///     mode: LinkMode::StaticSymmetric,
/// };
/// let mut link = GpuLink::new(&cfg);
/// // 64 B/cycle per direction: a 128 B packet occupies 2 cycles.
/// assert_eq!(link.send(0, LinkDirection::Egress, 128), 2 * TICKS_PER_CYCLE);
/// ```
#[derive(Debug, Clone)]
pub struct GpuLink {
    egress: ServiceQueue,
    ingress: ServiceQueue,
    egress_lanes: u8,
    ingress_lanes: u8,
    lanes_total: u8,
    lane_rate: u64,
    switch_penalty: Tick,
    mode: LinkMode,
    pending_gain: Option<(Tick, LinkDirection)>,
    stats: LinkStats,
    /// Queueing delay (in cycles) each packet saw on arrival, indexed by
    /// `LinkDirection as usize`.
    backlog_cycles: [Pow2Histogram; 2],
}

impl GpuLink {
    /// Builds a link from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero lanes or zero lane rate.
    pub fn new(config: &LinkConfig) -> Self {
        assert!(
            config.lanes_per_direction > 0 && config.lane_bytes_per_cycle > 0,
            "link lanes and lane rate must be nonzero"
        );
        let lane_rate = config.lane_bytes_per_cycle;
        let per_dir = config.lanes_per_direction as u64 * lane_rate;
        GpuLink {
            egress: ServiceQueue::new(per_dir),
            ingress: ServiceQueue::new(per_dir),
            egress_lanes: config.lanes_per_direction,
            ingress_lanes: config.lanes_per_direction,
            lanes_total: config.lanes_per_direction * 2,
            lane_rate,
            switch_penalty: cycles_to_ticks(config.switch_time_cycles as u64),
            mode: config.mode,
            pending_gain: None,
            stats: LinkStats::default(),
            backlog_cycles: Default::default(),
        }
    }

    /// Lanes currently assigned to `dir` (including a lane still in its
    /// quiesce window, which counts for its destination).
    pub fn lanes(&self, dir: LinkDirection) -> u8 {
        match dir {
            LinkDirection::Egress => self.egress_lanes,
            LinkDirection::Ingress => self.ingress_lanes,
        }
    }

    fn queue_mut(&mut self, dir: LinkDirection) -> &mut ServiceQueue {
        match dir {
            LinkDirection::Egress => &mut self.egress,
            LinkDirection::Ingress => &mut self.ingress,
        }
    }

    fn queue(&self, dir: LinkDirection) -> &ServiceQueue {
        match dir {
            LinkDirection::Egress => &self.egress,
            LinkDirection::Ingress => &self.ingress,
        }
    }

    /// Matures any pending lane gain whose quiesce window has elapsed.
    fn apply_pending(&mut self, now: Tick) {
        if let Some((ready_at, dir)) = self.pending_gain {
            if now >= ready_at {
                let rate = self.lanes(dir) as u64 * self.lane_rate;
                self.queue_mut(dir).set_rate(rate);
                self.pending_gain = None;
            }
        }
    }

    /// Transfers `bytes` in `dir`; returns the tick the last byte clears
    /// this link stage (propagation latency is added by the switch).
    pub fn send(&mut self, now: Tick, dir: LinkDirection, bytes: u32) -> Tick {
        self.apply_pending(now);
        let backlog = self.queue(dir).next_free().saturating_sub(now);
        if backlog > 0 {
            self.stats.conflicts.inc();
        }
        match dir {
            LinkDirection::Egress => self.stats.egress_bytes.add(bytes as u64),
            LinkDirection::Ingress => self.stats.ingress_bytes.add(bytes as u64),
        }
        self.backlog_cycles[dir as usize].observe(ticks_to_cycles(backlog));
        self.queue_mut(dir).service(now, bytes)
    }

    /// Current service rate of `dir` in bytes per cycle (reflects lane
    /// reallocation).
    pub fn direction_rate(&self, dir: LinkDirection) -> u64 {
        self.queue(dir).rate()
    }

    /// Windowed utilization of `dir` in `[0, 1]`.
    pub fn window_utilization(&self, now: Tick, dir: LinkDirection) -> f64 {
        self.queue(dir).window_utilization(now)
    }

    /// Whether `dir` is saturated in the current window.
    pub fn is_saturated(&self, now: Tick, dir: LinkDirection, threshold: f64) -> bool {
        self.queue(dir).is_saturated(now, threshold)
    }

    /// Captures the Fig-5-style utilization point for the window ending at
    /// `now`. Callers that want a timeline sample this immediately before
    /// [`Self::sample_and_rebalance`] (which opens a fresh window).
    pub fn sample_point(&self, now: Tick) -> LinkSample {
        LinkSample {
            cycle: ticks_to_cycles(now),
            egress_util: self.egress.window_utilization(now),
            ingress_util: self.ingress.window_utilization(now),
            egress_lanes: self.egress_lanes,
            ingress_lanes: self.ingress_lanes,
        }
    }

    /// Runs one balancer sampling period: applies the paper's
    /// reconfiguration rule (only under [`LinkMode::DynamicAsymmetric`])
    /// and opens a fresh window. Returns the action taken.
    pub fn sample_and_rebalance(&mut self, now: Tick, threshold: f64) -> BalanceAction {
        self.apply_pending(now);
        let sat_e = self.egress.is_saturated(now, threshold);
        let sat_i = self.ingress.is_saturated(now, threshold);
        let action = if self.mode == LinkMode::DynamicAsymmetric && self.pending_gain.is_none() {
            LinkBalancer::decide(sat_e, sat_i, self.egress_lanes, self.ingress_lanes)
        } else {
            BalanceAction::Hold
        };
        match action {
            BalanceAction::TurnTowardEgress => self.turn_lane(now, LinkDirection::Egress),
            BalanceAction::TurnTowardIngress => self.turn_lane(now, LinkDirection::Ingress),
            BalanceAction::Equalize => {
                let toward = if self.egress_lanes < self.ingress_lanes {
                    LinkDirection::Egress
                } else {
                    LinkDirection::Ingress
                };
                self.turn_lane(now, toward);
                self.stats.equalizations.inc();
            }
            BalanceAction::Hold => {}
        }
        self.egress.begin_window(now);
        self.ingress.begin_window(now);
        action
    }

    /// Reverses one lane from `gaining.other()` to `gaining`: the donor
    /// loses rate immediately, the gainer's rate rises after the quiesce
    /// penalty.
    fn turn_lane(&mut self, now: Tick, gaining: LinkDirection) {
        let donor = gaining.other();
        debug_assert!(self.lanes(donor) > 1);
        match gaining {
            LinkDirection::Egress => {
                self.ingress_lanes -= 1;
                self.egress_lanes += 1;
            }
            LinkDirection::Ingress => {
                self.egress_lanes -= 1;
                self.ingress_lanes += 1;
            }
        }
        let donor_lanes = self.lanes(donor) as u64;
        let rate = self.lane_rate;
        self.queue_mut(donor).set_rate(donor_lanes * rate);
        self.pending_gain = Some((now + self.switch_penalty, gaining));
        self.stats.lane_turns.inc();
    }

    /// Restores the symmetric kernel-launch configuration ("at kernel
    /// launch the links are always reconfigured to contain symmetric link
    /// bandwidth") and opens fresh windows.
    pub fn reset_symmetric(&mut self, now: Tick) {
        let half = self.lanes_total / 2;
        self.egress_lanes = half;
        self.ingress_lanes = half;
        self.pending_gain = None;
        self.egress.set_rate(half as u64 * self.lane_rate);
        self.ingress.set_rate(half as u64 * self.lane_rate);
        self.egress.begin_window(now);
        self.ingress.begin_window(now);
    }

    /// Traffic statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Queueing delay (in cycles) each packet sent in `dir` saw on arrival.
    pub fn backlog_cycles(&self, dir: LinkDirection) -> &Pow2Histogram {
        &self.backlog_cycles[dir as usize]
    }

    /// Total busy ticks in `dir` since construction.
    pub fn total_busy(&self, dir: LinkDirection) -> Tick {
        self.queue(dir).total_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::TICKS_PER_CYCLE;

    fn cfg(mode: LinkMode) -> LinkConfig {
        LinkConfig {
            lanes_per_direction: 8,
            lane_bytes_per_cycle: 8,
            latency_cycles: 128,
            switch_time_cycles: 100,
            sample_time_cycles: 5_000,
            mode,
        }
    }

    #[test]
    fn symmetric_rates_at_launch() {
        let mut l = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        assert_eq!(l.send(0, LinkDirection::Egress, 64), TICKS_PER_CYCLE);
        assert_eq!(l.send(0, LinkDirection::Ingress, 64), TICKS_PER_CYCLE);
    }

    #[test]
    fn double_bandwidth_mode_doubles_rate() {
        let mut double = cfg(LinkMode::StaticSymmetric);
        double.lane_bytes_per_cycle *= 2;
        let mut l = GpuLink::new(&double);
        assert_eq!(l.send(0, LinkDirection::Egress, 128), TICKS_PER_CYCLE);
    }

    #[test]
    fn static_mode_never_rebalances() {
        let mut l = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        l.egress.begin_window(0);
        for _ in 0..100_000 {
            l.send(0, LinkDirection::Egress, 128);
        }
        let a = l.sample_and_rebalance(cycles_to_ticks(5_000), 0.99);
        assert_eq!(a, BalanceAction::Hold);
        assert_eq!(l.lanes(LinkDirection::Egress), 8);
    }

    #[test]
    fn dynamic_mode_turns_lane_under_asymmetric_saturation() {
        let mut l = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        for _ in 0..100_000 {
            l.send(0, LinkDirection::Egress, 128);
        }
        let a = l.sample_and_rebalance(cycles_to_ticks(5_000), 0.99);
        assert_eq!(a, BalanceAction::TurnTowardEgress);
        assert_eq!(l.lanes(LinkDirection::Egress), 9);
        assert_eq!(l.lanes(LinkDirection::Ingress), 7);
        assert_eq!(l.stats().lane_turns.get(), 1);
    }

    #[test]
    fn donor_rate_drops_immediately_gainer_after_quiesce() {
        let mut l = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        for _ in 0..100_000 {
            l.send(0, LinkDirection::Egress, 128);
        }
        let t = cycles_to_ticks(5_000);
        l.sample_and_rebalance(t, 0.99);
        // Ingress (donor) now 7 lanes = 56 B/cycle immediately.
        let done = l.send(t, LinkDirection::Ingress, 56);
        assert_eq!(done, t + TICKS_PER_CYCLE);
        // Egress (gainer) still at 64 B/cycle during quiesce: next_free far
        // in the future anyway; check rate via a fresh link instead.
        let mut l2 = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        for _ in 0..100_000 {
            l2.send(0, LinkDirection::Egress, 128);
        }
        l2.sample_and_rebalance(t, 0.99);
        // Before quiesce matures, egress rate is still 8 lanes.
        // After switch_time, a send applies the pending gain (9 lanes).
        let after = t + cycles_to_ticks(100);
        l2.send(after, LinkDirection::Egress, 72);
        // 72 B at 72 B/cycle = 1 cycle occupancy (queued behind backlog).
        assert_eq!(l2.lanes(LinkDirection::Egress), 9);
    }

    #[test]
    fn converges_to_one_lane_floor() {
        let mut l = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        let mut t = 0;
        for _ in 0..20 {
            for _ in 0..200_000 {
                l.send(t, LinkDirection::Egress, 128);
            }
            t += cycles_to_ticks(5_000 + 200); // past quiesce
            l.sample_and_rebalance(t, 0.99);
        }
        assert_eq!(l.lanes(LinkDirection::Ingress), 1);
        assert_eq!(l.lanes(LinkDirection::Egress), 15);
    }

    #[test]
    fn both_saturated_asymmetric_equalizes() {
        let mut l = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        // Drive to asymmetric 9/7 first.
        for _ in 0..100_000 {
            l.send(0, LinkDirection::Egress, 128);
        }
        let mut t = cycles_to_ticks(5_000);
        l.sample_and_rebalance(t, 0.99);
        assert_eq!(l.lanes(LinkDirection::Egress), 9);
        // Now saturate both directions.
        t += cycles_to_ticks(5_000);
        for _ in 0..100_000 {
            l.send(t, LinkDirection::Egress, 128);
            l.send(t, LinkDirection::Ingress, 128);
        }
        let a = l.sample_and_rebalance(t + cycles_to_ticks(5_000), 0.99);
        assert_eq!(a, BalanceAction::Equalize);
        assert_eq!(l.lanes(LinkDirection::Egress), 8);
        assert_eq!(l.lanes(LinkDirection::Ingress), 8);
    }

    #[test]
    fn reset_symmetric_restores_launch_state() {
        let mut l = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        for _ in 0..100_000 {
            l.send(0, LinkDirection::Egress, 128);
        }
        l.sample_and_rebalance(cycles_to_ticks(5_000), 0.99);
        l.reset_symmetric(cycles_to_ticks(10_000));
        assert_eq!(l.lanes(LinkDirection::Egress), 8);
        assert_eq!(l.lanes(LinkDirection::Ingress), 8);
    }

    #[test]
    fn sample_point_reports_window_state() {
        let mut l = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        l.send(0, LinkDirection::Egress, 6400);
        let s = l.sample_point(cycles_to_ticks(100));
        assert_eq!(s.cycle, 100);
        assert!(s.egress_util > 0.9);
        assert_eq!(s.ingress_util, 0.0);
        assert_eq!(s.egress_lanes, 8);
        assert_eq!(s.ingress_lanes, 8);
        // Rebalancing opens a fresh window: the next point reads idle.
        l.sample_and_rebalance(cycles_to_ticks(100), 0.99);
        let s2 = l.sample_point(cycles_to_ticks(200));
        assert_eq!(s2.egress_util, 0.0);
    }

    #[test]
    fn obs_handles_record_backlog_and_conflicts() {
        let mut l = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        // First send finds an idle link; the second queues behind it.
        l.send(0, LinkDirection::Egress, 6400);
        l.send(0, LinkDirection::Egress, 128);
        l.send(0, LinkDirection::Ingress, 128);
        assert_eq!(l.stats().conflicts.get(), 1);
        let h = l.backlog_cycles(LinkDirection::Egress).summary();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 100); // 6400 B / 64 B-per-cycle backlog
        assert_eq!(l.backlog_cycles(LinkDirection::Ingress).summary().count, 1);
    }

    #[test]
    fn stats_count_bytes_per_direction() {
        let mut l = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        l.send(0, LinkDirection::Egress, 128);
        l.send(0, LinkDirection::Egress, 16);
        l.send(0, LinkDirection::Ingress, 144);
        assert_eq!(l.stats().egress_bytes.get(), 144);
        assert_eq!(l.stats().ingress_bytes.get(), 144);
    }
}
