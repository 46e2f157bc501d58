//! Bandwidth-limited FIFO resources.

use numa_gpu_types::{Tick, TICKS_PER_CYCLE};

/// A FIFO resource with finite bandwidth: a DRAM interface, an NoC crossbar,
/// or one direction of an inter-GPU link.
///
/// Each request occupies the resource for `bytes / rate` cycles starting when
/// the resource frees up, which yields both queueing delay (back-to-back
/// requests serialize) and the windowed busy accounting the paper's link and
/// cache controllers sample.
///
/// The service rate can change at runtime ([`ServiceQueue::set_rate`]) —
/// this is how dynamic lane reallocation grows or shrinks a link direction.
///
/// # Examples
///
/// ```
/// use numa_gpu_engine::ServiceQueue;
/// use numa_gpu_types::TICKS_PER_CYCLE;
///
/// let mut dram = ServiceQueue::new(768); // 768 B/cycle HBM
/// let t1 = dram.service(0, 768);
/// let t2 = dram.service(0, 768);
/// assert_eq!(t1, TICKS_PER_CYCLE);
/// assert_eq!(t2, 2 * TICKS_PER_CYCLE); // second request queues behind the first
/// ```
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    rate_bytes_per_cycle: u64,
    next_free: Tick,
    window_start: Tick,
    busy_in_window: Tick,
    total_busy: Tick,
    total_bytes: u64,
    total_requests: u64,
}

impl ServiceQueue {
    /// Creates a resource with the given service rate in bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_cycle` is zero.
    pub fn new(rate_bytes_per_cycle: u64) -> Self {
        assert!(rate_bytes_per_cycle > 0, "service rate must be nonzero");
        ServiceQueue {
            rate_bytes_per_cycle,
            next_free: 0,
            window_start: 0,
            busy_in_window: 0,
            total_busy: 0,
            total_bytes: 0,
            total_requests: 0,
        }
    }

    /// Current service rate in bytes per cycle.
    #[inline]
    pub fn rate(&self) -> u64 {
        self.rate_bytes_per_cycle
    }

    /// Changes the service rate for all subsequent requests. Requests already
    /// accepted keep their completion times (the backlog is preserved).
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_cycle` is zero.
    pub fn set_rate(&mut self, rate_bytes_per_cycle: u64) {
        assert!(rate_bytes_per_cycle > 0, "service rate must be nonzero");
        self.rate_bytes_per_cycle = rate_bytes_per_cycle;
    }

    /// Accepts a `bytes`-sized request at tick `now`; returns the tick at
    /// which the transfer completes (queueing + occupancy, no latency —
    /// callers add propagation latency on top).
    pub fn service(&mut self, now: Tick, bytes: u32) -> Tick {
        let occupancy = Self::occupancy_ticks(bytes, self.rate_bytes_per_cycle);
        let start = self.next_free.max(now);
        let done = start + occupancy;
        self.next_free = done;
        self.busy_in_window += occupancy;
        self.total_busy += occupancy;
        self.total_bytes += bytes as u64;
        self.total_requests += 1;
        done
    }

    /// Earliest tick at which a new request would begin service.
    #[inline]
    pub fn next_free(&self) -> Tick {
        self.next_free
    }

    /// Starts a fresh measurement window at `now`.
    pub fn begin_window(&mut self, now: Tick) {
        self.window_start = now;
        self.busy_in_window = 0;
    }

    /// Fraction of the current window the resource was busy, clamped to
    /// `1.0`. Returns `0.0` for an empty window.
    ///
    /// Busy time is attributed at acceptance, so a backlogged resource
    /// reports full utilization — exactly the signal the paper's
    /// controllers want.
    pub fn window_utilization(&self, now: Tick) -> f64 {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed == 0 {
            return 0.0;
        }
        (self.busy_in_window as f64 / elapsed as f64).min(1.0)
    }

    /// Whether this resource is saturated: windowed utilization at or above
    /// `threshold`, or a standing backlog of more than one cycle.
    pub fn is_saturated(&self, now: Tick, threshold: f64) -> bool {
        self.window_utilization(now) >= threshold || self.next_free > now + TICKS_PER_CYCLE
    }

    /// Total busy ticks since construction.
    #[inline]
    pub fn total_busy(&self) -> Tick {
        self.total_busy
    }

    /// Total bytes transferred since construction.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total requests accepted since construction.
    #[inline]
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Occupancy in ticks of a `bytes` transfer at `rate` bytes/cycle,
    /// rounded up to a whole tick.
    #[inline]
    fn occupancy_ticks(bytes: u32, rate: u64) -> Tick {
        (bytes as u64 * TICKS_PER_CYCLE).div_ceil(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_occupancy_at_rate() {
        let mut q = ServiceQueue::new(128);
        assert_eq!(q.service(0, 128), TICKS_PER_CYCLE);
    }

    #[test]
    fn fractional_occupancy_rounds_up_to_tick() {
        let mut q = ServiceQueue::new(768);
        // 128/768 cycles = 1024/6 ticks = 170.67 -> 171 ticks
        assert_eq!(q.service(0, 128), 171);
    }

    #[test]
    fn requests_serialize() {
        let mut q = ServiceQueue::new(64);
        let a = q.service(0, 64);
        let b = q.service(0, 64);
        let c = q.service(0, 64);
        assert_eq!(a, TICKS_PER_CYCLE);
        assert_eq!(b, 2 * TICKS_PER_CYCLE);
        assert_eq!(c, 3 * TICKS_PER_CYCLE);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut q = ServiceQueue::new(64);
        q.service(0, 64);
        let late = q.service(10 * TICKS_PER_CYCLE, 64);
        assert_eq!(late, 11 * TICKS_PER_CYCLE);
    }

    #[test]
    fn rate_change_affects_future_only() {
        let mut q = ServiceQueue::new(64);
        let a = q.service(0, 64);
        q.set_rate(128);
        let b = q.service(0, 64);
        assert_eq!(a, TICKS_PER_CYCLE);
        assert_eq!(b, TICKS_PER_CYCLE + TICKS_PER_CYCLE / 2);
    }

    #[test]
    fn window_utilization_tracks_busy_fraction() {
        let mut q = ServiceQueue::new(64);
        q.begin_window(0);
        q.service(0, 64); // 1 cycle busy
        let u = q.window_utilization(4 * TICKS_PER_CYCLE);
        assert!((u - 0.25).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn utilization_clamps_when_backlogged() {
        let mut q = ServiceQueue::new(1);
        q.begin_window(0);
        q.service(0, 10_000); // enormous backlog
        assert_eq!(q.window_utilization(TICKS_PER_CYCLE), 1.0);
        assert!(q.is_saturated(TICKS_PER_CYCLE, 0.99));
    }

    #[test]
    fn not_saturated_when_idle() {
        let mut q = ServiceQueue::new(64);
        q.begin_window(0);
        q.service(0, 64);
        assert!(!q.is_saturated(100 * TICKS_PER_CYCLE, 0.99));
    }

    #[test]
    fn window_reset_clears_busy() {
        let mut q = ServiceQueue::new(64);
        q.service(0, 6400);
        q.begin_window(1000 * TICKS_PER_CYCLE);
        assert_eq!(q.window_utilization(1001 * TICKS_PER_CYCLE), 0.0);
    }

    #[test]
    fn totals_accumulate() {
        let mut q = ServiceQueue::new(64);
        q.service(0, 64);
        q.service(0, 128);
        assert_eq!(q.total_bytes(), 192);
        assert_eq!(q.total_requests(), 2);
        assert_eq!(q.total_busy(), 3 * TICKS_PER_CYCLE);
    }

    #[test]
    #[should_panic(expected = "service rate must be nonzero")]
    fn zero_rate_panics() {
        let _ = ServiceQueue::new(0);
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut q = ServiceQueue::new(64);
        assert_eq!(q.service(5, 0), 5);
    }
}
