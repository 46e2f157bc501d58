//! Per-socket DRAM (on-package HBM) model.

use numa_gpu_engine::ServiceQueue;
use numa_gpu_types::{cycles_to_ticks, Counter, DramConfig, LineAddr, Tick};

/// Row buffer size assumed by the open-row locality model, in bytes.
pub const ROW_BYTES: u64 = 8192;

/// Number of banks assumed by the open-row locality model.
pub const NUM_BANKS: usize = 16;

/// DRAM access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read line transfers serviced.
    pub reads: Counter,
    /// Write line transfers serviced.
    pub writes: Counter,
    /// Total bytes moved.
    pub bytes: Counter,
}

/// One socket's high-bandwidth memory: a bandwidth-limited FIFO interface
/// plus a fixed access latency (Table 1: 768 GB/s, 100 ns).
///
/// # Examples
///
/// ```
/// use numa_gpu_mem::Dram;
/// use numa_gpu_types::{Addr, DramConfig, TICKS_PER_CYCLE};
///
/// let mut dram = Dram::new(DramConfig { bytes_per_cycle: 768, latency_cycles: 100 });
/// let done = dram.read_line(0, Addr::new(0).line(), 128);
/// // occupancy (128/768 of a cycle, rounded up in ticks) + 100-cycle latency
/// assert!(done > 100 * TICKS_PER_CYCLE);
/// assert!(done < 101 * TICKS_PER_CYCLE);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    queue: ServiceQueue,
    latency: Tick,
    stats: DramStats,
    /// Open row per bank (stats-only open-row locality model).
    open_rows: [Option<u64>; NUM_BANKS],
    /// Addressed accesses that found their row open in the bank.
    row_hits: u64,
    /// Addressed accesses that had to open a new row.
    row_misses: u64,
}

impl Dram {
    /// Creates a DRAM model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured bandwidth is zero.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            queue: ServiceQueue::new(config.bytes_per_cycle),
            latency: cycles_to_ticks(config.latency_cycles as u64),
            stats: DramStats::default(),
            open_rows: [None; NUM_BANKS],
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Classifies an addressed access against the per-bank open rows.
    /// Purely observational: never affects timing.
    fn touch_row(&mut self, line: LineAddr) {
        let raw = line.base().raw();
        let bank = ((raw / ROW_BYTES) as usize) % NUM_BANKS;
        let row = raw / (ROW_BYTES * NUM_BANKS as u64);
        if self.open_rows[bank] == Some(row) {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            self.open_rows[bank] = Some(row);
        }
    }

    /// Services a read of `bytes` of `line` at tick `now`; returns the tick
    /// the data is available (queueing + occupancy + access latency). The
    /// line feeds the open-row locality model, which never affects timing.
    pub fn read_line(&mut self, now: Tick, line: LineAddr, bytes: u32) -> Tick {
        self.touch_row(line);
        self.stats.reads.inc();
        self.stats.bytes.add(bytes as u64);
        self.queue.service(now, bytes) + self.latency
    }

    /// Services a write of `bytes` of `line` at tick `now`; returns the
    /// tick the write is globally visible. Callers typically do not block
    /// on this. The line feeds the open-row locality model, as for reads.
    pub fn write_line(&mut self, now: Tick, line: LineAddr, bytes: u32) -> Tick {
        self.touch_row(line);
        self.stats.writes.inc();
        self.stats.bytes.add(bytes as u64);
        self.queue.service(now, bytes) + self.latency
    }

    /// Starts a fresh utilization window (for the NUMA-aware cache
    /// controller's local-DRAM-saturation input).
    pub fn begin_window(&mut self, now: Tick) {
        self.queue.begin_window(now);
    }

    /// Whether the DRAM interface is saturated in the current window.
    pub fn is_saturated(&self, now: Tick, threshold: f64) -> bool {
        self.queue.is_saturated(now, threshold)
    }

    /// Windowed utilization in `[0, 1]`.
    pub fn window_utilization(&self, now: Tick) -> f64 {
        self.queue.window_utilization(now)
    }

    /// Total busy ticks since construction.
    pub fn total_busy(&self) -> Tick {
        self.queue.total_busy()
    }

    /// Access statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Addressed accesses that found their row open in the bank.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Addressed accesses that had to open a new row.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::{Addr, TICKS_PER_CYCLE};

    fn dram() -> Dram {
        Dram::new(DramConfig {
            bytes_per_cycle: 768,
            latency_cycles: 100,
        })
    }

    fn line(raw: u64) -> LineAddr {
        Addr::new(raw).line()
    }

    #[test]
    fn read_includes_latency() {
        let mut d = dram();
        let done = d.read_line(0, line(0), 128);
        assert_eq!(done, 171 + 100 * TICKS_PER_CYCLE);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut d = dram();
        // 6 lines/cycle at 768 B/cycle; the 12th line finishes ~2 cycles in.
        let mut last = 0;
        for _ in 0..12 {
            last = d.read_line(0, line(0), 128);
        }
        let occupancy = last - 100 * TICKS_PER_CYCLE;
        assert!(occupancy >= 2 * TICKS_PER_CYCLE, "occupancy {occupancy}");
        assert!(occupancy < 3 * TICKS_PER_CYCLE);
    }

    #[test]
    fn writes_share_the_interface() {
        let mut d = dram();
        let r = d.read_line(0, line(0), 768);
        let w = d.write_line(0, line(0), 768);
        assert_eq!(w - r, TICKS_PER_CYCLE);
    }

    #[test]
    fn stats_track_reads_writes_bytes() {
        let mut d = dram();
        d.read_line(0, line(0), 128);
        d.write_line(0, line(0), 128);
        d.write_line(0, line(0), 16);
        let s = d.stats();
        assert_eq!(s.reads.get(), 1);
        assert_eq!(s.writes.get(), 2);
        assert_eq!(s.bytes.get(), 272);
    }

    #[test]
    fn row_model_classifies_hits_and_misses() {
        let mut d = dram();
        // Two lines in the same 8 KiB row: miss (opens row) then hit.
        d.read_line(0, line(0), 128);
        d.read_line(0, line(128), 128);
        // A line one row further in the same bank: closes the first row.
        d.read_line(0, line(ROW_BYTES * NUM_BANKS as u64), 128);
        // Back to the original row: miss again.
        d.write_line(0, line(256), 128);
        assert_eq!(d.row_hits(), 1);
        assert_eq!(d.row_misses(), 3);
        // Distinct banks never conflict.
        d.read_line(0, line(ROW_BYTES), 128); // bank 1
        d.read_line(0, line(ROW_BYTES + 128), 128);
        assert_eq!(d.row_hits(), 2);
    }

    #[test]
    fn open_rows_never_change_timing() {
        // One stream keeps bank 0's first row open; the other opens a new
        // row of bank 0 on every access.
        let (mut open, mut thrash) = (dram(), dram());
        let row_stride = ROW_BYTES * NUM_BANKS as u64;
        let mut t = 0;
        for i in 0..8 {
            let write = i % 2 == 1;
            let (a, b) = (line(i * 128), line(i * row_stride));
            let (ta, tb) = if write {
                (open.write_line(t, a, 128), thrash.write_line(t, b, 128))
            } else {
                (open.read_line(t, a, 128), thrash.read_line(t, b, 128))
            };
            assert_eq!(ta, tb, "access {i}");
            t += 50;
        }
        assert_eq!((open.row_hits(), open.row_misses()), (7, 1));
        assert_eq!((thrash.row_hits(), thrash.row_misses()), (0, 8));
        assert_eq!(open.stats(), thrash.stats());
    }

    #[test]
    fn saturation_detected_under_backlog() {
        let mut d = dram();
        d.begin_window(0);
        for _ in 0..10_000 {
            d.read_line(0, line(0), 128);
        }
        assert!(d.is_saturated(TICKS_PER_CYCLE, 0.99));
        assert_eq!(d.window_utilization(TICKS_PER_CYCLE), 1.0);
    }

    #[test]
    fn idle_dram_not_saturated() {
        let mut d = dram();
        d.begin_window(0);
        d.read_line(0, line(0), 128);
        assert!(!d.is_saturated(1_000 * TICKS_PER_CYCLE, 0.99));
    }
}
