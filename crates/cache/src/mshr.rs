//! Miss status holding registers.

use numa_gpu_types::LineAddr;

/// Result of attempting to track a miss in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAllocation {
    /// First miss for this line — the caller must send the fill request.
    Primary,
    /// Merged into an outstanding miss for the same line; no new request.
    Merged,
    /// All MSHRs busy — the caller must stall and retry.
    Full,
}

/// A file of miss status holding registers that merges concurrent misses to
/// the same cache line, bounding both outstanding traffic and the SM's
/// memory-level parallelism (as real GPU L1s do).
///
/// `W` identifies a waiter (typically a warp slot) to wake on fill.
///
/// # Examples
///
/// ```
/// use numa_gpu_cache::{MshrAllocation, MshrFile};
/// use numa_gpu_types::LineAddr;
///
/// let mut mshrs: MshrFile<u32> = MshrFile::new(2);
/// let l = LineAddr::from_index(9);
/// assert_eq!(mshrs.allocate(l, 0), MshrAllocation::Primary);
/// assert_eq!(mshrs.allocate(l, 1), MshrAllocation::Merged);
/// let mut woken = Vec::new();
/// mshrs.complete_into(l, &mut woken);
/// assert_eq!(woken, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    capacity: usize,
    /// Register `i` tracks `lines[i]` and wakes `waiters[i]`; allocation
    /// order, probed linearly (a file holds tens of registers).
    lines: Vec<LineAddr>,
    waiters: Vec<Vec<W>>,
    /// Emptied waiter vectors kept for reuse, so the steady state allocates
    /// no waiter storage: each primary miss takes a pooled vector and each
    /// completion returns one.
    pool: Vec<Vec<W>>,
    recycled: u64,
}

impl<W> MshrFile<W> {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            lines: Vec::new(),
            waiters: Vec::new(),
            pool: Vec::new(),
            recycled: 0,
        }
    }

    fn register_of(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Tracks a miss on `line` for `waiter`.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> MshrAllocation {
        if let Some(i) = self.register_of(line) {
            self.waiters[i].push(waiter);
            return MshrAllocation::Merged;
        }
        if self.is_full() {
            return MshrAllocation::Full;
        }
        let mut waiters = self.pool.pop().unwrap_or_default();
        if waiters.capacity() > 0 {
            self.recycled += 1;
        }
        waiters.push(waiter);
        self.lines.push(line);
        self.waiters.push(waiters);
        MshrAllocation::Primary
    }

    /// Completes the miss on `line`, releasing its register and appending
    /// its waiters to `out` (nothing if the line was not outstanding). The
    /// emptied waiter vector returns to the internal pool for the next
    /// primary miss, so the hot fill path allocates nothing in steady state.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) {
        if let Some(i) = self.register_of(line) {
            self.lines.swap_remove(i);
            let mut waiters = self.waiters.swap_remove(i);
            out.append(&mut waiters);
            self.pool.push(waiters);
        }
    }

    /// Waiter-vector allocations avoided so far by pool reuse (feeds the
    /// self-profiler's `allocations avoided` attribution).
    pub fn recycled_allocations(&self) -> u64 {
        self.recycled
    }

    /// Whether a miss on `line` is outstanding.
    pub fn is_outstanding(&self, line: LineAddr) -> bool {
        self.register_of(line).is_some()
    }

    /// Registers currently in use.
    pub fn in_use(&self) -> usize {
        self.lines.len()
    }

    /// Whether every register is busy.
    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }

    /// Total registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lines with an outstanding miss, in ascending address order (sorted
    /// on demand). The order depends only on the set of outstanding lines —
    /// never on allocation order — so drain loops and diagnostics built on
    /// it are deterministic.
    pub fn outstanding_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let mut lines = self.lines.clone();
        lines.sort_unstable();
        lines.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn complete(m: &mut MshrFile<u8>, line: LineAddr) -> Vec<u8> {
        let mut out = Vec::new();
        m.complete_into(line, &mut out);
        out
    }

    #[test]
    fn primary_then_merge() {
        let mut m: MshrFile<u8> = MshrFile::new(4);
        assert_eq!(m.allocate(l(1), 0), MshrAllocation::Primary);
        assert_eq!(m.allocate(l(1), 1), MshrAllocation::Merged);
        assert_eq!(m.in_use(), 1);
    }

    #[test]
    fn fills_wake_all_waiters_in_order() {
        let mut m: MshrFile<u8> = MshrFile::new(4);
        m.allocate(l(2), 5);
        m.allocate(l(2), 6);
        m.allocate(l(2), 7);
        assert_eq!(complete(&mut m, l(2)), vec![5, 6, 7]);
        assert!(!m.is_outstanding(l(2)));
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn full_when_capacity_reached() {
        let mut m: MshrFile<u8> = MshrFile::new(2);
        assert_eq!(m.allocate(l(1), 0), MshrAllocation::Primary);
        assert_eq!(m.allocate(l(2), 0), MshrAllocation::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(l(3), 0), MshrAllocation::Full);
        // Merging into an existing entry still works at capacity.
        assert_eq!(m.allocate(l(1), 1), MshrAllocation::Merged);
    }

    #[test]
    fn outstanding_lines_sorted_regardless_of_allocation_order() {
        // Allocate the same lines in two different orders; the outstanding
        // set must enumerate identically (the register array itself is in
        // allocation order; leaking that would break any drain loop).
        let fill = |order: &[u64]| {
            let mut m: MshrFile<u8> = MshrFile::new(8);
            for &i in order {
                m.allocate(l(i), 0);
            }
            m.outstanding_lines().collect::<Vec<_>>()
        };
        let a = fill(&[9, 1, 7, 3]);
        let b = fill(&[3, 7, 1, 9]);
        assert_eq!(a, b);
        assert_eq!(a, vec![l(1), l(3), l(7), l(9)]);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: MshrFile<u8> = MshrFile::new(2);
        assert!(complete(&mut m, l(9)).is_empty());
        assert_eq!(m.recycled_allocations(), 0);
    }

    #[test]
    fn complete_into_appends_and_recycles_waiter_storage() {
        let mut m: MshrFile<u8> = MshrFile::new(4);
        m.allocate(l(2), 5);
        m.allocate(l(2), 6);
        let mut out = vec![9]; // appended to, never cleared
        m.complete_into(l(2), &mut out);
        assert_eq!(out, vec![9, 5, 6]);
        assert_eq!(m.recycled_allocations(), 0);
        // The pooled vector backs the next primary miss.
        m.allocate(l(3), 7);
        assert_eq!(m.recycled_allocations(), 1);
        assert_eq!(complete(&mut m, l(3)), vec![7]);
    }

    #[test]
    fn capacity_frees_on_complete() {
        let mut m: MshrFile<u8> = MshrFile::new(1);
        m.allocate(l(1), 0);
        assert_eq!(m.allocate(l(2), 0), MshrAllocation::Full);
        complete(&mut m, l(1));
        assert_eq!(m.allocate(l(2), 0), MshrAllocation::Primary);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _: MshrFile<u8> = MshrFile::new(0);
    }
}
