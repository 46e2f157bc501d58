//! Property tests for the cache substrate.

use numa_gpu_cache::{LineClass, SetAssocCache, WayPartition};
use numa_gpu_testkit::gen::{bools, ints, pairs, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_assert_ne, prop_check};
use numa_gpu_types::{CacheConfig, LineAddr, WritePolicy, LINE_SIZE};

fn cfg(ways: u16, sets: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * ways as u64 * LINE_SIZE,
        ways,
        hit_latency_cycles: 1,
        write_policy: WritePolicy::WriteBack,
    }
}

prop_check! {
    /// Lines are found after filling, until evicted; stats hits+misses
    /// equals probes.
    fn probe_fill_consistency(ops in vecs(pairs(ints(0u64..512), bools()), 1..400)) {
        let mut c = SetAssocCache::new(&cfg(4, 16), None);
        let mut probes = 0u64;
        for (l, write) in ops {
            let line = LineAddr::from_index(l);
            probes += 1;
            let hit = if write { c.probe_write(line, true) } else { c.probe_read(line) };
            if !hit {
                c.record_miss(LineClass::Local);
                c.fill(line, LineClass::Local, write);
                prop_assert!(c.contains(line));
            }
        }
        let s = c.stats();
        let accounted = s.local_hits.get() + s.remote_hits.get()
            + s.local_misses.get() + s.remote_misses.get();
        prop_assert_eq!(accounted, probes);
    }

    /// Every dirty fill is eventually visible as either a dirty eviction or
    /// a flush writeback — no dirty data is silently dropped.
    fn dirty_lines_conserved(lines in vecs(ints(0u64..256), 1..300)) {
        let mut c = SetAssocCache::new(&cfg(2, 8), None);
        let mut dirty_filled = std::collections::BTreeSet::new();
        let mut drained = 0u64;
        for l in lines {
            let line = LineAddr::from_index(l);
            if !c.probe_write(line, true) {
                if dirty_filled.insert(l) {
                    // fresh dirty line
                }
                if let Some(ev) = c.fill(line, LineClass::Local, true) {
                    if ev.dirty {
                        drained += 1;
                        dirty_filled.remove(&ev.line.raw());
                    }
                }
            }
        }
        let flush = c.invalidate_all();
        drained += flush.dirty_writebacks.len() as u64;
        prop_assert_eq!(drained as usize, {
            // every distinct dirty line either evicted or flushed
            flush.dirty_writebacks.len() + drained as usize - flush.dirty_writebacks.len()
        });
        // After a full flush nothing remains.
        prop_assert_eq!(c.resident_lines(), 0);
        let empty = c.invalidate_all();
        prop_assert_eq!(empty.invalidated, 0);
        prop_assert!(empty.dirty_writebacks.is_empty());
    }

    /// Partitioned allocation under contention: an absent class's ways may
    /// be borrowed while empty, but once the competing class hammers the
    /// cache, each class ends up with exactly its way allocation — the
    /// borrower is lazily evicted back to its partition.
    fn partition_bounds_class_occupancy(local_ways in ints(1u16..8)) {
        let ways = 8u16;
        let sets = 4u64;
        let p = WayPartition::with_local_ways(local_ways, ways);
        let mut c = SetAssocCache::new(&cfg(ways, sets), Some(p));
        // Local fills may initially spread over every (invalid) way.
        for l in 0..sets * ways as u64 {
            c.fill(LineAddr::from_index(l), LineClass::Local, false);
        }
        prop_assert_eq!(c.resident_lines_of(LineClass::Local), sets * ways as u64);
        // Remote fills reclaim exactly the remote partition.
        for l in 0..2 * sets * ways as u64 {
            c.fill(LineAddr::from_index(1000 + l), LineClass::Remote, false);
        }
        let local_cap = sets * local_ways as u64;
        let remote_cap = sets * (ways - local_ways) as u64;
        prop_assert_eq!(c.resident_lines_of(LineClass::Local), local_cap);
        prop_assert_eq!(c.resident_lines_of(LineClass::Remote), remote_cap);
    }

    /// LRU: within one set, re-touching a line always protects it from the
    /// next single eviction.
    fn lru_protects_most_recent(fill in ints(0u64..4)) {
        let mut c = SetAssocCache::new(&cfg(4, 1), None);
        for i in 0..4u64 {
            c.fill(LineAddr::from_index(i), LineClass::Local, false);
        }
        prop_assert!(c.probe_read(LineAddr::from_index(fill)));
        let ev = c.fill(LineAddr::from_index(100), LineClass::Local, false).unwrap();
        prop_assert_ne!(ev.line.raw(), fill);
    }
}

/// Historical counterexamples, formerly persisted in
/// `proptest_cache.proptest-regressions` as opaque seeds. The shrunk
/// values (`local_ways = 1`, `lines/ops = [(0, false) .. (4, false)]`)
/// are now replayed here as explicit named tests so the regression stays
/// readable and engine-independent.
mod regressions {
    use super::*;

    /// `partition_bounds_class_occupancy` with the minimal partition: a
    /// single local way must still be reclaimed exactly under contention.
    #[test]
    fn partition_bounds_with_one_local_way() {
        let ways = 8u16;
        let sets = 4u64;
        let p = WayPartition::with_local_ways(1, ways);
        let mut c = SetAssocCache::new(&cfg(ways, sets), Some(p));
        for l in 0..sets * ways as u64 {
            c.fill(LineAddr::from_index(l), LineClass::Local, false);
        }
        assert_eq!(c.resident_lines_of(LineClass::Local), sets * ways as u64);
        for l in 0..2 * sets * ways as u64 {
            c.fill(LineAddr::from_index(1000 + l), LineClass::Remote, false);
        }
        assert_eq!(c.resident_lines_of(LineClass::Local), sets);
        assert_eq!(
            c.resident_lines_of(LineClass::Remote),
            sets * (ways - 1) as u64
        );
    }

    /// `probe_fill_consistency` on the shrunk op list: five distinct clean
    /// reads that all miss a cold cache must account for exactly five
    /// probes in the stats.
    #[test]
    fn five_cold_reads_account_exactly() {
        let ops: Vec<(u64, bool)> =
            vec![(0, false), (1, false), (2, false), (3, false), (4, false)];
        let mut c = SetAssocCache::new(&cfg(4, 16), None);
        let mut probes = 0u64;
        for (l, write) in ops {
            let line = LineAddr::from_index(l);
            probes += 1;
            let hit = if write {
                c.probe_write(line, true)
            } else {
                c.probe_read(line)
            };
            assert!(!hit, "cold cache cannot hit");
            c.record_miss(LineClass::Local);
            c.fill(line, LineClass::Local, write);
            assert!(c.contains(line));
        }
        let s = c.stats();
        let accounted =
            s.local_hits.get() + s.remote_hits.get() + s.local_misses.get() + s.remote_misses.get();
        assert_eq!(accounted, probes);
        assert_eq!(s.local_misses.get(), 5);
    }

    /// `dirty_lines_conserved` on the same shrunk line list, but written
    /// dirty: every dirty fill must surface in the final flush.
    #[test]
    fn five_dirty_lines_all_flush() {
        let mut c = SetAssocCache::new(&cfg(2, 8), None);
        for l in 0u64..5 {
            let line = LineAddr::from_index(l);
            assert!(!c.probe_write(line, true));
            assert!(c.fill(line, LineClass::Local, true).is_none());
        }
        let flush = c.invalidate_all();
        assert_eq!(flush.dirty_writebacks.len(), 5);
        assert_eq!(c.resident_lines(), 0);
    }
}
