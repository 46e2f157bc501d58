//! Differential tests: the flat `SetAssocCache` and `MshrFile` against
//! naive reference models — the algorithms those types used before they
//! were flattened (an array of `Way` structs indexed with `%`, a
//! `BTreeMap<LineAddr, Vec<W>>`). Every return value, statistic and
//! *ordering* the simulator can observe is compared after every step, so
//! a layout change that alters behaviour fails here before it can move a
//! simulated cycle.

use numa_gpu_cache::{
    CacheStats, EvictedLine, FlushOutcome, LineClass, MshrAllocation, MshrFile, SetAssocCache,
    WayPartition,
};
use numa_gpu_testkit::gen::{bools, ints, quads, select, triples, vecs};
use numa_gpu_testkit::{prop_assert_eq, prop_check};
use numa_gpu_types::{CacheConfig, LineAddr, LINE_SIZE};
use std::collections::BTreeMap;

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    class: LineClass,
    stamp: u64,
}

const INVALID_WAY: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    class: LineClass::Local,
    stamp: 0,
};

/// The pre-flattening cache: array of structs, `%` set indexing,
/// find-then-reindex probes, full-array scans for occupancy and flushes.
struct RefCache {
    sets: u64,
    ways: usize,
    array: Vec<Way>,
    partition: Option<WayPartition>,
    stamp: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: u64, ways: u16, partition: Option<WayPartition>) -> Self {
        RefCache {
            sets,
            ways: ways as usize,
            array: vec![INVALID_WAY; sets as usize * ways as usize],
            partition,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn base(&self, line: LineAddr) -> usize {
        (line.raw() % self.sets) as usize * self.ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.base(line);
        (base..base + self.ways).find(|&i| self.array[i].valid && self.array[i].tag == line.raw())
    }

    fn probe(&mut self, line: LineAddr, mark_dirty: bool) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.stamp += 1;
        self.array[i].stamp = self.stamp;
        self.array[i].dirty |= mark_dirty;
        match self.array[i].class {
            LineClass::Local => self.stats.local_hits.inc(),
            LineClass::Remote => self.stats.remote_hits.inc(),
        }
        true
    }

    fn fill(&mut self, line: LineAddr, class: LineClass, dirty: bool) -> Option<EvictedLine> {
        self.stats.fills.inc();
        self.stamp += 1;
        if let Some(i) = self.find(line) {
            self.array[i].stamp = self.stamp;
            self.array[i].dirty |= dirty;
            self.array[i].class = class;
            return None;
        }
        let range = match self.partition {
            Some(p) => p.ways_for(class),
            None => 0..self.ways,
        };
        let base = self.base(line);
        let way = range
            .clone()
            .find(|&w| !self.array[base + w].valid)
            .or_else(|| (0..self.ways).find(|&w| !self.array[base + w].valid))
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&w| self.array[base + w].stamp)
                    .expect("way range is never empty")
            });
        let victim = self.array[base + way];
        if victim.valid {
            self.stats.evictions.inc();
            if victim.dirty {
                self.stats.dirty_evictions.inc();
            }
        }
        self.array[base + way] = Way {
            tag: line.raw(),
            valid: true,
            dirty,
            class,
            stamp: self.stamp,
        };
        victim.valid.then_some(EvictedLine {
            line: LineAddr::from_index(victim.tag),
            dirty: victim.dirty,
            class: victim.class,
        })
    }

    fn invalidate_where(
        &mut self,
        mut pred: impl FnMut(LineAddr, LineClass) -> bool,
    ) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        for slot in &mut self.array {
            let line = LineAddr::from_index(slot.tag);
            if slot.valid && pred(line, slot.class) {
                out.invalidated += 1;
                if slot.dirty {
                    out.dirty_writebacks.push(line);
                }
                *slot = INVALID_WAY;
            }
        }
        out
    }

    fn resident_of(&self, class: LineClass) -> u64 {
        let ways = self.array.iter();
        ways.filter(|w| w.valid && w.class == class).count() as u64
    }
}

fn class_of(remote: bool) -> LineClass {
    if remote {
        LineClass::Remote
    } else {
        LineClass::Local
    }
}

/// Maps a selector in `0..64` onto a line: mostly a small dense range (so
/// sets conflict and lines are re-referenced), a few same-set aliases far
/// apart, and the four highest line indices a `u64` can hold.
fn line_of(sel: u64, sets: u64) -> LineAddr {
    LineAddr::from_index(match sel {
        0..=47 => sel,
        48..=59 => (sel - 47) * sets * 1_000_003 + sel % 3,
        _ => u64::MAX - (sel - 60),
    })
}

/// The pre-flattening MSHR file, waiter pool included (its reuse count is
/// reported by the self-profiler, so it is behaviour too).
struct RefMshr {
    capacity: usize,
    entries: BTreeMap<LineAddr, Vec<u16>>,
    pool: Vec<Vec<u16>>,
    recycled: u64,
}

impl RefMshr {
    fn allocate(&mut self, line: LineAddr, waiter: u16) -> MshrAllocation {
        if let Some(waiters) = self.entries.get_mut(&line) {
            waiters.push(waiter);
            return MshrAllocation::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrAllocation::Full;
        }
        let mut waiters = self.pool.pop().unwrap_or_default();
        if waiters.capacity() > 0 {
            self.recycled += 1;
        }
        waiters.push(waiter);
        self.entries.insert(line, waiters);
        MshrAllocation::Primary
    }
}

prop_check! {
    /// Random geometry (1-way up to the L2's 16 ways and past it,
    /// non-power-of-two set counts, partitioned or not), random operation
    /// stream with `set_partition` mid-stream. The model keeps `u64` LRU
    /// stamps, so this is also the oracle for the flat cache's rank bytes.
    fn set_assoc_matches_the_array_of_structs_model(
        ways in select((1u16..9).chain([15, 16, 17, 32]).collect()),
        sets in ints(1u64..13),
        partitioned in bools(),
        ops in vecs(quads(ints(0u8..10), ints(0u64..64), bools(), bools()), 1..400)
    ) {
        let partition = (partitioned && ways >= 2).then(|| WayPartition::balanced(ways));
        let cfg = CacheConfig {
            size_bytes: sets * ways as u64 * LINE_SIZE,
            ways,
            hit_latency_cycles: 1,
        };
        let mut flat = SetAssocCache::new(&cfg, partition);
        let mut model = RefCache::new(sets, ways, partition);
        prop_assert_eq!(flat.num_sets(), sets);
        for (kind, sel, a, b) in ops {
            let line = line_of(sel, sets);
            match kind {
                0 | 1 => prop_assert_eq!(flat.probe_read(line), model.probe(line, false)),
                2 => prop_assert_eq!(flat.probe_write(line, a), model.probe(line, a)),
                3..=5 => prop_assert_eq!(
                    flat.fill(line, class_of(a), b),
                    model.fill(line, class_of(a), b)
                ),
                6 => {
                    let class = class_of(a);
                    prop_assert_eq!(
                        flat.invalidate_where(|_, c| c == class),
                        model.invalidate_where(|_, c| c == class)
                    );
                }
                7 => {
                    let odd = |l: LineAddr, _| (l.raw() % 2 == 1) == a;
                    prop_assert_eq!(flat.invalidate_where(odd), model.invalidate_where(odd));
                }
                8 if sel < 8 => {
                    prop_assert_eq!(flat.invalidate_all(), model.invalidate_where(|_, _| true));
                    prop_assert_eq!(flat.invalidate_all(), FlushOutcome::default());
                }
                9 if partition.is_some() => {
                    let p = WayPartition::with_local_ways(1 + (sel % (ways as u64 - 1)) as u16, ways);
                    flat.set_partition(p);
                    model.partition = Some(p);
                }
                _ => {
                    flat.record_miss(class_of(a));
                    match class_of(a) {
                        LineClass::Local => model.stats.local_misses.inc(),
                        LineClass::Remote => model.stats.remote_misses.inc(),
                    }
                }
            }
            prop_assert_eq!(flat.contains(line), model.find(line).is_some());
            prop_assert_eq!(flat.stats(), model.stats);
            let (local, remote) = (model.resident_of(LineClass::Local), model.resident_of(LineClass::Remote));
            prop_assert_eq!(flat.resident_lines_of(LineClass::Local), local);
            prop_assert_eq!(flat.resident_lines_of(LineClass::Remote), remote);
            prop_assert_eq!(flat.resident_lines(), local + remote);
            flat.check_invariants();
        }
        // The final flush enumerates whatever is left in array order.
        prop_assert_eq!(flat.invalidate_all(), model.invalidate_where(|_, _| true));
        prop_assert_eq!(flat.resident_lines(), 0);
    }

    /// Primary / Merged / Full decisions, wake order, occupancy and the
    /// ascending `outstanding_lines()` enumeration.
    fn mshr_file_matches_the_btreemap_model(
        capacity in ints(1usize..9),
        ops in vecs(triples(ints(0u8..8), ints(0u64..12), ints(0u16..64)), 1..300)
    ) {
        let mut flat: MshrFile<u16> = MshrFile::new(capacity);
        let mut model = RefMshr { capacity, entries: BTreeMap::new(), pool: Vec::new(), recycled: 0 };
        for (kind, sel, waiter) in ops {
            // Scatter the twelve lines so address order differs from any
            // allocation order the stream is likely to produce.
            let line = LineAddr::from_index(sel.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (sel % 5 * 8));
            match kind {
                0..=4 => prop_assert_eq!(flat.allocate(line, waiter), model.allocate(line, waiter)),
                _ => {
                    let (mut woke, mut want) = (vec![waiter], vec![waiter]);
                    flat.complete_into(line, &mut woke);
                    if let Some(mut waiters) = model.entries.remove(&line) {
                        want.append(&mut waiters);
                        model.pool.push(waiters);
                    }
                    prop_assert_eq!(woke, want);
                }
            }
            prop_assert_eq!(flat.in_use(), model.entries.len());
            prop_assert_eq!(flat.is_full(), model.entries.len() >= capacity);
            prop_assert_eq!(flat.is_outstanding(line), model.entries.contains_key(&line));
            prop_assert_eq!(flat.recycled_allocations(), model.recycled);
            let outstanding: Vec<LineAddr> = flat.outstanding_lines().collect();
            prop_assert_eq!(outstanding, model.entries.keys().copied().collect::<Vec<_>>());
        }
    }
}
