//! Set-associative cache array with NUMA-class way partitioning.

use numa_gpu_types::{CacheConfig, Counter, LineAddr};

/// NUMA class of a cached line: homed in this socket's DRAM or a remote
/// socket's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineClass {
    /// Line's home is this socket's local DRAM.
    Local,
    /// Line's home is another socket's DRAM (reached over the switch).
    Remote,
}

impl LineClass {
    /// The other class.
    #[inline]
    pub const fn other(self) -> Self {
        match self {
            LineClass::Local => LineClass::Remote,
            LineClass::Remote => LineClass::Local,
        }
    }
}

/// Division of a cache's ways between [`LineClass::Local`] and
/// [`LineClass::Remote`] fills.
///
/// The paper's algorithm (Figure 7(d), step 0) starts balanced and never
/// starves either class below one way ("we always require at least one way
/// ... to be allocated to either remote or local memory").
///
/// # Examples
///
/// ```
/// use numa_gpu_cache::WayPartition;
///
/// let mut p = WayPartition::balanced(16);
/// assert_eq!(p.local_ways(), 8);
/// for _ in 0..20 {
///     p.grow_remote();
/// }
/// assert_eq!(p.local_ways(), 1); // floor of one way
/// assert_eq!(p.remote_ways(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayPartition {
    local_ways: u16,
    total_ways: u16,
}

impl WayPartition {
    /// An even split (step 0 of the paper's algorithm). With an odd way
    /// count the extra way goes to the local class.
    ///
    /// # Panics
    ///
    /// Panics if `total_ways < 2` (both classes need at least one way).
    pub fn balanced(total_ways: u16) -> Self {
        assert!(total_ways >= 2, "partitioned cache needs at least 2 ways");
        WayPartition {
            local_ways: total_ways - total_ways / 2,
            total_ways,
        }
    }

    /// A partition with an explicit local-way count.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= local_ways < total_ways`.
    pub fn with_local_ways(local_ways: u16, total_ways: u16) -> Self {
        assert!(
            local_ways >= 1 && local_ways < total_ways,
            "each class needs at least one way"
        );
        WayPartition {
            local_ways,
            total_ways,
        }
    }

    /// Ways currently allocated to local-class fills.
    #[inline]
    pub const fn local_ways(self) -> u16 {
        self.local_ways
    }

    /// Ways currently allocated to remote-class fills.
    #[inline]
    pub const fn remote_ways(self) -> u16 {
        self.total_ways - self.local_ways
    }

    /// Total ways.
    #[inline]
    pub const fn total_ways(self) -> u16 {
        self.total_ways
    }

    /// Way index range a `class` fill may victimize.
    #[inline]
    pub fn ways_for(self, class: LineClass) -> std::ops::Range<usize> {
        match class {
            LineClass::Local => 0..self.local_ways as usize,
            LineClass::Remote => self.local_ways as usize..self.total_ways as usize,
        }
    }

    /// Moves one way from local to remote (step 2). Returns `false` when the
    /// local floor (one way) blocks the move.
    pub fn grow_remote(&mut self) -> bool {
        if self.local_ways > 1 {
            self.local_ways -= 1;
            true
        } else {
            false
        }
    }

    /// Moves one way from remote to local (step 3). Returns `false` when the
    /// remote floor (one way) blocks the move.
    pub fn grow_local(&mut self) -> bool {
        if self.remote_ways() > 1 {
            self.local_ways += 1;
            true
        } else {
            false
        }
    }

    /// Moves one way toward an even split (step 4). Returns `false` when
    /// already within one way of balance.
    pub fn equalize_step(&mut self) -> bool {
        let balanced = self.total_ways - self.total_ways / 2;
        if self.local_ways > balanced {
            self.local_ways -= 1;
            true
        } else if self.local_ways < balanced && self.local_ways + 1 < self.total_ways {
            self.local_ways += 1;
            true
        } else {
            false
        }
    }
}

/// A line pushed out of the cache by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line address.
    pub line: LineAddr,
    /// Whether it held dirty data (needs a writeback).
    pub dirty: bool,
    /// NUMA class of the evicted line.
    pub class: LineClass,
}

/// Result of a bulk software-coherence invalidation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Number of valid lines invalidated.
    pub invalidated: u64,
    /// Dirty lines that must be written back (drive flush traffic).
    pub dirty_writebacks: Vec<LineAddr>,
}

/// Hit/miss statistics split by NUMA class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits on local-class lines.
    pub local_hits: Counter,
    /// Misses for local-class lines.
    pub local_misses: Counter,
    /// Hits on remote-class lines.
    pub remote_hits: Counter,
    /// Misses for remote-class lines.
    pub remote_misses: Counter,
    /// Fills installed.
    pub fills: Counter,
    /// Valid lines evicted by fills.
    pub evictions: Counter,
    /// Dirty evictions (writebacks generated).
    pub dirty_evictions: Counter,
}

impl CacheStats {
    /// Overall hit rate across both classes.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.local_hits.get() + self.remote_hits.get();
        let total = hits + self.local_misses.get() + self.remote_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

// Per-way state bits. A zero byte is an invalid way: a zeroed array is an
// empty cache, and no line address can alias "invalid" (a one-set cache
// uses all 2^64 tag values, so the tag itself has no room for a sentinel).
const VALID: u8 = 1;
const DIRTY: u8 = 2;
const REMOTE: u8 = 4;

#[inline]
const fn class_of(meta: u8) -> LineClass {
    if meta & REMOTE == 0 {
        LineClass::Local
    } else {
        LineClass::Remote
    }
}

/// A set-associative, LRU, optionally way-partitioned cache tag array.
///
/// Pass `Some(partition)` for the NUMA-aware and static-R$ organizations,
/// or `None` for a conventional shared cache where both classes contend for
/// every way. Lookups always consult **all** ways (the paper's "lazy
/// eviction": repartitioning never moves data, it only constrains future
/// victim selection).
///
/// Way state is three parallel arrays indexed `set * ways + way`: a lookup
/// scans one set's tags, a flush only the state bytes. The first fill
/// allocates them, so a cache nothing is ever installed in (most L1s of a
/// large machine on a small kernel) costs no memory and no zeroing.
///
/// Recency is one byte a way (ten with tag and state): the way's LRU rank
/// in its set (0 = most recent), stored XOR the way index so a zeroed set
/// decodes to the permutation `0..ways`. A touch moves the way to rank 0
/// and ages the ways more recent than it; the victim is the highest rank in
/// the class's way range. Ranks pick victims only in a set whose every way
/// is valid, i.e. touched since it was last invalid, so they pick exactly
/// the way a last-touch timestamp would.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: u64,
    ways: usize,
    /// Line index held by each way; stale (ignored) where `meta` is zero.
    tags: Vec<u64>,
    /// LRU rank of each way within its set, XOR the way index.
    ranks: Vec<u8>,
    /// `VALID | DIRTY | REMOTE` bits of each way.
    meta: Vec<u8>,
    /// Valid ways, kept so occupancy is O(1) and a flush can stop early.
    resident: u64,
    partition: Option<WayPartition>,
    stats: CacheStats,
    /// Partition installs that changed the way split.
    repartitions: u64,
}

impl SetAssocCache {
    /// Builds a cache from its geometry. `partition` of `None` means both
    /// classes contend for the full associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways), if the
    /// associativity exceeds [`CacheConfig::MAX_WAYS`] (recency ranks are
    /// bytes), or if a partition's way count disagrees with the config.
    pub fn new(config: &CacheConfig, partition: Option<WayPartition>) -> Self {
        let sets = config.num_sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        assert!(config.ways <= CacheConfig::MAX_WAYS, "ways above MAX_WAYS");
        if let Some(p) = partition {
            assert_eq!(
                p.total_ways(),
                config.ways,
                "partition ways must match cache ways"
            );
        }
        SetAssocCache {
            sets,
            ways: config.ways as usize,
            tags: Vec::new(),
            ranks: Vec::new(),
            meta: Vec::new(),
            resident: 0,
            partition,
            stats: CacheStats::default(),
            repartitions: 0,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    #[inline]
    pub fn num_ways(&self) -> u16 {
        self.ways as u16
    }

    /// The current way partition, if partitioned.
    #[inline]
    pub fn partition(&self) -> Option<WayPartition> {
        self.partition
    }

    /// Installs a new way partition (lazy: no data moves).
    ///
    /// # Panics
    ///
    /// Panics if the cache was built unpartitioned or the way count differs.
    pub fn set_partition(&mut self, partition: WayPartition) {
        assert!(
            self.partition.is_some(),
            "cache was built without a partition"
        );
        assert_eq!(partition.total_ways() as usize, self.ways);
        if self.partition != Some(partition) {
            self.repartitions += 1;
        }
        self.partition = Some(partition);
    }

    /// Partition installs that changed the way split.
    #[inline]
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Index of way 0 of `line`'s set (a mask for power-of-two set counts).
    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        let mask = self.sets - 1;
        let set = if self.sets & mask == 0 {
            line.raw() & mask
        } else {
            line.raw() % self.sets
        };
        set as usize * self.ways
    }

    /// Array index of the valid way holding `line` in the set at `base`.
    #[inline]
    fn find(&self, base: usize, line: LineAddr) -> Option<usize> {
        if self.resident == 0 {
            return None; // also covers the not-yet-allocated arrays
        }
        let tags = &self.tags[base..base + self.ways];
        let meta = &self.meta[base..base + self.ways];
        (0..self.ways)
            .find(|&w| tags[w] == line.raw() && meta[w] != 0)
            .map(|w| base + w)
    }

    /// Makes array index `i` the most recent way of the set at `base`: the
    /// ways more recent than it age by one rank, it takes rank 0.
    #[inline]
    fn touch(&mut self, base: usize, i: usize) {
        let ranks = &mut self.ranks[base..base + self.ways];
        let way = i - base;
        let old = ranks[way] ^ way as u8;
        if old == 0 {
            return;
        }
        for (w, r) in ranks.iter_mut().enumerate() {
            let rank = *r ^ w as u8;
            *r = (rank + (rank < old) as u8) ^ w as u8;
        }
        ranks[way] = way as u8;
    }

    /// Shared probe: on hit refreshes recency, ORs `extra` into the way's
    /// state bits and counts the hit under the line's class.
    #[inline]
    fn probe(&mut self, line: LineAddr, extra: u8) -> bool {
        let base = self.set_base(line);
        let Some(i) = self.find(base, line) else {
            return false;
        };
        self.touch(base, i);
        self.meta[i] |= extra;
        match class_of(self.meta[i]) {
            LineClass::Local => self.stats.local_hits.inc(),
            LineClass::Remote => self.stats.remote_hits.inc(),
        }
        true
    }

    /// Read probe: returns `true` on hit and updates recency + statistics.
    pub fn probe_read(&mut self, line: LineAddr) -> bool {
        self.probe(line, 0)
    }

    /// Records the miss class for a read that missed (kept separate from
    /// [`Self::probe_read`] so callers that bypass the cache for a class can
    /// still account the access).
    pub fn record_miss(&mut self, class: LineClass) {
        match class {
            LineClass::Local => self.stats.local_misses.inc(),
            LineClass::Remote => self.stats.remote_misses.inc(),
        }
    }

    /// Write probe: on hit updates recency and, when `mark_dirty`, dirties
    /// the line (write-back caches). Returns `true` on hit.
    pub fn probe_write(&mut self, line: LineAddr, mark_dirty: bool) -> bool {
        self.probe(line, DIRTY * mark_dirty as u8)
    }

    /// Installs `line` with the given class and dirtiness, evicting if
    /// needed. Victim selection is restricted to the class's way range when
    /// partitioned; invalid ways are preferred, then LRU. Returns the
    /// evicted valid line, if any.
    ///
    /// Filling a line that is already resident refreshes it in place (and
    /// keeps the *old* sticky dirty bit OR the new one).
    pub fn fill(&mut self, line: LineAddr, class: LineClass, dirty: bool) -> Option<EvictedLine> {
        self.stats.fills.inc();
        if self.meta.is_empty() {
            let lines = self.sets as usize * self.ways;
            (self.tags, self.ranks, self.meta) = (vec![0; lines], vec![0; lines], vec![0; lines]);
        }
        let base = self.set_base(line);
        let remote = class == LineClass::Remote;
        let bits = VALID | (DIRTY * dirty as u8) | (REMOTE * remote as u8);
        if let Some(i) = self.find(base, line) {
            self.touch(base, i);
            self.meta[i] = (self.meta[i] & DIRTY) | bits;
            return None;
        }
        let range = match self.partition {
            Some(p) => p.ways_for(class),
            None => 0..self.ways,
        };
        let meta = &self.meta[base..base + self.ways];
        let ranks = &self.ranks[base..base + self.ways];
        // Prefer an invalid way in range, then an invalid way anywhere (a
        // partition only constrains *contended* allocation — reserving
        // empty ways for an absent class would waste capacity), then LRU in
        // range (either class may sit there: repartitioning evicts lazily).
        let victim = range
            .clone()
            .find(|&w| meta[w] == 0)
            .or_else(|| meta.iter().position(|&m| m == 0))
            .unwrap_or_else(|| {
                range
                    .max_by_key(|&w| ranks[w] ^ w as u8)
                    .expect("way range is never empty")
            });
        let i = base + victim;
        let old = self.meta[i];
        let evicted = if old == 0 {
            self.resident += 1;
            None
        } else {
            self.stats.evictions.inc();
            if old & DIRTY != 0 {
                self.stats.dirty_evictions.inc();
            }
            Some(EvictedLine {
                line: LineAddr::from_index(self.tags[i]),
                dirty: old & DIRTY != 0,
                class: class_of(old),
            })
        };
        self.tags[i] = line.raw();
        self.touch(base, i);
        self.meta[i] = bits;
        evicted
    }

    /// Whether `line` is resident (no recency/statistics side effects).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_base(line), line).is_some()
    }

    /// Bulk software-coherence invalidation of every line matching `pred`,
    /// visited in array (set-major) order. Returns the count invalidated
    /// plus the dirty lines needing writebacks.
    pub fn invalidate_where(
        &mut self,
        mut pred: impl FnMut(LineAddr, LineClass) -> bool,
    ) -> FlushOutcome {
        let mut outcome = FlushOutcome::default();
        // Stops once every resident line was seen: at once when empty.
        let mut unseen = self.resident;
        for (m, &tag) in self.meta.iter_mut().zip(&self.tags) {
            if unseen == 0 {
                break;
            }
            if *m == 0 {
                continue;
            }
            unseen -= 1;
            let line = LineAddr::from_index(tag);
            if pred(line, class_of(*m)) {
                outcome.invalidated += 1;
                if *m & DIRTY != 0 {
                    outcome.dirty_writebacks.push(line);
                }
                *m = 0;
            }
        }
        self.resident -= outcome.invalidated;
        outcome
    }

    /// Bulk invalidation of the whole cache (L1 flush at kernel launch).
    pub fn invalidate_all(&mut self) -> FlushOutcome {
        self.invalidate_where(|_, _| true)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Number of valid lines of `class`.
    pub fn resident_lines_of(&self, class: LineClass) -> u64 {
        let of_class = |&&m: &&u8| m != 0 && class_of(m) == class;
        self.meta.iter().filter(of_class).count() as u64
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Panics unless every allocated set's ranks decode to a permutation of
    /// `0..ways` and `resident` counts the valid ways. O(lines); for tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let valid = self.meta.iter().filter(|&&m| m != 0).count() as u64;
        assert_eq!(self.resident, valid, "resident count drifted");
        for set in self.ranks.chunks(self.ways) {
            let mut seen = [false; CacheConfig::MAX_WAYS as usize];
            for (w, &r) in set.iter().enumerate() {
                let rank = (r ^ w as u8) as usize;
                assert!(rank < self.ways && !seen[rank], "bad ranks {set:?}");
                seen[rank] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::{CacheConfig, LINE_SIZE};

    fn cfg(size_kb: u64, ways: u16) -> CacheConfig {
        CacheConfig {
            size_bytes: size_kb * 1024,
            ways,
            hit_latency_cycles: 1,
        }
    }

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn obs_counts_repartitions_and_tracks_way_split() {
        let mut c = SetAssocCache::new(&cfg(16, 4), Some(WayPartition::balanced(4)));
        assert_eq!(c.partition().map(|p| p.local_ways()), Some(2));
        c.set_partition(WayPartition::with_local_ways(1, 4));
        c.set_partition(WayPartition::with_local_ways(1, 4)); // no change
        c.set_partition(WayPartition::with_local_ways(3, 4));
        assert_eq!(c.repartitions(), 2);
        assert_eq!(c.partition().map(|p| p.local_ways()), Some(3));
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        assert!(!c.probe_read(line(7)));
        c.fill(line(7), LineClass::Local, false);
        assert!(c.probe_read(line(7)));
        assert_eq!(c.stats().local_hits.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set x 4 ways: size = 4 lines.
        let c4 = CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 4,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&c4, None);
        for i in 0..4 {
            c.fill(line(i), LineClass::Local, false);
        }
        c.probe_read(line(0)); // refresh 0; LRU is now 1
        let ev = c.fill(line(10), LineClass::Local, false).unwrap();
        assert_eq!(ev.line, line(1));
        assert!(c.contains(line(0)));
    }

    #[test]
    fn lru_holds_at_the_widest_rank_byte() {
        // 1 set x 256 ways: ranks span the whole byte.
        let wide = CacheConfig {
            size_bytes: 256 * LINE_SIZE,
            ways: 256,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&wide, None);
        for i in 0..256 {
            assert!(c.fill(line(i), LineClass::Local, false).is_none());
        }
        c.probe_read(line(0));
        c.check_invariants();
        for victim in 1..256 {
            let ev = c.fill(line(1000 + victim), LineClass::Local, false);
            assert_eq!(ev.map(|e| e.line), Some(line(victim)));
        }
        let ev = c.fill(line(2000), LineClass::Local, false);
        assert_eq!(ev.map(|e| e.line), Some(line(0)));
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "ways above MAX_WAYS")]
    fn ranks_cap_associativity() {
        let c = CacheConfig {
            size_bytes: 257 * LINE_SIZE,
            ways: 257,
            hit_latency_cycles: 1,
        };
        let _ = SetAssocCache::new(&c, None);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let c1 = CacheConfig {
            size_bytes: LINE_SIZE,
            ways: 1,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&c1, None);
        c.fill(line(3), LineClass::Remote, true);
        let ev = c
            .fill(line(3 + c.num_sets()), LineClass::Local, false)
            .unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.class, LineClass::Remote);
        assert_eq!(c.stats().dirty_evictions.get(), 1);
    }

    #[test]
    fn partition_restricts_victims() {
        // 1 set x 4 ways, 2 local + 2 remote.
        let c4 = CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 4,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&c4, Some(WayPartition::balanced(4)));
        c.fill(line(0), LineClass::Local, false);
        c.fill(line(1), LineClass::Local, false);
        c.fill(line(2), LineClass::Remote, false);
        c.fill(line(3), LineClass::Remote, false);
        // A remote fill must evict a remote line, not a local one.
        let ev = c.fill(line(9), LineClass::Remote, false).unwrap();
        assert_eq!(ev.class, LineClass::Remote);
        assert!(c.contains(line(0)) && c.contains(line(1)));
    }

    #[test]
    fn lazy_eviction_after_repartition() {
        let c4 = CacheConfig {
            size_bytes: 4 * LINE_SIZE,
            ways: 4,
            hit_latency_cycles: 1,
        };
        let mut c = SetAssocCache::new(&c4, Some(WayPartition::balanced(4)));
        c.fill(line(0), LineClass::Local, false);
        c.fill(line(1), LineClass::Local, false);
        // Shrink local to 1 way; line in way 1 is now in remote territory
        // but still hits (all ways consulted on lookup).
        c.set_partition(WayPartition::with_local_ways(1, 4));
        assert!(c.probe_read(line(0)));
        assert!(c.probe_read(line(1)));
        // Remote fills may now victimize ways 1..4, lazily evicting locals.
        c.fill(line(20), LineClass::Remote, false);
        c.fill(line(21), LineClass::Remote, false);
        let ev = c.fill(line(22), LineClass::Remote, false).unwrap();
        assert_eq!(ev.class, LineClass::Local);
    }

    #[test]
    fn refill_resident_line_keeps_dirty_sticky() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        c.fill(line(5), LineClass::Local, true);
        assert!(c.fill(line(5), LineClass::Local, false).is_none());
        let flush = c.invalidate_all();
        assert_eq!(flush.dirty_writebacks.len(), 1);
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        c.fill(line(1), LineClass::Local, false);
        c.fill(line(2), LineClass::Remote, true);
        let out = c.invalidate_where(|_, class| class == LineClass::Remote);
        assert_eq!(out.invalidated, 1);
        assert_eq!(out.dirty_writebacks.len(), 1);
        assert!(c.contains(line(1)));
        assert!(!c.contains(line(2)));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        for i in 0..10 {
            c.fill(line(i), LineClass::Local, i % 2 == 0);
        }
        let out = c.invalidate_all();
        assert_eq!(out.invalidated, 10);
        assert_eq!(out.dirty_writebacks.len(), 5);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn resident_lines_by_class() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        c.fill(line(1), LineClass::Local, false);
        c.fill(line(2), LineClass::Remote, false);
        c.fill(line(3), LineClass::Remote, false);
        assert_eq!(c.resident_lines_of(LineClass::Local), 1);
        assert_eq!(c.resident_lines_of(LineClass::Remote), 2);
    }

    #[test]
    fn write_probe_dirties() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        c.fill(line(4), LineClass::Local, false);
        assert!(c.probe_write(line(4), true));
        let out = c.invalidate_all();
        assert_eq!(out.dirty_writebacks, vec![line(4)]);
    }

    #[test]
    fn write_probe_miss_returns_false() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        assert!(!c.probe_write(line(99), true));
    }

    #[test]
    fn hit_rate_computes() {
        let mut c = SetAssocCache::new(&cfg(16, 4), None);
        c.fill(line(1), LineClass::Local, false);
        c.probe_read(line(1));
        if !c.probe_read(line(2)) {
            c.record_miss(LineClass::Remote);
        }
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    mod partition {
        use super::*;

        #[test]
        fn balanced_split() {
            let p = WayPartition::balanced(16);
            assert_eq!(p.local_ways(), 8);
            assert_eq!(p.remote_ways(), 8);
            let p = WayPartition::balanced(5);
            assert_eq!(p.local_ways(), 3);
            assert_eq!(p.remote_ways(), 2);
        }

        #[test]
        fn floors_hold() {
            let mut p = WayPartition::balanced(4);
            assert!(p.grow_remote());
            assert!(!p.grow_remote()); // local floor = 1
            assert_eq!(p.local_ways(), 1);
            let mut p = WayPartition::balanced(4);
            assert!(p.grow_local());
            assert!(!p.grow_local()); // remote floor = 1
            assert_eq!(p.remote_ways(), 1);
        }

        #[test]
        fn equalize_converges() {
            let mut p = WayPartition::with_local_ways(1, 16);
            let mut steps = 0;
            while p.equalize_step() {
                steps += 1;
                assert!(steps < 32, "must converge");
            }
            assert_eq!(p.local_ways(), 8);
            assert!(!p.equalize_step());
        }

        #[test]
        fn ways_for_ranges_cover_disjointly() {
            let p = WayPartition::with_local_ways(5, 16);
            assert_eq!(p.ways_for(LineClass::Local), 0..5);
            assert_eq!(p.ways_for(LineClass::Remote), 5..16);
        }

        #[test]
        #[should_panic(expected = "at least 2 ways")]
        fn one_way_cannot_partition() {
            let _ = WayPartition::balanced(1);
        }
    }
}
