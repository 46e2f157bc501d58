//! Deterministic event queue: a bucketed calendar queue.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use numa_gpu_types::{Tick, TICKS_PER_CYCLE};

/// Buckets in the calendar window (one simulated cycle per bucket).
///
/// 512 cycles covers the event horizon of an unloaded machine — lookahead
/// windows are ~64 cycles and DRAM round trips ~100 — so there almost every
/// push is an O(1) bucket link. A saturated DRAM or link queues
/// completions further out than that, and CTA dispatch jitter reaches 518
/// cycles; those pushes take the overflow. Power of two so the ring index
/// is a mask.
const NUM_BUCKETS: usize = 512;
const WINDOW: u64 = NUM_BUCKETS as u64;
const BUCKET_MASK: u64 = WINDOW - 1;
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// End of a slot list.
const NIL: u32 = u32::MAX;

/// A timestamped event queue with FIFO ordering among events scheduled for
/// the same tick, implemented as a bucketed calendar queue.
///
/// Determinism matters: the simulator's results must be bit-identical run to
/// run, so ties are broken by insertion sequence rather than payload order.
/// The pop order is exactly that of a min-heap ordered by `(tick, seq)` —
/// equivalently, a stable sort of all pushes by tick.
///
/// # Design
///
/// The calendar is a ring of 512 (`NUM_BUCKETS`) buckets, one simulated
/// cycle ([`TICKS_PER_CYCLE`] ticks) wide each, covering the window
/// `[origin, origin + NUM_BUCKETS)`. Two cursors walk it:
///
/// - The window **origin** is the cycle of the last pop: the simulation's
///   *now*. A handler schedules its follow-ups at or after the event it is
///   handling and a window barrier delivers at or after the window it
///   closed, so a simulation never pushes below the origin, however far
///   ahead of it the next pending event is.
/// - The **active** cycle is the earliest non-empty one, at or after the
///   origin with only empty cycles between the two. Its events sit by value
///   in one reused **run**, sorted descending by `(tick, seq)`, so the next
///   event pops from the run's back in O(1).
///
/// Every other window event lives in one **slab** of slots. Each bucket is
/// a singly linked list of slots, and freed slots form a last-freed-first
/// free list, so a push writes into the slot an activation freed most
/// recently — memory the host touched a few events earlier. The heap is
/// therefore bounded by the peak of pending window events plus one run,
/// not by each bucket's own high-water mark.
///
/// The push paths, cheapest first:
///
/// - Pushes into window cycles after the active one link in at the head of
///   their bucket's list in O(1); a bucket's events move into the run and
///   are sorted once, when the active cursor reaches it.
/// - Pushes into the active cycle insert in sorted position in the run — an
///   append when the event is not earlier than everything pending in the
///   cycle (the common same-cycle wakeup), a short memmove otherwise. A push
///   between the origin and the active cycle finds its bucket empty and
///   makes it the active one, linking the old run back onto its bucket's
///   list: the follow-up at `now + δ` of a handler that runs while the next
///   pending event is a DRAM backlog away.
/// - Events beyond the window go to the **overflow**. Samplers, backlogged
///   DRAM and link queues and CTA dispatch schedule that far out. It has two
///   parts: an ascending deque takes, in O(1) at its back, every push not
///   earlier than its last event (a FIFO resource's completions), and a
///   min-heap on `(tick, seq)` takes the rest in O(log n) (completions of
///   several resources interleaved). Its first event is the lesser of the
///   deque's front and the heap's top. When nothing but overflow is
///   pending the window stays where it is, still anchored at *now*; the pop
///   that needs the overflow's first event jumps it there.
/// - A push *below* the origin is not causal; only a caller that refills a
///   partly drained queue out of order makes one. It **rebases** in O(1)
///   when every pending cycle still fits one window span anchored at the new
///   minimum: bucket indices are `cycle & BUCKET_MASK` regardless of the
///   origin, so only the cursors move. When pending cycles span more than
///   the window it falls back to a full calendar **rebuild** (drain, an
///   O(n log n) sort, redistribute).
///
/// Pop order is unchanged from a binary heap because every bucketed event
/// lies inside the window and every overflow event beyond it, so the run —
/// the earliest non-empty cycle — holds the minimum whenever any bucket is
/// occupied, and the overflow's first event does otherwise; within a cycle
/// events are ordered by the full `(tick, seq)` key. Where the origin sits decides
/// only which path a push takes, never what pops next.
///
/// # Examples
///
/// ```
/// use numa_gpu_engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "b");
/// q.push(10, "a");
/// q.push(20, "c");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b"))); // FIFO among equal ticks
/// assert_eq!(q.pop(), Some((20, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slots of every window event outside the run, each on one bucket list
    /// or on the free list.
    slab: Vec<Slot<E>>,
    /// Head of the free list: the slot freed last.
    free: u32,
    /// Head slot of each ring bucket's list, indexed by `cycle & BUCKET_MASK`.
    heads: [u32; NUM_BUCKETS],
    /// The active cycle's events, sorted descending by `(tick, seq)`; empty
    /// exactly when no bucket is occupied.
    run: Vec<Entry<E>>,
    /// Bitmap of non-empty buckets (bit `i` covers bucket `i`'s list, and
    /// the run for the active bucket).
    occupied: [u64; OCC_WORDS],
    /// First cycle of the window: the cycle of the last pop, until a push
    /// into an empty queue, a rebase or a rebuild re-anchors it.
    origin: u64,
    /// Cycle of the run; `origin + WINDOW` while no bucket is occupied, so
    /// that every window push compares at or below it.
    active: u64,
    /// Events beyond the window pushed in order, ascending `(tick, seq)`.
    overflow: VecDeque<Entry<E>>,
    /// Events beyond the window pushed earlier than the deque's last one.
    late: BinaryHeap<Reverse<Entry<E>>>,
    /// Cached tick of the earliest pending event.
    next_at: Option<Tick>,
    len: usize,
    seq: u64,
    pops: u64,
    max_len: usize,
    bucket_pushes: u64,
    sorted_pushes: u64,
    overflow_pushes: u64,
    promotions: u64,
    rebases: u64,
    rebuilds: u64,
}

/// Lifetime statistics of an [`EventQueue`], for observability snapshots
/// and the self-profiler's engine attribution. Every push takes exactly one
/// of the five paths counted here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventQueueStats {
    /// Events ever scheduled.
    pub pushes: u64,
    /// Events ever dispatched.
    pub pops: u64,
    /// High-water mark of pending events.
    pub max_len: usize,
    /// Pushes linked unsorted into a later window bucket (the O(1) path).
    pub bucket_pushes: u64,
    /// Pushes inserted in sorted position in the active cycle, counting
    /// those that made an empty cycle at or after *now* the active one.
    pub sorted_pushes: u64,
    /// Pushes beyond the calendar window, into the overflow.
    pub overflow_pushes: u64,
    /// Overflow events promoted into buckets as the window advanced.
    pub promotions: u64,
    /// O(1) window rebases on a push below the window: every pending cycle
    /// still fit one window span, so only the cursors moved. The window
    /// starts at the cycle of the last pop, so a simulation, which never
    /// schedules into its past, makes none.
    pub rebases: u64,
    /// Full calendar rebuilds on a push below the window that could not
    /// rebase — pending cycles spanned more than the window. Each re-sorts
    /// every pending event. Like a rebase it takes a push below the cycle
    /// of the last pop: zero in a simulation at any backlog depth, and a
    /// causality bug in the caller if not.
    pub rebuilds: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: Tick,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The total order popped: tick first, insertion sequence second.
    #[inline]
    fn key(&self) -> (Tick, u64) {
        (self.at, self.seq)
    }
}

// Ordered by key alone, for the overflow's heap; keys are unique.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A slab slot: an event and the next slot on its bucket list, or nothing
/// and the next slot on the free list.
#[derive(Debug)]
struct Slot<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// Cycle a tick falls in (bucket granularity).
#[inline]
fn cycle_of(at: Tick) -> u64 {
    at / TICKS_PER_CYCLE
}

/// Ring index of a cycle's bucket.
#[inline]
fn bucket_index(cycle: u64) -> usize {
    (cycle & BUCKET_MASK) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            heads: [NIL; NUM_BUCKETS],
            run: Vec::new(),
            occupied: [0; OCC_WORDS],
            origin: 0,
            active: WINDOW,
            overflow: VecDeque::new(),
            late: BinaryHeap::new(),
            next_at: None,
            len: 0,
            seq: 0,
            pops: 0,
            max_len: 0,
            bucket_pushes: 0,
            sorted_pushes: 0,
            overflow_pushes: 0,
            promotions: 0,
            rebases: 0,
            rebuilds: 0,
        }
    }

    #[inline]
    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Schedules `payload` at tick `at`.
    #[inline]
    pub fn push(&mut self, at: Tick, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, payload };
        let cycle = cycle_of(at);
        // One unsigned compare sends both sides of the window out of line.
        if cycle.wrapping_sub(self.origin) >= WINDOW {
            self.push_outside_window(cycle, entry);
        } else if cycle > self.active {
            self.bucket_pushes += 1;
            self.link(bucket_index(cycle), entry);
        } else {
            self.sorted_pushes += 1;
            self.insert_active(cycle, entry);
        }
        self.len += 1;
        self.max_len = self.max_len.max(self.len);
        self.next_at = Some(match self.next_at {
            Some(t) => t.min(at),
            None => at,
        });
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        let Some(entry) = self.run.pop() else {
            return self.pop_overflow();
        };
        debug_assert_eq!(Some(entry.at), self.next_at, "the run held the minimum");
        self.len -= 1;
        self.pops += 1;
        match self.run.last() {
            Some(next) if self.origin == self.active => self.next_at = Some(next.at),
            _ => self.settle(),
        }
        Some((entry.at, entry.payload))
    }

    /// Removes and returns the earliest event only if its tick is strictly
    /// before `bound` — the hot-path form of "peek, compare, pop" the
    /// windowed executor runs per event.
    #[inline]
    pub fn pop_if_before(&mut self, bound: Tick) -> Option<(Tick, E)> {
        if self.next_at? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Tick of the earliest pending event.
    #[inline]
    pub fn peek_tick(&self) -> Option<Tick> {
        self.next_at
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime scheduling statistics (pushes, pops, high-water mark, and
    /// calendar path counters).
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            pushes: self.seq,
            pops: self.pops,
            max_len: self.max_len,
            bucket_pushes: self.bucket_pushes,
            sorted_pushes: self.sorted_pushes,
            overflow_pushes: self.overflow_pushes,
            promotions: self.promotions,
            rebases: self.rebases,
            rebuilds: self.rebuilds,
        }
    }

    /// Links `entry` in at the head of bucket `idx`'s list, in the slot
    /// freed last (a new one when none is free).
    #[inline]
    fn link(&mut self, idx: usize, entry: Entry<E>) {
        let entry = Some(entry);
        let next = std::mem::replace(&mut self.heads[idx], self.free);
        // `NIL` indexes past the slab: no free slot.
        match self.slab.get_mut(self.free as usize) {
            Some(slot) => self.free = std::mem::replace(slot, Slot { entry, next }).next,
            None => {
                self.heads[idx] = self.slab.len() as u32;
                self.slab.push(Slot { entry, next });
            }
        }
        self.set_occupied(idx);
    }

    /// Inserts into the cycle `cycle`, which is the active one or lies
    /// between the origin and it. In the second case its bucket is empty
    /// and it becomes the active one; the old run goes back onto its
    /// bucket's list, to be sorted again when the cursor returns to it.
    fn insert_active(&mut self, cycle: u64, entry: Entry<E>) {
        debug_assert!(self.origin <= cycle && cycle <= self.active);
        if cycle != self.active {
            while let Some(e) = self.run.pop() {
                self.link(bucket_index(self.active), e);
            }
            self.active = cycle;
        }
        let key = entry.key();
        match self.run.last() {
            // Earlier than everything pending in this cycle (the common
            // same-cycle wakeup: a fresh seq at the cycle's current front).
            Some(last) if key < last.key() => self.run.push(entry),
            Some(_) => {
                let pos = self.run.partition_point(|e| e.key() > key);
                self.run.insert(pos, entry);
            }
            None => {
                self.run.push(entry);
                self.set_occupied(bucket_index(cycle));
            }
        }
    }

    /// The push paths off the calendar window: beyond it or below it.
    #[inline(never)]
    fn push_outside_window(&mut self, cycle: u64, entry: Entry<E>) {
        if cycle > self.origin && self.seq == 1 {
            // A new queue has no *now* yet; its first push supplies one.
            self.sorted_pushes += 1;
            (self.origin, self.active) = (cycle, cycle);
            self.insert_active(cycle, entry);
        } else if cycle > self.origin {
            self.overflow_pushes += 1;
            match self.overflow.back() {
                Some(last) if entry.key() < last.key() => self.late.push(Reverse(entry)),
                _ => self.overflow.push_back(entry),
            }
        } else if self
            .next_occupied((cycle + WINDOW).max(self.origin), self.origin + WINDOW)
            .is_none()
        {
            // Every pending cycle still fits the window anchored at
            // `cycle`, so rebase in O(1). The buckets from `cycle` up to the
            // old origin alias the cycles just found unoccupied, and those
            // from there to the active one were empty already.
            self.rebases += 1;
            self.origin = cycle;
            self.insert_active(cycle, entry);
        } else {
            self.rebuilds += 1;
            self.rebuild_with(entry);
        }
    }

    /// The pop path when no bucket is occupied: jumps the window to the
    /// overflow's first cycle. Deferred to here, rather than done by the
    /// pop that emptied the last bucket, so that the handler of that event
    /// still schedules into a window anchored at its own cycle.
    #[inline(never)]
    fn pop_overflow(&mut self) -> Option<(Tick, E)> {
        self.origin = cycle_of(self.overflow_first()?.at);
        self.active = self.origin;
        self.promote();
        self.activate();
        self.pop()
    }

    /// The rest of a pop that was the first from its cycle, the last, or
    /// both: moves the origin up to the popped cycle, and the active cursor
    /// on to the next non-empty cycle if this one drained.
    #[inline(never)]
    fn settle(&mut self) {
        if self.origin != self.active {
            self.origin = self.active;
            self.promote();
        }
        if let Some(next) = self.run.last() {
            self.next_at = Some(next.at);
            return;
        }
        self.clear_occupied(bucket_index(self.active));
        let end = self.origin + WINDOW;
        match self.next_occupied(self.active + 1, end) {
            Some(cycle) => {
                self.active = cycle;
                self.activate();
            }
            None => {
                self.active = end;
                self.next_at = self.overflow_first().map(|e| e.at);
            }
        }
    }

    /// The overflow's earliest event: the lesser of the deque's front and
    /// the heap's top.
    #[inline]
    fn overflow_first(&self) -> Option<&Entry<E>> {
        let top = self.late.peek().map(|Reverse(e)| e);
        self.overflow.front().into_iter().chain(top).min()
    }

    /// Moves overflow events that the window now covers into their buckets,
    /// none of them before the active one: the deque's due front, then the
    /// heap's due top. Which part an event leaves first decides nothing,
    /// since activation sorts a bucket. O(k log n) for k promoted.
    fn promote(&mut self) {
        let limit = self.origin + WINDOW;
        let due = |e: &Entry<E>| cycle_of(e.at) < limit;
        while let Some(entry) = self.overflow.pop_front_if(|e| due(e)).or_else(|| {
            let top = self.late.peek_mut().filter(|top| due(&top.0))?;
            Some(PeekMut::pop(top).0)
        }) {
            self.promotions += 1;
            self.link(bucket_index(cycle_of(entry.at)), entry);
        }
    }

    /// Moves the (new) active bucket's list into the empty run, sorts it
    /// and refreshes the cached minimum.
    fn activate(&mut self) {
        let mut at = std::mem::replace(&mut self.heads[bucket_index(self.active)], NIL);
        while let Some(slot) = self.slab.get_mut(at as usize) {
            self.run.extend(slot.entry.take());
            let next = std::mem::replace(&mut slot.next, self.free);
            (self.free, at) = (at, next);
        }
        // Keys are unique, so the unstable sort is deterministic; a list is
        // LIFO, so events pushed in key order arrive already descending.
        self.run
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        self.next_at = self.run.last().map(|e| e.at);
        debug_assert!(self.next_at.is_some(), "activated an empty bucket");
    }

    /// Rebuilds the calendar around a push earlier than the current window,
    /// which becomes the window's first event. The slab is drained whole,
    /// so the cost is proportional to the peak pending population, not the
    /// ring size.
    fn rebuild_with(&mut self, entry: Entry<E>) {
        self.origin = cycle_of(entry.at);
        self.active = self.origin;
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len + 1);
        all.append(&mut self.run);
        all.extend(self.slab.drain(..).filter_map(|slot| slot.entry));
        (self.free, self.heads, self.occupied) = (NIL, [NIL; NUM_BUCKETS], [0; OCC_WORDS]);
        all.extend(self.overflow.drain(..));
        all.extend(self.late.drain().map(|Reverse(e)| e));
        all.push(entry);
        all.sort_unstable_by_key(Entry::key);
        let limit = self.origin + WINDOW;
        for e in all {
            let cycle = cycle_of(e.at);
            if cycle < limit {
                self.link(bucket_index(cycle), e);
            } else {
                self.overflow.push_back(e);
            }
        }
        self.activate();
    }

    /// First occupied bucket cycle in `[from, to)`, a range at most one
    /// window long, via a ring scan of the occupancy bitmap.
    fn next_occupied(&self, from: u64, to: u64) -> Option<u64> {
        debug_assert!(from <= to && to - from <= WINDOW);
        let mut cycle = from;
        while cycle < to {
            let idx = bucket_index(cycle);
            let word = self.occupied[idx / 64] >> (idx % 64);
            if word != 0 {
                let hit = cycle + word.trailing_zeros() as u64;
                return (hit < to).then_some(hit);
            }
            cycle += 64 - (idx % 64) as u64;
        }
        None
    }

    /// Panics unless the calendar's structural invariants hold. O(pending
    /// events plus slab slots); for tests, which call it between operations.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let end = self.origin + WINDOW;
        let idle = self.active == end;
        assert!(
            (self.origin..=end).contains(&self.active),
            "active cursor outside the window"
        );
        // Every slot is on exactly one list: a bucket's, holding an event,
        // or the free list, holding none.
        let mut seen = vec![false; self.slab.len()];
        let mut walk = |mut at: u32, live: bool| {
            let mut slots = Vec::new();
            while let Some(slot) = self.slab.get(at as usize) {
                let twice = std::mem::replace(&mut seen[at as usize], true);
                assert!(!twice, "slot {at} on two lists");
                assert_eq!(slot.entry.is_some(), live, "slot {at} on the wrong list");
                slots.push(slot.entry.as_ref());
                at = slot.next;
            }
            slots
        };
        let mut bucketed = 0;
        for (idx, &head) in self.heads.iter().enumerate() {
            let listed = walk(head, true);
            let active = !idle && bucket_index(self.active) == idx;
            let bit = self.occupied[idx / 64] >> (idx % 64) & 1 == 1;
            let occupied = active || !listed.is_empty();
            assert_eq!(bit, occupied, "bitmap out of step at {idx}");
            assert!(!active || listed.is_empty(), "the active cycle is listed");
            bucketed += listed.len();
            for e in listed.into_iter().flatten() {
                let cycle = cycle_of(e.at);
                assert_eq!(bucket_index(cycle), idx, "event in the wrong bucket");
                assert!(
                    self.active < cycle && cycle < end,
                    "listed cycle {cycle} outside (active {}, window end {end})",
                    self.active
                );
            }
        }
        let free = walk(self.free, false).len();
        assert_eq!(bucketed + free, self.slab.len(), "live + free slots ≠ slab");
        assert_eq!(self.run.is_empty(), idle, "active cursor is stale");
        assert!(
            self.run.iter().all(|e| cycle_of(e.at) == self.active),
            "run event outside the active cycle"
        );
        assert!(
            self.run.windows(2).all(|w| w[0].key() > w[1].key()),
            "run is not sorted descending"
        );
        let pending = bucketed + self.run.len() + self.overflow.len() + self.late.len();
        assert_eq!(pending, self.len, "len out of step");
        assert!(
            self.overflow
                .iter()
                .zip(self.overflow.iter().skip(1))
                .all(|(a, b)| a.key() < b.key()),
            "overflow is not ascending"
        );
        assert!(
            self.overflow.iter().all(|e| cycle_of(e.at) >= end),
            "overflow event inside the window"
        );
        assert!(
            self.late.iter().all(|Reverse(e)| cycle_of(e.at) >= end),
            "overflow heap event inside the window"
        );
        let min = [
            self.run.last(),
            self.overflow.front(),
            self.late.peek().map(|Reverse(e)| e),
        ]
        .into_iter()
        .flatten()
        .min()
        .map(|e| e.at);
        assert_eq!(self.next_at, min, "cached minimum is stale");
        let s = self.stats();
        assert_eq!(
            s.bucket_pushes + s.sorted_pushes + s.overflow_pushes + s.rebases + s.rebuilds,
            s.pushes,
            "a push took no path or two"
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_tick() {
        let mut q = EventQueue::new();
        q.push(5, 'x');
        q.push(1, 'y');
        q.push(3, 'z');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'y'), (3, 'z'), (5, 'x')]);
    }

    #[test]
    fn fifo_within_same_tick() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(9, ());
        assert_eq!(q.peek_tick(), Some(9));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        let mut q = EventQueue::new();
        q.push(1, 'a');
        q.push(2, 'b');
        q.pop();
        q.push(3, 'c');
        q.pop();
        let s = q.stats();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.pops, 2);
        assert_eq!(s.max_len, 2);
        q.pop();
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().pops, 3); // a failed pop does not count
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(10, 0);
        q.push(20, 1);
        assert_eq!(q.pop().unwrap().0, 10);
        q.push(15, 2);
        q.push(5, 3); // earlier than already-popped ticks, same cycle
        assert_eq!(q.pop().unwrap(), (5, 3));
        assert_eq!(q.pop().unwrap(), (15, 2));
        assert_eq!(q.pop().unwrap(), (20, 1));
    }

    #[test]
    fn push_before_window_rebases_in_place() {
        let mut q = EventQueue::new();
        q.push(10 * TICKS_PER_CYCLE, 0);
        q.push(20 * TICKS_PER_CYCLE, 1);
        assert_eq!(q.pop().unwrap().1, 0); // window advances to cycle 20

        // Before the window, but every pending cycle fits a window
        // anchored at 5 — an O(1) rebase, not a rebuild.
        q.push(5 * TICKS_PER_CYCLE, 2);
        assert_eq!(q.stats().rebases, 1);
        assert_eq!(q.stats().rebuilds, 0);
        assert_eq!(q.pop().unwrap(), (5 * TICKS_PER_CYCLE, 2));
        assert_eq!(q.pop().unwrap(), (20 * TICKS_PER_CYCLE, 1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_window_rebuilds_when_span_exceeds_ring() {
        // Fill a whole window downwards from its last cycle, no pops: the
        // first push anchors the origin, the rest rebase it down one cycle
        // at a time.
        let base = 100;
        let mut q = EventQueue::new();
        for i in 0..WINDOW {
            q.push((base + WINDOW - 1 - i) * TICKS_PER_CYCLE, i);
        }
        assert_eq!(q.stats().rebases, WINDOW - 1);
        assert_eq!(q.stats().rebuilds, 0);

        // One cycle lower cannot share a window span with the last cycle,
        // so this below-window push must take the full rebuild.
        q.push((base - 1) * TICKS_PER_CYCLE, WINDOW);
        q.check_invariants();
        assert_eq!(q.stats().rebuilds, 1);
        assert_eq!(q.stats().rebases, WINDOW - 1);
        assert_eq!(q.stats().overflow_pushes, 0);
        for i in (0..=WINDOW).rev() {
            assert_eq!(
                q.pop(),
                Some(((base + WINDOW - 1 - i) * TICKS_PER_CYCLE, i))
            );
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().promotions, 1, "the rebuild overflowed one event");
    }

    #[test]
    fn follow_up_after_draining_pop_stays_in_window() {
        // A handler's follow-up at `now + δ` while everything else pending
        // is more than a window ahead of now: the window must still be
        // anchored at the popped cycle, not at the backlog.
        let backlog = (WINDOW + 88) * TICKS_PER_CYCLE;
        let delta = 7 * TICKS_PER_CYCLE;
        let mut q = EventQueue::new();
        q.push(0, 0u64);
        let mut pending = std::collections::VecDeque::from([(0, 0)]);
        for i in 1..=1_000 {
            let (now, id) = q.pop().unwrap();
            assert_eq!(Some((now, id)), pending.pop_front());
            q.push(now + backlog, 2 * i);
            q.push(now + delta, 2 * i + 1);
            pending.push_back((now + backlog, 2 * i));
            let at = pending.partition_point(|&(t, _)| t <= now + delta);
            pending.insert(at, (now + delta, 2 * i + 1));
            q.check_invariants();
        }
        let s = q.stats();
        assert_eq!((s.rebuilds, s.rebases), (0, 0));
        assert_eq!(s.overflow_pushes, 1_000, "every backlog push overflowed");
        while let Some(event) = q.pop() {
            assert_eq!(Some(event), pending.pop_front());
        }
        assert!(pending.is_empty());
        assert_eq!(q.stats().promotions, 1_000);
        assert_eq!((q.stats().rebuilds, q.stats().rebases), (0, 0));
    }

    #[test]
    fn push_below_a_non_empty_active_cycle_relinks_its_run() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let mut id = 0u64;
        let mut push = |q: &mut EventQueue<u64>, heap: &mut BinaryHeap<_>, cycle: u64, sub| {
            let at = cycle * TICKS_PER_CYCLE + sub;
            q.push(at, id);
            heap.push(Reverse((at, id)));
            id += 1;
            q.check_invariants();
        };
        push(&mut q, &mut heap, 0, 0);
        for sub in [900, 100, 500, 100] {
            push(&mut q, &mut heap, 10, sub);
        }
        let Reverse((at, first)) = heap.pop().unwrap();
        assert_eq!(q.pop(), Some((at, first)));
        q.check_invariants();
        // The pop left the origin at cycle 0 and activated cycle 10's four
        // events; a follow-up at cycle 5 must put them back on their list.
        assert_eq!((q.origin, q.active, q.run.len()), (0, 10, 4));
        push(&mut q, &mut heap, 5, 7);
        assert_eq!((q.active, q.run.len()), (5, 1));
        assert_ne!(q.heads[10], NIL, "the old run is listed again");
        push(&mut q, &mut heap, 10, 3);
        push(&mut q, &mut heap, 5, 1);
        push(&mut q, &mut heap, 7, 0);
        // And once more from a two-event run.
        push(&mut q, &mut heap, 3, 9);
        assert_eq!((q.active, q.run.len()), (3, 1));
        while let Some(Reverse((at, id))) = heap.pop() {
            assert_eq!(q.pop(), Some((at, id)));
            q.check_invariants();
        }
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!((s.rebases, s.rebuilds, s.overflow_pushes), (0, 0, 0));
    }

    #[test]
    fn far_future_overflows_and_promotes() {
        let mut q = EventQueue::new();
        q.push(0, 'a');
        let far = (NUM_BUCKETS as u64 + 100) * TICKS_PER_CYCLE;
        q.push(far, 'f');
        q.push(far + 1, 'g');
        let s = q.stats();
        assert_eq!(s.overflow_pushes, 2, "far-future pushes overflow");
        assert_eq!(q.pop(), Some((0, 'a')));
        assert_eq!(q.pop(), Some((far, 'f')));
        assert_eq!(q.pop(), Some((far + 1, 'g')));
        assert_eq!(q.stats().promotions, 2, "window advance promotes");
    }

    #[test]
    fn descending_far_future_pushes_take_the_heap() {
        // Every push beyond the window after the first lands earlier than
        // the overflow deque's last event, so it takes the heap; the window
        // then promotes them from the heap's top in ascending order.
        const N: u64 = 2_000;
        let tick = |i: u64| WINDOW * TICKS_PER_CYCLE + (N - i) * (TICKS_PER_CYCLE / 3 + 1);
        let mut q = EventQueue::new();
        q.push(0, 0);
        for i in 1..=N {
            q.push(tick(i), i);
            q.check_invariants();
        }
        assert_eq!(
            q.late.len() as u64,
            N - 1,
            "all but the first went to the heap"
        );
        assert_eq!(q.pop(), Some((0, 0)));
        q.check_invariants();
        for i in (1..=N).rev() {
            assert_eq!(q.pop(), Some((tick(i), i)));
            q.check_invariants();
        }
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!((s.overflow_pushes, s.promotions), (N, N));
        assert_eq!((s.rebuilds, s.rebases), (0, 0));
    }

    #[test]
    fn same_cycle_subtick_order_is_by_tick_then_seq() {
        let mut q = EventQueue::new();
        // All within one cycle, pushed out of tick order.
        q.push(900, 0);
        q.push(100, 1);
        q.push(100, 2);
        q.push(500, 3);
        assert_eq!(q.pop(), Some((100, 1)));
        q.push(100, 4); // same tick as the current minimum
        assert_eq!(q.pop(), Some((100, 2)));
        assert_eq!(q.pop(), Some((100, 4)));
        assert_eq!(q.pop(), Some((500, 3)));
        assert_eq!(q.pop(), Some((900, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(30, 'b');
        assert_eq!(q.pop_if_before(10), None);
        assert_eq!(q.pop_if_before(11), Some((10, 'a')));
        assert_eq!(q.pop_if_before(30), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_before(u64::MAX), Some((30, 'b')));
        assert_eq!(q.pop_if_before(u64::MAX), None);
    }

    #[test]
    fn window_ring_wraps_cleanly() {
        // Push a sparse, strictly increasing schedule several windows long
        // and drain interleaved, crossing the ring boundary many times.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..2_000u64 {
            let at = i * 3 * TICKS_PER_CYCLE; // 3 cycles apart: wraps ring 11x
            q.push(at, i);
            expect.push((at, i));
            if i % 2 == 1 {
                assert_eq!(q.pop(), Some(expect.remove(0)));
            }
        }
        while let Some(e) = q.pop() {
            assert_eq!(e, expect.remove(0));
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(Tick, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut now = 0u64;
        for step in 0..20_000u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = rng >> 33;
            if !r.is_multiple_of(3) || heap.is_empty() {
                let delta = match r % 10 {
                    0..=5 => r % (2 * TICKS_PER_CYCLE),
                    6..=8 => r % (300 * TICKS_PER_CYCLE),
                    _ => r % (10_000 * TICKS_PER_CYCLE),
                };
                q.push(now + delta, step);
                heap.push(Reverse((now + delta, seq, step)));
                seq += 1;
            } else {
                let got = q.pop();
                let want = heap.pop().map(|Reverse((t, _, p))| (t, p));
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        loop {
            let got = q.pop();
            let want = heap.pop().map(|Reverse((t, _, p))| (t, p));
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
