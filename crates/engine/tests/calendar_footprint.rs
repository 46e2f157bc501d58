//! The calendar's heap follows the events pending, not its ring: traffic
//! that rotates a burst of events through every bucket, with at most two
//! bursts pending, must leave the drained queue holding a few KiB — not a
//! burst's worth of capacity in each of the 512 buckets.

use numa_gpu_engine::EventQueue;
use numa_gpu_types::TICKS_PER_CYCLE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds from the allocator: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: isize) {
    LIVE.with(|b| b.set(b.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a `const` initializer and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`, `layout` and `new_size`, passed through.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            add_live(new_size as isize - layout.size() as isize);
        }
        grown
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Events per burst: one cycle's worth of same-cycle wakeups.
const BURST: u64 = 256;
/// Cycles in the calendar's ring (its `NUM_BUCKETS`).
const WINDOW: u64 = 512;

/// Pushes cycle `cycle`'s burst, its ticks out of order within the cycle.
fn burst(q: &mut EventQueue<[u64; 2]>, cycle: u64) {
    for i in 0..BURST {
        q.push(
            cycle * TICKS_PER_CYCLE + i * 389 % TICKS_PER_CYCLE,
            [cycle, i],
        );
    }
}

#[test]
fn drained_queue_holds_its_peak_pending_not_every_buckets_high_water() {
    let before = LIVE.with(Cell::get);
    let mut q = EventQueue::new();
    // Cycle 0's burst fills the first run; every later one lands beyond the
    // active cycle, on a bucket list, while the burst before it drains. Four
    // windows, so every bucket takes a burst four times.
    burst(&mut q, 0);
    for cycle in 1..=4 * WINDOW + 1 {
        if cycle <= 4 * WINDOW {
            burst(&mut q, cycle);
        }
        for _ in 0..BURST {
            let (at, [c, _]) = q.pop().expect("the burst is pending");
            assert_eq!((at / TICKS_PER_CYCLE, c), (cycle - 1, cycle - 1));
        }
    }
    assert!(q.is_empty());
    let s = q.stats();
    assert_eq!(s.max_len as u64, 2 * BURST);
    assert_eq!(s.bucket_pushes, 4 * WINDOW * BURST, "bursts took the lists");
    let held = LIVE.with(Cell::get) - before;
    assert!(held < 64 * 1024, "the drained queue holds {held} bytes");
}
