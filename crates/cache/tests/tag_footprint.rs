//! The tag array holds ten bytes a way: an 8-byte tag, a state byte and a
//! one-byte LRU rank. A `u64` recency stamp per way (17 bytes a way, the
//! paper's 4 MiB L2 at 557,056 bytes) fails here, and so does a cache that
//! allocates before its first fill.

use numa_gpu_cache::{LineClass, SetAssocCache, WayPartition};
use numa_gpu_types::{LineAddr, SystemConfig, LINE_SIZE};
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

/// Heap bytes a way may cost: tag, state byte, rank byte.
const BYTES_PER_WAY: isize = 10;
/// Slack for anything the cache keeps besides its per-way arrays.
const SLACK: isize = 256;

/// Heap bytes `cache` holds after one fill, and its way count.
fn held_after_one_fill(mut cache: SetAssocCache) -> (isize, isize) {
    let ways = (cache.num_sets() * cache.num_ways() as u64) as isize;
    let before = LIVE.with(Cell::get);
    cache.fill(LineAddr::from_index(1), LineClass::Remote, false);
    (LIVE.with(Cell::get) - before, ways)
}

#[test]
fn the_papers_l2_holds_ten_bytes_a_way() {
    let l2 = SystemConfig::pascal_4_socket().l2;
    let cache = SetAssocCache::new(&l2, Some(WayPartition::balanced(l2.ways)));
    let (held, ways) = held_after_one_fill(cache);
    assert_eq!(ways as u64, l2.size_bytes / LINE_SIZE);
    assert!(
        held <= BYTES_PER_WAY * ways + SLACK,
        "an L2 of {ways} ways holds {held} bytes after one fill"
    );
}

#[test]
fn the_papers_l1_holds_ten_bytes_a_way() {
    let l1 = SystemConfig::pascal_4_socket().l1;
    let (held, ways) = held_after_one_fill(SetAssocCache::new(&l1, None));
    assert!(
        held <= BYTES_PER_WAY * ways + SLACK,
        "an L1 of {ways} ways holds {held} bytes after one fill"
    );
}

#[test]
fn an_unfilled_cache_holds_nothing() {
    let l2 = SystemConfig::pascal_4_socket().l2;
    let before = LIVE.with(Cell::get);
    let mut cache = SetAssocCache::new(&l2, None);
    assert!(!cache.probe_read(LineAddr::from_index(7)));
    assert_eq!(cache.invalidate_all().invalidated, 0);
    assert_eq!(LIVE.with(Cell::get) - before, 0);
}
