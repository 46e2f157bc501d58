//! One first-touch access far out in the address space (any `Kernel`
//! implementation may issue any 64-bit address, so page index 2^40 is
//! reachable) must cost a chunk of the page table, not a table sized by
//! the address.

use numa_gpu_mem::PageTable;
use numa_gpu_types::{Addr, PageId, PagePlacement, SocketId, PAGE_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a `const` initializer and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|b| b.set(b.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn far_first_touch_allocates_a_few_kib() {
    let page = PageId::from_index(1 << 40);
    let line = Addr::new((1 << 40) * PAGE_SIZE).line();
    assert_eq!(line.page(), page);
    let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
    let before = REQUESTED.with(Cell::get);
    assert_eq!(pt.home_of_line(line, SocketId::new(3)), SocketId::new(3));
    let grown = REQUESTED.with(Cell::get) - before;
    assert!(grown <= 8 * 1024, "one far page cost {grown} bytes");
    assert_eq!(pt.peek_page(page), Some(SocketId::new(3)));
    assert_eq!(pt.peek_page(PageId::from_index((1 << 40) + 1)), None);
    assert_eq!(
        pt.placements().collect::<Vec<_>>(),
        vec![(page, SocketId::new(3))]
    );
}
