//! Property tests for the memory substrate.

use numa_gpu_mem::{Dram, PageTable};
use numa_gpu_testkit::gen::{bools, ints, pairs, triples, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};
use numa_gpu_types::{Addr, DramConfig, PagePlacement, SocketId, PAGE_SIZE, TICKS_PER_CYCLE};

prop_check! {
    /// Interleaved policies are pure functions of the address: the
    /// requester never influences the home.
    fn interleave_ignores_requester(
        addr in ints(0u64..1u64 << 34),
        reqs in vecs(ints(0u8..4), 2..8)
    ) {
        for policy in [PagePlacement::FineInterleave, PagePlacement::PageInterleave] {
            let mut pt = PageTable::new(policy, 4);
            let homes: Vec<_> = reqs
                .iter()
                .map(|r| pt.home_of_line(Addr::new(addr).line(), SocketId::new(r % 4)))
                .collect();
            prop_assert!(homes.windows(2).all(|w| w[0] == w[1]));
        }
    }

    /// First-touch distributes exactly one placement per page regardless of
    /// how many lines of the page are touched.
    fn one_placement_per_page(lines in vecs(pairs(ints(0u64..32), ints(0u8..4)), 1..200)) {
        let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
        let mut pages = std::collections::BTreeSet::new();
        for (line_in_page, r) in lines {
            // All addresses within page 7.
            let addr = 7 * PAGE_SIZE + line_in_page * 128;
            pt.home_of_line(Addr::new(addr).line(), SocketId::new(r % 4));
            pages.insert(7u64);
        }
        prop_assert_eq!(pt.stats().pages_placed.get() as usize, pages.len());
        prop_assert_eq!(pt.resident_pages(), pages.len());
    }

    /// DRAM completions are FIFO and each includes at least the access
    /// latency; total bytes are conserved.
    fn dram_fifo_and_latency(
        reqs in vecs(triples(ints(0u64..1_000), ints(1u32..10_000), bools()), 1..100)
    ) {
        let cfg = DramConfig { bytes_per_cycle: 768, latency_cycles: 100 };
        let mut d = Dram::new(cfg);
        let mut now = 0;
        let mut last = 0;
        let mut bytes = 0u64;
        for (dt, b, write) in reqs {
            now += dt;
            let t = cycles_into_ticks(now);
            let line = Addr::new(now * 128).line();
            let done = if write {
                d.write_line(t, line, b)
            } else {
                d.read_line(t, line, b)
            };
            prop_assert!(done >= t + 100 * TICKS_PER_CYCLE);
            prop_assert!(done >= last);
            last = done;
            bytes += b as u64;
        }
        prop_assert_eq!(d.stats().bytes.get(), bytes);
    }
}

fn cycles_into_ticks(c: u64) -> u64 {
    c * TICKS_PER_CYCLE
}
