//! Differential test: the chunked page-indexed `PageTable` against the
//! naive model it replaced (`BTreeMap<PageId, SocketId>` for first-touch
//! homes) under all three placement policies. Homes, first-wins commits, `placements()` *order*,
//! `resident_pages` and statistics are compared after every step.

use numa_gpu_mem::{PageTable, PlacementStats};
use numa_gpu_testkit::gen::{ints, quads, vecs};
use numa_gpu_testkit::{prop_assert_eq, prop_check};
use numa_gpu_types::{LineAddr, PageId, PagePlacement, SocketId, LINE_SIZE, PAGE_SIZE};
use std::collections::BTreeMap;

struct RefTable {
    policy: PagePlacement,
    sockets: u64,
    first_touch: BTreeMap<PageId, SocketId>,
    stats: PlacementStats,
}

impl RefTable {
    fn first_touch_home(&mut self, page: PageId, requester: SocketId) -> SocketId {
        let stats = &mut self.stats;
        *self.first_touch.entry(page).or_insert_with(|| {
            stats.pages_placed.inc();
            requester
        })
    }

    fn home_of_line(&mut self, line: LineAddr, requester: SocketId) -> SocketId {
        self.stats.lookups.inc();
        let page = PageId::from_index(line.raw() / (PAGE_SIZE / LINE_SIZE));
        match self.policy {
            PagePlacement::FineInterleave => SocketId::new((line.raw() % self.sockets) as u8),
            PagePlacement::PageInterleave => SocketId::new((page.index() % self.sockets) as u8),
            PagePlacement::FirstTouch => self.first_touch_home(page, requester),
        }
    }

    fn peek_page(&self, page: PageId) -> Option<SocketId> {
        match self.policy {
            PagePlacement::FineInterleave => None,
            PagePlacement::PageInterleave => {
                Some(SocketId::new((page.index() % self.sockets) as u8))
            }
            _ => self.first_touch.get(&page).copied(),
        }
    }

    fn commit_claim(&mut self, page: PageId, socket: SocketId) {
        if self.policy == PagePlacement::FirstTouch {
            self.first_touch_home(page, socket);
        }
    }
}

/// Maps a selector in `0..32` onto a page: a dense run from zero, pages
/// either side of the first chunk boundary, and pages far enough out (2^40,
/// the last page a line address can name) that a flat table could not hold
/// them.
fn page_of(sel: u64) -> PageId {
    PageId::from_index(match sel {
        0..=19 => sel,
        20..=25 => 4096 + sel - 23,
        26..=28 => (1 << 40) + sel % 2,
        _ => u64::MAX / (PAGE_SIZE / LINE_SIZE) - (sel - 29),
    })
}

prop_check! {
    fn page_table_matches_the_btreemap_model(
        policy in ints(0u8..3),
        sockets in ints(1u8..9),
        ops in vecs(quads(ints(0u8..8), ints(0u64..32), ints(0u64..512), ints(0u8..8)), 1..300)
    ) {
        let policy = match policy {
            0 => PagePlacement::FineInterleave,
            1 => PagePlacement::PageInterleave,
            _ => PagePlacement::FirstTouch,
        };
        let mut flat = PageTable::new(policy, sockets);
        let mut model = RefTable {
            policy,
            sockets: sockets as u64,
            first_touch: BTreeMap::new(),
            stats: PlacementStats::default(),
        };
        for (kind, sel, line_in_page, socket) in ops {
            let page = page_of(sel);
            let line = LineAddr::from_index(page.index() * (PAGE_SIZE / LINE_SIZE) + line_in_page);
            let socket = SocketId::new(socket % sockets);
            match kind {
                0..=4 => prop_assert_eq!(flat.home_of_line(line, socket), model.home_of_line(line, socket)),
                5 => {
                    flat.commit_claim(page, socket);
                    model.commit_claim(page, socket);
                }
                6 => {
                    flat.note_lookups(sel);
                    model.stats.lookups.add(sel);
                }
                _ => {}
            }
            prop_assert_eq!(line.page(), page);
            prop_assert_eq!(flat.peek_page(page), model.peek_page(page));
            let want_line = match policy {
                PagePlacement::FineInterleave => Some(SocketId::new((line.raw() % sockets as u64) as u8)),
                _ => model.peek_page(page),
            };
            prop_assert_eq!(flat.peek_line(line), want_line);
            prop_assert_eq!(flat.stats(), model.stats);
            prop_assert_eq!(flat.resident_pages(), model.first_touch.len());
            let placed: Vec<(PageId, SocketId)> = flat.placements().collect();
            prop_assert_eq!(placed, model.first_touch.iter().map(|(p, s)| (*p, *s)).collect::<Vec<_>>());
        }
    }
}
