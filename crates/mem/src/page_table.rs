//! NUMA page placement policies (paper §3).

use numa_gpu_types::{Counter, LineAddr, PageId, PagePlacement, SocketId};

/// Pages per first-touch chunk: 4 KiB of home bytes per 256 MiB of addresses.
const CHUNK_PAGES: u64 = 4096;

/// Home byte of an untouched page; socket indices stop at 254 (`u8` count).
const UNPLACED: u8 = u8::MAX;

/// Statistics gathered by the placement layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Pages placed by first-touch.
    pub pages_placed: Counter,
    /// Line-home lookups answered.
    pub lookups: Counter,
}

/// Maps cache lines to their home socket under one of the paper's three
/// placement policies.
///
/// * [`PagePlacement::FineInterleave`] — line-granular modulo interleaving,
///   the traditional single-GPU policy: in an `N`-socket system `(N-1)/N` of
///   all traffic is remote.
/// * [`PagePlacement::PageInterleave`] — round-robin by page index (the
///   Linux `interleave` NUMA policy). Load balanced, still mostly remote.
/// * [`PagePlacement::FirstTouch`] — UVM-style: the first socket to touch a
///   page becomes its home; pages never move afterwards (§3: "after which
///   pages are not dynamically moved between GPUs").
///
/// # Examples
///
/// ```
/// use numa_gpu_mem::PageTable;
/// use numa_gpu_types::{Addr, PagePlacement, SocketId};
///
/// let mut pt = PageTable::new(PagePlacement::FineInterleave, 4);
/// let l0 = Addr::new(0).line();
/// let l1 = Addr::new(128).line();
/// assert_eq!(pt.home_of_line(l0, SocketId::new(0)).index(), 0);
/// assert_eq!(pt.home_of_line(l1, SocketId::new(0)).index(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    policy: PagePlacement,
    num_sockets: u8,
    /// First-touch homes: a page-indexed byte table in [`CHUNK_PAGES`]-page
    /// chunks sorted by chunk number. Chunked, not capped with a map behind:
    /// one path for any address, memory proportional to the chunks touched
    /// (page 2^40 costs one chunk), ascending enumeration by construction.
    first_touch: Vec<(u64, Box<[u8]>)>,
    stats: PlacementStats,
}

impl PageTable {
    /// Creates a page table for `num_sockets` sockets under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sockets` is zero.
    pub fn new(policy: PagePlacement, num_sockets: u8) -> Self {
        assert!(num_sockets > 0, "num_sockets must be nonzero");
        PageTable {
            policy,
            num_sockets,
            first_touch: Vec::new(),
            stats: PlacementStats::default(),
        }
    }

    /// Policy in force.
    #[inline]
    pub fn policy(&self) -> PagePlacement {
        self.policy
    }

    /// Resolves the home socket of `line` for an access issued by
    /// `requester`. Under first-touch this may *place* the page; a placed
    /// page keeps its home.
    pub fn home_of_line(&mut self, line: LineAddr, requester: SocketId) -> SocketId {
        self.stats.lookups.inc();
        let n = self.num_sockets as u64;
        match self.policy {
            PagePlacement::FineInterleave => SocketId::new((line.raw() % n) as u8),
            PagePlacement::PageInterleave => SocketId::new((line.page().index() % n) as u8),
            PagePlacement::FirstTouch => self.place(line.page(), requester),
        }
    }

    /// Position of `page`'s chunk in `first_touch` (`Err`: where it would go).
    fn chunk_at(&self, page: PageId) -> Result<usize, usize> {
        let chunk = page.index() / CHUNK_PAGES;
        self.first_touch.binary_search_by_key(&chunk, |c| c.0)
    }

    /// Makes `socket` the home of `page` if it has none (a counted
    /// placement); returns the home now in force.
    fn place(&mut self, page: PageId, socket: SocketId) -> SocketId {
        let at = self.chunk_at(page).unwrap_or_else(|at| {
            let homes = vec![UNPLACED; CHUNK_PAGES as usize].into_boxed_slice();
            self.first_touch
                .insert(at, (page.index() / CHUNK_PAGES, homes));
            at
        });
        let home = &mut self.first_touch[at].1[(page.index() % CHUNK_PAGES) as usize];
        if *home == UNPLACED {
            assert!(
                socket.index() < self.num_sockets as usize,
                "home socket outside the system"
            );
            self.stats.pages_placed.inc();
            *home = socket.index() as u8;
        }
        SocketId::new(*home)
    }

    /// Resolves `line`'s home without placing anything: `Some` when the
    /// home is computable or already recorded, `None` when the line's page
    /// is unplaced first-touch territory. Unlike [`Self::peek_page`] this
    /// answers for every policy (fine interleaving is sub-page, so the
    /// page-granular peek cannot).
    ///
    /// This is the read-only lookup the partitioned executor uses inside a
    /// window, where the table is shared immutably across partitions; a
    /// `None` becomes a first-touch *claim*, committed at the barrier via
    /// [`Self::commit_claim`].
    pub fn peek_line(&self, line: LineAddr) -> Option<SocketId> {
        match self.policy {
            PagePlacement::FineInterleave => {
                Some(SocketId::new((line.raw() % self.num_sockets as u64) as u8))
            }
            _ => self.peek_page(line.page()),
        }
    }

    /// Records a first-touch placement decided outside the table (the
    /// partitioned executor resolves same-window claim races
    /// deterministically at the barrier, then commits each winner here).
    /// A page that is already placed keeps its home — commits are
    /// first-wins, exactly like [`Self::home_of_line`] under first-touch.
    /// No-op for the computed (interleaved) policies.
    pub fn commit_claim(&mut self, page: PageId, socket: SocketId) {
        match self.policy {
            PagePlacement::FirstTouch => {
                self.place(page, socket);
            }
            PagePlacement::FineInterleave | PagePlacement::PageInterleave => {}
        }
    }

    /// Accounts for `n` home lookups answered outside [`Self::home_of_line`]
    /// (the partitioned executor resolves homes through [`Self::peek_line`]
    /// against a shared borrow and folds its counts in at the barrier).
    pub fn note_lookups(&mut self, n: u64) {
        self.stats.lookups.add(n);
    }

    /// Looks up a page's current home without placing it.
    pub fn peek_page(&self, page: PageId) -> Option<SocketId> {
        let n = self.num_sockets as u64;
        match self.policy {
            PagePlacement::FineInterleave => None, // sub-page granularity
            PagePlacement::PageInterleave => Some(SocketId::new((page.index() % n) as u8)),
            PagePlacement::FirstTouch => {
                let homes = &self.first_touch[self.chunk_at(page).ok()?].1;
                let home = homes[(page.index() % CHUNK_PAGES) as usize];
                (home != UNPLACED).then(|| SocketId::new(home))
            }
        }
    }

    /// Number of pages placed so far (first-touch only; interleaved policies
    /// report zero because placement is computed, not recorded).
    pub fn resident_pages(&self) -> usize {
        self.placements().count()
    }

    /// All recorded first-touch placements in ascending page order. The
    /// order is structural — chunks sorted by number, pages by index within
    /// a chunk — never the order the placements happened, so snapshots
    /// built from it are stable across runs and thread schedules.
    pub fn placements(&self) -> impl Iterator<Item = (PageId, SocketId)> + '_ {
        self.first_touch.iter().flat_map(|(chunk, homes)| {
            let first = chunk * CHUNK_PAGES;
            homes
                .iter()
                .enumerate()
                .filter(|(_, &home)| home != UNPLACED)
                .map(move |(i, &home)| (PageId::from_index(first + i as u64), SocketId::new(home)))
        })
    }

    /// Placement statistics.
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::{Addr, PAGE_SIZE};

    fn line(addr: u64) -> LineAddr {
        Addr::new(addr).line()
    }

    #[test]
    fn fine_interleave_rotates_per_line() {
        let mut pt = PageTable::new(PagePlacement::FineInterleave, 4);
        let homes: Vec<_> = (0..8)
            .map(|i| pt.home_of_line(line(i * 128), SocketId::new(0)).index())
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn fine_interleave_75pct_remote_on_4_sockets() {
        let mut pt = PageTable::new(PagePlacement::FineInterleave, 4);
        let me = SocketId::new(1);
        let remote = (0..1000)
            .filter(|i| pt.home_of_line(line(i * 128), me) != me)
            .count();
        assert_eq!(remote, 750);
    }

    #[test]
    fn page_interleave_constant_within_page() {
        let mut pt = PageTable::new(PagePlacement::PageInterleave, 4);
        let me = SocketId::new(0);
        let h0 = pt.home_of_line(line(0), me);
        let h1 = pt.home_of_line(line(PAGE_SIZE - 128), me);
        assert_eq!(h0, h1);
        let h2 = pt.home_of_line(line(PAGE_SIZE), me);
        assert_eq!(h2.index(), (h0.index() + 1) % 4);
    }

    #[test]
    fn first_touch_sticks_to_first_requester() {
        let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
        let l = line(5 * PAGE_SIZE);
        assert_eq!(pt.home_of_line(l, SocketId::new(3)), SocketId::new(3));
        // A later touch by another socket does not move the page.
        assert_eq!(pt.home_of_line(l, SocketId::new(1)), SocketId::new(3));
        assert_eq!(pt.resident_pages(), 1);
        assert_eq!(pt.stats().pages_placed.get(), 1);
    }

    #[test]
    fn first_touch_distinguishes_pages() {
        let mut pt = PageTable::new(PagePlacement::FirstTouch, 2);
        pt.home_of_line(line(0), SocketId::new(0));
        pt.home_of_line(line(PAGE_SIZE), SocketId::new(1));
        assert_eq!(pt.peek_page(PageId::from_index(0)), Some(SocketId::new(0)));
        assert_eq!(pt.peek_page(PageId::from_index(1)), Some(SocketId::new(1)));
        assert_eq!(pt.peek_page(PageId::from_index(2)), None);
    }

    #[test]
    fn single_socket_everything_local() {
        for policy in [
            PagePlacement::FineInterleave,
            PagePlacement::PageInterleave,
            PagePlacement::FirstTouch,
        ] {
            let mut pt = PageTable::new(policy, 1);
            for i in 0..64 {
                assert_eq!(
                    pt.home_of_line(line(i * 12345), SocketId::new(0)),
                    SocketId::new(0)
                );
            }
        }
    }

    #[test]
    fn peek_line_answers_every_policy() {
        let fine = PageTable::new(PagePlacement::FineInterleave, 4);
        assert_eq!(fine.peek_line(line(128)), Some(SocketId::new(1)));
        assert_eq!(fine.peek_page(PageId::from_index(0)), None);

        let page = PageTable::new(PagePlacement::PageInterleave, 4);
        assert_eq!(page.peek_line(line(PAGE_SIZE)), Some(SocketId::new(1)));

        let mut ft = PageTable::new(PagePlacement::FirstTouch, 4);
        assert_eq!(ft.peek_line(line(0)), None);
        ft.home_of_line(line(0), SocketId::new(2));
        assert_eq!(ft.peek_line(line(0)), Some(SocketId::new(2)));
    }

    #[test]
    fn commit_claim_is_first_wins_and_counted() {
        let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
        pt.commit_claim(PageId::from_index(3), SocketId::new(1));
        pt.commit_claim(PageId::from_index(3), SocketId::new(2)); // loser
        assert_eq!(pt.peek_page(PageId::from_index(3)), Some(SocketId::new(1)));
        assert_eq!(pt.stats().pages_placed.get(), 1);
        // And home_of_line agrees with the committed claim.
        assert_eq!(
            pt.home_of_line(line(3 * PAGE_SIZE), SocketId::new(0)),
            SocketId::new(1)
        );
    }

    #[test]
    fn commit_claim_noop_for_computed_policies() {
        let mut pt = PageTable::new(PagePlacement::FineInterleave, 4);
        pt.commit_claim(PageId::from_index(0), SocketId::new(3));
        assert_eq!(pt.resident_pages(), 0);
        assert_eq!(pt.stats().pages_placed.get(), 0);
    }

    #[test]
    fn note_lookups_folds_into_stats() {
        let mut pt = PageTable::new(PagePlacement::FirstTouch, 2);
        pt.note_lookups(7);
        pt.home_of_line(line(0), SocketId::new(0));
        assert_eq!(pt.stats().lookups.get(), 8);
    }

    #[test]
    fn lookups_counted() {
        let mut pt = PageTable::new(PagePlacement::PageInterleave, 2);
        for i in 0..5 {
            pt.home_of_line(line(i), SocketId::new(0));
        }
        assert_eq!(pt.stats().lookups.get(), 5);
    }

    #[test]
    #[should_panic(expected = "num_sockets must be nonzero")]
    fn zero_sockets_panics() {
        let _ = PageTable::new(PagePlacement::FirstTouch, 0);
    }

    #[test]
    fn placements_enumerate_in_page_order_regardless_of_touch_order() {
        // Touch the same pages in two different orders; the placement
        // snapshot must come out identical: the table enumerates in index
        // order, whatever order the pages were placed in.
        let touch = |order: &[u64]| {
            let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
            for &page in order {
                pt.home_of_line(line(page * PAGE_SIZE), SocketId::new((page % 4) as u8));
            }
            pt.placements().collect::<Vec<_>>()
        };
        let a = touch(&[7, 2, 9, 0, 4, 11, 3]);
        let b = touch(&[3, 11, 0, 9, 4, 2, 7]);
        assert_eq!(a, b);
        let pages: Vec<u64> = a.iter().map(|(p, _)| p.index()).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(pages, sorted, "placements must enumerate in page order");
    }
}
