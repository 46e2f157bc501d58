//! Physical addresses and their cache-line / page granular views.

use std::fmt;

/// Cache line size in bytes (paper Table 1: 128 B lines for both L1 and L2).
pub const LINE_SIZE: u64 = 128;

/// Page size in bytes used by the UVM-style page placement policies (64 KiB,
/// the granularity NVIDIA UVM migrates at on Pascal-class hardware).
pub const PAGE_SIZE: u64 = 64 * 1024;

/// A byte-granular physical address within the aggregated GPU memory space.
///
/// # Examples
///
/// ```
/// use numa_gpu_types::{Addr, LINE_SIZE, PAGE_SIZE};
/// let a = Addr::new(3 * PAGE_SIZE + 5 * LINE_SIZE + 17);
/// assert_eq!(a.page().index(), 3);
/// assert_eq!(a.line().raw(), (3 * PAGE_SIZE + 5 * LINE_SIZE) / LINE_SIZE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE)
    }

    /// Returns the page containing this address.
    #[inline]
    pub const fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE)
    }

    /// Returns this address offset by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line-granular address (byte address divided by [`LINE_SIZE`]).
///
/// # Examples
///
/// ```
/// use numa_gpu_types::{Addr, LineAddr};
/// let l: LineAddr = Addr::new(256).line();
/// assert_eq!(l.base(), Addr::new(256));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line index.
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        LineAddr(index)
    }

    /// Raw line index (byte address / [`LINE_SIZE`]).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First byte address covered by this line.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_SIZE)
    }

    /// Page containing this line.
    #[inline]
    pub const fn page(self) -> PageId {
        PageId(self.0 / (PAGE_SIZE / LINE_SIZE))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A page-granular address (byte address divided by [`PAGE_SIZE`]).
///
/// # Examples
///
/// ```
/// use numa_gpu_types::{Addr, PageId, PAGE_SIZE};
/// assert_eq!(Addr::new(PAGE_SIZE * 2 + 1).page(), PageId::from_index(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from a raw page index.
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        PageId(index)
    }

    /// Raw page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// First byte address within this page.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0 * PAGE_SIZE)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_of_zero() {
        let a = Addr::new(0);
        assert_eq!(a.line().raw(), 0);
        assert_eq!(a.page().index(), 0);
    }

    #[test]
    fn line_base_is_aligned() {
        let a = Addr::new(1234567);
        assert_eq!(a.line().base().raw() % LINE_SIZE, 0);
        assert!(a.line().base().raw() <= a.raw());
        assert!(a.raw() < a.line().base().raw() + LINE_SIZE);
    }

    #[test]
    fn page_of_line_matches_page_of_addr() {
        for raw in [0u64, 127, 128, PAGE_SIZE - 1, PAGE_SIZE, 10 * PAGE_SIZE + 3] {
            let a = Addr::new(raw);
            assert_eq!(a.line().page(), a.page());
        }
    }

    #[test]
    fn page_of_the_last_line_does_not_overflow() {
        let last = LineAddr::from_index(u64::MAX);
        assert_eq!(last.page().index(), u64::MAX / (PAGE_SIZE / LINE_SIZE));
    }

    #[test]
    fn offset_adds_bytes() {
        assert_eq!(Addr::new(100).offset(28), Addr::new(128));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::from_index(16).to_string(), "line:0x10");
        assert_eq!(PageId::from_index(7).to_string(), "page:7");
    }

    #[test]
    fn page_size_is_multiple_of_line_size() {
        assert_eq!(PAGE_SIZE % LINE_SIZE, 0);
    }
}
