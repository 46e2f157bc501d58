//! Identifiers for sockets, SMs, CTAs, warps, and kernels.

use std::fmt;

/// Identifies one GPU socket (one GPU module behind the switch).
///
/// # Examples
///
/// ```
/// use numa_gpu_types::SocketId;
/// let s = SocketId::new(2);
/// assert_eq!(s.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketId(u8);

impl SocketId {
    /// Creates a socket id from its index.
    #[inline]
    pub const fn new(index: u8) -> Self {
        SocketId(index)
    }

    /// Zero-based socket index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// Index of an SM within its socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmIndex(u16);

impl SmIndex {
    /// Creates an SM index.
    #[inline]
    pub const fn new(index: u16) -> Self {
        SmIndex(index)
    }

    /// Zero-based index within the socket.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SmIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

/// Identifies a thread block (CTA) within the *original* (pre-decomposition)
/// kernel grid, exactly as the programmer numbered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CtaId(u32);

impl CtaId {
    /// Creates a CTA id.
    #[inline]
    pub const fn new(index: u32) -> Self {
        CtaId(index)
    }

    /// Zero-based CTA index in the original grid.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CtaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cta:{}", self.0)
    }
}

/// A warp slot within one SM (resident warp context index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WarpSlot(u16);

impl WarpSlot {
    /// Creates a warp slot index.
    #[inline]
    pub const fn new(index: u16) -> Self {
        WarpSlot(index)
    }

    /// Zero-based slot index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WarpSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warp:{}", self.0)
    }
}

/// Position of a kernel in a workload's launch sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelId(u32);

impl KernelId {
    /// Creates a kernel id.
    #[inline]
    pub const fn new(index: u32) -> Self {
        KernelId(index)
    }

    /// Zero-based launch index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_display() {
        assert_eq!(SocketId::new(3).to_string(), "GPU3");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(SocketId::new(0) < SocketId::new(1));
        assert!(CtaId::new(5) < CtaId::new(6));
        assert!(KernelId::new(1) < KernelId::new(2));
    }

    #[test]
    fn ids_are_hashable_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(
            hasher.hash_one(SocketId::new(1)),
            hasher.hash_one(SocketId::new(1))
        );
    }

    #[test]
    fn index_roundtrips() {
        assert_eq!(SmIndex::new(63).index(), 63);
        assert_eq!(WarpSlot::new(7).index(), 7);
        assert_eq!(CtaId::new(41).index(), 41);
    }
}
