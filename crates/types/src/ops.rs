//! Warp-level trace operations.
//!
//! The simulator is trace driven: workloads generate per-warp streams of
//! [`WarpOp`]s. A memory op represents one *coalesced* warp-wide access to a
//! single 128 B cache line (the common case on the SIMT machines the paper
//! models); divergent accesses are expressed by the generators as multiple
//! consecutive memory ops.

use crate::Addr;

/// Whether a memory operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load; the issuing warp blocks until the fill returns.
    Read,
    /// A store; write-through at L1, fire-and-forget for warp timing.
    Write,
}

/// One operation in a warp's instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// Execute for the given number of cycles without touching memory.
    Compute {
        /// Busy cycles before the next op can issue.
        cycles: u32,
    },
    /// A coalesced warp-wide memory access to the line containing `addr`.
    Mem {
        /// Target byte address (the whole 128 B line is transferred).
        addr: Addr,
        /// Read or write.
        kind: MemKind,
    },
}

impl WarpOp {
    /// Convenience constructor for a read.
    #[inline]
    pub const fn read(addr: Addr) -> Self {
        WarpOp::Mem {
            addr,
            kind: MemKind::Read,
        }
    }

    /// Convenience constructor for a write.
    #[inline]
    pub const fn write(addr: Addr) -> Self {
        WarpOp::Mem {
            addr,
            kind: MemKind::Write,
        }
    }

    /// Convenience constructor for a compute delay.
    #[inline]
    pub const fn compute(cycles: u32) -> Self {
        WarpOp::Compute { cycles }
    }
}

/// A lazily generated program for one CTA: a source of [`WarpOp`]s per warp.
///
/// Implementations are typically small counters + an RNG, so a multi-million
/// access workload never materializes its trace in memory.
///
/// # Examples
///
/// ```
/// use numa_gpu_types::{Addr, CtaProgram, WarpOp};
///
/// /// Two warps each issuing one read then finishing.
/// struct OneRead { left: [bool; 2] }
/// impl CtaProgram for OneRead {
///     fn num_warps(&self) -> u32 { 2 }
///     fn next_op(&mut self, warp: u32) -> Option<WarpOp> {
///         let w = warp as usize;
///         if self.left[w] { self.left[w] = false; Some(WarpOp::read(Addr::new(0))) }
///         else { None }
///     }
/// }
/// let mut p = OneRead { left: [true, true] };
/// assert!(p.next_op(0).is_some());
/// assert!(p.next_op(0).is_none());
/// ```
pub trait CtaProgram: Send {
    /// Number of warps in this CTA.
    fn num_warps(&self) -> u32;

    /// Produces the next operation for `warp`, or `None` when the warp has
    /// retired all its work.
    ///
    /// Calling `next_op` again for a finished warp must keep returning
    /// `None`.
    fn next_op(&mut self, warp: u32) -> Option<WarpOp>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(matches!(WarpOp::read(Addr::new(0)), WarpOp::Mem { .. }));
        assert!(matches!(WarpOp::write(Addr::new(0)), WarpOp::Mem { .. }));
        assert!(matches!(WarpOp::compute(3), WarpOp::Compute { cycles: 3 }));
    }

    #[test]
    fn mem_kind_distinguishes() {
        match WarpOp::write(Addr::new(64)) {
            WarpOp::Mem { kind, .. } => assert_eq!(kind, MemKind::Write),
            _ => panic!("expected mem op"),
        }
    }
}
