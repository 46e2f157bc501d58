//! Memory-system substrate: NUMA page placement and DRAM timing.
//!
//! The paper (§3) studies three placement policies for the aggregated GPU
//! address space — fine-grained line interleaving, round-robin page
//! interleaving, and UVM-style first-touch — implemented here by
//! [`PageTable`]. Each socket's on-package HBM is modeled by [`Dram`] as a
//! bandwidth-limited FIFO plus fixed access latency (Table 1: 768 GB/s,
//! 100 ns).
//!
//! # Examples
//!
//! ```
//! use numa_gpu_mem::PageTable;
//! use numa_gpu_types::{Addr, PagePlacement, SocketId};
//!
//! let mut pt = PageTable::new(PagePlacement::FirstTouch, 4);
//! let home = pt.home_of_line(Addr::new(0x10_0000).line(), SocketId::new(2));
//! assert_eq!(home, SocketId::new(2)); // first toucher owns the page
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod dram;
mod page_table;

pub use dram::{Dram, DramStats, NUM_BANKS, ROW_BYTES};
pub use page_table::{PageTable, PlacementStats};
