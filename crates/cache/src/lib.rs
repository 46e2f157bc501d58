//! GPU cache substrate: set-associative arrays, NUMA way partitioning,
//! MSHRs, and the paper's dynamic partition controller.
//!
//! The paper's §5 proposal makes both the L1 and L2 **NUMA-aware**: cache
//! ways are divided between lines homed in *local* DRAM and lines homed in
//! *remote* NUMA zones, and the split is re-balanced at runtime from link
//! and DRAM saturation (Figure 7(d), reproduced verbatim by
//! [`PartitionController::step`]).
//!
//! # Examples
//!
//! ```
//! use numa_gpu_cache::{LineClass, SetAssocCache, WayPartition};
//! use numa_gpu_types::{Addr, CacheConfig};
//!
//! let cfg = CacheConfig {
//!     size_bytes: 16 * 1024,
//!     ways: 4,
//!     hit_latency_cycles: 28,
//! };
//! let mut c = SetAssocCache::new(&cfg, Some(WayPartition::balanced(4)));
//! let line = Addr::new(0x1000).line();
//! assert!(!c.probe_read(line));
//! c.fill(line, LineClass::Remote, false);
//! assert!(c.probe_read(line));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod controller;
mod mshr;
mod set_assoc;

pub use controller::{PartitionAction, PartitionController};
pub use mshr::{MshrAllocation, MshrFile};
pub use set_assoc::{
    CacheStats, EvictedLine, FlushOutcome, LineClass, SetAssocCache, WayPartition,
};
