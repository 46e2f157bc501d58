//! Streaming multiprocessor (SM) model.
//!
//! Each SM hosts up to `max_warps` resident warp contexts drawn from up to
//! `max_ctas` thread blocks, a private software-coherent write-through L1
//! (Table 1: 128 KB, 4-way), and an MSHR file that merges concurrent misses
//! to the same line. The SM is an *in-order* machine per warp; latency is
//! hidden across warps, exactly as in the paper's Pascal-class baseline.
//!
//! Timing orchestration (event scheduling, the memory path below the L1)
//! lives in `numa-gpu-core`; this crate owns all per-SM state transitions
//! so they can be tested in isolation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod sm;

pub use sm::{L1ReadOutcome, Sm, SmStats};
