//! The NUMA-aware GPU runtime (paper §3).
//!
//! The paper's runtime transparently decomposes each kernel launched by an
//! unmodified single-GPU program into per-socket *sub-kernels*: CTA
//! identifiers are remapped to match the original grid, per-GPU memory
//! fences are promoted to system level (modeled here as the global
//! synchronization at every kernel boundary), and CTAs are assigned to
//! sockets either by fine-grained modulo interleaving (the traditional
//! policy) or in contiguous blocks (the locality-optimized policy).
//!
//! This crate also defines the [`Kernel`]/[`Workload`] abstraction the
//! trace generators implement and the simulator consumes.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_runtime::socket_for_cta;
//! use numa_gpu_types::CtaSchedulingPolicy;
//!
//! // 8 CTAs over 4 sockets, contiguous blocks: CTAs 0-1 on GPU0, etc.
//! let s = socket_for_cta(CtaSchedulingPolicy::ContiguousBlock, 3, 8, 4);
//! assert_eq!(s.index(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod launch;
mod trace;
mod workload;

pub use launch::{socket_for_cta, LaunchPlan, SubKernel};
pub use trace::{ParseTraceError, RecordedKernel};
pub use workload::{Kernel, Suite, Workload, WorkloadMeta};
