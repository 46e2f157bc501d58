//! The paper's 41 evaluation workloads as synthetic trace generators.
//!
//! The original evaluation used proprietary traces of CORAL, Rodinia,
//! Lonestar, ML, and in-house CUDA benchmarks. Per the substitution policy
//! in `DESIGN.md`, each is reproduced here as a deterministic synthetic
//! generator whose *communication structure* matches the benchmark's class:
//!
//! * streaming / tiled kernels with CTA-private working sets (scale with
//!   software locality alone — the grey box of Figure 3),
//! * stencils with halo exchange,
//! * irregular workloads reading shared structures resident across NUMA
//!   zones (where NUMA-aware caching wins),
//! * phased producer/reduction workloads with asymmetric link demand
//!   (where dynamic lane allocation wins),
//! * compute-bound kernels (insensitive to everything).
//!
//! Table 2 metadata (time-weighted CTA count, footprint) is carried
//! verbatim in [`WorkloadMeta`](numa_gpu_runtime::WorkloadMeta); simulated
//! grids and footprints are scaled down uniformly via [`Scale`].
//!
//! # Examples
//!
//! ```
//! use numa_gpu_workloads::{catalog, Scale};
//!
//! let all = catalog(&Scale::quick());
//! assert_eq!(all.len(), 41);
//! assert!(all.iter().any(|w| w.meta.name == "Rodinia-Euler3D"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod archetypes;
mod catalog;
mod patterns;
mod scale;

pub use catalog::{by_name, catalog, study_set, WORKLOAD_NAMES};
pub use patterns::{KernelSpec, Pattern, PatternKernel, PatternProgram};
pub use scale::Scale;
