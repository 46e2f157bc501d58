//! # numa-gpu
//!
//! A production-quality Rust reproduction of **"Beyond the Socket:
//! NUMA-Aware GPUs"** (Milic, Villa, Bolotin, Arunkumar, Ebrahimi, Jaleel,
//! Ramirez, Nellans — MICRO-50, 2017).
//!
//! The paper proposes exposing 2–8 switch-connected GPU sockets as a single
//! programmer-transparent logical GPU, and shows that two mechanisms recover
//! most of the NUMA penalty:
//!
//! 1. **Dynamic asymmetric interconnect** (§4): per-GPU links built from
//!    individually reversible lanes; a load balancer turns lanes toward the
//!    saturated direction at runtime.
//! 2. **NUMA-aware cache partitioning** (§5): L1/L2 ways are dynamically
//!    divided between local- and remote-homed data based on link and DRAM
//!    saturation.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | ids, addresses, time base, [`SystemConfig`](types::SystemConfig) (Table 1) |
//! | [`engine`] | event queue, bandwidth resources, run watchdog |
//! | [`mem`] | page placement (§3), DRAM |
//! | [`cache`] | set-associative arrays, way partitioning, MSHRs, Fig 7(d) controller |
//! | [`interconnect`] | reversible lanes, links, switch, §4 balancer |
//! | [`sm`] | streaming multiprocessors |
//! | [`runtime`] | kernel decomposition, CTA scheduling (§3) |
//! | [`core`] | the assembled [`NumaGpuSystem`](core::NumaGpuSystem) |
//! | [`workloads`] | the 41 Table 2 benchmarks as synthetic generators |
//! | [`obs`] | metrics snapshot, event tracing, Chrome-trace export |
//! | [`exec`] | deterministic fixed-worker thread pool for sweep fan-out |
//!
//! # Quickstart
//!
//! ```
//! use numa_gpu::core::run_workload;
//! use numa_gpu::types::SystemConfig;
//! use numa_gpu::workloads::{by_name, Scale};
//!
//! let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
//! let single = run_workload(SystemConfig::pascal_single(), &wl)?;
//! let numa = run_workload(SystemConfig::numa_aware_sockets(4), &wl)?;
//! println!("4-socket NUMA-aware speedup: {:.2}x", numa.speedup_over(&single));
//! # Ok::<(), numa_gpu::types::SimError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use numa_gpu_bench as bench;
pub use numa_gpu_cache as cache;
pub use numa_gpu_core as core;
pub use numa_gpu_engine as engine;
pub use numa_gpu_exec as exec;
pub use numa_gpu_interconnect as interconnect;
pub use numa_gpu_mem as mem;
pub use numa_gpu_obs as obs;
pub use numa_gpu_runtime as runtime;
pub use numa_gpu_serve as serve;
pub use numa_gpu_sm as sm;
pub use numa_gpu_types as types;
pub use numa_gpu_workloads as workloads;
