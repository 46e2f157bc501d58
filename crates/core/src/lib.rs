//! The NUMA-aware multi-socket GPU system of *"Beyond the Socket:
//! NUMA-Aware GPUs"* (Milic et al., MICRO-50, 2017).
//!
//! This crate assembles the substrates — SMs with private L1s
//! ([`numa_gpu_sm`]), per-socket L2s and the partition controller
//! ([`numa_gpu_cache`]), DRAM and page placement ([`numa_gpu_mem`]), and
//! the switched interconnect with reversible lanes
//! ([`numa_gpu_interconnect`]) — into a runnable system,
//! [`NumaGpuSystem`], that executes [`Workload`](numa_gpu_runtime::Workload)s
//! under every design point the paper evaluates:
//!
//! * **Runtime policies** (§3): CTA interleaving vs contiguous block
//!   scheduling; fine-grained, page-interleaved, or first-touch placement.
//! * **Interconnect** (§4): static symmetric links, dynamic asymmetric lane
//!   allocation, or doubled bandwidth.
//! * **Caches** (§5): memory-side local-only L2, static 50/50 remote cache,
//!   shared coherent L1+L2, or NUMA-aware dynamic partitioning.
//!
//! Speedups come from ratios of [`SimReport::total_cycles`] between
//! configurations built by [`SystemConfig`](numa_gpu_types::SystemConfig)
//! constructors (`pascal_single`, `numa_sockets`, `numa_aware_sockets`,
//! `hypothetical_scaled`).
//!
//! # Examples
//!
//! ```
//! use numa_gpu_core::NumaGpuSystem;
//! use numa_gpu_types::SystemConfig;
//!
//! let sys = NumaGpuSystem::new(SystemConfig::pascal_4_socket())?;
//! assert_eq!(sys.config().num_sockets, 4);
//! # Ok::<(), numa_gpu_types::ConfigError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod exec;
mod flush;
mod mempath;
mod observe;
pub mod power;
mod report;
mod system;
pub mod tenancy;

pub use report::{cache_stats_json, SimReport, SocketReport};
pub use system::NumaGpuSystem;

// Re-exported so downstream crates can name the type of
// [`SimReport::profile`] without depending on the observability crate.
pub use numa_gpu_obs::ProfileReport;

/// Runs `workload` on a fresh system built from `cfg` — the one-call entry
/// point used by the benchmark harness.
///
/// # Errors
///
/// Returns [`SimError::Config`](numa_gpu_types::SimError) if the
/// configuration is invalid, [`SimError::Deadlock`](numa_gpu_types::SimError)
/// if the scheduler stops making forward progress, and
/// [`SimError::CycleLimit`](numa_gpu_types::SimError) if the configured
/// cycle budget runs out.
///
/// # Examples
///
/// ```no_run
/// use numa_gpu_core::run_workload;
/// use numa_gpu_types::SystemConfig;
///
/// # fn wl() -> numa_gpu_runtime::Workload { unimplemented!() }
/// let report = run_workload(SystemConfig::numa_aware_sockets(4), &wl())?;
/// println!("{} cycles", report.total_cycles);
/// # Ok::<(), numa_gpu_types::SimError>(())
/// ```
pub fn run_workload(
    cfg: numa_gpu_types::SystemConfig,
    workload: &numa_gpu_runtime::Workload,
) -> Result<SimReport, numa_gpu_types::SimError> {
    let mut sys = NumaGpuSystem::new(cfg)?;
    sys.run(workload)
}

/// Like [`run_workload`] but with a [`FaultPlan`](numa_gpu_faults::FaultPlan)
/// installed before the run. An empty plan yields a report byte-identical
/// to [`run_workload`]'s.
///
/// # Errors
///
/// As for [`run_workload`], plus
/// [`SimError::InvalidFaultPlan`](numa_gpu_types::SimError) if the plan does
/// not fit the configured system shape.
pub fn run_workload_with_faults(
    cfg: numa_gpu_types::SystemConfig,
    workload: &numa_gpu_runtime::Workload,
    faults: &numa_gpu_faults::FaultPlan,
) -> Result<SimReport, numa_gpu_types::SimError> {
    let mut sys = NumaGpuSystem::new(cfg)?;
    sys.set_fault_plan(faults.clone())?;
    sys.run(workload)
}
