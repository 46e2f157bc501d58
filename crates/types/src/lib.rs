//! Core types shared by every crate in the `numa-gpu` workspace.
//!
//! This crate defines the vocabulary of the simulator reproduced from
//! *"Beyond the Socket: NUMA-Aware GPUs"* (Milic et al., MICRO-50, 2017):
//! physical addresses and their cache-line / page views, socket, CTA and
//! warp-slot identifiers, the simulation time base, warp-level operations,
//! and the [`SystemConfig`] that transcribes the paper's Table 1.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_types::{Addr, SystemConfig, LINE_SIZE};
//!
//! let cfg = SystemConfig::pascal_4_socket();
//! assert_eq!(cfg.num_sockets, 4);
//! let a = Addr::new(0x1_0000);
//! assert_eq!(a.line().base().raw(), 0x1_0000 / LINE_SIZE * LINE_SIZE);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod addr;
mod config;
mod error;
mod ids;
mod ops;
mod stats;
mod time;

pub use addr::{Addr, LineAddr, PageId, LINE_SIZE, PAGE_SIZE};
pub use config::{
    CacheConfig, CacheMode, CtaSchedulingPolicy, DramConfig, LinkConfig, LinkMode, NocConfig,
    ObsConfig, PagePlacement, SmConfig, SystemConfig, TopologyKind, WritePolicy, HEADER_BYTES,
    SATURATION_THRESHOLD,
};
pub use error::{ConfigError, SimError};
pub use ids::{CtaId, SocketId, WarpSlot};
pub use ops::{CtaProgram, MemKind, WarpOp};
pub use stats::Counter;
pub use time::{cycles_to_ticks, ticks_to_cycles, Tick, TICKS_PER_CYCLE};
