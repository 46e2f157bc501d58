//! Switched inter-GPU interconnect with dynamic asymmetric lane allocation.
//!
//! Models the paper's §4 proposal: each GPU socket connects to a high
//! bandwidth switch through a link made of individually reversible lanes
//! (8 lanes × 8 GB/s per direction at kernel launch, Table 1). A link load
//! balancer samples directional saturation every `sample_time` cycles and
//! turns one lane around when one direction is ≥99% saturated while the
//! other has headroom — recovering up to 2× bandwidth for asymmetric
//! phases such as parallel reductions.
//!
//! [`Topology`] is the one fabric model, the paper's switch: one
//! [`GpuLink`] per socket, indexed by socket.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_interconnect::{BalanceAction, LinkBalancer};
//!
//! // Egress saturated, ingress idle: steal one ingress lane.
//! let action = LinkBalancer::decide(true, false, 8, 8);
//! assert_eq!(action, BalanceAction::TurnTowardEgress);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod balancer;
mod link;
mod topology;

pub use balancer::{BalanceAction, LinkBalancer};
pub use link::{GpuLink, LinkDirection, LinkSample, LinkStats};
pub use topology::Topology;

#[cfg(test)]
mod switch {
    //! The paper's switch (Figure 1) is [`crate::Topology`]; these tests
    //! pin its timing and errors through `Topology::route`.
    mod tests;
}
