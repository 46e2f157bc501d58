//! Deterministic fault injection for the `numa-gpu` simulator.
//!
//! A [`FaultPlan`] is a cycle-stamped, sorted list of [`FaultSpec`] events
//! that the core simulator applies as simulated time passes: degrade or
//! restore inter-socket link lanes, hold a link in a retrain window, stall
//! a socket's DRAM behind an ECC-retry window, or disable SMs mid-kernel.
//! Plans are pure data — no wall clock, no global state — so the same plan
//! against the same workload yields a byte-identical report, and an empty
//! plan is indistinguishable from no plan at all.
//!
//! Plans come from three places: programmatic construction ([`FaultPlan::push`]),
//! the compact spec grammar ([`FaultPlan::parse`], used by `simulate
//! --faults`), or a seeded generator ([`FaultPlan::random`], used by
//! `--fault-seed`) built on the `testkit` PRNG.
//!
//! Link faults address sockets: `lanes:s1` and `retrain:s1` hit socket 1's
//! link to the switch.
//!
//! The simulator folds what actually happened into a
//! [`ResilienceReport`]: the applied-fault timeline, per-socket link lane
//! availability (achieved vs nominal), recovery latencies of the lane
//! balancer, and CTA-requeue counts from SM disables.
//!
//! # Examples
//!
//! ```
//! use numa_gpu_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("lanes:s1@5000=8; dram:s0@2000+300").unwrap();
//! assert_eq!(plan.len(), 2);
//! assert_eq!(plan.specs()[0].cycle, 2000); // sorted by cycle
//! assert!(matches!(
//!     plan.specs()[1].kind,
//!     FaultKind::LinkLanes { socket: 1, healthy_lanes: 8 }
//! ));
//! // The grammar round-trips.
//! assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod plan;
mod resilience;
mod spec;

pub use plan::FaultPlan;
pub use resilience::{AppliedFault, LinkResilience, ResilienceReport};
pub use spec::{FaultKind, FaultSpec};
