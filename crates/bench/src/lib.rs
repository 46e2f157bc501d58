//! Benchmark harness: regenerates every table and figure of *"Beyond the
//! Socket: NUMA-Aware GPUs"*.
//!
//! The [`experiments`] module has one entry point per paper artifact
//! (Table 1, Table 2, Figures 2–11, the §4/§5 sensitivity studies, and the
//! §6 power estimate). Each experiment first *declares* its simulations as
//! a [`SimPlan`] (deduplicated by structured [`JobKey`]), then a caching
//! [`Runner`] *executes* the plan — fanning independent jobs out over a
//! deterministic worker pool (`--jobs N`) — so shared baselines
//! (single-GPU, locality-optimized 4-socket, …) are simulated once and
//! output stays byte-identical at every thread count. The `figures` binary
//! prints them; the repo benchmark (`benchmark/`) times the same code
//! paths.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod codec;
pub mod configs;
pub mod experiments;
pub mod plan;
pub mod runner;
pub mod store;
pub mod table;

pub use plan::{JobKey, SimJob, SimPlan};
pub use runner::Runner;
pub use store::{DiskStore, KeyedJob, StoreEvent, StoreHit, StoreKey, StoreStats};
pub use table::{Row, Table};

/// Geometric mean of positive values (zeroes are skipped).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        // Explicit left fold: summation order is slice order, by
        // construction (DESIGN §9).
        let total = logs.iter().fold(0.0_f64, |acc, v| acc + v);
        (total / logs.len() as f64).exp()
    }
}

/// Arithmetic mean (empty slice yields zero).
pub fn amean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        // Explicit left fold: summation order is slice order, by
        // construction (DESIGN §9).
        let total = values.iter().fold(0.0_f64, |acc, v| acc + v);
        total / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geomean(&[2.0, 0.5, 4.0, 0.25]);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amean_basic() {
        assert_eq!(amean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn geomean_skips_zeroes() {
        assert!((geomean(&[0.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
