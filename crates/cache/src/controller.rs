//! The NUMA-aware cache partitioning algorithm of Figure 7(d).

use crate::WayPartition;

/// Decision taken by one sampling period of the partition controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionAction {
    /// Step 2: inter-GPU link saturated, DRAM not — grow remote ways.
    GrowRemote,
    /// Step 3: DRAM saturated, link not — grow local ways.
    GrowLocal,
    /// Step 4: both saturated — move one way toward an even split.
    Equalize,
    /// Step 5: neither saturated — do nothing.
    Hold,
}

/// Reproduces the paper's cache partitioning algorithm verbatim:
///
/// ```text
/// 0) Allocate 1/2 ways for local and 1/2 for remote data
/// 1) Estimate incoming inter-GPU BW and monitor local DRAM outgoing BW
/// 2) If inter-GPU BW is saturated and DRAM BW not -> RemoteWays++, LocalWays--
/// 3) If DRAM BW is saturated and inter-GPU BW not -> RemoteWays--, LocalWays++
/// 4) If both are saturated -> equalize allocated ways
/// 5) None of them is saturated -> do nothing
/// 6) Go back to 1) after SampleTime cycles
/// ```
///
/// The controller is a pure decision function plus partition state, so it is
/// unit-testable without a full system; the simulator feeds it saturation
/// flags each sampling period and pushes the updated [`WayPartition`] into
/// the socket's L1s and L2.
///
/// # Examples
///
/// ```
/// use numa_gpu_cache::{PartitionAction, PartitionController};
///
/// let mut ctl = PartitionController::new(16);
/// // Link saturated, DRAM idle: capacity shifts toward remote data.
/// assert_eq!(ctl.step(true, false), PartitionAction::GrowRemote);
/// assert_eq!(ctl.partition().remote_ways(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionController {
    partition: WayPartition,
}

impl PartitionController {
    /// Creates a controller for a cache with `total_ways`, starting at the
    /// even split of step 0.
    ///
    /// # Panics
    ///
    /// Panics if `total_ways < 2`.
    pub fn new(total_ways: u16) -> Self {
        PartitionController {
            partition: WayPartition::balanced(total_ways),
        }
    }

    /// Executes one sampling period given the two saturation inputs
    /// (step 1 estimates happen in the caller) and returns the action taken.
    /// The internal partition is updated in place.
    pub fn step(&mut self, link_saturated: bool, dram_saturated: bool) -> PartitionAction {
        match (link_saturated, dram_saturated) {
            (true, false) => {
                self.partition.grow_remote();
                PartitionAction::GrowRemote
            }
            (false, true) => {
                self.partition.grow_local();
                PartitionAction::GrowLocal
            }
            (true, true) => {
                self.partition.equalize_step();
                PartitionAction::Equalize
            }
            (false, false) => PartitionAction::Hold,
        }
    }

    /// The current way partition.
    pub fn partition(&self) -> WayPartition {
        self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_balanced() {
        let ctl = PartitionController::new(16);
        assert_eq!(ctl.partition().local_ways(), 8);
    }

    #[test]
    fn sustained_link_saturation_converges_to_remote_heavy() {
        let mut ctl = PartitionController::new(16);
        for _ in 0..100 {
            ctl.step(true, false);
        }
        assert_eq!(ctl.partition().local_ways(), 1);
        assert_eq!(ctl.partition().remote_ways(), 15);
    }

    #[test]
    fn sustained_dram_saturation_converges_to_local_heavy() {
        let mut ctl = PartitionController::new(16);
        for _ in 0..100 {
            ctl.step(false, true);
        }
        assert_eq!(ctl.partition().remote_ways(), 1);
    }

    #[test]
    fn both_saturated_equalizes() {
        let mut ctl = PartitionController::new(16);
        for _ in 0..7 {
            ctl.step(true, false); // skew remote-heavy
        }
        assert_eq!(ctl.partition().local_ways(), 1);
        for _ in 0..10 {
            ctl.step(true, true);
        }
        assert_eq!(ctl.partition().local_ways(), 8);
    }

    #[test]
    fn idle_holds() {
        let mut ctl = PartitionController::new(16);
        let before = ctl.partition();
        assert_eq!(ctl.step(false, false), PartitionAction::Hold);
        assert_eq!(ctl.partition(), before);
    }
}
