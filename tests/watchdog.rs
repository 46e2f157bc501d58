//! Watchdog integration tests: a barrier-heavy run under a tight stall
//! window completes, and an exhausted cycle budget ends the run with
//! `SimError::CycleLimit`. The stall detector's deadlock path is covered
//! by a unit test in `numa-gpu-core`, which strands a launched kernel
//! through the crate's own state.

use numa_gpu::core::{run_workload, NumaGpuSystem};
use numa_gpu::types::{CtaSchedulingPolicy, PagePlacement, SimError, SystemConfig};
use numa_gpu::workloads::{by_name, Scale};

fn quick() -> Scale {
    Scale::quick()
}

/// Regression for the watchdog fix: cross-partition message deliveries
/// count as forward progress. A barrier-heavy run — fine-interleaved
/// cache lines plus interleaved CTA scheduling on 2 sockets, so roughly
/// half of all memory traffic crosses the switch — must complete under a
/// no-progress window far tighter than the default. Before the fix,
/// windows in which only cross-socket deliveries advanced the machine
/// looked like stalls and tripped the detector spuriously.
#[test]
fn cross_partition_deliveries_count_as_watchdog_progress() {
    let wl = by_name("HPC-HPGMG-UVM", &quick()).unwrap();
    let mut cfg = SystemConfig::numa_aware_sockets(2);
    cfg.placement = PagePlacement::FineInterleave;
    cfg.cta_policy = CtaSchedulingPolicy::Interleave;
    cfg.watchdog.stall_cycles = 2_000;
    let r = run_workload(cfg, &wl).unwrap();
    assert!(
        r.total_cycles > 0,
        "barrier-heavy run must complete under a tight stall window"
    );
}

#[test]
fn cycle_budget_trips_the_watchdog() {
    let wl = by_name("Rodinia-Euler3D", &quick()).unwrap();
    let mut cfg = SystemConfig::numa_aware_sockets(4);
    cfg.watchdog.max_cycles = 50;
    let mut sys = NumaGpuSystem::new(cfg).unwrap();
    match sys.run(&wl) {
        Err(SimError::CycleLimit {
            limit_cycles,
            at_cycle,
        }) => {
            assert_eq!(limit_cycles, 50);
            assert!(at_cycle >= 50);
        }
        other => panic!("expected CycleLimit, got {other:?}"),
    }
}
