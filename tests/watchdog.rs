//! Watchdog integration test: an exhausted cycle budget ends the run with
//! `SimError::CycleLimit`. The stall detector (its deadlock path and the
//! cross-partition deliveries that count as progress) is covered by unit
//! tests in `numa-gpu-core`, which narrow the stall window through the
//! crate's own state.

use numa_gpu::core::NumaGpuSystem;
use numa_gpu::types::{SimError, SystemConfig};
use numa_gpu::workloads::{by_name, Scale};

#[test]
fn cycle_budget_trips_the_watchdog() {
    let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
    let mut cfg = SystemConfig::numa_aware_sockets(4);
    cfg.max_cycles = 50;
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
