//! Concurrency hammer for the partitioned event loop: repeated 8-socket
//! runs with randomized (but seed-deterministic) `sim_threads` counts must
//! all hash-match the serial baseline. Thread scheduling is the one input
//! the simulator does not control, so the only way to gain confidence that
//! no ordering leak survives is volume — many runs, many thread counts.

use numa_gpu::core::{run_workload, run_workload_with_faults};
use numa_gpu::faults::FaultPlan;
use numa_gpu::types::SystemConfig;
use numa_gpu::workloads::{by_name, Scale};
use numa_gpu_testkit::fnv1a64;

/// splitmix64 — a tiny, well-mixed PRNG so the "random" thread counts are
/// reproducible from the literal seed (no ambient entropy in tests).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the serialized report and trace — a cheap content hash;
/// any single-byte divergence changes it.
fn report_hash(cfg: SystemConfig, faults: Option<&FaultPlan>) -> u64 {
    let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
    let report = match faults {
        Some(plan) => run_workload_with_faults(cfg, &wl, plan).unwrap(),
        None => run_workload(cfg, &wl).unwrap(),
    };
    let mut doc = report.to_json().to_string();
    doc.push_str(&report.chrome_trace().to_string());
    fnv1a64(doc.as_bytes())
}

fn hammer(iterations: u32, seed: u64, faults: Option<&FaultPlan>) {
    let mut cfg = SystemConfig::numa_aware_sockets(8);
    cfg.sim_threads = 1;
    let baseline = report_hash(cfg.clone(), faults);
    let mut rng = seed;
    for i in 0..iterations {
        // 0 (= auto) through 8 (one worker per socket) are all legal.
        let threads = (splitmix64(&mut rng) % 9) as u16;
        cfg.sim_threads = threads;
        assert_eq!(
            report_hash(cfg.clone(), faults),
            baseline,
            "iteration {i}: sim_threads={threads} diverged from the serial baseline"
        );
    }
}

#[test]
fn hammer_clean_8_socket_runs() {
    hammer(20, 0x5eed_0001, None);
}

#[test]
fn hammer_faulted_8_socket_runs() {
    let plan = FaultPlan::parse("lanes:s3@300=8; dram:s0@500+200; sm:0-1@800").unwrap();
    hammer(20, 0x5eed_0002, Some(&plan));
}

/// Long-soak variant for local use: `cargo test -- --ignored` runs 200
/// iterations per battery. Not part of the default tier-1 gate.
#[test]
#[ignore = "long soak; run explicitly with --ignored"]
fn hammer_long_soak() {
    hammer(200, 0x5eed_1001, None);
    let plan = FaultPlan::parse("lanes:s3@300=8; dram:s0@500+200; sm:0-1@800").unwrap();
    hammer(200, 0x5eed_1002, Some(&plan));
}
