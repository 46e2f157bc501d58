//! Two tenants on one large NUMA GPU (paper §6): when two workloads cannot
//! fill an 8-socket machine individually, is it better to time-multiplex
//! the whole machine or to partition it along NUMA boundaries into two
//! 4-socket logical GPUs?
//!
//! Time multiplexing runs the tenants one after another on all 8 sockets,
//! so its makespan is the sum of their runtimes. Space partitioning runs
//! them side by side on 4 sockets each, so its makespan is the slowest.
//!
//! ```text
//! cargo run --release --example multi_tenant_partitioning
//! ```

use numa_gpu::core::run_workload;
use numa_gpu::types::SystemConfig;
use numa_gpu::workloads::{by_name, Scale};

fn main() {
    // Two small-grid tenants that underfill a big machine.
    let tenants = ["Lonestar-SP", "HPC-MiniContact-Mesh1"]
        .map(|name| by_name(name, &Scale::quick()).expect("catalog workload"));
    let cycles = |sockets: u8| {
        tenants.each_ref().map(|wl| {
            run_workload(SystemConfig::numa_aware_sockets(sockets), wl)
                .expect("valid machine")
                .total_cycles
        })
    };
    let whole = cycles(8);
    let partition = cycles(4);
    let time_makespan: u64 = whole.iter().sum();
    let space_makespan = partition.into_iter().max().unwrap_or(0);

    println!("8-socket NUMA-aware GPU, two tenants:\n");
    for ((wl, t), s) in tenants.iter().zip(whole).zip(partition) {
        println!(
            "  {:24} whole-machine: {t:>9} cycles | 4-socket partition: {s:>9} cycles",
            wl.meta.name
        );
    }
    let per_mcycle = |makespan: u64| tenants.len() as f64 * 1.0e6 / makespan.max(1) as f64;
    println!(
        "\n  time-multiplexed makespan : {time_makespan:>9} cycles ({:.3} workloads/Mcycle)",
        per_mcycle(time_makespan)
    );
    println!(
        "  space-partitioned makespan: {space_makespan:>9} cycles ({:.3} workloads/Mcycle)",
        per_mcycle(space_makespan)
    );
    let gain = time_makespan as f64 / space_makespan.max(1) as f64;
    println!("\n  NUMA-boundary partitioning is {gain:.2}x better for these tenants —");
    println!("  each tenant keeps whole resource islands (SMs, L2, DRAM, link), so");
    println!("  isolation costs nothing and idle sockets disappear.");
}
