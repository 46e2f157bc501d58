//! Golden simulated statistics: fnv1a64 of `SimReport::to_json()` for a
//! fixed quick-scale matrix, recorded on the commit *before* the cache
//! tags, MSHR file, page table and trace generator were flattened.
//!
//! CI's compare jobs only compare a build with itself; this is the gate
//! that compares a build with its parent. A speed-only change must leave
//! every hash below untouched — a change that moves them is a model change
//! and has to say so.

use numa_gpu::core::run_workload;
use numa_gpu::types::SystemConfig;
use numa_gpu::workloads::{by_name, Scale};
use numa_gpu_testkit::fnv1a64;

const WORKLOADS: [&str; 3] = ["Rodinia-Euler3D", "Other-Stream-Triad", "HPC-HPGMG-UVM"];

fn configs() -> [(&'static str, SystemConfig); 3] {
    [
        ("single", SystemConfig::pascal_single()),
        ("locality-4", SystemConfig::numa_sockets(4)),
        ("numa-aware-8", SystemConfig::numa_aware_sockets(8)),
    ]
}

/// Recorded on the parent commit (see the module doc).
const GOLDEN: &[(&str, &str, u64)] = &[
    ("Rodinia-Euler3D", "single", 0x759aaa8c2266777c),
    ("Rodinia-Euler3D", "locality-4", 0xbcfe1b47db15c0be),
    ("Rodinia-Euler3D", "numa-aware-8", 0x5fa5601cafcf2a73),
    ("Other-Stream-Triad", "single", 0xb73c668ea0e69ca3),
    ("Other-Stream-Triad", "locality-4", 0x4b6ef6112119b78b),
    ("Other-Stream-Triad", "numa-aware-8", 0x267669f16c905825),
    ("HPC-HPGMG-UVM", "single", 0xd980bb17f811a595),
    ("HPC-HPGMG-UVM", "locality-4", 0x0b5da97e430f952f),
    ("HPC-HPGMG-UVM", "numa-aware-8", 0x2229ac1dffa2a4fc),
];

#[test]
fn quick_matrix_reports_match_the_recorded_hashes() {
    let scale = Scale::quick();
    let mut got = Vec::new();
    for name in WORKLOADS {
        let wl = by_name(name, &scale).expect("catalog workload");
        for (label, cfg) in configs() {
            let report = run_workload(cfg, &wl).expect("clean run");
            got.push((
                name,
                label,
                fnv1a64(report.to_json().to_string().as_bytes()),
            ));
        }
    }
    let listing: String = got
        .iter()
        .map(|(w, c, h)| format!("    (\"{w}\", \"{c}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "computed table:\n{listing}");
}
