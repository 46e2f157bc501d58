//! Golden simulated statistics for a fixed quick-scale matrix, each
//! recorded on the commit *before* the change it gates: fnv1a64 of
//! `SimReport::to_json()` (before the cache tags, MSHR file, page table
//! and trace generator were flattened) and of `MetricsSnapshot::to_json()`
//! with `--metrics --profile` on (before the handle registry was replaced
//! by plain shard-owned counters folded at report time).
//!
//! CI's compare jobs only compare a build with itself; this is the gate
//! that compares a build with its parent. A speed-only change must leave
//! every hash below untouched — a change that moves them is a model change
//! and has to say so.

use numa_gpu::core::run_workload_with_faults;
use numa_gpu::faults::FaultPlan;
use numa_gpu::types::{ObsConfig, SystemConfig};
use numa_gpu::workloads::{by_name, Scale};
use numa_gpu_testkit::fnv1a64;

const WORKLOADS: [&str; 3] = ["Rodinia-Euler3D", "Other-Stream-Triad", "HPC-HPGMG-UVM"];

/// Every row's workload, configuration and fault plan: the 3 × 3 matrix,
/// then one NUMA-aware run with one link degraded and another retrained.
fn rows() -> Vec<(&'static str, &'static str, SystemConfig, &'static str)> {
    let mut rows = Vec::new();
    for name in WORKLOADS {
        rows.push((name, "single", SystemConfig::pascal_single(), ""));
        rows.push((name, "locality-4", SystemConfig::numa_sockets(4), ""));
        rows.push((
            name,
            "numa-aware-8",
            SystemConfig::numa_aware_sockets(8),
            "",
        ));
    }
    rows.push((
        "Rodinia-Euler3D",
        "numa-aware-8-faulted",
        SystemConfig::numa_aware_sockets(8),
        "lanes:s1@300=8;retrain:s2@600+200",
    ));
    rows
}

/// `(workload, config, report hash, metrics hash)`, recorded on the parent
/// commits (see the module doc).
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    (
        "Rodinia-Euler3D",
        "single",
        0x759aaa8c2266777c,
        0xf287ce393c95f9e0,
    ),
    (
        "Rodinia-Euler3D",
        "locality-4",
        0xbcfe1b47db15c0be,
        0x3a52768ab00d80cf,
    ),
    (
        "Rodinia-Euler3D",
        "numa-aware-8",
        0x5fa5601cafcf2a73,
        0xa90c018b1eaf4561,
    ),
    (
        "Other-Stream-Triad",
        "single",
        0xb73c668ea0e69ca3,
        0x40577c5377b33914,
    ),
    (
        "Other-Stream-Triad",
        "locality-4",
        0x4b6ef6112119b78b,
        0x4b19b083873b3652,
    ),
    (
        "Other-Stream-Triad",
        "numa-aware-8",
        0x267669f16c905825,
        0x5284db447b2b2cc2,
    ),
    (
        "HPC-HPGMG-UVM",
        "single",
        0xd980bb17f811a595,
        0x1a74cf72d859ecc9,
    ),
    (
        "HPC-HPGMG-UVM",
        "locality-4",
        0x0b5da97e430f952f,
        0x564d27e109e71000,
    ),
    (
        "HPC-HPGMG-UVM",
        "numa-aware-8",
        0x2229ac1dffa2a4fc,
        0x4e59c0bedb4b9294,
    ),
    (
        "Rodinia-Euler3D",
        "numa-aware-8-faulted",
        0x3a2ad0f5737fccb3,
        0x20c5d68d6a618812,
    ),
];

#[test]
fn quick_matrix_reports_match_the_recorded_hashes() {
    let scale = Scale::quick();
    let mut got = Vec::new();
    for (name, label, cfg, faults) in rows() {
        let wl = by_name(name, &scale).expect("catalog workload");
        let plan = FaultPlan::parse(faults).expect("fault grammar");
        let report = run_workload_with_faults(cfg.clone(), &wl, &plan).expect("clean run");
        // Link-byte conservation: every byte one socket's link sends is
        // received by another's, the faulted run included.
        let egress: u64 = report.sockets.iter().map(|s| s.egress_bytes).sum();
        let ingress: u64 = report.sockets.iter().map(|s| s.ingress_bytes).sum();
        assert_eq!(
            egress, ingress,
            "{name} on {label}: link bytes not conserved"
        );
        let mut observed = cfg;
        observed.obs = ObsConfig {
            metrics: true,
            profile: true,
            ..ObsConfig::off()
        };
        let metrics = run_workload_with_faults(observed, &wl, &plan)
            .expect("observed run")
            .metrics
            .expect("metrics were asked for");
        got.push((
            name,
            label,
            fnv1a64(report.to_json().to_string().as_bytes()),
            fnv1a64(metrics.to_json().to_string().as_bytes()),
        ));
    }
    let listing: String = got
        .iter()
        .map(|(w, c, r, m)| format!("    (\"{w}\", \"{c}\", {r:#018x}, {m:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "computed table:\n{listing}");
}
