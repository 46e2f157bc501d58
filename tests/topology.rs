//! Topology-layer integration tests: the star fabric is the paper's
//! switch (flag and default must match byte for byte), interior-edge
//! faults address off-star links deterministically, and the collective
//! workloads run on every fabric with their NUMA-aware variants moving
//! strictly less link traffic.

use std::process::Command;

use numa_gpu::core::{run_workload, run_workload_with_faults};
use numa_gpu::faults::FaultPlan;
use numa_gpu::types::{SystemConfig, TopologyKind};
use numa_gpu::workloads::{by_name, collective_by_name, Scale};

fn cfg_with(kind: TopologyKind, sockets: u8) -> SystemConfig {
    let mut cfg = SystemConfig::numa_aware_sockets(sockets);
    cfg.topology = kind;
    cfg
}

fn simulate(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs");
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// `--topology star` is the default spelled out: stdout must be identical
/// with and without the flag. This is the CLI face of the refactor's
/// prime acceptance criterion — the star fabric reproduces the
/// pre-topology switch exactly.
#[test]
fn star_flag_matches_default_byte_for_byte() {
    let base = [
        "--workload",
        "Other-Stream-Triad",
        "--quick",
        "--sockets",
        "4",
    ];
    let mut with_flag = base.to_vec();
    with_flag.extend(["--topology", "star"]);
    assert_eq!(
        simulate(&base),
        simulate(&with_flag),
        "--topology star must be a no-op relative to the default"
    );
}

/// Fault injection addresses links by edge id; on an 8-socket ring edges
/// 8..16 are interior switch-to-switch links. A plan degrading one must
/// validate, perturb the run, and stay deterministic across runs.
#[test]
fn interior_edge_faults_are_valid_and_deterministic() {
    let wl = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
    let plan = FaultPlan::parse("lanes:s10@300=8; retrain:s12@600+200").unwrap();
    let clean = run_workload(cfg_with(TopologyKind::Ring, 8), &wl).unwrap();
    let a = run_workload_with_faults(cfg_with(TopologyKind::Ring, 8), &wl, &plan).unwrap();
    let b = run_workload_with_faults(cfg_with(TopologyKind::Ring, 8), &wl, &plan).unwrap();
    assert_eq!(
        a.to_json().to_string(),
        b.to_json().to_string(),
        "faulted ring run must be deterministic"
    );
    assert_ne!(
        clean.total_cycles, a.total_cycles,
        "degrading an interior edge must perturb a ring run"
    );
    let res = a
        .resilience
        .as_ref()
        .expect("faulted run reports resilience");
    assert!(
        res.links.len() > 8,
        "resilience must cover interior edges, got {}",
        res.links.len()
    );
}

/// The same interior-edge plan must be rejected on the star fabric, whose
/// only edges are the 8 access links.
#[test]
fn interior_edge_fault_is_out_of_range_on_star() {
    let wl = by_name("Other-Stream-Triad", &Scale::quick()).unwrap();
    let plan = FaultPlan::parse("lanes:s10@300=8").unwrap();
    let err = run_workload_with_faults(cfg_with(TopologyKind::Star, 8), &wl, &plan)
        .expect_err("edge 10 does not exist on an 8-socket star");
    assert!(
        err.to_string().contains("out of range"),
        "unexpected error: {err}"
    );
}

/// Collectives run on every fabric, and the NUMA-aware variant of each
/// moves strictly less link traffic than its naive twin (that spread is
/// the point of the workload pair).
#[test]
fn numa_aware_collectives_move_less_link_traffic() {
    for kind in [TopologyKind::Star, TopologyKind::Ring] {
        for (naive, aware) in [
            ("Coll-AllToAll", "Coll-AllToAll-NUMA"),
            ("Coll-AllReduce-Ring", "Coll-AllReduce-Ring-NUMA"),
        ] {
            let n = collective_by_name(naive, 8, &Scale::quick()).unwrap();
            let a = collective_by_name(aware, 8, &Scale::quick()).unwrap();
            let rn = run_workload(cfg_with(kind, 8), &n).unwrap();
            let ra = run_workload(cfg_with(kind, 8), &a).unwrap();
            assert!(
                ra.interconnect_bytes < rn.interconnect_bytes,
                "{kind:?}: {aware} must move less than {naive} ({} vs {})",
                ra.interconnect_bytes,
                rn.interconnect_bytes
            );
        }
    }
}

/// The relaxed socket cap: a 32-socket machine builds and completes a run
/// on an off-star fabric.
#[test]
fn thirty_two_socket_mesh_completes() {
    let wl = by_name("Other-Stream-Triad", &Scale::quick()).unwrap();
    let r = run_workload(cfg_with(TopologyKind::Mesh2d, 32), &wl).unwrap();
    assert!(r.total_cycles > 0);
    assert_eq!(r.sockets.len(), 32);
}
