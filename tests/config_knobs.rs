//! Every machine knob of `SystemConfig` changes the run.
//!
//! Each field that describes the simulated machine gets one row: a catalog
//! workload, a base configuration and a perturbation of that one field.
//! The row fails if the perturbed run's `SimReport::to_json()` is the base
//! run's, so a field the simulator never reads (or reads only through a
//! duplicate) cannot stay in the config, and in the result store's key,
//! unnoticed.
//!
//! The config is destructured exhaustively and every binding feeds its
//! row's perturbation, so with `unused_variables` denied a new field does
//! not compile until it gets a row.

#![deny(unused_variables)]

use numa_gpu::core::run_workload;
use numa_gpu::types::{
    CacheConfig, CacheMode, CtaSchedulingPolicy, DramConfig, LinkConfig, LinkMode, NocConfig,
    PagePlacement, SmConfig, SystemConfig, WritePolicy,
};
use numa_gpu::workloads::{by_name, Scale};
use std::collections::BTreeMap;

const HPGMG: &str = "HPC-HPGMG-UVM";
const GOOGLENET: &str = "ML-GoogLeNet-cudnn-Lev2";
const ALEXNET: &str = "ML-AlexNet-cudnn-Lev2";

/// The NUMA-aware 4-socket design, shrunk to 8 SMs a socket so quick
/// workloads load the memory system.
fn aware() -> SystemConfig {
    let mut cfg = SystemConfig::numa_aware_sockets(4);
    cfg.sm.sms_per_socket = 8;
    cfg
}

/// The locality runtime on dynamic links with a near-free lane turn, at
/// Table 1's 64 SMs a socket: the NUMA-aware caches, like a machine of 8
/// SMs a socket, leave too little link traffic for the turn cost to show.
fn dynamic_links() -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(4);
    cfg.link.mode = LinkMode::DynamicAsymmetric;
    cfg.link.switch_time_cycles = 10;
    cfg
}

/// Whichever of `a` and `b` is not `v`.
fn other<T: PartialEq>(v: T, a: T, b: T) -> T {
    if v == a {
        b
    } else {
        a
    }
}

struct Knob {
    field: &'static str,
    workload: &'static str,
    base: fn() -> SystemConfig,
    perturb: Box<dyn Fn(&mut SystemConfig)>,
}

fn knob(
    field: &'static str,
    workload: &'static str,
    base: fn() -> SystemConfig,
    perturb: impl Fn(&mut SystemConfig) + 'static,
) -> Knob {
    Knob {
        field,
        workload,
        base,
        perturb: Box::new(perturb),
    }
}

fn knobs() -> Vec<Knob> {
    let SystemConfig {
        num_sockets,
        sm:
            SmConfig {
                sms_per_socket,
                max_warps,
                max_ctas,
                mshrs,
            },
        l1:
            CacheConfig {
                size_bytes: l1_size,
                ways: l1_ways,
                hit_latency_cycles: l1_hit,
            },
        l2:
            CacheConfig {
                size_bytes: l2_size,
                ways: l2_ways,
                hit_latency_cycles: l2_hit,
            },
        dram:
            DramConfig {
                bytes_per_cycle: dram_rate,
                latency_cycles: dram_latency,
            },
        noc:
            NocConfig {
                bytes_per_cycle: noc_rate,
                latency_cycles: noc_latency,
            },
        link:
            LinkConfig {
                lanes_per_direction,
                lane_bytes_per_cycle,
                latency_cycles: link_latency,
                switch_time_cycles,
                sample_time_cycles: link_sample,
                mode: link_mode,
            },
        cache_mode,
        placement,
        cta_policy,
        ideal_no_l2_invalidate,
        l2_write_policy,
        // Report-invariant by contract, hence canonicalized out of the
        // store key: `obs` chooses what is recorded about a run, never its
        // timing; `max_cycles` only ends a run that would not finish; and
        // `sim_threads` is ignored (a simulation runs on one thread).
        obs: _,
        max_cycles: _,
        sim_threads: _,
    } = aware();
    vec![
        knob("num_sockets", HPGMG, aware, move |c| {
            c.num_sockets = num_sockets / 2
        }),
        knob("sm.sms_per_socket", HPGMG, aware, move |c| {
            c.sm.sms_per_socket = sms_per_socket / 2
        }),
        knob("sm.max_warps", GOOGLENET, aware, move |c| {
            c.sm.max_warps = max_warps / 16
        }),
        knob("sm.max_ctas", GOOGLENET, aware, move |c| {
            c.sm.max_ctas = max_ctas / 16
        }),
        knob("sm.mshrs", GOOGLENET, aware, move |c| {
            c.sm.mshrs = mshrs / 16
        }),
        knob("l1.size_bytes", ALEXNET, aware, move |c| {
            c.l1.size_bytes = l1_size / 8
        }),
        knob("l1.ways", ALEXNET, aware, move |c| c.l1.ways = l1_ways / 2),
        knob("l1.hit_latency_cycles", GOOGLENET, aware, move |c| {
            c.l1.hit_latency_cycles = l1_hit * 4
        }),
        knob("l2.size_bytes", ALEXNET, aware, move |c| {
            c.l2.size_bytes = l2_size / 8
        }),
        knob("l2.ways", ALEXNET, aware, move |c| c.l2.ways = l2_ways / 4),
        knob("l2.hit_latency_cycles", GOOGLENET, aware, move |c| {
            c.l2.hit_latency_cycles = l2_hit * 4
        }),
        knob("dram.bytes_per_cycle", HPGMG, aware, move |c| {
            c.dram.bytes_per_cycle = dram_rate / 8
        }),
        knob("dram.latency_cycles", HPGMG, aware, move |c| {
            c.dram.latency_cycles = dram_latency * 4
        }),
        knob("noc.bytes_per_cycle", HPGMG, aware, move |c| {
            c.noc.bytes_per_cycle = noc_rate / 16
        }),
        knob("noc.latency_cycles", HPGMG, aware, move |c| {
            c.noc.latency_cycles = noc_latency * 10
        }),
        knob("link.lanes_per_direction", HPGMG, aware, move |c| {
            c.link.lanes_per_direction = lanes_per_direction / 4
        }),
        knob("link.lane_bytes_per_cycle", HPGMG, aware, move |c| {
            c.link.lane_bytes_per_cycle = lane_bytes_per_cycle / 4
        }),
        knob("link.latency_cycles", HPGMG, aware, move |c| {
            c.link.latency_cycles = link_latency * 4
        }),
        knob("link.switch_time_cycles", HPGMG, dynamic_links, move |c| {
            c.link.switch_time_cycles = switch_time_cycles * 5
        }),
        knob("link.sample_time_cycles", HPGMG, aware, move |c| {
            c.link.sample_time_cycles = link_sample / 5
        }),
        knob("link.mode", HPGMG, aware, move |c| {
            c.link.mode = other(
                link_mode,
                LinkMode::DynamicAsymmetric,
                LinkMode::StaticSymmetric,
            )
        }),
        knob("cache_mode", HPGMG, aware, move |c| {
            c.cache_mode = other(
                cache_mode,
                CacheMode::NumaAwareDynamic,
                CacheMode::MemSideLocalOnly,
            )
        }),
        knob("placement", HPGMG, aware, move |c| {
            c.placement = other(
                placement,
                PagePlacement::FirstTouch,
                PagePlacement::PageInterleave,
            )
        }),
        knob("cta_policy", HPGMG, aware, move |c| {
            c.cta_policy = other(
                cta_policy,
                CtaSchedulingPolicy::ContiguousBlock,
                CtaSchedulingPolicy::Interleave,
            )
        }),
        knob("ideal_no_l2_invalidate", HPGMG, aware, move |c| {
            c.ideal_no_l2_invalidate = !ideal_no_l2_invalidate
        }),
        knob("l2_write_policy", HPGMG, aware, move |c| {
            c.l2_write_policy = other(
                l2_write_policy,
                WritePolicy::WriteBack,
                WritePolicy::WriteThrough,
            )
        }),
    ]
}

#[test]
fn every_machine_knob_moves_a_report() {
    let scale = Scale::quick();
    let report = |cfg: SystemConfig, workload: &str| {
        let wl = by_name(workload, &scale).expect("catalog workload");
        run_workload(cfg, &wl)
            .expect("a valid machine completes")
            .to_json()
            .to_string()
    };
    let mut base_reports = BTreeMap::new();
    let mut dead = Vec::new();
    for k in knobs() {
        let base = (k.base)();
        let mut changed = base.clone();
        (k.perturb)(&mut changed);
        assert_ne!(
            base, changed,
            "{}: the perturbation changes nothing",
            k.field
        );
        let key = (format!("{base:?}"), k.workload);
        let before = base_reports
            .entry(key)
            .or_insert_with(|| report(base, k.workload));
        if report(changed, k.workload) == *before {
            dead.push(format!("{} on {}", k.field, k.workload));
        }
    }
    assert!(
        dead.is_empty(),
        "these knobs leave every report byte-identical: {dead:?}"
    );
}
