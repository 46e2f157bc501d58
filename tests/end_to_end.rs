//! End-to-end integration tests: full workloads through full systems.

use numa_gpu::core::{run_workload, NumaGpuSystem};
use numa_gpu::runtime::{Kernel, Suite, Workload, WorkloadMeta};
use numa_gpu::types::{CacheMode, CtaSchedulingPolicy, LinkMode, PagePlacement, SystemConfig};
use numa_gpu::workloads::{by_name, catalog, KernelSpec, Pattern, PatternKernel, Scale};
use std::sync::Arc;

/// A purpose-built workload whose hot shared structure is reused heavily —
/// quick-scale catalog workloads are too small to show cache reuse.
fn shared_hot_workload() -> Workload {
    let spec = KernelSpec {
        name: "hot".into(),
        ctas: 64,
        warps_per_cta: 8,
        ops_per_warp: 64,
        compute_per_mem: 2,
        read_fraction: 0.9,
        pattern: Pattern::SharedRead {
            shared_fraction: 0.9,
            shared_bytes: 256 * 1024,
            shared_read_fraction: 1.0,
        },
        region_offset: 0,
        region_bytes: 16 << 20,
        seed: 11,
    };
    Workload {
        meta: WorkloadMeta {
            name: "shared-hot".into(),
            suite: Suite::Other,
            paper_avg_ctas: 64,
            paper_footprint_mb: 16,
            study_set: true,
        },
        kernels: vec![Arc::new(PatternKernel::new(spec)) as Arc<dyn Kernel>],
        footprint_bytes: 16 << 20,
    }
}

/// A large streaming workload with enough CTAs to feed eight sockets.
fn wide_streaming_workload() -> Workload {
    let spec = KernelSpec {
        name: "stream".into(),
        ctas: 512,
        warps_per_cta: 4,
        ops_per_warp: 16,
        compute_per_mem: 4,
        read_fraction: 0.67,
        pattern: Pattern::Streaming,
        region_offset: 0,
        region_bytes: 64 << 20,
        seed: 3,
    };
    Workload {
        meta: WorkloadMeta {
            name: "wide-streaming".into(),
            suite: Suite::Other,
            paper_avg_ctas: 512,
            paper_footprint_mb: 64,
            study_set: false,
        },
        kernels: vec![Arc::new(PatternKernel::new(spec)) as Arc<dyn Kernel>],
        footprint_bytes: 64 << 20,
    }
}

fn quick() -> Scale {
    Scale::quick()
}

#[test]
fn single_gpu_runs_every_workload() {
    for wl in catalog(&quick()) {
        let r = run_workload(SystemConfig::pascal_single(), &wl).unwrap();
        assert!(r.total_cycles > 0, "{} took zero cycles", wl.meta.name);
        assert_eq!(r.kernel_cycles.len(), wl.kernels.len());
        assert_eq!(r.sockets.len(), 1);
        // A single socket never touches the switch.
        assert_eq!(r.interconnect_bytes, 0, "{}", wl.meta.name);
        assert_eq!(r.remote_read_fraction, 0.0);
    }
}

#[test]
fn four_socket_numa_aware_runs_every_workload() {
    for wl in catalog(&quick()) {
        let r = run_workload(SystemConfig::numa_aware_sockets(4), &wl).unwrap();
        assert!(r.total_cycles > 0, "{}", wl.meta.name);
        assert_eq!(r.sockets.len(), 4);
    }
}

#[test]
fn determinism_same_config_same_cycles() {
    let wl = by_name("Rodinia-Euler3D", &quick()).unwrap();
    let a = run_workload(SystemConfig::numa_aware_sockets(4), &wl).unwrap();
    let b = run_workload(SystemConfig::numa_aware_sockets(4), &wl).unwrap();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.interconnect_bytes, b.interconnect_bytes);
    assert_eq!(a.kernel_cycles, b.kernel_cycles);
}

#[test]
fn locality_runtime_beats_traditional_on_streaming() {
    let wl = by_name("Other-Stream-Triad", &quick()).unwrap();
    let mut trad = SystemConfig::numa_sockets(4);
    trad.placement = PagePlacement::FineInterleave;
    trad.cta_policy = CtaSchedulingPolicy::Interleave;
    let trad_r = run_workload(trad, &wl).unwrap();
    let loc_r = run_workload(SystemConfig::numa_sockets(4), &wl).unwrap();
    assert!(
        loc_r.total_cycles < trad_r.total_cycles,
        "locality {} !< traditional {}",
        loc_r.total_cycles,
        trad_r.total_cycles
    );
    // Streaming under first-touch + contiguous CTAs is almost all local.
    assert!(loc_r.remote_read_fraction < 0.1);
    // Under fine interleave on 4 sockets it is ~75% remote.
    let mut trad2 = SystemConfig::numa_sockets(4);
    trad2.placement = PagePlacement::FineInterleave;
    trad2.cta_policy = CtaSchedulingPolicy::Interleave;
    let t = run_workload(trad2, &wl).unwrap();
    assert!(t.remote_read_fraction > 0.6);
}

#[test]
fn interconnect_traffic_only_with_remote_accesses() {
    let wl = by_name("Other-Stream-Triad", &quick()).unwrap();
    let loc = run_workload(SystemConfig::numa_sockets(4), &wl).unwrap();
    let mut trad = SystemConfig::numa_sockets(4);
    trad.placement = PagePlacement::FineInterleave;
    let t = run_workload(trad, &wl).unwrap();
    assert!(t.interconnect_bytes > 10 * loc.interconnect_bytes);
}

#[test]
fn double_bandwidth_never_slower() {
    for name in ["Rodinia-Euler3D", "HPC-AMG", "HPC-HPGMG-UVM"] {
        let wl = by_name(name, &quick()).unwrap();
        let base = run_workload(SystemConfig::numa_sockets(4), &wl).unwrap();
        let mut dbl = SystemConfig::numa_sockets(4);
        dbl.link.lane_bytes_per_cycle *= 2;
        let d = run_workload(dbl, &wl).unwrap();
        // Allow 2% noise for sampling-period interactions.
        assert!(
            (d.total_cycles as f64) < 1.02 * base.total_cycles as f64,
            "{name}: 2x BW slower ({} vs {})",
            d.total_cycles,
            base.total_cycles
        );
    }
}

#[test]
fn dynamic_links_turn_lanes_on_phased_workload() {
    let wl = by_name("HPC-HPGMG-UVM", &quick()).unwrap();
    let mut cfg = SystemConfig::numa_sockets(4);
    cfg.link.mode = LinkMode::DynamicAsymmetric;
    let r = run_workload(cfg, &wl).unwrap();
    assert!(r.lane_turns() > 0, "no lanes turned");
}

#[test]
fn static_links_never_turn() {
    let wl = by_name("HPC-HPGMG-UVM", &quick()).unwrap();
    let r = run_workload(SystemConfig::numa_sockets(4), &wl).unwrap();
    assert_eq!(r.lane_turns(), 0);
}

#[test]
fn cache_modes_all_run_and_remote_hits_only_when_cached() {
    let wl = by_name("HPC-RSBench", &quick()).unwrap();
    let mut memside = SystemConfig::numa_sockets(4);
    memside.cache_mode = CacheMode::MemSideLocalOnly;
    let m = run_workload(memside, &wl).unwrap();
    // Mem-side L2 never caches remote lines.
    for s in &m.sockets {
        assert_eq!(s.l2.remote_hits.get(), 0);
        assert_eq!(s.l2.remote_misses.get(), 0);
    }
    let mut shared = SystemConfig::numa_sockets(4);
    shared.cache_mode = CacheMode::SharedCoherent;
    let sh = run_workload(shared, &wl).unwrap();
    let remote_l2: u64 = sh.sockets.iter().map(|s| s.l2.remote_hits.get()).sum();
    assert!(
        remote_l2 > 0,
        "shared coherent L2 should hit on remote data"
    );
}

#[test]
fn numa_aware_cache_helps_shared_read_workload() {
    let wl = shared_hot_workload();
    let base = run_workload(SystemConfig::numa_sockets(4), &wl).unwrap();
    let mut na = SystemConfig::numa_sockets(4);
    na.cache_mode = CacheMode::NumaAwareDynamic;
    let n = run_workload(na, &wl).unwrap();
    assert!(
        n.total_cycles < base.total_cycles,
        "NUMA-aware cache should beat mem-side baseline on a hot shared set \
         ({} vs {})",
        n.total_cycles,
        base.total_cycles
    );
    // And it should cut interconnect traffic.
    assert!(n.interconnect_bytes < base.interconnect_bytes);
}

#[test]
fn ideal_no_invalidate_at_least_as_fast() {
    let wl = by_name("Rodinia-Euler3D", &quick()).unwrap();
    let mut real = SystemConfig::numa_sockets(4);
    real.cache_mode = CacheMode::NumaAwareDynamic;
    let mut ideal = real.clone();
    ideal.ideal_no_l2_invalidate = true;
    let r = run_workload(real, &wl).unwrap();
    let i = run_workload(ideal, &wl).unwrap();
    assert!(
        i.total_cycles <= r.total_cycles,
        "ignoring invalidations cannot be slower ({} vs {})",
        i.total_cycles,
        r.total_cycles
    );
}

#[test]
fn scalability_two_to_eight_sockets() {
    let wl = wide_streaming_workload();
    let single = run_workload(SystemConfig::pascal_single(), &wl).unwrap();
    let mut last = f64::MAX;
    for n in [2u8, 4, 8] {
        let r = run_workload(SystemConfig::numa_aware_sockets(n), &wl).unwrap();
        let cycles = r.total_cycles as f64;
        assert!(
            cycles < single.total_cycles as f64,
            "{n}-socket slower than single GPU on streaming"
        );
        // Modest slack: queueing noise at socket boundaries.
        assert!(
            cycles <= 1.05 * last,
            "more sockets should not slow streaming ({n} sockets: {cycles} vs {last})"
        );
        last = last.min(cycles);
    }
}

#[test]
fn hypothetical_scaled_gpu_helps_large_workloads() {
    let wl = by_name("HPC-MiniAMR", &quick()).unwrap();
    let single = run_workload(SystemConfig::pascal_single(), &wl).unwrap();
    let hypo = run_workload(SystemConfig::hypothetical_scaled(4), &wl).unwrap();
    assert!(hypo.total_cycles < single.total_cycles);
}

#[test]
fn timeline_recording_produces_samples() {
    let wl = by_name("HPC-HPGMG-UVM", &quick()).unwrap();
    let mut sys = NumaGpuSystem::new(SystemConfig::numa_sockets(4)).unwrap();
    sys.enable_link_timeline();
    let r = sys.run(&wl).unwrap();
    assert_eq!(r.link_timelines.len(), 4);
    assert!(r.link_timelines.iter().all(|t| !t.is_empty()));
    // Kernel start marks exist for the Fig-5 dotted lines.
    assert_eq!(r.kernel_start_cycles.len(), wl.kernels.len());
}

#[test]
fn power_model_reports_nonzero_for_communicating_workloads() {
    let wl = by_name("HPC-AMG", &quick()).unwrap();
    let mut trad = SystemConfig::numa_sockets(4);
    trad.placement = PagePlacement::FineInterleave;
    let r = run_workload(trad, &wl).unwrap();
    assert!(r.link_power_w > 0.0);
}

#[test]
fn system_run_is_single_use() {
    let wl = by_name("Other-Bitcoin-Crypto", &quick()).unwrap();
    let mut sys = NumaGpuSystem::new(SystemConfig::pascal_single()).unwrap();
    let _ = sys.run(&wl);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(&wl)));
    assert!(result.is_err(), "second run must panic");
}

/// The socket cap is 32: a 32-socket machine builds and completes a run.
#[test]
fn thirty_two_socket_star_completes() {
    let wl = by_name("Other-Stream-Triad", &quick()).unwrap();
    let r = run_workload(SystemConfig::numa_aware_sockets(32), &wl).unwrap();
    assert!(r.total_cycles > 0);
    assert_eq!(r.sockets.len(), 32);
}

/// Paper §6: two tenants that underfill an 8-socket machine finish sooner
/// side by side on a 4-socket partition each (makespan = the slower) than
/// one after another on the whole machine (makespan = the sum).
#[test]
fn numa_boundary_partitions_beat_time_multiplexing_for_small_tenants() {
    let tenants = ["Lonestar-SP", "HPC-MiniContact-Mesh1"].map(|n| by_name(n, &quick()).unwrap());
    let cycles = |sockets: u8| {
        tenants.each_ref().map(|wl| {
            run_workload(SystemConfig::numa_aware_sockets(sockets), wl)
                .unwrap()
                .total_cycles
        })
    };
    let space = cycles(4).into_iter().max().unwrap();
    let time: u64 = cycles(8).into_iter().sum();
    assert!(space < time, "space {space} !< time {time}");
}
