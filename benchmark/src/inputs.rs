//! Workload inputs, all generated from `--seed`.
//!
//! Sizes are compile-time constants, the same on every commit, so two
//! commits always simulate the same thing. The simulator never sees the
//! seed itself, only the inputs built from it.

use numa_gpu_bench::{experiments, SimPlan};
use numa_gpu_runtime::{socket_for_cta, Kernel, Suite, Workload, WorkloadMeta};
use numa_gpu_serve::JobSpec;
use numa_gpu_testkit::rng::DetRng;
use numa_gpu_types::{CtaId, MemKind, SystemConfig, WarpOp};
use numa_gpu_workloads::{catalog, KernelSpec, Pattern, PatternKernel, Scale, WORKLOAD_NAMES};
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

const MIB: u64 = 1024 * 1024;

/// The three simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Euler3D shape on 8 sockets: most reads are remote, so the links,
    /// routing, remote L2 ways and the barrier merge do real work.
    RemoteIrregular,
    /// DRAM-saturated streaming on 8 sockets: no cross-socket traffic, a
    /// backlog deeper than the event queue's calendar window.
    LocalStream,
    /// Tiled reuse on 4 sockets: L1/L2 hits, SM issue and the event
    /// queue's near-tick path do nearly all the work.
    HitTiled,
}

impl SimKind {
    pub fn from_name(name: &str) -> Option<SimKind> {
        match name {
            "remote_irregular" => Some(SimKind::RemoteIrregular),
            "local_stream" => Some(SimKind::LocalStream),
            "hit_tiled" => Some(SimKind::HitTiled),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SimKind::RemoteIrregular => "remote_irregular",
            SimKind::LocalStream => "local_stream",
            SimKind::HitTiled => "hit_tiled",
        }
    }
}

/// One simulation workload, ready to run, with what the benchmark itself
/// counted in it (so the simulator cannot change a throughput numerator).
pub struct SimInput {
    pub cfg: SystemConfig,
    pub workload: Workload,
    /// Warp ops (compute and memory) in the generated traces.
    pub warp_ops: u64,
    /// Memory warp ops among them.
    pub mem_ops: u64,
    pub ctas: u64,
    /// Hash of every generated op, in [`visit_ops`] order; the same in
    /// every run of one build, which is all the seed tests need.
    pub fingerprint: u64,
}

fn kernel_seed(seed: u64, kernel: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(kernel.wrapping_mul(0x5bd1_e995))
}

/// Builds a simulation workload from the public `KernelSpec` /
/// `PatternKernel` / `Workload` types. `smoke` shrinks it to about 1/20 of
/// the work with the same structure.
///
/// A repetition is kept under a second (the ops per warp are a third, a
/// half and a quarter of the issue's proposal): the reference box's noise
/// comes in bursts of about a second, so a run needs fifteen or more
/// repetitions for its fastest one to be an undisturbed one. The CTA and
/// warp counts, which set each workload's regime, are the proposal's.
pub fn sim_input(kind: SimKind, seed: u64, smoke: bool) -> SimInput {
    let shrink = |ctas: u32, ops: u32| {
        if smoke {
            (ctas / 4, ops / 5)
        } else {
            (ctas, ops)
        }
    };
    let (sockets, footprint, specs): (u8, u64, Vec<KernelSpec>) = match kind {
        SimKind::RemoteIrregular => {
            let (ctas, ops) = shrink(252, 32);
            let specs = (0..2u64)
                .map(|k| KernelSpec {
                    name: format!("irregular#{k}"),
                    ctas,
                    warps_per_cta: 8,
                    ops_per_warp: ops,
                    compute_per_mem: 4,
                    read_fraction: 0.6,
                    pattern: Pattern::SharedRead {
                        shared_fraction: 0.8,
                        shared_bytes: 5 * MIB / 2,
                        shared_read_fraction: 0.65,
                    },
                    region_offset: 0,
                    region_bytes: 25 * MIB,
                    seed: kernel_seed(seed, k),
                })
                .collect();
            (8, 25 * MIB, specs)
        }
        SimKind::LocalStream => {
            let (ctas, ops) = shrink(1536, 32);
            let spec = KernelSpec {
                name: "stream#0".to_string(),
                ctas,
                warps_per_cta: 4,
                ops_per_warp: ops,
                compute_per_mem: 4,
                read_fraction: 0.67,
                pattern: Pattern::Streaming,
                region_offset: 0,
                region_bytes: 128 * MIB,
                seed: kernel_seed(seed, 0),
            };
            (8, 128 * MIB, vec![spec])
        }
        SimKind::HitTiled => {
            let (ctas, ops) = shrink(512, 256);
            let specs = (0..3u64)
                .map(|k| KernelSpec {
                    name: format!("tile#{k}"),
                    ctas,
                    warps_per_cta: 4,
                    ops_per_warp: ops,
                    compute_per_mem: 10,
                    read_fraction: 0.8,
                    pattern: Pattern::Tiled { reuse: 8 },
                    region_offset: k * 16 * MIB,
                    region_bytes: 16 * MIB,
                    seed: kernel_seed(seed, k),
                })
                .collect();
            (4, 48 * MIB, specs)
        }
    };
    let mut cfg = SystemConfig::numa_aware_sockets(sockets);
    cfg.sim_threads = 1;
    let workload = Workload {
        meta: WorkloadMeta {
            name: kind.name().to_string(),
            suite: Suite::Other,
            paper_avg_ctas: specs[0].ctas as u64,
            paper_footprint_mb: footprint / MIB,
            study_set: false,
        },
        kernels: specs
            .into_iter()
            .map(|s| Arc::new(PatternKernel::new(s)) as Arc<dyn Kernel>)
            .collect(),
        footprint_bytes: footprint,
    };
    let mut input = SimInput {
        cfg,
        workload,
        warp_ops: 0,
        mem_ops: 0,
        ctas: 0,
        fingerprint: 0,
    };
    let mut hasher = DefaultHasher::new();
    let (mut warp_ops, mut mem_ops) = (0u64, 0u64);
    input.ctas = visit_ops(&input.workload, &input.cfg, |_, _, _, op| {
        warp_ops += 1;
        hasher.write_u64(match op {
            WarpOp::Compute { cycles } => cycles as u64,
            WarpOp::Mem { addr, kind } => {
                mem_ops += 1;
                addr.raw() << 1 | u64::from(kind == MemKind::Write)
            }
        });
    });
    input.fingerprint = hasher.finish();
    input.warp_ops = warp_ops;
    input.mem_ops = mem_ops;
    input
}

/// Walks every op of `workload` in the replay order: kernel by kernel;
/// within a kernel the CTAs round-robin across sockets (each socket's CTAs
/// in launch order, as `socket_for_cta` assigns them); within a CTA the
/// warps round-robin. Calls `f(kernel, socket, cta, op)` and returns the
/// number of CTAs walked.
pub fn visit_ops(
    workload: &Workload,
    cfg: &SystemConfig,
    mut f: impl FnMut(usize, u8, CtaId, WarpOp),
) -> u64 {
    let mut walked = 0;
    for (k, kernel) in workload.kernels.iter().enumerate() {
        for (socket, cta) in cta_order(kernel.num_ctas(), cfg) {
            walked += 1;
            let mut program = kernel.cta(cta);
            let warps = program.num_warps();
            let mut live = warps;
            let mut done = vec![false; warps as usize];
            while live > 0 {
                for w in 0..warps {
                    if done[w as usize] {
                        continue;
                    }
                    match program.next_op(w) {
                        Some(op) => f(k, socket, cta, op),
                        None => {
                            done[w as usize] = true;
                            live -= 1;
                        }
                    }
                }
            }
        }
    }
    walked
}

/// A kernel's CTAs with their sockets, round-robin across sockets.
pub fn cta_order(total_ctas: u32, cfg: &SystemConfig) -> Vec<(u8, CtaId)> {
    let mut per_socket: Vec<Vec<CtaId>> = vec![Vec::new(); cfg.num_sockets as usize];
    for cta in 0..total_ctas {
        let s = socket_for_cta(cfg.cta_policy, cta, total_ctas, cfg.num_sockets);
        per_socket[s.index()].push(CtaId::new(cta));
    }
    let longest = per_socket.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::with_capacity(total_ctas as usize);
    for i in 0..longest {
        for (s, list) in per_socket.iter().enumerate() {
            if let Some(&cta) = list.get(i) {
                order.push((s as u8, cta));
            }
        }
    }
    order
}

/// The quick-scale Figure 3 sweep — 4 variants × the 41 catalog workloads,
/// 164 simulations — in a seed-shuffled workload order.
pub fn sweep_plan(seed: u64, smoke: bool) -> SimPlan {
    let mut workloads = catalog(&Scale::quick());
    DetRng::seed_from_u64(seed).shuffle(&mut workloads);
    if smoke {
        workloads.truncate(2);
    }
    SimPlan::cross(&experiments::fig3_variants(), &workloads)
}

/// The daemon's job mix: every catalog workload under `single` and under
/// traditional/page/locality/numa at 2, 4 and 8 sockets — 533 distinct
/// quick-scale jobs — in seed-shuffled order.
pub fn serve_jobs(seed: u64, smoke: bool) -> Vec<JobSpec> {
    let mut lines = Vec::new();
    for name in WORKLOAD_NAMES {
        lines.push(format!("workload={name} config=single sockets=1"));
        for config in ["traditional", "page", "locality", "numa"] {
            for sockets in [2, 4, 8] {
                lines.push(format!("workload={name} config={config} sockets={sockets}"));
            }
        }
    }
    DetRng::seed_from_u64(seed).shuffle(&mut lines);
    if smoke {
        lines.truncate(26);
    }
    lines
        .iter()
        .map(|l| JobSpec::parse(l).expect("generated job lines are well formed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for kind in [
            SimKind::RemoteIrregular,
            SimKind::LocalStream,
            SimKind::HitTiled,
        ] {
            let a = sim_input(kind, 7, true);
            let b = sim_input(kind, 7, true);
            let c = sim_input(kind, 8, true);
            assert_eq!(a.fingerprint, b.fingerprint, "{kind:?}");
            assert_ne!(a.fingerprint, c.fingerprint, "{kind:?}");
            assert_eq!(a.warp_ops, c.warp_ops, "sizes do not depend on the seed");
            assert_eq!(a.ctas, a.workload.total_ctas());
            assert!(a.mem_ops > 0 && a.mem_ops < a.warp_ops);
        }
    }

    #[test]
    fn cta_order_covers_every_cta_once() {
        let cfg = SystemConfig::numa_aware_sockets(8);
        let order = cta_order(252, &cfg);
        let mut ids: Vec<u32> = order.iter().map(|(_, c)| c.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..252).collect::<Vec<_>>());
        assert_eq!(order[0].0, 0);
        assert_eq!(order[1].0, 1, "round-robin across sockets");
    }

    #[test]
    fn job_mixes_have_the_stated_sizes_and_shuffle_by_seed() {
        assert_eq!(sweep_plan(1, false).len(), 164);
        let a = serve_jobs(1, false);
        assert_eq!(a.len(), 533);
        let mut lines: Vec<String> = a.iter().map(JobSpec::to_line).collect();
        assert_ne!(
            lines,
            serve_jobs(2, false)
                .iter()
                .map(JobSpec::to_line)
                .collect::<Vec<_>>()
        );
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 533, "jobs are distinct");
    }
}
