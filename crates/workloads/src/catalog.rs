//! The 41 evaluation workloads (paper Table 2), with normalized names
//! (the paper's typos `Rodnia-Pathfinder` / `cudann` are corrected).
//!
//! A workload is one row of `TABLE2`: its name, its paper metadata and the
//! archetype builder of its synthetic kernels, stated nowhere else.

use crate::archetypes::{self as arch, Params};
use crate::patterns::{KernelSpec, PatternKernel};
use crate::scale::Scale;
use numa_gpu_runtime::Suite::{self, Hpc, Lonestar, Ml, Other, Rodinia};
use numa_gpu_runtime::{Kernel, Workload, WorkloadMeta};
use std::sync::Arc;

/// One row of Table 2 plus its archetype mapping.
struct Entry {
    name: &'static str,
    suite: Suite,
    paper_ctas: u64,
    paper_mb: u64,
    /// Grey-box workloads reach ≥99% of theoretical scaling with
    /// software-only locality (excluded from the microarchitecture study
    /// set but kept in final means).
    grey: bool,
    /// Builds the workload's kernel sequence.
    kernels: fn(Params) -> Vec<KernelSpec>,
}

const fn row(
    name: &'static str,
    suite: Suite,
    paper_ctas: u64,
    paper_mb: u64,
    grey: bool,
    kernels: fn(Params) -> Vec<KernelSpec>,
) -> Entry {
    Entry {
        name,
        suite,
        paper_ctas,
        paper_mb,
        grey,
        kernels,
    }
}

const MB: u64 = 1024 * 1024;

/// `ks` with `edit` applied to every kernel.
fn each(mut ks: Vec<KernelSpec>, edit: impl Fn(&mut KernelSpec)) -> Vec<KernelSpec> {
    ks.iter_mut().for_each(edit);
    ks
}

/// `ks` followed by `more` (moved, not cloned).
fn then(mut ks: Vec<KernelSpec>, more: Vec<KernelSpec>) -> Vec<KernelSpec> {
    ks.extend(more);
    ks
}

/// Table 2 in paper order: name, suite, CTAs, footprint (MB), grey box,
/// and the kernels that reproduce the benchmark's communication class.
const TABLE2: [Entry; 41] = [
    // ML: dense layers with tile reuse; AlexNet-Lev2 has the
    // channel-reduction phases where dynamic links shine.
    row("ML-GoogLeNet-cudnn-Lev2", Ml, 6272, 1205, false, |p| {
        arch::tiled(p, 4, 6, 12)
    }),
    row("ML-AlexNet-cudnn-Lev2", Ml, 1250, 832, false, |p| {
        let shared = arch::irregular_shared(p, 2, 0.4, (p.footprint / 4).min(3 * MB), 0.85);
        then(shared, arch::reduction_phased(p, 2, p.footprint / 16))
    }),
    row("ML-OverFeat-cudnn-Lev3", Ml, 1800, 388, true, |p| {
        arch::streaming(p, 2, 0.8)
    }),
    row("ML-AlexNet-cudnn-Lev4", Ml, 1014, 32, false, |p| {
        arch::tiled(p, 3, 8, 10)
    }),
    row("ML-AlexNet-ConvNet2", Ml, 6075, 97, true, |p| {
        arch::streaming(p, 2, 0.75)
    }),
    // Rodinia.
    row("Rodinia-Backprop", Rodinia, 4096, 160, true, |p| {
        arch::streaming(p, 2, 0.7)
    }),
    row("Rodinia-Euler3D", Rodinia, 1008, 25, false, |p| {
        let bytes = (p.footprint / 8).min(5 * MB / 2);
        each(
            arch::irregular_shared_rw(p, 2, 0.8, bytes, 0.6, 0.65),
            |k| k.ops_per_warp *= 3,
        )
    }),
    row("Rodinia-BFS", Rodinia, 1954, 38, false, |p| {
        arch::hot_cold(p, 3, 0.55, MB, 0.75)
    }),
    row("Rodinia-Gaussian", Rodinia, 2599, 78, false, |p| {
        arch::irregular_shared(p, 3, 0.35, (p.footprint / 8).min(MB), 0.7)
    }),
    row("Rodinia-Hotspot", Rodinia, 7396, 64, false, |p| {
        arch::stencil(p, 3, 0.08)
    }),
    row("Rodinia-Kmeans", Rodinia, 3249, 221, true, |p| {
        arch::streaming(p, 2, 0.85)
    }),
    row("Rodinia-Pathfinder", Rodinia, 4630, 1570, false, |p| {
        arch::stencil(p, 3, 0.04)
    }),
    row("Rodinia-Srad", Rodinia, 16384, 98, true, |p| {
        arch::streaming(p, 3, 0.7)
    }),
    // HPC.
    row("HPC-SNAP", Hpc, 200, 744, false, |p| {
        arch::stencil(p, 3, 0.12)
    }),
    row("HPC-Nekbone-Large", Hpc, 5583, 294, false, |p| {
        then(
            arch::tiled(p, 2, 4, 8),
            arch::reduction_phased(p, 2, p.footprint / 32),
        )
    }),
    row("HPC-MiniAMR", Hpc, 76033, 2752, false, |p| {
        arch::stencil(p, 2, 0.05)
    }),
    row("HPC-MiniContact-Mesh1", Hpc, 250, 21, false, |p| {
        arch::irregular_shared(p, 3, 0.5, p.footprint / 2, 0.75)
    }),
    row("HPC-MiniContact-Mesh2", Hpc, 15423, 257, false, |p| {
        each(arch::irregular_shared(p, 3, 0.45, 4 * MB, 0.75), |k| {
            k.ops_per_warp = p.scale.ops(48)
        })
    }),
    row("HPC-Lulesh-Unstruct-Mesh1", Hpc, 435, 19, false, |p| {
        arch::irregular_shared_rw(p, 4, 0.65, 2 * MB, 0.6, 0.6)
    }),
    row("HPC-Lulesh-Unstruct-Mesh2", Hpc, 4940, 208, false, |p| {
        arch::irregular_shared_rw(p, 4, 0.6, 2 * MB, 0.6, 0.6)
    }),
    row("HPC-AMG", Hpc, 241_549, 3744, false, |p| {
        arch::hot_cold(p, 3, 0.55, 7 * MB / 2, 0.6)
    }),
    row("HPC-RSBench", Hpc, 7813, 19, false, |p| {
        each(arch::irregular_shared(p, 4, 0.9, 4 * MB, 0.95), |k| {
            k.compute_per_mem = 8
        })
    }),
    row("HPC-MCB", Hpc, 5001, 162, false, |p| {
        each(arch::hot_cold(p, 3, 0.6, 7 * MB / 2, 0.7), |k| {
            k.ops_per_warp = p.scale.ops(48)
        })
    }),
    row("HPC-NAMD2.9", Hpc, 3888, 88, false, |p| {
        arch::irregular_shared(p, 3, 0.35, MB, 0.8)
    }),
    row("HPC-RabbitCT", Hpc, 131_072, 524, true, |p| {
        arch::tiled(p, 2, 6, 16)
    }),
    row("HPC-Lulesh", Hpc, 12_202, 578, false, |p| {
        then(
            arch::hot_cold(p, 2, 0.45, 2 * MB, 0.6),
            arch::reduction_phased(p, 1, p.footprint / 32),
        )
    }),
    row("HPC-CoMD", Hpc, 3588, 319, false, |p| {
        arch::irregular_shared(p, 3, 0.5, 2 * MB, 0.8)
    }),
    row("HPC-CoMD-Wa", Hpc, 13_691, 393, false, |p| {
        each(arch::irregular_shared(p, 3, 0.45, 4 * MB, 0.8), |k| {
            k.ops_per_warp = p.scale.ops(48)
        })
    }),
    row("HPC-CoMD-Ta", Hpc, 5724, 394, false, |p| {
        each(arch::irregular_shared(p, 4, 0.7, 4 * MB, 0.9), |k| {
            k.ops_per_warp = p.scale.ops(48)
        })
    }),
    row("HPC-HPGMG-UVM", Hpc, 10_436, 1975, false, |p| {
        arch::reduction_phased(p, 3, p.footprint / 64)
    }),
    row("HPC-HPGMG", Hpc, 10_506, 1571, false, |p| {
        arch::reduction_phased(p, 3, p.footprint / 32)
    }),
    // Lonestar.
    row("Lonestar-SP", Lonestar, 75, 8, false, |p| {
        arch::irregular_shared(p, 3, 0.7, p.footprint / 2, 0.85)
    }),
    row("Lonestar-MST-Graph", Lonestar, 770, 86, false, |p| {
        arch::irregular_shared(p, 3, 0.55, MB, 0.75)
    }),
    row("Lonestar-MST-Mesh", Lonestar, 895, 75, false, |p| {
        arch::irregular_shared(p, 4, 0.6, MB, 0.75)
    }),
    row("Lonestar-SSSP-Wln", Lonestar, 60, 21, false, |p| {
        arch::hot_cold(p, 3, 0.5, p.footprint / 8, 0.7)
    }),
    row("Lonestar-DMR", Lonestar, 82, 248, true, |p| {
        arch::streaming(p, 2, 0.7)
    }),
    row("Lonestar-SSSP-Wlc", Lonestar, 163, 21, false, |p| {
        arch::hot_cold(p, 3, 0.5, p.footprint / 8, 0.7)
    }),
    row("Lonestar-SSSP", Lonestar, 1046, 38, false, |p| {
        arch::hot_cold(p, 3, 0.55, MB, 0.72)
    }),
    // Other.
    row("Other-Stream-Triad", Other, 699_051, 3146, true, |p| {
        arch::streaming(p, 1, 0.67)
    }),
    row("Other-Optix-Raytracing", Other, 3072, 87, false, |p| {
        each(arch::irregular_shared(p, 3, 0.8, MB, 1.0), |k| {
            k.compute_per_mem = 10
        })
    }),
    row("Other-Bitcoin-Crypto", Other, 60, 5898, true, |p| {
        arch::compute_bound(p, 1)
    }),
];

/// All 41 workload names, in Table 2 order.
pub const WORKLOAD_NAMES: [&str; 41] = {
    let mut names = [""; 41];
    let mut i = 0;
    while i < names.len() {
        names[i] = TABLE2[i].name;
        i += 1;
    }
    names
};

fn build(entry: &Entry, index: u64, scale: &Scale) -> Workload {
    let params = Params {
        ctas: scale.ctas(entry.paper_ctas),
        footprint: scale.footprint_bytes(entry.paper_mb),
        seed: 0xC0FFEE ^ (index * 0x1234_5678_9ABC),
        scale: *scale,
    };
    let kernels: Vec<Arc<dyn Kernel>> = (entry.kernels)(params)
        .into_iter()
        .map(|spec| Arc::new(PatternKernel::new(spec)) as Arc<dyn Kernel>)
        .collect();
    Workload {
        meta: WorkloadMeta {
            name: entry.name.to_string(),
            suite: entry.suite,
            paper_avg_ctas: entry.paper_ctas,
            paper_footprint_mb: entry.paper_mb,
            study_set: !entry.grey,
        },
        kernels,
        footprint_bytes: params.footprint,
    }
}

/// Builds all 41 workloads at the given scale, in Table 2 order.
///
/// # Examples
///
/// ```
/// use numa_gpu_workloads::{catalog, Scale};
/// let all = catalog(&Scale::quick());
/// assert_eq!(all.len(), 41);
/// ```
pub fn catalog(scale: &Scale) -> Vec<Workload> {
    TABLE2
        .iter()
        .enumerate()
        .map(|(i, e)| build(e, i as u64, scale))
        .collect()
}

/// The 32-workload microarchitecture study set (Figures 6, 8, 9, 10): all
/// workloads that do *not* reach ≥99% of theoretical scaling with software
/// locality alone.
pub fn study_set(scale: &Scale) -> Vec<Workload> {
    catalog(scale)
        .into_iter()
        .filter(|w| w.meta.study_set)
        .collect()
}

/// Builds one workload by its Table 2 name, or `None` for unknown names.
pub fn by_name(name: &str, scale: &Scale) -> Option<Workload> {
    TABLE2
        .iter()
        .enumerate()
        .find(|(_, e)| e.name == name)
        .map(|(i, e)| build(e, i as u64, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_41_build() {
        let all = catalog(&Scale::quick());
        assert_eq!(all.len(), 41);
        for w in &all {
            assert!(!w.kernels.is_empty(), "{} has no kernels", w.meta.name);
            assert!(w.total_ctas() > 0);
            assert!(w.footprint_bytes >= 2 * MB);
        }
    }

    #[test]
    fn names_match_constant_order() {
        let all = catalog(&Scale::quick());
        for (w, name) in all.iter().zip(WORKLOAD_NAMES) {
            assert_eq!(w.meta.name, name);
        }
    }

    #[test]
    fn study_set_is_32() {
        assert_eq!(study_set(&Scale::quick()).len(), 32);
    }

    #[test]
    fn nine_grey_workloads() {
        let grey = catalog(&Scale::quick())
            .into_iter()
            .filter(|w| !w.meta.study_set)
            .count();
        assert_eq!(grey, 9);
    }

    #[test]
    fn by_name_finds_and_rejects() {
        assert!(by_name("Rodinia-Euler3D", &Scale::quick()).is_some());
        assert!(by_name("Not-A-Workload", &Scale::quick()).is_none());
    }

    #[test]
    fn table2_values_preserved() {
        let w = by_name("HPC-AMG", &Scale::quick()).unwrap();
        assert_eq!(w.meta.paper_avg_ctas, 241_549);
        assert_eq!(w.meta.paper_footprint_mb, 3744);
    }

    #[test]
    fn fig2_criterion_at_8x_is_80_percent() {
        // 33 of 41 workloads fill an 8x (512-SM) GPU — the paper's ~80%.
        let all = catalog(&Scale::quick());
        let filling = all.iter().filter(|w| w.fills_gpu(512)).count();
        assert_eq!(filling, 33);
    }

    #[test]
    fn workload_builds_are_deterministic() {
        let a = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
        let b = by_name("Rodinia-Euler3D", &Scale::quick()).unwrap();
        // Same kernel count and the same first-CTA trace.
        assert_eq!(a.kernels.len(), b.kernels.len());
        let mut pa = a.kernels[0].cta(numa_gpu_types::CtaId::new(0));
        let mut pb = b.kernels[0].cta(numa_gpu_types::CtaId::new(0));
        for _ in 0..64 {
            assert_eq!(pa.next_op(0), pb.next_op(0));
        }
    }

    #[test]
    fn kernels_respect_warp_limits() {
        for w in catalog(&Scale::quick()) {
            for k in &w.kernels {
                assert!(k.warps_per_cta() >= 1 && k.warps_per_cta() <= 64);
            }
        }
    }
}
