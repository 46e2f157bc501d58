//! The 41 evaluation workloads (paper Table 2), with normalized names
//! (the paper's typos `Rodnia-Pathfinder` / `cudann` are corrected).

use crate::archetypes::{self as arch, Params};
use crate::patterns::{KernelSpec, PatternKernel};
use crate::scale::Scale;
use numa_gpu_runtime::{Kernel, Suite, Workload, WorkloadMeta};
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
}

/// All 41 workload names, in Table 2 order.
pub const WORKLOAD_NAMES: [&str; 41] = [
    "ML-GoogLeNet-cudnn-Lev2",
    "ML-AlexNet-cudnn-Lev2",
    "ML-OverFeat-cudnn-Lev3",
    "ML-AlexNet-cudnn-Lev4",
    "ML-AlexNet-ConvNet2",
    "Rodinia-Backprop",
    "Rodinia-Euler3D",
    "Rodinia-BFS",
    "Rodinia-Gaussian",
    "Rodinia-Hotspot",
    "Rodinia-Kmeans",
    "Rodinia-Pathfinder",
    "Rodinia-Srad",
    "HPC-SNAP",
    "HPC-Nekbone-Large",
    "HPC-MiniAMR",
    "HPC-MiniContact-Mesh1",
    "HPC-MiniContact-Mesh2",
    "HPC-Lulesh-Unstruct-Mesh1",
    "HPC-Lulesh-Unstruct-Mesh2",
    "HPC-AMG",
    "HPC-RSBench",
    "HPC-MCB",
    "HPC-NAMD2.9",
    "HPC-RabbitCT",
    "HPC-Lulesh",
    "HPC-CoMD",
    "HPC-CoMD-Wa",
    "HPC-CoMD-Ta",
    "HPC-HPGMG-UVM",
    "HPC-HPGMG",
    "Lonestar-SP",
    "Lonestar-MST-Graph",
    "Lonestar-MST-Mesh",
    "Lonestar-SSSP-Wln",
    "Lonestar-DMR",
    "Lonestar-SSSP-Wlc",
    "Lonestar-SSSP",
    "Other-Stream-Triad",
    "Other-Optix-Raytracing",
    "Other-Bitcoin-Crypto",
];

const TABLE2: [Entry; 41] = [
    Entry {
        name: "ML-GoogLeNet-cudnn-Lev2",
        suite: Suite::Ml,
        paper_ctas: 6272,
        paper_mb: 1205,
        grey: false,
    },
    Entry {
        name: "ML-AlexNet-cudnn-Lev2",
        suite: Suite::Ml,
        paper_ctas: 1250,
        paper_mb: 832,
        grey: false,
    },
    Entry {
        name: "ML-OverFeat-cudnn-Lev3",
        suite: Suite::Ml,
        paper_ctas: 1800,
        paper_mb: 388,
        grey: true,
    },
    Entry {
        name: "ML-AlexNet-cudnn-Lev4",
        suite: Suite::Ml,
        paper_ctas: 1014,
        paper_mb: 32,
        grey: false,
    },
    Entry {
        name: "ML-AlexNet-ConvNet2",
        suite: Suite::Ml,
        paper_ctas: 6075,
        paper_mb: 97,
        grey: true,
    },
    Entry {
        name: "Rodinia-Backprop",
        suite: Suite::Rodinia,
        paper_ctas: 4096,
        paper_mb: 160,
        grey: true,
    },
    Entry {
        name: "Rodinia-Euler3D",
        suite: Suite::Rodinia,
        paper_ctas: 1008,
        paper_mb: 25,
        grey: false,
    },
    Entry {
        name: "Rodinia-BFS",
        suite: Suite::Rodinia,
        paper_ctas: 1954,
        paper_mb: 38,
        grey: false,
    },
    Entry {
        name: "Rodinia-Gaussian",
        suite: Suite::Rodinia,
        paper_ctas: 2599,
        paper_mb: 78,
        grey: false,
    },
    Entry {
        name: "Rodinia-Hotspot",
        suite: Suite::Rodinia,
        paper_ctas: 7396,
        paper_mb: 64,
        grey: false,
    },
    Entry {
        name: "Rodinia-Kmeans",
        suite: Suite::Rodinia,
        paper_ctas: 3249,
        paper_mb: 221,
        grey: true,
    },
    Entry {
        name: "Rodinia-Pathfinder",
        suite: Suite::Rodinia,
        paper_ctas: 4630,
        paper_mb: 1570,
        grey: false,
    },
    Entry {
        name: "Rodinia-Srad",
        suite: Suite::Rodinia,
        paper_ctas: 16384,
        paper_mb: 98,
        grey: true,
    },
    Entry {
        name: "HPC-SNAP",
        suite: Suite::Hpc,
        paper_ctas: 200,
        paper_mb: 744,
        grey: false,
    },
    Entry {
        name: "HPC-Nekbone-Large",
        suite: Suite::Hpc,
        paper_ctas: 5583,
        paper_mb: 294,
        grey: false,
    },
    Entry {
        name: "HPC-MiniAMR",
        suite: Suite::Hpc,
        paper_ctas: 76033,
        paper_mb: 2752,
        grey: false,
    },
    Entry {
        name: "HPC-MiniContact-Mesh1",
        suite: Suite::Hpc,
        paper_ctas: 250,
        paper_mb: 21,
        grey: false,
    },
    Entry {
        name: "HPC-MiniContact-Mesh2",
        suite: Suite::Hpc,
        paper_ctas: 15423,
        paper_mb: 257,
        grey: false,
    },
    Entry {
        name: "HPC-Lulesh-Unstruct-Mesh1",
        suite: Suite::Hpc,
        paper_ctas: 435,
        paper_mb: 19,
        grey: false,
    },
    Entry {
        name: "HPC-Lulesh-Unstruct-Mesh2",
        suite: Suite::Hpc,
        paper_ctas: 4940,
        paper_mb: 208,
        grey: false,
    },
    Entry {
        name: "HPC-AMG",
        suite: Suite::Hpc,
        paper_ctas: 241_549,
        paper_mb: 3744,
        grey: false,
    },
    Entry {
        name: "HPC-RSBench",
        suite: Suite::Hpc,
        paper_ctas: 7813,
        paper_mb: 19,
        grey: false,
    },
    Entry {
        name: "HPC-MCB",
        suite: Suite::Hpc,
        paper_ctas: 5001,
        paper_mb: 162,
        grey: false,
    },
    Entry {
        name: "HPC-NAMD2.9",
        suite: Suite::Hpc,
        paper_ctas: 3888,
        paper_mb: 88,
        grey: false,
    },
    Entry {
        name: "HPC-RabbitCT",
        suite: Suite::Hpc,
        paper_ctas: 131_072,
        paper_mb: 524,
        grey: true,
    },
    Entry {
        name: "HPC-Lulesh",
        suite: Suite::Hpc,
        paper_ctas: 12_202,
        paper_mb: 578,
        grey: false,
    },
    Entry {
        name: "HPC-CoMD",
        suite: Suite::Hpc,
        paper_ctas: 3588,
        paper_mb: 319,
        grey: false,
    },
    Entry {
        name: "HPC-CoMD-Wa",
        suite: Suite::Hpc,
        paper_ctas: 13_691,
        paper_mb: 393,
        grey: false,
    },
    Entry {
        name: "HPC-CoMD-Ta",
        suite: Suite::Hpc,
        paper_ctas: 5724,
        paper_mb: 394,
        grey: false,
    },
    Entry {
        name: "HPC-HPGMG-UVM",
        suite: Suite::Hpc,
        paper_ctas: 10_436,
        paper_mb: 1975,
        grey: false,
    },
    Entry {
        name: "HPC-HPGMG",
        suite: Suite::Hpc,
        paper_ctas: 10_506,
        paper_mb: 1571,
        grey: false,
    },
    Entry {
        name: "Lonestar-SP",
        suite: Suite::Lonestar,
        paper_ctas: 75,
        paper_mb: 8,
        grey: false,
    },
    Entry {
        name: "Lonestar-MST-Graph",
        suite: Suite::Lonestar,
        paper_ctas: 770,
        paper_mb: 86,
        grey: false,
    },
    Entry {
        name: "Lonestar-MST-Mesh",
        suite: Suite::Lonestar,
        paper_ctas: 895,
        paper_mb: 75,
        grey: false,
    },
    Entry {
        name: "Lonestar-SSSP-Wln",
        suite: Suite::Lonestar,
        paper_ctas: 60,
        paper_mb: 21,
        grey: false,
    },
    Entry {
        name: "Lonestar-DMR",
        suite: Suite::Lonestar,
        paper_ctas: 82,
        paper_mb: 248,
        grey: true,
    },
    Entry {
        name: "Lonestar-SSSP-Wlc",
        suite: Suite::Lonestar,
        paper_ctas: 163,
        paper_mb: 21,
        grey: false,
    },
    Entry {
        name: "Lonestar-SSSP",
        suite: Suite::Lonestar,
        paper_ctas: 1046,
        paper_mb: 38,
        grey: false,
    },
    Entry {
        name: "Other-Stream-Triad",
        suite: Suite::Other,
        paper_ctas: 699_051,
        paper_mb: 3146,
        grey: true,
    },
    Entry {
        name: "Other-Optix-Raytracing",
        suite: Suite::Other,
        paper_ctas: 3072,
        paper_mb: 87,
        grey: false,
    },
    Entry {
        name: "Other-Bitcoin-Crypto",
        suite: Suite::Other,
        paper_ctas: 60,
        paper_mb: 5898,
        grey: true,
    },
];

const MB: u64 = 1024 * 1024;

/// Builds the kernel sequence for one named workload.
fn build_kernels(name: &str, p: Params) -> Vec<KernelSpec> {
    let fp = p.footprint;
    match name {
        // ML: dense layers with tile reuse; AlexNet-Lev2 has the
        // channel-reduction phases where dynamic links shine.
        "ML-GoogLeNet-cudnn-Lev2" => arch::tiled(p, 4, 6, 12),
        "ML-AlexNet-cudnn-Lev2" => {
            let mut ks = arch::irregular_shared(p, 2, 0.4, (fp / 4).min(3 * MB), 0.85);
            ks.extend(arch::reduction_phased(p, 2, fp / 16));
            ks
        }
        "ML-OverFeat-cudnn-Lev3" => arch::streaming(p, 2, 0.8),
        "ML-AlexNet-cudnn-Lev4" => arch::tiled(p, 3, 8, 10),
        "ML-AlexNet-ConvNet2" => arch::streaming(p, 2, 0.75),

        // Rodinia.
        "Rodinia-Backprop" => arch::streaming(p, 2, 0.7),
        "Rodinia-Euler3D" => {
            let mut ks = arch::irregular_shared_rw(p, 2, 0.8, (fp / 8).min(5 * MB / 2), 0.6, 0.65);
            for k in &mut ks {
                k.ops_per_warp *= 3;
            }
            ks
        }
        "Rodinia-BFS" => arch::hot_cold(p, 3, 0.55, MB, 0.75),
        "Rodinia-Gaussian" => arch::irregular_shared(p, 3, 0.35, (fp / 8).min(MB), 0.7),
        "Rodinia-Hotspot" => arch::stencil(p, 3, 0.08),
        "Rodinia-Kmeans" => arch::streaming(p, 2, 0.85),
        "Rodinia-Pathfinder" => arch::stencil(p, 3, 0.04),
        "Rodinia-Srad" => arch::streaming(p, 3, 0.7),

        // HPC.
        "HPC-SNAP" => arch::stencil(p, 3, 0.12),
        "HPC-Nekbone-Large" => {
            let mut ks = arch::tiled(p, 2, 4, 8);
            ks.extend(arch::reduction_phased(p, 2, fp / 32));
            ks
        }
        "HPC-MiniAMR" => arch::stencil(p, 2, 0.05),
        "HPC-MiniContact-Mesh1" => arch::irregular_shared(p, 3, 0.5, fp / 2, 0.75),
        "HPC-MiniContact-Mesh2" => {
            let mut ks = arch::irregular_shared(p, 3, 0.45, 4 * MB, 0.75);
            for k in &mut ks {
                k.ops_per_warp = p.scale.ops(48);
            }
            ks
        }
        "HPC-Lulesh-Unstruct-Mesh1" => arch::irregular_shared_rw(p, 4, 0.65, 2 * MB, 0.6, 0.6),
        "HPC-Lulesh-Unstruct-Mesh2" => arch::irregular_shared_rw(p, 4, 0.6, 2 * MB, 0.6, 0.6),
        "HPC-AMG" => arch::hot_cold(p, 3, 0.55, 7 * MB / 2, 0.6),
        "HPC-RSBench" => {
            let mut ks = arch::irregular_shared(p, 4, 0.9, 4 * MB, 0.95);
            for k in &mut ks {
                k.compute_per_mem = 8;
            }
            ks
        }
        "HPC-MCB" => {
            let mut ks = arch::hot_cold(p, 3, 0.6, 7 * MB / 2, 0.7);
            for k in &mut ks {
                k.ops_per_warp = p.scale.ops(48);
            }
            ks
        }
        "HPC-NAMD2.9" => arch::irregular_shared(p, 3, 0.35, MB, 0.8),
        "HPC-RabbitCT" => arch::tiled(p, 2, 6, 16),
        "HPC-Lulesh" => {
            let mut ks = arch::hot_cold(p, 2, 0.45, 2 * MB, 0.6);
            ks.extend(arch::reduction_phased(p, 1, fp / 32));
            ks
        }
        "HPC-CoMD" => arch::irregular_shared(p, 3, 0.5, 2 * MB, 0.8),
        "HPC-CoMD-Wa" => {
            let mut ks = arch::irregular_shared(p, 3, 0.45, 4 * MB, 0.8);
            for k in &mut ks {
                k.ops_per_warp = p.scale.ops(48);
            }
            ks
        }
        "HPC-CoMD-Ta" => {
            let mut ks = arch::irregular_shared(p, 4, 0.7, 4 * MB, 0.9);
            for k in &mut ks {
                k.ops_per_warp = p.scale.ops(48);
            }
            ks
        }
        "HPC-HPGMG-UVM" => arch::reduction_phased(p, 3, fp / 64),
        "HPC-HPGMG" => arch::reduction_phased(p, 3, fp / 32),

        // Lonestar.
        "Lonestar-SP" => arch::irregular_shared(p, 3, 0.7, fp / 2, 0.85),
        "Lonestar-MST-Graph" => arch::irregular_shared(p, 3, 0.55, MB, 0.75),
        "Lonestar-MST-Mesh" => arch::irregular_shared(p, 4, 0.6, MB, 0.75),
        "Lonestar-SSSP-Wln" => arch::hot_cold(p, 3, 0.5, fp / 8, 0.7),
        "Lonestar-DMR" => arch::streaming(p, 2, 0.7),
        "Lonestar-SSSP-Wlc" => arch::hot_cold(p, 3, 0.5, fp / 8, 0.7),
        "Lonestar-SSSP" => arch::hot_cold(p, 3, 0.55, MB, 0.72),

        // Other.
        "Other-Stream-Triad" => arch::streaming(p, 1, 0.67),
        "Other-Optix-Raytracing" => {
            let mut ks = arch::irregular_shared(p, 3, 0.8, MB, 1.0);
            for k in &mut ks {
                k.compute_per_mem = 10;
            }
            ks
        }
        "Other-Bitcoin-Crypto" => arch::compute_bound(p, 1),
        // Private fn fed only from the static catalog table: an unknown
        // name is a table/builder mismatch.
        other => panic!("unknown workload name: {other}"),
    }
}

fn build(entry: &Entry, index: u64, scale: &Scale) -> Workload {
    let params = Params {
        ctas: scale.ctas(entry.paper_ctas),
        footprint: scale.footprint_bytes(entry.paper_mb),
        seed: 0xC0FFEE ^ (index * 0x1234_5678_9ABC),
        scale: *scale,
    };
    let kernels: Vec<Arc<dyn Kernel>> = build_kernels(entry.name, params)
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
