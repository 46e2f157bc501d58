//! Kernel-sequence builders for the workload communication archetypes.
//!
//! Each paper benchmark in the catalog is an instance of one of these
//! archetypes with tuned parameters (shared fractions, read/write mixes,
//! phase structures). The archetypes were chosen to span the behaviours
//! the paper's mechanisms react to; see the crate docs.

use crate::patterns::{KernelSpec, Pattern};
use crate::scale::Scale;

/// Common inputs to every archetype builder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// CTAs per (full-sized) kernel.
    pub ctas: u32,
    /// Bytes of the workload's region.
    pub footprint: u64,
    /// Base RNG seed (unique per workload).
    pub seed: u64,
    /// Scale knobs.
    pub scale: Scale,
}

impl Params {
    /// Like [`Params::base`] but each kernel works a different slice of the
    /// footprint (successive layers/sweeps read fresh buffers), so no
    /// artificial inter-kernel cache fit appears.
    fn rotated(&self, kernels: u32, name: &str, kernel_idx: u64, pattern: Pattern) -> KernelSpec {
        let slices = kernels.max(1) as u64;
        let slice_bytes = (self.footprint / slices).max(numa_gpu_types::LINE_SIZE);
        KernelSpec {
            region_offset: (kernel_idx % slices) * slice_bytes,
            region_bytes: slice_bytes,
            ..self.base(name, kernel_idx, pattern)
        }
    }

    fn base(&self, name: &str, kernel_idx: u64, pattern: Pattern) -> KernelSpec {
        KernelSpec {
            name: format!("{name}#{kernel_idx}"),
            ctas: self.ctas,
            warps_per_cta: 4,
            ops_per_warp: self.scale.ops(64),
            compute_per_mem: 4,
            read_fraction: 0.75,
            pattern,
            region_offset: 0,
            region_bytes: self.footprint,
            seed: self.seed.wrapping_add(kernel_idx.wrapping_mul(0x5bd1e995)),
        }
    }
}

/// Compute-dominated kernels: long arithmetic bursts between rare, cache
/// friendly accesses (Bitcoin-Crypto class). Insensitive to NUMA.
pub(crate) fn compute_bound(p: Params, kernels: u32) -> Vec<KernelSpec> {
    (0..kernels as u64)
        .map(|i| KernelSpec {
            ops_per_warp: p.scale.ops(24),
            compute_per_mem: 160,
            read_fraction: 0.9,
            ..p.base("compute", i, Pattern::Tiled { reuse: 4 })
        })
        .collect()
}

/// Pure streaming with CTA-private chunks (Stream-Triad class): scales with
/// software locality alone.
pub(crate) fn streaming(p: Params, kernels: u32, read_fraction: f64) -> Vec<KernelSpec> {
    (0..kernels as u64)
        .map(|i| KernelSpec {
            read_fraction,
            ..p.rotated(kernels, "stream", i, Pattern::Streaming)
        })
        .collect()
}

/// Dense tiled compute with heavy reuse (GEMM / cuDNN layer class).
pub(crate) fn tiled(p: Params, kernels: u32, reuse: u32, compute: u32) -> Vec<KernelSpec> {
    (0..kernels as u64)
        .map(|i| KernelSpec {
            ops_per_warp: p.scale.ops(64),
            compute_per_mem: compute,
            read_fraction: 0.8,
            ..p.rotated(kernels, "tile", i, Pattern::Tiled { reuse })
        })
        .collect()
}

/// Iterative stencil with halo exchange to neighbour chunks (Hotspot,
/// Pathfinder, SNAP, MiniAMR class).
pub(crate) fn stencil(p: Params, iterations: u32, halo_fraction: f64) -> Vec<KernelSpec> {
    (0..iterations as u64)
        .map(|i| KernelSpec {
            read_fraction: 0.7,
            ..p.base("stencil", i, Pattern::Stencil { halo_fraction })
        })
        .collect()
}

/// Irregular workload reading a shared structure from every socket
/// (graphs, lookup tables, neighbour lists — Euler3D, RSBench, CoMD,
/// Lonestar class). The NUMA-aware cache's prime target.
pub(crate) fn irregular_shared(
    p: Params,
    iterations: u32,
    shared_fraction: f64,
    shared_bytes: u64,
    read_fraction: f64,
) -> Vec<KernelSpec> {
    irregular_shared_rw(
        p,
        iterations,
        shared_fraction,
        shared_bytes,
        read_fraction,
        1.0,
    )
}

/// [`irregular_shared`] with in-place updates of the shared structure:
/// `shared_read_fraction < 1` sends write traffic at the shared region too
/// (unstructured meshes — saturates both link directions).
pub(crate) fn irregular_shared_rw(
    p: Params,
    iterations: u32,
    shared_fraction: f64,
    shared_bytes: u64,
    read_fraction: f64,
    shared_read_fraction: f64,
) -> Vec<KernelSpec> {
    (0..iterations as u64)
        .map(|i| KernelSpec {
            read_fraction,
            warps_per_cta: 8,
            ops_per_warp: p.scale.ops(32),
            ..p.base(
                "irregular",
                i,
                Pattern::SharedRead {
                    shared_fraction,
                    shared_bytes,
                    shared_read_fraction,
                },
            )
        })
        .collect()
}

/// Random with a hot working set (frontier / worklist workloads — BFS,
/// SSSP, MCB class).
pub(crate) fn hot_cold(
    p: Params,
    kernels: u32,
    hot_fraction: f64,
    hot_bytes: u64,
    read_fraction: f64,
) -> Vec<KernelSpec> {
    (0..kernels as u64)
        .map(|i| KernelSpec {
            read_fraction,
            warps_per_cta: 8,
            ops_per_warp: p.scale.ops(32),
            ..p.base(
                "hotcold",
                i,
                Pattern::HotCold {
                    hot_fraction,
                    hot_bytes,
                },
            )
        })
        .collect()
}

/// Alternating produce/reduce phases (HPGMG, Nekbone class): a streaming
/// kernel touches the whole region (placing the output pages on socket 0's
/// CTAs under first-touch), then a write-heavy reduction scatters into that
/// shared output range — the asymmetric-link scenario of Figure 5.
pub(crate) fn reduction_phased(p: Params, iterations: u32, output_bytes: u64) -> Vec<KernelSpec> {
    let mut kernels = Vec::new();
    for i in 0..iterations as u64 {
        kernels.push(KernelSpec {
            read_fraction: 0.85,
            ..p.base("produce", 2 * i, Pattern::Streaming)
        });
        kernels.push(KernelSpec {
            read_fraction: 0.3,
            ops_per_warp: p.scale.ops(48),
            ..p.base("reduce", 2 * i + 1, Pattern::Reduction { output_bytes })
        });
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            ctas: 128,
            footprint: 8 << 20,
            seed: 1,
            scale: Scale::quick(),
        }
    }

    #[test]
    fn phased_builders_emit_expected_counts() {
        assert_eq!(compute_bound(params(), 2).len(), 2);
        assert_eq!(streaming(params(), 3, 0.7).len(), 3);
        assert_eq!(stencil(params(), 4, 0.1).len(), 4);
        assert_eq!(reduction_phased(params(), 3, 1 << 20).len(), 6);
    }

    #[test]
    fn seeds_differ_across_kernels() {
        let ks = streaming(params(), 2, 0.7);
        assert_ne!(ks[0].seed, ks[1].seed);
    }

    #[test]
    fn reduction_phases_alternate_rw_mix() {
        let ks = reduction_phased(params(), 1, 1 << 20);
        assert!(ks[0].read_fraction > 0.8);
        assert!(ks[1].read_fraction < 0.5);
    }

    #[test]
    fn all_specs_valid_for_pattern_kernel() {
        use crate::patterns::PatternKernel;
        let mut all = Vec::new();
        all.extend(compute_bound(params(), 1));
        all.extend(streaming(params(), 1, 0.67));
        all.extend(tiled(params(), 1, 8, 12));
        all.extend(stencil(params(), 1, 0.1));
        all.extend(irregular_shared(params(), 1, 0.8, 1 << 20, 0.9));
        all.extend(hot_cold(params(), 1, 0.5, 1 << 20, 0.7));
        all.extend(reduction_phased(params(), 1, 1 << 20));
        for spec in all {
            let _ = PatternKernel::new(spec); // must not panic
        }
    }
}
