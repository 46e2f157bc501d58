//! Workload and kernel abstractions.

use numa_gpu_types::{CtaId, CtaProgram};
use std::fmt;
use std::sync::Arc;

/// Benchmark suite a workload belongs to (Table 2 groupings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Machine-learning workloads (cuDNN layers, ConvNet).
    Ml,
    /// Rodinia HPC kernels.
    Rodinia,
    /// CORAL / production HPC codes.
    Hpc,
    /// Lonestar irregular graph workloads.
    Lonestar,
    /// Other in-house CUDA benchmarks.
    Other,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Ml => "ML",
            Suite::Rodinia => "Rodinia",
            Suite::Hpc => "HPC",
            Suite::Lonestar => "Lonestar",
            Suite::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Static metadata about a workload, mirroring the paper's Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Benchmark name as printed in the paper.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Table 2: time-weighted average concurrent CTAs.
    pub paper_avg_ctas: u64,
    /// Table 2: memory footprint in MB.
    pub paper_footprint_mb: u64,
    /// Whether the workload is in the 33-benchmark microarchitecture study
    /// set (Figures 6/8/9/10). Workloads achieving ≥99% of theoretical
    /// scaling with software-only locality optimizations are excluded
    /// (the grey box of Figure 3) but still count in final means.
    pub study_set: bool,
}

/// One GPU kernel: a grid of CTAs, each lazily producing its warp trace.
///
/// Implementations must be deterministic: `cta(i)` must generate the same
/// program every time it is called (the simulator may re-create CTAs).
///
/// `Send + Sync` are supertraits so whole [`Workload`]s can move across
/// the sweep worker pool; kernels are shared immutable generators, and all
/// mutable per-run state lives in the [`CtaProgram`]s they create.
pub trait Kernel: Send + Sync {
    /// Number of CTAs in the original grid.
    fn num_ctas(&self) -> u32;

    /// Warps per CTA.
    fn warps_per_cta(&self) -> u32;

    /// Builds the trace program for one CTA of the original grid.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `cta.index() >= self.num_ctas()`.
    fn cta(&self, cta: CtaId) -> Box<dyn CtaProgram>;

    /// Human-readable kernel name (for per-kernel reports).
    fn name(&self) -> &str {
        "kernel"
    }
}

/// A complete benchmark: an ordered sequence of kernel launches over a
/// shared memory footprint, plus Table 2 metadata.
///
/// Kernel boundaries are global synchronization points: the runtime
/// promotes per-GPU memory fences to system level, so every socket's
/// software-coherent caches flush before the next kernel launches.
#[derive(Clone)]
pub struct Workload {
    /// Table 2 metadata.
    pub meta: WorkloadMeta,
    /// Kernel launch sequence (region of interest).
    pub kernels: Vec<Arc<dyn Kernel>>,
    /// Bytes of memory the trace generators touch in this (scaled) run.
    pub footprint_bytes: u64,
}

// Sweep workers move workloads between threads; this fails to compile if a
// field ever stops being thread-safe (e.g. an `Arc` becoming an `Rc`).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Workload>();
};

impl Workload {
    /// Total CTAs across all kernel launches.
    pub fn total_ctas(&self) -> u64 {
        self.kernels.iter().map(|k| k.num_ctas() as u64).sum()
    }

    /// Whether the paper-reported average CTA count can fill a GPU with
    /// `total_sms` SMs (the Figure 2 criterion: average concurrent thread
    /// blocks exceeds the number of SMs in the system).
    pub fn fills_gpu(&self, total_sms: u32) -> bool {
        self.meta.paper_avg_ctas >= total_sms as u64
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("meta", &self.meta)
            .field("kernels", &self.kernels.len())
            .field("footprint_bytes", &self.footprint_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::WarpOp;

    struct FixedKernel {
        ctas: u32,
    }

    impl Kernel for FixedKernel {
        fn num_ctas(&self) -> u32 {
            self.ctas
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn cta(&self, _cta: CtaId) -> Box<dyn CtaProgram> {
            struct Empty;
            impl CtaProgram for Empty {
                fn num_warps(&self) -> u32 {
                    2
                }
                fn next_op(&mut self, _w: u32) -> Option<WarpOp> {
                    None
                }
            }
            Box::new(Empty)
        }
    }

    fn wl(ctas: Vec<u32>, paper_avg: u64) -> Workload {
        Workload {
            meta: WorkloadMeta {
                name: "test".into(),
                suite: Suite::Other,
                paper_avg_ctas: paper_avg,
                paper_footprint_mb: 1,
                study_set: true,
            },
            kernels: ctas
                .into_iter()
                .map(|c| Arc::new(FixedKernel { ctas: c }) as Arc<dyn Kernel>)
                .collect(),
            footprint_bytes: 1 << 20,
        }
    }

    #[test]
    fn totals_sum_over_kernels() {
        let w = wl(vec![10, 20, 30], 100);
        assert_eq!(w.total_ctas(), 60);
    }

    #[test]
    fn fills_gpu_uses_paper_value() {
        let w = wl(vec![1], 256);
        assert!(w.fills_gpu(256));
        assert!(!w.fills_gpu(257));
    }

    #[test]
    fn empty_workload_has_no_ctas() {
        let w = wl(vec![], 0);
        assert_eq!(w.total_ctas(), 0);
    }

    #[test]
    fn suite_display_names() {
        assert_eq!(Suite::Ml.to_string(), "ML");
        assert_eq!(Suite::Lonestar.to_string(), "Lonestar");
    }

    #[test]
    fn workload_debug_is_nonempty() {
        let w = wl(vec![1], 1);
        assert!(format!("{w:?}").contains("Workload"));
    }
}
