//! Parameterized trace-pattern kernels.

use numa_gpu_runtime::Kernel;
use numa_gpu_testkit::rng::DetRng;
use numa_gpu_types::{Addr, CtaId, CtaProgram, MemKind, WarpOp, LINE_SIZE};

/// Memory access pattern family of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Each CTA streams once through its own contiguous chunk of the
    /// region (coalesced, no reuse). The classic grey-box pattern.
    Streaming,
    /// CTA-private tile revisited `reuse` times — cache friendly GEMM-like
    /// behaviour.
    Tiled {
        /// How many passes over the tile the trace makes.
        reuse: u32,
    },
    /// Random with a hot subset: `hot_fraction` of accesses land in the
    /// first `hot_bytes` of the region.
    HotCold {
        /// Probability of touching the hot subset.
        hot_fraction: f64,
        /// Size of the hot subset in bytes.
        hot_bytes: u64,
    },
    /// Streaming through the CTA's chunk with `halo_fraction` of accesses
    /// going to a neighbouring CTA's chunk (stencil exchange).
    Stencil {
        /// Probability of touching a neighbour chunk.
        halo_fraction: f64,
    },
    /// Reads stream the CTA's chunk; writes scatter into a small shared
    /// output region at the start of the region (parallel reduction /
    /// data gathering — the §4 asymmetric-link motivator).
    Reduction {
        /// Size of the shared output region in bytes.
        output_bytes: u64,
    },
    /// `shared_fraction` of accesses touch a shared structure of
    /// `shared_bytes` at the start of the region (graph / lookup-table /
    /// mesh reuse — where NUMA-aware caching wins); the rest stream
    /// privately. Shared touches read with probability
    /// `shared_read_fraction` (1.0 = read-only tables; lower values model
    /// meshes updated in place, which saturate both link directions).
    SharedRead {
        /// Probability of touching the shared structure.
        shared_fraction: f64,
        /// Size of the shared structure in bytes.
        shared_bytes: u64,
        /// Fraction of shared touches that are reads.
        shared_read_fraction: f64,
    },
}

/// Full specification of one synthetic kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name (for reports).
    pub name: String,
    /// Grid size.
    pub ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Memory operations per warp.
    pub ops_per_warp: u32,
    /// Compute cycles inserted before every memory operation.
    pub compute_per_mem: u32,
    /// Fraction of memory operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Access pattern.
    pub pattern: Pattern,
    /// First byte of the region this kernel touches.
    pub region_offset: u64,
    /// Size of the region in bytes.
    pub region_bytes: u64,
    /// RNG seed (combined with CTA/warp ids).
    pub seed: u64,
}

/// A [`Kernel`] built from a [`KernelSpec`].
#[derive(Debug, Clone)]
pub struct PatternKernel {
    spec: KernelSpec,
}

impl PatternKernel {
    /// Wraps a spec.
    ///
    /// # Panics
    ///
    /// Panics on degenerate specs (zero CTAs/warps/region, or a read
    /// fraction outside `[0, 1]`).
    pub fn new(spec: KernelSpec) -> Self {
        assert!(spec.ctas > 0 && spec.warps_per_cta > 0, "empty kernel");
        assert!(spec.region_bytes >= LINE_SIZE, "region smaller than a line");
        assert!(
            (0.0..=1.0).contains(&spec.read_fraction),
            "read_fraction out of range"
        );
        PatternKernel { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }
}

impl Kernel for PatternKernel {
    fn num_ctas(&self) -> u32 {
        self.spec.ctas
    }

    fn warps_per_cta(&self) -> u32 {
        self.spec.warps_per_cta
    }

    fn cta(&self, cta: CtaId) -> Box<dyn CtaProgram> {
        assert!(cta.index() < self.spec.ctas, "CTA outside grid");
        Box::new(PatternProgram::new(&self.spec, cta))
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

/// The per-CTA trace generator for a [`PatternKernel`].
///
/// Deterministic: the same `(spec.seed, cta, warp)` always yields the same
/// op stream, so CTAs can be re-created freely.
#[derive(Debug)]
pub struct PatternProgram {
    pattern: Pattern,
    warps: u32,
    ops_per_warp: u32,
    compute_per_mem: u32,
    read_fraction: f64,
    region_base_line: u64,
    region_lines: u64,
    chunk_lines: u64,
    chunk_index: u64,
    num_chunks: u64,
    /// First line of this CTA's own chunk.
    own_base: u64,
    /// The pattern's one per-op constant, worked out once: clamped tile
    /// length (`Tiled`), hot / output / shared line count (`HotCold` /
    /// `Reduction` / `SharedRead`).
    hoisted: u64,
    per_warp: Vec<WarpGen>,
}

/// One warp's generator state, kept together so a CTA costs one allocation
/// and an op touches one cache line of it.
#[derive(Debug)]
struct WarpGen {
    rng: DetRng,
    /// Memory ops emitted so far.
    emitted: u32,
    /// `emitted % tile`, stepped instead of divided (`Tiled` only).
    tile_pos: u32,
    compute_next: bool,
}

/// `x % n`, dividing only when `x` is out of range — a stream shorter than
/// its chunk, or a chunk index already inside the grid, never is.
#[inline]
fn wrap(x: u64, n: u64) -> u64 {
    if x < n {
        x
    } else {
        x % n
    }
}

impl PatternProgram {
    /// Builds the program for one CTA of the grid.
    pub fn new(spec: &KernelSpec, cta: CtaId) -> Self {
        let region_lines = (spec.region_bytes / LINE_SIZE).max(1);
        // With more CTAs than lines, CTAs share chunks (wrap) instead of
        // walking past the region.
        let num_chunks = (spec.ctas as u64).min(region_lines);
        let chunk_lines = (region_lines / num_chunks).max(1);
        let chunk_index = cta.index() as u64 % num_chunks;
        let region_base_line = spec.region_offset / LINE_SIZE;
        let clamped_lines = |bytes: u64| (bytes / LINE_SIZE).clamp(1, region_lines);
        let hoisted = match spec.pattern {
            Pattern::Tiled { reuse } => (spec.ops_per_warp as u64 / reuse.max(1) as u64)
                .max(1)
                .min(chunk_lines),
            Pattern::HotCold { hot_bytes, .. } => clamped_lines(hot_bytes),
            Pattern::Reduction { output_bytes } => clamped_lines(output_bytes),
            Pattern::SharedRead { shared_bytes, .. } => clamped_lines(shared_bytes),
            Pattern::Streaming | Pattern::Stencil { .. } => 0,
        };
        let warps = spec.warps_per_cta;
        let per_warp = (0..warps)
            .map(|w| {
                // Mix spec seed, CTA, and warp into one 64-bit seed.
                let s = spec
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((cta.index() as u64) << 20)
                    .wrapping_add(w as u64 + 1);
                WarpGen {
                    rng: DetRng::seed_from_u64(s),
                    emitted: 0,
                    tile_pos: 0,
                    compute_next: spec.compute_per_mem > 0,
                }
            })
            .collect();
        PatternProgram {
            pattern: spec.pattern,
            warps,
            ops_per_warp: spec.ops_per_warp,
            compute_per_mem: spec.compute_per_mem,
            read_fraction: spec.read_fraction,
            region_base_line,
            region_lines,
            chunk_lines,
            chunk_index,
            num_chunks,
            own_base: region_base_line + chunk_index * chunk_lines,
            hoisted,
            per_warp,
        }
    }

    /// The next memory op of warp `w` (its `emitted`-th).
    fn gen_op(&mut self, w: u32) -> WarpOp {
        let (region, lines, hoisted) = (self.region_base_line, self.region_lines, self.hoisted);
        let (me, chunks) = (self.chunk_index, self.num_chunks);
        let st = &mut self.per_warp[w as usize];
        // Streaming position within a chunk. Warps interleave over
        // consecutive lines (warp 0 takes line 0, warp 1 line 1, …), the
        // layout coalesced GPU kernels produce — so a page whose first
        // touch landed remotely is shared evenly by all warps instead of
        // serializing one straggler.
        let within = st.emitted as u64 * self.warps as u64 + w as u64;
        let stream = |chunk_base: u64| chunk_base + wrap(within, self.chunk_lines);
        let base_of = |chunk: u64| region + wrap(chunk, chunks) * self.chunk_lines;
        let rng = &mut st.rng;
        let mut read_fraction = self.read_fraction;
        let line = match self.pattern {
            Pattern::Streaming => stream(self.own_base),
            Pattern::Tiled { .. } => {
                let pos = st.tile_pos as u64;
                st.tile_pos = if pos + 1 == hoisted {
                    0
                } else {
                    st.tile_pos + 1
                };
                self.own_base + wrap(w as u64 * hoisted + pos, self.chunk_lines)
            }
            Pattern::HotCold { hot_fraction, .. } => {
                let hot = rng.random_bool(hot_fraction);
                region + rng.random_range(0..if hot { hoisted } else { lines })
            }
            Pattern::Stencil { halo_fraction } => {
                let chunk = if !rng.random_bool(halo_fraction) {
                    me
                } else if rng.random_bool(0.5) {
                    me.checked_sub(1).unwrap_or(chunks - 1)
                } else {
                    me + 1
                };
                stream(base_of(chunk))
            }
            Pattern::Reduction { .. } => {
                if rng.random_bool(read_fraction) {
                    return mem(stream(self.own_base), MemKind::Read);
                }
                return mem(region + rng.random_range(0..hoisted), MemKind::Write);
            }
            Pattern::SharedRead {
                shared_fraction,
                shared_read_fraction,
                ..
            } => {
                if rng.random_bool(shared_fraction) {
                    read_fraction = shared_read_fraction;
                    region + rng.random_range(0..hoisted)
                } else {
                    stream(self.own_base)
                }
            }
        };
        let kind = if rng.random_bool(read_fraction) {
            MemKind::Read
        } else {
            MemKind::Write
        };
        mem(line, kind)
    }
}

fn mem(line: u64, kind: MemKind) -> WarpOp {
    WarpOp::Mem {
        addr: Addr::new(line * LINE_SIZE),
        kind,
    }
}

impl CtaProgram for PatternProgram {
    fn num_warps(&self) -> u32 {
        self.warps
    }

    fn next_op(&mut self, warp: u32) -> Option<WarpOp> {
        let st = &mut self.per_warp[warp as usize];
        if st.emitted >= self.ops_per_warp {
            return None;
        }
        if st.compute_next {
            st.compute_next = false;
            return Some(WarpOp::compute(self.compute_per_mem));
        }
        let op = self.gen_op(warp);
        let st = &mut self.per_warp[warp as usize];
        st.emitted += 1;
        st.compute_next = self.compute_per_mem > 0;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniformly random lines over the whole region: no access is hot.
    const UNIFORM: Pattern = Pattern::HotCold {
        hot_fraction: 0.0,
        hot_bytes: 4096,
    };

    fn spec(pattern: Pattern) -> KernelSpec {
        KernelSpec {
            name: "k".into(),
            ctas: 8,
            warps_per_cta: 2,
            ops_per_warp: 16,
            compute_per_mem: 4,
            read_fraction: 1.0,
            pattern,
            region_offset: 0,
            region_bytes: 1 << 20,
            seed: 42,
        }
    }

    fn collect_ops(p: &mut PatternProgram, warp: u32) -> Vec<WarpOp> {
        std::iter::from_fn(|| p.next_op(warp)).collect()
    }

    #[test]
    fn alternates_compute_and_mem() {
        let s = spec(Pattern::Streaming);
        let mut p = PatternProgram::new(&s, CtaId::new(0));
        let ops = collect_ops(&mut p, 0);
        assert_eq!(ops.len(), 32); // 16 compute + 16 mem
        for pair in ops.chunks(2) {
            assert!(matches!(pair[0], WarpOp::Compute { cycles: 4 }));
            assert!(matches!(pair[1], WarpOp::Mem { .. }));
        }
    }

    #[test]
    fn no_compute_when_zero() {
        let mut s = spec(Pattern::Streaming);
        s.compute_per_mem = 0;
        let mut p = PatternProgram::new(&s, CtaId::new(0));
        let ops = collect_ops(&mut p, 0);
        assert_eq!(ops.len(), 16);
        assert!(ops.iter().all(|op| matches!(op, WarpOp::Mem { .. })));
    }

    #[test]
    fn deterministic_regeneration() {
        let s = spec(UNIFORM);
        let mut a = PatternProgram::new(&s, CtaId::new(3));
        let mut b = PatternProgram::new(&s, CtaId::new(3));
        assert_eq!(collect_ops(&mut a, 1), collect_ops(&mut b, 1));
    }

    #[test]
    fn different_ctas_different_streams() {
        let s = spec(UNIFORM);
        let mut a = PatternProgram::new(&s, CtaId::new(0));
        let mut b = PatternProgram::new(&s, CtaId::new(1));
        assert_ne!(collect_ops(&mut a, 0), collect_ops(&mut b, 0));
    }

    #[test]
    fn streaming_stays_in_cta_chunk() {
        let s = spec(Pattern::Streaming);
        let region_lines = s.region_bytes / LINE_SIZE;
        let chunk_lines = region_lines / s.ctas as u64;
        for cta in 0..s.ctas {
            let mut p = PatternProgram::new(&s, CtaId::new(cta));
            for op in collect_ops(&mut p, 0) {
                if let WarpOp::Mem { addr, .. } = op {
                    let line = addr.raw() / LINE_SIZE;
                    let chunk = line / chunk_lines;
                    assert_eq!(chunk, cta as u64, "line outside CTA chunk");
                }
            }
        }
    }

    #[test]
    fn all_addresses_inside_region() {
        for pattern in [
            Pattern::Streaming,
            Pattern::Tiled { reuse: 4 },
            Pattern::HotCold {
                hot_fraction: 0.8,
                hot_bytes: 4096,
            },
            Pattern::Stencil { halo_fraction: 0.3 },
            Pattern::Reduction { output_bytes: 4096 },
            Pattern::SharedRead {
                shared_fraction: 0.5,
                shared_bytes: 65536,
                shared_read_fraction: 0.8,
            },
        ] {
            let mut s = spec(pattern);
            s.read_fraction = 0.5;
            s.region_offset = 1 << 20;
            for cta in [0, 7] {
                let mut p = PatternProgram::new(&s, CtaId::new(cta));
                for w in 0..s.warps_per_cta {
                    for op in collect_ops(&mut p, w) {
                        if let WarpOp::Mem { addr, .. } = op {
                            assert!(addr.raw() >= s.region_offset, "{pattern:?}");
                            assert!(
                                addr.raw() < s.region_offset + s.region_bytes,
                                "{pattern:?}: {addr}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reduction_writes_go_to_output_region() {
        let mut s = spec(Pattern::Reduction { output_bytes: 2048 });
        s.read_fraction = 0.0; // all writes
        let mut p = PatternProgram::new(&s, CtaId::new(5));
        for op in collect_ops(&mut p, 0) {
            if let WarpOp::Mem { addr, kind } = op {
                assert_eq!(kind, MemKind::Write);
                assert!(addr.raw() < 2048);
            }
        }
    }

    #[test]
    fn shared_read_accesses_are_reads() {
        let s = KernelSpec {
            read_fraction: 0.0, // private accesses would be writes
            pattern: Pattern::SharedRead {
                shared_fraction: 1.0,
                shared_bytes: 4096,
                shared_read_fraction: 1.0,
            },
            ..spec(Pattern::Streaming)
        };
        let mut p = PatternProgram::new(&s, CtaId::new(0));
        for op in collect_ops(&mut p, 0) {
            if let WarpOp::Mem { kind, addr } = op {
                assert_eq!(kind, MemKind::Read);
                assert!(addr.raw() < 4096);
            }
        }
    }

    #[test]
    fn tiled_reuses_lines() {
        let s = KernelSpec {
            compute_per_mem: 0,
            ..spec(Pattern::Tiled { reuse: 4 })
        };
        let mut p = PatternProgram::new(&s, CtaId::new(0));
        let lines: Vec<u64> = collect_ops(&mut p, 0)
            .iter()
            .filter_map(|op| match op {
                WarpOp::Mem { addr, .. } => Some(addr.raw() / LINE_SIZE),
                _ => None,
            })
            .collect();
        let unique: std::collections::BTreeSet<_> = lines.iter().collect();
        assert_eq!(unique.len(), 4); // 16 ops / reuse 4
    }

    #[test]
    fn kernel_trait_roundtrip() {
        let k = PatternKernel::new(spec(Pattern::Streaming));
        assert_eq!(k.num_ctas(), 8);
        assert_eq!(k.warps_per_cta(), 2);
        assert_eq!(k.name(), "k");
        let mut cta = k.cta(CtaId::new(0));
        assert_eq!(cta.num_warps(), 2);
        assert!(cta.next_op(0).is_some());
    }

    #[test]
    #[should_panic(expected = "CTA outside grid")]
    fn out_of_grid_cta_panics() {
        let k = PatternKernel::new(spec(Pattern::Streaming));
        let _ = k.cta(CtaId::new(99));
    }
}
