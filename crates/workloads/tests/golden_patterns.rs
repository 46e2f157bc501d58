//! Golden op streams for every [`Pattern`] variant.
//!
//! The hashes were recorded on the commit *before* `PatternProgram` hoisted
//! its per-program constants and dropped the per-op divisions, so a passing
//! run proves the generator still emits the identical stream. A speed-only
//! change to `patterns.rs` must leave this file untouched.

use numa_gpu_testkit::fnv1a64;
use numa_gpu_types::{CtaId, CtaProgram, MemKind, WarpOp};
use numa_gpu_workloads::{KernelSpec, Pattern, PatternProgram};

const OPS: usize = 4096;

fn spec(pattern: Pattern) -> KernelSpec {
    KernelSpec {
        name: "golden".into(),
        ctas: 8,
        warps_per_cta: 4,
        ops_per_warp: 400,
        compute_per_mem: 3,
        read_fraction: 0.7,
        pattern,
        region_offset: 3 << 20,
        region_bytes: 1 << 20,
        seed: 0x5eed_601d,
    }
}

/// The first [`OPS`] ops of CTAs 0, 1 and last, warps interleaved
/// round-robin the way the SM issues them, folded into one hash.
fn stream_hash(spec: &KernelSpec) -> u64 {
    let mut bytes = Vec::with_capacity(OPS * 13);
    let mut taken = 0;
    for cta in [0, 1, spec.ctas - 1] {
        let mut prog = PatternProgram::new(spec, CtaId::new(cta));
        let mut live = true;
        while live && taken < OPS {
            live = false;
            for w in 0..prog.num_warps() {
                let Some(op) = prog.next_op(w) else { continue };
                live = true;
                taken += 1;
                match op {
                    WarpOp::Compute { cycles } => {
                        bytes.push(0);
                        bytes.extend_from_slice(&cycles.to_le_bytes());
                    }
                    WarpOp::Mem { addr, kind } => {
                        bytes.push(1 + (kind == MemKind::Write) as u8);
                        bytes.extend_from_slice(&addr.raw().to_le_bytes());
                    }
                }
            }
        }
    }
    assert!(taken >= OPS, "short stream");
    fnv1a64(&bytes)
}

fn cases() -> Vec<(&'static str, KernelSpec)> {
    let base = spec(Pattern::Streaming);
    vec![
        ("streaming", base.clone()),
        ("tiled", spec(Pattern::Tiled { reuse: 8 })),
        (
            "hot_cold",
            spec(Pattern::HotCold {
                hot_fraction: 0.8,
                hot_bytes: 64 * 1024,
            }),
        ),
        ("stencil", spec(Pattern::Stencil { halo_fraction: 0.3 })),
        (
            "reduction",
            spec(Pattern::Reduction {
                output_bytes: 16 * 1024,
            }),
        ),
        (
            "shared_read",
            spec(Pattern::SharedRead {
                shared_fraction: 0.5,
                shared_bytes: 128 * 1024,
                shared_read_fraction: 0.8,
            }),
        ),
        (
            "streaming_no_compute",
            KernelSpec {
                compute_per_mem: 0,
                ..base.clone()
            },
        ),
        // More CTAs than lines: chunks are one line and CTAs wrap.
        (
            "streaming_ctas_exceed_lines",
            KernelSpec {
                ctas: 40,
                region_bytes: 24 * 128,
                ..base.clone()
            },
        ),
        (
            "stencil_ctas_exceed_lines",
            KernelSpec {
                ctas: 40,
                region_bytes: 24 * 128,
                ..spec(Pattern::Stencil { halo_fraction: 0.5 })
            },
        ),
        // Tile (400 / 1 ops) larger than the 37-line chunk: clamps, and
        // `w * tile + k % tile` runs past the chunk and wraps.
        (
            "tiled_tile_exceeds_chunk",
            KernelSpec {
                region_bytes: 8 * 37 * 128,
                ..spec(Pattern::Tiled { reuse: 1 })
            },
        ),
        // Tile of 3 lines in a 5-line chunk: warp 3's tile straddles the end.
        (
            "tiled_straddles_chunk_end",
            KernelSpec {
                ops_per_warp: 399,
                region_bytes: 8 * 5 * 128,
                ..spec(Pattern::Tiled { reuse: 133 })
            },
        ),
        // Hot / output / shared sizes beyond the region clamp to it.
        (
            "hot_cold_hot_exceeds_region",
            KernelSpec {
                region_bytes: 64 * 128,
                ..spec(Pattern::HotCold {
                    hot_fraction: 0.5,
                    hot_bytes: 1 << 30,
                })
            },
        ),
    ]
}

/// Recorded on the parent commit (see the module doc).
const GOLDEN: &[(&str, u64)] = &[
    ("streaming", 0x2501f808abc0bd04),
    ("tiled", 0xc375ce5386663c18),
    ("hot_cold", 0x1744f95f2bf5e15c),
    ("stencil", 0x31db9faaeb1c2cf7),
    ("reduction", 0x94cd9e1beb53bc59),
    ("shared_read", 0xc72412980a1c11b8),
    ("streaming_no_compute", 0x7659b0f496c164e0),
    ("streaming_ctas_exceed_lines", 0xe170a8d59e35d04c),
    ("stencil_ctas_exceed_lines", 0xe0c2e1ec3dcd2016),
    ("tiled_tile_exceeds_chunk", 0x99f50aa8ba532544),
    ("tiled_straddles_chunk_end", 0xbe03681db0bc6304),
    ("hot_cold_hot_exceeds_region", 0xc5b20d4bb723c3b2),
];

#[test]
fn op_streams_match_the_recorded_hashes() {
    let got: Vec<(&str, u64)> = cases()
        .iter()
        .map(|(name, spec)| (*name, stream_hash(spec)))
        .collect();
    let listing: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "computed table:\n{listing}");
}
