//! Property tests for the synthetic trace generators.

use numa_gpu_runtime::Kernel;
use numa_gpu_testkit::gen::{bools, floats, ints, just, one_of, pairs, triples, Gen};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check, Config};
use numa_gpu_types::{CtaId, CtaProgram, WarpOp, LINE_SIZE};
use numa_gpu_workloads::{catalog, KernelSpec, Pattern, PatternKernel, PatternProgram, Scale};

fn arb_pattern() -> Gen<Pattern> {
    one_of(vec![
        just(Pattern::Streaming),
        ints(1u32..16).map(|reuse| Pattern::Tiled { reuse }),
        pairs(floats(0.0..1.0), ints(1u64..1_000_000)).map(|(hot_fraction, hot_bytes)| {
            Pattern::HotCold {
                hot_fraction,
                hot_bytes,
            }
        }),
        floats(0.0..1.0).map(|halo_fraction| Pattern::Stencil { halo_fraction }),
        ints(1u64..1_000_000).map(|output_bytes| Pattern::Reduction { output_bytes }),
        triples(floats(0.0..1.0), ints(1u64..1_000_000), floats(0.0..1.0)).map(
            |(shared_fraction, shared_bytes, shared_read_fraction)| Pattern::SharedRead {
                shared_fraction,
                shared_bytes,
                shared_read_fraction,
            },
        ),
    ])
}

/// Whole-spec generator: fields are drawn directly from the case RNG
/// (read fractions of exactly 1.0 are exercised separately by
/// `read_fraction_extremes`).
fn arb_spec() -> Gen<KernelSpec> {
    let pattern = arb_pattern();
    Gen::new(
        move |rng| KernelSpec {
            name: "prop".into(),
            ctas: rng.gen_range(1u32..64),
            warps_per_cta: rng.gen_range(1u32..8),
            ops_per_warp: rng.gen_range(1u32..64),
            compute_per_mem: rng.gen_range(0u32..16),
            read_fraction: rng.gen_range(0.0..1.0),
            pattern: pattern.sample(rng),
            region_offset: rng.gen_range(0u64..1024) * 1024,
            region_bytes: rng.gen_range(1u64..4096) * 1024,
            seed: rng.next_u64(),
        },
        |_| Vec::new(),
    )
}

prop_check! {
    #![config = Config::new().cases(64)]

    /// Every generated program terminates with exactly `ops_per_warp`
    /// memory ops per warp, alternating with compute ops when configured,
    /// and every address stays inside the kernel's region.
    fn programs_are_well_formed(spec in arb_spec()) {
        let kernel = PatternKernel::new(spec.clone());
        for cta in [0, spec.ctas - 1] {
            let mut p = kernel.cta(CtaId::new(cta));
            for w in 0..spec.warps_per_cta {
                let mut mem_ops = 0u32;
                let mut total = 0u32;
                while let Some(op) = p.next_op(w) {
                    total += 1;
                    prop_assert!(total < 4 * spec.ops_per_warp + 4, "must terminate");
                    match op {
                        WarpOp::Mem { addr, .. } => {
                            mem_ops += 1;
                            prop_assert!(addr.raw() >= spec.region_offset);
                            prop_assert!(
                                addr.raw() < spec.region_offset + spec.region_bytes.max(LINE_SIZE),
                                "{} outside region [{}, {})",
                                addr.raw(),
                                spec.region_offset,
                                spec.region_offset + spec.region_bytes
                            );
                            prop_assert_eq!(addr.raw() % LINE_SIZE, 0, "line aligned");
                        }
                        WarpOp::Compute { cycles } => {
                            prop_assert_eq!(cycles, spec.compute_per_mem);
                        }
                    }
                }
                prop_assert_eq!(mem_ops, spec.ops_per_warp);
                // Exhausted warps stay exhausted.
                prop_assert!(p.next_op(w).is_none());
            }
        }
    }

    /// Regenerating the same CTA yields the identical op stream.
    fn programs_are_deterministic(spec in arb_spec()) {
        let mut a = PatternProgram::new(&spec, CtaId::new(0));
        let mut b = PatternProgram::new(&spec, CtaId::new(0));
        for w in 0..spec.warps_per_cta {
            loop {
                let (x, y) = (a.next_op(w), b.next_op(w));
                prop_assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }

    /// Extreme read fractions produce only that kind of private access.
    fn read_fraction_extremes(seed in ints(0u64..u64::MAX), all_reads in bools()) {
        let spec = KernelSpec {
            name: "rw".into(),
            ctas: 4,
            warps_per_cta: 2,
            ops_per_warp: 32,
            compute_per_mem: 0,
            read_fraction: if all_reads { 1.0 } else { 0.0 },
            pattern: Pattern::Streaming,
            region_offset: 0,
            region_bytes: 1 << 20,
            seed,
        };
        let mut p = PatternProgram::new(&spec, CtaId::new(1));
        while let Some(op) = p.next_op(0) {
            if let WarpOp::Mem { kind, .. } = op {
                let is_read = kind == numa_gpu_types::MemKind::Read;
                prop_assert_eq!(is_read, all_reads);
            }
        }
    }
}

#[test]
fn full_catalog_programs_run_to_completion_at_quick_scale() {
    for wl in catalog(&Scale::quick()) {
        for kernel in &wl.kernels {
            // Sample the first CTA of each kernel.
            let mut p = kernel.cta(CtaId::new(0));
            for w in 0..p.num_warps() {
                let mut guard = 0;
                while p.next_op(w).is_some() {
                    guard += 1;
                    assert!(guard < 1_000_000, "{}: runaway trace", wl.meta.name);
                }
            }
        }
    }
}
