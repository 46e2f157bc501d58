//! Collective-traffic workloads: all-reduce and all-to-all exchange
//! phases, parameterized by socket count.
//!
//! Unlike the Table 2 catalog, these workloads are *shaped by the machine*:
//! each builds its exchange schedule from `num_sockets`, so the same name
//! at 8 and 32 sockets produces proportionally wider traffic. Under
//! contiguous CTA scheduling and first-touch placement, a shift of one
//! CTA-block maps onto a shift of one socket, so the [`Pattern::Shifted`]
//! kernels exercise exactly the neighbour (ring), power-of-two (tree), and
//! uniform (all-to-all) paths the fabric topology provides.
//!
//! Every collective has a `-NUMA` variant modelling a topology-aware
//! implementation that aggregates locally before exchanging: the same
//! schedule with a smaller shifted fraction (tree stages also taper with
//! distance). The spread between the naive and `-NUMA` variants is the
//! payoff a NUMA-aware collective library gets from the fabric.

use crate::patterns::{KernelSpec, Pattern, PatternKernel};
use crate::scale::Scale;
use numa_gpu_runtime::{Kernel, Suite, Workload, WorkloadMeta};
use std::sync::Arc;

/// Ring exchange steps are capped so >8-socket rings stay tractable: the
/// traffic pattern of every step past the first few is identical.
const MAX_RING_STEPS: u32 = 8;

/// Paper-equivalent CTA count the collectives scale from.
const PAPER_CTAS: u64 = 2048;
/// Paper-equivalent footprint in MB.
const PAPER_MB: u64 = 128;

struct CollParams {
    ctas: u32,
    ctas_per_socket: u32,
    footprint: u64,
    ops: u32,
    seed: u64,
}

fn params(index: u64, num_sockets: u8, scale: &Scale) -> CollParams {
    let n = num_sockets.max(1) as u32;
    // CTA count divisible by the socket count, so contiguous-block
    // scheduling gives every socket the same number of CTA chunks.
    let ctas_per_socket = (scale.ctas(PAPER_CTAS) / n).max(1);
    CollParams {
        ctas: ctas_per_socket * n,
        ctas_per_socket,
        footprint: scale.footprint_bytes(PAPER_MB),
        ops: scale.ops(64),
        seed: 0xC0_11EC7 ^ (index.wrapping_mul(0x9E37_79B9)),
    }
}

fn exchange_kernel(p: &CollParams, name: String, stage: u64, pattern: Pattern) -> KernelSpec {
    KernelSpec {
        name,
        ctas: p.ctas,
        warps_per_cta: 4,
        ops_per_warp: p.ops,
        compute_per_mem: 4,
        read_fraction: 0.5,
        pattern,
        region_offset: 0,
        region_bytes: p.footprint,
        seed: p.seed.wrapping_add(stage.wrapping_mul(0x5851_F42D)),
    }
}

/// One kernel per ring step: every socket exchanges with its successor
/// (shift of one CTA block), `shifted_fraction` of the traffic crossing.
fn all_reduce_ring(p: &CollParams, num_sockets: u8, shifted_fraction: f64) -> Vec<KernelSpec> {
    let steps = (num_sockets.max(1) as u32 - 1).clamp(1, MAX_RING_STEPS);
    (0..steps)
        .map(|s| {
            exchange_kernel(
                p,
                format!("ring-step{s}"),
                s as u64,
                Pattern::Shifted {
                    shift_chunks: p.ctas_per_socket as u64,
                    shifted_fraction,
                },
            )
        })
        .collect()
}

/// One kernel per tree stage: stage `k` exchanges with the partner
/// `2^k` sockets ahead. The NUMA-aware variant tapers the shifted
/// fraction with distance (local aggregation first, so less data crosses
/// the wider hops).
fn all_reduce_tree(p: &CollParams, num_sockets: u8, numa_aware: bool) -> Vec<KernelSpec> {
    let n = num_sockets.max(1) as u32;
    // ceil(log2(n)) stages, and a single local stage on a 1-socket machine.
    let stages = n.next_power_of_two().trailing_zeros().max(1);
    (0..stages)
        .map(|k| {
            let fraction = if numa_aware {
                0.5 / (1u64 << k.min(8)) as f64
            } else {
                0.5
            };
            exchange_kernel(
                p,
                format!("tree-stage{k}"),
                k as u64,
                Pattern::Shifted {
                    shift_chunks: (p.ctas_per_socket as u64) << k,
                    shifted_fraction: fraction,
                },
            )
        })
        .collect()
}

/// A single kernel whose shifted accesses land on a uniformly random other
/// socket.
fn all_to_all(p: &CollParams, shifted_fraction: f64) -> Vec<KernelSpec> {
    vec![exchange_kernel(
        p,
        "all-to-all".to_string(),
        0,
        Pattern::Shifted {
            shift_chunks: 0,
            shifted_fraction,
        },
    )]
}

/// Builds a collective's exchange schedule for a machine of the given
/// socket count.
type Schedule = fn(&CollParams, u8) -> Vec<KernelSpec>;

/// Every collective, in fixed order: its name and its schedule.
const COLLECTIVES: [(&str, Schedule); 6] = [
    ("Coll-AllReduce-Ring", |p, n| all_reduce_ring(p, n, 0.5)),
    ("Coll-AllReduce-Ring-NUMA", |p, n| {
        all_reduce_ring(p, n, 0.2)
    }),
    ("Coll-AllReduce-Tree", |p, n| all_reduce_tree(p, n, false)),
    ("Coll-AllReduce-Tree-NUMA", |p, n| {
        all_reduce_tree(p, n, true)
    }),
    ("Coll-AllToAll", |p, _| all_to_all(p, 0.9)),
    ("Coll-AllToAll-NUMA", |p, _| all_to_all(p, 0.3)),
];

/// The collective workload names, in fixed order.
pub const COLLECTIVE_NAMES: [&str; 6] = {
    let mut names = [""; 6];
    let mut i = 0;
    while i < names.len() {
        names[i] = COLLECTIVES[i].0;
        i += 1;
    }
    names
};

fn build(index: usize, num_sockets: u8, scale: &Scale) -> Workload {
    let (name, schedule) = COLLECTIVES[index];
    let p = params(index as u64, num_sockets, scale);
    let kernels: Vec<Arc<dyn Kernel>> = schedule(&p, num_sockets)
        .into_iter()
        .map(|spec| Arc::new(PatternKernel::new(spec)) as Arc<dyn Kernel>)
        .collect();
    Workload {
        meta: WorkloadMeta {
            name: name.to_string(),
            suite: Suite::Other,
            paper_avg_ctas: PAPER_CTAS,
            paper_footprint_mb: PAPER_MB,
            study_set: false,
        },
        kernels,
        footprint_bytes: p.footprint,
    }
}

/// Builds every collective workload for a machine of `num_sockets`
/// sockets, in [`COLLECTIVE_NAMES`] order.
pub fn collectives(num_sockets: u8, scale: &Scale) -> Vec<Workload> {
    (0..COLLECTIVES.len())
        .map(|i| build(i, num_sockets, scale))
        .collect()
}

/// Builds one collective workload by name, or `None` for unknown names.
///
/// # Examples
///
/// ```
/// use numa_gpu_workloads::{collective_by_name, Scale};
///
/// let w = collective_by_name("Coll-AllReduce-Ring", 8, &Scale::quick()).unwrap();
/// assert_eq!(w.kernels.len(), 7); // one kernel per ring step
/// assert!(collective_by_name("Rodinia-BFS", 8, &Scale::quick()).is_none());
/// ```
pub fn collective_by_name(name: &str, num_sockets: u8, scale: &Scale) -> Option<Workload> {
    let index = COLLECTIVE_NAMES.iter().position(|n| *n == name)?;
    Some(build(index, num_sockets, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_collectives_build_at_many_socket_counts() {
        for n in [1u8, 2, 3, 4, 8, 16, 32] {
            for w in collectives(n, &Scale::quick()) {
                assert!(!w.kernels.is_empty(), "{} has no kernels", w.meta.name);
                assert!(w.total_ctas() > 0);
            }
        }
    }

    #[test]
    fn ring_steps_scale_with_sockets_and_cap() {
        let s = Scale::quick();
        let w4 = collective_by_name("Coll-AllReduce-Ring", 4, &s).unwrap();
        assert_eq!(w4.kernels.len(), 3);
        let w32 = collective_by_name("Coll-AllReduce-Ring", 32, &s).unwrap();
        assert_eq!(w32.kernels.len(), MAX_RING_STEPS as usize);
    }

    #[test]
    fn tree_stages_are_log2_sockets() {
        let s = Scale::quick();
        assert_eq!(
            collective_by_name("Coll-AllReduce-Tree", 8, &s)
                .unwrap()
                .kernels
                .len(),
            3
        );
        assert_eq!(
            collective_by_name("Coll-AllReduce-Tree", 32, &s)
                .unwrap()
                .kernels
                .len(),
            5
        );
        assert_eq!(
            collective_by_name("Coll-AllReduce-Tree", 1, &s)
                .unwrap()
                .kernels
                .len(),
            1
        );
    }

    #[test]
    fn cta_count_is_divisible_by_sockets() {
        for n in [2u8, 3, 5, 8, 16, 32] {
            let w = collective_by_name("Coll-AllToAll", n, &Scale::quick()).unwrap();
            assert_eq!(w.total_ctas() % n as u64, 0, "n={n}");
        }
    }

    #[test]
    fn collectives_are_deterministic() {
        let a = collective_by_name("Coll-AllToAll", 8, &Scale::quick()).unwrap();
        let b = collective_by_name("Coll-AllToAll", 8, &Scale::quick()).unwrap();
        let mut pa = a.kernels[0].cta(numa_gpu_types::CtaId::new(0));
        let mut pb = b.kernels[0].cta(numa_gpu_types::CtaId::new(0));
        for _ in 0..64 {
            assert_eq!(pa.next_op(0), pb.next_op(0));
        }
    }

    #[test]
    fn catalog_names_stay_separate_from_collectives() {
        // The Table 2 catalog and the collective set never overlap, so the
        // simulate fallback (`by_name` then `collective_by_name`) is
        // unambiguous.
        for n in COLLECTIVE_NAMES {
            assert!(crate::by_name(n, &Scale::quick()).is_none());
            assert!(collective_by_name(n, 4, &Scale::quick()).is_some());
        }
        for n in crate::WORKLOAD_NAMES {
            assert!(collective_by_name(n, 4, &Scale::quick()).is_none());
        }
    }
}
