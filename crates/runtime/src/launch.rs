//! Kernel decomposition and CTA-to-socket assignment.

use numa_gpu_types::{CtaId, CtaSchedulingPolicy, SocketId};
use std::collections::VecDeque;

/// Maps a CTA of the original grid to its executing socket.
///
/// * [`CtaSchedulingPolicy::Interleave`] — `cta % sockets`, the traditional
///   fine-grained policy that destroys inter-CTA locality.
/// * [`CtaSchedulingPolicy::ContiguousBlock`] — CTA `i` of `total` goes to
///   socket `i * sockets / total`, preserving the property that contiguous
///   CTAs (which tend to access contiguous memory) share a socket.
///
/// # Panics
///
/// Panics if `total_ctas` or `num_sockets` is zero, or `cta >= total_ctas`.
pub fn socket_for_cta(
    policy: CtaSchedulingPolicy,
    cta: u32,
    total_ctas: u32,
    num_sockets: u8,
) -> SocketId {
    assert!(total_ctas > 0 && num_sockets > 0, "empty grid or system");
    assert!(cta < total_ctas, "CTA index out of grid");
    match policy {
        CtaSchedulingPolicy::Interleave => SocketId::new((cta % num_sockets as u32) as u8),
        CtaSchedulingPolicy::ContiguousBlock => {
            SocketId::new((cta as u64 * num_sockets as u64 / total_ctas as u64) as u8)
        }
    }
}

/// Dispatch state for one decomposed kernel: a FIFO of pending CTAs per
/// socket. Sockets draw CTAs independently (no cross-socket stealing — the
/// paper launches a coarse block per GPU socket to avoid sub-kernel launch
/// latency). CTA ids are *not* renumbered: each socket's sub-kernel hands
/// out the ids of the original grid, as the paper requires.
///
/// # Examples
///
/// ```
/// use numa_gpu_runtime::LaunchPlan;
/// use numa_gpu_types::{CtaSchedulingPolicy, SocketId};
///
/// let mut plan = LaunchPlan::new(CtaSchedulingPolicy::ContiguousBlock, 8, 2);
/// assert_eq!(plan.next_for_socket(SocketId::new(0)).unwrap().index(), 0);
/// assert_eq!(plan.next_for_socket(SocketId::new(1)).unwrap().index(), 4);
/// assert_eq!(plan.remaining(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    queues: Vec<VecDeque<CtaId>>,
    remaining: u32,
}

impl LaunchPlan {
    /// Decomposes a `total_ctas` grid across `num_sockets` sockets.
    ///
    /// # Panics
    ///
    /// Panics if `total_ctas` or `num_sockets` is zero.
    pub fn new(policy: CtaSchedulingPolicy, total_ctas: u32, num_sockets: u8) -> Self {
        assert!(total_ctas > 0 && num_sockets > 0, "empty grid or system");
        let mut queues = vec![VecDeque::new(); num_sockets as usize];
        for cta in 0..total_ctas {
            let s = socket_for_cta(policy, cta, total_ctas, num_sockets);
            queues[s.index()].push_back(CtaId::new(cta));
        }
        LaunchPlan {
            queues,
            remaining: total_ctas,
        }
    }

    /// Pops the next pending CTA for `socket`, if any.
    pub fn next_for_socket(&mut self, socket: SocketId) -> Option<CtaId> {
        let cta = self.queues[socket.index()].pop_front();
        if cta.is_some() {
            self.remaining -= 1;
        }
        cta
    }

    /// CTAs not yet dispatched (across all sockets).
    pub fn remaining(&self) -> u32 {
        self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_round_robins() {
        let homes: Vec<_> = (0..8)
            .map(|c| socket_for_cta(CtaSchedulingPolicy::Interleave, c, 8, 4).index())
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn contiguous_blocks_are_contiguous() {
        let homes: Vec<_> = (0..8)
            .map(|c| socket_for_cta(CtaSchedulingPolicy::ContiguousBlock, c, 8, 4).index())
            .collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn contiguous_handles_non_divisible_grids() {
        let homes: Vec<_> = (0..10)
            .map(|c| socket_for_cta(CtaSchedulingPolicy::ContiguousBlock, c, 10, 4).index())
            .collect();
        assert_eq!(homes, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Monotone non-decreasing and within range.
        assert!(homes.windows(2).all(|w| w[0] <= w[1]));
        assert!(homes.iter().all(|&h| h < 4));
    }

    #[test]
    fn contiguous_fewer_ctas_than_sockets() {
        // 2 CTAs on 4 sockets: spread, not stacked.
        let h0 = socket_for_cta(CtaSchedulingPolicy::ContiguousBlock, 0, 2, 4);
        let h1 = socket_for_cta(CtaSchedulingPolicy::ContiguousBlock, 1, 2, 4);
        assert_ne!(h0, h1);
    }

    #[test]
    fn plan_preserves_original_ids() {
        let mut plan = LaunchPlan::new(CtaSchedulingPolicy::ContiguousBlock, 8, 2);
        let socket1: Vec<_> =
            std::iter::from_fn(|| plan.next_for_socket(SocketId::new(1))).collect();
        assert_eq!(
            socket1,
            vec![CtaId::new(4), CtaId::new(5), CtaId::new(6), CtaId::new(7)]
        );
    }

    #[test]
    fn plan_drains_to_zero() {
        let mut plan = LaunchPlan::new(CtaSchedulingPolicy::Interleave, 9, 4);
        let mut count = 0;
        for s in 0..4 {
            while plan.next_for_socket(SocketId::new(s)).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 9);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn single_socket_gets_everything_in_order() {
        let mut plan = LaunchPlan::new(CtaSchedulingPolicy::ContiguousBlock, 5, 1);
        let order: Vec<_> = std::iter::from_fn(|| plan.next_for_socket(SocketId::new(0)))
            .map(|c| c.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn zero_ctas_panics() {
        let _ = LaunchPlan::new(CtaSchedulingPolicy::Interleave, 0, 2);
    }
}
