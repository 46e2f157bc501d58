//! Property tests for the reversible-lane link.

use numa_gpu_interconnect::{GpuLink, LinkDirection, Topology};
use numa_gpu_testkit::gen::{bools, ints, pairs, triples, vecs};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_assume, prop_check};
use numa_gpu_types::{cycles_to_ticks, LinkConfig, LinkMode, SocketId, TopologyKind};

fn cfg(mode: LinkMode) -> LinkConfig {
    LinkConfig {
        lanes_per_direction: 8,
        lane_bytes_per_cycle: 8,
        latency_cycles: 128,
        switch_time_cycles: 100,
        sample_time_cycles: 5_000,
        mode,
    }
}

prop_check! {
    /// Under any traffic/rebalance schedule: the lane total is conserved,
    /// no direction drops below one lane, and per-direction completions
    /// stay FIFO.
    fn lanes_conserved_under_arbitrary_traffic(
        steps in vecs(triples(ints(0u64..5_000), bools(), ints(1u32..100_000)), 1..200)
    ) {
        let mut link = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        let mut now = 0;
        let mut last_eg = 0;
        let mut last_in = 0;
        for (i, (dt, egress, bytes)) in steps.iter().enumerate() {
            now += dt;
            let dir = if *egress { LinkDirection::Egress } else { LinkDirection::Ingress };
            let done = link.send(cycles_to_ticks(now), dir, *bytes);
            match dir {
                LinkDirection::Egress => {
                    prop_assert!(done >= last_eg, "egress FIFO violated");
                    last_eg = done;
                }
                LinkDirection::Ingress => {
                    prop_assert!(done >= last_in, "ingress FIFO violated");
                    last_in = done;
                }
            }
            if i % 7 == 0 {
                link.sample_and_rebalance(cycles_to_ticks(now + 5_000), 0.99);
                now += 5_000;
            }
            let eg = link.lanes(LinkDirection::Egress);
            let ing = link.lanes(LinkDirection::Ingress);
            prop_assert_eq!(eg + ing, 16, "lane total must be conserved");
            prop_assert!(eg >= 1 && ing >= 1, "no direction below one lane");
        }
    }

    /// Reset always restores the symmetric launch configuration, from any
    /// state.
    fn reset_restores_symmetry(turn_rounds in ints(0u64..20)) {
        let mut link = GpuLink::new(&cfg(LinkMode::DynamicAsymmetric));
        let mut now = 0u64;
        for _ in 0..turn_rounds {
            for _ in 0..50_000 {
                link.send(cycles_to_ticks(now), LinkDirection::Egress, 128);
            }
            now += 5_200;
            link.sample_and_rebalance(cycles_to_ticks(now), 0.99);
        }
        link.reset_symmetric(cycles_to_ticks(now));
        prop_assert_eq!(link.lanes(LinkDirection::Egress), 8);
        prop_assert_eq!(link.lanes(LinkDirection::Ingress), 8);
    }

    /// A transfer across the star switch always arrives no earlier than
    /// the wire latency plus the minimum occupancy, and loads exactly the
    /// two endpoint links.
    fn switch_transfer_bounds(
        bytes in ints(1u32..100_000),
        from in ints(0u8..4),
        to in ints(0u8..4)
    ) {
        prop_assume!(from != to);
        let mut star = Topology::new(TopologyKind::Star, &cfg(LinkMode::StaticSymmetric), 4).unwrap();
        let (_, arrive) = star
            .route(0, SocketId::new(from), SocketId::new(to), bytes)
            .unwrap();
        let min_occ = (bytes as u64 * 1024).div_ceil(64);
        prop_assert!(arrive >= cycles_to_ticks(128) + 2 * min_occ);
        let stats = |s: u8| star.link(s as usize).unwrap().stats();
        prop_assert_eq!(stats(from).egress_bytes.get(), bytes as u64);
        prop_assert_eq!(stats(to).ingress_bytes.get(), bytes as u64);
        let total: u64 = (0..4).map(|s| stats(s).egress_bytes.get() + stats(s).ingress_bytes.get()).sum();
        prop_assert_eq!(total, 2 * bytes as u64);
    }

    /// A static link at twice the lane rate is never slower than the
    /// Table 1 link for the same traffic.
    fn double_bandwidth_dominates(sends in vecs(pairs(ints(0u64..100), ints(1u32..10_000)), 1..100)) {
        let mut double = cfg(LinkMode::StaticSymmetric);
        double.lane_bytes_per_cycle *= 2;
        let mut fast = GpuLink::new(&double);
        let mut slow = GpuLink::new(&cfg(LinkMode::StaticSymmetric));
        let mut now = 0;
        for (dt, bytes) in sends {
            now += dt;
            let f = fast.send(cycles_to_ticks(now), LinkDirection::Egress, bytes);
            let s = slow.send(cycles_to_ticks(now), LinkDirection::Egress, bytes);
            prop_assert!(f <= s);
        }
    }
}
