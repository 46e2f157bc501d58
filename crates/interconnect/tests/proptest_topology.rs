//! Property tests for the switch fabric.

use numa_gpu_interconnect::{GpuLink, LinkDirection, Topology};
use numa_gpu_testkit::gen::{ints, triples, vecs, Gen};
use numa_gpu_testkit::{prop_assert_eq, prop_check};
use numa_gpu_types::{cycles_to_ticks, LinkConfig, LinkMode, SocketId, TopologyKind};

fn cfg() -> LinkConfig {
    LinkConfig {
        lanes_per_direction: 8,
        lane_bytes_per_cycle: 8,
        latency_cycles: 128,
        switch_time_cycles: 100,
        sample_time_cycles: 5_000,
        mode: LinkMode::StaticSymmetric,
    }
}

/// Transfer schedules: `(ticks since the previous send, pair selector,
/// bytes)`. [`pair`] maps the selector onto an ordered socket pair.
fn schedules() -> Gen<Vec<(u64, u16, u32)>> {
    vecs(
        triples(ints(0u64..10_000), ints(0u16..1024), ints(1u32..100_000)),
        1..100,
    )
}

/// The `(from, to)` pair `sel` picks among `sockets`; `None` when equal.
fn pair(sel: u16, sockets: u8) -> Option<(usize, usize)> {
    let n = sockets as u16;
    let (from, to) = ((sel % n) as usize, ((sel / n) % n) as usize);
    (from != to).then_some((from, to))
}

prop_check! {
    /// Under any transfer schedule the star charges exactly the paper's
    /// single switch: the source's egress lanes, half the link latency to
    /// the switch, the destination's ingress lanes, and the other half.
    fn star_matches_switch_under_any_schedule(sockets in ints(2u8..16), sends in schedules()) {
        let c = cfg();
        let half = cycles_to_ticks(c.latency_cycles as u64) / 2;
        let mut links: Vec<GpuLink> = (0..sockets).map(|_| GpuLink::new(&c)).collect();
        let mut topo = Topology::new(TopologyKind::Star, &c, sockets).unwrap();
        let mut now = 0u64;
        for (dt, sel, bytes) in sends {
            now += dt;
            let Some((from, to)) = pair(sel, sockets) else { continue };
            let egress_clear = links[from].send(now, LinkDirection::Egress, bytes);
            let arrival = links[to].send(egress_clear + half, LinkDirection::Ingress, bytes) + half;
            let got = topo.route(now, SocketId::new(from as u8), SocketId::new(to as u8), bytes);
            prop_assert_eq!(got.unwrap(), (egress_clear, arrival), "t={} {}->{}", now, from, to);
        }
    }

    /// Per-link byte conservation: each socket's link egresses exactly
    /// what the socket sent and ingresses exactly what it received, so the
    /// fabric's bytes total twice the bytes routed.
    fn route_conserves_bytes_per_edge(sockets in ints(2u8..33), sends in schedules()) {
        let mut t = Topology::new(TopologyKind::Star, &cfg(), sockets).unwrap();
        let n = sockets as usize;
        let (mut sent, mut received) = (vec![0u64; n], vec![0u64; n]);
        let mut routed = 0u64;
        let mut now = 0u64;
        for (dt, pair_sel, bytes) in sends {
            now += dt;
            let Some((from, to)) = pair(pair_sel, sockets) else { continue };
            t.route(now, SocketId::new(from as u8), SocketId::new(to as u8), bytes).unwrap();
            sent[from] += bytes as u64;
            received[to] += bytes as u64;
            routed += bytes as u64;
        }
        for s in 0..n {
            let stats = t.link(s).unwrap().stats();
            prop_assert_eq!(stats.egress_bytes.get(), sent[s], "egress of socket {}", s);
            prop_assert_eq!(stats.ingress_bytes.get(), received[s], "ingress of socket {}", s);
        }
        let total: u64 = t
            .into_links()
            .iter()
            .map(|l| l.stats().egress_bytes.get() + l.stats().ingress_bytes.get())
            .sum();
        prop_assert_eq!(total, 2 * routed);
    }
}
