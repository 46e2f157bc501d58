//! Property tests for the composable fabric topologies.

use numa_gpu_interconnect::{GpuLink, LinkDirection, Topology};
use numa_gpu_testkit::gen::{ints, triples, vecs, Gen};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check};
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

const KINDS: [TopologyKind; 4] = [
    TopologyKind::Star,
    TopologyKind::Ring,
    TopologyKind::Mesh2d,
    TopologyKind::FatTree,
];

fn kind_for(sel: u8) -> TopologyKind {
    KINDS[(sel as usize) % KINDS.len()]
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
    /// Route tables are a pure function of (kind, sockets): two
    /// independently built fabrics agree on every path, hop for hop.
    fn route_tables_are_deterministic(
        sel in ints(0u8..4),
        sockets in ints(1u8..32)
    ) {
        let kind = kind_for(sel);
        let a = Topology::new(kind, &cfg(), sockets).unwrap();
        let b = Topology::new(kind, &cfg(), sockets).unwrap();
        prop_assert_eq!(a.num_edges(), b.num_edges());
        prop_assert_eq!(a.edges(), b.edges());
        for from in 0..sockets {
            for to in 0..sockets {
                prop_assert_eq!(
                    a.path(SocketId::new(from), SocketId::new(to)),
                    b.path(SocketId::new(from), SocketId::new(to)),
                    "path {}->{} diverged", from, to
                );
            }
        }
    }

    /// Every provided shape is symmetric-cost: the hop count from a to b
    /// equals the hop count from b to a (routes may differ — the ring
    /// breaks distance ties clockwise from both ends — but never in
    /// length), and every route is loop-free on edges.
    fn symmetric_topologies_have_symmetric_cost(
        sel in ints(0u8..4),
        sockets in ints(2u8..32)
    ) {
        let kind = kind_for(sel);
        let t = Topology::new(kind, &cfg(), sockets).unwrap();
        for from in 0..sockets {
            for to in 0..sockets {
                let fwd = t.path(SocketId::new(from), SocketId::new(to));
                let rev = t.path(SocketId::new(to), SocketId::new(from));
                prop_assert_eq!(
                    fwd.len(), rev.len(),
                    "asymmetric cost {}->{} on {}", from, to, kind
                );
                let mut edges: Vec<u16> = fwd.iter().map(|h| h.edge).collect();
                edges.sort_unstable();
                edges.dedup();
                prop_assert_eq!(edges.len(), fwd.len(), "route revisits an edge");
            }
        }
    }

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

    /// Per-edge byte conservation on every shape: each access edge's
    /// egress is exactly what its socket sent and its ingress exactly what
    /// it received, and each hop charges one direction of one edge, so
    /// the fabric's bytes total Σ bytes × hop count.
    fn route_conserves_bytes_per_edge(
        sel in ints(0u8..4),
        sockets in ints(2u8..33),
        sends in schedules()
    ) {
        let mut t = Topology::new(kind_for(sel), &cfg(), sockets).unwrap();
        let n = sockets as usize;
        let (mut sent, mut received) = (vec![0u64; n], vec![0u64; n]);
        let mut hop_bytes = 0u64;
        let mut now = 0u64;
        for (dt, pair_sel, bytes) in sends {
            now += dt;
            let Some((from, to)) = pair(pair_sel, sockets) else { continue };
            let (a, b) = (SocketId::new(from as u8), SocketId::new(to as u8));
            t.route(now, a, b, bytes).unwrap();
            sent[from] += bytes as u64;
            received[to] += bytes as u64;
            hop_bytes += bytes as u64 * t.hop_count(a, b) as u64;
        }
        for s in 0..n {
            let stats = t.link(s).unwrap().stats();
            prop_assert_eq!(stats.egress_bytes.get(), sent[s], "egress of access edge {}", s);
            prop_assert_eq!(stats.ingress_bytes.get(), received[s], "ingress of access edge {}", s);
        }
        let total: u64 = (0..t.num_edges())
            .map(|e| t.link(e).unwrap().stats())
            .map(|s| s.egress_bytes.get() + s.ingress_bytes.get())
            .sum();
        prop_assert_eq!(total, hop_bytes);
    }

    /// The executor's window size never exceeds the access hop: lookahead
    /// soundness holds on every shape and socket count.
    fn lookahead_never_exceeds_access_hop(
        sel in ints(0u8..4),
        sockets in ints(1u8..32)
    ) {
        let t = Topology::new(kind_for(sel), &cfg(), sockets).unwrap();
        prop_assert!(t.min_hop_latency() >= 1);
        prop_assert!(t.min_hop_latency() <= t.access_hop_latency());
    }
}
