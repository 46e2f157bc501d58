//! Composable inter-socket fabric topologies with per-hop routing.
//!
//! The paper's fabric (Figure 1) is one switch with a reversible-lane link
//! per GPU; this module models it, and richer shapes, as one graph of
//! nodes (GPU sockets and switches) connected by [`GpuLink`]-backed edges.
//! Four shapes are provided (see [`TopologyKind`]): the star the paper
//! evaluates, a bidirectional ring, a 2D mesh with X-then-Y routing, and a
//! two-level NVSwitch-style fat-tree.
//!
//! # Edge identity and latency model
//!
//! Edges are numbered deterministically: edge `i` for `i < num_sockets` is
//! socket `i`'s *access* edge (the socket↔fabric link the paper's per-GPU
//! lane balancer manages); interior switch↔switch edges follow in
//! construction order. This keeps edge ids `0..n` interchangeable with
//! socket indices, so fault plans and per-socket link reports mean the
//! same thing on every topology.
//!
//! Every hop charges lane occupancy on its edge's [`GpuLink`] plus the
//! edge's propagation latency. Access edges pay half the configured one-way
//! link latency, so a star transfer (two access hops) pays the full
//! `latency_cycles`. Interior backplane hops are modeled at half an access
//! hop (`latency_cycles / 4`): switch-to-switch traces are short compared
//! to the socket↔switch cable. The consequence, relied on by the
//! partitioned executor, is that the minimum adjacent-hop latency equals
//! the access-hop latency only in the star fabric.
//!
//! Routes are precomputed at construction into a flat table indexed by
//! `(from, to)`; routing is therefore deterministic and allocation-free on
//! the send path (arrays, not the hash maps `clippy.toml` bans).
//!
//! # Examples
//!
//! ```
//! use numa_gpu_interconnect::Topology;
//! use numa_gpu_types::{LinkConfig, LinkMode, SocketId, TopologyKind};
//!
//! let cfg = LinkConfig {
//!     lanes_per_direction: 8,
//!     lane_bytes_per_cycle: 8,
//!     latency_cycles: 128,
//!     switch_time_cycles: 100,
//!     sample_time_cycles: 5000,
//!     mode: LinkMode::StaticSymmetric,
//! };
//! let mut ring = Topology::new(TopologyKind::Ring, &cfg, 8).unwrap();
//! // Opposite sides of an 8-ring: 2 access hops + 4 ring segments.
//! assert_eq!(ring.hop_count(SocketId::new(0), SocketId::new(4)), 6);
//! let (egress_clear, arrival) = ring
//!     .route(0, SocketId::new(0), SocketId::new(4), 128)
//!     .unwrap();
//! assert!(arrival > egress_clear);
//! ```

use crate::link::{GpuLink, LinkDirection};
use numa_gpu_types::{
    cycles_to_ticks, ConfigError, LinkConfig, SimError, SocketId, Tick, TopologyKind,
};

/// A vertex of the fabric graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// A GPU socket endpoint (index `< num_sockets`).
    Socket(u8),
    /// An interconnect switch (index meaningful per topology).
    Switch(u8),
}

/// One bidirectional fabric edge: a [`GpuLink`] between two nodes plus its
/// propagation latency per traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSpec {
    /// One endpoint (for access edges, always the socket).
    pub a: Node,
    /// The other endpoint.
    pub b: Node,
    /// Propagation latency charged per traversal of this edge, in ticks.
    pub hop_latency: Tick,
}

/// A directed traversal step: which edge, and which lane direction models
/// the orientation (`a`→`b` uses [`LinkDirection::Egress`], `b`→`a` uses
/// [`LinkDirection::Ingress`]), so the reversible-lane balancer sees each
/// interior edge's directional load exactly like an endpoint link's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Index into the topology's edge list.
    pub edge: u16,
    /// Lane direction charged on the edge's link for this orientation.
    pub dir: LinkDirection,
}

/// A composable inter-socket fabric: sockets and switches joined by
/// [`GpuLink`]-backed edges, with deterministic precomputed route tables.
///
/// Built standalone, [`Topology::route`] carries a transfer end to end:
/// the source's egress lanes, every hop in between, and the destination's
/// ingress lanes. Inside the core simulator the access links are detached
/// into the socket partitions (see [`Topology::detach_access_links`]) and
/// only the interior hops are charged here, at deterministic serial
/// points.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    num_sockets: u8,
    edges: Vec<EdgeSpec>,
    /// One link per edge; `None` after `detach_access_links`.
    links: Vec<Option<GpuLink>>,
    /// Full hop path for `from * n + to`; empty when `from == to`.
    routes: Vec<Vec<Hop>>,
    access_hop_latency: Tick,
}

impl Topology {
    /// Builds the fabric of the given shape over `num_sockets` sockets.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `num_sockets` is zero.
    pub fn new(
        kind: TopologyKind,
        config: &LinkConfig,
        num_sockets: u8,
    ) -> Result<Self, ConfigError> {
        if num_sockets == 0 {
            return Err(ConfigError::new("topology needs at least one socket"));
        }
        let access = cycles_to_ticks(config.latency_cycles as u64) / 2;
        // Interior switch-to-switch traces are short backplane hops; model
        // them at half an access hop. Never zero, so windows stay nonempty.
        let interior = (access / 2).max(1);
        let builder = TopologyBuilder::new(num_sockets, access, interior);
        let built = match kind {
            TopologyKind::Star => builder.star(),
            TopologyKind::Ring => builder.ring(),
            TopologyKind::Mesh2d => builder.mesh2d(),
            TopologyKind::FatTree => builder.fattree(),
        };
        let links = built
            .edges
            .iter()
            .map(|_| Some(GpuLink::new(config)))
            .collect();
        Ok(Topology {
            kind,
            num_sockets,
            edges: built.edges,
            links,
            routes: built.routes,
            access_hop_latency: access,
        })
    }

    /// The shape this fabric was built as.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of attached sockets.
    pub fn num_sockets(&self) -> usize {
        self.num_sockets as usize
    }

    /// Total edge count (access edges first, then interior edges).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (index = edge id).
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// The precomputed hop path from `from` to `to` (empty when the pair is
    /// degenerate: equal endpoints or out of range).
    pub fn path(&self, from: SocketId, to: SocketId) -> &[Hop] {
        let n = self.num_sockets as usize;
        if from.index() >= n || to.index() >= n {
            return &[];
        }
        &self.routes[from.index() * n + to.index()]
    }

    /// Number of hops (access + interior) between two sockets.
    pub fn hop_count(&self, from: SocketId, to: SocketId) -> usize {
        self.path(from, to).len()
    }

    /// Propagation latency of an access (socket↔fabric) hop, in ticks:
    /// half the configured one-way link latency.
    pub fn access_hop_latency(&self) -> Tick {
        self.access_hop_latency
    }

    /// Minimum hop latency over every edge in the fabric: the partitioned
    /// executor's conservative lookahead. No message sent by one socket at
    /// time `t` can affect any other socket before `t + min_hop_latency()`,
    /// because the first hop out of a socket is always at least this long
    /// (and interior hops only add delay after it).
    pub fn min_hop_latency(&self) -> Tick {
        self.edges
            .iter()
            .map(|e| e.hop_latency)
            .min()
            .unwrap_or(self.access_hop_latency)
    }

    /// Sends `bytes` along the full precomputed route, charging lane
    /// occupancy and propagation on every hop in order. Returns
    /// `(egress_clear, arrival)`: the tick the packet clears the source's
    /// access lanes (store backpressure), and the tick it arrives at the
    /// destination.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRoute`] when `from == to`, an endpoint is
    /// out of range, or a link on the path has been detached into a socket
    /// partition (standalone use only — the core charges detached access
    /// links itself).
    pub fn route(
        &mut self,
        now: Tick,
        from: SocketId,
        to: SocketId,
        bytes: u32,
    ) -> Result<(Tick, Tick), SimError> {
        let n = self.num_sockets as usize;
        if from.index() >= n || to.index() >= n {
            return Err(SimError::InvalidRoute {
                message: format!("endpoint {from}->{to} out of range ({n} sockets)"),
            });
        }
        if from == to {
            return Err(SimError::InvalidRoute {
                message: format!("local transfer {from}->{to} must not enter the fabric"),
            });
        }
        let key = from.index() * n + to.index();
        let mut t = now;
        let mut egress_clear = now;
        for i in 0..self.routes[key].len() {
            let hop = self.routes[key][i];
            let latency = self.edges[hop.edge as usize].hop_latency;
            let link =
                self.links[hop.edge as usize]
                    .as_mut()
                    .ok_or_else(|| SimError::InvalidRoute {
                        message: format!(
                            "edge {} on route {from}->{to} is detached from the fabric",
                            hop.edge
                        ),
                    })?;
            t = link.send(t, hop.dir, bytes);
            if i == 0 {
                egress_clear = t;
            }
            t += latency;
        }
        Ok((egress_clear, t))
    }

    /// Charges only the *interior* hops of the `from`→`to` route, starting
    /// from `at` (the tick the packet reached the source-side fabric
    /// boundary), and returns the tick it reaches the destination-side
    /// boundary. The two access hops are the caller's responsibility — in
    /// the core they are owned by the socket partitions and charged inside
    /// each partition's run of a window, while interior hops are charged
    /// here at the points every partition shares (window barriers, flush,
    /// control plane).
    ///
    /// For the star fabric there are no interior hops and `at` is returned
    /// unchanged. Degenerate endpoints also return `at` unchanged.
    pub fn interior_traverse(
        &mut self,
        from: SocketId,
        to: SocketId,
        at: Tick,
        bytes: u32,
    ) -> Tick {
        let n = self.num_sockets as usize;
        if from.index() >= n || to.index() >= n || from == to {
            return at;
        }
        let key = from.index() * n + to.index();
        let len = self.routes[key].len();
        let mut t = at;
        for i in 1..len.saturating_sub(1) {
            let hop = self.routes[key][i];
            let latency = self.edges[hop.edge as usize].hop_latency;
            if let Some(link) = self.links[hop.edge as usize].as_mut() {
                t = link.send(t, hop.dir, bytes) + latency;
            }
        }
        t
    }

    /// Moves the access links still attached out of the fabric, in socket
    /// order (the core gives each to its socket's partition, so a window's
    /// run of one partition touches no other partition's link state).
    pub fn detach_access_links(&mut self) -> impl Iterator<Item = GpuLink> + '_ {
        let n = self.num_sockets as usize;
        self.links[..n].iter_mut().filter_map(Option::take)
    }

    /// Immutable access to one edge's link (`None` if out of range or
    /// detached).
    pub fn link(&self, edge: usize) -> Option<&GpuLink> {
        self.links.get(edge).and_then(|l| l.as_ref())
    }

    /// Mutable access to one edge's link (`None` if out of range or
    /// detached). Edge ids `0..num_sockets` are the access links; interior
    /// edges follow — this is how fault injection addresses hops.
    pub fn link_mut(&mut self, edge: usize) -> Option<&mut GpuLink> {
        self.links.get_mut(edge).and_then(|l| l.as_mut())
    }

    /// The interior (switch↔switch) links as `(edge, link)`, in edge-id
    /// order; empty on the star fabric.
    pub fn interior_links(&self) -> impl Iterator<Item = (usize, &GpuLink)> {
        let n = self.num_sockets as usize;
        let links = self.links[n..].iter().enumerate();
        links.filter_map(move |(i, l)| l.as_ref().map(|l| (n + i, l)))
    }

    /// [`Self::interior_links`], mutably.
    pub fn interior_links_mut(&mut self) -> impl Iterator<Item = (usize, &mut GpuLink)> {
        let n = self.num_sockets as usize;
        let links = self.links[n..].iter_mut().enumerate();
        links.filter_map(move |(i, l)| l.as_mut().map(|l| (n + i, l)))
    }
}

/// Intermediate construction state shared by the shape builders.
struct TopologyBuilder {
    n: usize,
    access_latency: Tick,
    interior_latency: Tick,
}

struct Built {
    edges: Vec<EdgeSpec>,
    routes: Vec<Vec<Hop>>,
}

impl TopologyBuilder {
    fn new(num_sockets: u8, access_latency: Tick, interior_latency: Tick) -> Self {
        TopologyBuilder {
            n: num_sockets as usize,
            access_latency,
            interior_latency,
        }
    }

    /// Access edges 0..n, socket `i` attached to `attach(i)`.
    fn access_edges(&self, attach: impl Fn(usize) -> Node) -> Vec<EdgeSpec> {
        (0..self.n)
            .map(|i| EdgeSpec {
                a: Node::Socket(i as u8),
                b: attach(i),
                hop_latency: self.access_latency,
            })
            .collect()
    }

    fn interior_edge(&self, a: Node, b: Node) -> EdgeSpec {
        EdgeSpec {
            a,
            b,
            hop_latency: self.interior_latency,
        }
    }

    /// Assembles the route table given a closure producing the interior
    /// hops of each ordered pair. Every route is access-out, interior hops,
    /// access-in.
    fn routes(&self, interior: impl Fn(usize, usize) -> Vec<Hop>) -> Vec<Vec<Hop>> {
        let mut table = Vec::with_capacity(self.n * self.n);
        for from in 0..self.n {
            for to in 0..self.n {
                if from == to {
                    table.push(Vec::new());
                    continue;
                }
                let mut path = Vec::new();
                path.push(Hop {
                    edge: from as u16,
                    dir: LinkDirection::Egress,
                });
                path.extend(interior(from, to));
                path.push(Hop {
                    edge: to as u16,
                    dir: LinkDirection::Ingress,
                });
                table.push(path);
            }
        }
        table
    }

    /// The paper's fabric: every socket on one central switch, no interior
    /// edges. Every route is the source's egress, then the destination's
    /// ingress.
    fn star(self) -> Built {
        Built {
            edges: self.access_edges(|_| Node::Switch(0)),
            routes: self.routes(|_, _| Vec::new()),
        }
    }

    /// Per-socket switches on a bidirectional ring; traffic takes the
    /// shorter arc, breaking ties clockwise (ascending socket order).
    fn ring(self) -> Built {
        let n = self.n;
        let mut edges = self.access_edges(|i| Node::Switch(i as u8));
        // Ring segment s: Switch(s) -- Switch((s+1) % n). A 2-ring is a
        // single segment (two parallel segments would double the physical
        // links without changing routing); a 1-ring has none.
        let segments = match n {
            0 | 1 => 0,
            2 => 1,
            _ => n,
        };
        for s in 0..segments {
            edges
                .push(self.interior_edge(Node::Switch(s as u8), Node::Switch(((s + 1) % n) as u8)));
        }
        let routes = self.routes(|from, to| {
            let mut hops = Vec::new();
            let cw = (to + n - from) % n;
            let ccw = (from + n - to) % n;
            if cw <= ccw {
                // Clockwise: traverse segment s in its a->b orientation.
                let mut s = from;
                for _ in 0..cw {
                    hops.push(Hop {
                        edge: (n + s % segments.max(1)) as u16,
                        dir: if n == 2 && s == 1 {
                            // 2-ring reuses the single segment backwards.
                            LinkDirection::Ingress
                        } else {
                            LinkDirection::Egress
                        },
                    });
                    s = (s + 1) % n;
                }
            } else {
                // Counter-clockwise: traverse segment (s-1) b->a.
                let mut s = from;
                for _ in 0..ccw {
                    let seg = (s + n - 1) % n;
                    hops.push(Hop {
                        edge: (n + seg % segments.max(1)) as u16,
                        dir: LinkDirection::Ingress,
                    });
                    s = seg;
                }
            }
            hops
        });
        Built { edges, routes }
    }

    /// Sockets on a ⌈√n⌉-column switch grid with deterministic X-then-Y
    /// (column-first) dimension-order routing.
    fn mesh2d(self) -> Built {
        let n = self.n;
        let cols = (1..).find(|c| c * c >= n).unwrap_or(1);
        let rows = n.div_ceil(cols);
        // Socket i sits on grid switch i (row-major); switches beyond n-1
        // up to rows*cols-1 exist as pure routers so X-then-Y paths always
        // have a full rectangle to turn in.
        let mut edges = self.access_edges(|i| Node::Switch(i as u8));
        let base_h = edges.len();
        for r in 0..rows {
            for c in 0..cols - 1 {
                edges.push(self.interior_edge(
                    Node::Switch((r * cols + c) as u8),
                    Node::Switch((r * cols + c + 1) as u8),
                ));
            }
        }
        let base_v = edges.len();
        for r in 0..rows - 1 {
            for c in 0..cols {
                edges.push(self.interior_edge(
                    Node::Switch((r * cols + c) as u8),
                    Node::Switch(((r + 1) * cols + c) as u8),
                ));
            }
        }
        let h_edge = move |r: usize, c: usize| (base_h + r * (cols - 1) + c) as u16;
        let v_edge = move |r: usize, c: usize| (base_v + r * cols + c) as u16;
        let routes = self.routes(|from, to| {
            let (r1, c1) = (from / cols, from % cols);
            let (r2, c2) = (to / cols, to % cols);
            let mut hops = Vec::new();
            // X first: walk columns within row r1.
            if c2 > c1 {
                for c in c1..c2 {
                    hops.push(Hop {
                        edge: h_edge(r1, c),
                        dir: LinkDirection::Egress,
                    });
                }
            } else {
                for c in (c2..c1).rev() {
                    hops.push(Hop {
                        edge: h_edge(r1, c),
                        dir: LinkDirection::Ingress,
                    });
                }
            }
            // Then Y: walk rows within column c2.
            if r2 > r1 {
                for r in r1..r2 {
                    hops.push(Hop {
                        edge: v_edge(r, c2),
                        dir: LinkDirection::Egress,
                    });
                }
            } else {
                for r in (r2..r1).rev() {
                    hops.push(Hop {
                        edge: v_edge(r, c2),
                        dir: LinkDirection::Ingress,
                    });
                }
            }
            hops
        });
        Built { edges, routes }
    }

    /// Two-level fat-tree: leaf switches host up to four sockets each and
    /// share a single root switch (NVSwitch-style). The per-leaf uplink is
    /// shared by its sockets — a 4:1 oversubscription under all-to-all.
    fn fattree(self) -> Built {
        let n = self.n;
        let leaves = n.div_ceil(4);
        let root = Node::Switch(leaves as u8);
        let mut edges = self.access_edges(|i| Node::Switch((i / 4) as u8));
        if leaves > 1 {
            for leaf in 0..leaves {
                edges.push(self.interior_edge(Node::Switch(leaf as u8), root));
            }
        }
        let routes = self.routes(|from, to| {
            let (lf, lt) = (from / 4, to / 4);
            if lf == lt {
                Vec::new()
            } else {
                vec![
                    Hop {
                        edge: (n + lf) as u16,
                        dir: LinkDirection::Egress,
                    },
                    Hop {
                        edge: (n + lt) as u16,
                        dir: LinkDirection::Ingress,
                    },
                ]
            }
        });
        Built { edges, routes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_types::{ticks_to_cycles, LinkMode};

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

    fn s(i: u8) -> SocketId {
        SocketId::new(i)
    }

    #[test]
    fn star_has_no_interior_edges_and_two_hop_routes() {
        let t = Topology::new(TopologyKind::Star, &cfg(), 8).unwrap();
        assert_eq!(t.num_edges(), 8);
        assert_eq!(t.interior_links().count(), 0);
        for a in 0..8 {
            for b in 0..8 {
                let expect = if a == b { 0 } else { 2 };
                assert_eq!(t.hop_count(s(a), s(b)), expect);
            }
        }
        assert_eq!(t.min_hop_latency(), t.access_hop_latency());
    }

    #[test]
    fn star_route_matches_switch_exactly() {
        // The paper's single-switch timing, pinned as `(egress_clear,
        // arrival)` ticks with queueing state carried across transfers. At
        // 64 B/cycle and 1024 ticks a cycle, 6400 B occupy a direction for
        // 102_400 ticks, and each access hop adds 65_536 (64 cycles).
        let mut topo = Topology::new(TopologyKind::Star, &cfg(), 4).unwrap();
        let table = [
            ((0u64, 0u8, 1u8, 6400u32), (102_400, 335_872)),
            ((0, 0, 2, 144), (104_704, 238_080)),
            ((10, 2, 0, 144), (2_314, 135_690)),
            ((10, 3, 1, 16), (266, 336_128)),
            ((500, 1, 0, 128), (2_548, 137_738)),
            ((500, 0, 1, 6400), (207_104, 440_576)),
        ];
        for ((now, from, to, bytes), want) in table {
            let got = topo.route(now, s(from), s(to), bytes).unwrap();
            assert_eq!(got, want, "transfer {now} {from}->{to} {bytes}B");
        }
    }

    #[test]
    fn star_route_pays_full_latency() {
        let mut t = Topology::new(TopologyKind::Star, &cfg(), 4).unwrap();
        let (_, arrive) = t.route(0, s(0), s(1), 128).unwrap();
        assert_eq!(ticks_to_cycles(arrive), 132); // 2 + 64 + 2 + 64
    }

    #[test]
    fn ring_takes_shorter_arc_with_clockwise_ties() {
        let t = Topology::new(TopologyKind::Ring, &cfg(), 8).unwrap();
        assert_eq!(t.num_edges(), 16); // 8 access + 8 segments
        assert_eq!(t.hop_count(s(0), s(1)), 3); // 2 access + 1 segment
        assert_eq!(t.hop_count(s(0), s(7)), 3); // wraps counter-clockwise
        assert_eq!(t.hop_count(s(0), s(4)), 6); // tie distance: 4 segments
        assert_eq!(t.hop_count(s(4), s(0)), 6); // symmetric cost
                                                // Tie breaks clockwise: 0->4 uses segments 0..4 in Egress.
        let path = t.path(s(0), s(4));
        assert_eq!(path[1].edge, 8);
        assert_eq!(path[1].dir, LinkDirection::Egress);
        // And 4->0 also goes clockwise (4,5,6,7), not back the same way.
        let back = t.path(s(4), s(0));
        assert_eq!(back[1].edge, 12);
        assert_eq!(back[1].dir, LinkDirection::Egress);
    }

    #[test]
    fn two_socket_ring_reuses_its_single_segment() {
        let t = Topology::new(TopologyKind::Ring, &cfg(), 2).unwrap();
        assert_eq!(t.num_edges(), 3); // 2 access + 1 segment
        let fwd = t.path(s(0), s(1));
        let rev = t.path(s(1), s(0));
        assert_eq!(
            fwd[1],
            Hop {
                edge: 2,
                dir: LinkDirection::Egress
            }
        );
        assert_eq!(
            rev[1],
            Hop {
                edge: 2,
                dir: LinkDirection::Ingress
            }
        );
    }

    #[test]
    fn mesh_routes_x_then_y() {
        // 8 sockets: 3x3 grid (9 switches, last one socket-less).
        let t = Topology::new(TopologyKind::Mesh2d, &cfg(), 8).unwrap();
        // interior: 3 rows * 2 h-edges + 2 rows * 3 v-edges = 12.
        assert_eq!(t.num_edges(), 8 + 12);
        // 0 (0,0) -> 5 (1,2): two h hops east then one v hop south.
        let path = t.path(s(0), s(5));
        assert_eq!(path.len(), 5);
        assert_eq!(path[1].dir, LinkDirection::Egress);
        assert_eq!(path[2].dir, LinkDirection::Egress);
        // 5 -> 0 walks west then north: same hop count.
        assert_eq!(t.hop_count(s(5), s(0)), 5);
    }

    #[test]
    fn fattree_is_two_level() {
        let t = Topology::new(TopologyKind::FatTree, &cfg(), 16).unwrap();
        assert_eq!(t.num_edges(), 16 + 4); // 4 leaves, 4 uplinks
        assert_eq!(t.hop_count(s(0), s(1)), 2); // same leaf: star-like
        assert_eq!(t.hop_count(s(0), s(5)), 4); // cross-leaf: via root
        assert_eq!(t.hop_count(s(5), s(0)), 4);
        // Up to 4 sockets it degenerates to a pure star.
        let small = Topology::new(TopologyKind::FatTree, &cfg(), 4).unwrap();
        assert_eq!(small.num_edges(), 4);
        assert_eq!(small.hop_count(s(0), s(3)), 2);
    }

    /// Bytes moved over the interior hops, both directions.
    fn bytes_inside(t: &Topology) -> u64 {
        let bytes = |l: &GpuLink| l.stats().egress_bytes.get() + l.stats().ingress_bytes.get();
        t.interior_links().map(|(_, l)| bytes(l)).sum()
    }

    #[test]
    fn interior_traverse_is_identity_on_star() {
        let mut t = Topology::new(TopologyKind::Star, &cfg(), 4).unwrap();
        assert_eq!(t.interior_traverse(s(0), s(3), 1234, 144), 1234);
        assert_eq!(bytes_inside(&t), 0);
    }

    #[test]
    fn interior_traverse_charges_interior_hops_only() {
        let mut t = Topology::new(TopologyKind::Ring, &cfg(), 4).unwrap();
        let out = t.interior_traverse(s(0), s(1), 1000, 144);
        // One interior segment: service time plus the short hop latency.
        assert!(out > 1000);
        assert_eq!(bytes_inside(&t), 144);
        assert_eq!(
            t.interior_links().map(|(e, _)| e).collect::<Vec<_>>(),
            [4, 5, 6, 7]
        );
        // Access links untouched by interior traversal.
        assert_eq!(t.link(0).unwrap().stats().egress_bytes.get(), 0);
    }

    #[test]
    fn detached_access_link_fails_standalone_routing() {
        let mut t = Topology::new(TopologyKind::Star, &cfg(), 2).unwrap();
        assert_eq!(t.detach_access_links().count(), 2);
        assert_eq!(t.detach_access_links().count(), 0);
        assert!(t.link(0).is_none());
        let err = t.route(0, s(0), s(1), 128).unwrap_err();
        assert!(matches!(err, SimError::InvalidRoute { .. }));
        // Interior traversal still works (star: identity).
        assert_eq!(t.interior_traverse(s(0), s(1), 7, 16), 7);
    }

    #[test]
    fn degenerate_routes_error() {
        let mut t = Topology::new(TopologyKind::Ring, &cfg(), 4).unwrap();
        assert!(t.route(0, s(1), s(1), 16).is_err());
        assert!(t.route(0, s(0), s(9), 16).is_err());
        assert!(Topology::new(TopologyKind::Ring, &cfg(), 0).is_err());
    }

    #[test]
    fn min_hop_latency_is_below_access_only_off_star() {
        for kind in [
            TopologyKind::Ring,
            TopologyKind::Mesh2d,
            TopologyKind::FatTree,
        ] {
            let t = Topology::new(kind, &cfg(), 8).unwrap();
            assert!(
                t.min_hop_latency() < t.access_hop_latency(),
                "{kind} should have shorter interior hops"
            );
        }
        let star = Topology::new(TopologyKind::Star, &cfg(), 8).unwrap();
        assert_eq!(star.min_hop_latency(), star.access_hop_latency());
    }
}
