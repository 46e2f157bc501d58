//! The paper's inter-socket fabric: every GPU on one switch (Figure 1).
//!
//! Each socket reaches the switch through one reversible-lane [`GpuLink`],
//! its *access* link. A transfer pays the source's egress lanes, one access
//! hop to the switch, the destination's ingress lanes and one access hop
//! from the switch. An access hop is half the configured one-way link
//! latency, so a transfer pays the full `latency_cycles`.
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
//! let mut switch = Topology::new(TopologyKind::Star, &cfg, 8).unwrap();
//! let (egress_clear, arrival) = switch
//!     .route(0, SocketId::new(0), SocketId::new(4), 128)
//!     .unwrap();
//! assert_eq!(arrival, egress_clear + 2 * switch.hop_latency() + 2048);
//! ```

use crate::link::{GpuLink, LinkDirection};
use numa_gpu_types::{
    cycles_to_ticks, ConfigError, LinkConfig, SimError, SocketId, Tick, TopologyKind,
};

/// The single-switch fabric: one access [`GpuLink`] per socket.
///
/// Built standalone, [`Topology::route`] carries a transfer end to end.
/// Inside the core simulator the links move into the socket partitions
/// (see [`Topology::into_links`]), which charge them themselves.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Socket `i`'s access link at index `i`.
    links: Vec<GpuLink>,
    hop_latency: Tick,
}

impl Topology {
    /// Builds the switch over `num_sockets` sockets. `kind` has one value,
    /// [`TopologyKind::Star`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `num_sockets` is zero.
    pub fn new(
        kind: TopologyKind,
        config: &LinkConfig,
        num_sockets: u8,
    ) -> Result<Self, ConfigError> {
        let TopologyKind::Star = kind;
        if num_sockets == 0 {
            return Err(ConfigError::new("topology needs at least one socket"));
        }
        Ok(Topology {
            links: (0..num_sockets).map(|_| GpuLink::new(config)).collect(),
            hop_latency: cycles_to_ticks(config.latency_cycles as u64) / 2,
        })
    }

    /// Propagation latency of an access (socket↔switch) hop, in ticks:
    /// half the configured one-way link latency.
    pub fn hop_latency(&self) -> Tick {
        self.hop_latency
    }

    /// Sends `bytes` from `from` to `to` through the switch. Returns
    /// `(egress_clear, arrival)`: the tick the packet clears the source's
    /// egress lanes (store backpressure), and the tick it arrives at the
    /// destination.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidRoute`] when `from == to` or an endpoint
    /// is out of range.
    pub fn route(
        &mut self,
        now: Tick,
        from: SocketId,
        to: SocketId,
        bytes: u32,
    ) -> Result<(Tick, Tick), SimError> {
        let n = self.links.len();
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
        let egress_clear = self.links[from.index()].send(now, LinkDirection::Egress, bytes);
        let at_switch = egress_clear + self.hop_latency;
        let arrival = self.links[to.index()].send(at_switch, LinkDirection::Ingress, bytes);
        Ok((egress_clear, arrival + self.hop_latency))
    }

    /// The access links in socket order (the core gives each to its
    /// socket's partition, so a window's run of one partition touches no
    /// other partition's link state).
    pub fn into_links(self) -> Vec<GpuLink> {
        self.links
    }

    /// Socket `socket`'s access link (`None` if out of range).
    pub fn link(&self, socket: usize) -> Option<&GpuLink> {
        self.links.get(socket)
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
        assert_eq!(ticks_to_cycles(t.hop_latency()), 64);
        let (_, arrive) = t.route(0, s(0), s(1), 128).unwrap();
        assert_eq!(ticks_to_cycles(arrive), 132); // 2 + 64 + 2 + 64
    }

    #[test]
    fn degenerate_routes_error() {
        let mut t = Topology::new(TopologyKind::Star, &cfg(), 4).unwrap();
        assert!(t.route(0, s(1), s(1), 16).is_err());
        assert!(t.route(0, s(0), s(9), 16).is_err());
        assert!(Topology::new(TopologyKind::Star, &cfg(), 0).is_err());
    }

    #[test]
    fn into_links_hands_over_one_link_per_socket() {
        let t = Topology::new(TopologyKind::Star, &cfg(), 3).unwrap();
        assert!(t.link(2).is_some());
        assert!(t.link(3).is_none());
        assert_eq!(t.into_links().len(), 3);
    }
}
