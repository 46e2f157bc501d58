use crate::{GpuLink, Topology};
use numa_gpu_types::{
    ticks_to_cycles, LinkConfig, LinkMode, SimError, SocketId, TopologyKind, TICKS_PER_CYCLE,
};

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

fn switch(sockets: u8) -> Topology {
    Topology::new(TopologyKind::Star, &cfg(), sockets).unwrap()
}

fn s(i: u8) -> SocketId {
    SocketId::new(i)
}

fn link(t: &Topology, socket: u8) -> &GpuLink {
    t.link(usize::from(socket)).unwrap()
}

#[test]
fn transfer_pays_latency_and_occupancy() {
    let mut sw = switch(4);
    let (_, arrive) = sw.route(0, s(0), s(1), 128).unwrap();
    // 2 cycles egress + 64 + 2 cycles ingress + 64 = 132 cycles.
    assert_eq!(ticks_to_cycles(arrive), 132);
}

#[test]
fn transfer_loads_both_endpoint_links() {
    let mut sw = switch(2);
    sw.route(0, s(0), s(1), 128).unwrap();
    assert_eq!(link(&sw, 0).stats().egress_bytes.get(), 128);
    assert_eq!(link(&sw, 1).stats().ingress_bytes.get(), 128);
    assert_eq!(link(&sw, 0).stats().ingress_bytes.get(), 0);
    let total: u64 = (0..2)
        .map(|i| link(&sw, i).stats())
        .map(|st| st.egress_bytes.get() + st.ingress_bytes.get())
        .sum();
    assert_eq!(total, 256);
}

#[test]
fn independent_links_do_not_contend() {
    let mut sw = switch(4);
    let a = sw.route(0, s(0), s(1), 640).unwrap();
    let b = sw.route(0, s(2), s(3), 640).unwrap();
    assert_eq!(a, b); // disjoint socket pairs, identical timing
}

#[test]
fn same_source_transfers_serialize_on_egress() {
    let mut sw = switch(4);
    let (_, a) = sw.route(0, s(0), s(1), 6400).unwrap();
    let (_, b) = sw.route(0, s(0), s(2), 6400).unwrap();
    assert!(b > a);
    assert!(b - a >= 100 * TICKS_PER_CYCLE); // 6400 B / 64 B-per-cycle
}

#[test]
fn local_transfer_is_an_invalid_route() {
    let mut sw = switch(2);
    let err = sw.route(0, s(1), s(1), 128).unwrap_err();
    assert!(matches!(err, SimError::InvalidRoute { .. }));
    assert!(err.to_string().contains("local transfer"));
}

#[test]
fn out_of_range_socket_is_an_invalid_route() {
    let mut sw = switch(2);
    let err = sw.route(0, s(0), s(5), 128).unwrap_err();
    assert!(matches!(err, SimError::InvalidRoute { .. }));
    assert!(err.to_string().contains("out of range"));
}

#[test]
fn zero_socket_switch_is_a_config_error() {
    assert!(Topology::new(TopologyKind::Star, &cfg(), 0).is_err());
}
