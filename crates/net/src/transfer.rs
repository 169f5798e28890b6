//! The packet transfer model: egress/ingress serialization plus route
//! latency.
//!
//! `Network` is a pure timing oracle: given "packet of `s` bytes ready at
//! the source NIC at time `t`", it reserves the source egress link and the
//! destination ingress link in virtual time and returns when transmission
//! starts, when the link frees, and when the packet is available in the
//! destination NIC's packet buffer. The DES layer (spin-core) schedules its
//! arrival event at that time.

use crate::params::NetParams;
use crate::topology::{NodeId, Topology};
use spin_sim::resource::SerialResource;
use spin_sim::time::Time;

/// Timing of one packet through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTiming {
    /// When the packet starts occupying the source egress link.
    pub tx_start: Time,
    /// When the source egress link frees (next packet may start).
    pub tx_end: Time,
    /// When the packet is fully available at the destination NIC buffer.
    pub arrival: Time,
}

/// The network fabric: topology + per-endpoint link state.
#[derive(Debug, Clone)]
pub struct Network {
    params: NetParams,
    topo: Topology,
    egress: Vec<SerialResource>,
    ingress: Vec<SerialResource>,
    /// Per-node NIC-local loopback queue: same-node sends serialize here
    /// instead of on the shared ingress port, so a loopback transfer is
    /// node-local state. That keeps it out of the sharded engines' ingress
    /// bookkeeping entirely — it neither bounds the lookahead window nor
    /// needs coordinator replay.
    self_queue: Vec<SerialResource>,
    packets: u64,
    bytes: u64,
}

impl Network {
    /// A network of `nodes` endpoints with the given parameters, on the
    /// default fabric: the smallest fat tree of `params.switch_ports`-radix
    /// switches.
    pub fn new(nodes: u32, params: NetParams) -> Self {
        let topo = Topology::fat_tree(nodes, params.switch_ports as u32);
        Network::with_topology(topo, params)
    }

    /// A network over an explicit topology (dragonfly, torus, or a
    /// non-default fat tree). `Network::new` is the fat-tree special case.
    pub fn with_topology(topo: Topology, params: NetParams) -> Self {
        let nodes = topo.nodes();
        Network {
            params,
            topo,
            egress: vec![SerialResource::new(); nodes as usize],
            ingress: vec![SerialResource::new(); nodes as usize],
            self_queue: vec![SerialResource::new(); nodes as usize],
            packets: 0,
            bytes: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> u32 {
        self.topo.nodes()
    }

    /// Zero-load latency between two endpoints (no serialization), i.e. the
    /// LogGP `L` for this pair.
    pub fn base_latency(&self, src: NodeId, dst: NodeId) -> Time {
        self.params
            .route_latency(self.topo.route_switches(src, dst))
    }

    /// Send one packet of `bytes` from `src` to `dst`, ready at the source
    /// NIC at `ready`.
    ///
    /// The packet:
    /// 1. waits for the source egress link, then occupies it for
    ///    `max(g, G·bytes)` (pipelined serialization — cut-through);
    /// 2. propagates for the route latency `L`;
    /// 3. occupies the destination ingress link for the same serialization
    ///    time, modelling endpoint incast contention; `arrival` is when the
    ///    last byte is in the destination buffer.
    pub fn send_packet(
        &mut self,
        ready: Time,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    ) -> PacketTiming {
        let (tx_start, tx_end) = self.egress_phase(ready, src, bytes);
        if src == dst {
            // NIC-local loopback: no fabric, serialized on the node's own
            // loopback queue (not the shared ingress port — loopback is
            // node-local state, invisible to cross-node incast and to the
            // sharded engines' lookahead window).
            let occupancy = self.params.packet_occupancy(bytes);
            let (_, rx_end) = self.self_queue[dst as usize].reserve(tx_start, occupancy);
            self.packets += 1;
            self.bytes += bytes as u64;
            return PacketTiming {
                tx_start,
                tx_end,
                arrival: rx_end,
            };
        }
        // The head of the packet reaches the destination port at
        // tx_start + L; the ingress port then needs `occupancy` to take the
        // packet in (and serializes competing arrivals).
        let head_at_dst = tx_start + self.base_latency(src, dst);
        let arrival = self.ingress_phase(head_at_dst, dst, bytes);
        PacketTiming {
            tx_start,
            tx_end,
            arrival,
        }
    }

    /// Egress half of [`Network::send_packet`]: reserve the source egress
    /// link and return `(tx_start, tx_end)`. Touches only `src`-local
    /// state, so a sharded engine that owns `src` can run it without
    /// synchronization; the matching [`Network::ingress_phase`] is replayed
    /// later, in global order, on the coordinator's ledger network.
    pub fn egress_phase(&mut self, ready: Time, src: NodeId, bytes: usize) -> (Time, Time) {
        let occupancy = self.params.packet_occupancy(bytes);
        self.egress[src as usize].reserve(ready, occupancy)
    }

    /// Ingress half of [`Network::send_packet`]: the packet head is at the
    /// destination port at `head_at_dst`; reserve the ingress link
    /// (serializing competing arrivals — incast) and return the arrival
    /// time of the last byte. The fabric-wide packet/byte counters live
    /// here, on the side that is replayed exactly once per packet.
    pub fn ingress_phase(&mut self, head_at_dst: Time, dst: NodeId, bytes: usize) -> Time {
        let occupancy = self.params.packet_occupancy(bytes);
        let (_, rx_end) = self.ingress[dst as usize].reserve(head_at_dst, occupancy);
        self.packets += 1;
        self.bytes += bytes as u64;
        rx_end
    }

    /// The smallest zero-load latency between any two *distinct* endpoints:
    /// the conservative lookahead δ of the sharded parallel engine. A
    /// packet dispatched at `t` cannot arrive anywhere before `t + δ`, so
    /// shards may safely execute the half-open window `[t, t + δ)` in
    /// parallel.
    ///
    /// # Panics
    /// Panics on a single-node fabric (no pair exists to bound).
    pub fn min_lookahead(&self) -> Time {
        self.params.route_latency(self.topo.min_route_switches())
    }

    /// The smallest zero-load latency from any node in `src` to any
    /// *distinct* node in `dst`: the pairwise lookahead δ(src→dst) of the
    /// pairwise-horizon sharded engine. Derived from the closest
    /// inter-range route, so far-apart shard pairs earn a wider horizon
    /// than the single global [`Network::min_lookahead`] window allows.
    ///
    /// # Panics
    /// Panics if either range is empty or no distinct pair exists.
    pub fn pair_lookahead(
        &self,
        src: std::ops::Range<NodeId>,
        dst: std::ops::Range<NodeId>,
    ) -> Time {
        self.params
            .route_latency(self.topo.min_route_switches_between(src, dst))
    }

    /// When `src`'s egress link next frees (for send-queue modelling).
    pub fn egress_free(&self, src: NodeId) -> Time {
        self.egress[src as usize].next_free()
    }

    /// Total packets moved.
    pub fn packets_sent(&self) -> u64 {
        self.packets
    }

    /// Total payload bytes moved.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Add `other`'s packet and byte counts to this fabric's. A sharded run
    /// keeps its counts on several fabric replicas and folds them into one
    /// at the end.
    pub fn add_counters(&mut self, other: &Network) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_sim::time::NS;

    fn net(nodes: u32) -> Network {
        Network::new(nodes, NetParams::paper())
    }

    #[test]
    fn single_small_packet_latency() {
        let mut n = net(2);
        let t = n.send_packet(Time::ZERO, 0, 1, 8);
        // Same leaf switch: L = 116.8 ns; ingress occupancy g = 6.7 ns.
        assert_eq!(t.tx_start, Time::ZERO);
        assert_eq!(t.tx_end, Time::from_ps(6_700));
        assert_eq!(t.arrival, Time::from_ps(116_800 + 6_700));
    }

    #[test]
    fn full_packet_serialization() {
        let mut n = net(2);
        let t = n.send_packet(Time::ZERO, 0, 1, 4096);
        // occupancy = 81.92 ns; arrival = 116.8 + 81.92 = 198.72 ns.
        assert_eq!(t.tx_end, Time::from_ps(81_920));
        assert_eq!(t.arrival, Time::from_ps(116_800 + 81_920));
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        let mut n = net(2);
        let a = n.send_packet(Time::ZERO, 0, 1, 4096);
        let b = n.send_packet(Time::ZERO, 0, 1, 4096);
        // Second packet starts when the first clears the egress link and
        // arrives one occupancy later: full pipelining.
        assert_eq!(b.tx_start, a.tx_end);
        assert_eq!(b.arrival - a.arrival, Time::from_ps(81_920));
    }

    #[test]
    fn incast_serializes_at_ingress() {
        let mut n = net(3);
        let a = n.send_packet(Time::ZERO, 0, 2, 4096);
        let b = n.send_packet(Time::ZERO, 1, 2, 4096);
        // Both senders start at 0 on their own egress links, but node 2's
        // ingress takes them one after the other.
        assert_eq!(a.tx_start, Time::ZERO);
        assert_eq!(b.tx_start, Time::ZERO);
        assert_eq!(b.arrival - a.arrival, Time::from_ps(81_920));
    }

    #[test]
    fn longer_routes_cost_more() {
        let mut n = net(1024);
        let near = n.send_packet(Time::ZERO, 0, 1, 8).arrival;
        let mut n2 = net(1024);
        let far = n2.send_packet(Time::ZERO, 0, 900, 8).arrival;
        // Cross-pod route crosses 5 switches vs 1: 4*50 + 4*33.4 = 333.6 ns more.
        assert_eq!((far - near).ps(), 4 * 50 * NS / NS * 1000 + 4 * 33_400);
    }

    #[test]
    fn small_messages_rate_limited_by_g() {
        let mut n = net(2);
        let mut last_arrival = Time::ZERO;
        for i in 0..10 {
            let t = n.send_packet(Time::ZERO, 0, 1, 8);
            if i > 0 {
                assert_eq!((t.arrival - last_arrival).ps(), 6_700);
            }
            last_arrival = t.arrival;
        }
    }

    #[test]
    fn loopback_has_no_route_latency() {
        let mut n = net(4);
        let t = n.send_packet(Time::ZERO, 2, 2, 64);
        assert!(t.arrival < Time::from_ns(20), "{:?}", t);
    }

    #[test]
    fn loopback_rides_the_self_queue_not_the_ingress_port() {
        // A remote incast saturating node 2's ingress port must not delay
        // a loopback transfer (and vice versa): loopback serializes on the
        // node's own self-queue only.
        let mut n = net(4);
        for _ in 0..8 {
            n.send_packet(Time::ZERO, 0, 2, 4096);
            n.send_packet(Time::ZERO, 1, 2, 4096);
        }
        let busy = n.send_packet(Time::ZERO, 2, 2, 64);
        let idle = net(4).send_packet(Time::ZERO, 2, 2, 64);
        assert_eq!(busy, idle, "ingress contention leaked into loopback");
        // Back-to-back loopbacks still serialize against each other (one
        // occupancy apart; 64 B is gated by g = 6.7 ns).
        let again = n.send_packet(Time::ZERO, 2, 2, 64);
        assert_eq!(again.arrival - busy.arrival, Time::from_ps(6_700));
    }

    #[test]
    fn pair_lookahead_widens_with_range_distance() {
        // Radix-4 tree of 12: leaves of 2, pods of 4. Shard ranges that
        // share a leaf see the 1-switch latency; cross-pod ranges earn the
        // full 5-switch horizon.
        let n = Network::new(
            12,
            NetParams {
                switch_ports: 4,
                ..NetParams::paper()
            },
        );
        assert_eq!(n.pair_lookahead(0..2, 0..2), Time::from_ps(116_800));
        assert_eq!(n.pair_lookahead(0..2, 2..4), n.params().route_latency(3));
        assert_eq!(n.pair_lookahead(0..4, 8..12), n.params().route_latency(5));
        // Never below the global window.
        assert!(n.pair_lookahead(0..4, 8..12) >= n.min_lookahead());
    }

    #[test]
    fn phase_split_composes_to_send_packet() {
        // egress_phase + base_latency + ingress_phase must reproduce
        // send_packet bit-for-bit, including under contention — this is
        // what lets the sharded engine split the two halves across the
        // shard/coordinator boundary.
        let mut whole = net(3);
        let mut split = net(3);
        let sends = [
            (0u64, 0u32, 2u32, 4096usize),
            (0, 1, 2, 4096), // incast at node 2
            (0, 0, 2, 8),
            (50_000, 1, 0, 2000),
            (50_000, 2, 0, 2000),
        ];
        for &(ready, src, dst, bytes) in &sends {
            let a = whole.send_packet(Time::from_ps(ready), src, dst, bytes);
            let (tx_start, tx_end) = split.egress_phase(Time::from_ps(ready), src, bytes);
            let head = tx_start + split.base_latency(src, dst);
            let arrival = split.ingress_phase(head, dst, bytes);
            assert_eq!(
                (a.tx_start, a.tx_end, a.arrival),
                (tx_start, tx_end, arrival)
            );
        }
        assert_eq!(whole.packets_sent(), split.packets_sent());
        assert_eq!(whole.bytes_sent(), split.bytes_sent());
    }

    #[test]
    fn min_lookahead_is_the_closest_pair_latency() {
        // Two nodes on one leaf: δ = one-switch route = 116.8 ns.
        assert_eq!(net(2).min_lookahead(), Time::from_ps(116_800));
        // 12 nodes on 4-port switches (the fat-tree golden): leaves of 2,
        // so the closest pair still shares a leaf.
        let n = Network::new(
            12,
            NetParams {
                switch_ports: 4,
                ..NetParams::paper()
            },
        );
        assert_eq!(n.min_lookahead(), Time::from_ps(116_800));
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net(2);
        n.send_packet(Time::ZERO, 0, 1, 100);
        n.send_packet(Time::ZERO, 0, 1, 200);
        assert_eq!(n.packets_sent(), 2);
        assert_eq!(n.bytes_sent(), 300);
    }
}
