//! Sustained incast: every leaf streams rounds of two-packet acked puts at
//! one gather root while simultaneously exchanging smaller puts around a
//! cross-pod ring.
//!
//! Promoted from the sharding experiment so the scenario compiler can
//! build the same world from a declarative config: with `root = 0` this
//! reproduces the sharding benchmark's incast world byte-for-byte (the
//! experiment's `incast_builder` delegates here).

use spin_core::config::MachineConfig;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::SimBuilder;
use spin_hpu::memory::{HostMemory, MemSlice};
use spin_sim::time::Time;
use std::sync::OnceLock;

const MTU: usize = 4096;
/// Exchange-ring match bits.
pub const RING_TAG: u64 = 0x5249_4e47; // "RING"
const RING_DST: usize = 0x9_0000;
const SEND_SRC: usize = 0x1000;

/// Gather region for sender `r` at the root (8 KiB per sender: exactly the
/// two-packet message the leaves send).
fn gather_region(r: u32) -> (usize, usize) {
    (0x1_0000 + r as usize * 0x2000, 0x2000)
}

/// A leaf's send buffer: `2 × MTU` bytes of [`pattern`](crate::pattern)
/// `(i * 31 % 251)`, built once per process as two whole host pages like
/// the zero page. Every leaf adopts these same two pages instead of
/// building and copying its own; copy-on-write keeps each leaf's memory
/// its own.
fn send_buffer() -> &'static MemSlice {
    static BUF: OnceLock<MemSlice> = OnceLock::new();
    BUF.get_or_init(|| {
        let len = 2 * MTU;
        let mut pages = HostMemory::new(len);
        pages
            .write(0, &crate::pattern(len, 31, 251))
            .expect("fits by construction");
        pages.read_slice(0, len).expect("fits by construction")
    })
}

/// One past the highest host-memory byte the layout uses on any rank: the
/// root's gather regions, the ring landing region, and a leaf's send
/// staging. A node's host memory must be at least this large. Needs
/// `root < n` and `n >= 2`, as [`builder`] does.
pub fn layout_end(n: u32, root: u32) -> usize {
    // The highest-numbered sender: rank n - 1, unless that is the root.
    let (base, len) = gather_region(if root == n - 1 { n - 2 } else { n - 1 });
    (base + len).max(RING_DST + 0x1000).max(SEND_SRC + 2 * MTU)
}

/// MEs the root arms at start: one per sender per round plus one ring ME
/// per round, `n × rounds` in all. An NI holds at most
/// [`MAX_ENTRIES`](spin_portals::ni::MAX_ENTRIES).
pub fn root_mes(n: u32, rounds: u32) -> u64 {
    u64::from(n) * u64::from(rounds)
}

/// Gather root: one ME per sender per round, plus the ring MEs.
struct IncastRoot {
    rounds: u32,
}

impl HostProgram for IncastRoot {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let me = api.rank();
        for r in 0..api.nprocs() {
            if r == me {
                continue;
            }
            for _ in 0..self.rounds {
                api.me_append(MeSpec::recv(0, u64::from(r), gather_region(r)));
            }
        }
        for _ in 0..self.rounds {
            // One ring put lands here per round; MEs are use-once, so arm
            // one per round.
            api.me_append(MeSpec::recv(0, RING_TAG, (RING_DST, 0x1000)));
        }
        api.mark("root-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("root-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// A leaf: `rounds` two-packet acked puts at the root plus one ring put
/// per round, spread over timers so traffic overlaps across windows.
struct IncastLeaf {
    root: u32,
    rounds: u32,
}

impl HostProgram for IncastLeaf {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let me = api.rank();
        for _ in 0..self.rounds {
            // One ring put arrives from the predecessor each round; MEs
            // are use-once.
            api.me_append(MeSpec::recv(0, RING_TAG, (RING_DST, 0x1000)));
        }
        api.write_host_slice(SEND_SRC, send_buffer());
        // Stagger by rank and round, but coarsely (many same-instant
        // collisions survive), so each conservative window holds work for
        // every shard and the root ingress sees sustained incast. The base
        // offset leaves room for the root's O(senders·rounds) charged
        // `me_append` calls to complete: headers arriving before an ME's
        // charged completion miss it, and a match miss disables the PT
        // (Portals flow control).
        for round in 0..self.rounds {
            let at = Time::from_ns(50_000 + u64::from(round) * 5_000 + u64::from(me % 4) * 250);
            api.set_timer(at, u64::from(round));
        }
    }

    fn on_timer(&mut self, _round: u64, api: &mut HostApi<'_>) {
        let me = api.rank();
        let n = api.nprocs();
        let len = 2 * MTU;
        api.put(PutArgs::from_host(self.root, 0, u64::from(me), SEND_SRC, len).with_ack());
        // Stride past the pod (16 endpoints at radix 8), so the ring
        // always crosses pod boundaries — and shard boundaries, for every
        // contiguous partition of more than one shard.
        let peer = (me + 17) % n;
        if peer != me {
            api.put(
                PutArgs::from_host(peer, 0, RING_TAG, SEND_SRC, 256).with_hdr_data(u64::from(me)),
            );
        }
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("leaf-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Build the incast world: rank `root` gathers, every other rank streams
/// `rounds` acked puts at it. The config is taken as given; its memory
/// must reach [`layout_end`].
pub fn builder(config: MachineConfig, n: u32, root: u32, rounds: u32) -> SimBuilder {
    assert!(n >= 2, "incast needs a root and at least one leaf");
    assert!(root < n, "root rank {root} out of range for {n} nodes");
    let mut b = SimBuilder::new(config);
    for i in 0..n {
        b = if i == root {
            b.add_node(Box::new(IncastRoot { rounds }))
        } else {
            b.add_node(Box::new(IncastLeaf { root, rounds }))
        };
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    #[test]
    fn incast_gathers_every_round_from_every_leaf() {
        let mut config = MachineConfig::paper(NicKind::Integrated);
        config.net.switch_ports = 8;
        config.host.mem_size = 1 << 20;
        let out = builder(config, 18, 0, 2).run_serial();
        let acks = out
            .report
            .marks
            .iter()
            .filter(|(_, l, _)| l.contains("leaf-Ack"))
            .count();
        assert_eq!(acks, 17 * 2, "acked gather puts");
    }

    #[test]
    fn leaves_share_one_send_buffer_and_copy_only_their_ring_page() {
        let mut config = MachineConfig::paper(NicKind::Integrated);
        config.net.switch_ports = 8;
        config.host.mem_size = 1 << 20;
        let (n, rounds) = (18, 2);
        let out = builder(config, n, 0, rounds).run_serial();
        let nodes = &out.world.nodes;
        // Every leaf's two send pages are the process-wide buffer's pages.
        for page in 0..2 {
            let shared = send_buffer().slice(page * MTU, MTU).as_ptr();
            for (leaf, node) in nodes.iter().enumerate().skip(1) {
                let mine = node.mem.read_bytes(SEND_SRC + page * MTU, MTU).unwrap();
                assert_eq!(mine.as_ptr(), shared, "leaf {leaf} page {page}");
            }
        }
        // The root gathered the pattern from every leaf.
        for r in 1..n {
            let (base, len) = gather_region(r);
            let got = nodes[0].mem.read(base, len).unwrap();
            for (i, &b) in got.iter().enumerate() {
                assert_eq!(b, (i * 31 % 251) as u8, "sender {r} byte {i}");
            }
        }
        // Only ring landings copy a page, once however many rounds land
        // there: each of the 17 leaves puts its ring message at rank - 1
        // (the root, for rank 1), and nothing lands on rank 17, whose ring
        // sender would be the root.
        let clones: u64 = nodes.iter().map(|node| node.mem.cow_clones()).sum();
        assert_eq!(clones, u64::from(n - 1), "one copied page per leaf");
    }

    #[test]
    fn layout_end_grows_with_the_sender_count() {
        assert_eq!(layout_end(2, 0), 0x9_1000, "the ring region ends it");
        assert_eq!(layout_end(1024, 0), 0x1_0000 + 1024 * 0x2000);
        assert_eq!(layout_end(1024, 1023), 0x1_0000 + 1023 * 0x2000);
        // Past about 8,000 senders the layout outgrows a 64 MiB node.
        assert!(layout_end(9000, 0) > 64 << 20);
    }
}
