//! Gather-plus-exchange: every leaf sends one multi-packet acked put to a
//! gather root while a stride ring exchanges small puts across the fabric.
//!
//! This is the multi-hop scale-out scenario the fat-tree golden pins (one
//! acked gather put per leaf, a stride-5 ring that crosses pods), promoted
//! from the determinism test into a reusable, parameterized workload so
//! the scenario compiler can build byte-identical worlds from declarative
//! configs. With `root = 0`, `put_bytes = MTU + 1904`, `ring_bytes = 256`,
//! and `stride = 5` on a 12-endpoint 4-port fat tree this reproduces the
//! pinned golden report bit-for-bit.

use spin_core::config::MachineConfig;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::SimBuilder;

/// Exchange-ring match bits.
pub const XCHG_TAG: u64 = 99;
/// Exchange-ring landing region at every rank.
const XCHG_DST: usize = 0x8_0000;
/// Source staging region at every leaf.
const SEND_SRC: usize = 0x1000;

/// Gather region for sender `r` at the root.
fn gather_region(r: u32) -> (usize, usize) {
    (0x1_0000 + r as usize * 0x2000, 0x2000)
}

/// One past the highest host-memory byte the layout uses on any rank: the
/// root's gather regions, the exchange-ring landing region, and a leaf's
/// send staging (`put_bytes` and `ring_bytes` are both read from it). A
/// node's host memory must be at least this large. Needs `root < n` and
/// `n >= 2`, as [`builder`] does.
pub fn layout_end(n: u32, root: u32, put_bytes: usize, ring_bytes: usize) -> usize {
    // The highest-numbered sender: rank n - 1, unless that is the root.
    let (base, len) = gather_region(if root == n - 1 { n - 2 } else { n - 1 });
    (base + len)
        .max(XCHG_DST + 0x1000)
        .max(SEND_SRC.saturating_add(put_bytes.max(ring_bytes)))
}

/// MEs the root arms at start: one per sender plus the exchange-ring ME,
/// `n` in all. An NI holds at most
/// [`MAX_ENTRIES`](spin_portals::ni::MAX_ENTRIES).
pub fn root_mes(n: u32) -> u64 {
    u64::from(n)
}

/// Gather root: one ME per sender (tagged by sender rank), plus the
/// exchange-ring ME.
struct GatherRoot;

impl HostProgram for GatherRoot {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let me = api.rank();
        for r in 0..api.nprocs() {
            if r == me {
                continue;
            }
            api.me_append(MeSpec::recv(0, r as u64, gather_region(r)));
        }
        api.me_append(MeSpec::recv(0, XCHG_TAG, (XCHG_DST, 0x1000)));
        api.mark("root-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("root-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Every non-root rank: post the exchange ME, send a multi-packet acked
/// put to the root, and a small put to the rank `stride` ahead (mod n).
struct GatherLeaf {
    root: u32,
    put_bytes: usize,
    ring_bytes: usize,
    stride: u32,
}

impl HostProgram for GatherLeaf {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let me = api.rank();
        let n = api.nprocs();
        api.me_append(MeSpec::recv(0, XCHG_TAG, (XCHG_DST, 0x1000)));
        let len = self.put_bytes;
        let pattern: Vec<u8> = (0..len).map(|i| (i * 13 % 239) as u8).collect();
        api.write_host(SEND_SRC, &pattern);
        api.put(PutArgs::from_host(self.root, 0, me as u64, SEND_SRC, len).with_ack());
        let peer = (me + self.stride) % n;
        if peer != me {
            api.put(
                PutArgs::from_host(peer, 0, XCHG_TAG, SEND_SRC, self.ring_bytes)
                    .with_hdr_data(me as u64),
            );
        }
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("leaf-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Build the gather world: rank `root` runs the gather root, every other
/// rank a leaf. The config is taken as given (topology, memory size, and
/// seed are the caller's responsibility; the memory must reach
/// [`layout_end`]).
pub fn builder(
    config: MachineConfig,
    n: u32,
    root: u32,
    put_bytes: usize,
    ring_bytes: usize,
    stride: u32,
) -> SimBuilder {
    assert!(n >= 2, "gather needs a root and at least one leaf");
    assert!(root < n, "root rank {root} out of range for {n} nodes");
    assert!(
        put_bytes <= 0x2000,
        "gather put ({put_bytes} B) exceeds the per-sender region (0x2000 B)"
    );
    let mut b = SimBuilder::new(config);
    for i in 0..n {
        b = if i == root {
            b.add_node(Box::new(GatherRoot))
        } else {
            b.add_node(Box::new(GatherLeaf {
                root,
                put_bytes,
                ring_bytes,
                stride,
            }))
        };
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    fn config() -> MachineConfig {
        let mut config = MachineConfig::paper(NicKind::Integrated);
        config.net.switch_ports = 4;
        config.host.mem_size = 1 << 20;
        config
    }

    #[test]
    fn every_gather_put_is_acked_and_the_ring_closes() {
        let out = builder(config(), 12, 0, 4096 + 1904, 256, 5).run_serial();
        for r in 1..12u32 {
            assert!(
                out.report
                    .marks
                    .iter()
                    .any(|(rank, l, _)| *rank == r && l.contains("leaf-Ack")),
                "rank {r} never saw its gather ack"
            );
        }
        let ring = out
            .report
            .marks
            .iter()
            .filter(|(_, l, _)| l.contains("-Put-") && l.contains("m256"))
            .count();
        assert_eq!(ring, 11, "all 11 exchange puts delivered");
    }

    #[test]
    fn layout_end_covers_the_last_senders_region() {
        // Root 0: the last region is sender 99's.
        assert_eq!(layout_end(100, 0, 6000, 256), 0x1_0000 + 100 * 0x2000);
        // Root 99: sender 98's region is the last one armed.
        assert_eq!(layout_end(100, 99, 6000, 256), 0x1_0000 + 99 * 0x2000);
        // Few senders: the exchange-ring region at 0x8_0000 ends the layout.
        assert_eq!(layout_end(2, 0, 2048, 128), 0x8_1000);
        // A ring put larger than the memory is read from the staging area.
        assert_eq!(layout_end(2, 0, 2048, 1 << 30), 0x1000 + (1 << 30));
    }

    #[test]
    fn root_role_is_placeable() {
        let out = builder(config(), 8, 3, 2048, 128, 3).run_serial();
        assert!(
            out.report
                .marks
                .iter()
                .any(|(rank, l, _)| *rank == 3 && l == "root-armed"),
            "rank 3 did not run the root program"
        );
        // The root receives a gather put from every other rank.
        let gathers = out
            .report
            .marks
            .iter()
            .filter(|(rank, l, _)| *rank == 3 && l.contains("root-Put-") && l.contains("m2048"))
            .count();
        assert_eq!(gathers, 7);
    }
}
