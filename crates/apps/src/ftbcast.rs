//! Fault-tolerant broadcast with NIC-side duplicate suppression (§5.4).
//!
//! A binomial-graph-style reliable broadcast sends each message along
//! `log₂ P` redundant paths; every rank receives up to that many copies.
//! Host-based implementations deliver *all* copies to host memory; the
//! paper proposes using sPIN "to accelerate such protocols by only
//! delivering the first message to the user".
//!
//! The handler keeps a seen-sequence window in HPU memory: the header
//! handler CASes the slot for the message's sequence number; the first
//! arrival proceeds (deposits + forwards along the redundancy graph),
//! duplicates are dropped at the NIC without touching host memory.

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{SimBuilder, SimOutput};
use spin_hpu::ctx::{HeaderRet, MemRegion, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};

const BCAST_TAG: u64 = 90;
/// Seen-window slots in HPU memory (one u64 per outstanding sequence).
const WINDOW: u64 = 64;

/// Redundant neighbours of `rank` in a binomial graph over `p` ranks:
/// `rank ± 2^k mod p` for all k — each rank forwards to the "+" side.
pub fn binomial_graph_targets(rank: u32, p: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut step = 1u32;
    while step < p {
        out.push((rank + step) % p);
        step *= 2;
    }
    out
}

struct Rank {
    p: u32,
    bytes: usize,
    offload: bool,
    delivered: u64,
}

impl HostProgram for Rank {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let p = self.p;
        let rank = api.rank();
        if self.offload {
            let hpu = api.hpu_alloc((WINDOW as usize + 1) * 8, None);
            let targets = binomial_graph_targets(rank, p);
            let handlers = FnHandlers::new()
                .on_header(move |ctx, args, st| {
                    // Slot for this sequence: CAS 0 -> seq marks first
                    // arrival (sequence numbers start at 1).
                    let seq = args.header.hdr_data;
                    let slot = 8 * (seq % WINDOW) as usize;
                    ctx.compute_cycles(6);
                    let mut expected = 0u64;
                    let first = st.cas_u64(slot, &mut expected, seq)? || expected != seq;
                    ctx.compute_cycles(spin_hpu::cost::HPU_ATOMIC);
                    if first && expected == 0 {
                        Ok(HeaderRet::ProcessData)
                    } else {
                        // Duplicate: suppressed at the NIC.
                        Ok(HeaderRet::Drop)
                    }
                })
                .on_payload(move |ctx, args, _st| {
                    // First copy: deposit locally and forward redundantly.
                    ctx.dma_to_host_b(MemRegion::MeHost, args.offset, args.data)?;
                    for &t in &targets {
                        ctx.put_from_device(args.data, t, BCAST_TAG, args.offset, 1)?;
                    }
                    Ok(PayloadRet::Success)
                })
                .build();
            api.me_append(MeSpec::recv(0, BCAST_TAG, (0, self.bytes)).with_handlers(handlers, hpu));
        } else {
            api.me_append(MeSpec::recv(0, BCAST_TAG, (0, self.bytes)));
        }
        if rank == 0 {
            api.write_host(0, &crate::pattern(self.bytes, 1, 127));
            api.mark("root_send");
            for t in binomial_graph_targets(0, p) {
                api.put(PutArgs::from_host(t, 0, BCAST_TAG, 0, self.bytes).with_hdr_data(1));
            }
        }
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        // Handler DROP still completes the ME (Appendix B.3: only the
        // *_PENDING variants suppress completion), but with every payload
        // byte dropped — a zero-mlength event is a suppressed duplicate.
        if ev.kind != EventKind::Put || ev.mlength == 0 {
            return;
        }
        self.delivered += 1;
        if self.offload {
            // Only the first copy reaches the host.
            api.mark("delivered");
        } else {
            // Baseline: every copy lands; the host dedups and forwards the
            // first one itself.
            if self.delivered == 1 {
                api.mark("delivered");
                for t in binomial_graph_targets(api.rank(), self.p) {
                    api.put(PutArgs::from_host(t, 0, BCAST_TAG, 0, self.bytes).with_hdr_data(1));
                }
            }
            api.record("copies", 1.0);
        }
    }
}

/// Run a fault-tolerant broadcast; returns the output.
pub fn run(mut config: MachineConfig, p: u32, bytes: usize, offload: bool) -> SimOutput {
    config.host.mem_size = bytes.next_power_of_two().max(8192) * 2;
    SimBuilder::new(config)
        .nodes_with(p, |_| {
            Box::new(Rank {
                p,
                bytes,
                offload,
                delivered: 0,
            })
        })
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    #[test]
    fn graph_targets() {
        assert_eq!(binomial_graph_targets(0, 8), vec![1, 2, 4]);
        assert_eq!(binomial_graph_targets(6, 8), vec![7, 0, 2]);
        assert_eq!(binomial_graph_targets(0, 5), vec![1, 2, 4]);
    }

    #[test]
    fn everyone_delivers_exactly_once_offloaded() {
        let p = 8;
        let out = run(MachineConfig::paper(NicKind::Integrated), p, 2048, true);
        for rank in 1..p {
            let marks: Vec<_> = out
                .report
                .marks
                .iter()
                .filter(|(r, l, _)| *r == rank && l == "delivered")
                .collect();
            assert_eq!(marks.len(), 1, "rank {rank} deliveries");
            let got = out.world.nodes[rank as usize].mem.read(0, 2048).unwrap();
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 127) as u8));
        }
    }

    #[test]
    fn baseline_delivers_despite_duplicates() {
        let p = 8;
        let out = run(MachineConfig::paper(NicKind::Integrated), p, 2048, false);
        for rank in 1..p {
            assert!(
                out.report
                    .marks
                    .iter()
                    .any(|(r, l, _)| *r == rank && l == "delivered"),
                "rank {rank}"
            );
        }
        // Redundancy means hosts see multiple copies.
        let copies = out
            .report
            .values
            .iter()
            .filter(|(_, l, _)| l == "copies")
            .count();
        assert!(copies as u32 > p - 1, "copies={copies}");
    }

    #[test]
    fn offload_suppresses_duplicate_host_traffic() {
        let p = 8;
        let bytes = 16 * 1024;
        let base = run(MachineConfig::paper(NicKind::Integrated), p, bytes, false);
        let spin = run(MachineConfig::paper(NicKind::Integrated), p, bytes, true);
        let base_dma: u64 = base.report.node_stats.iter().map(|s| s.dma_bytes).sum();
        let spin_dma: u64 = spin.report.node_stats.iter().map(|s| s.dma_bytes).sum();
        // sPIN: one deposit per rank. Baseline: one per received copy.
        assert!(spin_dma < base_dma, "spin={spin_dma} base={base_dma}");
    }
}
