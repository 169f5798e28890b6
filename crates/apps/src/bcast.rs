//! Binomial-tree broadcast (§4.4.3, Fig. 5a, Appendix C.3.3).
//!
//! Three implementations of the same binomial tree rooted at rank 0:
//!
//! * **RDMA** — every non-root rank receives the message into host memory
//!   and its *CPU* forwards to its children (one `o`-charged put each);
//! * **P4** — each rank pre-installs triggered puts on the receive counter,
//!   so the NIC forwards from host memory with no CPU involvement;
//! * **sPIN** — the payload handler forwards each packet from the device
//!   the moment it arrives, giving wormhole-style pipelining: the first
//!   packets leave before the message fully arrived (Appendix C.3.3 trace);
//!   the message additionally deposits to host memory at each rank via the
//!   same handler issuing DMA, so every rank ends up with the data.
//!
//! The binomial forwarding rule is the paper's: rank `r` (0-based, root 0)
//! sends to `r + half` for every `half = P/2, P/4, … ≥ 1` with
//! `r % (2·half) == 0` and `r + half < P`.

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{SimBuilder, SimOutput};
use spin_hpu::ctx::{HeaderRet, MemRegion, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};
use spin_sim::time::Time;

/// Broadcast transport variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastMode {
    /// Host-forwarded binomial tree.
    Rdma,
    /// Triggered-operation binomial tree.
    P4,
    /// Streaming sPIN handlers (per-packet forwarding).
    Spin,
}

impl BcastMode {
    /// All variants.
    pub const ALL: [BcastMode; 3] = [BcastMode::Rdma, BcastMode::P4, BcastMode::Spin];

    /// Series label.
    pub fn label(self) -> &'static str {
        match self {
            BcastMode::Rdma => "RDMA",
            BcastMode::P4 => "P4",
            BcastMode::Spin => "sPIN",
        }
    }
}

const BCAST_TAG: u64 = 77;
const BUF_OFF: usize = 0;

/// Children of `rank` in a binomial tree over `p` ranks rooted at 0
/// (the paper's `for half = p/2; half >= 1; half /= 2` loop).
pub fn binomial_children(rank: u32, p: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut half = p.next_power_of_two() / 2;
    if p.is_power_of_two() {
        half = p / 2;
    }
    while half >= 1 {
        if rank.is_multiple_of(half * 2) && rank + half < p {
            out.push(rank + half);
        }
        if half == 0 {
            break;
        }
        half /= 2;
    }
    out
}

struct Root {
    bytes: usize,
    p: u32,
}
impl HostProgram for Root {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(BUF_OFF, &crate::pattern(self.bytes, 1, 241));
        api.mark("start");
        for child in binomial_children(0, self.p) {
            api.put(PutArgs::from_host(child, 0, BCAST_TAG, BUF_OFF, self.bytes));
        }
    }
}

struct RdmaRank {
    bytes: usize,
    p: u32,
}
impl HostProgram for RdmaRank {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, BCAST_TAG, (BUF_OFF, self.bytes)));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        api.mark("received");
        for child in binomial_children(api.rank(), self.p) {
            api.put(PutArgs::from_host(child, 0, BCAST_TAG, BUF_OFF, self.bytes));
        }
    }
}

struct P4Rank {
    bytes: usize,
    p: u32,
}
impl HostProgram for P4Rank {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let ct = api.ct_alloc();
        api.me_append(MeSpec::recv(0, BCAST_TAG, (BUF_OFF, self.bytes)).with_ct(ct));
        for child in binomial_children(api.rank(), self.p) {
            api.triggered_put(
                PutArgs::from_host(child, 0, BCAST_TAG, BUF_OFF, self.bytes),
                ct,
                1,
            );
        }
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        if ev.kind == EventKind::Put {
            api.mark("received");
        }
    }
}

struct SpinRank {
    bytes: usize,
    p: u32,
}
impl HostProgram for SpinRank {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let rank = api.rank();
        let children = binomial_children(rank, self.p);
        let hpu = api.hpu_alloc(8, None);
        // Forwarded packets arrive as independent single-packet messages
        // whose initiator offset carries the position within the broadcast
        // payload (the `i->offset` field of the Appendix C.3.3 state). The
        // header handler latches it; the payload handler forwards each
        // packet from the device the moment it arrives and deposits it
        // locally via DMA.
        let handlers = FnHandlers::new()
            .on_header(|ctx, args, st| {
                ctx.compute_cycles(4);
                st.put_u64(0, args.header.offset as u64)?;
                Ok(HeaderRet::ProcessData)
            })
            .on_payload(move |ctx, args, st| {
                let base = st.get_u64(0)? as usize;
                let off = base + args.offset;
                for &child in &children {
                    ctx.put_from_device(args.data, child, BCAST_TAG, off, 0)?;
                }
                ctx.dma_to_host_b(MemRegion::MeHost, off, args.data)?;
                Ok(PayloadRet::Success)
            })
            .build();
        api.me_append(
            MeSpec::recv(0, BCAST_TAG, (BUF_OFF, self.bytes)).with_handlers(handlers, hpu),
        );
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        // For multi-packet messages each forwarded packet arrives as its
        // own message at the children; the local completion event counts
        // packets. Mark on the completion of the original message (the
        // event whose rlength equals the full size) or any packet-message
        // for sub-MTU broadcasts.
        if ev.kind == EventKind::Put {
            api.mark("received");
        }
    }
}

/// Run a broadcast; returns the latency in µs from the root's start to the
/// last rank having fully received the message.
pub fn run(config: MachineConfig, mode: BcastMode, bytes: usize, p: u32) -> f64 {
    let out = run_full(config, mode, bytes, p);
    latency_us(&out, bytes, p)
}

/// Extract the broadcast latency from a finished run, asserting every rank
/// received the full payload.
pub fn latency_us(out: &SimOutput, bytes: usize, p: u32) -> f64 {
    let start = out.report.mark(0, "start").expect("root start");
    let mut last = Time::ZERO;
    for rank in 1..p {
        let expect: Vec<u8> = (0..bytes).map(|i| (i % 241) as u8).collect();
        let got = out.world.nodes[rank as usize]
            .mem
            .read(BUF_OFF, bytes)
            .unwrap();
        assert_eq!(got, &expect[..], "rank {rank} payload mismatch");
        // "received" marks may be per-packet for sPIN; take the last.
        let t = out
            .report
            .marks
            .iter()
            .filter(|(r, l, _)| *r == rank && l == "received")
            .map(|(_, _, t)| *t)
            .max()
            .unwrap_or_else(|| panic!("rank {rank} never received"));
        last = last.max(t);
    }
    (last - start).us()
}

/// Run and return the full output.
pub fn run_full(config: MachineConfig, mode: BcastMode, bytes: usize, p: u32) -> SimOutput {
    builder(config, mode, bytes, p).run()
}

/// Build the broadcast world (root rank 0, `p - 1` receiving ranks)
/// without running it. Sizes host memory for the payload.
pub fn builder(mut config: MachineConfig, mode: BcastMode, bytes: usize, p: u32) -> SimBuilder {
    assert!(p >= 2);
    config.host.mem_size = (bytes.max(4096) + 4096).next_power_of_two();
    let mut b = SimBuilder::new(config).add_node(Box::new(Root { bytes, p }));
    for _ in 1..p {
        b = match mode {
            BcastMode::Rdma => b.add_node(Box::new(RdmaRank { bytes, p })),
            BcastMode::P4 => b.add_node(Box::new(P4Rank { bytes, p })),
            BcastMode::Spin => b.add_node(Box::new(SpinRank { bytes, p })),
        };
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    fn cfg() -> MachineConfig {
        MachineConfig::paper(NicKind::Discrete)
    }

    #[test]
    fn binomial_tree_shape() {
        assert_eq!(binomial_children(0, 8), vec![4, 2, 1]);
        assert_eq!(binomial_children(4, 8), vec![6, 5]);
        assert_eq!(binomial_children(2, 8), vec![3]);
        assert!(binomial_children(7, 8).is_empty());
        // Non-power-of-two.
        assert_eq!(binomial_children(0, 6), vec![4, 2, 1]);
        assert_eq!(binomial_children(4, 6), vec![5]);
        // Every rank except the root has exactly one parent.
        for p in [2u32, 3, 6, 8, 16, 25] {
            let mut reached = vec![0u32; p as usize];
            for r in 0..p {
                for c in binomial_children(r, p) {
                    reached[c as usize] += 1;
                }
            }
            assert_eq!(reached[0], 0);
            assert!(reached[1..].iter().all(|&c| c == 1), "p={p}: {reached:?}");
        }
    }

    #[test]
    fn all_modes_deliver_everywhere() {
        for mode in BcastMode::ALL {
            let t = run(cfg(), mode, 8, 8);
            assert!(t > 0.0 && t < 30.0, "{mode:?}: {t}");
        }
    }

    #[test]
    fn spin_fastest_small_message() {
        // Fig. 5a (8 B): direct forwarding from the device beats both.
        let rdma = run(cfg(), BcastMode::Rdma, 8, 16);
        let p4 = run(cfg(), BcastMode::P4, 8, 16);
        let spin = run(cfg(), BcastMode::Spin, 8, 16);
        assert!(spin < p4, "spin={spin} p4={p4}");
        assert!(p4 < rdma, "p4={p4} rdma={rdma}");
    }

    #[test]
    fn spin_fastest_large_message() {
        // Fig. 5a (64 KiB): streaming forwarding pipelines packets through
        // the tree.
        let rdma = run(cfg(), BcastMode::Rdma, 64 * 1024, 16);
        let p4 = run(cfg(), BcastMode::P4, 64 * 1024, 16);
        let spin = run(cfg(), BcastMode::Spin, 64 * 1024, 16);
        assert!(spin < p4, "spin={spin} p4={p4}");
        assert!(p4 <= rdma * 1.05, "p4={p4} rdma={rdma}");
    }

    #[test]
    fn latency_grows_logarithmically() {
        let t4 = run(cfg(), BcastMode::Spin, 8, 4);
        let t16 = run(cfg(), BcastMode::Spin, 8, 16);
        let t64 = run(cfg(), BcastMode::Spin, 8, 64);
        // Doubling rounds: roughly equal increments per doubling of P².
        let d1 = t16 - t4;
        let d2 = t64 - t16;
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!(d2 < d1 * 3.0, "log-ish growth: d1={d1} d2={d2}");
    }
}
