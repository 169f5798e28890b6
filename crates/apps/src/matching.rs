//! Asynchronous MPI message matching (§5.1, Fig. 5b).
//!
//! An MPI-ish endpoint layered over the simulation, implementing the four
//! cases of Fig. 5b for both a host-progressed baseline and the offloaded
//! sPIN protocol:
//!
//! * **Baseline ("host")** — eager messages match pre-posted receive MEs
//!   (case I) or land in an unexpected ring buffer and are *copied* by the
//!   CPU when the receive is finally posted (case III). Large messages use
//!   a host-progressed rendezvous: the RTS carries only metadata and the
//!   receiver's *CPU* must see it and issue the get — so progress stalls
//!   while the CPU computes (the §5.1 asynchrony problem).
//! * **Offloaded ("sPIN")** — the paper's protocol: the receive installs a
//!   header handler that falls back to Portals handling for small messages
//!   and, for large ones, parses `(total size, rendezvous tag)` from the
//!   user header and issues the get *from the NIC* (case II); the payload
//!   handler deposits the RTS's eager chunk at the start of the buffer; the
//!   completion handler returns `SUCCESS_PENDING` so the receive completes
//!   only when the get's reply has landed. No Ω(P) pre-set-up triggered
//!   state, no extra match bits, and wildcard receives work — the three
//!   limitations of the triggered-op protocol the paper lists.
//!
//! The sender side is identical for both: small sends are plain puts; large
//! sends expose the remainder of the buffer under a unique rendezvous tag
//! on the send portal before sending the RTS.

use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, MeSpec, PutArgs};
use spin_hpu::ctx::{HeaderRet, MemRegion, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};
use spin_portals::me::MeOptions;
use spin_portals::types::{ProcessId, UserHeader, ANY_PROCESS};
use std::collections::VecDeque;

/// Portal table entry for application messages.
///
/// Rendezvous send descriptors live on the *same* entry under unique
/// rendezvous tags (rank in the high 32 bits): handler-issued gets inherit
/// their ME's portal index (Appendix B.6 — "other fields such as pt_index
/// ... are inherited from ME"), so the send-side descriptor must be
/// reachable there.
pub const MSG_PT: u32 = 0;

/// Matching-layer configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Messages up to this size are sent eagerly.
    pub eager_threshold: usize,
    /// Offload matching/rendezvous to the NIC (sPIN) or progress on the
    /// host (baseline).
    pub offload: bool,
    /// Host-memory offset of the unexpected-message ring.
    pub ring_off: usize,
    /// Size of the unexpected ring.
    pub ring_len: usize,
}

impl MpiConfig {
    /// A reasonable default: 8 KiB eager threshold, 4 MiB ring.
    pub fn new(offload: bool, ring_off: usize) -> Self {
        MpiConfig {
            eager_threshold: 8 * 1024,
            offload,
            ring_off,
            ring_len: 4 << 20,
        }
    }
}

/// A completed receive surfaced to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvCompletion {
    /// The receive's id (as returned by [`Endpoint::recv`]).
    pub recv_id: u64,
    /// Source rank.
    pub peer: ProcessId,
    /// Message tag.
    pub tag: u64,
    /// Bytes received.
    pub len: usize,
}

#[derive(Debug, Clone)]
struct PostedRecv {
    id: u64,
    src: ProcessId,
    tag: u64,
    buf: usize,
    len: usize,
    me: spin_portals::me::MeHandle,
}

#[derive(Debug, Clone)]
struct Unexpected {
    peer: ProcessId,
    tag: u64,
    /// Offset of the deposit in the ring.
    ring_offset: usize,
    /// Deposited bytes (eager payload, or RTS metadata+chunk).
    mlength: usize,
    /// Nonzero for rendezvous RTS: the rendezvous tag.
    rdv_tag: u64,
    /// Total message size (rendezvous).
    total: usize,
}

/// The MPI-ish matching endpoint. Embed one in a host program and forward
/// events to [`Endpoint::on_event`].
pub struct Endpoint {
    cfg: MpiConfig,
    next_recv_id: u64,
    next_rdv_tag: u64,
    /// Baseline: receives the host has posted but not yet matched.
    posted: VecDeque<PostedRecv>,
    /// Arrivals not yet matched by a receive.
    unexpected: VecDeque<Unexpected>,
    /// Outstanding rendezvous gets: (rdv_tag, completion to deliver).
    pending_gets: Vec<(u64, RecvCompletion)>,
    initialized: bool,
}

impl Endpoint {
    /// A fresh endpoint.
    pub fn new(cfg: MpiConfig) -> Self {
        Endpoint {
            cfg,
            next_recv_id: 0,
            next_rdv_tag: 0,
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            pending_gets: Vec::new(),
            initialized: false,
        }
    }

    /// Install the endpoint's standing state (unexpected ring). Call from
    /// `on_start`.
    pub fn init(&mut self, api: &mut HostApi<'_>) {
        assert!(!self.initialized);
        self.initialized = true;
        // The unexpected ring catches any tag from any source, packing
        // arrivals with locally-managed offsets.
        let mut spec = MeSpec::recv(MSG_PT, 0, (self.cfg.ring_off, self.cfg.ring_len)).overflow();
        spec.ignore_bits = u64::MAX;
        spec.source = ANY_PROCESS;
        spec.options = MeOptions::managed_overflow();
        api.me_append(spec);
    }

    /// Send `len` bytes at `buf` to `(dst, tag)`. Returns immediately; the
    /// simulation charges `o` and the wire time.
    pub fn send(
        &mut self,
        api: &mut HostApi<'_>,
        dst: ProcessId,
        tag: u64,
        buf: usize,
        len: usize,
    ) {
        if len <= self.cfg.eager_threshold {
            api.put(PutArgs::from_host(dst, MSG_PT, tag, buf, len));
            return;
        }
        // Rendezvous: expose the remainder under a fresh tag, then RTS.
        self.next_rdv_tag += 1;
        let rdv_tag = (api.rank() as u64) << 32 | self.next_rdv_tag;
        let eager = self.cfg.eager_threshold;
        if self.cfg.offload {
            // The RTS already carries the first `eager` bytes; expose the
            // remainder.
            api.me_append(MeSpec::recv(MSG_PT, rdv_tag, (buf + eager, len - eager)).once());
        } else {
            // The baseline RTS is metadata-only; the get fetches everything.
            api.me_append(MeSpec::recv(MSG_PT, rdv_tag, (buf, len)).once());
        }
        if self.cfg.offload {
            // RTS = user header (total, rdv_tag) + the first chunk of data.
            api.put(
                PutArgs::from_host(dst, MSG_PT, tag, buf, eager)
                    .with_user_hdr(UserHeader::from_u64_pair(len as u64, rdv_tag)),
            );
        } else {
            // Baseline RTS: metadata only (total in payload, tag in
            // hdr_data); data moves exclusively via the get.
            api.put(
                PutArgs::inline(dst, MSG_PT, tag, (len as u64).to_le_bytes().to_vec())
                    .with_hdr_data(rdv_tag),
            );
        }
    }

    /// Post a receive for `(src, tag)` into `buf`. Returns the receive id;
    /// completion arrives via [`Endpoint::on_event`].
    ///
    /// If a matching message already arrived (cases III/IV), the unexpected
    /// path runs: a CPU copy for eager messages, a host-issued get for
    /// rendezvous.
    pub fn recv(
        &mut self,
        api: &mut HostApi<'_>,
        src: ProcessId,
        tag: u64,
        buf: usize,
        len: usize,
    ) -> (u64, Option<RecvCompletion>) {
        self.next_recv_id += 1;
        let id = self.next_recv_id;
        // Check the unexpected queue first (MPI matching order).
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| u.tag == tag && (src == ANY_PROCESS || u.peer == src))
        {
            let u = self.unexpected.remove(pos).expect("present");
            return self.complete_unexpected(api, id, u, buf, len);
        }
        let me = if self.cfg.offload {
            self.post_offloaded_recv(api, id, src, tag, buf, len)
        } else {
            // The baseline still benefits from pre-posted *eager* matching
            // (Portals semantics): install a plain ME for the eager case.
            api.me_append(
                MeSpec::recv(MSG_PT, tag, (buf, len))
                    .once()
                    .from_source(src)
                    .with_user_ptr(id),
            )
        };
        self.posted.push_back(PostedRecv {
            id,
            src,
            tag,
            buf,
            len,
            me,
        });
        (id, None)
    }

    fn complete_unexpected(
        &mut self,
        api: &mut HostApi<'_>,
        id: u64,
        u: Unexpected,
        buf: usize,
        len: usize,
    ) -> (u64, Option<RecvCompletion>) {
        if u.rdv_tag == 0 {
            // Eager unexpected (case III): CPU copies from the ring.
            let n = u.mlength.min(len);
            api.memcpy(buf, self.cfg.ring_off + u.ring_offset, n);
            let done = RecvCompletion {
                recv_id: id,
                peer: u.peer,
                tag: u.tag,
                len: n,
            };
            (id, Some(done))
        } else {
            // Rendezvous unexpected (case IV): copy whatever data the RTS
            // carried, then fetch the rest; completion on the reply.
            let eager_in_rts = if self.cfg.offload {
                // Offloaded RTS deposits carry the user header + chunk.
                let hdr = 16;
                let chunk = u.mlength.saturating_sub(hdr);
                if chunk > 0 {
                    api.memcpy(buf, self.cfg.ring_off + u.ring_offset + hdr, chunk);
                }
                chunk
            } else {
                0
            };
            let remainder = u.total - eager_in_rts;
            api.get(u.peer, MSG_PT, u.rdv_tag, 0, remainder, buf + eager_in_rts);
            self.pending_gets.push((
                u.rdv_tag,
                RecvCompletion {
                    recv_id: id,
                    peer: u.peer,
                    tag: u.tag,
                    len: u.total.min(len),
                },
            ));
            (id, None)
        }
    }

    fn post_offloaded_recv(
        &mut self,
        api: &mut HostApi<'_>,
        id: u64,
        src: ProcessId,
        tag: u64,
        buf: usize,
        len: usize,
    ) -> spin_portals::me::MeHandle {
        // The handlers are stateless: the small/large decision is encoded
        // in the *return code* (PROCEED completes normally; the PENDING
        // variant keeps the ME open until the rendezvous get's reply
        // lands), so the HPU memory can be a shared scratch and no
        // per-receive PtlHPUAllocMem round trip is needed.
        let handlers = FnHandlers::new()
            .on_header(|ctx, args, _st| {
                ctx.compute_cycles(8);
                if args.header.user_hdr.is_empty() {
                    // Small message: normal Portals handling (§5.1 "falls
                    // back to the normal Portals 4 handling").
                    Ok(HeaderRet::Proceed)
                } else {
                    // Large: parse (total, rdv tag), get the remainder.
                    let total = args.header.user_hdr.u64_at(0) as usize;
                    let rdv_tag = args.header.user_hdr.u64_at(8);
                    let chunk = args.header.length - 16;
                    ctx.issue_get(chunk, total - chunk, args.header.source_id, rdv_tag, 0)?;
                    Ok(HeaderRet::ProcessDataPending)
                }
            })
            .on_payload(|ctx, args, _st| {
                // Deposit the RTS chunk at the start of the buffer.
                ctx.dma_to_host_b(MemRegion::MeHost, args.offset, args.data)?;
                Ok(PayloadRet::Success)
            })
            .build();
        api.me_append(
            MeSpec::recv(MSG_PT, tag, (buf, len))
                .once()
                .from_source(src)
                .with_user_ptr(id)
                .with_stateless_handlers(handlers),
        )
    }

    /// Feed a simulation event; returns a completion if this event finished
    /// a receive.
    pub fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) -> Option<RecvCompletion> {
        match ev.kind {
            EventKind::Put => {
                // A posted receive completed (cases I and II).
                if self.cfg.offload {
                    let pos = self.posted.iter().position(|p| p.id == ev.user_ptr)?;
                    let p = self.posted.remove(pos).expect("present");
                    // For rendezvous the event's rlength is the RTS length
                    // (eager chunk + 16-byte user header); the full message
                    // spans the posted buffer. Eager completions report the
                    // true (possibly truncated) length.
                    let len = if ev.rlength > self.cfg.eager_threshold {
                        p.len
                    } else {
                        ev.rlength.min(p.len)
                    };
                    Some(RecvCompletion {
                        recv_id: p.id,
                        peer: ev.peer,
                        tag: p.tag,
                        len,
                    })
                } else {
                    // Baseline: distinguish eager delivery from an RTS.
                    let pos = self.posted.iter().position(|p| p.id == ev.user_ptr)?;
                    let p = self.posted.remove(pos).expect("present");
                    if ev.hdr_data != 0 {
                        // RTS landed in the posted buffer: host issues the
                        // get (this is where baseline asynchrony dies — we
                        // only get here when the CPU is free).
                        let total = u64::from_le_bytes(
                            api.read_host(p.buf, 8).try_into().expect("rts total"),
                        ) as usize;
                        api.get(ev.peer, MSG_PT, ev.hdr_data, 0, total, p.buf);
                        self.pending_gets.push((
                            ev.hdr_data,
                            RecvCompletion {
                                recv_id: p.id,
                                peer: ev.peer,
                                tag: p.tag,
                                len: total.min(p.len),
                            },
                        ));
                        None
                    } else {
                        Some(RecvCompletion {
                            recv_id: p.id,
                            peer: ev.peer,
                            tag: p.tag,
                            len: ev.mlength,
                        })
                    }
                }
            }
            EventKind::PutOverflow => {
                // Unexpected arrival: remember it for a later recv.
                let (rdv_tag, total) = if self.cfg.offload {
                    if ev.rlength > self.cfg.eager_threshold {
                        // Offloaded RTS: metadata in the deposited header.
                        let base = self.cfg.ring_off + ev.offset;
                        let total =
                            u64::from_le_bytes(api.read_host(base, 8).try_into().expect("total"))
                                as usize;
                        let rdv =
                            u64::from_le_bytes(api.read_host(base + 8, 8).try_into().expect("rdv"));
                        (rdv, total)
                    } else {
                        (0, ev.rlength)
                    }
                } else if ev.hdr_data != 0 {
                    let base = self.cfg.ring_off + ev.offset;
                    let total =
                        u64::from_le_bytes(api.read_host(base, 8).try_into().expect("total"))
                            as usize;
                    (ev.hdr_data, total)
                } else {
                    (0, ev.rlength)
                };
                let u = Unexpected {
                    peer: ev.peer,
                    tag: ev.match_bits,
                    ring_offset: ev.offset,
                    mlength: ev.mlength,
                    rdv_tag,
                    total,
                };
                // The message may have raced a receive that was posted
                // after the NIC consumed it from the overflow list (real
                // Portals searches the unexpected headers during
                // PtlMEAppend; our append happens at event granularity).
                // Match it against posted receives before queueing.
                if let Some(pos) = self
                    .posted
                    .iter()
                    .position(|p| p.tag == u.tag && (p.src == ANY_PROCESS || p.src == u.peer))
                {
                    let p = self.posted.remove(pos).expect("present");
                    api.me_unlink(MSG_PT, p.me);
                    let (_, done) = self.complete_unexpected(api, p.id, u, p.buf, p.len);
                    return done;
                }
                self.unexpected.push_back(u);
                None
            }
            EventKind::Reply => {
                // A rendezvous get completed.
                let pos = self
                    .pending_gets
                    .iter()
                    .position(|(t, _)| *t == ev.match_bits)?;
                Some(self.pending_gets.remove(pos).1)
            }
            _ => None,
        }
    }
}

/// Memory layout helper for matching programs: user buffers below, ring at
/// the top.
pub fn default_config(offload: bool, mem_size: usize) -> (MpiConfig, usize) {
    let ring = 4 << 20;
    let cfg = MpiConfig {
        eager_threshold: 8 * 1024,
        offload,
        ring_off: mem_size - ring,
        ring_len: ring,
    };
    (cfg, mem_size - ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::MachineConfig;
    use spin_core::host::HostProgram;
    use spin_core::world::{SimBuilder, SimOutput};
    use spin_sim::time::Time;

    const MEM: usize = 16 << 20;

    /// Rank 0 sends one message; rank 1 receives it with a configurable
    /// posting delay (before/after arrival) and then busy-computes.
    struct SendOne {
        bytes: usize,
        offload: bool,
    }
    impl HostProgram for SendOne {
        fn on_start(&mut self, api: &mut HostApi<'_>) {
            let (cfg, _) = default_config(self.offload, MEM);
            let mut ep = Endpoint::new(cfg);
            ep.init(api);
            api.write_host(0, &crate::pattern(self.bytes, 1, 199));
            api.mark("send");
            ep.send(api, 1 - api.rank(), 7, 0, self.bytes);
        }
    }

    struct RecvOne {
        bytes: usize,
        offload: bool,
        post_delay: Option<Time>,
        compute_after_post: Option<Time>,
        ep: Option<Endpoint>,
    }
    impl RecvOne {
        fn post(&mut self, api: &mut HostApi<'_>) {
            let mut ep = self.ep.take().expect("ep");
            let (_, done) = ep.recv(api, 0, 7, 0, self.bytes);
            if let Some(d) = done {
                api.mark("recv_done");
                api.record("recv_len", d.len as f64);
            }
            self.ep = Some(ep);
            if let Some(c) = self.compute_after_post {
                api.compute(c);
                api.mark("compute_done");
            }
        }
    }
    impl HostProgram for RecvOne {
        fn on_start(&mut self, api: &mut HostApi<'_>) {
            let (cfg, _) = default_config(self.offload, MEM);
            let mut ep = Endpoint::new(cfg);
            ep.init(api);
            self.ep = Some(ep);
            match self.post_delay {
                None => self.post(api),
                Some(d) => api.set_timer(d, 1),
            }
        }
        fn on_timer(&mut self, _token: u64, api: &mut HostApi<'_>) {
            self.post(api);
        }
        fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
            let mut ep = self.ep.take().expect("ep");
            if let Some(done) = ep.on_event(ev, api) {
                api.mark("recv_done");
                api.record("recv_len", done.len as f64);
            }
            self.ep = Some(ep);
        }
    }

    fn run_case(
        bytes: usize,
        offload: bool,
        post_delay: Option<Time>,
        compute_after_post: Option<Time>,
    ) -> SimOutput {
        let mut cfg = MachineConfig::integrated();
        cfg.host.mem_size = MEM;
        // A single-threaded MPI rank: one core, so host progress requires
        // the CPU to be free (the §5.1 asynchrony problem).
        cfg.host.cores = 1;
        SimBuilder::new(cfg)
            .add_node(Box::new(SendOne { bytes, offload }))
            .add_node(Box::new(RecvOne {
                bytes,
                offload,
                post_delay,
                compute_after_post,
                ep: None,
            }))
            .run()
    }

    fn verify_payload(out: &SimOutput, bytes: usize) {
        let got = out.world.nodes[1].mem.read(0, bytes).unwrap();
        for (i, &b) in got.iter().enumerate() {
            assert_eq!(b, (i % 199) as u8, "byte {i}");
        }
        assert_eq!(
            out.report.value(1, "recv_len"),
            Some(bytes as f64),
            "completion length"
        );
    }

    #[test]
    fn case_i_expected_eager() {
        for offload in [false, true] {
            let out = run_case(4096, offload, None, None);
            out.report.mark(1, "recv_done").expect("completed");
            verify_payload(&out, 4096);
        }
    }

    #[test]
    fn case_iii_unexpected_eager_costs_a_copy() {
        for offload in [false, true] {
            // Receive posted 20 us after the message arrived.
            let out = run_case(4096, offload, Some(Time::from_us(20)), None);
            out.report.mark(1, "recv_done").expect("completed");
            verify_payload(&out, 4096);
            // The unexpected path pays a host copy.
            assert!(
                out.report.node_stats[1].host_mem_bytes >= 2 * 4096,
                "offload={offload}: copy expected"
            );
        }
    }

    #[test]
    fn case_ii_expected_rendezvous() {
        for offload in [false, true] {
            let out = run_case(256 * 1024, offload, None, None);
            out.report.mark(1, "recv_done").expect("completed");
            verify_payload(&out, 256 * 1024);
        }
    }

    #[test]
    fn case_iv_unexpected_rendezvous() {
        for offload in [false, true] {
            let out = run_case(256 * 1024, offload, Some(Time::from_us(30)), None);
            out.report.mark(1, "recv_done").expect("completed");
            verify_payload(&out, 256 * 1024);
        }
    }

    #[test]
    fn offload_progresses_while_cpu_computes() {
        // The receiver posts, then computes for 200 us. The offloaded
        // rendezvous completes during the compute; the baseline cannot
        // progress until the CPU frees.
        let compute = Time::from_us(200);
        let base = run_case(1 << 20, false, None, Some(compute));
        let spin = run_case(1 << 20, true, None, Some(compute));
        let t_base = base.report.mark(1, "recv_done").expect("baseline done");
        let t_spin = spin.report.mark(1, "recv_done").expect("offload done");
        verify_payload(&base, 1 << 20);
        verify_payload(&spin, 1 << 20);
        // Offloaded: done well inside the compute window. Baseline: only
        // after the compute finishes (~200 us + transfer).
        assert!(
            t_spin < Time::from_us(150),
            "offload should overlap: {t_spin}"
        );
        assert!(
            t_base > Time::from_us(200),
            "baseline cannot progress while computing: {t_base}"
        );
    }

    #[test]
    fn wildcard_source_receive() {
        // MPI_ANY_SOURCE works in the offloaded protocol (limitation 3 of
        // the triggered-op protocol, §5.1).
        struct WildRecv {
            ep: Option<Endpoint>,
        }
        impl HostProgram for WildRecv {
            fn on_start(&mut self, api: &mut HostApi<'_>) {
                let (cfg, _) = default_config(true, MEM);
                let mut ep = Endpoint::new(cfg);
                ep.init(api);
                ep.recv(api, ANY_PROCESS, 7, 0, 256 * 1024);
                self.ep = Some(ep);
            }
            fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
                let mut ep = self.ep.take().expect("ep");
                if let Some(done) = ep.on_event(ev, api) {
                    api.record("from", done.peer as f64);
                    api.mark("recv_done");
                }
                self.ep = Some(ep);
            }
        }
        let mut cfg = MachineConfig::integrated();
        cfg.host.mem_size = MEM;
        let out = SimBuilder::new(cfg)
            .add_node(Box::new(WildRecv { ep: None }))
            .add_node(Box::new(SendOne {
                bytes: 256 * 1024,
                offload: true,
            }))
            .run();
        out.report.mark(0, "recv_done").expect("completed");
        assert_eq!(out.report.value(0, "from"), Some(1.0));
    }
}
