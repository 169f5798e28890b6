//! Send path: host call → NIC send queue → per-packet egress
//! serialization `max(g, G·s)` → route latency L → ingress serialization
//! (§4.2), plus the P4 triggered operations (§4.4.1) and ack generation.
//!
//! Packetization is zero-copy: the message header is built **once** and
//! shared across all packets via `Arc`, and every packet payload is an
//! O(1) reference-counted slice of the wire buffer. Host-region payloads
//! are snapshotted as copy-on-write page views ([`MemSlice`]), so
//! injection is O(1) in message size: a multi-MB send bumps a handful of
//! page refcounts instead of copying the bytes, and later host writes to
//! the region clone the affected pages rather than corrupting in-flight
//! packets.

use crate::fault::PathState;
use crate::msg::{Notify, OutMsg, PayloadSpec};
use crate::nic::PendingSend;
use crate::world::{Ev, WirePolicy, World};
use bytes::Bytes;
use spin_hpu::memory::MemSlice;
use spin_portals::ct::TriggeredAction;
use spin_portals::types::{AckReq, OpKind, Packet, PtlAckType, PtlHeader};
use spin_sim::engine::EventQueue;
use spin_sim::time::Time;
use std::sync::Arc;

impl World {
    /// A message enters node `n`'s NIC send path.
    pub(crate) fn inject(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, mut msg: OutMsg) {
        if msg.msg_id == 0 {
            msg.msg_id = self.nodes[n as usize].nic.next_msg_id(n);
        }
        // Ghost replay: a retransmission (or a fault-scheduled tail resume)
        // whose message was abandoned after the re-injection was queued.
        // Its delivery failure was already reported — do not resurrect it.
        // This one filter guards every engine alike: the queued event is
        // dispatched and counted everywhere, and drops here.
        if (msg.attempt > 0 || msg.resume_from > 0)
            && !self.nodes[n as usize].nic.recovery.is_tracked(msg.msg_id)
        {
            return;
        }
        // §3.2 recovery: register recoverable messages with the retransmit
        // machinery; while the (dst, pt) pair is recovering, new sends are
        // held on the retransmit queue so per-pair ordering survives.
        // Probe/replay re-injections (already tracked) always transmit.
        match self.nodes[n as usize].nic.recovery.on_send(&msg) {
            crate::recovery::SendStep::Hold => {
                self.nodes[n as usize].nic.stats.recovery_held += 1;
                return;
            }
            crate::recovery::SendStep::Transmit => {}
        }
        let is_get = matches!(msg.op, OpKind::Get);
        // Snapshot the payload (O(1) copy-on-write page views for host
        // regions) and the time the data is ready at the NIC.
        let (ready, data): (Time, MemSlice) = match &msg.payload {
            PayloadSpec::Inline(b) => (now, MemSlice::from_bytes(b.clone())),
            PayloadSpec::Pages(s) => (now, s.clone()),
            PayloadSpec::HostRegion {
                offset,
                len,
                charge_dma,
            } => {
                let node = &mut self.nodes[n as usize];
                let view = node
                    .mem
                    .read_slice(*offset, *len)
                    .expect("send region out of bounds");
                let ready = if *charge_dma {
                    let t = node.nic.dma.fetch(now, *len);
                    self.gantt
                        .record(n, "DMA", t.channel_start, t.complete, 'r', || "send-read");
                    t.complete
                } else {
                    now
                };
                (ready, view)
            }
            PayloadSpec::None { .. } => (now, MemSlice::empty()),
        };
        let total_len = msg.user_hdr.len() + data.len();
        let wire_len = if is_get { 0 } else { total_len };
        // One header allocation for the whole message; every packet shares
        // it.
        let header = Arc::new(PtlHeader {
            op: msg.op,
            length: if is_get { msg.length() } else { total_len },
            target_id: msg.dst,
            source_id: msg.src,
            match_bits: msg.match_bits,
            offset: msg.remote_offset,
            hdr_data: msg.hdr_data,
            user_hdr: msg.user_hdr.clone(),
            pt_index: msg.pt,
            ack_req: msg.ack,
            ack_type: msg.ack_type,
        });
        // Register initiator-side completion state.
        let needs_pending = is_get || msg.notify != Notify::None || msg.ack != AckReq::None;
        if needs_pending {
            self.nodes[n as usize].nic.pending_sends.insert(
                msg.msg_id,
                PendingSend {
                    notify: msg.notify,
                    reply_dest: msg.reply_dest,
                    length: msg.length(),
                    peer: msg.dst,
                    match_bits: msg.match_bits,
                },
            );
        }
        // Wire payload = user header bytes ++ data (an O(1) segment
        // prepend — the header becomes the view's first segment).
        let full: MemSlice = if msg.user_hdr.is_empty() {
            data
        } else {
            data.prepended(msg.user_hdr.to_bytes())
        };
        let params = self.config.net;
        let total = params.packets_for(wire_len) as u32;
        // Per-link impairment: one draw set covers the whole message — all
        // its packets shift together, so follow-ons can never overtake the
        // header. Draw order is fixed (loss, then jitter, then background;
        // only parameters > 0 draw at all, and a lost message consumes no
        // further draws) from the `(src, dst)` stream in source-side inject
        // order, which is engine-invariant — impaired runs stay
        // bit-identical at any shard count.
        let mut lost = false;
        let mut extra = Time::ZERO;
        if let Some(effect) = self
            .config
            .impairments
            .as_ref()
            .and_then(|imp| imp.effect(msg.src, msg.dst))
        {
            // Only recovery-tracked messages (Put/Atomic/Get) can drop:
            // acks and replies ride the reliable control plane, so the
            // protocol cannot deadlock on a lost confirmation.
            if effect.loss > 0.0 && self.nodes[n as usize].nic.recovery.is_tracked(msg.msg_id) {
                lost = self.link_rng(msg.src, msg.dst).chance(effect.loss);
            }
            if !lost {
                extra = effect.latency;
                if effect.jitter > Time::ZERO {
                    let j = self
                        .link_rng(msg.src, msg.dst)
                        .below(effect.jitter.ps() + 1);
                    extra += Time::from_ps(j);
                }
                if effect.background > Time::ZERO {
                    let mean = effect.background.ps() as f64;
                    let b = self.link_rng(msg.src, msg.dst).exponential(mean);
                    extra += Time::from_ps(b as u64);
                }
            }
        }
        // Same-node sends always take the direct path, in every engine:
        // the transfer serializes on the node's own loopback self-queue
        // ([`Network::send_packet`]), which is node-local state — invisible
        // to cross-shard lookahead, coordinator replay, and mailboxes
        // alike. (Impairments and faults never apply to self-pairs, so a
        // loopback packet is never dropped or delayed.)
        let loopback = msg.src == msg.dst;
        // Selective retransmission: a tail resume re-sends only packets
        // `[resume_from, total)`; the head already arrived under this same
        // attempt. Fresh sends and whole-message replays start at 0.
        let first_tx = msg.resume_from as usize;
        debug_assert!(first_tx < total as usize, "resume past the last packet");
        if msg.attempt > 0 || first_tx > 0 {
            // Recovery wire overhead: every byte this (re)injection is
            // about to put on the wire again — full replays and tail
            // resumes alike.
            let head_off: usize = (0..first_tx).map(|i| params.packet_size(wire_len, i)).sum();
            self.nodes[n as usize].nic.stats.retransmitted_bytes += (wire_len - head_off) as u64;
        }
        // Fault plan: judge this transmission against the scheduled fault
        // state at each packet's own *predicted* egress time (the
        // prediction mirrors the per-packet egress reservations below
        // exactly, since every branch charges egress). Per-message effects
        // — reroute penalty, degrade latency, degrade loss — are judged at
        // the first transmitted packet; path death is additionally scanned
        // per packet so a mid-message link cut truncates the transmission
        // at the packet boundary where the path died.
        let mut fault_extra = Time::ZERO;
        let mut dead_from: Option<usize> = None;
        let mut degrade_loss = 0.0f64;
        let mut rerouted = false;
        if !lost && !loopback {
            if let Some(faults) = &self.faults {
                // Only recovery-tracked messages (Put/Atomic/Get) die on a
                // dead path: acks, NACKs, and replies ride the reliable
                // control plane, exactly like impairment loss — the
                // protocol cannot deadlock on a lost confirmation.
                let tracked = self.nodes[n as usize].nic.recovery.is_tracked(msg.msg_id);
                let mut starts = vec![Time::ZERO; total as usize];
                let mut t = self.network.egress_free(msg.src).max(ready);
                for (i, s) in starts.iter_mut().enumerate().skip(first_tx) {
                    *s = t;
                    t += params.packet_occupancy(params.packet_size(wire_len, i));
                }
                let head_t = starts[first_tx];
                match faults.path_state(msg.src, msg.dst, head_t) {
                    PathState::Dead if tracked => dead_from = Some(first_tx),
                    PathState::Rerouted => {
                        // Detour around the failed upper-tier switch: two
                        // extra traversals on every packet of the message.
                        let sw = self.network.topology().route_switches(msg.src, msg.dst);
                        fault_extra += params.route_latency(sw + 2) - params.route_latency(sw);
                        rerouted = true;
                    }
                    _ => {}
                }
                if dead_from.is_none() {
                    if let Some((extra_latency, loss)) = faults.degrade_at(msg.src, msg.dst, head_t)
                    {
                        fault_extra += extra_latency;
                        if loss > 0.0 && tracked {
                            degrade_loss = loss;
                        }
                    }
                    if tracked {
                        for (i, &s) in starts.iter().enumerate().skip(first_tx + 1) {
                            if faults.path_state(msg.src, msg.dst, s) == PathState::Dead {
                                dead_from = Some(i);
                                break;
                            }
                        }
                    }
                }
            }
        }
        if rerouted {
            self.nodes[n as usize].nic.stats.reroutes += 1;
        }
        if degrade_loss > 0.0 && self.link_rng(msg.src, msg.dst).chance(degrade_loss) {
            // Degrade-window loss drops the whole (remaining) message,
            // like impairment loss — drawn after the impairment stream's
            // draws, and only when a fault plan is installed, so fault-free
            // runs consume an unchanged draw sequence.
            dead_from = Some(first_tx);
        }
        // First packet index that never reaches the fabric. Everything in
        // `[first_tx, cut)` transmits normally; `[cut, total)` occupies the
        // source egress link but is never delivered.
        let cut = if lost {
            first_tx
        } else {
            dead_from.unwrap_or(total as usize)
        };
        // A packet's head reaches the destination port `head_delay` after
        // its transmission starts.
        let base_latency = self.network.base_latency(msg.src, msg.dst);
        let head_delay = base_latency + extra + fault_extra;
        let mut off = 0usize;
        let mut last_tx_end = ready;
        for i in 0..total {
            let size = params.packet_size(wire_len, i as usize);
            if (i as usize) < first_tx {
                // Already delivered under this attempt (selective resume):
                // not re-sent, no egress occupancy.
                off += size;
                continue;
            }
            let pkt = Packet {
                msg_id: msg.msg_id,
                index: i,
                total,
                offset: off,
                attempt: msg.attempt,
                payload: full.slice(off, size),
                header: Arc::clone(&header),
            };
            off += size;
            if loopback {
                let timing = self.network.send_packet(ready, msg.src, msg.dst, size);
                self.gantt
                    .record(n, "NIC", timing.tx_start, timing.tx_end, '=', || {
                        format!("tx m{} p{}", msg.msg_id, i)
                    });
                q.post_at(timing.arrival, Ev::PacketArrive(msg.dst, Box::new(pkt)));
                continue;
            }
            // The egress half is `src`-local, so it runs here in every
            // engine. A dropped packet was transmitted — the source egress
            // link is occupied as usual — but the fabric never delivers it:
            // no ingress reservation, no fabric counters, no target state.
            // `(lost)` is the impairment draw, `(dead)` a scheduled fault
            // with the path down at this packet's charged time.
            let dropped = lost || (i as usize) >= cut;
            let cause = match (dropped, lost) {
                (false, _) => "",
                (true, true) => " (lost)",
                (true, false) => " (dead)",
            };
            let (tx_start, tx_end) = self.network.egress_phase(ready, msg.src, size);
            self.gantt.record(n, "NIC", tx_start, tx_end, '=', || {
                format!("tx m{} p{}{cause}", msg.msg_id, i)
            });
            if dropped {
                last_tx_end = tx_end;
            } else {
                self.hand_off(q, tx_start + head_delay, msg.dst, Box::new(pkt));
            }
        }
        if cut < total as usize {
            let count = (total as usize - cut) as u64;
            let nic = &mut self.nodes[n as usize].nic;
            nic.stats.packets_dropped += count;
            if !lost {
                nic.stats.drops_on_dead_link += count;
            }
        }
        if lost || dead_from == Some(first_tx) {
            // Nothing of this (re)injection was delivered. Surface the
            // failure to the sender as a §3.2 `PtDisabled` NACK — the same
            // control message a flow-control bounce produces — so the
            // existing backoff/probe/replay machinery retransmits the
            // message in order. The NACK is synthesized source-locally
            // (the fabric carried nothing to the target — for a scheduled
            // fault it models the fabric's destination-unreachable
            // report): it lands one round trip after the last byte left,
            // pays no link occupancy, and is invisible to the ledger and
            // the fabric counters.
            let nack_at = last_tx_end + base_latency * 2;
            let nack_header = Arc::new(PtlHeader {
                op: OpKind::Ack,
                length: 0,
                target_id: msg.src,
                source_id: msg.dst,
                match_bits: 0,
                offset: 0,
                hdr_data: msg.msg_id,
                user_hdr: Default::default(),
                pt_index: msg.pt,
                ack_req: AckReq::None,
                ack_type: PtlAckType::PtDisabled,
            });
            let nack = Packet {
                msg_id: 0,
                index: 0,
                total: 1,
                offset: 0,
                attempt: 0,
                payload: Bytes::new(),
                header: nack_header,
            };
            q.post_at(nack_at, Ev::PacketArrive(n, Box::new(nack)));
        } else if cut < total as usize {
            // Selective retransmission: the head `[first_tx, cut)` was
            // delivered under this attempt; schedule a tail resume for
            // `[cut, total)` one round trip after the last (dead) byte
            // left — when the sender would learn delivery stopped. The
            // resume keeps the same attempt and message id, so the
            // receiver's channel keeps assembling where the head left off;
            // it re-runs these fault checks at its own charged times, so a
            // resume into a still-dead path NACKs into a full replay,
            // bounded by the recovery probe budget.
            let resume_at = last_tx_end + base_latency * 2;
            let mut resume = msg.clone();
            resume.resume_from = cut as u32;
            q.post_at(resume_at, Ev::NicInject(n, Box::new(resume)));
        }
    }

    /// Hand a cross-node packet whose egress half has run to the wire; its
    /// head reaches `dst`'s ingress port at `head`. The split phases
    /// compose bit-identically to [`Network::send_packet`] (pinned by the
    /// net test `phase_split_composes_to_send_packet`), and this is the one
    /// place the engines differ, by [`WirePolicy`].
    ///
    /// [`Network::send_packet`]: spin_net::transfer::Network::send_packet
    pub(crate) fn hand_off(
        &mut self,
        q: &mut EventQueue<Ev>,
        head: Time,
        dst: u32,
        pkt: Box<Packet>,
    ) {
        match self.wire {
            WirePolicy::Deferred => q.post_at(head, Ev::WireSend(dst, pkt)),
            WirePolicy::Relaxed { first, last } if !(first..last).contains(&dst) => {
                self.outbox.push((head, dst, pkt));
            }
            _ => {
                let arrival = self.network.ingress_phase(head, dst, pkt.payload.len());
                q.post_at(arrival, Ev::PacketArrive(dst, pkt));
            }
        }
    }

    // ---- P4 triggered operations ----

    /// Execute a fired triggered action on node `n`'s NIC.
    pub(crate) fn on_triggered(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        action: TriggeredAction,
    ) {
        match action {
            TriggeredAction::Put {
                pt,
                local_offset,
                length,
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr,
                ack,
            } => {
                // "the data is fetched via DMA ... as in the RDMA case"
                // (§4.4.1) — i.e. like a host-initiated send, whose staging
                // is covered by o/G in the LogGOPS accounting, so no
                // separate charge.
                let msg = OutMsg {
                    remote_offset,
                    hdr_data,
                    user_hdr,
                    ..OutMsg::put_from_host(n, target, pt, match_bits, local_offset, length)
                };
                q.post_at(now, Ev::NicInject(n, Box::new(msg.acked(ack))));
            }
            TriggeredAction::Get {
                pt,
                local_offset,
                length,
                target,
                match_bits,
                remote_offset,
            } => {
                let msg = OutMsg::get(
                    n,
                    target,
                    pt,
                    match_bits,
                    remote_offset,
                    length,
                    local_offset,
                );
                q.post_at(now, Ev::NicInject(n, Box::new(msg)));
            }
            TriggeredAction::CtInc { ct, increment } => {
                q.post_now(Ev::CtInc(n, ct, increment));
            }
            TriggeredAction::CtSet { ct, value } => {
                q.post_now(Ev::CtSet(n, ct, value));
            }
        }
    }
}

/// Post an `Ack` control message from node `n` back to `to`, answering its
/// message `answers`, at `at`: a positive ack (`PtlAckType::Ok`, entry 0) or
/// a §3.2 NACK (`PtDisabled`, naming the refusing entry `pt`). It is an
/// ordinary zero-payload message, so it pays the normal send-path and
/// network costs.
pub(crate) fn post_ack(
    q: &mut EventQueue<Ev>,
    at: Time,
    n: u32,
    to: u32,
    pt: u32,
    answers: u64,
    ack_type: PtlAckType,
) {
    let payload = PayloadSpec::Inline(Bytes::new());
    let msg = OutMsg {
        hdr_data: answers,
        ack_type,
        answers,
        ..OutMsg::new(n, to, OpKind::Ack, pt, 0, payload)
    };
    q.post_at(at, Ev::NicInject(n, Box::new(msg)));
}
