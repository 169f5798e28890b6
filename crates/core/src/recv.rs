//! Receive path: header matching, channel installation, and per-packet
//! processing (§4.2–§4.4):
//!
//! * **RDMA/P4**: 30 ns header match (2 ns CAM for follow-ons) → DMA into
//!   host memory (§4.3 LogGP, contended) → full event → host dispatch;
//! * **sPIN**: match → header handler (exactly once, first) → payload
//!   handlers on free HPU cores (contexts bounded; exhaustion triggers
//!   Portals flow control, §3.2) → completion handler → event;
//! * **Reply**: packets of a get reply deposit at the initiator.
//!
//! Per-packet processing mutates the installed [`Channel`] **in place**
//! through the split borrows of [`crate::runtime::NodeCtx`]: no channel is
//! cloned out of the CAM and written back.
//!
//! Every refusal on this path (no matching ME, a disabled entry, a full
//! CAM, no free HPU context) goes through
//! [`NodeCtx::refuse`](crate::runtime::NodeCtx::refuse); the table in the
//! `runtime` module docs gives what each cause counts, whether it disables
//! the entry and polls its drain, when its NACK leaves, and which host
//! event it posts.

use crate::msg::{Notify, OutMsg, PayloadSpec};
use crate::nic::{Channel, DeliveryMode, PendingSend};
use crate::recovery::AckStep;
use crate::runtime::{HandlerEnv, NackAt, Refusal};
use crate::world::{Ev, World};
use spin_hpu::cost;
use spin_hpu::ctx::{HeaderRet, PayloadRet};
use spin_portals::ct::CtHandle;
use spin_portals::eq::{EventKind, FullEvent};
use spin_portals::me::MatchOutcome;
use spin_portals::ni::HeaderDisposition;
use spin_portals::types::{AckReq, OpKind, Packet, PtlAckType};
use spin_sim::engine::EventQueue;
use spin_sim::time::Time;
use std::sync::Arc;

impl World {
    /// A packet is fully buffered at node `n`'s NIC: route it by kind.
    pub(crate) fn on_packet(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: Packet) {
        match pkt.header.op {
            OpKind::Ack => self.on_ack(q, now, n, &pkt),
            OpKind::Reply => self.on_reply_packet(q, now, n, pkt),
            OpKind::Get if pkt.is_header() => self.on_get(q, now, n, &pkt),
            _ if pkt.is_header() => self.on_put_header(q, now, n, pkt),
            _ => self.on_follow_packet(q, now, n, pkt),
        }
    }

    fn on_ack(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: &Packet) {
        if pkt.header.ack_type == PtlAckType::PtDisabled {
            // §3.2 recovery NACK: the message bounced off a disabled PT at
            // the target — queue it for retransmission and back off.
            self.on_recovery_nack(
                q,
                now,
                n,
                pkt.header.source_id,
                pkt.header.pt_index,
                pkt.header.hdr_data,
            );
            return;
        }
        let Some(pending) = self.retire(q, now, n, pkt.header.hdr_data) else {
            return;
        };
        match pending.notify {
            Notify::Host => {
                let ev = FullEvent::simple(
                    EventKind::Ack,
                    pkt.header.source_id,
                    pending.match_bits,
                    pending.length,
                );
                self.dispatch_event(q, now + cost::MATCH_CAM, n, ev);
            }
            Notify::Ct(ct) => q.post_at(now + cost::MATCH_CAM, Ev::CtInc(n, CtHandle(ct), 1)),
            _ => {}
        }
    }

    /// A delivery confirmation (a transport ack, or a Get's reply) for
    /// `msg_id` reached its initiator `n`: retire the message's in-flight
    /// recovery state, and when it was the probe of a recovering (peer, PT)
    /// pair, release the in-order replay of the queue. Replays inject at
    /// `now`: the pair is Idle from this instant, so any later host send to
    /// it transmits directly — the queue must be in the send path first to
    /// keep per-pair ordering. Returns the message's pending send, if it
    /// had one.
    fn retire(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        msg_id: u64,
    ) -> Option<PendingSend> {
        if let AckStep::Replay(ids) = self.nodes[n as usize].nic.recovery.on_ack_ok(now, msg_id) {
            self.replay_queue(q, now, n, ids);
        }
        self.nodes[n as usize].nic.pending_sends.remove(&msg_id)
    }

    /// Match the header of a Put, Atomic or Get at node `n` at
    /// `match_done`. A header the entry refuses (no ME matches, or the
    /// entry is disabled) is refused here and yields `None`.
    fn match_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        match_done: Time,
        n: u32,
        pkt: &Packet,
    ) -> Option<Box<MatchOutcome>> {
        let hdr = &pkt.header;
        let ctx = &mut self.node_split(n).ctx;
        let why = match ctx.ni.deliver_header(
            hdr.pt_index,
            hdr.match_bits,
            hdr.source_id,
            hdr.length,
            hdr.offset,
            match_done.ps(),
        ) {
            HeaderDisposition::Matched(outcome) => return Some(outcome),
            HeaderDisposition::FlowControl => Refusal::NoMatch,
            HeaderDisposition::Dropped => Refusal::Disabled,
        };
        ctx.refuse(q, match_done, why, NackAt::Refusal, hdr, pkt.msg_id);
        None
    }

    fn on_get(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: &Packet) {
        let match_done = now + cost::MATCH_HEADER;
        let Some(outcome) = self.match_header(q, match_done, n, pkt) else {
            return;
        };
        let hdr = &pkt.header;
        let node = &mut self.nodes[n as usize];
        let src = outcome.entry.start + outcome.dest_offset;
        let len = outcome.mlength;
        // Copy-on-write snapshot at match time: the reply carries O(1) page
        // views, and later host writes to the source region clone pages
        // instead of changing the reply.
        let data = node.mem.read_slice(src, len).expect("get source");
        let t = node.nic.dma.fetch(match_done, len);
        self.gantt
            .record(n, "DMA", t.channel_start, t.complete, 'r', || "get-read");
        let payload = PayloadSpec::Pages(data);
        let reply = OutMsg {
            hdr_data: pkt.msg_id,
            answers: pkt.msg_id,
            ..OutMsg::new(
                n,
                hdr.source_id,
                OpKind::Reply,
                hdr.pt_index,
                hdr.match_bits,
                payload,
            )
        };
        q.post_at(t.complete, Ev::NicInject(n, Box::new(reply)));
    }

    fn on_reply_packet(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: Packet) {
        let done = now + cost::MATCH_CAM;
        if pkt.is_header() {
            // The reply is the Get's delivery confirmation.
            let Some(pending) = self.retire(q, now, n, pkt.header.hdr_data) else {
                self.nodes[n as usize].nic.stats.packets_dropped += 1;
                return;
            };
            let ch = Channel {
                mode: DeliveryMode::Reply,
                pt: pkt.header.pt_index,
                me: spin_portals::me::MeHandle(0),
                me_start: 0,
                me_len: 0,
                dest_offset: 0,
                mlength: pkt.header.length,
                handlers: None,
                hpu_mem: None,
                handler_region: (0, 0),
                total_packets: pkt.total,
                attempt: pkt.attempt,
                processed: 0,
                user_hdr_len: 0,
                header_done: done,
                last_done: done,
                dropped_bytes: 0,
                flow_control: false,
                pending_me: false,
                failed: false,
                header: Arc::clone(&pkt.header),
                ct: None,
                user_ptr: 0,
                ack: AckReq::None,
                src_msg_id: pkt.msg_id,
                reply_dest: pending.reply_dest,
                notify: pending.notify,
                overflow: false,
            };
            if self.nodes[n as usize]
                .nic
                .cam
                .install(pkt.msg_id, ch)
                .is_err()
            {
                self.nodes[n as usize].nic.stats.packets_dropped += 1;
                return;
            }
        }
        self.process_packet(q, done, n, &pkt);
    }

    fn on_put_header(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: Packet) {
        let match_done = now + cost::MATCH_HEADER;
        let Some(outcome) = self.match_header(q, match_done, n, &pkt) else {
            return;
        };
        let hdr = Arc::clone(&pkt.header);
        let msg_id = pkt.msg_id;
        let start_at;
        {
            let mut split = self.node_split(n);
            let ctx = &mut split.ctx;
            let entry = &outcome.entry;
            let hset = entry.handlers.map(|r| split.handlers[r.0 as usize].clone());
            let mut ch = Channel {
                mode: DeliveryMode::Rdma,
                pt: hdr.pt_index,
                me: outcome.handle,
                me_start: entry.start,
                me_len: entry.length,
                dest_offset: outcome.dest_offset,
                mlength: outcome.mlength,
                handlers: hset.clone(),
                hpu_mem: entry.hpu_memory,
                handler_region: entry.handler_mem,
                total_packets: pkt.total,
                attempt: pkt.attempt,
                processed: 0,
                user_hdr_len: hdr.user_hdr.len(),
                header_done: match_done,
                last_done: match_done,
                dropped_bytes: 0,
                flow_control: false,
                pending_me: false,
                failed: false,
                header: Arc::clone(&hdr),
                ct: entry.ct.map(CtHandle),
                user_ptr: entry.user_ptr,
                ack: hdr.ack_req,
                src_msg_id: pkt.msg_id,
                reply_dest: 0,
                notify: Notify::None,
                overflow: outcome.list == spin_portals::me::ListKind::Overflow,
            };
            if let Some(hs) = hset {
                // sPIN path: header handler first, exactly once.
                if hs.has_header() {
                    match ctx.pool.admit(match_done) {
                        None => {
                            // No HPU contexts: flow control for the whole
                            // message — and drop the rest of it. (The seed
                            // left the channel in `Rdma` mode here, so the
                            // packets were still deposited and a successful
                            // `Put` event followed the `PtDisabled` one;
                            // §3.2 drops the flow-controlled message
                            // entirely.)
                            ch.flow_control = true;
                            ch.mode = DeliveryMode::DropAll;
                            let (why, nack) = (Refusal::NoContext, NackAt::Teardown);
                            ctx.refuse(q, match_done, why, nack, &hdr, msg_id);
                        }
                        Some(core) => {
                            let (end, ret) = ctx.run_header(q, core, match_done, &ch, &hs);
                            ch.header_done = end;
                            ch.last_done = end;
                            match ret {
                                Ok(HeaderRet::ProcessData) => ch.mode = DeliveryMode::SpinProcess,
                                Ok(HeaderRet::ProcessDataPending) => {
                                    ch.mode = DeliveryMode::SpinProcess;
                                    ch.pending_me = true;
                                }
                                Ok(HeaderRet::Proceed) => ch.mode = DeliveryMode::SpinProceed,
                                Ok(HeaderRet::ProceedPending) => {
                                    ch.mode = DeliveryMode::SpinProceed;
                                    ch.pending_me = true;
                                }
                                Ok(HeaderRet::Drop) => {
                                    ch.mode = DeliveryMode::DropAll;
                                }
                                Ok(HeaderRet::DropPending) => {
                                    ch.mode = DeliveryMode::DropAll;
                                    ch.pending_me = true;
                                }
                                Ok(HeaderRet::Fail) | Err(_) => {
                                    ctx.report_handler_error(q, end, &mut ch, ret.is_err());
                                    ch.mode = DeliveryMode::DropAll;
                                }
                            }
                        }
                    }
                } else if hs.has_payload() {
                    ch.mode = DeliveryMode::SpinProcess;
                } else {
                    ch.mode = DeliveryMode::SpinProceed;
                }
            }
            start_at = ch.header_done;
            // A replay's header can find a channel of an *earlier* attempt
            // of the same message still assembling — under selective
            // resume a fault can kill the tail of an attempt whose head
            // (header included) was delivered. That channel will never
            // complete (the straggler filter rejects the new attempt's
            // packets as follow-ons); evict it so the replay installs
            // cleanly, and count its partially assembled head as dropped —
            // delivered work the bounced attempt discards.
            if split
                .cam
                .peek(msg_id)
                .is_some_and(|c| c.attempt < pkt.attempt)
            {
                let stale = split.cam.evict(msg_id).expect("peeked above");
                ctx.stats.packets_dropped += stale.processed as u64;
            }
            if split.cam.install(msg_id, ch).is_err() {
                // CAM exhausted: treat as flow control (drop message).
                let (why, nack) = (Refusal::CamFull, NackAt::Refusal);
                ctx.refuse(q, match_done, why, nack, &hdr, msg_id);
                return;
            }
        }
        self.process_packet(q, start_at, n, &pkt);
    }

    fn on_follow_packet(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pkt: Packet) {
        let done = now + cost::MATCH_CAM;
        // The CAM channel belongs to one retransmission attempt; a
        // straggler packet of an earlier (flow-control-bounced) attempt
        // of the same message must not be absorbed into the assembly.
        let Some(ready) = self.nodes[n as usize]
            .nic
            .cam
            .peek(pkt.msg_id)
            .filter(|c| c.attempt == pkt.attempt)
            .map(|c| c.header_done.max(done))
        else {
            self.nodes[n as usize].nic.stats.packets_dropped += 1;
            return;
        };
        self.process_packet(q, ready, n, &pkt);
    }

    /// Process one packet of an installed channel at time `t` (matching and
    /// header-handler ordering already applied). Mutates assembly state in
    /// place and posts `MessageDone` when the message is complete.
    pub(crate) fn process_packet(&mut self, q: &mut EventQueue<Ev>, t: Time, n: u32, pkt: &Packet) {
        let mut split = self.node_split(n);
        let ctx = &mut split.ctx;
        let Some(ch) = split.cam.lookup(pkt.msg_id) else {
            return;
        };
        let mut done_at = t;
        let mut dropped_delta = 0usize;
        match ch.mode {
            DeliveryMode::Reply => {
                if !pkt.payload.is_empty() {
                    let timing = ctx.dma.write(t, pkt.payload.len());
                    ctx.mem
                        .write_bytes(ch.reply_dest + pkt.offset, &pkt.payload)
                        .expect("reply deposit");
                    ctx.gantt
                        .record(n, "DMA", timing.channel_start, timing.complete, 'w', || {
                            "reply"
                        });
                    done_at = timing.complete;
                }
            }
            DeliveryMode::Rdma | DeliveryMode::SpinProceed => {
                // Default deposit (includes the user header, §3.2.1 PROCEED).
                let msg_off = pkt.offset;
                if msg_off < ch.mlength && !pkt.payload.is_empty() {
                    let len = pkt.payload.len().min(ch.mlength - msg_off);
                    let timing = ctx.dma.write(t, len);
                    ctx.mem
                        .write_bytes(
                            ch.me_start + ch.dest_offset + msg_off,
                            &pkt.payload.slice(..len),
                        )
                        .expect("rdma deposit");
                    ctx.gantt
                        .record(n, "DMA", timing.channel_start, timing.complete, 'w', || {
                            "deposit"
                        });
                    done_at = timing.complete;
                }
            }
            DeliveryMode::SpinProcess => {
                // Strip the user header (only present in packet 0).
                let (data, data_off) = if pkt.is_header() {
                    let uh = ch.user_hdr_len.min(pkt.payload.len());
                    (pkt.payload.slice(uh..), 0usize)
                } else {
                    (pkt.payload.clone(), pkt.offset - ch.user_hdr_len)
                };
                if ch.flow_control {
                    dropped_delta += data.len();
                } else if !data.is_empty() {
                    let hs = ch.handlers.clone().expect("spin channel");
                    if hs.has_payload() {
                        match ctx.pool.admit(t) {
                            None => {
                                // Context exhaustion mid-message: §3.2 flow
                                // control.
                                ch.flow_control = true;
                                let (why, nack) = (Refusal::NoContext, NackAt::Teardown);
                                ctx.refuse(q, t, why, nack, &ch.header, ch.src_msg_id);
                                dropped_delta += data.len();
                            }
                            Some(core) => {
                                let env = HandlerEnv::of(ch);
                                let msg_length = ch.header.length - ch.user_hdr_len;
                                let (end, ret) = ctx
                                    .run_payload(q, core, t, env, &hs, &data, data_off, msg_length);
                                done_at = end;
                                match ret {
                                    Ok(PayloadRet::Success) => {}
                                    Ok(PayloadRet::Drop) => dropped_delta += data.len(),
                                    Ok(PayloadRet::Fail) | Err(_) => {
                                        ctx.report_handler_error(q, end, ch, ret.is_err());
                                        dropped_delta += data.len();
                                    }
                                }
                            }
                        }
                    }
                }
            }
            DeliveryMode::DropAll => {
                dropped_delta += pkt.payload.len();
            }
        }
        // Update assembly state in place.
        ch.processed += 1;
        ch.dropped_bytes += dropped_delta;
        ch.last_done = ch.last_done.max(done_at);
        if ch.processed == ch.total_packets {
            q.post_at(ch.last_done, Ev::MessageDone(n, pkt.msg_id));
        }
    }
}
