//! Completion stage: once every packet of a message is processed, run the
//! completion handler (§3.2.3), deliver the full event, bump counters,
//! send acks, and resolve deferred (rendezvous, §5.1) completions.

use crate::msg::Notify;
use crate::nic::{Channel, DeferredCompletion, DeliveryMode};
use crate::send::post_ack;
use crate::world::{Ev, World};
use spin_hpu::ctx::CompletionRet;
use spin_portals::ct::CtHandle;
use spin_portals::eq::{EventKind, FullEvent};
use spin_portals::types::{AckReq, PtlAckType};
use spin_sim::engine::EventQueue;
use spin_sim::time::Time;

impl World {
    /// All packets of `msg_id` are processed on node `n`: tear down the
    /// channel and complete the message.
    pub(crate) fn on_message_done(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        msg_id: u64,
    ) {
        let Some(ch) = self.nodes[n as usize].nic.cam.evict(msg_id) else {
            return;
        };
        match ch.mode {
            DeliveryMode::Reply => match ch.notify {
                Notify::Host => {
                    let ev = FullEvent::simple(
                        EventKind::Reply,
                        ch.header.source_id,
                        ch.header.match_bits,
                        ch.header.length,
                    );
                    self.dispatch_event(q, now, n, ev);
                }
                Notify::Channel(orig) => {
                    if let Some(d) = self.nodes[n as usize].nic.deferred.remove(&orig) {
                        self.finish_deferred(q, now, n, d);
                    }
                }
                Notify::Ct(ct) => q.post_now(Ev::CtInc(n, CtHandle(ct), 1)),
                Notify::None => {}
            },
            DeliveryMode::Rdma => {
                self.complete_message(q, now, n, &ch);
            }
            DeliveryMode::SpinProcess | DeliveryMode::SpinProceed | DeliveryMode::DropAll => {
                let mut ch = ch;
                let hs = ch.handlers.clone();
                let mut end = now;
                let mut pending = ch.pending_me;
                if let Some(hs) = hs.filter(|h| h.has_completion()) {
                    let mut split = self.node_split(n);
                    let ctx = &mut split.ctx;
                    let (e, ret) = ctx.run_completion(q, now, &ch, &hs);
                    end = e;
                    match ret {
                        Ok(CompletionRet::Success) => {}
                        Ok(CompletionRet::SuccessPending) => pending = true,
                        Ok(CompletionRet::Fail) | Err(_) => {
                            ctx.report_handler_error(q, e, &mut ch, ret.is_err());
                        }
                    }
                }
                if pending && !ch.flow_control {
                    // Park the completion until a follow-up (e.g. the
                    // rendezvous get) finishes. The data is consumed, so the
                    // transport-level recovery ack (when no ULP ack will
                    // follow) goes out now rather than at the deferred
                    // completion. Flow control takes priority over pending:
                    // a dropped message must be NACKed (below), never parked
                    // and positively acked.
                    let event = self.put_event(&ch);
                    self.nodes[n as usize].nic.deferred.insert(
                        msg_id,
                        DeferredCompletion {
                            event,
                            ct: ch.ct,
                            ack: ch.ack,
                            ack_to: ch.header.source_id,
                            src_msg_id: ch.src_msg_id,
                        },
                    );
                    if self.config.recovery.is_some() && ch.ack == AckReq::None {
                        let to = ch.header.source_id;
                        post_ack(q, end, n, to, 0, ch.src_msg_id, PtlAckType::Ok);
                    }
                } else if !ch.flow_control {
                    self.complete_message(q, end, n, &ch);
                } else {
                    // Flow control hit this message: §3.2 drops it entirely
                    // — no completion event (the seed delivered a partial
                    // `Put` for mid-message exhaustion). With recovery
                    // enabled the initiator is NACKed for retransmission.
                    // (The completion handler above still ran — it is the
                    // teardown notification, and `CompletionInfo::
                    // flow_control_triggered` tells it the attempt was
                    // dropped so it can keep its side effects idempotent
                    // across the retransmit.)
                    let ctx = &mut self.node_split(n).ctx;
                    ctx.nack(q, end, &ch.header, ch.src_msg_id);
                }
            }
        }
    }

    /// The full event a completed put generates.
    pub(crate) fn put_event(&self, ch: &Channel) -> FullEvent {
        FullEvent {
            kind: if ch.overflow {
                EventKind::PutOverflow
            } else {
                EventKind::Put
            },
            peer: ch.header.source_id,
            match_bits: ch.header.match_bits,
            rlength: ch.header.length,
            mlength: ch.mlength.saturating_sub(ch.dropped_bytes),
            offset: ch.dest_offset,
            hdr_data: ch.header.hdr_data,
            me: Some(ch.me),
            user_ptr: ch.user_ptr,
            ni_fail: 0,
        }
    }

    /// Deliver the completion event, bump the attached counter, and send
    /// the requested ack.
    pub(crate) fn complete_message(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: Time,
        n: u32,
        ch: &Channel,
    ) {
        let ev = self.put_event(ch);
        self.dispatch_event(q, t, n, ev);
        if let Some(ct) = ch.ct {
            q.post_at(t, Ev::CtInc(n, ct, 1));
        }
        // With recovery enabled every consumed Put is acked at the
        // transport level so the initiator can retire its retransmit state
        // (piggybacked on the ULP ack when one was requested).
        let transport_ack = self.config.recovery.is_some()
            && matches!(
                ch.header.op,
                spin_portals::types::OpKind::Put | spin_portals::types::OpKind::Atomic(_)
            );
        if ch.ack != AckReq::None || transport_ack {
            let to = ch.header.source_id;
            post_ack(q, t, n, to, 0, ch.src_msg_id, PtlAckType::Ok);
        }
    }

    /// Complete a previously parked (rendezvous) completion.
    pub(crate) fn finish_deferred(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: Time,
        n: u32,
        d: DeferredCompletion,
    ) {
        self.dispatch_event(q, t, n, d.event);
        if let Some(ct) = d.ct {
            q.post_at(t, Ev::CtInc(n, ct, 1));
        }
        if d.ack != AckReq::None {
            post_ack(q, t, n, d.ack_to, 0, d.src_msg_id, PtlAckType::Ok);
        }
    }
}
