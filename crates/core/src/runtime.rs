//! Handler runtime: HPU admission, sandboxed handler execution, and the
//! "simcall" feedback of handler side effects into the event queue (the
//! gem5→LogGOPSim integration of §4.2).
//!
//! The central type is [`NodeCtx`]: a split-borrow view of one node's
//! subsystems (Portals NI, HPU pool, DMA engine, HPU memories, NIC stats,
//! host DRAM, Gantt recorder). Because the channel CAM is *not* part of it, the
//! receive path can hold a `&mut Channel` — mutating per-message state in
//! place — while handlers execute against everything else. This is what
//! removed the per-packet clone-snapshot-writeback of the `Channel`.
//!
//! [`NodeCtx::refuse`] is the one home of the target side of §3.2 flow
//! control. Each [`Refusal`] cause does what its row says; the NACK leaves
//! only with recovery on:
//!
//! | cause | counter bumped | entry | drain poll | NACK leaves | host event |
//! |---|---|---|---|---|---|
//! | no matching ME | `flow_control_events` | disabled (by the NI) | yes | at the header match | `PtDisabled` |
//! | entry already disabled | `packets_dropped` | stays disabled | no | at the header match | none |
//! | CAM full | `flow_control_events` | disabled | yes | at the header match | `PtDisabled` |
//! | no HPU context, for a header or mid-message | `flow_control_events` | disabled | yes | at the message's teardown | `PtDisabled` |
//! | crashed target | `packets_dropped`, `drops_on_dead_link` | untouched | no | at arrival, for a Put, Atomic or Get header | none |

use crate::handlers::{HandlerSet, HeaderArgs, PayloadArgs};
use crate::msg::{Notify, OutMsg, PayloadSpec};
use crate::nic::{Channel, NicStats};
use crate::recovery::RecoveryManager;
use crate::send::post_ack;
use crate::world::Ev;
use bytes::Bytes;
use spin_hpu::cam::Cam;
use spin_hpu::ctx::{CompletionInfo, CompletionRet, HandlerCtx, HeaderRet, OutAction, PayloadRet};
use spin_hpu::dma::DmaEngine;
use spin_hpu::memory::{HostMemory, HpuMemory, Segv};
use spin_hpu::pool::HpuPool;
use spin_portals::ct::CtHandle;
use spin_portals::eq::{EventKind, FullEvent};
use spin_portals::ni::PortalsNi;
use spin_portals::types::{OpKind, PtlAckType, PtlHeader};
use spin_sim::engine::EventQueue;
use spin_sim::gantt::Gantt;
use spin_sim::time::Time;

/// Split-borrow view of one node for the packet path: the channel CAM and
/// the handler registry separately from the [`NodeCtx`] the handler
/// runtime mutates.
pub(crate) struct NodeSplit<'a> {
    /// The channel CAM (held apart so `&mut Channel` can coexist with
    /// handler execution).
    pub cam: &'a mut Cam<Channel>,
    /// Installed handler sets.
    pub handlers: &'a mut Vec<HandlerSet>,
    /// Everything a handler run touches.
    pub ctx: NodeCtx<'a>,
}

/// The per-node state the handler runtime and per-packet processing
/// mutate, borrowed field-by-field out of [`crate::world::Node`].
pub(crate) struct NodeCtx<'a> {
    /// This node's rank.
    pub n: u32,
    /// Portals matching state (header match, PT disable on refusal).
    pub ni: &'a mut PortalsNi,
    /// HPU cores and execution contexts.
    pub pool: &'a mut HpuPool,
    /// NIC↔host DMA engine.
    pub dma: &'a mut DmaEngine,
    /// HPU shared-memory allocations.
    pub hpu_mems: &'a mut [HpuMemory],
    /// Shared zero-length scratch for stateless handlers.
    pub scratch: &'a mut HpuMemory,
    /// NIC counters.
    pub stats: &'a mut NicStats,
    /// Flow-control recovery state (drain scheduling on the packet path).
    pub recovery: &'a mut RecoveryManager,
    /// Host DRAM.
    pub mem: &'a mut HostMemory,
    /// Gantt recorder.
    pub gantt: &'a mut Gantt,
    /// §4.1 deschedule-on-DMA option.
    pub yield_on_dma: bool,
    /// Network MTU (max handler put payload).
    pub mtu: usize,
    /// Event-queue → host dispatch latency.
    pub dispatch_latency: Time,
}

/// Why a target refuses a message (§3.2): one row of the module table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// No ME matched the header, so the NI disabled the entry.
    NoMatch,
    /// The entry was already disabled.
    Disabled,
    /// The channel CAM had no free slot.
    CamFull,
    /// No HPU context was free, for the header handler or for a payload
    /// handler part-way through the message.
    NoContext,
    /// The target is crashed: the fabric answers for it.
    Crashed,
}

/// When a refusal NACKs the initiator (with recovery on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NackAt {
    /// With the refusal: a refused header.
    Refusal,
    /// At the teardown of the message's channel, after its completion
    /// handler ran: a message refused part-way.
    Teardown,
    /// Never: a packet no initiator retransmits alone (a follow-on, a
    /// reply or an ack reaching a crashed target).
    Never,
}

/// The `Copy` slice of a [`Channel`] a handler run needs: reading these
/// out is free, so no channel clone happens on the per-packet path.
#[derive(Clone, Copy)]
pub(crate) struct HandlerEnv {
    /// HPU shared-memory handle (None = scratch).
    pub hpu_mem: Option<u32>,
    /// ME region (absolute base, len) — the handler sandbox.
    pub me_start: usize,
    /// ME region length.
    pub me_len: usize,
    /// Auxiliary handler host region.
    pub handler_region: (usize, usize),
    /// Message id (Gantt labels, rendezvous completion keys).
    pub src_msg_id: u64,
    /// Portal table entry (handler-generated puts).
    pub pt: u32,
}

impl HandlerEnv {
    /// Extract the handler environment from a channel.
    pub fn of(ch: &Channel) -> Self {
        HandlerEnv {
            hpu_mem: ch.hpu_mem,
            me_start: ch.me_start,
            me_len: ch.me_len,
            handler_region: ch.handler_region,
            src_msg_id: ch.src_msg_id,
            pt: ch.pt,
        }
    }
}

impl NodeCtx<'_> {
    /// Deliver a full event to this node's program after the host dispatch
    /// latency.
    pub fn deliver_event(&self, q: &mut EventQueue<Ev>, at: Time, ev: FullEvent) {
        q.post_at(
            at + self.dispatch_latency,
            Ev::HostDeliver(self.n, Box::new(ev)),
        );
    }

    /// Refuse the message `msg_id` that `hdr` heads at time `t` (§3.2),
    /// as the row of the module table for `why` says: count it, and when
    /// the cause disables the entry, disable it, schedule its drain poll
    /// and post `PtDisabled` to the host. `nack` says when the initiator is
    /// NACKed: with this call, at the teardown of the message's channel
    /// (which then calls [`NodeCtx::nack`]), or never.
    pub fn refuse(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: Time,
        why: Refusal,
        nack: NackAt,
        hdr: &PtlHeader,
        msg_id: u64,
    ) {
        let disables = match why {
            Refusal::Disabled => {
                self.stats.packets_dropped += 1;
                false
            }
            Refusal::Crashed => {
                self.stats.packets_dropped += 1;
                self.stats.drops_on_dead_link += 1;
                false
            }
            Refusal::NoMatch | Refusal::CamFull | Refusal::NoContext => {
                self.stats.flow_control_events += 1;
                true
            }
        };
        if disables {
            self.ni.pt_disable(hdr.pt_index);
            if let Some(at) = self.recovery.note_pt_disabled(t, hdr.pt_index) {
                q.post_at(at, Ev::DrainCheck(self.n, hdr.pt_index));
            }
        }
        if nack == NackAt::Refusal {
            self.nack(q, t, hdr, msg_id);
        }
        if disables {
            let ev = FullEvent::simple(EventKind::PtDisabled, hdr.source_id, hdr.match_bits, 0);
            self.deliver_event(q, t, ev);
        }
    }

    /// With recovery on, NACK the refused message `msg_id` back to its
    /// initiator at `t`, so it queues the message for retransmission.
    pub fn nack(&mut self, q: &mut EventQueue<Ev>, t: Time, hdr: &PtlHeader, msg_id: u64) {
        if self.recovery.enabled() {
            self.stats.nacks_sent += 1;
            let (to, pt) = (hdr.source_id, hdr.pt_index);
            post_ack(q, t, self.n, to, pt, msg_id, PtlAckType::PtDisabled);
        }
    }

    /// Report a handler error (only the first per message, Appendix B.3).
    /// Mutates the channel in place.
    pub fn report_handler_error(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: Time,
        ch: &mut Channel,
        segv: bool,
    ) {
        if ch.failed {
            return;
        }
        ch.failed = true;
        self.stats.handler_errors += 1;
        let mut ev = FullEvent::simple(
            EventKind::HandlerError,
            ch.header.source_id,
            ch.header.match_bits,
            0,
        );
        ev.ni_fail = if segv { 2 } else { 1 };
        ev.user_ptr = ch.user_ptr;
        self.deliver_event(q, t, ev);
    }

    /// Execute one handler on `core`: set up the sandboxed [`HandlerCtx`]
    /// (with the packet buffer of a payload run, so the handler's puts and
    /// DMA writes can share its bytes), run the body, charge HPU occupancy,
    /// record the Gantt span (lane and label built only when recording),
    /// and feed the handler's side effects back into the event queue.
    #[allow(clippy::too_many_arguments)]
    pub fn run_common<R>(
        &mut self,
        q: &mut EventQueue<Ev>,
        core: usize,
        ready: Time,
        env: HandlerEnv,
        packet: Option<&Bytes>,
        kind: &'static str,
        body: impl FnOnce(&mut HandlerCtx<'_>, &mut HpuMemory) -> Result<R, Segv>,
    ) -> (Time, Result<R, Segv>) {
        let num_hpus = self.pool.num_hpus();
        let start = self.pool.core_next_free(core).max(ready);
        let state: &mut HpuMemory = match env.hpu_mem {
            Some(h) => &mut self.hpu_mems[h as usize],
            None => self.scratch,
        };
        let mut ctx = HandlerCtx::new(
            start,
            core,
            num_hpus,
            self.dma,
            self.mem,
            (env.me_start, env.me_len),
            env.handler_region,
            self.mtu,
        );
        if let Some(packet) = packet {
            ctx.set_packet(packet);
        }
        let ret = body(&mut ctx, state);
        let run = ctx.finish();
        let occupancy = if self.yield_on_dma {
            run.compute
        } else {
            run.duration
        };
        self.pool.schedule(core, ready, occupancy, run.duration);
        let end = start + run.duration;
        self.gantt
            .record(self.n, &Gantt::hpu_lane(core), start, end, 'H', || {
                format!("{kind} m{}", env.src_msg_id)
            });
        // Feed handler side effects back into the event queue.
        let n = self.n;
        for (t, action) in run.actions {
            apply_action(q, t, n, env, action);
        }
        (end, ret)
    }

    /// Run the header handler (exactly once per message, §3.2).
    pub fn run_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        core: usize,
        ready: Time,
        ch: &Channel,
        hs: &HandlerSet,
    ) -> (Time, Result<HeaderRet, Segv>) {
        self.stats.header_runs += 1;
        let header = std::sync::Arc::clone(&ch.header);
        let env = HandlerEnv::of(ch);
        self.run_common(q, core, ready, env, None, "hdr", |ctx, state| {
            let args = HeaderArgs { header: &header };
            hs.header(ctx, &args, state)
        })
    }

    /// Run a payload handler for one packet's data.
    #[allow(clippy::too_many_arguments)]
    pub fn run_payload(
        &mut self,
        q: &mut EventQueue<Ev>,
        core: usize,
        ready: Time,
        env: HandlerEnv,
        hs: &HandlerSet,
        data: &Bytes,
        data_off: usize,
        msg_length: usize,
    ) -> (Time, Result<PayloadRet, Segv>) {
        self.stats.payload_runs += 1;
        self.run_common(q, core, ready, env, Some(data), "pay", |ctx, state| {
            let args = PayloadArgs {
                data,
                offset: data_off,
                msg_length,
            };
            hs.payload(ctx, &args, state)
        })
    }

    /// Run the completion handler. The completion stage always gets a
    /// context (it is part of message teardown); when admission is tight
    /// it is forced onto core 0 — counted in
    /// [`NicStats::forced_completion_admissions`] so context exhaustion at
    /// completion time is observable.
    pub fn run_completion(
        &mut self,
        q: &mut EventQueue<Ev>,
        ready: Time,
        ch: &Channel,
        hs: &HandlerSet,
    ) -> (Time, Result<CompletionRet, Segv>) {
        self.stats.completion_runs += 1;
        let core = match self.pool.admit(ready) {
            Some(core) => core,
            None => {
                self.stats.forced_completion_admissions += 1;
                0
            }
        };
        let info = CompletionInfo {
            dropped_bytes: ch.dropped_bytes,
            flow_control_triggered: ch.flow_control,
        };
        let env = HandlerEnv::of(ch);
        self.run_common(q, core, ready, env, None, "cpl", |ctx, state| {
            hs.completion(ctx, &info, state)
        })
    }
}

/// Turn a handler side effect into the outgoing message / counter event it
/// stands for.
pub(crate) fn apply_action(
    q: &mut EventQueue<Ev>,
    t: Time,
    n: u32,
    env: HandlerEnv,
    action: OutAction,
) {
    let msg = match action {
        OutAction::PutFromDevice {
            payload,
            target,
            match_bits,
            remote_offset,
            hdr_data,
            user_hdr,
        } => OutMsg {
            remote_offset,
            hdr_data,
            user_hdr,
            ..OutMsg::put_inline(n, target, env.pt, match_bits, payload)
        },
        OutAction::PutFromHost {
            me_offset,
            length,
            target,
            match_bits,
            remote_offset,
            hdr_data,
            user_hdr,
        } => {
            let payload = PayloadSpec::HostRegion {
                offset: env.me_start + me_offset,
                len: length,
                charge_dma: true,
            };
            OutMsg {
                remote_offset,
                hdr_data,
                user_hdr,
                ..OutMsg::new(n, target, OpKind::Put, env.pt, match_bits, payload)
            }
        }
        OutAction::Get {
            me_offset,
            length,
            target,
            match_bits,
            remote_offset,
        } => {
            let reply_dest = env.me_start + me_offset;
            OutMsg {
                notify: Notify::Channel(env.src_msg_id),
                ..OutMsg::get(
                    n,
                    target,
                    env.pt,
                    match_bits,
                    remote_offset,
                    length,
                    reply_dest,
                )
            }
        }
        OutAction::CtInc { ct, by } => return q.post_at(t, Ev::CtInc(n, CtHandle(ct), by)),
        OutAction::CtSet { ct, value } => return q.post_at(t, Ev::CtSet(n, CtHandle(ct), value)),
    };
    q.post_at(t, Ev::NicInject(n, Box::new(msg)));
}
