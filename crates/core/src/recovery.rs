//! Closed-loop Portals flow-control recovery (§3.2).
//!
//! Portals semantics: a portal table entry that runs out of resources (no
//! matching ME, no HPU execution contexts, CAM exhaustion) is **disabled**
//! and every message addressed to it is dropped until the ULP drains,
//! recovers, and re-enables it. The seed modelled only the disable half;
//! this module closes the loop:
//!
//! * **Target side** — every dropped Put is NACKed back to the initiator
//!   with [`PtlAckType::PtDisabled`], and a *drain-and-re-enable* policy
//!   polls the NIC ([`Ev::DrainCheck`](crate::world::Ev)) until (a) no
//!   channel of the disabled PT is still assembling in the CAM, (b) an HPU
//!   execution context is free, and (c) the PT has a posted ME — then
//!   re-enables the entry automatically (counted in
//!   [`NicStats`](crate::nic::NicStats), visible on the `PT` Gantt lane).
//! * **Initiator side** — a per-`(peer, PT)` state machine
//!   ([`RecoveryManager`]) tracks every in-flight Put. On a NACK the
//!   message joins an ordered retransmit queue and the pair enters
//!   `Backoff`; after the (exponentially growing, capped) backoff a
//!   **probe** — the oldest queued message — is retransmitted. A probe that
//!   bounces doubles the backoff; a probe that is acked replays the whole
//!   queue in order and returns the pair to `Idle`. While a pair is
//!   recovering, *new* sends to it are held on the same queue so per-pair
//!   ordering survives the episode.
//!
//! Delivery confirmation: with recovery enabled the target sends a
//! transport-level positive ack for every consumed Put (piggybacked on the
//! ULP ack when one was requested), so the initiator can retire in-flight
//! state. A retransmitted `HostRegion` payload re-reads the source region
//! at replay time (Portals MD semantics: the buffer belongs to the NIC
//! until the ack). Gets ride the same machinery — a bounced Get is NACKed,
//! queued, and probed/replayed like a Put — but their delivery
//! confirmation is the `Reply` itself: its arrival retires the in-flight
//! entry and releases any queued replay, so the initiator-side
//! `pending_sends` entry can no longer leak when a Get bounces off a
//! disabled PT.
//!
//! Retransmission is **message-level**: a mid-message flow-control episode
//! drops the whole message and replays it from scratch, so payload
//! handlers that ran for the aborted attempt's early packets run again on
//! the retransmit. Exactly-once holds for message *completion* (events,
//! acks, deposits — the aborted attempt delivers none of these); handlers
//! that mutate shared HPU state must keep their per-packet side effects
//! idempotent across attempts, as on real hardware (the completion handler
//! sees `flow_control_triggered` for the aborted attempt). Packet-level
//! resume is a filed follow-on (ROADMAP, "Selective retransmission").
//!
//! Everything here is deterministic: per-pair state transitions are driven
//! only by simulated time and message ids; no map iteration order leaks
//! into the schedule.

use crate::config::RecoveryConfig;
use crate::msg::{Notify, OutMsg, PayloadSpec};
use crate::world::{Ev, World};
use spin_portals::eq::{EventKind, FullEvent};
use spin_portals::types::{AckReq, OpKind, PtlAckType};
use spin_sim::engine::EventQueue;
use spin_sim::time::Time;
use std::collections::HashMap;

/// Sender-side recovery state of one `(peer, PT)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// No outstanding flow-control episode.
    Idle,
    /// A NACK was received; waiting out the backoff before probing.
    Backoff,
    /// The probe (oldest queued message) is in flight.
    Probing,
}

#[derive(Debug)]
struct PeerPt {
    state: PeerState,
    /// Backoff to apply when the *next* episode (or probe retry) starts.
    backoff: Time,
    /// Message ids awaiting replay, ascending (= original send order).
    queue: Vec<u64>,
    /// Message id of the in-flight probe (`state == Probing`).
    probe: u64,
    /// Consecutive probes that bounced (reset on a successful probe).
    failed_probes: u32,
}

impl PeerPt {
    fn new(initial_backoff: Time) -> Self {
        PeerPt {
            state: PeerState::Idle,
            backoff: initial_backoff,
            queue: Vec::new(),
            probe: 0,
            failed_probes: 0,
        }
    }
}

/// Verdict for an outgoing message entering the send path.
#[derive(Debug, PartialEq, Eq)]
pub enum SendStep {
    /// Transmit now.
    Transmit,
    /// The pair is recovering: queued for in-order replay, do not transmit.
    Hold,
}

/// Result of processing a `PtDisabled` NACK.
#[derive(Debug, PartialEq, Eq)]
pub enum NackStep {
    /// Entered (or re-entered) backoff: schedule a recovery timer at `.0`.
    Backoff(Time),
    /// Queued behind an episode already in progress.
    Queued,
    /// The message is not tracked (already delivered, or not recoverable).
    Stale,
    /// `max_probes` consecutive probes bounced: the pair gave up and
    /// dropped these queued messages (delivery failure — the target never
    /// re-enabled). Bounds the retry loop so a dead target cannot keep the
    /// simulation alive forever; the caller surfaces the failure to the
    /// ULP (`PTL_NI_UNDELIVERABLE`).
    Abandon(Vec<AbandonedSend>),
}

/// What the ULP needs to know about one abandoned message. Carried on
/// [`NackStep::Abandon`] from the recovery-tracked [`OutMsg`] itself, so
/// even a send that was *held* for the recovering pair (and therefore
/// never reached the wire or registered a pending-send entry) still
/// surfaces its delivery failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbandonedSend {
    /// Message id.
    pub msg_id: u64,
    /// Destination the message never reached.
    pub peer: u32,
    /// Match bits of the request.
    pub match_bits: u64,
    /// Payload (or requested, for Gets) length.
    pub length: usize,
    /// The completion notification the initiator asked for.
    pub notify: Notify,
}

/// Result of processing a positive transport ack.
#[derive(Debug, PartialEq, Eq)]
pub enum AckStep {
    /// The probe got through: replay these message ids, in order.
    Replay(Vec<u64>),
    /// An ordinary in-flight message was delivered.
    Delivered,
    /// Unknown message id (ULP-only ack, or duplicate).
    Untracked,
}

/// Per-NIC recovery state: the sender-side state machines plus the
/// receiver-side drain bookkeeping.
#[derive(Debug)]
pub struct RecoveryManager {
    config: Option<RecoveryConfig>,
    /// In-flight recoverable messages by id (payload kept for replay).
    inflight: HashMap<u64, OutMsg>,
    /// Sender-side per-`(peer, pt)` state.
    peers: HashMap<(u32, u32), PeerPt>,
    /// When each still-undelivered message was first NACKed.
    nacked_at: HashMap<u64, Time>,
    /// Messages that were NACKed at least once and eventually delivered.
    recovered: u64,
    /// Aggregate first-NACK → delivery latency of recovered messages.
    recovery_latency: Time,
    /// Messages abandoned after probe-budget exhaustion, by peer. Names
    /// the unreachable destinations in the report — under a fault plan,
    /// "which node was dead" is the question the aggregate
    /// `recovery_abandoned` count cannot answer.
    abandoned_by_peer: HashMap<u32, u64>,
    /// Receiver-side: PTs awaiting drain, with the time they disabled.
    drain: HashMap<u32, Time>,
}

impl RecoveryManager {
    /// A manager following `config` (`None` disables the subsystem).
    pub fn new(config: Option<RecoveryConfig>) -> Self {
        RecoveryManager {
            config,
            inflight: HashMap::new(),
            peers: HashMap::new(),
            nacked_at: HashMap::new(),
            recovered: 0,
            recovery_latency: Time::ZERO,
            abandoned_by_peer: HashMap::new(),
            drain: HashMap::new(),
        }
    }

    /// Tear down the volatile recovery state on a node crash
    /// ([`FaultKind::NodeCrash`](crate::fault::FaultKind)): in-flight
    /// tracking, per-peer episodes, and drain polls die with the NIC, but
    /// the *accounting* — recovered messages, recovery latency, per-peer
    /// abandonments — survives into the report like every other `NicStats`
    /// counter.
    pub fn crash_reset(&mut self) {
        self.inflight.clear();
        self.peers.clear();
        self.nacked_at.clear();
        self.drain.clear();
    }

    /// Whether the subsystem is active.
    pub fn enabled(&self) -> bool {
        self.config.is_some()
    }

    fn recoverable(op: OpKind) -> bool {
        // Gets are tracked too: a Get that bounces off a disabled PT is
        // NACKed like a Put and retransmitted by the same probe/replay
        // machinery; its Reply doubles as the delivery confirmation that
        // retires the in-flight entry (no separate transport ack).
        matches!(op, OpKind::Put | OpKind::Atomic(_) | OpKind::Get)
    }

    /// Whether `msg_id` is a tracked in-flight recoverable message. A
    /// probe/replay re-injection (`attempt > 0`) whose message is no
    /// longer tracked was abandoned after the replay was queued — the
    /// send path discards it instead of resurrecting a send whose
    /// delivery failure was already reported.
    pub fn is_tracked(&self, msg_id: u64) -> bool {
        self.inflight.contains_key(&msg_id)
    }

    /// The recovery state of a `(peer, pt)` pair (tests/introspection).
    pub fn peer_state(&self, peer: u32, pt: u32) -> PeerState {
        self.peers
            .get(&(peer, pt))
            .map(|p| p.state)
            .unwrap_or(PeerState::Idle)
    }

    /// Messages queued for replay to a pair (tests/introspection).
    pub fn queued(&self, peer: u32, pt: u32) -> usize {
        self.peers
            .get(&(peer, pt))
            .map(|p| p.queue.len())
            .unwrap_or(0)
    }

    /// Messages that were NACKed at least once and eventually delivered.
    pub fn recovered_messages(&self) -> u64 {
        self.recovered
    }

    /// Aggregate first-NACK → delivery latency (ns) of recovered messages:
    /// the sender-observable closed-loop recovery latency.
    pub fn recovery_latency_ns(&self) -> f64 {
        self.recovery_latency.ns()
    }

    /// Per-peer abandonment counts as `(peer, messages)`, ascending by
    /// peer — deterministic despite the backing map.
    pub fn abandoned_by_peer(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .abandoned_by_peer
            .iter()
            .map(|(&p, &c)| (p, c))
            .collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------- sender side

    /// A message (with its id already assigned) enters the send path.
    /// Tracks recoverable Puts and holds new sends to a recovering pair.
    /// Re-injections of already-tracked messages (probes, replays) always
    /// transmit.
    pub fn on_send(&mut self, msg: &OutMsg) -> SendStep {
        if self.config.is_none() || !Self::recoverable(msg.op) {
            return SendStep::Transmit;
        }
        if self.inflight.contains_key(&msg.msg_id) {
            return SendStep::Transmit; // probe or replay re-injection
        }
        self.inflight.insert(msg.msg_id, msg.clone());
        match self.peers.get_mut(&(msg.dst, msg.pt)) {
            Some(p) if p.state != PeerState::Idle => {
                insert_sorted(&mut p.queue, msg.msg_id);
                SendStep::Hold
            }
            _ => SendStep::Transmit,
        }
    }

    /// A `PtDisabled` NACK for `msg_id` arrived from `(peer, pt)` at `now`.
    pub fn on_nack(&mut self, now: Time, msg_id: u64, peer: u32, pt: u32) -> NackStep {
        let Some(cfg) = self.config else {
            return NackStep::Stale;
        };
        if !self.inflight.contains_key(&msg_id) {
            return NackStep::Stale;
        }
        self.nacked_at.entry(msg_id).or_insert(now);
        let p = self
            .peers
            .entry((peer, pt))
            .or_insert_with(|| PeerPt::new(cfg.backoff));
        insert_sorted(&mut p.queue, msg_id);
        match p.state {
            PeerState::Idle => {
                p.state = PeerState::Backoff;
                NackStep::Backoff(now + p.backoff)
            }
            PeerState::Probing if p.probe == msg_id => {
                p.failed_probes += 1;
                if p.failed_probes >= cfg.max_probes {
                    // The target never re-enabled within the retry budget:
                    // abandon the episode so a dead target cannot keep the
                    // simulation alive forever. The queued messages are
                    // delivery failures the caller surfaces to the ULP —
                    // reported from the tracked `OutMsg`s, so held sends
                    // that never transmitted are reported too.
                    let queue = std::mem::take(&mut p.queue);
                    let mut dropped = Vec::with_capacity(queue.len());
                    for id in queue {
                        if let Some(msg) = self.inflight.remove(&id) {
                            dropped.push(AbandonedSend {
                                msg_id: id,
                                peer: msg.dst,
                                match_bits: msg.match_bits,
                                length: msg.length(),
                                notify: msg.notify,
                            });
                        }
                        self.nacked_at.remove(&id);
                    }
                    *self.abandoned_by_peer.entry(peer).or_default() += dropped.len() as u64;
                    let p = self.peers.get_mut(&(peer, pt)).expect("entry exists");
                    p.state = PeerState::Idle;
                    p.backoff = cfg.backoff;
                    p.failed_probes = 0;
                    return NackStep::Abandon(dropped);
                }
                // The probe bounced: double the backoff and retry.
                p.backoff = (p.backoff * 2).min(cfg.max_backoff);
                p.state = PeerState::Backoff;
                NackStep::Backoff(now + p.backoff)
            }
            _ => NackStep::Queued,
        }
    }

    /// The backoff timer for `(peer, pt)` fired: returns the message id to
    /// retransmit as the probe, or `None` for a stale timer.
    pub fn on_timer(&mut self, peer: u32, pt: u32) -> Option<u64> {
        let p = self.peers.get_mut(&(peer, pt))?;
        if p.state != PeerState::Backoff {
            return None; // stale (episode resolved by other means)
        }
        if p.queue.is_empty() {
            p.state = PeerState::Idle;
            return None;
        }
        let probe = p.queue.remove(0);
        p.state = PeerState::Probing;
        p.probe = probe;
        Some(probe)
    }

    /// A positive transport ack for `msg_id` arrived at `now`. Retires the
    /// in-flight entry (charging the first-NACK → delivery latency when the
    /// message had bounced); if it acknowledges the probe of a recovering
    /// pair, the whole queue is drained for in-order replay and the pair
    /// returns to `Idle`.
    pub fn on_ack_ok(&mut self, now: Time, msg_id: u64) -> AckStep {
        let Some(cfg) = self.config else {
            return AckStep::Untracked;
        };
        let Some(msg) = self.inflight.remove(&msg_id) else {
            return AckStep::Untracked;
        };
        if let Some(first_nack) = self.nacked_at.remove(&msg_id) {
            self.recovered += 1;
            self.recovery_latency += now.saturating_sub(first_nack);
        }
        let Some(p) = self.peers.get_mut(&(msg.dst, msg.pt)) else {
            return AckStep::Delivered;
        };
        if p.state == PeerState::Probing && p.probe == msg_id {
            p.state = PeerState::Idle;
            p.backoff = cfg.backoff; // the target recovered: reset
            p.failed_probes = 0;
            return AckStep::Replay(std::mem::take(&mut p.queue));
        }
        AckStep::Delivered
    }

    /// Clone a tracked in-flight message for retransmission, bumping its
    /// attempt number so the receiver can discard stragglers of the
    /// previous attempt still in flight.
    pub fn replay_msg(&mut self, msg_id: u64) -> Option<OutMsg> {
        let msg = self.inflight.get_mut(&msg_id)?;
        msg.attempt += 1;
        Some(msg.clone())
    }

    // ----------------------------------------------------- receiver side

    /// The local PT `pt` was disabled at `now`. Returns the time the first
    /// drain check should run, or `None` if one is already pending (or the
    /// subsystem is off).
    pub fn note_pt_disabled(&mut self, now: Time, pt: u32) -> Option<Time> {
        let cfg = self.config?;
        if self.drain.contains_key(&pt) {
            return None;
        }
        self.drain.insert(pt, now);
        Some(now + cfg.drain_interval)
    }

    /// The drain check found `pt` ready (or already enabled): pop the
    /// pending record, returning when the PT disabled.
    pub fn drain_resolved(&mut self, pt: u32) -> Option<Time> {
        self.drain.remove(&pt)
    }

    /// Whether the re-enable guard has elapsed for `pt` (stragglers that
    /// were in flight at disable time have bounced by now).
    pub fn drain_guard_ok(&self, now: Time, pt: u32) -> bool {
        match (self.config, self.drain.get(&pt)) {
            (Some(cfg), Some(&at)) => now.saturating_sub(at) >= cfg.reenable_guard,
            _ => true,
        }
    }

    /// The next drain-poll time after `now`.
    pub fn next_drain_check(&self, now: Time) -> Time {
        now + self.config.map(|c| c.drain_interval).unwrap_or(Time::ZERO)
    }
}

fn insert_sorted<T: Ord>(queue: &mut Vec<T>, id: T) {
    match queue.binary_search(&id) {
        Ok(_) => {} // already queued (defensive: a message is NACKed once per attempt)
        Err(pos) => queue.insert(pos, id),
    }
}

/// Post a `PtDisabled` NACK from node `n` back to `to` for message
/// `msg_id` that bounced off portal table entry `pt`. The NACK is an
/// ordinary zero-payload ack packet, so it pays the normal send-path and
/// network costs.
pub(crate) fn post_nack(q: &mut EventQueue<Ev>, at: Time, n: u32, to: u32, pt: u32, msg_id: u64) {
    let msg = OutMsg {
        src: n,
        dst: to,
        op: OpKind::Ack,
        pt,
        match_bits: 0,
        remote_offset: 0,
        hdr_data: msg_id,
        user_hdr: Default::default(),
        payload: PayloadSpec::Inline(bytes::Bytes::new()),
        ack: AckReq::None,
        ack_type: PtlAckType::PtDisabled,
        reply_dest: 0,
        notify: Notify::None,
        msg_id: 0,
        attempt: 0,
        answers: msg_id,
        resume_from: 0,
    };
    q.post_at(at, Ev::NicInject(n, Box::new(msg)));
}

impl World {
    /// Handle a `PtDisabled` NACK at the initiator NIC: queue the message
    /// for retransmission and (re-)enter backoff as the state machine
    /// dictates.
    pub(crate) fn on_recovery_nack(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        peer: u32,
        pt: u32,
        msg_id: u64,
    ) {
        let nic = &mut self.nodes[n as usize].nic;
        nic.stats.recovery_nacks += 1;
        match nic.recovery.on_nack(now, msg_id, peer, pt) {
            NackStep::Backoff(until) => {
                nic.stats.recovery_backoffs += 1;
                self.gantt.record(n, "RECOV", now, until, 'b', || {
                    format!("backoff p{peer} pt{pt}")
                });
                q.post_at(until, Ev::RecoveryTimer(n, peer, pt));
            }
            NackStep::Abandon(dropped) => {
                nic.stats.recovery_abandoned += dropped.len() as u64;
                let count = dropped.len();
                self.gantt
                    .record(n, "RECOV", now, now + Time::from_ns(1), 'A', || {
                        format!("abandon p{peer} pt{pt} ({count} msgs)")
                    });
                // A probe/replay re-injection of an abandoned message may
                // still sit in the queue as a not-yet-dispatched
                // `NicInject` (posted at `now`): tombstone it so the
                // abandoned send cannot transmit after its delivery
                // failure is reported. Only retransmissions qualify
                // (`attempt > 0`) — first sends are never queued as
                // `NicInject` while tracked.
                q.cancel_where(|ev| match ev {
                    Ev::NicInject(node, m) => {
                        *node == n && m.attempt > 0 && dropped.iter().any(|a| a.msg_id == m.msg_id)
                    }
                    _ => false,
                });
                // Surface the delivery failure to the ULP
                // (`PTL_NI_UNDELIVERABLE`): one event per abandoned message
                // whose initiator asked for completion notification. The
                // event fields come from the recovery-tracked message, so a
                // send held for the recovering pair (never transmitted, no
                // pending-send entry) is reported like any other; the
                // pending-send entry, when one exists, is retired.
                for a in dropped {
                    self.nodes[n as usize].nic.pending_sends.remove(&a.msg_id);
                    if a.notify == crate::msg::Notify::Host {
                        let mut ev = FullEvent::simple(
                            EventKind::Undeliverable,
                            a.peer,
                            a.match_bits,
                            a.length,
                        );
                        ev.ni_fail = 1;
                        self.dispatch_event(q, now, n, ev);
                    }
                }
            }
            NackStep::Queued | NackStep::Stale => {}
        }
    }

    /// The sender-side backoff timer fired: retransmit the probe.
    pub(crate) fn on_recovery_timer(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        peer: u32,
        pt: u32,
    ) {
        let nic = &mut self.nodes[n as usize].nic;
        let Some(probe) = nic.recovery.on_timer(peer, pt) else {
            return;
        };
        let msg = nic.recovery.replay_msg(probe).expect("probe is in flight");
        nic.stats.recovery_probes += 1;
        nic.stats.recovery_retransmits += 1;
        self.gantt
            .record(n, "RECOV", now, now + Time::from_ns(1), 'p', || {
                format!("probe m{probe} p{peer} pt{pt}")
            });
        q.post_at(now, Ev::NicInject(n, Box::new(msg)));
    }

    /// The probe was acked: replay the queued messages, oldest first.
    pub(crate) fn replay_queue(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: Time,
        n: u32,
        ids: Vec<u64>,
    ) {
        for id in ids {
            let nic = &mut self.nodes[n as usize].nic;
            let Some(msg) = nic.recovery.replay_msg(id) else {
                continue;
            };
            nic.stats.recovery_retransmits += 1;
            q.post_at(now, Ev::NicInject(n, Box::new(msg)));
        }
    }

    /// Receiver-side drain poll for a disabled PT.
    ///
    /// A **NIC-managed** entry (some ME carries sPIN handlers) is
    /// re-enabled locally once the CAM has no channel of this PT still
    /// assembling, an HPU execution context is free, and the straggler
    /// guard has elapsed. A **ULP-managed** entry (plain Portals MEs) is
    /// the host's to recover — it must handle the `PtDisabled` event,
    /// repost matching state, and call `PtlPTEnable` — so the poll stops
    /// as soon as that ownership is clear.
    pub(crate) fn on_drain_check(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, pt: u32) {
        let nic = &mut self.nodes[n as usize].nic;
        if nic.ni.pt_enabled(pt) {
            // Enabled by other means (manual PtlPTEnable): stop polling.
            nic.recovery.drain_resolved(pt);
            return;
        }
        if nic.ni.me_count(pt) == 0 || !nic.ni.pt_spin_managed(pt) {
            // No handler ME: recovery belongs to the ULP (`PtlPTEnable`) —
            // stop polling but keep the disable timestamp so the manual
            // re-enable is charged to the episode (see `HostApi::pt_enable`).
            return;
        }
        let drained = nic.recovery.drain_guard_ok(now, pt)
            && nic.cam.values().all(|ch| ch.pt != pt)
            && nic.pool.has_free_context(now);
        if !drained {
            q.post_at(nic.recovery.next_drain_check(now), Ev::DrainCheck(n, pt));
            return;
        }
        nic.ni.pt_enable(pt);
        nic.stats.pt_reenables += 1;
        let disabled_at = nic.recovery.drain_resolved(pt).unwrap_or(now);
        nic.stats.pt_disabled_ns += (now - disabled_at).ns();
        self.gantt.record(n, "PT", disabled_at, now, 'x', || {
            format!("pt{pt} disabled")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn cfg() -> RecoveryConfig {
        RecoveryConfig {
            backoff: Time::from_us(1),
            max_backoff: Time::from_us(4),
            drain_interval: Time::from_ns(200),
            reenable_guard: Time::from_us(5),
            max_probes: 64,
        }
    }

    fn put(msg_id: u64, dst: u32, pt: u32) -> OutMsg {
        OutMsg {
            msg_id,
            pt,
            ..OutMsg::put_inline(0, dst, pt, 7, Bytes::from_static(b"x"))
        }
    }

    #[test]
    fn full_episode_idle_backoff_probe_replay_idle() {
        let mut m = RecoveryManager::new(Some(cfg()));
        for id in 1..=3u64 {
            assert_eq!(m.on_send(&put(id, 9, 0)), SendStep::Transmit);
        }
        assert_eq!(m.peer_state(9, 0), PeerState::Idle);
        // All three bounce; only the first NACK schedules a timer.
        let t0 = Time::from_us(10);
        assert_eq!(
            m.on_nack(t0, 1, 9, 0),
            NackStep::Backoff(t0 + Time::from_us(1))
        );
        assert_eq!(m.on_nack(t0, 2, 9, 0), NackStep::Queued);
        assert_eq!(m.on_nack(t0, 3, 9, 0), NackStep::Queued);
        assert_eq!(m.peer_state(9, 0), PeerState::Backoff);
        assert_eq!(m.queued(9, 0), 3);
        // Timer: probe = oldest message.
        assert_eq!(m.on_timer(9, 0), Some(1));
        assert_eq!(m.peer_state(9, 0), PeerState::Probing);
        // Probe acked: remaining queue replays in order, pair idles.
        assert_eq!(m.on_ack_ok(Time::ZERO, 1), AckStep::Replay(vec![2, 3]));
        assert_eq!(m.peer_state(9, 0), PeerState::Idle);
        assert_eq!(m.queued(9, 0), 0);
        // Replay re-injections transmit (already tracked), then ack out.
        assert_eq!(m.on_send(&put(2, 9, 0)), SendStep::Transmit);
        assert_eq!(m.on_ack_ok(Time::ZERO, 2), AckStep::Delivered);
        assert_eq!(m.on_ack_ok(Time::ZERO, 3), AckStep::Delivered);
        assert_eq!(m.on_ack_ok(Time::ZERO, 3), AckStep::Untracked);
    }

    #[test]
    fn failed_probe_doubles_backoff_up_to_cap() {
        let mut m = RecoveryManager::new(Some(cfg()));
        m.on_send(&put(1, 4, 2));
        let t = Time::from_us(100);
        assert_eq!(
            m.on_nack(t, 1, 4, 2),
            NackStep::Backoff(t + Time::from_us(1))
        );
        for expect_us in [2u64, 4, 4, 4] {
            assert_eq!(m.on_timer(4, 2), Some(1));
            // The probe bounces again: backoff doubles, clamped at 4 us.
            assert_eq!(
                m.on_nack(t, 1, 4, 2),
                NackStep::Backoff(t + Time::from_us(expect_us))
            );
        }
        // A successful probe resets the backoff for the next episode.
        assert_eq!(m.on_timer(4, 2), Some(1));
        assert_eq!(m.on_ack_ok(Time::ZERO, 1), AckStep::Replay(vec![]));
        m.on_send(&put(2, 4, 2));
        assert_eq!(
            m.on_nack(t, 2, 4, 2),
            NackStep::Backoff(t + Time::from_us(1))
        );
    }

    #[test]
    fn new_sends_to_recovering_pair_are_held_in_order() {
        let mut m = RecoveryManager::new(Some(cfg()));
        m.on_send(&put(5, 1, 0));
        m.on_nack(Time::ZERO, 5, 1, 0);
        // New traffic to the same pair queues behind the episode...
        assert_eq!(m.on_send(&put(6, 1, 0)), SendStep::Hold);
        assert_eq!(m.on_send(&put(7, 1, 0)), SendStep::Hold);
        // ...but other pairs are unaffected.
        assert_eq!(m.on_send(&put(8, 2, 0)), SendStep::Transmit);
        assert_eq!(m.on_send(&put(9, 1, 3)), SendStep::Transmit);
        assert_eq!(m.on_timer(1, 0), Some(5));
        assert_eq!(m.on_ack_ok(Time::ZERO, 5), AckStep::Replay(vec![6, 7]));
    }

    #[test]
    fn retransmits_bump_the_attempt_number() {
        let mut m = RecoveryManager::new(Some(cfg()));
        m.on_send(&put(1, 9, 0));
        m.on_nack(Time::ZERO, 1, 9, 0);
        assert_eq!(m.on_timer(9, 0), Some(1));
        assert_eq!(m.replay_msg(1).unwrap().attempt, 1);
        // A second retransmit (probe bounced, re-probed) bumps again, so
        // the receiver can tell each attempt's packets apart.
        assert_eq!(m.replay_msg(1).unwrap().attempt, 2);
    }

    #[test]
    fn exhausted_probe_budget_abandons_the_episode() {
        let mut m = RecoveryManager::new(Some(RecoveryConfig {
            max_probes: 3,
            ..cfg()
        }));
        for id in 1..=3u64 {
            m.on_send(&put(id, 2, 0));
        }
        let t = Time::from_us(1);
        m.on_nack(t, 1, 2, 0);
        m.on_nack(t, 2, 2, 0);
        m.on_nack(t, 3, 2, 0);
        // Probes 1 and 2 bounce and re-enter backoff; the 3rd bounce
        // exhausts the budget: all queued messages (the probe re-queued by
        // its own NACK included) are dropped and the pair idles.
        assert_eq!(m.on_timer(2, 0), Some(1));
        assert!(matches!(m.on_nack(t, 1, 2, 0), NackStep::Backoff(_)));
        assert_eq!(m.on_timer(2, 0), Some(1));
        assert!(matches!(m.on_nack(t, 1, 2, 0), NackStep::Backoff(_)));
        assert_eq!(m.on_timer(2, 0), Some(1));
        match m.on_nack(t, 1, 2, 0) {
            NackStep::Abandon(d) => {
                assert_eq!(d.iter().map(|a| a.msg_id).collect::<Vec<_>>(), [1, 2, 3]);
                assert!(d.iter().all(|a| a.peer == 2));
            }
            other => panic!("expected Abandon, got {other:?}"),
        }
        assert_eq!(m.peer_state(2, 0), PeerState::Idle);
        assert_eq!(m.queued(2, 0), 0);
        // The dropped messages are fully untracked now.
        assert_eq!(m.on_ack_ok(t, 1), AckStep::Untracked);
        assert_eq!(m.on_ack_ok(t, 2), AckStep::Untracked);
        assert_eq!(m.on_ack_ok(t, 3), AckStep::Untracked);
    }

    #[test]
    fn abandon_reports_held_never_transmitted_sends() {
        // A send held for a recovering pair never transmits (and never
        // registers a pending-send entry); if the episode is abandoned it
        // must still be reported so the ULP sees `Undeliverable`.
        let mut m = RecoveryManager::new(Some(RecoveryConfig {
            max_probes: 1,
            ..cfg()
        }));
        m.on_send(&put(1, 2, 0));
        let t = Time::from_us(1);
        m.on_nack(t, 1, 2, 0);
        // Held behind the episode: a Get with host notification.
        let held = OutMsg {
            msg_id: 2,
            ..OutMsg::get(0, 2, 0, 9, 0, 128, 0x100)
        };
        assert_eq!(m.on_send(&held), SendStep::Hold);
        assert_eq!(m.on_timer(2, 0), Some(1));
        match m.on_nack(t, 1, 2, 0) {
            NackStep::Abandon(d) => {
                assert_eq!(d.len(), 2);
                assert_eq!(d[1].msg_id, 2);
                assert_eq!(d[1].notify, Notify::Host);
                assert_eq!(d[1].match_bits, 9);
                assert_eq!(d[1].length, 128);
            }
            other => panic!("expected Abandon, got {other:?}"),
        }
    }

    #[test]
    fn gets_are_tracked_and_replayed_like_puts() {
        // ROADMAP follow-on (fixed here): a Get bouncing off a disabled PT
        // used to be invisible to the retransmit machinery, leaking its
        // initiator-side pending-send entry. It now enters the same state
        // machine; the Reply plays the role of the transport ack.
        let mut m = RecoveryManager::new(Some(cfg()));
        let get = OutMsg {
            msg_id: 1,
            ..OutMsg::get(0, 9, 0, 7, 0, 64, 0x100)
        };
        assert_eq!(m.on_send(&get), SendStep::Transmit);
        let t = Time::from_us(5);
        assert_eq!(
            m.on_nack(t, 1, 9, 0),
            NackStep::Backoff(t + Time::from_us(1))
        );
        // New traffic to the recovering pair queues behind the Get.
        assert_eq!(m.on_send(&put(2, 9, 0)), SendStep::Hold);
        assert_eq!(m.on_timer(9, 0), Some(1));
        assert_eq!(m.replay_msg(1).unwrap().attempt, 1);
        // The Reply arriving confirms the probe: queue replays, pair idles.
        assert_eq!(
            m.on_ack_ok(t + Time::from_us(2), 1),
            AckStep::Replay(vec![2])
        );
        assert_eq!(m.peer_state(9, 0), PeerState::Idle);
        assert_eq!(m.recovered_messages(), 1);
    }

    #[test]
    fn stale_nacks_and_timers_are_ignored() {
        let mut m = RecoveryManager::new(Some(cfg()));
        assert_eq!(m.on_nack(Time::ZERO, 42, 0, 0), NackStep::Stale);
        assert_eq!(m.on_timer(0, 0), None);
        m.on_send(&put(1, 0, 0));
        m.on_ack_ok(Time::ZERO, 1);
        // NACK after delivery (out-of-order network): stale, no episode.
        assert_eq!(m.on_nack(Time::ZERO, 1, 0, 0), NackStep::Stale);
        assert_eq!(m.peer_state(0, 0), PeerState::Idle);
    }

    #[test]
    fn disabled_subsystem_is_inert() {
        let mut m = RecoveryManager::new(None);
        assert_eq!(m.on_send(&put(1, 0, 0)), SendStep::Transmit);
        assert_eq!(m.on_nack(Time::ZERO, 1, 0, 0), NackStep::Stale);
        assert_eq!(m.on_ack_ok(Time::ZERO, 1), AckStep::Untracked);
        assert_eq!(m.note_pt_disabled(Time::ZERO, 0), None);
    }

    #[test]
    fn abandon_tombstones_queued_replays_of_dropped_messages() {
        // PR 4 follow-on: a replay `NicInject` already queued when its
        // message is abandoned must not dispatch — the tombstone in the
        // Abandon arm removes it from the event queue.
        use crate::config::{MachineConfig, NicKind};
        let mut config = MachineConfig::paper(NicKind::Discrete).with_recovery();
        config.recovery.as_mut().unwrap().max_probes = 1;
        let mut world = World::new(config, 2);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let msg = OutMsg {
            msg_id: 42,
            ..OutMsg::put_inline(0, 1, 0, 7, Bytes::from_static(b"x"))
        };
        assert_eq!(
            world.nodes[0].nic.recovery.on_send(&msg),
            crate::recovery::SendStep::Transmit
        );
        // First NACK: backoff, a RecoveryTimer is queued.
        let t = Time::from_us(1);
        world.on_recovery_nack(&mut q, t, 0, 1, 0, 42);
        assert_eq!(q.pending(), 1);
        // The timer fires: the probe replay posts a NicInject (attempt 1).
        world.on_recovery_timer(&mut q, t + Time::from_us(1), 0, 1, 0);
        assert_eq!(q.pending(), 2);
        assert!(world.nodes[0].nic.recovery.is_tracked(42));
        // The probe bounces; max_probes = 1 abandons the episode. The
        // queued replay must be tombstoned, not left to dispatch.
        world.on_recovery_nack(&mut q, t + Time::from_us(2), 0, 1, 0, 42);
        assert!(!world.nodes[0].nic.recovery.is_tracked(42));
        assert_eq!(world.nodes[0].nic.stats.recovery_abandoned, 1);
        let mut injects = 0;
        while let Some((_, ev)) = q.pop_next() {
            if matches!(ev, Ev::NicInject(..)) {
                injects += 1;
            }
        }
        assert_eq!(injects, 0, "abandoned replay dispatched");
    }

    #[test]
    fn ghost_replay_injections_are_discarded() {
        // Defense in depth for the same hazard: an `attempt > 0`
        // re-injection whose message is no longer recovery-tracked is
        // dropped at the top of the send path (covers the sharded engine,
        // whose scratch queues the tombstone cannot reach).
        use crate::config::{MachineConfig, NicKind};
        let config = MachineConfig::paper(NicKind::Discrete).with_recovery();
        let mut world = World::new(config, 2);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let ghost = OutMsg {
            msg_id: 7,
            attempt: 1,
            ..OutMsg::put_inline(0, 1, 0, 7, Bytes::from_static(b"x"))
        };
        world.inject(&mut q, Time::ZERO, 0, ghost);
        assert_eq!(q.pending(), 0, "ghost replay reached the wire");
        assert_eq!(world.network.packets_sent(), 0);
        assert!(world.nodes[0].nic.pending_sends.is_empty());
    }

    #[test]
    fn drain_bookkeeping_dedupes_and_times() {
        let mut m = RecoveryManager::new(Some(cfg()));
        let t = Time::from_us(3);
        assert_eq!(m.note_pt_disabled(t, 1), Some(t + Time::from_ns(200)));
        // A second disable of the same PT while pending: no new poll chain.
        assert_eq!(m.note_pt_disabled(t + Time::from_us(1), 1), None);
        assert_eq!(m.drain_resolved(1), Some(t));
        assert_eq!(m.drain_resolved(1), None);
    }
}
