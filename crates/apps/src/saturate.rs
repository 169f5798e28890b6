//! Saturation / incast overload workload for the closed-loop flow-control
//! recovery subsystem (§3.2).
//!
//! `senders` ranks overwhelm one receiver whose per-message service
//! capacity is deliberately scarce: one host core (RDMA) or one HPU core
//! with few execution contexts (sPIN). Past the service rate the
//! receiver's portal table entry disables (`PtDisabled`); without recovery
//! every flow-controlled message is lost and the run under-delivers. With
//! [`MachineConfig::with_recovery`] the full Portals handshake runs —
//! NACK → sender backoff → probe → in-order replay → automatic
//! drain-and-re-enable — and every message completes exactly once, in
//! order, at a goodput pinned near the service capacity.
//!
//! The two transports drain differently, which is the figure's point:
//!
//! * **RDMA** — messages land in `USE_ONCE` MEs; the host consumes each
//!   completion (per-message service time on the CPU) and reposts an ME.
//!   The PT can only re-enable once the host has worked through its event
//!   backlog and reposted — recovery latency is host-bound.
//! * **sPIN** — a persistent handler ME does the same per-message work on
//!   the HPU; draining means letting in-flight handlers finish, so the PT
//!   re-enables NIC-locally without any host involvement.

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{Report, SimBuilder, SimOutput};
use spin_hpu::ctx::{CompletionRet, HeaderRet, MemRegion, PayloadRet};
use spin_hpu::pool::HpuConfig;
use spin_portals::eq::{EventKind, FullEvent};
use spin_sim::time::Time;

/// Receiver transport variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturateMode {
    /// Host-consumed `USE_ONCE` MEs, reposted after per-message CPU work.
    Rdma,
    /// Persistent sPIN ME; per-message work runs in payload handlers.
    Spin,
}

impl SaturateMode {
    /// Both variants.
    pub const ALL: [SaturateMode; 2] = [SaturateMode::Rdma, SaturateMode::Spin];

    /// Series label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SaturateMode::Rdma => "RDMA",
            SaturateMode::Spin => "sPIN",
        }
    }
}

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct SaturateParams {
    /// Number of sending ranks (receiver is rank 0).
    pub senders: u32,
    /// Messages per sender.
    pub messages: u32,
    /// Bytes per message.
    pub bytes: usize,
    /// Per-sender injection interval (offered load knob).
    pub interval: Time,
    /// Per-message service time at the receiver (CPU or HPU).
    pub service: Time,
}

impl Default for SaturateParams {
    fn default() -> Self {
        SaturateParams {
            senders: 3,
            messages: 8,
            bytes: 8192,
            interval: Time::from_us(2),
            service: Time::from_us(2),
        }
    }
}

impl SaturateParams {
    /// Aggregate offered load in Gbit/s.
    pub fn offered_gbps(&self) -> f64 {
        self.senders as f64 * self.bytes as f64 * 8.0 / self.interval.ns()
    }
}

/// What one saturation run produced.
#[derive(Debug, Clone)]
pub struct SaturateOutcome {
    /// Messages injected by all senders.
    pub sent: u64,
    /// Messages that completed at the receiver (unique `(sender, seq)`).
    pub completed: u64,
    /// Completions seen more than once (must stay 0).
    pub duplicates: u64,
    /// Whether every sender's messages completed in increasing sequence.
    pub in_order: bool,
    /// Aggregate offered load (Gbit/s).
    pub offered_gbps: f64,
    /// Delivered goodput (Gbit/s) over the span to the last completion.
    pub goodput_gbps: f64,
    /// Flow-control events at the receiver.
    pub flow_events: u64,
    /// `PtDisabled` NACKs the receiver sent.
    pub nacks: u64,
    /// Messages retransmitted by the senders (probes + replays).
    pub retransmits: u64,
    /// New sends held in order while a pair recovered.
    pub held: u64,
    /// Automatic PT re-enables at the receiver.
    pub reenables: u64,
    /// Messages that were NACKed at least once and eventually delivered.
    pub recovered: u64,
    /// Mean first-NACK → delivery latency (µs) of recovered messages: the
    /// sender-observable closed-loop recovery latency. 0 when nothing
    /// needed recovering.
    pub recovery_latency_us: f64,
    /// Mean time (µs) the receiver PT stayed disabled per episode.
    pub disabled_us: f64,
    /// Simulated end time (µs).
    pub end_us: f64,
}

const PT: u32 = 0;
const TAG: u64 = 7;
const SRC_OFF: usize = 0x1000;
const RECV_BASE: usize = 0x10_000;
/// `USE_ONCE` MEs the RDMA receiver keeps posted.
const RDMA_SLOTS: usize = 8;

struct Sender {
    messages: u32,
    bytes: usize,
    interval: Time,
    seq: u64,
}

impl Sender {
    fn send_one(&mut self, api: &mut HostApi<'_>) {
        api.put(PutArgs::from_host(0, PT, TAG, SRC_OFF, self.bytes).with_hdr_data(self.seq));
        self.seq += 1;
        if self.seq < self.messages as u64 {
            api.set_timer(self.interval, self.seq);
        }
    }
}

impl HostProgram for Sender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(SRC_OFF, &crate::pattern(self.bytes, 37, 251));
        self.send_one(api);
    }

    fn on_timer(&mut self, _token: u64, api: &mut HostApi<'_>) {
        self.send_one(api);
    }
}

/// Timer tokens of the RDMA receiver.
const TOKEN_REPOST: u64 = 0;
const TOKEN_ENABLE: u64 = 1;

/// Host-bound receiver: per-message CPU work, repost the consumed ME, and
/// ULP-managed flow-control recovery — after `PtDisabled` the host works
/// through its event backlog, lets the reposts land, and calls
/// `PtlPTEnable` (the Portals recovery protocol for plain MEs).
struct RdmaReceiver {
    bytes: usize,
    service: Time,
}

impl RdmaReceiver {
    fn post_slot(&self, api: &mut HostApi<'_>, slot: usize) {
        let region = (RECV_BASE + slot * self.bytes, self.bytes.max(1));
        api.me_append(MeSpec::recv(PT, TAG, region).once());
    }
}

impl HostProgram for RdmaReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        for slot in 0..RDMA_SLOTS {
            self.post_slot(api, slot);
        }
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        match ev.kind {
            EventKind::Put => {
                api.mark(format!("got-{}-{}", ev.peer, ev.hdr_data));
                api.compute(self.service);
                // One ME consumed, one reposted — but only once the core has
                // worked through the backlog: the zero-delay timer fires at
                // the advanced cursor, so the repost takes effect after the
                // per-message compute (an immediate `me_append` here would
                // apply at event-delivery time and the receiver would never
                // actually run dry).
                api.set_timer(Time::ZERO, TOKEN_REPOST);
            }
            EventKind::PtDisabled => {
                // ULP recovery: sync with the core's pending compute (the
                // zero-work reservation lands after everything already
                // queued), then re-enable once the reposts are in.
                api.compute(Time::ZERO);
                api.set_timer(Time::ZERO, TOKEN_ENABLE);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        match token {
            TOKEN_REPOST => self.post_slot(api, 0),
            _ => api.pt_enable(PT),
        }
    }
}

/// NIC-bound receiver: the same per-message work, split across the payload
/// handlers of a persistent sPIN ME.
struct SpinReceiver {
    bytes: usize,
    service: Time,
}

impl HostProgram for SpinReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let mtu = api.config().net.mtu;
        let packets = self.bytes.div_ceil(mtu).max(1) as u64;
        // 2.5 GHz HPU: the whole-message handler work equals `service`.
        let cycles_per_packet = (self.service.ns() * 2.5) as u64 / packets;
        let handlers = FnHandlers::new()
            .on_header(|ctx, _args, _state| {
                ctx.compute_cycles(10);
                Ok(HeaderRet::ProcessData)
            })
            .on_payload(move |ctx, args, _state| {
                ctx.compute_cycles(cycles_per_packet);
                ctx.dma_to_host_b(MemRegion::MeHost, args.offset, args.data)?;
                Ok(PayloadRet::Success)
            })
            .on_completion(|ctx, _info, _state| {
                ctx.compute_cycles(10);
                Ok(CompletionRet::Success)
            })
            .build();
        api.me_append(
            MeSpec::recv(PT, TAG, (RECV_BASE, self.bytes.max(1))).with_stateless_handlers(handlers),
        );
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        if ev.kind == EventKind::Put {
            api.mark(format!("got-{}-{}", ev.peer, ev.hdr_data));
        }
    }
}

/// Run one saturation configuration. Set `config.recovery` (e.g. via
/// [`MachineConfig::with_recovery`]) to close the loop; leave it `None`
/// for the stall-at-first-`PtDisabled` baseline.
pub fn run(config: MachineConfig, mode: SaturateMode, params: SaturateParams) -> SimOutput {
    builder(config, mode, params).run()
}

/// Build the saturation world (receiver rank 0, `params.senders` sender
/// ranks) without running it. Shapes the config into the scarce-resource
/// §3.2 overload conditions (one host core, one HPU core, small CAM).
pub fn builder(
    mut config: MachineConfig,
    mode: SaturateMode,
    params: SaturateParams,
) -> SimBuilder {
    config.host.mem_size = (RECV_BASE + (RDMA_SLOTS + 1) * params.bytes)
        .next_power_of_two()
        .max(1 << 20);
    // Scarce service resources: one host core, one HPU core with a handful
    // of execution contexts, and a small channel CAM bounding how much
    // backlog the NIC accepts before flow control — the §3.2 conditions
    // under incast.
    config.host.cores = 1;
    config.hpu = HpuConfig {
        cores: 1,
        contexts_per_hpu: 4,
        yield_on_dma: config.hpu.yield_on_dma,
    };
    config.cam_capacity = 4;
    let receiver: Box<dyn HostProgram + Send> = match mode {
        SaturateMode::Rdma => Box::new(RdmaReceiver {
            bytes: params.bytes,
            service: params.service,
        }),
        SaturateMode::Spin => Box::new(SpinReceiver {
            bytes: params.bytes,
            service: params.service,
        }),
    };
    SimBuilder::new(config)
        .add_node(receiver)
        .nodes_with(params.senders, move |_| {
            Box::new(Sender {
                messages: params.messages,
                bytes: params.bytes,
                interval: params.interval,
                seq: 0,
            })
        })
}

/// Run and distill the outcome (completion accounting + recovery metrics).
pub fn run_outcome(
    config: MachineConfig,
    mode: SaturateMode,
    params: SaturateParams,
) -> SaturateOutcome {
    let out = run(config, mode, params);
    outcome(&out.report, params)
}

/// Distill a report into the saturation outcome.
pub fn outcome(report: &Report, params: SaturateParams) -> SaturateOutcome {
    let mut per_sender: Vec<Vec<u64>> = vec![Vec::new(); params.senders as usize + 1];
    let mut last = Time::ZERO;
    for (rank, label, t) in &report.marks {
        if *rank != 0 {
            continue;
        }
        let Some(rest) = label.strip_prefix("got-") else {
            continue;
        };
        let Some((peer, seq)) = rest.split_once('-') else {
            continue;
        };
        let peer: usize = peer.parse().expect("peer rank");
        let seq: u64 = seq.parse().expect("sequence");
        per_sender[peer].push(seq);
        last = last.max(*t);
    }
    let got: u64 = per_sender.iter().map(|v| v.len() as u64).sum();
    let mut unique = 0u64;
    let mut in_order = true;
    for seqs in &per_sender {
        let mut seen: Vec<u64> = seqs.clone();
        seen.sort_unstable();
        seen.dedup();
        unique += seen.len() as u64;
        in_order &= seqs.windows(2).all(|w| w[0] < w[1]);
    }
    let recv = &report.node_stats[0];
    let senders = &report.node_stats[1..];
    let sent = params.senders as u64 * params.messages as u64;
    SaturateOutcome {
        sent,
        completed: unique,
        duplicates: got - unique,
        in_order,
        offered_gbps: params.offered_gbps(),
        goodput_gbps: if last > Time::ZERO {
            unique as f64 * params.bytes as f64 * 8.0 / last.ns()
        } else {
            0.0
        },
        flow_events: recv.flow_control_events,
        nacks: recv.nacks_sent,
        retransmits: senders.iter().map(|s| s.recovery_retransmits).sum(),
        held: senders.iter().map(|s| s.recovery_held).sum(),
        reenables: recv.pt_reenables,
        recovered: senders.iter().map(|s| s.recovered_messages).sum(),
        recovery_latency_us: {
            let recovered: u64 = senders.iter().map(|s| s.recovered_messages).sum();
            let total_ns: f64 = senders.iter().map(|s| s.recovery_latency_ns).sum();
            if recovered > 0 {
                total_ns / recovered as f64 / 1e3
            } else {
                0.0
            }
        },
        disabled_us: if recv.pt_reenables > 0 {
            recv.pt_disabled_ns / recv.pt_reenables as f64 / 1e3
        } else {
            0.0
        },
        end_us: report.end_time.us(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    fn overload() -> SaturateParams {
        SaturateParams {
            senders: 3,
            messages: 6,
            bytes: 8192,
            interval: Time::from_us(2),
            service: Time::from_us(2),
        }
    }

    #[test]
    fn overload_without_recovery_loses_messages() {
        let p = overload();
        for mode in SaturateMode::ALL {
            let o = run_outcome(MachineConfig::integrated(), mode, p);
            assert!(o.flow_events > 0, "{mode:?} never saturated");
            assert!(
                o.completed < o.sent,
                "{mode:?}: {} of {} completed without recovery",
                o.completed,
                o.sent
            );
            assert_eq!(o.retransmits, 0);
            assert_eq!(o.reenables, 0);
        }
    }

    #[test]
    fn recovery_completes_every_message_exactly_once_in_order() {
        let p = overload();
        for nic in [NicKind::Integrated, NicKind::Discrete] {
            for mode in SaturateMode::ALL {
                let o = run_outcome(MachineConfig::paper(nic).with_recovery(), mode, p);
                assert_eq!(
                    o.completed, o.sent,
                    "{nic:?}/{mode:?}: lost messages: {o:?}"
                );
                assert_eq!(o.duplicates, 0, "{nic:?}/{mode:?}: duplicated: {o:?}");
                assert!(o.in_order, "{nic:?}/{mode:?}: reordered: {o:?}");
                assert!(o.retransmits > 0, "{nic:?}/{mode:?}: never retransmitted");
                assert!(o.reenables > 0, "{nic:?}/{mode:?}: never re-enabled");
            }
        }
    }

    #[test]
    fn spin_recovers_faster_than_rdma_on_integrated() {
        // The per-episode recovery latency (how long the PT stays closed)
        // is NIC-local for sPIN — drain the HPU contexts and re-enable —
        // but host-bound for RDMA: the event backlog must be worked
        // through before `PtlPTEnable`.
        let p = overload();
        let cfg = || MachineConfig::integrated().with_recovery();
        let spin = run_outcome(cfg(), SaturateMode::Spin, p);
        let rdma = run_outcome(cfg(), SaturateMode::Rdma, p);
        assert!(spin.reenables > 0 && rdma.reenables > 0);
        assert!(
            spin.disabled_us < rdma.disabled_us,
            "spin={:.2}us rdma={:.2}us",
            spin.disabled_us,
            rdma.disabled_us
        );
    }

    #[test]
    fn saturation_runs_are_deterministic() {
        let p = overload();
        let run2 = || {
            run(
                MachineConfig::integrated().with_recovery(),
                SaturateMode::Spin,
                p,
            )
        };
        let a = run2();
        let b = run2();
        assert_eq!(a.report.end_time, b.report.end_time);
        assert_eq!(a.report.events_executed, b.report.events_executed);
        assert_eq!(a.report.marks, b.report.marks);
    }

    #[test]
    fn underload_never_trips_flow_control() {
        let p = SaturateParams {
            senders: 2,
            messages: 4,
            interval: Time::from_us(12),
            ..overload()
        };
        for mode in SaturateMode::ALL {
            let o = run_outcome(MachineConfig::integrated().with_recovery(), mode, p);
            assert_eq!(o.flow_events, 0, "{mode:?} saturated under light load");
            assert_eq!(o.completed, o.sent);
            assert_eq!(o.retransmits, 0);
        }
    }
}
