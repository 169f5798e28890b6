//! Flow-control recovery subsystem: whole-system invariants under
//! randomized overload, complementing the unit tests of every state
//! machine transition in `spin-core/src/recovery.rs`.
//!
//! The contract (§3.2 recovery handshake): with recovery enabled, a
//! saturation run delivers **every** message **exactly once**, **in
//! order** per (sender, PT) pair — regardless of how the offered load,
//! message size, and fan-in conspire to trip flow control.

use proptest::prelude::*;
use spin_apps::saturate::{self, SaturateMode, SaturateParams};
use spin_core::config::{MachineConfig, NicKind};
use spin_core::host::{HostApi, HostProgram, MeSpec};
use spin_core::world::SimBuilder;
use spin_portals::eq::FullEvent;
use spin_sim::time::Time;

#[test]
fn recovery_unblocks_a_stalled_saturation_run() {
    // The acceptance scenario: an overload that previously stalled at the
    // first PtDisabled (losing messages) completes everything with the
    // subsystem enabled, and the transitions are observable in the report.
    let p = SaturateParams {
        senders: 3,
        messages: 8,
        bytes: 8192,
        interval: Time::from_us(1),
        service: Time::from_us(2),
    };
    for mode in SaturateMode::ALL {
        let open = saturate::run_outcome(MachineConfig::integrated(), mode, p);
        assert!(open.flow_events > 0, "{mode:?}: overload never tripped");
        assert!(
            open.completed < open.sent,
            "{mode:?}: baseline did not stall"
        );
        let closed = saturate::run_outcome(MachineConfig::integrated().with_recovery(), mode, p);
        assert_eq!(closed.completed, closed.sent, "{mode:?}: lost messages");
        assert_eq!(closed.duplicates, 0, "{mode:?}: duplicated messages");
        assert!(closed.in_order, "{mode:?}: reordered messages");
        assert!(closed.nacks > 0 && closed.retransmits > 0 && closed.reenables > 0);
    }
}

#[test]
fn recovery_counters_flow_into_the_report() {
    let p = SaturateParams {
        senders: 3,
        messages: 8,
        bytes: 8192,
        interval: Time::from_us(1),
        service: Time::from_us(2),
    };
    let out = saturate::run(
        MachineConfig::integrated().with_recovery(),
        SaturateMode::Spin,
        p,
    );
    let recv = &out.report.node_stats[0];
    assert!(recv.nacks_sent > 0, "receiver NACKed");
    assert!(recv.pt_reenables > 0, "receiver re-enabled");
    assert!(recv.pt_disabled_ns > 0.0, "disabled time accounted");
    let senders = &out.report.node_stats[1..];
    assert!(senders.iter().any(|s| s.recovery_nacks > 0));
    assert!(senders.iter().any(|s| s.recovery_backoffs > 0));
    assert!(senders.iter().any(|s| s.recovery_probes > 0));
    assert!(senders.iter().any(|s| s.recovery_retransmits > 0));
    assert!(senders.iter().any(|s| s.recovered_messages > 0));
}

#[test]
fn recovery_transitions_reach_the_gantt() {
    let p = SaturateParams {
        senders: 3,
        messages: 6,
        bytes: 8192,
        interval: Time::from_us(1),
        service: Time::from_us(2),
    };
    let mut config = MachineConfig::integrated().with_recovery();
    config.record_gantt = true;
    let out = saturate::run(config, SaturateMode::Spin, p);
    let g = &out.world.gantt;
    assert!(
        !g.spans(0, "PT").is_empty(),
        "receiver disabled episodes recorded on the PT lane"
    );
    assert!(
        (1..4).any(|r| g
            .spans(r, "RECOV")
            .iter()
            .any(|s| s.label.contains("backoff"))),
        "sender backoff windows recorded on the RECOV lane"
    );
    assert!(
        (1..4).any(|r| g
            .spans(r, "RECOV")
            .iter()
            .any(|s| s.label.contains("probe"))),
        "sender probes recorded on the RECOV lane"
    );
}

// ------------------------------------------ Get/Reply retransmit leak
//
// Regression for the ROADMAP-filed leak: only Puts/Atomics used to be
// tracked by the retransmit machinery, so a Get bouncing off a disabled PT
// was silently lost and its initiator-side `pending_sends` entry leaked
// forever. Gets now ride the same NACK/backoff/probe path, with the Reply
// serving as the delivery confirmation.

const GET_LEN: usize = 256;
const GET_SRC: usize = 0x2_0000;
const GET_DST: usize = 0x4_0000;
const GET_TAG: u64 = 7;

/// Target that serves the Get region only after a delay: the first Get
/// finds no ME, disables the PT, and bounces.
struct LateGetServer;

impl HostProgram for LateGetServer {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let pattern: Vec<u8> = (0..GET_LEN).map(|i| (i * 23 % 251) as u8).collect();
        api.write_host(GET_SRC, &pattern);
        // Deliberately no ME yet — posted (and the PT re-enabled) later.
        api.set_timer(Time::from_us(12), 1);
    }

    fn on_timer(&mut self, _token: u64, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, GET_TAG, (GET_SRC, 0x1000)));
        api.pt_enable(0);
        api.mark("served");
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("srv-{:?}", ev.kind));
    }
}

/// Initiator that issues one Get at t=0 — into the not-yet-armed PT.
struct EarlyGetClient;

impl HostProgram for EarlyGetClient {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.get(1, 0, GET_TAG, 0, GET_LEN, GET_DST);
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("cli-{:?}", ev.kind));
    }
}

#[test]
fn bounced_get_is_retransmitted_and_its_pending_send_retired() {
    let out = SimBuilder::new(MachineConfig::integrated().with_recovery())
        .add_node(Box::new(EarlyGetClient))
        .add_node(Box::new(LateGetServer))
        .run();
    let report = &out.report;
    // The Get bounced at least once (NACKed by the target)...
    assert!(report.node_stats[1].nacks_sent > 0, "target never NACKed");
    let cli = &report.node_stats[0];
    assert!(cli.recovery_nacks > 0, "initiator never saw the NACK");
    assert!(cli.recovery_probes > 0, "Get was never probed");
    assert_eq!(cli.recovered_messages, 1, "Get not counted as recovered");
    // ...the reply eventually arrived and deposited the data...
    assert!(
        report.mark(0, "cli-Reply").is_some(),
        "reply never reached the initiator: {:?}",
        report.marks
    );
    assert!(report.mark(0, "cli-Reply").unwrap() > report.mark(1, "served").unwrap());
    let got = out.world.nodes[0].mem.read(GET_DST, GET_LEN).expect("dst");
    let want: Vec<u8> = (0..GET_LEN).map(|i| (i * 23 % 251) as u8).collect();
    assert_eq!(got, &want[..], "reply payload corrupted");
    // ...and the leak is gone: no initiator-side pending-send entry
    // survives quiescence (this is the line that failed before the fix).
    assert!(
        out.world.nodes[0].nic.pending_sends.is_empty(),
        "pending_sends leaked: {} entries",
        out.world.nodes[0].nic.pending_sends.len()
    );
    // The host-driven re-enable was charged to the episode accounting.
    assert_eq!(report.node_stats[1].pt_reenables, 1);
    assert!(report.node_stats[1].pt_disabled_ns > 0.0);
}

#[test]
fn without_recovery_a_bounced_get_still_disables_but_is_lost() {
    // Baseline contract (paper behaviour, recovery off): the Get is
    // dropped, no retransmission happens, and the initiator keeps its
    // pending entry — the documented manual-recovery mode.
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(EarlyGetClient))
        .add_node(Box::new(LateGetServer))
        .run();
    assert!(
        out.report.mark(0, "cli-Reply").is_none(),
        "reply from a lost Get"
    );
    assert_eq!(out.report.node_stats[0].recovery_nacks, 0);
    assert_eq!(out.world.nodes[0].nic.pending_sends.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No loss, no duplication, in-order per pair — under randomized
    /// overload shapes, both transports, both NIC kinds.
    #[test]
    fn no_message_lost_duplicated_or_reordered_under_overload(
        senders in 2u32..5,
        messages in 3u32..9,
        interval_ns in 500u64..4000,
        size_idx in 0usize..4,
        spin in any::<bool>(),
        discrete in any::<bool>(),
    ) {
        const SIZES: [usize; 4] = [512, 4096, 8192, 12000];
        let p = SaturateParams {
            senders,
            messages,
            bytes: SIZES[size_idx],
            interval: Time::from_ps(interval_ns * 1000),
            service: Time::from_us(2),
        };
        let nic = if discrete { NicKind::Discrete } else { NicKind::Integrated };
        let mode = if spin { SaturateMode::Spin } else { SaturateMode::Rdma };
        let o = saturate::run_outcome(MachineConfig::paper(nic).with_recovery(), mode, p);
        prop_assert_eq!(o.completed, o.sent, "lost: {:?}", o);
        prop_assert_eq!(o.duplicates, 0, "duplicated: {:?}", o);
        prop_assert!(o.in_order, "reordered: {:?}", o);
    }
}
