//! Determinism regression across every transport and NIC integration
//! style, extending the seed's single-mode check in `integration.rs`: the
//! discrete-event engine promises bit-identical schedules for identical
//! inputs, so two runs of any configuration — one on the serial engine,
//! one at 4 exact shards — must agree on every field of the report. The
//! seven goldens below pin `spin_core::world::digest` on both engines (the
//! seventh, the §3.2 refusal arms, with recovery off and on).

use spin_apps::pingpong::{self, PingPongMode};
use spin_core::config::{MachineConfig, NicKind};
use spin_core::fault::{FaultKind, FaultPlan};
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{digest, fingerprint, Report, ShardMode, SimBuilder};
use spin_hpu::ctx::{CompletionRet, HeaderRet, PayloadRet};
use spin_hpu::pool::HpuConfig;
use spin_portals::types::UserHeader;
use spin_sim::time::{BytesPerTime, Time};

#[test]
fn every_transport_and_nic_kind_is_deterministic() {
    for nic in [NicKind::Discrete, NicKind::Integrated] {
        for mode in PingPongMode::ALL {
            let build = || pingpong::builder(MachineConfig::paper(nic), mode, 16 * 1024, 2);
            let serial = build().run_serial().report;
            let sharded = build().run_with_shards_mode(4, ShardMode::Exact).report;
            assert!(
                serial.events_executed > 0,
                "{nic:?}/{mode:?} executed no events"
            );
            assert_eq!(
                format!("{serial:?}"),
                format!("{sharded:?}"),
                "{nic:?}/{mode:?} diverged at 4 exact shards"
            );
        }
    }
}

#[test]
fn transports_actually_differ() {
    // Guard against the determinism test passing vacuously because every
    // mode collapsed onto the same code path: the transports must produce
    // different schedules from one another.
    let end = |mode| {
        pingpong::run_full(MachineConfig::paper(NicKind::Discrete), mode, 16 * 1024, 2)
            .report
            .end_time
    };
    let rdma = end(PingPongMode::Rdma);
    let p4 = end(PingPongMode::P4);
    let spin = end(PingPongMode::SpinStream);
    assert_ne!(rdma, p4, "RDMA and Portals triggered-op paths identical");
    assert_ne!(rdma, spin, "RDMA and sPIN paths identical");
    assert!(spin < rdma, "offloaded reply should beat host-driven reply");
}

// --------------------------------------------- golden-report equivalence
//
// A fixed-seed scenario matrix covering every `DeliveryMode` (Rdma,
// SpinProcess, SpinProceed, DropAll, Reply) with multi-packet messages,
// acks, a get/reply pair, and a flow-control variant that exhausts HPU
// contexts mid-message. The full `Report` (end time, event count, every
// mark/value, per-node stats, network totals) is fingerprinted and pinned
// against goldens captured before the zero-copy hot-path refactor — any
// refactor of the packet path must reproduce these bit-for-bit.

const MTU: usize = 4096;

mod mem {
    // Receiver-side layout (absolute host offsets).
    pub const RDMA_DST: usize = 0x1_0000; // mb 1 target region
    pub const SPIN_DST: usize = 0x3_0000; // mb 2 target region
    pub const PROCEED_DST: usize = 0x5_0000; // mb 3 target region
    pub const DROP_DST: usize = 0x7_0000; // mb 4 target region
    pub const GET_SRC: usize = 0x9_0000; // mb 5 get source region
                                         // Sender-side layout.
    pub const SEND_SRC: usize = 0x1000;
    pub const REPLY_DST: usize = 0xB_0000;
}

struct GoldenSender {
    flow: bool,
}

impl HostProgram for GoldenSender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let len = 3 * MTU + 123; // multi-packet, ragged tail
        let pattern: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        api.write_host(mem::SEND_SRC, &pattern);
        if self.flow {
            // Three overlapping multi-packet sPIN messages against a
            // starved HPU pool: admissions fail mid-message, the PT
            // disables, and later headers bounce off flow control.
            for i in 0..3u64 {
                api.put(
                    PutArgs::from_host(1, 0, 2, mem::SEND_SRC, len)
                        .with_user_hdr(UserHeader::from_u64_pair(len as u64, i))
                        .with_hdr_data(i),
                );
            }
            return;
        }
        // Rdma (plain Portals deposit), acked.
        api.put(PutArgs::from_host(1, 0, 1, mem::SEND_SRC, len).with_ack());
        // SpinProcess (header + payload + completion handlers).
        api.put(
            PutArgs::from_host(1, 0, 2, mem::SEND_SRC, len)
                .with_user_hdr(UserHeader::from_u64_pair(len as u64, 7))
                .with_hdr_data(42),
        );
        // SpinProceed (header handler elects the default deposit).
        api.put(PutArgs::from_host(1, 0, 3, mem::SEND_SRC, len));
        // DropAll (header handler drops the message body).
        api.put(PutArgs::from_host(1, 0, 4, mem::SEND_SRC, len));
        // Reply mode at this initiator: multi-packet get.
        api.get(1, 0, 5, 0, 2 * MTU + 57, mem::REPLY_DST);
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!(
            "snd-{:?}-p{}-r{}-m{}",
            ev.kind, ev.peer, ev.rlength, ev.mlength
        ));
    }
}

struct GoldenReceiver;

impl HostProgram for GoldenReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let hmem = api.hpu_alloc(64, None);
        api.me_append(MeSpec::recv(0, 1, (mem::RDMA_DST, 1 << 16)));
        let spin = FnHandlers::new()
            .on_header(|ctx, args, state| {
                ctx.compute_cycles(50);
                state.put_u64(0, args.header.user_hdr.u64_at(0))?;
                Ok(HeaderRet::ProcessData)
            })
            .on_payload(|ctx, args, state| {
                ctx.compute_cycles(20 + args.data.len() as u64 / 8);
                state.fetch_add_u64(8, args.data.len() as u64)?;
                ctx.dma_to_host_b(spin_hpu::ctx::MemRegion::MeHost, args.offset, args.data)?;
                Ok(PayloadRet::Success)
            })
            .on_completion(|ctx, _info, state| {
                ctx.compute_cycles(30);
                state.put_bool(16, true)?;
                Ok(CompletionRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, 2, (mem::SPIN_DST, 1 << 16)).with_handlers(spin, hmem));
        let proceed = FnHandlers::new()
            .on_header(|ctx, _args, _state| {
                ctx.compute_cycles(40);
                Ok(HeaderRet::Proceed)
            })
            .build();
        api.me_append(
            MeSpec::recv(0, 3, (mem::PROCEED_DST, 1 << 16)).with_stateless_handlers(proceed),
        );
        let drop_all = FnHandlers::new()
            .on_header(|ctx, _args, _state| {
                ctx.compute_cycles(25);
                Ok(HeaderRet::Drop)
            })
            .on_completion(|ctx, info, _state| {
                ctx.compute_cycles(10 + info.dropped_bytes as u64 / 64);
                Ok(CompletionRet::Success)
            })
            .build();
        api.me_append(
            MeSpec::recv(0, 4, (mem::DROP_DST, 1 << 16)).with_stateless_handlers(drop_all),
        );
        let get_pattern: Vec<u8> = (0..2 * MTU + 57).map(|i| (i * 17 % 241) as u8).collect();
        api.write_host(mem::GET_SRC, &get_pattern);
        api.me_append(MeSpec::recv(0, 5, (mem::GET_SRC, 1 << 16)));
        api.mark("recv-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!(
            "rcv-{:?}-p{}-r{}-m{}",
            ev.kind, ev.peer, ev.rlength, ev.mlength
        ));
    }
}

struct FlowReceiver;

impl HostProgram for FlowReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let hmem = api.hpu_alloc(64, None);
        let slow = FnHandlers::new()
            .on_header(|ctx, _args, _state| {
                ctx.compute_cycles(100);
                Ok(HeaderRet::ProcessData)
            })
            .on_payload(|ctx, args, state| {
                // ~200 us per packet: saturates 1 core x 1 context. The
                // deposit makes the schedule NIC-kind-dependent (DMA
                // latency differs between discrete and integrated).
                ctx.compute_cycles(500_000);
                state.fetch_add_u64(0, 1)?;
                ctx.dma_to_host_b(spin_hpu::ctx::MemRegion::MeHost, args.offset, args.data)?;
                Ok(PayloadRet::Success)
            })
            .on_completion(|ctx, info, _state| {
                ctx.compute_cycles(10 + info.dropped_bytes as u64 / 64);
                Ok(CompletionRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, 2, (mem::SPIN_DST, 1 << 16)).with_handlers(slow, hmem));
        api.mark("flow-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("flow-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Assert a golden's pinned digest on the serial engine and at 4 exact
/// shards, printing the full fingerprint on a mismatch for diffing
/// (`GOLDEN_CAPTURE=1` prints the hashes instead). Returns the serial
/// report.
fn assert_golden(what: &str, build: impl Fn() -> SimBuilder, want: u64) -> Report {
    let serial = build().run_serial().report;
    let sharded = build().run_with_shards_mode(4, ShardMode::Exact).report;
    for (engine, report) in [("serial", &serial), ("4 exact shards", &sharded)] {
        let got = digest(report);
        if std::env::var_os("GOLDEN_CAPTURE").is_some() {
            eprintln!("{what} golden ({engine}): {got:#x}u64");
            continue;
        }
        assert_eq!(
            got,
            want,
            "{what} golden diverged on {engine} (hash {got:#x}):\n{}",
            fingerprint(report)
        );
    }
    serial
}

fn golden_builder(nic: NicKind, flow: bool) -> SimBuilder {
    let mut config = MachineConfig::paper(nic);
    if flow {
        config.hpu = HpuConfig {
            cores: 1,
            contexts_per_hpu: 1,
            yield_on_dma: false,
        };
    }
    let receiver: Box<dyn HostProgram + Send> = if flow {
        Box::new(FlowReceiver)
    } else {
        Box::new(GoldenReceiver)
    };
    SimBuilder::new(config)
        .add_node(Box::new(GoldenSender { flow }))
        .add_node(receiver)
}

#[test]
fn golden_report_equivalence_matrix() {
    // Recaptured for the flow-control recovery PR: the header-admission
    // flow-control arm used to leave the channel in `Rdma` delivery mode,
    // so a flow-controlled message's packets were still deposited and a
    // successful `Put` event followed the `PtDisabled` one. §3.2 drops the
    // flow-controlled message entirely, so the arm now switches the
    // channel to `DropAll` and no completion event is delivered for any
    // flow-controlled message — a deliberate semantic change to the `flow`
    // scenarios (the non-flow scenarios moved only because the fingerprint
    // grew the recovery counter line). Previous goldens (captured at
    // b09e090, reproduced bit-for-bit by PR 2): dis/plain
    // 0xfd6f8a98aa6c2610, dis/flow 0x2ed4295799286d89, int/plain
    // 0x1716610ac9578ab5, int/flow 0x085168d9f93580eb.
    let goldens = [
        (NicKind::Discrete, false, 0xca369cc4bc64edfbu64),
        (NicKind::Discrete, true, 0x896ac7eec6c42d02u64),
        (NicKind::Integrated, false, 0x17431c60fdd1c0a2u64),
        (NicKind::Integrated, true, 0x62da957637e17421u64),
    ];
    for (nic, flow, want) in goldens {
        assert_golden(
            &format!("{nic:?}/flow={flow}"),
            || golden_builder(nic, flow),
            want,
        );
    }
}

#[test]
fn golden_scenarios_exercise_every_delivery_mode() {
    // Guard against the matrix passing vacuously: the normal scenario must
    // run all three handler stages and move acked/replied data; the flow
    // scenario must actually reject admissions and drop packets.
    let normal = golden_builder(NicKind::Discrete, false).run_serial().report;
    let stats = &normal.node_stats[1];
    let (hdr, pay, cpl) = stats.handler_runs;
    assert!(hdr >= 3, "header handlers ran: {hdr}");
    assert!(pay >= 4, "payload handlers ran per packet: {pay}");
    assert!(cpl >= 2, "completion handlers ran: {cpl}");
    assert!(normal
        .marks
        .iter()
        .any(|(r, l, _)| *r == 0 && l.contains("snd-Ack")));
    assert!(normal
        .marks
        .iter()
        .any(|(r, l, _)| *r == 0 && l.contains("snd-Reply")));
    let flow = golden_builder(NicKind::Discrete, true).run_serial().report;
    let fstats = &flow.node_stats[1];
    assert!(fstats.hpu_rejected > 0, "flow scenario rejected admissions");
    assert!(fstats.flow_control_events > 0, "flow control fired");
    assert!(
        flow.marks.iter().any(|(_, l, _)| l.contains("PtDisabled")),
        "PtDisabled reached the host"
    );
}

// ------------------------------------------- fat-tree scale-out scenario
//
// The 2-node matrix above never leaves one leaf switch. This scenario
// builds a 3-level fat tree from 4-port switches (12 endpoints: leaves of
// 2, pods of 4) and drives traffic across all three route classes —
// same-leaf, same-pod, and cross-pod — so the golden pins the multi-hop
// latency model (per-switch traversal + per-cable propagation) together
// with the incast ingress serialization at the gather root. The programs
// live in `spin_apps::gather` (shared with the scenario compiler, whose
// equivalence suite pins the same golden hash from a declarative config).

fn fat_tree_builder() -> SimBuilder {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_ports = 4; // 3 levels at 12 nodes: leaves of 2, pods of 4
    config.host.mem_size = 1 << 20;
    spin_apps::gather::builder(config, 12, 0, MTU + 1904, 256, 5)
}

#[test]
fn golden_fat_tree_cross_pod_matrix() {
    let out = fat_tree_builder().run_serial();
    let topo = out.world.network.topology();
    assert_eq!(topo.levels(), 3, "scenario must span a 3-level tree");
    assert_eq!(topo.nodes_per_pod(), 4);
    // The exchange ring (stride 5) and the gather both cross pods.
    assert_eq!(topo.route_switches(1, 6), 5, "stride ring crosses pods");
    assert_eq!(topo.route_switches(0, 11), 5, "gather crosses pods");
    assert_eq!(topo.route_switches(0, 1), 1, "same-leaf route exists");
    // Every sender's gather put completed (acked) and the ring closed.
    let report = &out.report;
    for r in 1..12u32 {
        assert!(
            report
                .marks
                .iter()
                .any(|(rank, l, _)| *rank == r && l.contains("leaf-Ack")),
            "rank {r} never saw its gather ack"
        );
    }
    let ring_puts = report
        .marks
        .iter()
        .filter(|(_, l, _)| l.contains("-Put-") && l.contains("m256"))
        .count();
    assert_eq!(ring_puts, 11, "all 11 exchange puts delivered");
    // The pinned golden: multi-hop routing, incast serialization, and the
    // ack path must reproduce bit-for-bit.
    assert_golden("fat-tree", fat_tree_builder, 0xc168fc2e110a6a9bu64);
}

// ------------------------------------------------- zero-occupancy incast
//
// With zero per-packet occupancy (`g = 0`, `G = 0`) the ingress link no
// longer serializes, so every follow-on packet of a multi-packet message
// arrives at the same instant. Five senders each fire a 4-packet acked put
// at rank 0 and then read a 3-packet reply back with a get, stacking
// several such same-instant packet trains at the victim. The golden pins
// how the receive path handles them; its hash was taken while the engine
// still drained such trains through a separate batched path.

mod incast {
    pub const RECV: usize = 0x10_0000;
    pub const SEND: usize = 0x1000;
    pub const REPLY: usize = 0x30_0000;
}

struct IncastNode {
    sender: bool,
}

impl HostProgram for IncastNode {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, 1, (incast::RECV, 1 << 17)));
        let pattern: Vec<u8> = (0..3 * MTU + 99).map(|i| (i * 37 % 253) as u8).collect();
        api.write_host(incast::SEND, &pattern);
        if self.sender {
            api.set_timer(Time::from_ns(1_000), 0);
            api.set_timer(Time::from_ns(2_500), 1);
        }
        api.mark("armed");
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        if token == 0 {
            // 4 packets: header + 3 follow-ons.
            api.put(PutArgs::from_host(0, 0, 1, incast::SEND, 3 * MTU + 321).with_ack());
        } else {
            // A 3-packet reply stream back.
            api.get(0, 0, 1, 0, 2 * MTU + 17, incast::REPLY + 0x2000);
        }
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

#[test]
fn golden_zero_occupancy_incast() {
    let build = || {
        let mut config = MachineConfig::paper(NicKind::Integrated);
        config.net.switch_ports = 4;
        config.net.g = Time::ZERO;
        config.net.big_g = BytesPerTime::from_ps_per_byte(0);
        SimBuilder::new(config).nodes_with(6, |r| Box::new(IncastNode { sender: r != 0 }))
    };
    let report = assert_golden("zero-occupancy incast", build, 0x5632_2888_7973_b7fdu64);
    // Not vacuous: the incast actually moved multi-packet traffic.
    assert!(
        report.net_packets >= 30,
        "incast sent only {} packets",
        report.net_packets
    );
}

// ------------------------------------------------------ §3.2 refusal arms
//
// The goldens above reach only three of the target's refusal blocks: a Put
// bouncing off an already-disabled entry, and payload-context exhaustion
// with its teardown NACK. This world reaches the arms they miss. Rank 1
// sends a Get to rank 0's entry 0 and a Put to its entry 1 while neither
// has an ME posted (no match: the NI disables the entry), then a second
// Get and Put that bounce off the disabled entries; rank 0 posts its MEs
// and re-enables both entries by hand at 6 µs, after which a third Get and
// Put get through. With recovery on, every refusal NACKs rank 1, which
// backs off and probes until the entries re-enable, and a fault plan
// crashes rank 2 while a multi-packet Put from rank 1 is on the wire to it:
// its header reaches the crashed node and is NACKed on the node's behalf,
// and the Put is replayed after rank 2 restarts. The golden is pinned with
// recovery off and on.

mod refusal {
    pub const TAG: u64 = 0x5EED;
    pub const SEND: usize = 0x1000;
    pub const GET_SRC: usize = 0x2_0000;
    pub const RECV: usize = 0x4_0000;
    pub const REPLY: usize = 0x6_0000;
    pub const LEN: usize = 2 * super::MTU + 77;
    /// When the crash Put's timer fires at rank 1, and when rank 2 crashes
    /// and restarts: the Put's header is on the wire at the crash.
    pub const CRASH_PUT_NS: u64 = 3_000;
    pub const CRASH_NS: u64 = 3_300;
    pub const RESTART_NS: u64 = 9_000;
}

/// Rank 0: no ME on entries 0 and 1 until its timer re-arms them.
struct RefusalTarget;

impl HostProgram for RefusalTarget {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let pattern: Vec<u8> = (0..refusal::LEN).map(|i| (i * 29 % 247) as u8).collect();
        api.write_host(refusal::GET_SRC, &pattern);
        api.set_timer(Time::from_us(6), 0);
        api.mark("target-armed");
    }

    fn on_timer(&mut self, _token: u64, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(
            0,
            refusal::TAG,
            (refusal::GET_SRC, refusal::LEN),
        ));
        api.me_append(MeSpec::recv(1, refusal::TAG, (refusal::RECV, 1 << 16)));
        api.pt_enable(0);
        api.pt_enable(1);
        api.mark("target-re-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("tgt-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Rank 1: the Gets and Puts to rank 0, and the Put that races rank 2's
/// crash.
struct RefusalClient;

impl RefusalClient {
    fn get_and_put(api: &mut HostApi<'_>, round: usize) {
        api.get(
            0,
            0,
            refusal::TAG,
            0,
            refusal::LEN,
            refusal::REPLY + round * 0x4000,
        );
        api.put(PutArgs::from_host(0, 1, refusal::TAG, refusal::SEND, refusal::LEN).with_ack());
    }
}

impl HostProgram for RefusalClient {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let pattern: Vec<u8> = (0..refusal::LEN).map(|i| (i * 41 % 239) as u8).collect();
        api.write_host(refusal::SEND, &pattern);
        Self::get_and_put(api, 0);
        api.set_timer(Time::from_us(1), 1);
        api.set_timer(Time::from_ns(refusal::CRASH_PUT_NS), 2);
        api.set_timer(Time::from_us(10), 3);
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        match token {
            2 => api.put(
                PutArgs::from_host(2, 0, refusal::TAG, refusal::SEND, refusal::LEN).with_ack(),
            ),
            round => Self::get_and_put(api, round as usize),
        }
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("cli-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Rank 2: one receive ME, posted again when it restarts.
struct RefusalVictim;

impl HostProgram for RefusalVictim {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, refusal::TAG, (refusal::RECV, 1 << 16)));
        api.mark("victim-armed");
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("vic-{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

fn refusal_builder(recovery: bool) -> SimBuilder {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    if recovery {
        config = config.with_recovery().with_faults(
            FaultPlan::default()
                .with(
                    Time::from_ns(refusal::CRASH_NS),
                    FaultKind::NodeCrash { node: 2 },
                )
                .with(
                    Time::from_ns(refusal::RESTART_NS),
                    FaultKind::NodeRestart { node: 2 },
                ),
        );
    }
    SimBuilder::new(config)
        .add_node(Box::new(RefusalTarget))
        .add_node(Box::new(RefusalClient))
        .add_node(Box::new(RefusalVictim))
}

#[test]
fn golden_refusal_arms() {
    let off = assert_golden(
        "refusal/recovery=off",
        || refusal_builder(false),
        0xf2b9_27d5_c8b4_95ceu64,
    );
    let on = assert_golden(
        "refusal/recovery=on",
        || refusal_builder(true),
        0x1e11_13f5_2ac1_1987u64,
    );
    // Not vacuous: both entries refused by no-match and by being disabled.
    for (what, r) in [("off", &off), ("on", &on)] {
        let target = &r.node_stats[0];
        assert!(target.flow_control_events >= 2, "{what}: {target:?}");
        assert!(target.packets_dropped >= 2, "{what}: {target:?}");
        assert!(r
            .marks
            .iter()
            .any(|(n, l, _)| *n == 1 && l.contains("cli-Reply")));
    }
    assert_eq!(off.node_stats[0].nacks_sent, 0);
    assert!(on.node_stats[0].nacks_sent >= 4, "{:?}", on.node_stats[0]);
    // The crash: rank 2 dropped the Put's packets on its dead link and
    // NACKed its header, and the replay landed after the restart.
    let victim = &on.node_stats[2];
    assert!(victim.drops_on_dead_link > 0, "{victim:?}");
    assert_eq!(victim.nacks_sent, 1, "{victim:?}");
    assert_eq!(victim.crash_recoveries, 1, "{victim:?}");
    assert!(on
        .marks
        .iter()
        .any(|(n, l, _)| *n == 2 && l.starts_with("vic-Put")));
}
