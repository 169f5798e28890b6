//! End-to-end tests of the full simulation pipeline: host programs, the
//! three transports (RDMA / P4 triggered / sPIN handlers), flow control, and
//! functional correctness of delivered bytes.

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::SimBuilder;
use spin_hpu::ctx::{HeaderRet, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};
use spin_sim::time::Time;

// ---------------------------------------------------------------- RDMA put

struct RdmaSender {
    bytes: usize,
}
impl HostProgram for RdmaSender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let pattern: Vec<u8> = (0..self.bytes).map(|i| (i % 251) as u8).collect();
        api.write_host(0, &pattern);
        api.put(PutArgs::from_host(1, 0, 42, 0, self.bytes).with_ack());
        api.mark("posted");
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Ack);
        api.mark("acked");
    }
}

struct RdmaReceiver {
    bytes: usize,
}
impl HostProgram for RdmaReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, 42, (4096, self.bytes)).once());
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        assert_eq!(ev.mlength, 16 * 1024);
        api.mark("received");
    }
}

#[test]
fn rdma_put_delivers_bytes_and_events() {
    let bytes = 16 * 1024; // 4 packets
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(RdmaSender { bytes }))
        .add_node(Box::new(RdmaReceiver { bytes }))
        .run();
    // Functional: the pattern landed at offset 4096 on node 1.
    let got = out.world.nodes[1].mem.read(4096, bytes).unwrap();
    assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    // Events: receiver got the put, sender got the ack, in that order.
    let received = out.report.mark(1, "received").expect("receive event");
    let acked = out.report.mark(0, "acked").expect("ack event");
    assert!(received < acked);
    // Timing sanity: o + wire + 4 packets + DMA puts this in the few-us range.
    assert!(received > Time::from_ns(300), "{received}");
    assert!(acked < Time::from_us(10), "{acked}");
    // The receiver's NIC DMA moved at least the message.
    assert!(out.report.node_stats[1].dma_bytes >= bytes as u64);
}

// ---------------------------------------------------------------- get

struct Getter;
impl HostProgram for Getter {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.get(1, 0, 7, 0, 8192, 1024);
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Reply);
        api.mark("reply");
    }
}

struct GetServer;
impl HostProgram for GetServer {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let data: Vec<u8> = (0..8192).map(|i| (i % 13) as u8).collect();
        api.write_host(0, &data);
        api.me_append(MeSpec::recv(0, 7, (0, 8192)));
    }
}

#[test]
fn get_round_trip() {
    let out = SimBuilder::new(MachineConfig::discrete())
        .add_node(Box::new(Getter))
        .add_node(Box::new(GetServer))
        .run();
    let t = out.report.mark(0, "reply").expect("reply event");
    assert!(t > Time::from_ns(800), "{t}"); // two network traversals + DMA
    let got = out.world.nodes[0].mem.read(1024, 8192).unwrap();
    assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 13) as u8));
}

// ---------------------------------------------------------------- sPIN echo

/// Receiver installs a payload handler that echoes every packet back from
/// the device (the streaming ping-pong of §4.4.1 / Appendix C.3.1).
struct SpinEchoServer;
impl HostProgram for SpinEchoServer {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let hpu = api.hpu_alloc(64, None);
        let handlers = FnHandlers::new()
            .on_header(|_ctx, args, state| {
                state.put_u64(0, args.header.source_id as u64)?;
                Ok(HeaderRet::ProcessData)
            })
            .on_payload(|ctx, args, state| {
                let src = state.get_u64(0)? as u32;
                ctx.put_from_device(args.data, src, 99, args.offset, 0)?;
                Ok(PayloadRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, 5, (0, 1 << 20)).with_handlers(handlers, hpu));
    }
}

struct SpinEchoClient {
    bytes: usize,
    expected_packets: u32,
    seen: u32,
}
impl HostProgram for SpinEchoClient {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let data: Vec<u8> = (0..self.bytes).map(|i| (i % 17) as u8).collect();
        api.write_host(0, &data);
        // Buffer for the echoed packets (each arrives as its own message).
        api.me_append(MeSpec::recv(0, 99, (1 << 20, 1 << 20)));
        api.put(PutArgs::from_host(1, 0, 5, 0, self.bytes));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        self.seen += 1;
        if self.seen == self.expected_packets {
            api.mark("all_echoed");
        }
    }
}

#[test]
fn spin_payload_handlers_stream_packets_back() {
    let bytes = 12 * 1024; // 3 packets
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(SpinEchoClient {
            bytes,
            expected_packets: 3,
            seen: 0,
        }))
        .add_node(Box::new(SpinEchoServer))
        .run();
    let t = out.report.mark(0, "all_echoed").expect("echo completed");
    assert!(t < Time::from_us(10), "{t}");
    // The echo never touched the server's host memory.
    assert_eq!(out.report.node_stats[1].dma_bytes, 0);
    // Handler runs: 1 header + 3 payload on the server.
    assert_eq!(out.report.node_stats[1].handler_runs.0, 1);
    assert_eq!(out.report.node_stats[1].handler_runs.1, 3);
    // Echoed bytes land where the remote_offset sent them (packet offsets).
    let got = out.world.nodes[0].mem.read(1 << 20, bytes).unwrap();
    assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 17) as u8));
}

// ---------------------------------------------------------------- P4 triggered

struct P4Forwarder;
impl HostProgram for P4Forwarder {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        // Message arriving at pt 0 lands at offset 0 and bumps a counter;
        // a pre-set-up triggered put forwards it to node 2 with no host
        // involvement.
        let ct = api.ct_alloc();
        api.me_append(MeSpec::recv(0, 1, (0, 4096)).with_ct(ct));
        api.triggered_put(PutArgs::from_host(2, 0, 1, 0, 4096), ct, 1);
        // Host never reacts: it is "computing".
        api.stop();
    }
}

struct P4Sink;
impl HostProgram for P4Sink {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, 1, (0, 4096)));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        api.mark("forwarded");
    }
}

struct P4Source;
impl HostProgram for P4Source {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let data = vec![0xAB; 4096];
        api.write_host(0, &data);
        api.put(PutArgs::from_host(1, 0, 1, 0, 4096));
    }
}

#[test]
fn triggered_put_forwards_without_host() {
    let out = SimBuilder::new(MachineConfig::discrete())
        .add_node(Box::new(P4Source))
        .add_node(Box::new(P4Forwarder))
        .add_node(Box::new(P4Sink))
        .run();
    out.report.mark(2, "forwarded").expect("chain completed");
    assert_eq!(out.world.nodes[2].mem.read(0, 4096).unwrap()[100], 0xAB);
    // The middle host was stopped the whole time: forwarding was NIC-only.
}

// ---------------------------------------------------------------- flow control

struct UnexpectedSender;
impl HostProgram for UnexpectedSender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        // The second put arrives while the entry is still disabled.
        api.put(PutArgs::inline(1, 0, 123, vec![1, 2, 3]));
        api.put(PutArgs::inline(1, 0, 123, vec![4, 5, 6]));
    }
}

struct FlowControlledReceiver;
impl HostProgram for FlowControlledReceiver {
    fn on_start(&mut self, _api: &mut HostApi<'_>) {
        // No ME posted: the first message hits flow control.
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::PtDisabled);
        api.mark("pt_disabled");
        api.pt_enable(0);
    }
}

#[test]
fn missing_me_triggers_flow_control() {
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(UnexpectedSender))
        .add_node(Box::new(FlowControlledReceiver))
        .run();
    out.report
        .mark(1, "pt_disabled")
        .expect("flow control event");
    // One header hit flow control, and one was dropped at the disabled
    // entry.
    assert_eq!(out.report.node_stats[1].flow_control_events, 1);
    assert_eq!(out.report.node_stats[1].packets_dropped, 1);
    assert!(out.world.nodes[1].nic.ni.pt_enabled(0), "re-enabled");
}

// ------------------------------------------------- sPIN context exhaustion

struct SlowHandlerReceiver;
impl HostProgram for SlowHandlerReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let hpu = api.hpu_alloc(8, None);
        let handlers = FnHandlers::new()
            .on_payload(|ctx, _args, _state| {
                ctx.compute_cycles(2_500_000); // 1 ms per packet: way over line rate
                Ok(PayloadRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, 9, (0, 1 << 22)).with_handlers(handlers, hpu));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        if ev.kind == EventKind::PtDisabled {
            api.mark("overloaded");
        }
    }
}

struct BigSender;
impl HostProgram for BigSender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.put(PutArgs::from_host(1, 0, 9, 0, 1 << 21)); // 512 packets
    }
}

#[test]
fn slow_handlers_trigger_flow_control_mid_message() {
    let mut config = MachineConfig::integrated();
    config.hpu.cores = 2;
    config.hpu.contexts_per_hpu = 2;
    let out = SimBuilder::new(config)
        .add_node(Box::new(BigSender))
        .add_node(Box::new(SlowHandlerReceiver))
        .run();
    out.report
        .mark(1, "overloaded")
        .expect("flow control fired");
    let stats = &out.report.node_stats[1];
    assert!(stats.hpu_rejected > 0, "admissions were rejected");
    assert!(
        stats.handler_runs.1 < 512,
        "not all packets were processed: {}",
        stats.handler_runs.1
    );
}

// ---------------------------------------------------------------- timers

struct TimerProgram {
    fired: u64,
}
impl HostProgram for TimerProgram {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.set_timer(Time::from_us(5), 1);
        api.set_timer(Time::from_us(10), 2);
    }
    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        self.fired += 1;
        assert_eq!(token, self.fired);
        if token == 2 {
            api.mark("done");
            api.record("fired", self.fired as f64);
        }
    }
}

#[test]
fn timers_fire_in_order() {
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(TimerProgram { fired: 0 }))
        .run();
    assert_eq!(out.report.mark(0, "done"), Some(Time::from_us(10)));
    assert_eq!(out.report.value(0, "fired"), Some(2.0));
}

// ---------------------------------------------------------- host memory ops

struct CopyProgram;
impl HostProgram for CopyProgram {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(0, &[7u8; 1 << 20]);
        api.memcpy(1 << 20, 0, 1 << 20);
        api.mark("copied");
    }
}

#[test]
fn memcpy_charges_bandwidth() {
    let out = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(CopyProgram))
        .run();
    let t = out.report.mark(0, "copied").unwrap();
    // 2 MiB through 150 GiB/s ≈ 13 us.
    assert!((t.us() - 13.02).abs() < 0.5, "{t}");
    assert_eq!(out.world.nodes[0].mem.read(1 << 20, 1).unwrap()[0], 7);
    assert_eq!(out.report.node_stats[0].host_mem_bytes, 2 << 20);
}

// ------------------------------------------------------------- noise

struct NoisySender;
impl HostProgram for NoisySender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        for _ in 0..2000 {
            api.compute(Time::from_us(1));
        }
        api.mark("done");
    }
}

#[test]
fn noise_stretches_host_compute() {
    let quiet = SimBuilder::new(MachineConfig::integrated())
        .add_node(Box::new(NoisySender))
        .run();
    let mut noisy_cfg = MachineConfig::integrated();
    noisy_cfg.noise = Some(spin_sim::noise::NoiseModel::daemon_25us());
    let noisy = SimBuilder::new(noisy_cfg)
        .add_node(Box::new(NoisySender))
        .run();
    let tq = quiet.report.mark(0, "done").unwrap();
    let tn = noisy.report.mark(0, "done").unwrap();
    assert!(tn > tq, "noise must slow the host: {tq} vs {tn}");
    // ~5.9% intensity noise over 2 ms: expect a few percent stretch.
    let overhead = (tn.ps() as f64 - tq.ps() as f64) / tq.ps() as f64;
    assert!(overhead > 0.01 && overhead < 0.25, "{overhead}");
}

// ------------------------------------- forced completion-stage admissions

struct BackToBackSender;
impl HostProgram for BackToBackSender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(0, &[7u8; 64]);
        // Two single-packet messages close together: the second message's
        // completion stage lands while the first's (long) completion
        // handler still holds the only HPU context.
        api.put(PutArgs::from_host(1, 0, 9, 0, 64));
        api.put(PutArgs::from_host(1, 0, 9, 0, 64));
    }
}

struct SlowCompletionReceiver;
impl HostProgram for SlowCompletionReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let handlers = FnHandlers::new()
            .on_completion(|ctx, _info, _state| {
                // ~50 us of teardown work per message.
                ctx.compute_cycles(125_000);
                Ok(spin_hpu::ctx::CompletionRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, 9, (0, 4096)).with_stateless_handlers(handlers));
    }
}

#[test]
fn completion_context_exhaustion_is_counted() {
    let mut config = MachineConfig::integrated();
    config.hpu.cores = 1;
    config.hpu.contexts_per_hpu = 1;
    config.hpu.yield_on_dma = false;
    let out = SimBuilder::new(config)
        .add_node(Box::new(BackToBackSender))
        .add_node(Box::new(SlowCompletionReceiver))
        .run();
    let stats = &out.report.node_stats[1];
    assert_eq!(stats.handler_runs.2, 2, "both completion handlers ran");
    assert!(
        stats.forced_completion_admissions >= 1,
        "the second completion was forced: {stats:?}"
    );
    // The forced admission is not silent flow control: no packets dropped.
    assert_eq!(stats.packets_dropped, 0);
}
