//! Ping-pong latency (§4.4.1, Fig. 3a–3c).
//!
//! Four variants, exactly the paper's:
//!
//! * **RDMA** — the destination CPU polls for the completion of the ping,
//!   then posts the pong (charged `o`, exposed to noise);
//! * **P4** — the pong is a pre-set-up triggered put fired by the ping's
//!   counter; data still round-trips host memory via DMA;
//! * **sPIN store** — single-packet pings are answered by the payload
//!   handler with a put-from-device; multi-packet pings take `PROCEED`
//!   (deposit to host) and the completion handler issues a put-from-host
//!   (Appendix C.3.1 with `STREAMING == 0`);
//! * **sPIN stream** — every packet is answered immediately with a
//!   put-from-device, splitting a multi-packet ping into single-packet
//!   pongs that never touch host memory (`STREAMING == 1`).

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{SimBuilder, SimOutput};
use spin_hpu::ctx::{CompletionRet, HeaderRet, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};
use spin_sim::time::Time;

/// Ping-pong transport variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingPongMode {
    /// Host-driven reply.
    Rdma,
    /// Triggered-operation reply.
    P4,
    /// Appendix C.3.1 handlers with `STREAMING == 0`.
    SpinStore,
    /// Appendix C.3.1 handlers with `STREAMING == 1`.
    SpinStream,
}

impl PingPongMode {
    /// All four variants.
    pub const ALL: [PingPongMode; 4] = [
        PingPongMode::Rdma,
        PingPongMode::P4,
        PingPongMode::SpinStore,
        PingPongMode::SpinStream,
    ];

    /// Series label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PingPongMode::Rdma => "RDMA",
            PingPongMode::P4 => "P4",
            PingPongMode::SpinStore => "sPIN(store)",
            PingPongMode::SpinStream => "sPIN(stream)",
        }
    }
}

const PING_TAG: u64 = 10;
const PONG_TAG: u64 = 20;
/// Ping region at both nodes.
const PING_OFF: usize = 0;
/// Pong landing region at the client.
const PONG_OFF: usize = 1 << 21;

struct Client {
    bytes: usize,
    rounds: u32,
    round: u32,
    /// Pong arrives as 1 message (store/host modes) or as one message per
    /// packet (stream mode).
    events_per_round: u32,
    events_seen: u32,
    t_post: Time,
    total_ps: u64,
}

impl Client {
    fn post_ping(&mut self, api: &mut HostApi<'_>) {
        self.t_post = api.now();
        api.put(PutArgs::from_host(1, 0, PING_TAG, PING_OFF, self.bytes));
    }
}

impl HostProgram for Client {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(PING_OFF, &crate::pattern(self.bytes, 1, 253));
        api.me_append(MeSpec::recv(0, PONG_TAG, (PONG_OFF, self.bytes.max(1))));
        self.post_ping(api);
    }

    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put, "unexpected event {:?}", ev.kind);
        self.events_seen += 1;
        if self.events_seen < self.events_per_round {
            return;
        }
        self.events_seen = 0;
        self.round += 1;
        let rtt = api.now() - self.t_post;
        self.total_ps += rtt.ps();
        if self.round >= self.rounds {
            let mean_half_us = self.total_ps as f64 / self.rounds as f64 / 2.0 / 1e6;
            api.record("half_rtt_us", mean_half_us);
            api.mark("done");
        } else {
            self.post_ping(api);
        }
    }
}

struct RdmaServer {
    bytes: usize,
}
impl HostProgram for RdmaServer {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(0, PING_TAG, (PING_OFF, self.bytes.max(1))));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        // Poll + matching happened; post the pong from host memory.
        api.put(PutArgs::from_host(0, 0, PONG_TAG, PING_OFF, self.bytes));
    }
}

struct P4Server {
    bytes: usize,
    rounds: u32,
}
impl HostProgram for P4Server {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let ct = api.ct_alloc();
        api.me_append(MeSpec::recv(0, PING_TAG, (PING_OFF, self.bytes.max(1))).with_ct(ct));
        // Pre-set-up one triggered pong per round (the Portals 4 NISA way).
        for k in 1..=self.rounds {
            api.triggered_put(
                PutArgs::from_host(0, 0, PONG_TAG, PING_OFF, self.bytes),
                ct,
                k as u64,
            );
        }
        api.stop(); // the host never participates again
    }
}

/// HPU shared-memory layout for the Appendix C.3.1 handler state
/// (`pingpong_info_t`): offset, source, length, stream flag.
mod state {
    pub const SOURCE: usize = 0;
    pub const LENGTH: usize = 8;
    pub const STREAM: usize = 16;
    pub const SIZE: usize = 24;
}

struct SpinServer {
    bytes: usize,
    streaming: bool,
}
impl HostProgram for SpinServer {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let mtu = api.config().net.mtu;
        let streaming = self.streaming;
        let hpu = api.hpu_alloc(state::SIZE, None);
        let handlers = FnHandlers::new()
            .on_header(move |ctx, args, st| {
                ctx.compute_cycles(6); // branch + field loads
                st.put_u64(state::SOURCE, args.header.source_id as u64)?;
                st.put_u64(state::LENGTH, args.header.length as u64)?;
                // Appendix C.3.1 prints `length > PTL_MAX_SIZE || !STREAMING`
                // for the store branch, but the text defines streaming as
                // splitting *multi-packet* pings into per-packet pongs; the
                // intended condition is `&&` (store only when multi-packet
                // AND streaming is off). Single-packet messages always reply
                // from the device ("a pong can be issued with a put from
                // device", §4.4.1).
                if args.header.length > mtu && !streaming {
                    st.put_u64(state::STREAM, 0)?;
                    Ok(HeaderRet::Proceed)
                } else {
                    st.put_u64(state::STREAM, 1)?;
                    Ok(HeaderRet::ProcessData)
                }
            })
            .on_payload(|ctx, args, st| {
                let src = st.get_u64(state::SOURCE)? as u32;
                ctx.put_from_device(args.data, src, PONG_TAG, args.offset, 0)?;
                Ok(PayloadRet::Success)
            })
            .on_completion(|ctx, _info, st| {
                let stream = st.get_u64(state::STREAM)? != 0;
                if !stream {
                    let src = st.get_u64(state::SOURCE)? as u32;
                    let len = st.get_u64(state::LENGTH)? as usize;
                    ctx.put_from_host(0, len, src, PONG_TAG, 0, 0)?;
                }
                Ok(CompletionRet::Success)
            })
            .build();
        api.me_append(
            MeSpec::recv(0, PING_TAG, (PING_OFF, self.bytes.max(1))).with_handlers(handlers, hpu),
        );
    }
}

/// Number of completion events the client sees per round for a given mode
/// and message size.
fn events_per_round(mode: PingPongMode, bytes: usize, mtu: usize) -> u32 {
    match mode {
        PingPongMode::SpinStream => bytes.div_ceil(mtu).max(1) as u32,
        PingPongMode::SpinStore if bytes <= mtu => 1,
        _ => 1,
    }
}

/// Run one ping-pong configuration; returns the mean half round-trip in µs.
pub fn run(config: MachineConfig, mode: PingPongMode, bytes: usize, rounds: u32) -> f64 {
    let out = run_full(config, mode, bytes, rounds);
    out.report
        .value(0, "half_rtt_us")
        .expect("ping-pong did not complete")
}

/// Run and return the full simulation output (tests inspect memory/stats).
pub fn run_full(config: MachineConfig, mode: PingPongMode, bytes: usize, rounds: u32) -> SimOutput {
    builder(config, mode, bytes, rounds).run()
}

/// Build the two-node ping-pong world (client rank 0, server rank 1)
/// without running it, so callers can pick the engine (or embed it in a
/// scenario). Sizes host memory for the payload.
pub fn builder(
    mut config: MachineConfig,
    mode: PingPongMode,
    bytes: usize,
    rounds: u32,
) -> SimBuilder {
    config.host.mem_size = (PONG_OFF + bytes.max(4096)) * 2;
    let mtu = config.net.mtu;
    let client = Client {
        bytes,
        rounds,
        round: 0,
        events_per_round: events_per_round(mode, bytes, mtu),
        events_seen: 0,
        t_post: Time::ZERO,
        total_ps: 0,
    };
    let server: Box<dyn HostProgram + Send> = match mode {
        PingPongMode::Rdma => Box::new(RdmaServer { bytes }),
        PingPongMode::P4 => Box::new(P4Server { bytes, rounds }),
        PingPongMode::SpinStore => Box::new(SpinServer {
            bytes,
            streaming: false,
        }),
        PingPongMode::SpinStream => Box::new(SpinServer {
            bytes,
            streaming: true,
        }),
    };
    SimBuilder::new(config)
        .add_node(Box::new(client))
        .add_node(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;
    use spin_hpu::memory::HOST_PAGE;

    fn cfg() -> MachineConfig {
        MachineConfig::paper(NicKind::Integrated)
    }

    #[test]
    fn all_modes_complete_small() {
        for mode in PingPongMode::ALL {
            let t = run(cfg(), mode, 8, 3);
            assert!(t > 0.1 && t < 5.0, "{mode:?}: {t}");
        }
    }

    #[test]
    fn pong_payload_round_trips() {
        let out = run_full(cfg(), PingPongMode::SpinStream, 10_000, 1);
        let got = out.world.nodes[0].mem.read(PONG_OFF, 10_000).unwrap();
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8));
    }

    #[test]
    fn streamed_pongs_land_as_the_clients_own_ping_pages() {
        // The server forwards each ping packet with put-from-device, which
        // sends the packet buffer itself, and the packet is one whole page
        // of the client's ping region; so the pong deposit adopts that page
        // instead of copying it.
        let bytes = 3 * HOST_PAGE;
        let out = run_full(cfg(), PingPongMode::SpinStream, bytes, 3);
        let mem = &out.world.nodes[0].mem;
        for page in 0..3 {
            let at = page * HOST_PAGE;
            let ping = mem.read_bytes(PING_OFF + at, HOST_PAGE).unwrap();
            let pong = mem.read_bytes(PONG_OFF + at, HOST_PAGE).unwrap();
            assert_eq!(pong.as_ptr(), ping.as_ptr(), "page {page} is shared");
            assert_eq!(&pong[..], &ping[..]);
        }
    }

    #[test]
    fn spin_beats_rdma_small_messages() {
        // Fig. 3b: sPIN replies from the device, skipping the host round
        // trip; RDMA pays DMA + event dispatch + o.
        let rdma = run(cfg(), PingPongMode::Rdma, 64, 5);
        let spin = run(cfg(), PingPongMode::SpinStream, 64, 5);
        assert!(spin < rdma, "spin={spin} rdma={rdma}");
    }

    #[test]
    fn p4_between_rdma_and_spin_small() {
        let rdma = run(cfg(), PingPongMode::Rdma, 64, 5);
        let p4 = run(cfg(), PingPongMode::P4, 64, 5);
        let spin = run(cfg(), PingPongMode::SpinStream, 64, 5);
        assert!(p4 < rdma, "p4={p4} rdma={rdma}");
        assert!(spin < p4, "spin={spin} p4={p4}");
    }

    #[test]
    fn streaming_wins_large_messages() {
        // Fig. 3b/3c: large messages benefit from never committing data to
        // host memory.
        let store = run(cfg(), PingPongMode::SpinStore, 256 * 1024, 2);
        let stream = run(cfg(), PingPongMode::SpinStream, 256 * 1024, 2);
        assert!(stream < store, "stream={stream} store={store}");
    }

    #[test]
    fn store_single_packet_equals_stream() {
        // §4.4.3: store-and-forward sends sub-MTU messages from the device,
        // within 5% of streaming.
        let store = run(cfg(), PingPongMode::SpinStore, 512, 5);
        let stream = run(cfg(), PingPongMode::SpinStream, 512, 5);
        let rel = (store - stream).abs() / stream;
        assert!(rel < 0.05, "store={store} stream={stream} rel={rel}");
    }

    #[test]
    fn discrete_slower_than_integrated_for_rdma() {
        // Fig. 3c vs 3b: the discrete NIC's 250 ns DMA hurts host-touching
        // variants.
        let int = run(MachineConfig::integrated(), PingPongMode::Rdma, 4096, 3);
        let dis = run(MachineConfig::discrete(), PingPongMode::Rdma, 4096, 3);
        assert!(dis > int, "dis={dis} int={int}");
    }

    #[test]
    fn spin_less_sensitive_to_nic_kind_than_rdma() {
        // Fig. 3b vs 3c: both suffer from the discrete NIC's 250 ns DMA at
        // the *client* deposit, but RDMA also pays it at the server (deposit
        // + triggered read), so its int→dis gap is larger.
        let spin_gap = run(MachineConfig::discrete(), PingPongMode::SpinStream, 64, 3)
            - run(MachineConfig::integrated(), PingPongMode::SpinStream, 64, 3);
        let rdma_gap = run(MachineConfig::discrete(), PingPongMode::Rdma, 64, 3)
            - run(MachineConfig::integrated(), PingPongMode::Rdma, 64, 3);
        assert!(spin_gap > 0.0, "{spin_gap}");
        assert!(
            rdma_gap > spin_gap,
            "rdma_gap={rdma_gap} spin_gap={spin_gap}"
        );
    }
}
