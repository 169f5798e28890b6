//! Host-side model: CPU cores, memory bandwidth, noise, and the host
//! program abstraction.
//!
//! A [`HostProgram`] is the simulated application process on one node: an
//! event-driven state machine that reacts to start/event/timer callbacks and
//! issues Portals calls through [`HostApi`]. Every call charges the paper's
//! injection overhead `o` on a host core (stretched by OS noise when noise
//! injection is enabled), which is exactly how the RDMA baselines acquire
//! their host-side serialization — and what the P4/sPIN offloaded paths
//! avoid.

use crate::config::MachineConfig;
use crate::handlers::HandlerSet;
use crate::msg::{OutMsg, PayloadSpec};
use crate::world::{Ev, World};
use bytes::Bytes;
use spin_hpu::memory::MemSlice;
use spin_portals::ct::{CtEvent, CtHandle, TriggeredAction, TriggeredOp};
use spin_portals::eq::FullEvent;
use spin_portals::me::{HandlerRef, ListKind, MatchEntry, MeHandle, MeOptions};
use spin_portals::types::{AckReq, MatchBits, OpKind, ProcessId, UserHeader, ANY_PROCESS};
use spin_sim::engine::EventQueue;
use spin_sim::noise::NoiseSource;
use spin_sim::resource::{BandwidthChannel, PooledResource};
use spin_sim::time::Time;

/// Host-side per-node state.
pub struct Host {
    /// CPU cores.
    pub cores: PooledResource,
    /// Shared host memory bandwidth (CPU-side copies/compute).
    pub mem_bw: BandwidthChannel,
    /// OS noise source for this node's cores.
    pub noise: NoiseSource,
    /// The application process (taken out during callbacks). `Send` so a
    /// whole node can move to a shard worker thread.
    pub program: Option<Box<dyn HostProgram + Send>>,
    /// Set when the program called [`HostApi::stop`].
    pub stopped: bool,
    /// Set while a scheduled `FaultKind::NodeCrash` holds the node down:
    /// no callbacks are delivered, and arriving traffic bounces (NACK) or
    /// drops until the matching `NodeRestart`. Distinct from `stopped` —
    /// a stopped program finished cleanly and its NIC still answers.
    pub crashed: bool,
}

impl Host {
    /// Build per the machine configuration with the given noise source.
    pub fn new(config: &MachineConfig, noise: NoiseSource) -> Self {
        Host {
            cores: PooledResource::new(config.host.cores),
            mem_bw: BandwidthChannel::new(config.host.mem_bandwidth),
            noise,
            program: None,
            stopped: false,
            crashed: false,
        }
    }
}

/// A simulated application process.
///
/// Callbacks receive a [`HostApi`] whose time cursor starts at the callback's
/// dispatch time; API calls advance it as they charge host resources.
pub trait HostProgram {
    /// Called once at simulation start.
    fn on_start(&mut self, api: &mut HostApi<'_>);

    /// Called when a full event (message arrival, ack, reply, flow control)
    /// reaches this process.
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        let _ = (ev, api);
    }

    /// Called when a timer set via [`HostApi::set_timer`] fires.
    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        let _ = (token, api);
    }
}

/// Arguments for a host-initiated put.
#[derive(Debug, Clone)]
pub struct PutArgs {
    /// Destination process.
    pub target: ProcessId,
    /// Portal table entry at the target.
    pub pt: u32,
    /// Match bits.
    pub match_bits: MatchBits,
    /// Offset at the target ME.
    pub remote_offset: usize,
    /// Out-of-band header data.
    pub hdr_data: u64,
    /// User header prepended to the payload.
    pub user_hdr: UserHeader,
    /// Acknowledgement request.
    pub ack: AckReq,
    /// Payload source.
    pub payload: PayloadSpec,
}

impl PutArgs {
    /// A put of `len` bytes from host memory at `offset`.
    pub fn from_host(
        target: ProcessId,
        pt: u32,
        match_bits: MatchBits,
        offset: usize,
        len: usize,
    ) -> Self {
        PutArgs {
            target,
            pt,
            match_bits,
            remote_offset: 0,
            hdr_data: 0,
            user_hdr: UserHeader::empty(),
            ack: AckReq::None,
            payload: PayloadSpec::HostRegion {
                offset,
                len,
                charge_dma: false,
            },
        }
    }

    /// A put of inline bytes (control messages).
    pub fn inline(target: ProcessId, pt: u32, match_bits: MatchBits, bytes: Vec<u8>) -> Self {
        PutArgs {
            payload: PayloadSpec::Inline(Bytes::from(bytes)),
            ..Self::from_host(target, pt, match_bits, 0, 0)
        }
    }

    /// Request a full ack.
    pub fn with_ack(mut self) -> Self {
        self.ack = AckReq::Ack;
        self
    }

    /// Attach a user header.
    pub fn with_user_hdr(mut self, h: UserHeader) -> Self {
        self.user_hdr = h;
        self
    }

    /// Set hdr_data.
    pub fn with_hdr_data(mut self, d: u64) -> Self {
        self.hdr_data = d;
        self
    }

    /// Set the remote offset.
    pub fn at_remote_offset(mut self, off: usize) -> Self {
        self.remote_offset = off;
        self
    }
}

/// Specification of a matching entry posted from the host
/// (`PtlMEAppend` with the sPIN extensions of Appendix B.1).
#[derive(Clone)]
pub struct MeSpec {
    /// Portal table entry to append to.
    pub pt: u32,
    /// Match bits.
    pub match_bits: MatchBits,
    /// Ignore mask.
    pub ignore_bits: MatchBits,
    /// Source filter (`ANY_PROCESS` = wildcard).
    pub source: ProcessId,
    /// ME memory region: absolute host offset and length.
    pub region: (usize, usize),
    /// Behaviour options.
    pub options: MeOptions,
    /// Which list to append to.
    pub list: ListKind,
    /// Counting event to attach.
    pub ct: Option<CtHandle>,
    /// sPIN handlers to install.
    pub handlers: Option<HandlerSet>,
    /// HPU shared-memory handle the handlers run in.
    pub hpu_mem: Option<u32>,
    /// Auxiliary handler host-memory window (absolute base, len).
    pub handler_region: (usize, usize),
    /// Opaque pointer returned in events.
    pub user_ptr: u64,
}

impl MeSpec {
    /// A persistent receive ME over `region` matching `match_bits` exactly.
    pub fn recv(pt: u32, match_bits: MatchBits, region: (usize, usize)) -> Self {
        MeSpec {
            pt,
            match_bits,
            ignore_bits: 0,
            source: ANY_PROCESS,
            region,
            options: MeOptions::default(),
            list: ListKind::Priority,
            ct: None,
            handlers: None,
            hpu_mem: None,
            handler_region: (0, 0),
            user_ptr: 0,
        }
    }

    /// Make it one-shot (`USE_ONCE`).
    pub fn once(mut self) -> Self {
        self.options.use_once = true;
        self
    }

    /// Attach sPIN handlers with their HPU memory.
    pub fn with_handlers(mut self, h: HandlerSet, hpu_mem: u32) -> Self {
        self.handlers = Some(h);
        self.hpu_mem = Some(hpu_mem);
        self
    }

    /// Attach handlers that keep no cross-packet state (they receive a
    /// zero-length scratch memory). Saves the `PtlHPUAllocMem` control-path
    /// interaction; §B.2 notes HPU memory can also be shared across MEs.
    pub fn with_stateless_handlers(mut self, h: HandlerSet) -> Self {
        self.handlers = Some(h);
        self.hpu_mem = None;
        self
    }

    /// Attach the auxiliary handler host region.
    pub fn with_handler_region(mut self, base: usize, len: usize) -> Self {
        self.handler_region = (base, len);
        self
    }

    /// Attach a counting event.
    pub fn with_ct(mut self, ct: CtHandle) -> Self {
        self.ct = Some(ct);
        self
    }

    /// Restrict the accepted source.
    pub fn from_source(mut self, src: ProcessId) -> Self {
        self.source = src;
        self
    }

    /// Set the ignore mask.
    pub fn with_ignore(mut self, ignore: MatchBits) -> Self {
        self.ignore_bits = ignore;
        self
    }

    /// Set the user pointer.
    pub fn with_user_ptr(mut self, p: u64) -> Self {
        self.user_ptr = p;
        self
    }

    /// Append to the overflow list.
    pub fn overflow(mut self) -> Self {
        self.list = ListKind::Overflow;
        self
    }
}

/// The API a host program drives the machine through.
///
/// Each call that involves the NIC charges the injection overhead `o` on a
/// host core and advances the program's time cursor; memory operations
/// charge host memory bandwidth. This is the LogGOPS host model.
pub struct HostApi<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) q: &'a mut EventQueue<Ev>,
    pub(crate) node: ProcessId,
    pub(crate) cursor: Time,
}

impl<'a> HostApi<'a> {
    /// This process's rank.
    pub fn rank(&self) -> ProcessId {
        self.node
    }

    /// Number of processes in the simulation.
    pub fn nprocs(&self) -> u32 {
        self.world.nodes.len() as u32
    }

    /// The program's current time cursor.
    pub fn now(&self) -> Time {
        self.cursor
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.world.config
    }

    /// Charge `work` of CPU time on a core (noise-stretched), advancing the
    /// cursor. Returns the interval actually occupied.
    pub fn compute(&mut self, work: Time) -> (Time, Time) {
        let node = &mut self.world.nodes[self.node as usize];
        let stretched = node.host.noise.stretch(self.cursor, work);
        let (_, start, end) = node.host.cores.reserve(self.cursor, stretched);
        self.world
            .gantt
            .record(self.node, "CPU", start, end, 'o', || "compute");
        self.cursor = end;
        (start, end)
    }

    fn charge_o(&mut self, label: &'static str) {
        let o = self.world.config.net.o;
        let node = &mut self.world.nodes[self.node as usize];
        let stretched = node.host.noise.stretch(self.cursor, o);
        let (_, start, end) = node.host.cores.reserve(self.cursor, stretched);
        self.world
            .gantt
            .record(self.node, "CPU", start, end, 'o', || label);
        self.cursor = end;
    }

    /// Post a put (`PtlPut`). Charges `o`; the message enters the NIC send
    /// path when the call completes.
    pub fn put(&mut self, args: PutArgs) {
        self.charge_o("put");
        let msg = OutMsg {
            remote_offset: args.remote_offset,
            hdr_data: args.hdr_data,
            user_hdr: args.user_hdr,
            ..OutMsg::new(
                self.node,
                args.target,
                OpKind::Put,
                args.pt,
                args.match_bits,
                args.payload,
            )
        }
        .acked(args.ack);
        self.q
            .post_at(self.cursor, Ev::NicInject(self.node, Box::new(msg)));
    }

    /// Post a get (`PtlGet`): fetch `len` bytes matched by
    /// `(pt, match_bits)` at `target` (offset `remote_offset`) into local
    /// host memory at `local_offset`. A `Reply` event arrives when done.
    pub fn get(
        &mut self,
        target: ProcessId,
        pt: u32,
        match_bits: MatchBits,
        remote_offset: usize,
        len: usize,
        local_offset: usize,
    ) {
        self.charge_o("get");
        let msg = OutMsg::get(
            self.node,
            target,
            pt,
            match_bits,
            remote_offset,
            len,
            local_offset,
        );
        self.q
            .post_at(self.cursor, Ev::NicInject(self.node, Box::new(msg)));
    }

    /// Append a matching entry (`PtlMEAppend`, with handler installation per
    /// Appendix B.1). Charges `o` (control-path interaction with the NIC).
    pub fn me_append(&mut self, spec: MeSpec) -> MeHandle {
        self.charge_o("me_append");
        let node = &mut self.world.nodes[self.node as usize];
        let handler_ref = spec.handlers.map(|h| {
            // Reuse an existing registration of the same handler set.
            let existing = node
                .nic
                .handlers
                .iter()
                .position(|e| std::sync::Arc::ptr_eq(e, &h));
            let idx = match existing {
                Some(i) => i as u32,
                None => node.nic.register_handlers(h),
            };
            HandlerRef(idx)
        });
        let me = MatchEntry {
            handle: MeHandle(0),
            match_bits: spec.match_bits,
            ignore_bits: spec.ignore_bits,
            source: spec.source,
            start: spec.region.0,
            length: spec.region.1,
            options: spec.options,
            local_offset: 0,
            ct: spec.ct.map(|c| c.0),
            handlers: handler_ref,
            hpu_memory: spec.hpu_mem,
            handler_mem: spec.handler_region,
            user_ptr: spec.user_ptr,
            // The append is NIC-visible only once the charged call
            // completes: a header matched before the cursor must miss it.
            active_at: self.cursor.ps(),
        };
        node.nic
            .ni
            .me_append(spec.pt, me, spec.list)
            .expect("ME limit exhausted")
    }

    /// Unlink an ME.
    pub fn me_unlink(&mut self, pt: u32, h: MeHandle) -> bool {
        self.charge_o("me_unlink");
        self.world.nodes[self.node as usize].nic.ni.me_unlink(pt, h)
    }

    /// Allocate HPU shared memory (`PtlHPUAllocMem`).
    pub fn hpu_alloc(&mut self, len: usize, init: Option<&[u8]>) -> u32 {
        self.charge_o("hpu_alloc");
        self.world.nodes[self.node as usize]
            .nic
            .hpu_alloc(len, init)
    }

    /// Allocate a counting event.
    pub fn ct_alloc(&mut self) -> CtHandle {
        self.world.nodes[self.node as usize].nic.ni.ct_alloc()
    }

    /// Read a counter (host-side poll; charges one DRAM access).
    pub fn ct_get(&mut self, ct: CtHandle) -> CtEvent {
        let lat = self.world.config.host.dram_latency;
        self.cursor += lat;
        self.world.nodes[self.node as usize].nic.ni.ct_get(ct)
    }

    /// Attach a triggered put to a counter (`PtlTriggeredPut`).
    pub fn triggered_put(&mut self, args: PutArgs, ct: CtHandle, threshold: u64) {
        self.charge_o("triggered_put");
        let (local_offset, length) = match args.payload {
            PayloadSpec::HostRegion { offset, len, .. } => (offset, len),
            _ => panic!("triggered puts send host memory"),
        };
        let op = TriggeredOp {
            threshold,
            action: TriggeredAction::Put {
                pt: args.pt,
                local_offset,
                length,
                target: args.target,
                match_bits: args.match_bits,
                remote_offset: args.remote_offset,
                hdr_data: args.hdr_data,
                user_hdr: args.user_hdr,
                ack: args.ack,
            },
        };
        let fired = self.world.nodes[self.node as usize]
            .nic
            .ni
            .ct_append_triggered(ct, op);
        for action in fired {
            self.q
                .post_at(self.cursor, Ev::Triggered(self.node, Box::new(action)));
        }
    }

    /// Attach a triggered counter increment (`PtlTriggeredCTInc`).
    pub fn triggered_ct_inc(&mut self, watch: CtHandle, threshold: u64, target: CtHandle, by: u64) {
        self.charge_o("triggered_ct_inc");
        let op = TriggeredOp {
            threshold,
            action: TriggeredAction::CtInc {
                ct: target,
                increment: by,
            },
        };
        let fired = self.world.nodes[self.node as usize]
            .nic
            .ni
            .ct_append_triggered(watch, op);
        for action in fired {
            self.q
                .post_at(self.cursor, Ev::Triggered(self.node, Box::new(action)));
        }
    }

    /// Re-enable a portal table entry after flow control (`PtlPTEnable`).
    /// With recovery enabled, the host-managed episode is charged to the
    /// same disabled-time accounting the NIC's drain-and-re-enable uses.
    pub fn pt_enable(&mut self, pt: u32) {
        self.charge_o("pt_enable");
        let node = &mut self.world.nodes[self.node as usize];
        // Effective only once the charged call completes — headers racing
        // the re-enable still bounce (and are NACKed under recovery).
        node.nic.ni.pt_enable_at(pt, self.cursor.ps());
        if let Some(disabled_at) = node.nic.recovery.drain_resolved(pt) {
            node.nic.stats.pt_reenables += 1;
            node.nic.stats.pt_disabled_ns += self.cursor.saturating_sub(disabled_at).ns();
            let n = self.node;
            let end = self.cursor;
            self.world.gantt.record(n, "PT", disabled_at, end, 'x', || {
                format!("pt{pt} disabled")
            });
        }
    }

    /// Copy `len` bytes within host memory, charging CPU + memory bandwidth
    /// (read + write streams). This is the cost the RDMA baselines pay for
    /// every staging copy (§5.1's "copy overhead of up to 30%").
    pub fn memcpy(&mut self, dst: usize, src: usize, len: usize) {
        let node = &mut self.world.nodes[self.node as usize];
        let (start, end) = node.host.mem_bw.reserve(self.cursor, 2 * len);
        node.host.cores.reserve(self.cursor, end - self.cursor);
        // Snapshot then scatter through page views: page-aligned spans
        // move by refcount instead of byte copies (the timing charge above
        // is unchanged — this only cuts simulator-host work).
        let data = node.mem.read_slice(src, len).expect("memcpy source");
        node.mem
            .write_slice(dst, &data)
            .expect("memcpy destination");
        self.world
            .gantt
            .record(self.node, "MEM", start, end, 'm', || "memcpy");
        self.cursor = end;
    }

    /// A CPU pass streaming `read_bytes` in and `write_bytes` out while
    /// spending `cycles` of ALU work (2.5 GHz): charges the larger of the
    /// bandwidth time and the compute time. Used for host-side accumulate /
    /// parity in the baselines. Purely a timing charge — the caller mutates
    /// memory itself via [`Self::write_host`].
    pub fn stream_compute(&mut self, read_bytes: usize, write_bytes: usize, cycles: u64) {
        let node = &mut self.world.nodes[self.node as usize];
        let (_, bw_end) = node
            .host
            .mem_bw
            .reserve(self.cursor, read_bytes + write_bytes);
        let alu = Time::from_ps(cycles * 400);
        let end = bw_end.max(self.cursor + alu);
        node.host.cores.reserve(self.cursor, end - self.cursor);
        self.world
            .gantt
            .record(self.node, "MEM", self.cursor, end, 'c', || "stream");
        self.cursor = end;
    }

    /// Zero-time host-memory write (workload setup / verification).
    pub fn write_host(&mut self, offset: usize, bytes: &[u8]) {
        self.world.nodes[self.node as usize]
            .mem
            .write(offset, bytes)
            .expect("write_host");
    }

    /// Zero-time host-memory write of a page view (workload setup). Whole
    /// aligned pages are adopted by reference, as a receive deposit adopts
    /// them ([`write_slice`](spin_hpu::memory::HostMemory::write_slice)),
    /// so many nodes can hold one constant buffer's pages until one of
    /// them writes there.
    pub fn write_host_slice(&mut self, offset: usize, slice: &MemSlice) {
        self.world.nodes[self.node as usize]
            .mem
            .write_slice(offset, slice)
            .expect("write_host_slice");
    }

    /// Zero-time host-memory read.
    pub fn read_host(&mut self, offset: usize, len: usize) -> Vec<u8> {
        self.world.nodes[self.node as usize]
            .mem
            .read(offset, len)
            .expect("read_host")
            .to_vec()
    }

    /// Advance the program's time cursor to `t` (no resource use) — models
    /// waiting for previously reserved work (e.g. a compute phase) to
    /// finish before acting on an event that was delivered mid-phase.
    pub fn advance_to(&mut self, t: Time) {
        if t > self.cursor {
            self.cursor = t;
        }
    }

    /// Record a named timestamp in the report.
    pub fn mark(&mut self, label: impl Into<String>) {
        let t = self.cursor;
        self.world.marks.push((self.node, label.into(), t));
    }

    /// Record a named value in the report.
    pub fn record(&mut self, label: impl Into<String>, value: f64) {
        self.world.values.push((self.node, label.into(), value));
    }

    /// Schedule an `on_timer(token)` callback `delay` after the cursor.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.q
            .post_at(self.cursor + delay, Ev::Timer(self.node, token));
    }

    /// Mark this process as finished (no more callbacks are delivered).
    pub fn stop(&mut self) {
        self.world.nodes[self.node as usize].host.stopped = true;
    }
}
