//! NIC-side runtime state: the Portals NI, the HPU pool, the channel CAM,
//! the DMA engine, handler/HPU-memory registries, and in-flight message
//! bookkeeping.
//!
//! The per-message [`Channel`] is what a matched header packet installs into
//! the CAM (§4.2): it records where the message lands, which handlers run,
//! and the assembly state the completion stage needs (packets processed,
//! dropped bytes, flow-control flag, latest processing finish time).

use crate::config::MachineConfig;
use crate::handlers::HandlerSet;
use crate::msg::Notify;
use crate::recovery::RecoveryManager;
use spin_hpu::cam::Cam;
use spin_hpu::dma::DmaEngine;
use spin_hpu::memory::HpuMemory;
use spin_hpu::pool::HpuPool;
use spin_portals::ct::CtHandle;
use spin_portals::eq::FullEvent;
use spin_portals::me::MeHandle;
use spin_portals::ni::PortalsNi;
use spin_portals::types::{AckReq, PtlHeader};
use spin_sim::time::Time;
use std::collections::HashMap;
use std::sync::Arc;

/// How the packets of a matched message are processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Default Portals/RDMA behaviour: DMA every packet into host memory.
    Rdma,
    /// sPIN: payload handlers process packets (header handler returned
    /// `PROCESS_DATA`).
    SpinProcess,
    /// sPIN: header handler returned `PROCEED` — default deposit, but the
    /// completion handler still runs.
    SpinProceed,
    /// Everything remaining is dropped (header handler `DROP`, or flow
    /// control hit this message).
    DropAll,
    /// Reply assembly at a get initiator: packets deposit at `reply_dest`.
    Reply,
}

/// Per-message processing state installed in the CAM.
#[derive(Clone)]
pub struct Channel {
    /// Processing mode.
    pub mode: DeliveryMode,
    /// Portal table entry the message matched on.
    pub pt: u32,
    /// The matched ME.
    pub me: MeHandle,
    /// ME region start in host memory (absolute).
    pub me_start: usize,
    /// ME region length.
    pub me_len: usize,
    /// Offset within the ME region where the message lands.
    pub dest_offset: usize,
    /// Accepted length.
    pub mlength: usize,
    /// Handlers installed on the ME (None = plain Portals).
    pub handlers: Option<HandlerSet>,
    /// HPU shared-memory handle the handlers run in.
    pub hpu_mem: Option<u32>,
    /// Auxiliary handler host region (absolute base, len).
    pub handler_region: (usize, usize),
    /// Total packets in the message.
    pub total_packets: u32,
    /// Retransmission attempt that installed this channel: follow-on
    /// packets of earlier attempts (stragglers of a flow-control-bounced
    /// transmission) are discarded instead of absorbed into the assembly.
    pub attempt: u32,
    /// Packets processed (or dropped) so far.
    pub processed: u32,
    /// Bytes of user header at the front of the payload.
    pub user_hdr_len: usize,
    /// When the header handler finished (payload handlers start after this).
    pub header_done: Time,
    /// Latest per-packet processing completion seen so far.
    pub last_done: Time,
    /// Payload bytes dropped (DROP returns + flow control).
    pub dropped_bytes: usize,
    /// Flow control hit during this message.
    pub flow_control: bool,
    /// A handler requested PENDING (do not complete the ME with this
    /// message).
    pub pending_me: bool,
    /// A handler error was already reported (only the first is, App. B.3).
    pub failed: bool,
    /// Message header (event generation) — shared with the packets of the
    /// message, so installing a channel never copies the header.
    pub header: Arc<PtlHeader>,
    /// Counting event attached to the ME.
    pub ct: Option<CtHandle>,
    /// ME user pointer (events).
    pub user_ptr: u64,
    /// Ack requested by the initiator.
    pub ack: AckReq,
    /// Initiator-side id of this message (for acks).
    pub src_msg_id: u64,
    /// For `Reply` mode: absolute host destination.
    pub reply_dest: usize,
    /// For `Reply` mode: what to notify on completion.
    pub notify: Notify,
    /// Whether the message matched on the overflow list (unexpected
    /// message): its completion event is `PutOverflow`.
    pub overflow: bool,
}

/// State kept at the initiator for each in-flight request.
#[derive(Debug, Clone)]
pub struct PendingSend {
    /// Completion notification.
    pub notify: Notify,
    /// For gets: where the reply deposits.
    pub reply_dest: usize,
    /// Requested length (gets).
    pub length: usize,
    /// Peer the request went to.
    pub peer: u32,
    /// Match bits of the request.
    pub match_bits: u64,
}

/// A completion event parked until a follow-up operation (the offloaded
/// rendezvous get of §5.1) finishes.
#[derive(Debug, Clone)]
pub struct DeferredCompletion {
    /// The event to deliver.
    pub event: FullEvent,
    /// Counter to bump when delivered.
    pub ct: Option<CtHandle>,
    /// Ack to send when delivered.
    pub ack: AckReq,
    /// Initiator of the original message (ack destination).
    pub ack_to: u32,
    /// Initiator-side id of the original message.
    pub src_msg_id: u64,
}

/// Counters the report exposes per NIC.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Messages that hit flow control.
    pub flow_control_events: u64,
    /// Packets dropped (flow control / disabled PT / evicted channels).
    pub packets_dropped: u64,
    /// Header handler executions.
    pub header_runs: u64,
    /// Payload handler executions.
    pub payload_runs: u64,
    /// Completion handler executions.
    pub completion_runs: u64,
    /// Handler errors reported.
    pub handler_errors: u64,
    /// Completion handlers forced onto core 0 because no HPU context was
    /// free at teardown time (§3.2: completion is part of message teardown
    /// and always runs — but context exhaustion at that point is a sizing
    /// signal, so it is counted rather than silently absorbed).
    pub forced_completion_admissions: u64,
    /// `PtDisabled` NACKs sent by this NIC as a flow-control target.
    pub nacks_sent: u64,
    /// `PtDisabled` NACKs received by this NIC as an initiator.
    pub recovery_nacks: u64,
    /// Backoff rounds entered (first NACK of an episode, or a failed probe).
    pub recovery_backoffs: u64,
    /// Probes retransmitted after a backoff expired.
    pub recovery_probes: u64,
    /// Messages retransmitted (probes + in-order replays).
    pub recovery_retransmits: u64,
    /// New sends held on the retransmit queue while their pair recovered.
    pub recovery_held: u64,
    /// Queued messages dropped after `max_probes` consecutive probe
    /// failures (the target never re-enabled: delivery failure).
    pub recovery_abandoned: u64,
    /// Portal table entries automatically re-enabled after draining.
    pub pt_reenables: u64,
    /// Aggregate time (ns) PTs spent disabled before automatic re-enable.
    pub pt_disabled_ns: f64,
    /// Packets dropped because a scheduled fault (dead link, failed
    /// switch, crashed peer, lossy degradation) killed them in the fabric.
    /// Subset of `packets_dropped`, attributed to the fault subsystem.
    pub drops_on_dead_link: u64,
    /// Messages that took a longer alternate path because part of the
    /// upper fabric was down (`PathState::Rerouted`).
    pub reroutes: u64,
    /// Times this node came back from a scheduled crash
    /// (`FaultKind::NodeRestart`).
    pub crash_recoveries: u64,
    /// Payload bytes re-transmitted by the recovery machinery: full replays
    /// (probe/replay after a NACK) plus selective tail resumes.
    pub retransmitted_bytes: u64,
}

/// The NIC runtime.
pub struct Nic {
    /// Portals substrate state.
    pub ni: PortalsNi,
    /// HPU cores.
    pub pool: HpuPool,
    /// Channel CAM.
    pub cam: Cam<Channel>,
    /// DMA engine to host memory.
    pub dma: DmaEngine,
    /// HPU shared-memory allocations (indexed by handle).
    pub hpu_mems: Vec<HpuMemory>,
    /// Zero-length scratch state handed to stateless handlers (no
    /// `hpu_mem` attached): one per NIC, reused across handler runs
    /// instead of constructing a fresh allocation per run.
    pub scratch: HpuMemory,
    /// Installed handler sets (indexed by `HandlerRef`).
    pub handlers: Vec<HandlerSet>,
    /// In-flight initiator-side requests by message id.
    pub pending_sends: HashMap<u64, PendingSend>,
    /// Parked completions by original message id.
    pub deferred: HashMap<u64, DeferredCompletion>,
    /// Closed-loop flow-control recovery state (§3.2 handshake).
    pub recovery: RecoveryManager,
    /// Counters.
    pub stats: NicStats,
    /// Per-NIC message-id counter (see [`Nic::next_msg_id`]).
    msg_seq: u64,
}

impl Nic {
    /// Build a NIC per the machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        Nic {
            ni: PortalsNi::new(config.num_pts),
            pool: HpuPool::new(config.hpu),
            cam: Cam::new(config.cam_capacity),
            dma: DmaEngine::new(config.nic.dma_params()),
            hpu_mems: Vec::new(),
            scratch: HpuMemory::alloc(0),
            handlers: Vec::new(),
            pending_sends: HashMap::new(),
            deferred: HashMap::new(),
            recovery: RecoveryManager::new(config.recovery),
            stats: NicStats::default(),
            msg_seq: 0,
        }
    }

    /// Tear down volatile NIC state on a scheduled node crash
    /// (`FaultKind::NodeCrash`): the Portals NI (MEs, PTs, CTs),
    /// channel CAM, HPU shared memory, in-flight send bookkeeping, and
    /// recovery episodes are lost; peers of in-flight traffic discover the
    /// crash through NACKs / probe exhaustion. What survives: the HPU pool
    /// and DMA engine (hardware, merely idle), accumulated stats,
    /// registered handler sets (the restart re-arms MEs against them), and
    /// the message-id counter — ids stay monotonic across the crash so
    /// replays after restart cannot collide with pre-crash ids still
    /// buffered at peers. Host memory is likewise preserved (a warm
    /// restart, not a reimage).
    pub fn crash_reset(&mut self, config: &MachineConfig) {
        self.ni = PortalsNi::new(config.num_pts);
        self.cam = Cam::new(config.cam_capacity);
        self.hpu_mems.clear();
        self.pending_sends.clear();
        self.deferred.clear();
        self.recovery.crash_reset();
    }

    /// The next message id originating at this NIC (rank `n`): the rank in
    /// the high bits, a per-NIC counter (from 1, so id 0 stays the
    /// "unassigned" sentinel) in the low 40. Ids are globally unique and
    /// monotonic per sender — the ordering the recovery retransmit queue
    /// relies on — without any cross-node shared counter, so nodes on
    /// different shards of the parallel engine can mint ids independently
    /// and still agree with the serial schedule.
    pub fn next_msg_id(&mut self, n: u32) -> u64 {
        self.msg_seq += 1;
        debug_assert!(self.msg_seq < 1 << 40, "per-NIC message ids exhausted");
        ((n as u64) << 40) | self.msg_seq
    }

    /// Register a handler set, returning its reference id.
    pub fn register_handlers(&mut self, h: HandlerSet) -> u32 {
        self.handlers.push(h);
        self.handlers.len() as u32 - 1
    }

    /// Allocate HPU shared memory (`PtlHPUAllocMem`), optionally
    /// pre-initialized.
    pub fn hpu_alloc(&mut self, len: usize, init: Option<&[u8]>) -> u32 {
        let mut mem = HpuMemory::alloc(len);
        if let Some(bytes) = init {
            mem.init_state(bytes)
                .expect("initial state exceeds HPU memory");
        }
        self.hpu_mems.push(mem);
        self.hpu_mems.len() as u32 - 1
    }

    /// Borrow an HPU memory allocation.
    pub fn hpu_mem(&mut self, handle: u32) -> &mut HpuMemory {
        &mut self.hpu_mems[handle as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NicKind;

    #[test]
    fn construction() {
        let cfg = MachineConfig::paper(NicKind::Integrated);
        let mut nic = Nic::new(&cfg);
        assert_eq!(nic.pool.num_hpus(), 4);
        let h = nic.hpu_alloc(256, Some(&[1, 2, 3]));
        assert_eq!(nic.hpu_mem(h).read(0, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(nic.hpu_mem(h).len(), 256);
    }

    #[test]
    fn a_cam_at_the_default_capacity_takes_1024_installs_and_refuses_the_next() {
        let cfg = MachineConfig::paper(NicKind::Integrated);
        assert!(Nic::new(&cfg).cam.is_empty());
        let mut cam = Cam::new(cfg.cam_capacity);
        for id in 0..1024 {
            cam.install(id, id).expect("under the bound");
        }
        assert_eq!(cam.install(1024, 1024), Err(1024), "the 1,025th is refused");
        assert_eq!((cam.len(), cam.installs()), (1024, 1024));
    }

    #[test]
    fn handler_registry() {
        let cfg = MachineConfig::paper(NicKind::Discrete);
        let mut nic = Nic::new(&cfg);
        let id = nic.register_handlers(crate::handlers::FnHandlers::new().build());
        assert_eq!(id, 0);
        assert_eq!(nic.handlers.len(), 1);
    }
}
