//! The full-system simulation world: nodes (host + NIC + memory) coupled by
//! the packet-level network, driven by the discrete-event engine.
//!
//! This module owns the machine state and the event dispatch table; the
//! subsystems live in sibling modules, one per pipeline stage of the
//! paper's end-to-end timing paths (§4.2–§4.4):
//!
//! * `send` — **send path**: host call (+o, noise) → NIC send queue →
//!   per-packet egress serialization `max(g, G·s)` → route latency L →
//!   ingress serialization; also the P4 triggered operations (§4.4.1).
//! * `recv` — **receive path**: 30 ns header match (2 ns CAM for
//!   follow-ons) → per-mode packet processing (RDMA deposit, sPIN handler
//!   dispatch, reply assembly), mutating the installed
//!   [`Channel`](crate::nic::Channel) in place.
//! * `runtime` — **handler runtime**: HPU admission, sandboxed handler
//!   execution, and the "simcall" feedback of handler side effects into
//!   the event queue, via the split-borrow `NodeCtx`.
//! * `completion` — **completion stage**: the completion handler, deferred
//!   (rendezvous) completions, full events, counters, and acks.

use crate::config::MachineConfig;
use crate::fault::{CompiledFaults, FaultKind};
use crate::host::{Host, HostApi, HostProgram};
use crate::msg::OutMsg;
use crate::nic::Nic;
use crate::recovery::RecoveryManager;
use crate::runtime::{NackAt, NodeCtx, Refusal};
use spin_hpu::memory::HostMemory;
use spin_net::transfer::Network;
use spin_portals::ct::{CtHandle, TriggeredAction};
use spin_portals::eq::FullEvent;
use spin_portals::types::{OpKind, Packet};
use spin_sim::engine::{Engine, EventQueue};
use spin_sim::gantt::Gantt;
use spin_sim::noise::NoiseSource;
use spin_sim::rng::{cell_seed, SimRng};
use spin_sim::time::Time;
use std::collections::HashMap;

/// One simulated endpoint: host CPU model, NIC runtime, host DRAM.
pub struct Node {
    /// NIC runtime state.
    pub nic: Nic,
    /// Host CPU/memory model and program.
    pub host: Host,
    /// Simulated host DRAM contents.
    pub mem: HostMemory,
}

/// Simulation events.
pub enum Ev {
    /// Start the program on a node.
    Start(u32),
    /// Timer callback for a node program.
    Timer(u32, u64),
    /// A message enters a NIC's send path.
    NicInject(u32, Box<OutMsg>),
    /// A packet is fully buffered at the destination NIC.
    PacketArrive(u32, Box<Packet>),
    /// All packets of a message are processed: run the completion stage.
    MessageDone(u32, u64),
    /// Deliver a full event to a node's program.
    HostDeliver(u32, Box<FullEvent>),
    /// Execute a fired triggered action on a NIC.
    Triggered(u32, Box<TriggeredAction>),
    /// Increment a NIC counter (handler/ct chains).
    CtInc(u32, CtHandle, u64),
    /// Set a NIC counter.
    CtSet(u32, CtHandle, u64),
    /// Sender-side flow-control recovery backoff expired for
    /// `(node, peer, pt)`: retransmit the probe (§3.2 recovery handshake).
    RecoveryTimer(u32, u32, u32),
    /// Receiver-side drain poll for `(node, pt)`: re-enable the portal
    /// table entry once its channels, HPU contexts, and MEs have drained.
    DrainCheck(u32, u32),
    /// Sharded engines only: a packet left a shard-local egress link and is
    /// bound for `dst`'s ingress port, with the head of the packet at that
    /// port at the event's timestamp. Under the exact engine it is never
    /// dispatched — the shard coordinator intercepts it, replays the
    /// ingress reservation on the ledger network in global order, and
    /// re-posts the resulting [`Ev::PacketArrive`] into `dst`'s shard.
    /// Under the relaxed engine the *consuming* shard dispatches it through
    /// `World::hand_off`: its replica network owns `dst`'s ingress port
    /// exclusively, so the reservation is charged there, with no global
    /// replay.
    WireSend(u32, Box<Packet>),
    /// Apply entry `.0` of the compiled fault schedule
    /// ([`World::faults`]) at its charged time. Only crash/restart carry
    /// dispatch-time behavior; link/switch/degrade effects are plan-static
    /// queries the send path makes at each packet's own charged time.
    Fault(u32),
}

/// The complete machine state.
pub struct World {
    /// Machine configuration.
    pub config: MachineConfig,
    /// The network fabric.
    pub network: Network,
    /// All endpoints.
    pub nodes: Vec<Node>,
    /// The scheduled fault plan compiled against the fabric (None = no
    /// faults). Immutable after construction: every replica of a sharded
    /// run compiles the identical plan from the shared config, and all
    /// wire-level fault effects are pure functions of this structure and
    /// a query time.
    pub faults: Option<CompiledFaults>,
    /// Optional Gantt recorder.
    pub gantt: Gantt,
    pub(crate) marks: Vec<(u32, String, Time)>,
    pub(crate) values: Vec<(u32, String, f64)>,
    /// Per-link impairment RNG streams, lazily created, keyed `(src, dst)`.
    /// Each stream is coordinate-addressed from the machine seed and
    /// advanced once per message in source-side inject order — node-local
    /// order is engine-invariant, so impaired runs are bit-identical on
    /// the serial and sharded engines.
    pub(crate) link_rngs: HashMap<(u32, u32), SimRng>,
    /// How [`World::hand_off`] completes the wire half of a cross-node
    /// packet — the one decision that differs between the serial engine
    /// and the two sharded engines. See [`WirePolicy`].
    pub(crate) wire: WirePolicy,
    /// Relaxed sharded engine only: cross-span packets parked by
    /// [`World::hand_off`] as `(head_at_dst, dst, packet)`, drained by the
    /// engine at the next exchange point and delivered through the
    /// per-pair mailboxes.
    pub(crate) outbox: Vec<(Time, u32, Box<Packet>)>,
}

/// How [`World::hand_off`] completes the wire half of a cross-node packet
/// whose egress half has run. Same-node (loopback) packets never reach it:
/// `send_packet` serializes them on the node's own self-queue, node-local
/// state invisible to every sharding scheme.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WirePolicy {
    /// Serial engine: reserve the destination ingress link at once and post
    /// the arrival.
    Direct,
    /// Exact sharded engine: post [`Ev::WireSend`] at the head time; the
    /// coordinator replays the ingress half on its ledger network in global
    /// merge order.
    Deferred,
    /// Relaxed sharded engine for the shard owning ranks `[first, last)`:
    /// packets to owned destinations are charged as under `Direct`, on the
    /// shard's own ledger partition; packets leaving the span park in
    /// [`World::outbox`] for mailbox delivery.
    Relaxed {
        /// First owned rank.
        first: u32,
        /// One past the last owned rank.
        last: u32,
    },
}

impl World {
    /// Build a world with `n` nodes (programs installed by the builder).
    pub fn new(config: MachineConfig, n: u32) -> Self {
        let mut rng = SimRng::seeded(config.seed);
        let nodes = (0..n)
            .map(|i| {
                let noise = match config.noise {
                    Some(model) => NoiseSource::new(model, rng.fork(i as u64)),
                    None => NoiseSource::silent(),
                };
                Node {
                    nic: Nic::new(&config),
                    host: Host::new(&config, noise),
                    mem: HostMemory::new(config.host.mem_size),
                }
            })
            .collect();
        let network = config.build_network(n);
        let faults = config.faults.as_ref().map(|plan| {
            CompiledFaults::compile(plan, network.topology())
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"))
        });
        World {
            network,
            faults,
            gantt: if config.record_gantt {
                Gantt::enabled()
            } else {
                Gantt::disabled()
            },
            config,
            nodes,
            marks: Vec::new(),
            values: Vec::new(),
            link_rngs: HashMap::new(),
            wire: WirePolicy::Direct,
            outbox: Vec::new(),
        }
    }

    /// The events every engine posts before time starts, in the serial
    /// engine's post order: a `Start` per rank, then a `Fault` per plan
    /// entry. Each comes with the rank whose shard runs it: crash and
    /// restart on the node's own (its replica owns the node's state); every
    /// other fault kind, a dispatch no-op that must still execute exactly
    /// once to keep event counts and end times serial, on rank 0's.
    pub(crate) fn initial_events(&self) -> impl Iterator<Item = (u32, Time, Ev)> + '_ {
        let starts = (0..self.nodes.len() as u32).map(|n| (n, Time::ZERO, Ev::Start(n)));
        let faults = self
            .faults
            .iter()
            .flat_map(|plan| plan.events().iter().enumerate());
        starts.chain(faults.map(|(i, ev)| {
            let owner = match ev.kind {
                FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => node,
                _ => 0,
            };
            (owner, ev.at, Ev::Fault(i as u32))
        }))
    }

    /// Wrap up a run that ended at `end_time` after `events_executed`
    /// dispatches: build the [`Report`] from this world's marks, values,
    /// nodes, fabric counters and fault plan, and return it with the world.
    pub(crate) fn finish(mut self, end_time: Time, events_executed: u64) -> SimOutput {
        let report = Report {
            end_time,
            events_executed,
            marks: std::mem::take(&mut self.marks),
            values: std::mem::take(&mut self.values),
            node_stats: self.nodes.iter().map(NodeStats::of).collect(),
            net_packets: self.network.packets_sent(),
            net_bytes: self.network.bytes_sent(),
            links_downed_ns: self.faults.as_ref().map_or(0, |f| f.downtime_ns(end_time)),
        };
        SimOutput {
            report,
            world: self,
        }
    }

    /// The impairment RNG stream of the directed link `src → dst`,
    /// created on first use. The seed depends only on the machine seed and
    /// the pair coordinates (salted away from the noise streams), never on
    /// creation order.
    pub(crate) fn link_rng(&mut self, src: u32, dst: u32) -> &mut SimRng {
        let seed = cell_seed(
            self.config.seed ^ 0x4C49_4E4B_5247_4E47, // "LINKRGNG" salt
            src as u64,
            dst as u64,
        );
        self.link_rngs
            .entry((src, dst))
            .or_insert_with(|| SimRng::seeded(seed))
    }

    /// Split-borrow node `n` for the packet path: the channel CAM and the
    /// handler registry are returned separately from the [`NodeCtx`] the
    /// handler runtime and the refusal path mutate, so per-message
    /// [`Channel`](crate::nic::Channel) state can be updated **in place**
    /// while handlers run against the DMA engine, host memory, HPU pool,
    /// and Gantt recorder.
    pub(crate) fn node_split(&mut self, n: u32) -> crate::runtime::NodeSplit<'_> {
        let World {
            nodes,
            gantt,
            config,
            ..
        } = self;
        let node = &mut nodes[n as usize];
        let Nic {
            ni,
            pool,
            cam,
            dma,
            hpu_mems,
            scratch,
            handlers,
            stats,
            recovery,
            ..
        } = &mut node.nic;
        crate::runtime::NodeSplit {
            cam,
            handlers,
            ctx: NodeCtx {
                n,
                ni,
                pool,
                dma,
                hpu_mems,
                scratch,
                stats,
                recovery,
                mem: &mut node.mem,
                gantt,
                yield_on_dma: config.hpu.yield_on_dma,
                mtu: config.net.mtu,
                dispatch_latency: config.host.dispatch_latency,
            },
        }
    }

    /// Event dispatch entry point: route each event to its subsystem.
    pub fn dispatch(&mut self, q: &mut EventQueue<Ev>, now: Time, ev: Ev) {
        let Some(ev) = self.crash_filter(q, now, ev) else {
            return;
        };
        match ev {
            Ev::Fault(idx) => self.on_fault(q, now, idx),
            Ev::Start(n) => self.call_program(q, now, n, ProgramCall::Start),
            Ev::Timer(n, token) => self.call_program(q, now, n, ProgramCall::Timer(token)),
            Ev::HostDeliver(n, ev) => self.call_program(q, now, n, ProgramCall::Event(*ev)),
            Ev::NicInject(n, msg) => self.inject(q, now, n, *msg),
            Ev::PacketArrive(n, pkt) => self.on_packet(q, now, n, *pkt),
            Ev::MessageDone(n, msg_id) => self.on_message_done(q, now, n, msg_id),
            Ev::Triggered(n, action) => self.on_triggered(q, now, n, *action),
            Ev::CtInc(n, ct, by) => {
                let fired = self.nodes[n as usize].nic.ni.ct_inc(ct, by);
                for a in fired {
                    q.post_now(Ev::Triggered(n, Box::new(a)));
                }
            }
            Ev::CtSet(n, ct, v) => {
                let fired = self.nodes[n as usize].nic.ni.ct_set(ct, v);
                for a in fired {
                    q.post_now(Ev::Triggered(n, Box::new(a)));
                }
            }
            Ev::RecoveryTimer(n, peer, pt) => self.on_recovery_timer(q, now, n, peer, pt),
            Ev::DrainCheck(n, pt) => self.on_drain_check(q, now, n, pt),
            // Only the relaxed engine dispatches WireSend (the exact
            // engine's coordinator intercepts it): `now` is when the packet
            // head reached dst's ingress port, which this shard owns.
            Ev::WireSend(dst, pkt) => self.hand_off(q, now, dst, pkt),
        }
    }

    /// Crash gate ahead of the dispatch table: a crashed node is dark — its
    /// program, NIC pipeline, counters, and timers are all dead silicon, so
    /// node-addressed events targeting it are swallowed. Two exceptions:
    ///
    /// * `NicInject` of an `Ack` passes. The source-local NACKs the fault
    ///   model synthesizes (send path, and the crashed-target refusal
    ///   below) model the *fabric* reporting destination-unreachable, not
    ///   the dead NIC speaking — they must leave or the sender's recovery
    ///   machine never engages.
    /// * `PacketArrive` is a [`Refusal::Crashed`]: accounted (dropped on
    ///   the dead link) and, for recoverable headers, answered with that
    ///   same synthesized NACK so in-flight traffic that raced the crash
    ///   drives the sender into backoff→probing instead of hanging.
    fn crash_filter(&mut self, q: &mut EventQueue<Ev>, now: Time, ev: Ev) -> Option<Ev> {
        let target = match &ev {
            Ev::Start(n)
            | Ev::Timer(n, _)
            | Ev::MessageDone(n, _)
            | Ev::HostDeliver(n, _)
            | Ev::Triggered(n, _)
            | Ev::CtInc(n, _, _)
            | Ev::CtSet(n, _, _)
            | Ev::RecoveryTimer(n, _, _)
            | Ev::DrainCheck(n, _)
            | Ev::NicInject(n, _)
            | Ev::PacketArrive(n, _) => *n,
            Ev::WireSend(_, _) | Ev::Fault(_) => return Some(ev),
        };
        if !self.nodes[target as usize].host.crashed {
            return Some(ev);
        }
        match ev {
            Ev::NicInject(_, ref msg) if msg.op == OpKind::Ack => Some(ev),
            Ev::PacketArrive(n, pkt) => {
                let nack = if pkt.is_header() && RecoveryManager::recoverable(pkt.header.op) {
                    NackAt::Refusal
                } else {
                    NackAt::Never
                };
                let ctx = &mut self.node_split(n).ctx;
                ctx.refuse(q, now, Refusal::Crashed, nack, &pkt.header, pkt.msg_id);
                None
            }
            _ => None,
        }
    }

    /// Apply entry `idx` of the compiled fault schedule. Only node
    /// crash/restart mutate machine state here; link, switch, and degrade
    /// events are dispatch no-ops — their effects are plan-static queries
    /// ([`CompiledFaults`]) the send path evaluates at each packet's own
    /// charged transmission time, which keeps boundary-crossing packets and
    /// shard replicas consistent for free.
    fn on_fault(&mut self, q: &mut EventQueue<Ev>, now: Time, idx: u32) {
        let ev = self
            .faults
            .as_ref()
            .expect("Ev::Fault posted without a fault plan")
            .events()[idx as usize]
            .clone();
        match ev.kind {
            FaultKind::NodeCrash { node } => {
                let World { nodes, config, .. } = self;
                let slot = &mut nodes[node as usize];
                slot.host.crashed = true;
                slot.nic.crash_reset(config);
            }
            FaultKind::NodeRestart { node } => {
                let slot = &mut self.nodes[node as usize];
                slot.host.crashed = false;
                slot.host.stopped = false;
                slot.nic.stats.crash_recoveries += 1;
                // Re-arm the surviving program object: on_start re-installs
                // MEs/handlers (me_append dedups handler sets), modelling a
                // warm restart that re-registers with the NIC.
                q.post_at(now, Ev::Start(node));
            }
            // Link/switch/degrade state lives entirely in the plan-static
            // queries; nothing to do at the transition instant.
            _ => {}
        }
    }

    fn call_program(&mut self, q: &mut EventQueue<Ev>, now: Time, n: u32, call: ProgramCall) {
        if self.nodes[n as usize].host.stopped {
            return;
        }
        let Some(mut program) = self.nodes[n as usize].host.program.take() else {
            return;
        };
        let mut api = HostApi {
            world: self,
            q,
            node: n,
            cursor: now,
        };
        match call {
            ProgramCall::Start => program.on_start(&mut api),
            ProgramCall::Timer(token) => program.on_timer(token, &mut api),
            ProgramCall::Event(ev) => program.on_event(&ev, &mut api),
        }
        self.nodes[n as usize].host.program = Some(program);
    }

    /// Deliver a full event to node `n`'s program after the host dispatch
    /// latency.
    pub(crate) fn dispatch_event(&self, q: &mut EventQueue<Ev>, at: Time, n: u32, ev: FullEvent) {
        q.post_at(
            at + self.config.host.dispatch_latency,
            Ev::HostDeliver(n, Box::new(ev)),
        );
    }
}

/// Which sharded engine [`SimBuilder::run_with_shards_mode`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// The coordinator-merge engine: bit-identical to the serial reference
    /// at any shard count (the default, and the differential baseline the
    /// relaxed engine is tested against).
    #[default]
    Exact,
    /// The pairwise-horizon engine: per-shard-pair mailboxes and
    /// Chandy–Misra null-message horizons instead of a global window and a
    /// serial merge. Same-time cross-shard tie-breaks may differ from
    /// serial, so reports are not bit-identical; [`delivery_digest`]
    /// equals serial's only on runs with no flow-control event, no
    /// recovery, no fault and no value derived from simulated time.
    Relaxed,
}

enum ProgramCall {
    Start,
    Timer(u64),
    Event(FullEvent),
}

/// Per-node statistics in the report.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Bytes moved over the NIC↔host DMA engine.
    pub dma_bytes: u64,
    /// DMA reads issued.
    pub dma_reads: u64,
    /// DMA writes issued.
    pub dma_writes: u64,
    /// Bytes moved by host-CPU memory operations.
    pub host_mem_bytes: u64,
    /// Handler executions admitted to HPUs.
    pub hpu_admitted: u64,
    /// HPU admissions rejected (flow control).
    pub hpu_rejected: u64,
    /// Aggregate HPU busy time (ns).
    pub hpu_busy_ns: f64,
    /// Flow-control events.
    pub flow_control_events: u64,
    /// Packets dropped.
    pub packets_dropped: u64,
    /// Header/payload/completion handler runs.
    pub handler_runs: (u64, u64, u64),
    /// Handler errors reported.
    pub handler_errors: u64,
    /// Completion handlers that found no free HPU context and were forced
    /// onto core 0 (context exhaustion at message-teardown time).
    pub forced_completion_admissions: u64,
    /// `PtDisabled` NACKs sent (as flow-control target).
    pub nacks_sent: u64,
    /// `PtDisabled` NACKs received (as initiator).
    pub recovery_nacks: u64,
    /// Backoff rounds entered by the recovery state machine.
    pub recovery_backoffs: u64,
    /// Probes retransmitted after backoff.
    pub recovery_probes: u64,
    /// Messages retransmitted (probes + replays).
    pub recovery_retransmits: u64,
    /// New sends held in order while their (peer, PT) pair recovered.
    pub recovery_held: u64,
    /// Queued messages dropped after `max_probes` consecutive probe
    /// failures (delivery failure: the target never re-enabled).
    pub recovery_abandoned: u64,
    /// Portal table entries automatically re-enabled after draining.
    pub pt_reenables: u64,
    /// Aggregate time (ns) PTs spent disabled before automatic re-enable.
    pub pt_disabled_ns: f64,
    /// Messages NACKed at least once that were eventually delivered.
    pub recovered_messages: u64,
    /// Aggregate first-NACK → delivery latency (ns) of recovered messages.
    pub recovery_latency_ns: f64,
    /// Packets dropped because a scheduled fault had the path (or this
    /// node) dead at their charged time — a subset of `packets_dropped`,
    /// attributed to the fault subsystem.
    pub drops_on_dead_link: u64,
    /// Messages this node re-routed around a failed upper-level switch
    /// (fat-tree path diversity; charged a longer route).
    pub reroutes: u64,
    /// Times this node came back from a scheduled crash.
    pub crash_recoveries: u64,
    /// Wire bytes re-sent by the recovery machinery: full replays of
    /// bounced attempts plus selective tail resumes.
    pub retransmitted_bytes: u64,
    /// Per-peer abandonment counts as `(peer, messages)` pairs, ascending
    /// by peer — nonempty only when `recovery_abandoned > 0`.
    pub abandoned_peers: Vec<(u32, u64)>,
}

/// Simulation output summary.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Time of the last executed event.
    pub end_time: Time,
    /// Total events dispatched.
    pub events_executed: u64,
    /// Named timestamps recorded by programs.
    pub marks: Vec<(u32, String, Time)>,
    /// Named values recorded by programs.
    pub values: Vec<(u32, String, f64)>,
    /// Per-node statistics.
    pub node_stats: Vec<NodeStats>,
    /// Total packets through the network.
    pub net_packets: u64,
    /// Total payload bytes through the network.
    pub net_bytes: u64,
    /// Aggregate scheduled downtime (ns) across all fault-plan intervals —
    /// link flaps, switch outages, and node crash windows — clipped to the
    /// run's end time. 0 when no fault plan is installed.
    pub links_downed_ns: u64,
}

impl NodeStats {
    /// Snapshot the reportable statistics of one node's final state. Every
    /// engine builds its report through [`World::finish`], which calls
    /// this, so the engines cannot drift apart field by field.
    pub(crate) fn of(node: &Node) -> NodeStats {
        NodeStats {
            dma_bytes: node.nic.dma.bytes_total(),
            dma_reads: node.nic.dma.reads(),
            dma_writes: node.nic.dma.writes(),
            host_mem_bytes: node.host.mem_bw.bytes_total(),
            hpu_admitted: node.nic.pool.admitted(),
            hpu_rejected: node.nic.pool.rejected(),
            hpu_busy_ns: node.nic.pool.busy_total().ns(),
            flow_control_events: node.nic.stats.flow_control_events,
            packets_dropped: node.nic.stats.packets_dropped,
            handler_runs: (
                node.nic.stats.header_runs,
                node.nic.stats.payload_runs,
                node.nic.stats.completion_runs,
            ),
            handler_errors: node.nic.stats.handler_errors,
            forced_completion_admissions: node.nic.stats.forced_completion_admissions,
            nacks_sent: node.nic.stats.nacks_sent,
            recovery_nacks: node.nic.stats.recovery_nacks,
            recovery_backoffs: node.nic.stats.recovery_backoffs,
            recovery_probes: node.nic.stats.recovery_probes,
            recovery_retransmits: node.nic.stats.recovery_retransmits,
            recovery_held: node.nic.stats.recovery_held,
            recovery_abandoned: node.nic.stats.recovery_abandoned,
            pt_reenables: node.nic.stats.pt_reenables,
            pt_disabled_ns: node.nic.stats.pt_disabled_ns,
            recovered_messages: node.nic.recovery.recovered_messages(),
            recovery_latency_ns: node.nic.recovery.recovery_latency_ns(),
            drops_on_dead_link: node.nic.stats.drops_on_dead_link,
            reroutes: node.nic.stats.reroutes,
            crash_recoveries: node.nic.stats.crash_recoveries,
            retransmitted_bytes: node.nic.stats.retransmitted_bytes,
            abandoned_peers: node.nic.recovery.abandoned_by_peer(),
        }
    }
}

impl Report {
    /// The first mark with this label on this rank.
    pub fn mark(&self, rank: u32, label: &str) -> Option<Time> {
        self.marks
            .iter()
            .find(|(r, l, _)| *r == rank && l == label)
            .map(|(_, _, t)| *t)
    }

    /// All marks with this label, as (rank, time).
    pub fn marks_labeled(&self, label: &str) -> Vec<(u32, Time)> {
        self.marks
            .iter()
            .filter(|(_, l, _)| l == label)
            .map(|(r, _, t)| (*r, *t))
            .collect()
    }

    /// The first value with this label on this rank.
    pub fn value(&self, rank: u32, label: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(r, l, _)| *r == rank && l == label)
            .map(|(_, _, v)| *v)
    }
}

// ------------------------------------------------- the report fingerprint
//
// The determinism contract: the exact engine reproduces the serial
// report's derived `Debug` text, pinned goldens hash [`fingerprint`], and
// the relaxed engine reproduces [`delivery_fingerprint`].

/// Render a report into the stable text the pinned determinism goldens
/// and `scenarios/` digests hash. Fault counters are printed only when the
/// fault machinery fired, so every digest pinned before the fault
/// subsystem reproduces unchanged.
pub fn fingerprint(r: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "end={} events={}", r.end_time.ps(), r.events_executed).unwrap();
    for (rank, label, t) in &r.marks {
        writeln!(out, "mark r{rank} {label} @{}", t.ps()).unwrap();
    }
    for (rank, label, v) in &r.values {
        writeln!(out, "value r{rank} {label} = {v}").unwrap();
    }
    for (i, s) in r.node_stats.iter().enumerate() {
        writeln!(
            out,
            "node{i} dma={}b/{}r/{}w host={}b hpu={}a/{}rj busy={} fc={} drop={} runs={:?} errs={}",
            s.dma_bytes,
            s.dma_reads,
            s.dma_writes,
            s.host_mem_bytes,
            s.hpu_admitted,
            s.hpu_rejected,
            s.hpu_busy_ns,
            s.flow_control_events,
            s.packets_dropped,
            s.handler_runs,
            s.handler_errors,
        )
        .unwrap();
        writeln!(
            out,
            "recov{i} nacks={}tx/{}rx backoffs={} probes={} rtx={} held={} dropped={} reen={} disabled={} rec={}m/{}ns",
            s.nacks_sent,
            s.recovery_nacks,
            s.recovery_backoffs,
            s.recovery_probes,
            s.recovery_retransmits,
            s.recovery_held,
            s.recovery_abandoned,
            s.pt_reenables,
            s.pt_disabled_ns,
            s.recovered_messages,
            s.recovery_latency_ns,
        )
        .unwrap();
        if s.drops_on_dead_link + s.reroutes + s.crash_recoveries > 0
            || !s.abandoned_peers.is_empty()
        {
            writeln!(
                out,
                "fault{i} deadlink={} reroutes={} crashrec={} rtxbytes={} abandoned={:?}",
                s.drops_on_dead_link,
                s.reroutes,
                s.crash_recoveries,
                s.retransmitted_bytes,
                s.abandoned_peers,
            )
            .unwrap();
        }
    }
    if r.links_downed_ns > 0 {
        writeln!(out, "faults downed_ns={}", r.links_downed_ns).unwrap();
    }
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    out
}

/// FNV-1a over [`fingerprint`]: one stable u64 per run.
pub fn digest(r: &Report) -> u64 {
    spin_sim::fnv1a(fingerprint(r).as_bytes())
}

/// Render the *count-stable* observables of a report: the event count,
/// fabric totals, `links_downed_ns`, the sorted `(rank, label)` mark
/// multiset, the values, and every [`NodeStats`] field but the three f64
/// aggregates. This is what the relaxed engine preserves exactly: it
/// reshuffles same-instant tie-breaks, which moves timestamps but never
/// what was delivered where. The f64 aggregates are busy, disabled and
/// recovery times, which shift with admission timing and sum in execution
/// order (so may differ in the last ulp).
pub fn delivery_fingerprint(r: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "events={}", r.events_executed).unwrap();
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    writeln!(out, "downed={}", r.links_downed_ns).unwrap();
    let mut marks: Vec<(u32, &str)> = r.marks.iter().map(|(n, l, _)| (*n, l.as_str())).collect();
    marks.sort_unstable();
    for (rank, label) in marks {
        writeln!(out, "mark r{rank} {label}").unwrap();
    }
    for (rank, label, v) in &r.values {
        writeln!(out, "value r{rank} {label} = {v}").unwrap();
    }
    for (i, s) in r.node_stats.iter().enumerate() {
        // The derived `Debug` with the three f64 aggregates cleared, so
        // every other field, present or future, counts.
        let counts = NodeStats {
            hpu_busy_ns: 0.0,
            pt_disabled_ns: 0.0,
            recovery_latency_ns: 0.0,
            ..s.clone()
        };
        writeln!(out, "node{i} {counts:?}").unwrap();
    }
    out
}

/// FNV-1a over [`delivery_fingerprint`]: serial, exact-sharded, and
/// relaxed-sharded runs of one world share it.
pub fn delivery_digest(r: &Report) -> u64 {
    spin_sim::fnv1a(delivery_fingerprint(r).as_bytes())
}

/// Builder assembling a simulation: configuration + one program per node.
pub struct SimBuilder {
    pub(crate) config: MachineConfig,
    pub(crate) programs: Vec<Box<dyn HostProgram + Send>>,
}

/// A completed simulation: the report plus the final world state (for
/// functional assertions on memory contents).
pub struct SimOutput {
    /// Summary statistics and program-recorded marks/values.
    pub report: Report,
    /// Final machine state.
    pub world: World,
}

impl SimBuilder {
    /// Start a builder with the given machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        SimBuilder {
            config,
            programs: Vec::new(),
        }
    }

    /// Add one node running `program`.
    pub fn add_node(mut self, program: Box<dyn HostProgram + Send>) -> Self {
        self.programs.push(program);
        self
    }

    /// Add `n` nodes whose programs are built per rank.
    pub fn nodes_with(mut self, n: u32, f: impl Fn(u32) -> Box<dyn HostProgram + Send>) -> Self {
        let base = self.programs.len() as u32;
        for i in 0..n {
            self.programs.push(f(base + i));
        }
        self
    }

    /// Run the simulation to quiescence on the serial reference engine
    /// (the same as [`SimBuilder::run_serial`]).
    pub fn run(self) -> SimOutput {
        self.run_serial()
    }

    /// Run on a sharded conservative-parallel engine with `k` shards
    /// (clamped to the node count; `k ≤ 1` runs the serial reference
    /// engine) in the given [`ShardMode`]: `Exact` is bit-identical to
    /// serial (see `crate::shard`), `Relaxed` keeps the count-stable view
    /// [`delivery_digest`] (see `crate::relaxed`).
    pub fn run_with_shards_mode(self, k: usize, mode: ShardMode) -> SimOutput {
        if k.min(self.programs.len()) <= 1 {
            return self.run_serial();
        }
        match mode {
            ShardMode::Exact => crate::shard::run_sharded(self, k),
            ShardMode::Relaxed => crate::relaxed::run_relaxed(self, k),
        }
    }

    /// Run on the serial reference engine: one event at a time, in
    /// `(time, seq)` order, through [`World::dispatch`].
    pub fn run_serial(self) -> SimOutput {
        let n = self.programs.len() as u32;
        assert!(n > 0, "a simulation needs at least one node");
        let mut world = World::new(self.config, n);
        for (i, p) in self.programs.into_iter().enumerate() {
            world.nodes[i].host.program = Some(p);
        }
        let mut engine: Engine<Ev> = Engine::new();
        for (_, at, ev) in world.initial_events() {
            engine.queue_mut().post_at(at, ev);
        }
        let end = engine.run_with(|q, now, ev| world.dispatch(q, now, ev));
        world.finish(end, engine.executed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_digest_covers_every_count_and_no_time() {
        // Every field named and nonzero: a new `NodeStats` field stops
        // this test compiling until it is classified below.
        let node = NodeStats {
            dma_bytes: 1,
            dma_reads: 2,
            dma_writes: 3,
            host_mem_bytes: 4,
            hpu_admitted: 5,
            hpu_rejected: 6,
            hpu_busy_ns: 7.5,
            flow_control_events: 8,
            packets_dropped: 9,
            handler_runs: (10, 11, 12),
            handler_errors: 13,
            forced_completion_admissions: 14,
            nacks_sent: 15,
            recovery_nacks: 16,
            recovery_backoffs: 17,
            recovery_probes: 18,
            recovery_retransmits: 19,
            recovery_held: 20,
            recovery_abandoned: 21,
            pt_reenables: 22,
            pt_disabled_ns: 23.5,
            recovered_messages: 24,
            recovery_latency_ns: 25.5,
            drops_on_dead_link: 26,
            reroutes: 27,
            crash_recoveries: 28,
            retransmitted_bytes: 29,
            abandoned_peers: vec![(30, 31)],
        };
        let base = Report {
            end_time: Time::from_ns(100),
            events_executed: 40,
            marks: vec![
                (0, "armed".to_string(), Time::from_ns(5)),
                (1, "Put".to_string(), Time::from_ns(7)),
            ],
            values: vec![(0, "v".to_string(), 1.5)],
            node_stats: vec![node],
            net_packets: 41,
            net_bytes: 42,
            links_downed_ns: 43,
        };
        let want = delivery_digest(&base);
        let moves = |what: &str, bump: &dyn Fn(&mut Report)| {
            let mut r = base.clone();
            bump(&mut r);
            assert_ne!(delivery_digest(&r), want, "{what} is outside the view");
        };
        let still = |what: &str, bump: &dyn Fn(&mut Report)| {
            let mut r = base.clone();
            bump(&mut r);
            assert_eq!(delivery_digest(&r), want, "{what} moved the view");
        };
        type Bump = (&'static str, fn(&mut NodeStats));
        let counted: [Bump; 28] = [
            ("dma_bytes", |s| s.dma_bytes += 1),
            ("dma_reads", |s| s.dma_reads += 1),
            ("dma_writes", |s| s.dma_writes += 1),
            ("host_mem_bytes", |s| s.host_mem_bytes += 1),
            ("hpu_admitted", |s| s.hpu_admitted += 1),
            ("hpu_rejected", |s| s.hpu_rejected += 1),
            ("fc events", |s| s.flow_control_events += 1),
            ("packets_dropped", |s| s.packets_dropped += 1),
            ("header runs", |s| s.handler_runs.0 += 1),
            ("payload runs", |s| s.handler_runs.1 += 1),
            ("completion runs", |s| s.handler_runs.2 += 1),
            ("handler_errors", |s| s.handler_errors += 1),
            ("forced", |s| s.forced_completion_admissions += 1),
            ("nacks_sent", |s| s.nacks_sent += 1),
            ("recovery_nacks", |s| s.recovery_nacks += 1),
            ("recovery_backoffs", |s| s.recovery_backoffs += 1),
            ("recovery_probes", |s| s.recovery_probes += 1),
            ("retransmits", |s| s.recovery_retransmits += 1),
            ("recovery_held", |s| s.recovery_held += 1),
            ("recovery_abandoned", |s| s.recovery_abandoned += 1),
            ("pt_reenables", |s| s.pt_reenables += 1),
            ("recovered_messages", |s| s.recovered_messages += 1),
            ("drops_on_dead_link", |s| s.drops_on_dead_link += 1),
            ("reroutes", |s| s.reroutes += 1),
            ("crash_recoveries", |s| s.crash_recoveries += 1),
            ("retransmitted_bytes", |s| s.retransmitted_bytes += 1),
            ("abandoned peer", |s| s.abandoned_peers[0].0 += 1),
            ("abandoned count", |s| s.abandoned_peers[0].1 += 1),
        ];
        for (what, bump) in counted {
            moves(what, &|r| bump(&mut r.node_stats[0]));
        }
        moves("events_executed", &|r| r.events_executed += 1);
        moves("net_packets", &|r| r.net_packets += 1);
        moves("net_bytes", &|r| r.net_bytes += 1);
        moves("links_downed_ns", &|r| r.links_downed_ns += 1);
        moves("mark rank", &|r| r.marks[0].0 += 2);
        moves("mark label", &|r| r.marks[0].1.push('!'));
        moves("value", &|r| r.values[0].2 += 1.0);
        moves("value label", &|r| r.values[0].1.push('!'));
        still("end_time", &|r| r.end_time += Time::from_ns(1));
        still("mark time", &|r| r.marks[0].2 = Time::from_ns(99));
        still("mark order", &|r| r.marks.swap(0, 1));
        still("hpu_busy_ns", &|r| r.node_stats[0].hpu_busy_ns += 1.0);
        still("pt_disabled_ns", &|r| r.node_stats[0].pt_disabled_ns += 1.0);
        still("recovery_latency_ns", &|r| {
            r.node_stats[0].recovery_latency_ns += 1.0
        });
    }
}
