//! # spin-scenario — the declarative scenario compiler
//!
//! A scenario is one JSON file declaring a **topology** (fat tree,
//! dragonfly, or torus), optional **machine knobs** (NIC integration,
//! seed, recovery, memory), optional per-link **impairments** (added
//! latency, seeded jitter, probabilistic loss, background traffic),
//! **node roles**, and a **workload** drawn from the paper's application
//! suite. [`ScenarioCompiler`] validates the declaration and compiles it
//! into a ready-to-run [`SimBuilder`] — the same world a hand-coded
//! experiment would construct, byte for byte (the equivalence suite pins
//! the fat-tree golden and the 48-node sharding incast against their
//! hand-coded twins).
//!
//! ```json
//! {
//!   "name": "fat-tree-golden",
//!   "topology": {"FatTree": {"nodes": 12, "ports": 4}},
//!   "workload": {"Gather": {"put_bytes": 6000, "ring_bytes": 256, "stride": 5}},
//!   "expect": {"digest": "0xc168fc2e110a6a9b"}
//! }
//! ```
//!
//! **Determinism:** everything a scenario adds over a hand-coded world is
//! deterministic and engine-invariant. Impairment draws come from per-link
//! RNG streams derived from `(seed, src, dst)` and advanced in
//! source-side inject order, which the exact sharded engine replays
//! exactly — so a scenario's [`digest`] is bit-identical at any `--jobs`
//! value and on either engine [`ScenarioCompiler::run`] selects, and the
//! corpus pins those digests in the files themselves (the
//! `expect.digest` field).

use serde::{Deserialize, Serialize};
use spin_core::config::{ImpairmentConfig, ImpairmentRule, LinkImpairment, MachineConfig, NicKind};
use spin_core::fault::{CompiledFaults, FaultEvent, FaultKind, FaultPlan};
/// The canonical report fingerprint and its FNV-1a digest (defined in
/// `spin-core`); `expect.digest` pins the latter.
pub use spin_core::world::{digest, fingerprint};
use spin_core::world::{Report, ShardMode, SimBuilder, SimOutput};
use spin_net::TopologySpec;
use spin_portals::ni::MAX_ENTRIES;
use spin_sim::noise::NoiseModel;
use spin_sim::time::Time;

/// The largest value any nanosecond field of a scenario may hold: one
/// simulated hour. Simulated time counts picoseconds in a `u64`, which
/// holds about 5,124 hours, and `Time::from_ns` multiplies without a check.
/// Each step the simulator takes from these fields adds a few of them to
/// the clock (a message's latency, jitter, background draw and degrade
/// latency; a fault's `at_ns`; a sender's next interval), so no field and
/// no single step can overflow `Time`. Thousands of hour-long steps in a
/// row still can: a count times a delay needs a bound of its own,
/// [`MAX_SCHEDULE_NS`], on a `Saturate` sender's schedule and on a
/// ping-pong's rounds of impairment delay.
const MAX_NS: u64 = 3_600 * 1_000_000_000;

/// Translate nanosecond field `field` of scenario `name` to simulated time,
/// or fail naming the field and the value when it exceeds [`MAX_NS`].
fn ns_field(name: &str, field: std::fmt::Arguments<'_>, ns: u64) -> Result<Time, Error> {
    if ns > MAX_NS {
        return Err(Error::msg(format!(
            "scenario {name:?}: {field} = {ns} exceeds {MAX_NS}, the bound on \
             nanosecond fields (one simulated hour)"
        )));
    }
    Ok(Time::from_ns(ns))
}

/// The longest chain of delays a workload may ask for, in nanoseconds:
/// 1,000 simulated hours. A `Saturate` sender posts `messages` sends one
/// `interval_ns` apart, so its last send is due after their product; a
/// ping-pong's messages go one after another, two per round, each delayed
/// by up to its impairment rule's `latency_ns + jitter_ns + background_ns`.
/// At about a fifth of `Time`'s range this leaves room for every message's
/// own delays, each at most [`MAX_NS`].
const MAX_SCHEDULE_NS: u64 = 1_000 * MAX_NS;

/// The largest payload any byte field of a workload may ask for, and the
/// largest key-value table: 1 GiB. The ping-pong, broadcast, saturation
/// and RAID builders size host memory to the payload and build host-side
/// copies of it, and a key-value server's page table grows to its highest
/// slot written, so a larger value allocates gigabytes before or during
/// the run, and one near `usize::MAX` overflows a capacity or aborts the
/// process on a failed allocation.
const MAX_BYTES: usize = 1 << 30;

/// Scenario-level error: parse, validation, or expectation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// The error text.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde_json::Error> for Error {
    fn from(e: serde_json::Error) -> Self {
        Error(e.to_string())
    }
}

// ------------------------------------------------------------ the schema

/// Declarative topology: mirrors [`TopologySpec`] one-to-one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyConfig {
    /// Smallest fat tree of `ports`-radix switches over `nodes` endpoints.
    FatTree { nodes: u32, ports: u32 },
    /// `groups × routers_per_group × nodes_per_router` dragonfly.
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
    },
    /// k-ary n-cube with `dims[i]` routers along dimension `i`.
    Torus { dims: Vec<u32> },
}

impl TopologyConfig {
    /// The equivalent network spec.
    pub fn spec(&self) -> TopologySpec {
        match self {
            TopologyConfig::FatTree { nodes, ports } => TopologySpec::FatTree {
                nodes: *nodes,
                ports: *ports,
            },
            TopologyConfig::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => TopologySpec::Dragonfly {
                groups: *groups,
                routers_per_group: *routers_per_group,
                nodes_per_router: *nodes_per_router,
            },
            TopologyConfig::Torus { dims } => TopologySpec::Torus { dims: dims.clone() },
        }
    }

    /// Endpoint count the topology produces.
    ///
    /// # Panics
    /// Panics on an invalid topology, which [`ScenarioCompiler::compile`]
    /// reports as an error instead.
    pub fn nodes(&self) -> u32 {
        self.spec().nodes()
    }
}

/// NIC integration style.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NicChoice {
    /// NIC-integrated HPUs (the paper's headline configuration).
    #[default]
    Integrated,
    /// Discrete NIC over PCIe.
    Discrete,
}

/// OS-noise model on the host cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseChoice {
    /// Noiseless hosts (the default).
    #[default]
    None,
    /// 2.5 kHz / 25 µs daemon noise.
    Daemon25us,
    /// 10 µs timer-tick noise.
    Tick10us,
}

/// Machine knobs applied on top of the paper configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineKnobs {
    /// NIC integration (default `Integrated`).
    #[serde(default)]
    pub nic: NicChoice,
    /// RNG seed (noise and impairment streams); absent = the paper
    /// default seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Enable closed-loop flow-control recovery (required by lossy
    /// impairments).
    #[serde(default)]
    pub recovery: bool,
    /// Host memory bytes per node of the gather and incast workloads;
    /// absent = the paper's 64 MiB. It must reach the workload's layout
    /// end. The other workloads size memory to their own layout.
    #[serde(default)]
    pub mem_size: Option<u64>,
    /// OS noise on host cores (default none).
    #[serde(default)]
    pub noise: NoiseChoice,
}

/// One per-link impairment rule. `src`/`dst` absent = wildcard; the first
/// matching rule wins and loopback traffic is always exempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Impairment {
    /// Source endpoint the rule applies to (absent = any).
    #[serde(default)]
    pub src: Option<u32>,
    /// Destination endpoint the rule applies to (absent = any).
    #[serde(default)]
    pub dst: Option<u32>,
    /// Fixed added latency per message (ns).
    #[serde(default)]
    pub latency_ns: u64,
    /// Uniform jitter bound per message (ns): each message draws an extra
    /// delay in `[0, jitter_ns]` from the link's seeded RNG stream.
    #[serde(default)]
    pub jitter_ns: u64,
    /// Probability a recovery-tracked message is lost on this link
    /// (requires `machine.recovery`).
    #[serde(default)]
    pub loss: f64,
    /// Mean of an exponential background-traffic delay per message (ns).
    #[serde(default)]
    pub background_ns: u64,
}

/// What one scheduled fault does. Mirrors [`FaultKind`] one-to-one; times
/// are nanoseconds and endpoints/switches are validated against the
/// topology at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultActionConfig {
    /// Down node `node`'s access link until a later `LinkUp`: every
    /// recovery-tracked message to or from it drops at the source.
    LinkDown { node: u32 },
    /// Re-open node `node`'s access link.
    LinkUp { node: u32 },
    /// Fail switch `switch`: leaf-class switches down every attached
    /// node's access link; upper fat-tree switches shed load onto the
    /// surviving spine (reroute) or partition the fabric if none survive.
    SwitchDown { switch: u32 },
    /// Bring switch `switch` back.
    SwitchUp { switch: u32 },
    /// Crash node `node`: NIC state (matching entries, channels, in-flight
    /// recovery) is torn down and the node goes unreachable.
    NodeCrash { node: u32 },
    /// Restart node `node`: its program's `on_start` re-runs, re-arming
    /// matching entries against the fresh NIC.
    NodeRestart { node: u32 },
    /// Open a degrade window on matching links: `extra_latency_ns` is
    /// added to every message, `loss` is the per-message drop probability
    /// (requires `machine.recovery`). Absent selectors are wildcards.
    Degrade {
        #[serde(default)]
        src: Option<u32>,
        #[serde(default)]
        dst: Option<u32>,
        #[serde(default)]
        extra_latency_ns: u64,
        #[serde(default)]
        loss: f64,
    },
    /// Close the degrade window with exactly this selector pair.
    Restore {
        #[serde(default)]
        src: Option<u32>,
        #[serde(default)]
        dst: Option<u32>,
    },
}

/// One timed fault in a scenario's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Absolute simulated time the fault fires (ns). Events at the same
    /// instant apply in declaration order.
    pub at_ns: u64,
    /// What happens.
    pub action: FaultActionConfig,
}

impl Fault {
    /// The engine-level fault event for entry `i` of scenario `name`'s
    /// schedule; fails on a nanosecond field past [`MAX_NS`].
    fn event(&self, name: &str, i: usize) -> Result<FaultEvent, Error> {
        let ns = |field: &str, ns| ns_field(name, format_args!("faults[{i}].{field}"), ns);
        let kind = match self.action {
            FaultActionConfig::LinkDown { node } => FaultKind::LinkDown { node },
            FaultActionConfig::LinkUp { node } => FaultKind::LinkUp { node },
            FaultActionConfig::SwitchDown { switch } => FaultKind::SwitchDown { switch },
            FaultActionConfig::SwitchUp { switch } => FaultKind::SwitchUp { switch },
            FaultActionConfig::NodeCrash { node } => FaultKind::NodeCrash { node },
            FaultActionConfig::NodeRestart { node } => FaultKind::NodeRestart { node },
            FaultActionConfig::Degrade {
                src,
                dst,
                extra_latency_ns,
                loss,
            } => FaultKind::Degrade {
                src,
                dst,
                extra_latency: ns("action.Degrade.extra_latency_ns", extra_latency_ns)?,
                loss,
            },
            FaultActionConfig::Restore { src, dst } => FaultKind::Restore { src, dst },
        };
        Ok(FaultEvent {
            at: ns("at_ns", self.at_ns)?,
            kind,
        })
    }
}

/// Role placement: which rank runs the distinguished program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Roles {
    /// The root/server rank for workloads with a distinguished node
    /// (gather root, incast root). Must be 0 for the fixed-layout
    /// workloads (ping-pong, broadcast, KV, RAID, saturate).
    #[serde(default)]
    pub root: u32,
}

/// Ping-pong transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PingPongModeConfig {
    Rdma,
    P4,
    SpinStore,
    SpinStream,
}

/// Broadcast transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BcastModeConfig {
    Rdma,
    P4,
    Spin,
}

/// Saturation / RAID transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportConfig {
    Rdma,
    Spin,
}

/// The workload a scenario drives, mapped onto the paper's application
/// suite. Node counts must agree with the topology (validated at compile
/// time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// One multi-packet acked gather put per leaf plus a stride exchange
    /// ring ([`spin_apps::gather`]); any node count ≥ 2.
    Gather {
        put_bytes: usize,
        ring_bytes: usize,
        stride: u32,
    },
    /// Sustained multi-round incast at the root ([`spin_apps::incast`]);
    /// any node count ≥ 2.
    Incast { rounds: u32 },
    /// Two-node ping-pong (client rank 0, server rank 1).
    PingPong {
        bytes: usize,
        rounds: u32,
        mode: PingPongModeConfig,
    },
    /// Binomial-tree broadcast over every node (root rank 0).
    Bcast { bytes: usize, mode: BcastModeConfig },
    /// Key-value inserts: client rank 0 against `nodes - 1` servers;
    /// pairs are drawn from the machine seed.
    KvInserts { slots: u64, inserts: usize },
    /// Open-loop saturation: receiver rank 0, `nodes - 1` senders
    /// injecting on a fixed arrival interval.
    Saturate {
        messages: u32,
        bytes: usize,
        interval_ns: u64,
        service_ns: u64,
        mode: TransportConfig,
    },
    /// Fig. 7c RAID-5 update: client + parity + 4 data servers (exactly
    /// 6 nodes).
    Raid {
        total_bytes: usize,
        mode: TransportConfig,
    },
}

impl Workload {
    /// Short kind label (corpus coverage audits).
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Gather { .. } => "gather",
            Workload::Incast { .. } => "incast",
            Workload::PingPong { .. } => "pingpong",
            Workload::Bcast { .. } => "bcast",
            Workload::KvInserts { .. } => "kv",
            Workload::Saturate { .. } => "saturate",
            Workload::Raid { .. } => "raid",
        }
    }
}

/// Pinned expectations a run is checked against (regression corpus).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Expect {
    /// Hex digest (`"0x..."`) of the report at the scenario's pinned
    /// seed; engine-invariant, so the same value must reproduce serially
    /// and at any shard count.
    #[serde(default)]
    pub digest: Option<String>,
    /// Minimum `PtDisabled` NACKs processed by initiators, summed over
    /// all nodes (loss scenarios prove the recovery loop actually
    /// engaged — a synthesized loss NACK and a flow-control bounce both
    /// land here).
    #[serde(default)]
    pub min_nacks: u64,
    /// Minimum retransmitted messages summed over all nodes.
    #[serde(default)]
    pub min_retransmits: u64,
    /// Minimum fault-triggered reroutes summed over all nodes (spine
    /// failure scenarios prove path diversity actually absorbed the hit).
    #[serde(default)]
    pub min_reroutes: u64,
    /// Maximum messages abandoned after probe exhaustion, summed over all
    /// nodes; absent = unchecked. `0` pins "nothing was ever given up on"
    /// — the check failure lists every (rank, peer) abandonment so a
    /// violated pin names who gave up on whom.
    #[serde(default)]
    pub max_abandoned: Option<u64>,
}

/// One declarative scenario file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (report/table labels).
    pub name: String,
    /// Free-form description.
    #[serde(default)]
    pub description: String,
    /// The fabric.
    pub topology: TopologyConfig,
    /// Machine knobs (all defaulted).
    #[serde(default)]
    pub machine: MachineKnobs,
    /// Per-link impairment rules (first match wins).
    #[serde(default)]
    pub impairments: Vec<Impairment>,
    /// Scheduled fault events (validated and compiled against the
    /// topology; drop-capable schedules require `machine.recovery`).
    #[serde(default)]
    pub faults: Vec<Fault>,
    /// Role placement.
    #[serde(default)]
    pub roles: Roles,
    /// The workload.
    pub workload: Workload,
    /// Pinned expectations.
    #[serde(default)]
    pub expect: Expect,
}

impl Scenario {
    /// Parse a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, Error> {
        Ok(serde_json::from_str(text)?)
    }

    /// Render the scenario back to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }
}

// ---------------------------------------------------------- the compiler

/// Compiles a [`Scenario`] into a runnable [`SimBuilder`].
pub struct ScenarioCompiler {
    scenario: Scenario,
}

impl ScenarioCompiler {
    /// Wrap a parsed scenario.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioCompiler { scenario }
    }

    /// The wrapped scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Endpoint count of the declared topology.
    ///
    /// # Panics
    /// Panics on an invalid topology, which [`ScenarioCompiler::compile`]
    /// reports as an error instead.
    pub fn nodes(&self) -> u32 {
        self.scenario.topology.nodes()
    }

    /// The machine configuration the scenario compiles to: the paper
    /// config with the declared topology, impairments, and knobs applied.
    pub fn machine_config(&self) -> Result<MachineConfig, Error> {
        let s = &self.scenario;
        let n = s
            .topology
            .spec()
            .check()
            .map_err(|e| Error::msg(format!("scenario {:?}: topology.{e}", s.name)))?;
        if n < 2 {
            return Err(Error::msg(format!(
                "scenario {:?}: topology declares {n} endpoint(s); a workload needs at least 2",
                s.name
            )));
        }
        let nic = match s.machine.nic {
            NicChoice::Integrated => NicKind::Integrated,
            NicChoice::Discrete => NicKind::Discrete,
        };
        let mut cfg = MachineConfig::paper(nic).with_topology(s.topology.spec());
        if let TopologyConfig::FatTree { ports, .. } = s.topology {
            cfg.net.switch_ports = ports as usize;
        }
        if let Some(seed) = s.machine.seed {
            cfg = cfg.with_seed(seed);
        }
        if s.machine.recovery {
            cfg = cfg.with_recovery();
        }
        cfg.noise = match s.machine.noise {
            NoiseChoice::None => None,
            NoiseChoice::Daemon25us => Some(NoiseModel::daemon_25us()),
            NoiseChoice::Tick10us => Some(NoiseModel::tick_10us()),
        };
        if !s.impairments.is_empty() {
            cfg = cfg.with_impairments(self.impairment_config()?);
        }
        if !s.faults.is_empty() {
            cfg = cfg.with_faults(self.fault_plan()?);
        }
        if let Some(mem) = s.machine.mem_size {
            cfg.host.mem_size = usize::try_from(mem).unwrap_or(usize::MAX);
        }
        Ok(cfg)
    }

    /// Validate and translate the impairment rules.
    fn impairment_config(&self) -> Result<ImpairmentConfig, Error> {
        let s = &self.scenario;
        let n = self.nodes();
        let mut rules = Vec::with_capacity(s.impairments.len());
        for (i, imp) in s.impairments.iter().enumerate() {
            if !(0.0..=1.0).contains(&imp.loss) {
                return Err(Error::msg(format!(
                    "scenario {:?}: impairment rule {i} has loss {} outside [0, 1]",
                    s.name, imp.loss
                )));
            }
            if imp.loss > 0.0 && !s.machine.recovery {
                return Err(Error::msg(format!(
                    "scenario {:?}: impairment rule {i} declares loss but \
                     machine.recovery is off (lost messages would never be retransmitted)",
                    s.name
                )));
            }
            for (which, ep) in [("src", imp.src), ("dst", imp.dst)] {
                if let Some(ep) = ep {
                    if ep >= n {
                        return Err(Error::msg(format!(
                            "scenario {:?}: impairment rule {i} names {which} {ep} \
                             but the topology has {n} endpoints",
                            s.name
                        )));
                    }
                }
            }
            let ns =
                |field: &str, ns| ns_field(&s.name, format_args!("impairments[{i}].{field}"), ns);
            rules.push(ImpairmentRule {
                src: imp.src,
                dst: imp.dst,
                effect: LinkImpairment {
                    latency: ns("latency_ns", imp.latency_ns)?,
                    jitter: ns("jitter_ns", imp.jitter_ns)?,
                    loss: imp.loss,
                    background: ns("background_ns", imp.background_ns)?,
                },
            });
        }
        Ok(ImpairmentConfig { rules })
    }

    /// Validate and translate the fault schedule: build the engine plan,
    /// then dry-compile it against the declared topology so a bad event
    /// (unknown node/switch, unmatched up/down pair, loss out of range)
    /// fails here with the scenario's name and the event index attached,
    /// not as a panic at world-build time.
    fn fault_plan(&self) -> Result<FaultPlan, Error> {
        let s = &self.scenario;
        let plan = FaultPlan {
            events: (s.faults.iter().enumerate())
                .map(|(i, f)| f.event(&s.name, i))
                .collect::<Result<_, _>>()?,
        };
        if plan.drop_capable() && !s.machine.recovery {
            return Err(Error::msg(format!(
                "scenario {:?}: the fault schedule can drop traffic (link/switch/node \
                 failures or a lossy degrade) but machine.recovery is off (dropped \
                 messages would never be retransmitted)",
                s.name
            )));
        }
        CompiledFaults::compile(&plan, &s.topology.spec().build())
            .map_err(|e| Error::msg(format!("scenario {:?}: {e}", s.name)))?;
        Ok(plan)
    }

    /// Gather and incast take the memory size as given (the other
    /// builders size it to their own layout): it must hold the layout.
    fn check_layout_fits(&self, mem_size: usize, n: u32, root: u32) -> Result<(), Error> {
        let s = &self.scenario;
        let layout_end = match &s.workload {
            Workload::Gather {
                put_bytes,
                ring_bytes,
                ..
            } => spin_apps::gather::layout_end(n, root, *put_bytes, *ring_bytes),
            Workload::Incast { .. } => spin_apps::incast::layout_end(n, root),
            _ => 0,
        };
        if mem_size < layout_end {
            let default = if s.machine.mem_size.is_none() {
                " (the default)"
            } else {
                ""
            };
            return Err(Error::msg(format!(
                "scenario {:?}: machine.mem_size = {mem_size}{default} is below the {} \
                 layout's end at {n} nodes; it must be at least {layout_end}",
                s.name,
                s.workload.kind()
            )));
        }
        Ok(())
    }

    /// Gather and incast arm all their root's MEs at start, and an NI
    /// holds at most [`MAX_ENTRIES`]: past that, `me_append` would fail
    /// mid-run.
    fn check_root_mes(&self, n: u32) -> Result<(), Error> {
        let s = &self.scenario;
        let (what, mes) = match &s.workload {
            Workload::Gather { .. } => (
                format!("topology declares {n} endpoints"),
                spin_apps::gather::root_mes(n),
            ),
            Workload::Incast { rounds } => (
                format!("workload.Incast.rounds = {rounds}"),
                spin_apps::incast::root_mes(n, *rounds),
            ),
            _ => return Ok(()),
        };
        if mes > MAX_ENTRIES as u64 {
            return Err(Error::msg(format!(
                "scenario {:?}: {what}: the {} root would arm {mes} MEs at {n} nodes, \
                 more than the {MAX_ENTRIES} an NI holds",
                s.name,
                s.workload.kind()
            )));
        }
        Ok(())
    }

    /// `KvInserts.slots` sizes every server's table: the slot hash divides
    /// by it, and the table's host memory must fit a `usize` and
    /// [`MAX_BYTES`] (keys hash across all slots, and host memory pages in
    /// up to the highest slot written). Every key may hash to the same
    /// server, so only `inserts <= slots` fits the table for every seed.
    fn check_kv_slots(&self, slots: u64, inserts: usize) -> Result<(), Error> {
        let table = slots.saturating_mul(spin_apps::kvstore::SLOT_LEN as u64);
        let why = if slots == 0 {
            "must be at least 1".to_string()
        } else if spin_apps::kvstore::mem_size(slots).is_none() {
            "sizes a table larger than the address space".to_string()
        } else if table > MAX_BYTES as u64 {
            format!(
                "sizes a table of {table} bytes, over {MAX_BYTES}, the bound on \
                 table sizes (1 GiB)"
            )
        } else if inserts as u64 > slots {
            format!(
                "is below workload.KvInserts.inserts = {inserts}; every key may \
                 hash to the same server, so the table needs a slot per insert"
            )
        } else {
            return Ok(());
        };
        Err(Error::msg(format!(
            "scenario {:?}: workload.KvInserts.slots = {slots} {why}",
            self.scenario.name
        )))
    }

    /// Byte field `workload.{field}`, or an error naming it and its value
    /// when it exceeds [`MAX_BYTES`].
    fn payload_bytes(&self, field: &str, bytes: usize) -> Result<usize, Error> {
        if bytes > MAX_BYTES {
            return Err(Error::msg(format!(
                "scenario {:?}: workload.{field} = {bytes} exceeds {MAX_BYTES}, the \
                 bound on payload sizes (1 GiB)",
                self.scenario.name
            )));
        }
        Ok(bytes)
    }

    /// `Saturate`'s injection interval and service time as simulated time;
    /// fails when either exceeds [`MAX_NS`] or a sender's schedule,
    /// `messages × interval_ns`, exceeds [`MAX_SCHEDULE_NS`].
    fn saturate_times(
        &self,
        messages: u32,
        interval_ns: u64,
        service_ns: u64,
    ) -> Result<(Time, Time), Error> {
        let name = &self.scenario.name;
        let ns = |field: &str, ns| ns_field(name, format_args!("workload.Saturate.{field}"), ns);
        let times = (
            ns("interval_ns", interval_ns)?,
            ns("service_ns", service_ns)?,
        );
        // In u128, since `u32::MAX × MAX_NS` overflows u64.
        let schedule = u128::from(messages) * u128::from(interval_ns);
        if schedule > u128::from(MAX_SCHEDULE_NS) {
            return Err(Error::msg(format!(
                "scenario {name:?}: workload.Saturate.messages × interval_ns = \
                 {messages} × {interval_ns} = {schedule} exceeds {MAX_SCHEDULE_NS}, \
                 the bound on a sender's send schedule (1,000 simulated hours)"
            )));
        }
        Ok(times)
    }

    /// `PingPong`'s round count, or an error when its chained impairment
    /// delays exceed [`MAX_SCHEDULE_NS`]. Each round is a ping and a pong,
    /// one after the other, and each may cross the slowest impairment rule,
    /// so the chain is `rounds × 2 × (latency_ns + jitter_ns +
    /// background_ns)` of that rule (the first one, on a tie).
    fn pingpong_rounds(&self, rounds: u32) -> Result<u32, Error> {
        let s = &self.scenario;
        let slowest = (s.impairments.iter().enumerate().rev())
            .map(|(i, imp)| {
                let delay = u128::from(imp.latency_ns)
                    + u128::from(imp.jitter_ns)
                    + u128::from(imp.background_ns);
                (i, delay)
            })
            .max_by_key(|&(_, delay)| delay);
        let Some((i, delay)) = slowest else {
            return Ok(rounds);
        };
        // In u128, since `u32::MAX × 2 × 3 × MAX_NS` overflows u64.
        let chain = u128::from(rounds) * 2 * delay;
        if chain > u128::from(MAX_SCHEDULE_NS) {
            return Err(Error::msg(format!(
                "scenario {:?}: workload.PingPong.rounds × 2 × impairments[{i}].(latency_ns \
                 + jitter_ns + background_ns) = {rounds} × 2 × {delay} = {chain} exceeds \
                 {MAX_SCHEDULE_NS}, the bound on a ping-pong's chained delays (1,000 \
                 simulated hours)",
                s.name
            )));
        }
        Ok(rounds)
    }

    /// Compile to a ready-to-run builder.
    pub fn compile(&self) -> Result<SimBuilder, Error> {
        let s = &self.scenario;
        let cfg = self.machine_config()?;
        let n = self.nodes();
        let root = s.roles.root;
        if root >= n {
            return Err(Error::msg(format!(
                "scenario {:?}: roles.root is {root} but the topology has {n} endpoints",
                s.name
            )));
        }
        let fixed_root = |kind: &str| -> Result<(), Error> {
            if root != 0 {
                return Err(Error::msg(format!(
                    "scenario {:?}: the {kind} workload has a fixed layout (rank 0 \
                     is the distinguished node); roles.root must be 0",
                    s.name
                )));
            }
            Ok(())
        };
        let exact_nodes = |want: u32, why: &str| -> Result<(), Error> {
            if n != want {
                return Err(Error::msg(format!(
                    "scenario {:?}: {why}, but the topology declares {n}",
                    s.name
                )));
            }
            Ok(())
        };
        self.check_layout_fits(cfg.host.mem_size, n, root)?;
        self.check_root_mes(n)?;
        match &s.workload {
            Workload::Gather {
                put_bytes,
                ring_bytes,
                stride,
            } => {
                if *put_bytes > 0x2000 {
                    return Err(Error::msg(format!(
                        "scenario {:?}: gather put_bytes {put_bytes} exceeds the \
                         per-sender gather region (8192 B)",
                        s.name
                    )));
                }
                Ok(spin_apps::gather::builder(
                    cfg,
                    n,
                    root,
                    *put_bytes,
                    *ring_bytes,
                    *stride,
                ))
            }
            Workload::Incast { rounds } => Ok(spin_apps::incast::builder(cfg, n, root, *rounds)),
            Workload::PingPong {
                bytes,
                rounds,
                mode,
            } => {
                fixed_root("ping-pong")?;
                exact_nodes(2, "ping-pong needs exactly 2 nodes")?;
                let mode = match mode {
                    PingPongModeConfig::Rdma => spin_apps::pingpong::PingPongMode::Rdma,
                    PingPongModeConfig::P4 => spin_apps::pingpong::PingPongMode::P4,
                    PingPongModeConfig::SpinStore => spin_apps::pingpong::PingPongMode::SpinStore,
                    PingPongModeConfig::SpinStream => spin_apps::pingpong::PingPongMode::SpinStream,
                };
                let bytes = self.payload_bytes("PingPong.bytes", *bytes)?;
                let rounds = self.pingpong_rounds(*rounds)?;
                Ok(spin_apps::pingpong::builder(cfg, mode, bytes, rounds))
            }
            Workload::Bcast { bytes, mode } => {
                fixed_root("broadcast")?;
                let mode = match mode {
                    BcastModeConfig::Rdma => spin_apps::bcast::BcastMode::Rdma,
                    BcastModeConfig::P4 => spin_apps::bcast::BcastMode::P4,
                    BcastModeConfig::Spin => spin_apps::bcast::BcastMode::Spin,
                };
                let bytes = self.payload_bytes("Bcast.bytes", *bytes)?;
                Ok(spin_apps::bcast::builder(cfg, mode, bytes, n))
            }
            Workload::KvInserts { slots, inserts } => {
                fixed_root("key-value")?;
                self.check_kv_slots(*slots, *inserts)?;
                let pairs = spin_apps::kvstore::random_pairs(*inserts, cfg.seed);
                Ok(spin_apps::kvstore::builder(cfg, n - 1, *slots, pairs))
            }
            Workload::Saturate {
                messages,
                bytes,
                interval_ns,
                service_ns,
                mode,
            } => {
                fixed_root("saturation")?;
                let (interval, service) =
                    self.saturate_times(*messages, *interval_ns, *service_ns)?;
                let params = spin_apps::saturate::SaturateParams {
                    senders: n - 1,
                    messages: *messages,
                    bytes: self.payload_bytes("Saturate.bytes", *bytes)?,
                    interval,
                    service,
                };
                let mode = match mode {
                    TransportConfig::Rdma => spin_apps::saturate::SaturateMode::Rdma,
                    TransportConfig::Spin => spin_apps::saturate::SaturateMode::Spin,
                };
                Ok(spin_apps::saturate::builder(cfg, mode, params))
            }
            Workload::Raid { total_bytes, mode } => {
                fixed_root("RAID")?;
                exact_nodes(6, "RAID needs exactly 6 nodes (client + parity + 4 data)")?;
                let total_bytes = self.payload_bytes("Raid.total_bytes", *total_bytes)?;
                let w = spin_apps::raid::RaidWorkload::fig7c(total_bytes);
                let mode = match mode {
                    TransportConfig::Rdma => spin_apps::raid::RaidMode::Rdma,
                    TransportConfig::Spin => spin_apps::raid::RaidMode::Spin,
                };
                Ok(spin_apps::raid::builder(cfg, mode, &w))
            }
        }
    }

    /// Compile and run: `shards ≤ 1` runs the serial reference engine,
    /// `k ≥ 2` the exact sharded engine (bit-identical to serial).
    pub fn run(&self, shards: usize) -> Result<SimOutput, Error> {
        Ok(self
            .compile()?
            .run_with_shards_mode(shards, ShardMode::Exact))
    }

    /// Check the report against the scenario's pinned expectations.
    pub fn check(&self, report: &Report) -> Result<(), Error> {
        let s = &self.scenario;
        if let Some(want) = &s.expect.digest {
            let want = parse_digest(want).ok_or_else(|| {
                Error::msg(format!(
                    "scenario {:?}: expect.digest {want:?} is not a hex u64",
                    s.name
                ))
            })?;
            let got = digest(report);
            if got != want {
                return Err(Error::msg(format!(
                    "scenario {:?}: digest {got:#x} != pinned {want:#x}\n{}",
                    s.name,
                    fingerprint(report)
                )));
            }
        }
        let nacks: u64 = report.node_stats.iter().map(|n| n.recovery_nacks).sum();
        if nacks < s.expect.min_nacks {
            return Err(Error::msg(format!(
                "scenario {:?}: {nacks} NACKs < pinned minimum {}",
                s.name, s.expect.min_nacks
            )));
        }
        let rtx: u64 = report
            .node_stats
            .iter()
            .map(|n| n.recovery_retransmits)
            .sum();
        if rtx < s.expect.min_retransmits {
            return Err(Error::msg(format!(
                "scenario {:?}: {rtx} retransmits < pinned minimum {}",
                s.name, s.expect.min_retransmits
            )));
        }
        let reroutes: u64 = report.node_stats.iter().map(|n| n.reroutes).sum();
        if reroutes < s.expect.min_reroutes {
            return Err(Error::msg(format!(
                "scenario {:?}: {reroutes} reroutes < pinned minimum {}",
                s.name, s.expect.min_reroutes
            )));
        }
        if let Some(max) = s.expect.max_abandoned {
            let abandoned: u64 = report.node_stats.iter().map(|n| n.recovery_abandoned).sum();
            if abandoned > max {
                let mut detail = String::new();
                for (rank, st) in report.node_stats.iter().enumerate() {
                    for &(peer, count) in &st.abandoned_peers {
                        use std::fmt::Write as _;
                        write!(
                            detail,
                            "\n  rank {rank} abandoned {count} message(s) to peer {peer}"
                        )
                        .unwrap();
                    }
                }
                return Err(Error::msg(format!(
                    "scenario {:?}: {abandoned} abandoned message(s) > pinned maximum {max}{detail}",
                    s.name
                )));
            }
        }
        Ok(())
    }
}

/// Parse a pinned `"0x..."` digest.
pub fn parse_digest(text: &str) -> Option<u64> {
    let hex = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_err(s: Scenario) -> Error {
        match ScenarioCompiler::new(s).compile() {
            Ok(_) => panic!("scenario compiled unexpectedly"),
            Err(e) => e,
        }
    }

    fn gather_json(extra: &str) -> String {
        format!(
            r#"{{
              "name": "t",
              "topology": {{"FatTree": {{"nodes": 4, "ports": 4}}}},
              "workload": {{"Gather": {{"put_bytes": 2048, "ring_bytes": 128, "stride": 1}}}}{extra}
            }}"#
        )
    }

    #[test]
    fn minimal_scenario_parses_compiles_and_runs() {
        let s = Scenario::from_json(&gather_json("")).unwrap();
        assert_eq!(s.machine, MachineKnobs::default());
        assert_eq!(s.roles, Roles::default());
        let c = ScenarioCompiler::new(s);
        assert_eq!(c.nodes(), 4);
        let out = c.run(1).unwrap();
        assert!(out.report.events_executed > 0);
        c.check(&out.report).unwrap();
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"nic": "Discrete", "seed": 7, "recovery": true},
               "impairments": [{"dst": 0, "jitter_ns": 100, "loss": 0.1}],
               "roles": {"root": 2},
               "expect": {"digest": "0xdeadbeef", "min_nacks": 1}"#,
        ))
        .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.machine.nic, NicChoice::Discrete);
        assert_eq!(s.impairments[0].dst, Some(0));
        assert_eq!(s.impairments[0].src, None);
        assert_eq!(s.expect.digest.as_deref(), Some("0xdeadbeef"));
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let bad = gather_json(", \"wrokload\": 1");
        let e = Scenario::from_json(&bad).unwrap_err();
        assert!(e.message().contains("wrokload"), "{e}");
    }

    #[test]
    fn loss_without_recovery_is_rejected() {
        let s = Scenario::from_json(&gather_json(r#", "impairments": [{"loss": 0.5}]"#)).unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("recovery"), "{e}");
    }

    #[test]
    fn node_count_mismatches_are_rejected() {
        let s = Scenario::from_json(
            r#"{
              "name": "t",
              "topology": {"Torus": {"dims": [3]}},
              "workload": {"PingPong": {"bytes": 4096, "rounds": 1, "mode": "Rdma"}}
            }"#,
        )
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("exactly 2 nodes"), "{e}");
    }

    #[test]
    fn fixed_layout_workloads_reject_a_moved_root() {
        let s = Scenario::from_json(
            r#"{
              "name": "t",
              "topology": {"Torus": {"dims": [2]}},
              "roles": {"root": 1},
              "workload": {"PingPong": {"bytes": 4096, "rounds": 1, "mode": "Rdma"}}
            }"#,
        )
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("roles.root must be 0"), "{e}");
    }

    #[test]
    fn digest_check_fails_loudly_on_mismatch() {
        let s = Scenario::from_json(&gather_json(r#", "expect": {"digest": "0x1"}"#)).unwrap();
        let c = ScenarioCompiler::new(s);
        let out = c.run(1).unwrap();
        let e = c.check(&out.report).unwrap_err();
        assert!(e.message().contains("pinned 0x1"), "{e}");
    }

    #[test]
    fn impairment_endpoints_are_range_checked() {
        let s = Scenario::from_json(&gather_json(
            r#", "impairments": [{"src": 9, "latency_ns": 10}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("src 9"), "{e}");
    }

    #[test]
    fn faults_roundtrip_compile_and_run() {
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"recovery": true},
               "faults": [
                 {"at_ns": 2000, "action": {"LinkDown": {"node": 1}}},
                 {"at_ns": 9000, "action": {"LinkUp": {"node": 1}}},
                 {"at_ns": 100, "action": {"Degrade": {"dst": 0, "extra_latency_ns": 250}}},
                 {"at_ns": 4000, "action": {"Restore": {"dst": 0}}}
               ]"#,
        ))
        .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.faults.len(), 4);
        assert_eq!(
            s.faults[2].action,
            FaultActionConfig::Degrade {
                src: None,
                dst: Some(0),
                extra_latency_ns: 250,
                loss: 0.0
            }
        );
        let c = ScenarioCompiler::new(s);
        let plan = c.machine_config().unwrap().faults.expect("plan installed");
        assert_eq!(plan.events.len(), 4);
        let out = c.run(1).unwrap();
        assert!(out.report.events_executed > 0);
    }

    #[test]
    fn drop_capable_faults_without_recovery_are_rejected() {
        let s = Scenario::from_json(&gather_json(
            r#", "faults": [{"at_ns": 0, "action": {"NodeCrash": {"node": 1}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("machine.recovery is off"), "{e}");
    }

    #[test]
    fn bad_topologies_are_errors_naming_the_field_and_value() {
        let cases = [
            (
                r#"{"FatTree": {"nodes": 4, "ports": 1}}"#,
                "FatTree.ports = 1",
            ),
            (
                r#"{"FatTree": {"nodes": 4, "ports": 0}}"#,
                "FatTree.ports = 0",
            ),
            (
                r#"{"FatTree": {"nodes": 0, "ports": 4}}"#,
                "FatTree.nodes = 0",
            ),
            (
                r#"{"FatTree": {"nodes": 20000, "ports": 36}}"#,
                "FatTree.nodes = 20000",
            ),
            (
                r#"{"Dragonfly": {"groups": 0, "routers_per_group": 2, "nodes_per_router": 2}}"#,
                "Dragonfly.groups = 0",
            ),
            (
                r#"{"Dragonfly": {"groups": 2, "routers_per_group": 0, "nodes_per_router": 2}}"#,
                "Dragonfly.routers_per_group = 0",
            ),
            (
                r#"{"Dragonfly": {"groups": 2, "routers_per_group": 2, "nodes_per_router": 0}}"#,
                "Dragonfly.nodes_per_router = 0",
            ),
            (
                r#"{"Dragonfly": {"groups": 65536, "routers_per_group": 65536, "nodes_per_router": 2}}"#,
                "Dragonfly = 65536 × 65536 × 2",
            ),
            (r#"{"Torus": {"dims": []}}"#, "Torus.dims = []"),
            (r#"{"Torus": {"dims": [4, 0]}}"#, "Torus.dims[1] = 0"),
            (
                r#"{"Torus": {"dims": [65536, 65536]}}"#,
                "Torus.dims = [65536, 65536]",
            ),
        ];
        for (topology, names) in cases {
            let s = Scenario::from_json(&format!(
                r#"{{"name": "bad", "topology": {topology}, "workload": {{"Incast": {{"rounds": 1}}}}}}"#
            ))
            .unwrap();
            let compiled =
                std::panic::catch_unwind(|| ScenarioCompiler::new(s).compile().map(drop))
                    .unwrap_or_else(|_| panic!("{topology} panicked"));
            let err = compiled.expect_err(topology);
            assert!(
                err.message()
                    .starts_with(&format!(r#"scenario "bad": topology.{names}:"#)),
                "{err}"
            );
        }
    }

    /// Run `s` under `catch_unwind`: it must never panic, and must either
    /// run (`want` is `None`) or fail with exactly `want` after the
    /// scenario-name prefix.
    fn assert_runs_or_fails_naming(what: &str, s: Scenario, want: Option<&str>) {
        let name = s.name.clone();
        let run = std::panic::catch_unwind(|| {
            ScenarioCompiler::new(s)
                .run(1)
                .map(|out| out.report.events_executed)
        })
        .unwrap_or_else(|_| panic!("{what} panicked"));
        match (run, want) {
            (Ok(events), None) => assert!(events > 0, "{what} ran no events"),
            (Err(e), Some(want)) => {
                assert_eq!(e.message(), format!("scenario {name:?}: {want}"), "{what}")
            }
            (run, _) => panic!("{what}: {run:?}"),
        }
    }

    #[test]
    fn host_memory_sizing_is_a_run_or_a_named_error_never_a_panic() {
        const INCAST: &str = r#"{"Incast": {"rounds": 1}}"#;
        const GATHER: &str = r#"{"Gather": {"put_bytes": 2048, "ring_bytes": 128, "stride": 1}}"#;
        const TREE4: &str = r#"{"FatTree": {"nodes": 4, "ports": 4}}"#;
        // (what, topology, machine knobs, workload, None for a clean run or
        // Some(the error after the scenario name)).
        let cases = [
            (
                "256-node incast at the default size",
                r#"{"FatTree": {"nodes": 256, "ports": 16}}"#,
                "{}",
                INCAST,
                None,
            ),
            (
                "mem_size 0",
                TREE4,
                r#"{"mem_size": 0}"#,
                INCAST,
                Some("machine.mem_size = 0 is below the incast layout's end at 4 nodes; it must be at least 593920"),
            ),
            (
                "mem_size u64::MAX",
                TREE4,
                r#"{"mem_size": 18446744073709551615}"#,
                INCAST,
                None,
            ),
            (
                "9,000-node incast at the default size",
                r#"{"FatTree": {"nodes": 9000, "ports": 36}}"#,
                "{}",
                INCAST,
                Some("machine.mem_size = 67108864 (the default) is below the incast layout's end at 9000 nodes; it must be at least 73793536"),
            ),
            (
                "gather in one page",
                TREE4,
                r#"{"mem_size": 4096}"#,
                GATHER,
                Some("machine.mem_size = 4096 is below the gather layout's end at 4 nodes; it must be at least 528384"),
            ),
            (
                "key-value table of 0 slots",
                TREE4,
                "{}",
                r#"{"KvInserts": {"slots": 0, "inserts": 10}}"#,
                Some("workload.KvInserts.slots = 0 must be at least 1"),
            ),
            (
                "key-value table of u64::MAX slots",
                TREE4,
                "{}",
                r#"{"KvInserts": {"slots": 18446744073709551615, "inserts": 10}}"#,
                Some("workload.KvInserts.slots = 18446744073709551615 sizes a table larger than the address space"),
            ),
            (
                "50 key-value inserts into 1 slot",
                TREE4,
                "{}",
                r#"{"KvInserts": {"slots": 1, "inserts": 50}}"#,
                Some("workload.KvInserts.slots = 1 is below workload.KvInserts.inserts = 50; every key may hash to the same server, so the table needs a slot per insert"),
            ),
            (
                "16 key-value inserts into 16 slots",
                TREE4,
                "{}",
                r#"{"KvInserts": {"slots": 16, "inserts": 16}}"#,
                None,
            ),
        ];
        for (what, topology, machine, workload, want) in cases {
            let s = Scenario::from_json(&format!(
                r#"{{"name": "mem", "topology": {topology}, "machine": {machine},
                    "workload": {workload}}}"#
            ))
            .unwrap();
            assert_runs_or_fails_naming(what, s, want);
        }
        // Every byte field just past the bound and at u64::MAX. No case
        // runs at the bound itself: it would allocate gigabytes.
        let byte_fields = [
            (
                "PingPong",
                "bytes",
                r#"{"Torus": {"dims": [2]}}"#,
                r#""rounds": 1, "mode": "Rdma""#,
            ),
            ("Bcast", "bytes", TREE4, r#""mode": "Spin""#),
            (
                "Saturate",
                "bytes",
                TREE4,
                r#""messages": 4, "interval_ns": 2000, "service_ns": 2000, "mode": "Spin""#,
            ),
            (
                "Raid",
                "total_bytes",
                r#"{"FatTree": {"nodes": 6, "ports": 4}}"#,
                r#""mode": "Spin""#,
            ),
        ];
        for (kind, field, topology, rest) in byte_fields {
            for value in [MAX_BYTES as u64 + 1, u64::MAX] {
                let s = Scenario::from_json(&format!(
                    r#"{{"name": "mem", "topology": {topology},
                        "workload": {{"{kind}": {{"{field}": {value}, {rest}}}}}}}"#
                ))
                .unwrap();
                let want = format!(
                    "workload.{kind}.{field} = {value} exceeds {MAX_BYTES}, the bound on \
                     payload sizes (1 GiB)"
                );
                assert_runs_or_fails_naming(&format!("{kind}.{field} = {value}"), s, Some(&want));
            }
        }
        let kv = |slots: u64| format!(r#"{{"KvInserts": {{"slots": {slots}, "inserts": 16}}}}"#);
        let incast = |rounds: u32| format!(r#"{{"Incast": {{"rounds": {rounds}}}}}"#);
        let ring = |nodes: u32| format!(r#"{{"Torus": {{"dims": [{nodes}]}}}}"#);
        let scenario = |topology: &str, machine: &str, workload: &str| {
            Scenario::from_json(&format!(
                r#"{{"name": "mem", "topology": {topology}, "machine": {machine},
                    "workload": {workload}}}"#
            ))
            .unwrap()
        };
        const TREE1024: &str = r#"{"FatTree": {"nodes": 1024, "ports": 16}}"#;
        let max_slots = (MAX_BYTES / spin_apps::kvstore::SLOT_LEN) as u64;
        let limit = MAX_ENTRIES as u32;
        // One slot past the key-value table bound, and an incast root that
        // would arm 1,024 × 100 MEs: named errors. No larger table runs: if
        // the bound broke, 2^38 slots would ask for a 24 GB page table.
        let over = [
            (
                TREE4,
                kv(max_slots + 1),
                format!(
                    "workload.KvInserts.slots = {} sizes a table of {} bytes, over \
                     {MAX_BYTES}, the bound on table sizes (1 GiB)",
                    max_slots + 1,
                    (max_slots + 1) * spin_apps::kvstore::SLOT_LEN as u64
                ),
            ),
            (
                TREE1024,
                incast(100),
                format!(
                    "workload.Incast.rounds = 100: the incast root would arm 102400 MEs \
                     at 1024 nodes, more than the {limit} an NI holds"
                ),
            ),
        ];
        for (topology, workload, want) in over {
            assert_runs_or_fails_naming(
                &workload,
                scenario(topology, "{}", &workload),
                Some(&want),
            );
        }
        // At each bound `compile` succeeds, and one ME past the limit it
        // fails. None of these runs: a run would page in a 1 GiB table or
        // build a 65,536-node world.
        let any_mem = r#"{"mem_size": 18446744073709551615}"#;
        let past_limit = |kind: &str, what: &str| {
            let n = limit + 1;
            Some(format!(
                "{what}: the {kind} root would arm {n} MEs at {n} nodes, more than the \
                 {limit} an NI holds"
            ))
        };
        let compile_only = [
            (TREE4.to_owned(), "{}", kv(max_slots), None),
            // 1,024 senders × 64 rounds: exactly MAX_ENTRIES MEs.
            (TREE1024.to_owned(), "{}", incast(limit / 1024), None),
            (ring(limit), any_mem, GATHER.to_owned(), None),
            (
                ring(limit + 1),
                any_mem,
                incast(1),
                past_limit("incast", "workload.Incast.rounds = 1"),
            ),
            (
                ring(limit + 1),
                any_mem,
                GATHER.to_owned(),
                past_limit(
                    "gather",
                    &format!("topology declares {} endpoints", limit + 1),
                ),
            ),
        ];
        for (topology, machine, workload, want) in compile_only {
            let compiled = ScenarioCompiler::new(scenario(&topology, machine, &workload)).compile();
            assert_eq!(
                compiled.map(drop).map_err(|e| e.message().to_owned()),
                want.map_or(Ok(()), |w| Err(format!("scenario \"mem\": {w}"))),
                "{topology} {workload}"
            );
        }
    }

    #[test]
    fn nanosecond_fields_are_a_run_or_a_named_error_never_a_panic() {
        let (max, over, top) = (MAX_NS, MAX_NS + 1, u64::MAX);
        // Each builder returns (workload, extra top-level keys).
        let gather = r#"{"Gather": {"put_bytes": 2048, "ring_bytes": 128, "stride": 1}}"#;
        let imp = |rules: String| (gather.to_owned(), format!(r#", "impairments": [{rules}]"#));
        let degrade = |at: u64, extra: u64| {
            let rule = |at, dst, extra| {
                format!(
                    r#"{{"at_ns": {at}, "action": {{"Degrade": {{"dst": {dst}, "extra_latency_ns": {extra}}}}}}}"#
                )
            };
            let faults = format!("{}, {}", rule(0, 1, 0), rule(at, 0, extra));
            (gather.to_owned(), format!(r#", "faults": [{faults}]"#))
        };
        let saturate = |interval: u64, service: u64| {
            let workload = format!(
                r#"{{"Saturate": {{"messages": 4, "bytes": 8192, "interval_ns": {interval},
                    "service_ns": {service}, "mode": "Spin"}}}}"#
            );
            (workload, String::new())
        };
        // (scenario parts, None for a clean run or Some(field path, value)).
        let cases = [
            (
                imp(format!(
                    r#"{{"latency_ns": {max}, "jitter_ns": {max}, "background_ns": {max}}}"#
                )),
                None,
            ),
            (
                imp(format!(r#"{{"latency_ns": {over}}}"#)),
                Some(("impairments[0].latency_ns", over)),
            ),
            (
                imp(format!(r#"{{"latency_ns": {top}}}"#)),
                Some(("impairments[0].latency_ns", top)),
            ),
            (
                imp(format!(r#"{{"dst": 1}}, {{"jitter_ns": {top}}}"#)),
                Some(("impairments[1].jitter_ns", top)),
            ),
            (
                imp(format!(r#"{{"background_ns": {top}}}"#)),
                Some(("impairments[0].background_ns", top)),
            ),
            (degrade(max, max), None),
            (degrade(top, 0), Some(("faults[1].at_ns", top))),
            (
                degrade(0, top),
                Some(("faults[1].action.Degrade.extra_latency_ns", top)),
            ),
            (saturate(max, 2000), None),
            (
                saturate(top, 2000),
                Some(("workload.Saturate.interval_ns", top)),
            ),
            (
                saturate(2000, top),
                Some(("workload.Saturate.service_ns", top)),
            ),
        ];
        for ((workload, extra), want) in cases {
            let what = format!("{workload}{extra}");
            let s = Scenario::from_json(&format!(
                r#"{{"name": "ns", "topology": {{"FatTree": {{"nodes": 4, "ports": 4}}}},
                    "machine": {{"recovery": true}}, "workload": {workload}{extra}}}"#
            ))
            .unwrap();
            let want = want.map(|(field, value)| {
                format!(
                    "{field} = {value} exceeds {MAX_NS}, the bound on nanosecond fields \
                     (one simulated hour)"
                )
            });
            assert_runs_or_fails_naming(&what, s, want.as_deref());
        }
    }

    #[test]
    fn saturate_schedules_are_a_run_or_a_named_error_never_a_panic() {
        // One sender on a 2-node tree sends `messages` one hour apart; past
        // 1,000 hours the schedule is refused, since a few thousand hourly
        // sends wrap `Time`.
        let hour = MAX_NS;
        let schedule = |messages: u32| {
            Scenario::from_json(&format!(
                r#"{{"name": "ns", "topology": {{"FatTree": {{"nodes": 2, "ports": 4}}}},
                    "workload": {{"Saturate": {{"messages": {messages}, "bytes": 64,
                    "interval_ns": {hour}, "service_ns": 100, "mode": "Rdma"}}}}}}"#
            ))
            .unwrap()
        };
        let over = |messages: u32| {
            let product = u128::from(messages) * u128::from(hour);
            format!(
                "workload.Saturate.messages × interval_ns = {messages} × {hour} = {product} \
                 exceeds {MAX_SCHEDULE_NS}, the bound on a sender's send schedule \
                 (1,000 simulated hours)"
            )
        };
        assert_runs_or_fails_naming("1,000 hourly sends", schedule(1_000), None);
        for messages in [1_001, 6_000, u32::MAX] {
            let want = over(messages);
            assert_runs_or_fails_naming(&want, schedule(messages), Some(&want));
        }
    }

    #[test]
    fn pingpong_delay_chains_are_a_run_or_a_named_error_never_a_panic() {
        // A 2-node RDMA ping-pong under a one-hour impairment: each round
        // chains two hour-long messages, so past 500 rounds (1,000 hours)
        // the run is refused, since a few thousand rounds wrap `Time`.
        let hour = MAX_NS;
        let pingpong = |rounds: u32| {
            Scenario::from_json(&format!(
                r#"{{"name": "pp", "topology": {{"FatTree": {{"nodes": 2, "ports": 4}}}},
                    "impairments": [{{"latency_ns": 1000}}, {{"latency_ns": {hour}}}],
                    "workload": {{"PingPong": {{"bytes": 64, "rounds": {rounds},
                    "mode": "Rdma"}}}}}}"#
            ))
            .unwrap()
        };
        let over = |rounds: u32| {
            let chain = u128::from(rounds) * 2 * u128::from(hour);
            format!(
                "workload.PingPong.rounds × 2 × impairments[1].(latency_ns + jitter_ns + \
                 background_ns) = {rounds} × 2 × {hour} = {chain} exceeds {MAX_SCHEDULE_NS}, \
                 the bound on a ping-pong's chained delays (1,000 simulated hours)"
            )
        };
        let cases = [
            (500, None),
            (501, Some(over(501))),
            (3_000, Some(over(3_000))),
            (u32::MAX, Some(over(u32::MAX))),
        ];
        for (rounds, want) in cases {
            let what = format!("{rounds} rounds of {hour} ns");
            assert_runs_or_fails_naming(&what, pingpong(rounds), want.as_deref());
        }
    }

    #[test]
    fn fault_validation_names_the_scenario_and_event() {
        // Node out of range for the 4-endpoint tree.
        let s = Scenario::from_json(&gather_json(
            r#", "machine": {"recovery": true},
               "faults": [{"at_ns": 0, "action": {"LinkDown": {"node": 9}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("\"t\""), "{e}");
        assert!(e.message().contains("node 9"), "{e}");
        // Unmatched LinkUp.
        let s = Scenario::from_json(&gather_json(
            r#", "faults": [{"at_ns": 0, "action": {"LinkUp": {"node": 1}}}]"#,
        ))
        .unwrap();
        let e = compile_err(s);
        assert!(e.message().contains("no open LinkDown"), "{e}");
    }

    #[test]
    fn max_abandoned_zero_passes_a_clean_run() {
        let s = Scenario::from_json(&gather_json(r#", "expect": {"max_abandoned": 0}"#)).unwrap();
        let c = ScenarioCompiler::new(s);
        let out = c.run(1).unwrap();
        c.check(&out.report).unwrap();
    }

    #[test]
    fn every_workload_kind_compiles_on_a_fitting_topology() {
        let cases = [
            (
                r#"{"name":"a","topology":{"Dragonfly":{"groups":2,"routers_per_group":2,"nodes_per_router":2}},
                   "workload":{"Incast":{"rounds":1}}}"#,
                "incast",
            ),
            (
                r#"{"name":"b","topology":{"Torus":{"dims":[2]}},
                   "workload":{"PingPong":{"bytes":8192,"rounds":2,"mode":"SpinStream"}}}"#,
                "pingpong",
            ),
            (
                r#"{"name":"c","topology":{"Torus":{"dims":[2,2]}},
                   "workload":{"Bcast":{"bytes":8192,"mode":"Spin"}}}"#,
                "bcast",
            ),
            (
                r#"{"name":"d","topology":{"FatTree":{"nodes":3,"ports":4}},
                   "workload":{"KvInserts":{"slots":64,"inserts":10}}}"#,
                "kv",
            ),
            (
                r#"{"name":"e","topology":{"FatTree":{"nodes":3,"ports":4}},
                   "machine":{"recovery":true},
                   "workload":{"Saturate":{"messages":4,"bytes":8192,"interval_ns":2000,"service_ns":2000,"mode":"Spin"}}}"#,
                "saturate",
            ),
            (
                r#"{"name":"f","topology":{"FatTree":{"nodes":6,"ports":4}},
                   "workload":{"Raid":{"total_bytes":16384,"mode":"Spin"}}}"#,
                "raid",
            ),
        ];
        for (json, kind) in cases {
            let s = Scenario::from_json(json).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(s.workload.kind(), kind);
            let out = ScenarioCompiler::new(s)
                .run(1)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(out.report.events_executed > 0, "{kind} ran no events");
        }
    }
}
