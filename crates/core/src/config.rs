//! Machine configuration: the complete §4.2/§4.3 parameter set.

use crate::fault::FaultPlan;
use spin_hpu::dma::DmaParams;
use spin_hpu::pool::HpuConfig;
use spin_net::params::NetParams;
use spin_net::transfer::Network;
use spin_net::TopologySpec;
use spin_sim::noise::NoiseModel;
use spin_sim::time::{BytesPerTime, Time};

/// NIC integration style (§4): discrete over PCIe, or integrated on the
/// memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicKind {
    /// Discrete NIC ("dis"): DMA L = 250 ns, 64 GiB/s.
    Discrete,
    /// Integrated NIC ("int"): DMA L = 50 ns, 150 GiB/s.
    Integrated,
}

impl NicKind {
    /// The matching DMA parameters from §4.3.
    pub fn dma_params(self) -> DmaParams {
        match self {
            NicKind::Discrete => DmaParams::discrete(),
            NicKind::Integrated => DmaParams::integrated(),
        }
    }

    /// Short label used in experiment output ("dis"/"int").
    pub fn label(self) -> &'static str {
        match self {
            NicKind::Discrete => "dis",
            NicKind::Integrated => "int",
        }
    }
}

/// Host CPU and memory model (§4.2: eight 2.5 GHz Haswell cores, 8 MiB
/// cache, 51 ns DRAM latency, 150 GiB/s).
#[derive(Debug, Clone, Copy)]
pub struct HostParams {
    /// CPU cores per node.
    pub cores: usize,
    /// Host memory bandwidth.
    pub mem_bandwidth: BytesPerTime,
    /// DRAM access latency.
    pub dram_latency: Time,
    /// Latency from "event in the completion queue" to "host code reacts":
    /// the polling/dispatch cost of an event-driven progress engine (one
    /// DRAM read of the CQ entry plus branch-out).
    pub dispatch_latency: Time,
    /// Simulated host memory size per node.
    pub mem_size: usize,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            cores: 8,
            mem_bandwidth: BytesPerTime::from_gib_per_sec(150.0),
            dram_latency: Time::from_ns(51),
            dispatch_latency: Time::from_ns(51),
            mem_size: 64 << 20,
        }
    }
}

/// Closed-loop flow-control recovery parameters (§3.2): when set, a
/// message bouncing off a disabled portal table entry is NACKed back to
/// the initiator, which queues it, backs off, probes, and replays in
/// order; the target NIC automatically re-enables the entry once its
/// in-flight messages and HPU contexts drain and an ME is available. When
/// `None` (the paper's baseline behaviour), recovery is manual: the host
/// must call `PtlPTEnable` and dropped messages are lost.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Initial sender backoff after a `PtDisabled` NACK.
    pub backoff: Time,
    /// Exponential backoff cap (doubles on every failed probe).
    pub max_backoff: Time,
    /// Receiver-side drain-poll cadence while a PT is disabled.
    pub drain_interval: Time,
    /// Minimum time a PT stays disabled before automatic re-enable. Keeps
    /// the entry closed long enough that every message already in flight
    /// when it disabled has bounced (and been NACKed), so replays cannot be
    /// overtaken by stragglers racing the re-enable — per-pair ordering
    /// survives the episode.
    pub reenable_guard: Time,
    /// Consecutive failed probes before a sender abandons a `(peer, PT)`
    /// episode and drops its queued messages (delivery failure, counted in
    /// `NicStats::recovery_abandoned`). Bounds the retry loop so a target
    /// that never re-enables cannot keep the simulation alive forever.
    pub max_probes: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            backoff: Time::from_us(1),
            max_backoff: Time::from_us(4),
            drain_interval: Time::from_ns(200),
            reenable_guard: Time::from_us(2),
            max_probes: 64,
        }
    }
}

/// Additive impairment applied to every message crossing one directed
/// link class (scenario "bad cable" / "congested uplink" modelling).
///
/// All stochastic draws come from a per-`(src, dst)` RNG stream derived
/// from the machine seed, advanced once per message in source-side inject
/// order — node-local order is identical on the serial and sharded
/// engines, so impaired runs stay bit-identical at any shard count. One
/// draw set covers the whole message (all its packets shift together), so
/// impairments can never reorder a message's follow-on packets ahead of
/// its header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkImpairment {
    /// Fixed extra propagation latency.
    pub latency: Time,
    /// Uniform jitter in `[0, jitter]`, drawn per message.
    pub jitter: Time,
    /// Probability that a message is lost in the fabric, drawn per
    /// attempt. Lost messages still occupy the source egress link (the
    /// bytes were transmitted) but never reach the destination; the loss
    /// surfaces to the sender as a `PtDisabled` NACK, driving the §3.2
    /// recovery machinery (backoff → probe → replay). Requires
    /// [`MachineConfig::recovery`]: only recovery-tracked messages
    /// (Put/Atomic/Get) are ever dropped — acks and replies are carried
    /// on the reliable control plane.
    pub loss: f64,
    /// Mean of an exponential extra queueing delay modelling background
    /// traffic sharing the link (0 = none), drawn per message.
    pub background: Time,
}

impl Default for LinkImpairment {
    fn default() -> Self {
        LinkImpairment {
            latency: Time::ZERO,
            jitter: Time::ZERO,
            loss: 0.0,
            background: Time::ZERO,
        }
    }
}

impl LinkImpairment {
    /// Whether this impairment changes anything at all.
    pub fn is_noop(&self) -> bool {
        self.latency == Time::ZERO
            && self.jitter == Time::ZERO
            && self.loss <= 0.0
            && self.background == Time::ZERO
    }
}

/// One impairment rule: applies to messages from `src` to `dst`, where
/// `None` is a wildcard. Loopback (`src == dst`) traffic is never
/// impaired — it does not cross the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentRule {
    /// Source endpoint, `None` = any.
    pub src: Option<u32>,
    /// Destination endpoint, `None` = any.
    pub dst: Option<u32>,
    /// The impairment applied when this rule matches.
    pub effect: LinkImpairment,
}

impl ImpairmentRule {
    fn matches(&self, src: u32, dst: u32) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst.is_none_or(|d| d == dst)
    }
}

/// Link impairments of one machine: an ordered rule list, first match
/// wins (so specific pair rules are written before wildcard fallbacks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentConfig {
    /// Rules, checked in order.
    pub rules: Vec<ImpairmentRule>,
}

impl ImpairmentConfig {
    /// The effect applied to `src → dst` traffic, if any rule matches.
    /// Loopback is exempt regardless of rules.
    pub fn effect(&self, src: u32, dst: u32) -> Option<LinkImpairment> {
        if src == dst {
            return None;
        }
        self.rules
            .iter()
            .find(|r| r.matches(src, dst))
            .map(|r| r.effect)
            .filter(|e| !e.is_noop())
    }

    /// Whether any rule can drop messages (requires recovery).
    pub fn any_loss(&self) -> bool {
        self.rules.iter().any(|r| r.effect.loss > 0.0)
    }
}

/// The full machine configuration for one simulation.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// NIC integration (selects DMA parameters).
    pub nic: NicKind,
    /// Network LogGOPS parameters.
    pub net: NetParams,
    /// HPU pool configuration.
    pub hpu: HpuConfig,
    /// Host CPU/memory parameters.
    pub host: HostParams,
    /// Channel CAM capacity (concurrent in-flight matched messages per NIC).
    pub cam_capacity: usize,
    /// Portal-table entries per NI.
    pub num_pts: usize,
    /// OS noise on host cores (None = noiseless).
    pub noise: Option<NoiseModel>,
    /// Closed-loop flow-control recovery (None = manual `PtlPTEnable`).
    pub recovery: Option<RecoveryConfig>,
    /// Network topology (None = the default fat tree over
    /// `net.switch_ports`-radix switches, sized to the node count).
    pub topology: Option<TopologySpec>,
    /// Per-link impairments (None = an ideal fabric).
    pub impairments: Option<ImpairmentConfig>,
    /// Scheduled fault plan — timed link/switch/node failures and
    /// degradations (None = a fault-free run). Compiled against the
    /// topology at world-build time; plans that can drop traffic require
    /// [`MachineConfig::recovery`].
    pub faults: Option<FaultPlan>,
    /// Record Gantt timelines (costs memory; for examples/debugging).
    pub record_gantt: bool,
    /// RNG seed for noise streams.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's configuration with the given NIC integration.
    pub fn paper(nic: NicKind) -> Self {
        MachineConfig {
            nic,
            net: NetParams::paper(),
            hpu: HpuConfig::paper(),
            host: HostParams::default(),
            cam_capacity: 1024,
            num_pts: 8,
            noise: None,
            recovery: None,
            topology: None,
            impairments: None,
            faults: None,
            record_gantt: false,
            seed: 0xC0FFEE,
        }
    }

    /// Enable closed-loop flow-control recovery with default parameters.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = Some(RecoveryConfig::default());
        self
    }

    /// Set the RNG seed (per-cell seeds of the parallel sweep harness:
    /// each `(point, replication)` simulation owns an independent stream
    /// derived via `spin_sim::rng::cell_seed`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select an explicit network topology. The spec's node count must
    /// match the simulation's node count (checked in
    /// [`MachineConfig::build_network`]).
    pub fn with_topology(mut self, spec: TopologySpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Install per-link impairments. Rules with loss require recovery
    /// (checked at network-build time).
    pub fn with_impairments(mut self, imp: ImpairmentConfig) -> Self {
        self.impairments = Some(imp);
        self
    }

    /// Install a scheduled fault plan. Plans that can drop traffic (link /
    /// switch / node failures, lossy degradations) require recovery
    /// (checked at network-build time).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Build the network fabric for an `n`-node simulation: the explicit
    /// [`MachineConfig::topology`] when one is set, else the default fat
    /// tree. Both the serial engine's world and the sharded engine's
    /// ledger construct their network through this, so they cannot
    /// disagree on the fabric (and therefore on the lookahead δ).
    pub fn build_network(&self, n: u32) -> Network {
        if let Some(imp) = &self.impairments {
            assert!(
                !imp.any_loss() || self.recovery.is_some(),
                "lossy impairments require closed-loop recovery \
                 (MachineConfig::with_recovery): a lost message surfaces as \
                 a PtDisabled NACK, which only the recovery machinery handles"
            );
        }
        if let Some(plan) = &self.faults {
            assert!(
                !plan.drop_capable() || self.recovery.is_some(),
                "drop-capable fault plans require closed-loop recovery \
                 (MachineConfig::with_recovery): traffic hitting a dead link \
                 or crashed node surfaces as a PtDisabled NACK, which only \
                 the recovery machinery handles"
            );
        }
        match &self.topology {
            Some(spec) => {
                assert_eq!(
                    spec.nodes(),
                    n,
                    "topology spec declares {} endpoints but the simulation has {n} nodes",
                    spec.nodes()
                );
                Network::with_topology(spec.build(), self.net)
            }
            None => Network::new(n, self.net),
        }
    }

    /// Discrete-NIC paper configuration.
    pub fn discrete() -> Self {
        Self::paper(NicKind::Discrete)
    }

    /// Integrated-NIC paper configuration.
    pub fn integrated() -> Self {
        Self::paper(NicKind::Integrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let c = MachineConfig::discrete();
        assert_eq!(c.nic.label(), "dis");
        assert_eq!(c.nic.dma_params().latency, Time::from_ns(250));
        assert_eq!(c.hpu.cores, 4);
        assert_eq!(c.host.cores, 8);
        let c = MachineConfig::integrated();
        assert_eq!(c.nic.dma_params().latency, Time::from_ns(50));
        assert!((c.host.mem_bandwidth.gib_per_sec() - 150.0).abs() < 0.5);
    }

    #[test]
    fn impairment_rules_first_match_wins_and_loopback_is_exempt() {
        let specific = LinkImpairment {
            latency: Time::from_ns(500),
            ..LinkImpairment::default()
        };
        let blanket = LinkImpairment {
            jitter: Time::from_ns(10),
            ..LinkImpairment::default()
        };
        let imp = ImpairmentConfig {
            rules: vec![
                ImpairmentRule {
                    src: Some(0),
                    dst: Some(1),
                    effect: specific,
                },
                ImpairmentRule {
                    src: None,
                    dst: None,
                    effect: blanket,
                },
            ],
        };
        assert_eq!(imp.effect(0, 1), Some(specific));
        assert_eq!(imp.effect(1, 0), Some(blanket));
        assert_eq!(imp.effect(2, 2), None, "loopback never impaired");
        // A matching no-op rule shades later rules but applies nothing.
        let shadow = ImpairmentConfig {
            rules: vec![ImpairmentRule {
                src: Some(3),
                dst: None,
                effect: LinkImpairment::default(),
            }],
        };
        assert_eq!(shadow.effect(3, 4), None);
    }

    #[test]
    fn build_network_uses_explicit_topology() {
        let c = MachineConfig::discrete().with_topology(TopologySpec::Torus { dims: vec![4, 2] });
        let net = c.build_network(8);
        assert_eq!(net.nodes(), 8);
        // 2 hops max in a 4x2 torus; the default fat tree for 8 nodes on
        // 36-port switches would route everything through one switch.
        assert_eq!(net.topology().route_switches(0, 2), 3);
    }

    #[test]
    #[should_panic(expected = "8 endpoints")]
    fn build_network_rejects_node_count_mismatch() {
        MachineConfig::discrete()
            .with_topology(TopologySpec::Torus { dims: vec![8] })
            .build_network(4);
    }

    #[test]
    #[should_panic(expected = "require closed-loop recovery")]
    fn lossy_impairments_require_recovery() {
        MachineConfig::discrete()
            .with_impairments(ImpairmentConfig {
                rules: vec![ImpairmentRule {
                    src: None,
                    dst: None,
                    effect: LinkImpairment {
                        loss: 0.1,
                        ..LinkImpairment::default()
                    },
                }],
            })
            .build_network(2);
    }
}
