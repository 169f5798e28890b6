//! The generated workloads of the simulator benchmark.
//!
//! A workload is a scenario document generated from a seed and the
//! correctness gate every run of it must pass. The runner (`main.rs`) pushes the document through the public user path —
//! [`Scenario::from_json`] → [`ScenarioCompiler::compile`] → a run — the
//! same path `spin-scenario` takes. Why each workload exists is recorded in
//! `README.md` next to this crate.

use spin_apps::saturate::{self, SaturateParams};
use spin_core::world::{NodeStats, Report, ShardMode, SimBuilder, SimOutput};
use spin_scenario::{
    Expect, Fault, FaultActionConfig, Impairment, MachineKnobs, PingPongModeConfig, Roles,
    Scenario, ScenarioCompiler, TopologyConfig, TransportConfig, Workload as Load,
};
use spin_sim::rng::cell_seed;
use spin_sim::time::Time;
use std::time::{Duration, Instant};

/// Endpoints of the incast fabric.
const INCAST_NODES: u32 = 1024;
/// Host memory per incast node: the paper default, set explicitly. Left
/// unset, the compiler forces 1 MiB on incast, which cannot hold 1,023
/// gather regions and panics in the receive path.
const INCAST_MEM: u64 = 64 << 20;
/// Bytes of one gather put: two MTU-sized packets, as
/// [`spin_apps::incast`] sends them.
const INCAST_PUT_BYTES: usize = 8192;
/// Shard count of every sharded run.
pub const SHARDS: usize = 2;

const PINGPONG_BYTES: usize = 1 << 20;
const PINGPONG_ROUNDS: u32 = 256;

const SAT_NODES: u32 = 16;
const SAT_MESSAGES: u32 = 256;
/// One packet per message. With 2-packet messages, a flap that cuts a
/// message between its packets can leave the run without quiescence.
const SAT_BYTES: usize = 4096;
const SAT_INTERVAL_NS: u64 = 4_000;
/// Receiver service time. The one-core, four-context receiver still
/// overflows, so flow control fires throughout; at 500 ns and more, some
/// seeds starve a sender into abandoning its messages.
const SAT_SERVICE_NS: u64 = 250;
const SAT_LOSS: f64 = 0.02;
/// The receiver's access link goes down for this long, once per run.
const FLAP_NS: u64 = 20_000;
/// The flap starts at a seeded instant in `[FLAP_FROM_NS, FLAP_FROM_NS +
/// FLAP_SPAN_NS)`, inside the senders' injection window.
const FLAP_FROM_NS: u64 = 100_000;
const FLAP_SPAN_NS: u64 = 600_000;

// Salts that give each seeded draw its own stream.
const ROOT_SALT: u64 = 0x524f_4f54; // "ROOT"
const FLAP_SALT: u64 = 0x464c_4150; // "FLAP"

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,024-node incast.
    Incast1k,
    /// Two-node streaming sPIN ping-pong.
    PingPongStream,
    /// Open-loop saturation through loss and a link flap, recovery on.
    LossySaturation,
}

/// The engine a run uses. Every workload runs on the serial engine; the
/// traced run of `incast_1k` also compares the sharded ones. No
/// environment variable chooses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The serial reference engine.
    Serial,
    /// A sharded engine at [`SHARDS`] shards.
    Sharded(ShardMode),
}

impl Engine {
    /// Run `builder` to quiescence on this engine.
    pub fn run(self, builder: SimBuilder) -> SimOutput {
        match self {
            Engine::Serial => builder.run_serial(),
            Engine::Sharded(mode) => builder.run_with_shards_mode(SHARDS, mode),
        }
    }

    /// Engine and shard mode, as the output records them.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Sharded(ShardMode::Exact) => "sharded k=2 mode=exact",
            Engine::Sharded(ShardMode::Relaxed) => "sharded k=2 mode=relaxed",
        }
    }
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Incast1k,
        Workload::PingPongStream,
        Workload::LossySaturation,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Incast1k => "incast_1k",
            Workload::PingPongStream => "pingpong_stream",
            Workload::LossySaturation => "lossy_saturation",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the seed changes in this workload's scenario.
    pub fn seed_effect(self, seed: u64) -> String {
        match self {
            Workload::Incast1k => {
                format!("machine.seed = {seed}, roles.root = {}", incast_root(seed))
            }
            Workload::PingPongStream => {
                "none: ping-pong is seed-invariant by design (no loss, noise or roles to draw)"
                    .to_string()
            }
            Workload::LossySaturation => format!(
                "machine.seed = {seed} (loss draws), receiver link flap at {} ns",
                flap_at_ns(seed)
            ),
        }
    }

    /// The scenario this workload runs at `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Incast1k => Scenario {
                name: "incast-1k".to_string(),
                description: "1,023 leaves send one acked 2-packet put each at a seeded root \
                              of a radix-16 fat tree, while circulating a ring."
                    .to_string(),
                topology: TopologyConfig::FatTree {
                    nodes: INCAST_NODES,
                    ports: 16,
                },
                machine: MachineKnobs {
                    seed: Some(seed),
                    mem_size: Some(INCAST_MEM),
                    ..MachineKnobs::default()
                },
                impairments: Vec::new(),
                faults: Vec::new(),
                roles: Roles {
                    root: incast_root(seed),
                },
                workload: Load::Incast { rounds: 1 },
                expect: Expect::default(),
            },
            Workload::PingPongStream => Scenario {
                name: "pingpong-stream".to_string(),
                description: "Two nodes ping-pong 1 MiB with the streaming sPIN handler: one \
                              payload handler per packet plus NIC-to-host DMA."
                    .to_string(),
                topology: TopologyConfig::FatTree { nodes: 2, ports: 4 },
                machine: MachineKnobs::default(),
                impairments: Vec::new(),
                faults: Vec::new(),
                roles: Roles::default(),
                workload: Load::PingPong {
                    bytes: PINGPONG_BYTES,
                    rounds: PINGPONG_ROUNDS,
                    mode: PingPongModeConfig::SpinStream,
                },
                expect: Expect::default(),
            },
            Workload::LossySaturation => {
                let down = flap_at_ns(seed);
                Scenario {
                    name: "lossy-saturation".to_string(),
                    description: "15 open-loop sPIN senders saturate rank 0 through 2% loss \
                                  and one 20 us flap of its access link; recovery retransmits \
                                  until every message lands."
                        .to_string(),
                    topology: TopologyConfig::FatTree {
                        nodes: SAT_NODES,
                        ports: 4,
                    },
                    machine: MachineKnobs {
                        seed: Some(seed),
                        recovery: true,
                        ..MachineKnobs::default()
                    },
                    impairments: vec![Impairment {
                        src: None,
                        dst: Some(0),
                        latency_ns: 0,
                        jitter_ns: 0,
                        loss: SAT_LOSS,
                        background_ns: 0,
                    }],
                    faults: vec![
                        Fault {
                            at_ns: down,
                            action: FaultActionConfig::LinkDown { node: 0 },
                        },
                        Fault {
                            at_ns: down + FLAP_NS,
                            action: FaultActionConfig::LinkUp { node: 0 },
                        },
                    ],
                    roles: Roles::default(),
                    workload: Load::Saturate {
                        messages: SAT_MESSAGES,
                        bytes: SAT_BYTES,
                        interval_ns: SAT_INTERVAL_NS,
                        service_ns: SAT_SERVICE_NS,
                        mode: TransportConfig::Spin,
                    },
                    expect: Expect::default(),
                }
            }
        }
    }

    /// The scenario document this workload runs at `seed`.
    pub fn scenario_json(self, seed: u64) -> String {
        self.scenario(seed).to_json()
    }

    /// Check one run's report against the workload's invariants. Returns
    /// the application messages the run completed.
    pub fn gate(self, scenario: &Scenario, report: &Report) -> Result<u64, String> {
        let errors = total(report, |s| s.handler_errors);
        if errors > 0 {
            return Err(format!("{errors} handler error(s)"));
        }
        match (self, &scenario.workload) {
            (Workload::Incast1k, Load::Incast { rounds }) => {
                let root = scenario.roles.root;
                let leaves = u64::from(INCAST_NODES - 1) * u64::from(*rounds);
                let acked = format!("leaf-Ack-p{root}-");
                let acks = count_marks(report, |rank, label| {
                    rank != root && label.starts_with(&acked)
                });
                let put = format!("-m{INCAST_PUT_BYTES}");
                let gathered = count_marks(report, |rank, label| {
                    rank == root && label.starts_with("root-Put-") && label.ends_with(&put)
                });
                if acks != leaves || gathered != leaves {
                    return Err(format!(
                        "{acks} acked and {gathered} gathered puts, want {leaves} of each"
                    ));
                }
                // A disabled portal table drops the rest of the incast and
                // makes the run cheaper: it must never pass as a speed-up.
                let fc = total(report, |s| s.flow_control_events);
                let drops = total(report, |s| s.packets_dropped);
                if fc + drops > 0 {
                    return Err(format!(
                        "{fc} flow-control event(s), {drops} dropped packet(s)"
                    ));
                }
                Ok(acks)
            }
            (Workload::PingPongStream, Load::PingPong { rounds, .. }) => {
                match (report.mark(0, "done"), report.value(0, "half_rtt_us")) {
                    (Some(_), Some(half_rtt)) if half_rtt > 0.0 => Ok(u64::from(*rounds)),
                    _ => Err(format!("ping-pong did not complete its {rounds} rounds")),
                }
            }
            (
                Workload::LossySaturation,
                &Load::Saturate {
                    messages,
                    bytes,
                    interval_ns,
                    service_ns,
                    ..
                },
            ) => {
                let params = SaturateParams {
                    senders: scenario.topology.nodes() - 1,
                    messages,
                    bytes,
                    interval: Time::from_ns(interval_ns),
                    service: Time::from_ns(service_ns),
                };
                let o = saturate::outcome(report, params);
                let abandoned = total(report, |s| s.recovery_abandoned);
                let nacks = total(report, |s| s.recovery_nacks);
                let retransmits = total(report, |s| s.recovery_retransmits);
                let dead = total(report, |s| s.drops_on_dead_link);
                // Per-sender order is not gated: at this size the model
                // reorders under overload even with no loss and no flap.
                if o.sent != o.completed || o.duplicates > 0 || abandoned > 0 {
                    return Err(format!(
                        "sent {} completed {} duplicates {} abandoned {abandoned}",
                        o.sent, o.completed, o.duplicates
                    ));
                }
                // The run must have exercised loss, recovery and the flap.
                if nacks == 0 || retransmits == 0 || dead == 0 {
                    return Err(format!(
                        "recovery idle: {nacks} NACKs, {retransmits} retransmits, \
                         {dead} dead-link drops"
                    ));
                }
                Ok(o.completed)
            }
            (w, load) => Err(format!(
                "{} cannot gate a {} scenario",
                w.name(),
                load.kind()
            )),
        }
    }
}

/// One pass of the user path: parse `json`, compile it, run it on
/// `engine` and gate the report.
pub struct Op {
    /// Parse plus compile: scenario text to a ready builder.
    pub setup: Duration,
    /// One run to quiescence, world construction and report included.
    pub run: Duration,
    /// The finished run.
    pub out: SimOutput,
    /// Application messages the run completed.
    pub completed: u64,
}

/// Run one [`Op`] of `workload` from its scenario document.
pub fn op(workload: Workload, json: &str, engine: Engine) -> Result<Op, String> {
    let t = Instant::now();
    let compiler = ScenarioCompiler::new(Scenario::from_json(json).map_err(|e| e.to_string())?);
    let builder = compiler.compile().map_err(|e| e.to_string())?;
    let setup = t.elapsed();
    let t = Instant::now();
    let out = engine.run(builder);
    let run = t.elapsed();
    let completed = workload.gate(compiler.scenario(), &out.report)?;
    Ok(Op {
        setup,
        run,
        out,
        completed,
    })
}

/// A per-node statistic summed over the report.
pub fn total(report: &Report, stat: impl Fn(&NodeStats) -> u64) -> u64 {
    report.node_stats.iter().map(stat).sum()
}

fn count_marks(report: &Report, keep: impl Fn(u32, &str) -> bool) -> u64 {
    report.marks.iter().filter(|(r, l, _)| keep(*r, l)).count() as u64
}

fn incast_root(seed: u64) -> u32 {
    (cell_seed(seed, ROOT_SALT, 0) % u64::from(INCAST_NODES)) as u32
}

fn flap_at_ns(seed: u64) -> u64 {
    FLAP_FROM_NS + cell_seed(seed, FLAP_SALT, 0) % FLAP_SPAN_NS
}
