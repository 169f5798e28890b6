//! Shared differential-test harness: a randomized traffic program and a
//! random fault schedule, run on any engine. `shard_equivalence.rs` and
//! `chaos_differential.rs` compare the exact engine's reports with serial
//! through their derived `Debug` text; `shard_relaxed.rs` and
//! `chaos_differential.rs` compare the relaxed engine's through
//! `spin_core::world::delivery_fingerprint`.
#![allow(dead_code)] // each test binary uses its own subset

use spin_core::config::{MachineConfig, NicKind};
use spin_core::fault::{FaultKind, FaultPlan};
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{Report, ShardMode, SimBuilder, SimOutput};
use spin_sim::time::Time;

pub const MTU: usize = 4096;
pub const RECV_BASE: usize = 0x10_0000;
pub const SEND_BASE: usize = 0x1000;
pub const REPLY_BASE: usize = 0x30_0000;

/// One planned operation of a traffic node.
#[derive(Debug, Clone, Copy)]
pub struct PlannedOp {
    /// Injection delay after start.
    pub delay: Time,
    /// Destination rank (`plans_from` never plans self; loopback tests do).
    pub dst: u32,
    /// Message length in bytes (possibly multi-packet).
    pub len: usize,
    /// `put` with ack, plain `put`, or `get`.
    pub kind: u8,
}

/// A rank that arms a receive ME, then fires its planned ops off timers.
pub struct TrafficNode {
    pub plan: Vec<PlannedOp>,
}

impl HostProgram for TrafficNode {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        // One wide receive window per rank; all traffic matches bits 1.
        api.me_append(MeSpec::recv(0, 1, (RECV_BASE, 1 << 17)));
        let pattern: Vec<u8> = (0..3 * MTU + 99).map(|i| (i * 37 % 253) as u8).collect();
        api.write_host(SEND_BASE, &pattern);
        for (i, op) in self.plan.iter().enumerate() {
            api.set_timer(op.delay, i as u64);
        }
        api.mark("armed");
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi<'_>) {
        let op = self.plan[token as usize];
        match op.kind {
            0 => api.put(PutArgs::from_host(op.dst, 0, 1, SEND_BASE, op.len).with_ack()),
            1 => api.put(PutArgs::from_host(op.dst, 0, 1, SEND_BASE, op.len)),
            _ => api.get(
                op.dst,
                0,
                1,
                0,
                op.len,
                REPLY_BASE + token as usize * 0x2000,
            ),
        }
    }

    fn on_event(&mut self, ev: &spin_portals::eq::FullEvent, api: &mut HostApi<'_>) {
        api.mark(format!("{:?}-p{}-m{}", ev.kind, ev.peer, ev.mlength));
    }
}

/// Shape raw proptest words into per-rank plans for an `n`-node world.
pub fn plans_from(n: u32, specs: &[(u8, u64, u64)]) -> Vec<Vec<PlannedOp>> {
    let mut plans: Vec<Vec<PlannedOp>> = (0..n).map(|_| Vec::new()).collect();
    for &(sel, a, b) in specs {
        let src = u32::from(sel) % n;
        // Never self here: randomized cases target the cross-node machinery
        // (loopback has its own directed tests at both shard modes).
        let dst = (src + 1 + (a % u64::from(n - 1)) as u32) % n;
        let kind = (b % 5).min(2) as u8; // bias toward puts
        let len = match kind {
            2 => 1 + (b % 2048) as usize, // gets stay single-packet
            _ => 1 + (b % (2 * MTU as u64 + 600)) as usize,
        };
        plans[src as usize].push(PlannedOp {
            delay: Time::from_ns(a % 15_000),
            dst,
            len,
            kind,
        });
    }
    plans
}

/// Run one case: serial when `shards <= 1`, else the sharded engine in the
/// given mode.
pub fn run_case_mode(n: u32, plans: &[Vec<PlannedOp>], shards: usize, mode: ShardMode) -> Report {
    run_output_mode(n, plans, shards, mode).report
}

/// [`run_case_mode`], returning the final world with the report.
pub fn run_output_mode(
    n: u32,
    plans: &[Vec<PlannedOp>],
    shards: usize,
    mode: ShardMode,
) -> SimOutput {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_ports = 4; // multi-level tree even at small n
    SimBuilder::new(config)
        .nodes_with(n, |r| {
            Box::new(TrafficNode {
                plan: plans[r as usize].clone(),
            })
        })
        .run_with_shards_mode(shards, mode)
}

/// Assert that the final world's fabric counts every packet and byte the
/// report does: a sharded run folds its replicas' counts into one fabric.
pub fn assert_fabric_matches_report(out: &SimOutput, what: &str) {
    let network = &out.world.network;
    assert_eq!(
        (network.packets_sent(), network.bytes_sent()),
        (out.report.net_packets, out.report.net_bytes),
        "{what}: final fabric counters differ from the report"
    );
}

/// Run one case on the serial engine (`shards <= 1`) or the exact sharded
/// engine.
pub fn run_case(n: u32, plans: &[Vec<PlannedOp>], shards: usize) -> Report {
    run_case_mode(n, plans, shards, ShardMode::Exact)
}

/// Run one case under a scheduled fault plan. Recovery is always on —
/// drop-capable plans require it, and a constant config keeps the serial
/// and sharded runs comparable.
pub fn run_case_faults_mode(
    n: u32,
    plans: &[Vec<PlannedOp>],
    plan: &FaultPlan,
    shards: usize,
    mode: ShardMode,
) -> Report {
    let mut config = MachineConfig::paper(NicKind::Integrated).with_recovery();
    config.net.switch_ports = 4;
    if !plan.events.is_empty() {
        config = config.with_faults(plan.clone());
    }
    SimBuilder::new(config)
        .nodes_with(n, |r| {
            Box::new(TrafficNode {
                plan: plans[r as usize].clone(),
            })
        })
        .run_with_shards_mode(shards, mode)
        .report
}

/// Shape raw proptest words into a *valid* fault schedule for an `n`-node
/// world: every down is paired with a later up (the compiler rejects
/// double-downs, so each node flaps/crashes at most once and each degrade
/// selector pair is used at most once).
pub fn fault_plan_from(n: u32, specs: &[(u8, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::default();
    let mut flapped = vec![false; n as usize];
    let mut crashed = vec![false; n as usize];
    let mut degraded: Vec<(Option<u32>, Option<u32>)> = Vec::new();
    for &(sel, a, b) in specs {
        let node = u32::from(sel) % n;
        let start = Time::from_ns(500 + a % 25_000);
        let end = start + Time::from_ns(400 + b % 12_000);
        match a.wrapping_add(b) % 3 {
            0 => {
                if flapped[node as usize] {
                    continue;
                }
                flapped[node as usize] = true;
                plan = plan
                    .with(start, FaultKind::LinkDown { node })
                    .with(end, FaultKind::LinkUp { node });
            }
            1 => {
                if crashed[node as usize] {
                    continue;
                }
                crashed[node as usize] = true;
                plan = plan
                    .with(start, FaultKind::NodeCrash { node })
                    .with(end, FaultKind::NodeRestart { node });
            }
            _ => {
                let pair = (
                    Some(node),
                    Some((node + 1 + (b % u64::from(n - 1)) as u32) % n),
                );
                if degraded.contains(&pair) {
                    continue;
                }
                degraded.push(pair);
                plan = plan
                    .with(
                        start,
                        FaultKind::Degrade {
                            src: pair.0,
                            dst: pair.1,
                            extra_latency: Time::from_ns(50 + a % 800),
                            loss: if b % 4 == 0 { 0.2 } else { 0.0 },
                        },
                    )
                    .with(
                        end,
                        FaultKind::Restore {
                            src: pair.0,
                            dst: pair.1,
                        },
                    );
            }
        }
    }
    plan
}
