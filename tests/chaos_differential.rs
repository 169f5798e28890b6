//! Chaos differential suite: the fault-injection subsystem under every
//! engine.
//!
//! The contract mirrors the fault design (`spin-core/src/fault.rs`): all
//! fault effects are pure functions of the immutable compiled plan and the
//! charged time, so
//!
//! * the **exact** sharded engine stays *byte-identical* to serial under
//!   arbitrary fault schedules (the reports' derived `Debug` text) —
//!   pinned here by a randomized differential (random traffic × random
//!   flap/crash/degrade schedules);
//! * the **relaxed** pairwise-horizon engine stays *count-stable*
//!   (`spin_core::world::delivery_fingerprint`) under latency-only
//!   degradations (every fault effect adds latency or drops, never lowers
//!   a route below its base, so the horizons stay sound);
//! * under drop-capable faults the relaxed engine still delivers the same
//!   *outcome multiset* — every (rank, label) host event fires exactly as
//!   in serial. Drop and probe counts could shift with tie-breaks; on the
//!   directed flap + crash schedule below they do not, so it pins the
//!   whole count-stable view;
//! * a mid-run link flap under incast completes **every** delivery through
//!   the recovery machine (the acceptance regression), and a
//!   half-transmitted message replays only its dead tail instead of the
//!   whole body.

mod common;

use common::{fault_plan_from, plans_from, run_case_faults_mode, PlannedOp, TrafficNode, MTU};
use proptest::collection;
use proptest::prelude::*;
use spin_core::config::{MachineConfig, NicKind};
use spin_core::fault::{FaultKind, FaultPlan};
use spin_core::world::{delivery_fingerprint, NodeStats, Report, ShardMode, SimBuilder};
use spin_sim::time::Time;

proptest! {
    /// Random fault schedules over random traffic: the exact sharded
    /// engine reproduces the serial report byte for byte at 2 and 4
    /// shards (`crates/scenario/tests/corpus.rs` pins the same property
    /// at 4 shards over the scenario corpus).
    #[test]
    fn chaos_schedules_are_engine_invariant(
        n in 4u32..8,
        traffic in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..10),
        faults in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let plans = plans_from(n, &traffic);
        let plan = fault_plan_from(n, &faults);
        let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
        let golden = format!("{serial:?}");
        for shards in [2usize, 4] {
            let sharded = run_case_faults_mode(n, &plans, &plan, shards, ShardMode::Exact);
            prop_assert_eq!(
                &golden,
                &format!("{sharded:?}"),
                "exact engine diverged from serial at {} shards under faults {:?}",
                shards,
                plan.events
            );
        }
    }
}

/// The acceptance regression: a mid-run link flap at the incast root.
/// The first wave lands cleanly; the second wave hits the dead access
/// link, drops at the source, and is driven through NACK → backoff →
/// probing until the link returns — with **every** delivery completing
/// and nothing abandoned. Byte-identical at 4 exact shards.
#[test]
fn link_flap_mid_incast_completes_every_delivery() {
    let n = 8u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            if r == 0 {
                Vec::new()
            } else {
                vec![
                    PlannedOp {
                        delay: Time::from_us(1),
                        dst: 0,
                        len: MTU + 321,
                        kind: 0,
                    },
                    PlannedOp {
                        delay: Time::from_us(10),
                        dst: 0,
                        len: MTU + 321,
                        kind: 0,
                    },
                ]
            }
        })
        .collect();
    let plan = FaultPlan::default()
        .with(Time::from_us(5), FaultKind::LinkDown { node: 0 })
        .with(Time::from_us(40), FaultKind::LinkUp { node: 0 });
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);

    // Every delivery completed: both waves acked at every sender, both
    // waves' puts seen at the root.
    for r in 1..n {
        let acks = serial
            .marks
            .iter()
            .filter(|(rank, l, _)| *rank == r && l.starts_with("Ack"))
            .count();
        assert_eq!(acks, 2, "rank {r} is missing acks: {:?}", serial.marks);
    }
    let puts = serial
        .marks
        .iter()
        .filter(|(rank, l, _)| *rank == 0 && l.starts_with("Put"))
        .count();
    assert_eq!(puts, 2 * (n as usize - 1), "root missed deliveries");

    // ...via the recovery machine, not by luck.
    let sum = |f: fn(&NodeStats) -> u64| serial.node_stats.iter().map(f).sum::<u64>();
    assert!(
        sum(|s| s.drops_on_dead_link) > 0,
        "nothing hit the dead link"
    );
    assert!(sum(|s| s.recovery_nacks) > 0, "no NACK was synthesized");
    assert!(
        sum(|s| s.recovery_retransmits) > 0,
        "nothing was retransmitted"
    );
    assert_eq!(sum(|s| s.recovery_abandoned), 0, "a delivery was abandoned");
    assert_eq!(serial.links_downed_ns, 35_000, "downtime accounting");

    let sharded = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Exact);
    assert_eq!(
        format!("{serial:?}"),
        format!("{sharded:?}"),
        "exact engine diverged under the flap"
    );
}

/// Latency-only degradations in the relaxed engine: the degrade window
/// only *adds* latency, so the pairwise horizons stay conservative and
/// every count-shaped observable matches serial bit for bit.
#[test]
fn relaxed_latency_only_degrade_is_count_stable() {
    let n = 6u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            vec![
                PlannedOp {
                    delay: Time::from_us(1),
                    dst: (r + 1) % n,
                    len: MTU + 99,
                    kind: 0,
                },
                PlannedOp {
                    delay: Time::from_us(8),
                    dst: (r + 2) % n,
                    len: 700,
                    kind: 1,
                },
            ]
        })
        .collect();
    let plan = FaultPlan::default()
        .with(
            Time::from_us(2),
            FaultKind::Degrade {
                src: None,
                dst: None,
                extra_latency: Time::from_ns(400),
                loss: 0.0,
            },
        )
        .with(
            Time::from_us(30),
            FaultKind::Restore {
                src: None,
                dst: None,
            },
        );
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
    let relaxed = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        delivery_fingerprint(&serial),
        delivery_fingerprint(&relaxed),
        "relaxed counts diverged under a latency-only degrade"
    );
    // And the relaxed engine is reproducible against itself.
    let again = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        format!("{relaxed:?}"),
        format!("{again:?}"),
        "relaxed run not reproducible under faults"
    );
}

/// Drop-capable faults (flap + crash/restart) in the relaxed engine: the
/// count-stable view — every Put, Ack, and armed mark on every rank, and
/// on this schedule the drop and probe counts too — is exactly serial's,
/// and the run reproduces bit-identically against itself.
#[test]
fn relaxed_flap_and_crash_keep_deliveries_stable() {
    let n = 6u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            if r == 0 {
                vec![PlannedOp {
                    delay: Time::from_us(1),
                    dst: 3,
                    len: 900,
                    kind: 0,
                }]
            } else {
                vec![
                    PlannedOp {
                        delay: Time::from_us(1),
                        dst: 0,
                        len: MTU + 17,
                        kind: 0,
                    },
                    PlannedOp {
                        delay: Time::from_us(12),
                        dst: 0,
                        len: 512,
                        kind: 0,
                    },
                ]
            }
        })
        .collect();
    let plan = FaultPlan::default()
        .with(Time::from_us(5), FaultKind::LinkDown { node: 0 })
        .with(Time::from_us(25), FaultKind::LinkUp { node: 0 })
        .with(Time::from_us(6), FaultKind::NodeCrash { node: 3 })
        .with(Time::from_us(30), FaultKind::NodeRestart { node: 3 });
    let serial = run_case_faults_mode(n, &plans, &plan, 1, ShardMode::Exact);
    assert!(
        serial.node_stats.iter().any(|s| s.crash_recoveries > 0),
        "the crash never recovered"
    );
    let relaxed = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        delivery_fingerprint(&serial),
        delivery_fingerprint(&relaxed),
        "relaxed deliveries diverged under flap + crash"
    );
    let again = run_case_faults_mode(n, &plans, &plan, 4, ShardMode::Relaxed);
    assert_eq!(
        format!("{relaxed:?}"),
        format!("{again:?}"),
        "relaxed run not reproducible under drop-capable faults"
    );
}

// ------------------------------------------------------- tail resume

/// One 24-packet acked put from rank 0 to rank 1 under a receiver-side
/// link flap.
fn run_tail_cut(down_ns: u64, up_ns: u64) -> Report {
    let mut config = MachineConfig::paper(NicKind::Integrated).with_recovery();
    config.net.switch_ports = 4;
    let config = config.with_faults(
        FaultPlan::default()
            .with(Time::from_ns(down_ns), FaultKind::LinkDown { node: 1 })
            .with(Time::from_ns(up_ns), FaultKind::LinkUp { node: 1 }),
    );
    let plan = vec![PlannedOp {
        delay: Time::from_us(10),
        dst: 1,
        len: 24 * MTU,
        kind: 0,
    }];
    SimBuilder::new(config)
        .nodes_with(2, |r| {
            Box::new(TrafficNode {
                plan: if r == 0 { plan.clone() } else { Vec::new() },
            })
        })
        .run_serial()
        .report
}

fn delivered(r: &Report) -> bool {
    r.marks
        .iter()
        .any(|(n, l, _)| *n == 0 && l.starts_with("Ack"))
        && r.marks
            .iter()
            .any(|(n, l, _)| *n == 1 && l.starts_with("Put"))
}

/// A mid-message path death replays only the dead tail: scan flap onsets
/// across the message's transmission window until one cuts the message
/// mid-flight, then pin that the sender resent strictly less than the
/// whole body and still delivered.
#[test]
fn tail_resume_resends_only_the_dead_tail() {
    let full_body = (24 * MTU) as u64;
    let mut witnessed = false;
    for step in 0..28u64 {
        // The put injects shortly after its 10 µs timer; 24 MTU packets
        // occupy ~82 ns each, so onsets stepped at 150 ns sweep the whole
        // transmission window.
        let down = 10_300 + step * 150;
        let report = run_tail_cut(down, down + 1_000);
        let tail = report.node_stats[0].retransmitted_bytes;
        if tail == 0 || tail >= full_body {
            continue; // flap missed the message or killed it from packet 0
        }
        // A mid-message cut: the tail resume replayed a strict subset.
        assert!(
            delivered(&report),
            "tail resume lost the message (down={down})"
        );
        assert!(
            report.node_stats[0].drops_on_dead_link > 0,
            "tail cut without dead-link drops (down={down})"
        );
        witnessed = true;
        break;
    }
    assert!(
        witnessed,
        "no flap onset in the sweep produced a mid-message tail cut"
    );
}
