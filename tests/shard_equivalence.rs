//! Differential proof that the sharded conservative-parallel engine is
//! observationally identical to the serial reference engine.
//!
//! The exact sharded engine (`run_with_shards_mode(k, ShardMode::Exact)`,
//! see `spin-core`'s `shard` module) promises more than statistical
//! agreement: the merge step reconstructs the serial engine's global
//! `(time, seq)` dispatch order exactly, so every observable — end time, event count, every mark and
//! value in order, per-node statistics, fabric counters — must be
//! **byte-identical** at any shard count. This harness checks that promise
//! directly:
//!
//! * randomized many-node traffic programs (timer-spread puts with acks and
//!   gets, multi-packet messages, incast hotspots) run once on the serial
//!   engine and once per shard count in {2, 3, 8}, comparing the reports'
//!   derived `Debug` text (every field);
//! * a directed same-instant cross-shard tie storm: many ranks inject puts
//!   to one victim at exactly the same nanosecond, so ingress-ledger
//!   ordering and same-time tie-breaks must reproduce the serial order;
//! * a loopback workload (self puts/gets mixed with cross-node traffic):
//!   same-node sends ride the per-node self-queue, exempt from the
//!   lookahead window, and must stay byte-identical at 1/2/4 shards
//!   (they used to hard-panic on the sharded engine);
//! * a zero-latency fabric is rejected (a conservative engine has no
//!   window to run without positive lookahead).
//!
//! Case count is `PROPTEST_CASES`-controlled (CI raises it).

mod common;

use common::{
    assert_fabric_matches_report, plans_from, run_case, run_output_mode, PlannedOp, TrafficNode,
    MTU,
};
use proptest::collection;
use proptest::prelude::*;
use spin_core::config::{MachineConfig, NicKind};
use spin_core::world::{ShardMode, SimBuilder};
use spin_sim::time::Time;

proptest! {
    /// Randomized traffic, serial vs 2/3/8 shards: identical reports.
    #[test]
    fn sharded_engine_matches_serial_bit_for_bit(
        n in 4u32..9,
        specs in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..14),
    ) {
        let plans = plans_from(n, &specs);
        let serial = format!("{:?}", run_case(n, &plans, 1));
        for shards in [2usize, 3, 8] {
            let sharded = format!("{:?}", run_case(n, &plans, shards));
            prop_assert_eq!(
                &serial, &sharded,
                "report diverged at {} shards (n={})", shards, n
            );
        }
    }
}

/// Directed worst case: same-instant cross-shard ties. Eleven ranks put to
/// rank 0 with identical timer delays, so injections collide at the same
/// nanosecond across every shard boundary and the victim's ingress link
/// serializes eleven simultaneous arrivals — the ledger must replay them
/// in exactly the serial engine's order, and the same-time `Start` events
/// must tie-break identically.
#[test]
fn same_time_cross_shard_ties_reproduce_serial_order() {
    let n = 12u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            if r == 0 {
                Vec::new()
            } else {
                vec![
                    PlannedOp {
                        delay: Time::from_ns(1_000),
                        dst: 0,
                        len: MTU + 321,
                        kind: 0,
                    },
                    PlannedOp {
                        delay: Time::from_ns(1_000),
                        dst: (r % (n - 1)) + 1,
                        len: 64,
                        kind: 1,
                    },
                ]
            }
        })
        .collect();
    let serial = format!("{:?}", run_case(n, &plans, 1));
    for shards in [2usize, 3, 4, 8, 12] {
        let sharded = format!("{:?}", run_case(n, &plans, shards));
        assert_eq!(serial, sharded, "tie storm diverged at {shards} shards");
    }
    // Not vacuous: the storm actually drove incast traffic.
    let report = run_case(n, &plans, 8);
    assert!(
        report.net_packets >= 22,
        "storm sent {} packets",
        report.net_packets
    );
}

/// Regression for the sharded engine's loopback panic: same-node sends now
/// serialize on the per-node self-queue — node-local state, exempt from
/// the lookahead window and the coordinator's ingress ledger — so a
/// workload mixing self puts (acked and plain, multi-packet), self gets,
/// and cross-node traffic must produce byte-identical reports at 1, 2,
/// and 4 shards, and a final world whose fabric counts what the report
/// counts.
#[test]
fn loopback_workload_is_shard_invariant() {
    let n = 6u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            vec![
                // Multi-packet self put with ack, same instant on every
                // rank (self-queue contention never crosses nodes).
                PlannedOp {
                    delay: Time::from_ns(500),
                    dst: r,
                    len: MTU + 17,
                    kind: 0,
                },
                // Plain self put racing the first one on the self-queue.
                PlannedOp {
                    delay: Time::from_ns(500 + u64::from(r) * 10),
                    dst: r,
                    len: 64,
                    kind: 1,
                },
                // Cross-node put interleaved with the loopback traffic.
                PlannedOp {
                    delay: Time::from_ns(900),
                    dst: (r + 1) % n,
                    len: 300,
                    kind: 0,
                },
                // Self get: the reply also loops back.
                PlannedOp {
                    delay: Time::from_ns(1_200),
                    dst: r,
                    len: 2048,
                    kind: 2,
                },
            ]
        })
        .collect();
    let serial = run_output_mode(n, &plans, 1, ShardMode::Exact);
    assert_fabric_matches_report(&serial, "serial");
    for shards in [2usize, 4] {
        let sharded = run_output_mode(n, &plans, shards, ShardMode::Exact);
        assert_eq!(
            format!("{:?}", serial.report),
            format!("{:?}", sharded.report),
            "loopback diverged at {shards} shards"
        );
        assert_fabric_matches_report(&sharded, &format!("{shards} exact shards"));
    }
    // Not vacuous: every rank moved loopback and cross-node traffic.
    let report = run_case(n, &plans, 4);
    assert!(
        report.net_packets >= u64::from(n) * 4,
        "workload sent only {} packets",
        report.net_packets
    );
}

/// A fabric with zero switch and wire latency has δ = 0: no conservative
/// window exists, and the sharded engine must refuse rather than guess.
#[test]
#[should_panic(expected = "positive lookahead")]
fn zero_latency_fabric_is_rejected() {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_latency = Time::ZERO;
    config.net.wire_latency = Time::ZERO;
    SimBuilder::new(config)
        .nodes_with(4, |_| Box::new(TrafficNode { plan: Vec::new() }))
        .run_with_shards_mode(2, ShardMode::Exact);
}
