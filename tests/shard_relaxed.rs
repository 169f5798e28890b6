//! Differential contract of the **relaxed** pairwise-horizon sharded
//! engine (`run_with_shards_mode(k, ShardMode::Relaxed)`, see
//! `spin-core`'s `relaxed` module).
//!
//! The relaxed engine gives up the serial engine's tie-break order —
//! ingress contention resolves in packet-head order, not global
//! send-dispatch order — so reports are *not* byte-identical. On runs
//! where that order decides nothing — no flow-control event, no recovery,
//! no fault and no value derived from simulated time; the random traffic
//! here has no recovery, faults or values, and lands on persistent receive
//! entries — it must preserve, and this harness pins differentially
//! against the serial reference through
//! `spin_core::world::delivery_fingerprint`, everything count-shaped:
//!
//! * fabric totals: packets moved, payload bytes moved;
//! * the event count (after subtracting the relaxed engine's `WireSend`
//!   bookkeeping dispatches, which the serial engine performs inline);
//! * the multiset of `(rank, label)` marks — every delivery, ack, and
//!   reply event fires on the same rank with the same label;
//! * the recorded values and `links_downed_ns`;
//! * every integer per-node statistic (DMA traffic, handler runs, memory
//!   bytes, and the flow-control, recovery and fault counters);
//! * the end-to-end time, within a small tolerance (contention order can
//!   shift completion by sub-occupancy amounts, never by orders of
//!   magnitude);
//! * determinism: two relaxed runs of the same case have identical
//!   reports, `Debug` text and all (exchanges are serial, mailbox merges
//!   are keyed).
//!
//! Loopback workloads must also run unpanicked — same-node sends ride the
//! per-node self-queue in every mode — and a zero-latency fabric is
//! rejected exactly as the exact engine rejects it.

mod common;

use common::{
    assert_fabric_matches_report, plans_from, run_case_mode, run_output_mode, PlannedOp,
    TrafficNode, MTU,
};
use proptest::collection;
use proptest::prelude::*;
use spin_core::config::{MachineConfig, NicKind};
use spin_core::world::{delivery_fingerprint, ShardMode, SimBuilder};
use spin_sim::time::Time;

/// End times must agree within 5% plus a microsecond of slack — tie-break
/// reshuffling moves individual arrivals by at most a few link occupancies
/// (~82 ns each), never by a protocol round trip.
fn assert_end_time_close(serial: Time, relaxed: Time, ctx: &str) {
    let (lo, hi) = (serial.min(relaxed), serial.max(relaxed));
    let tolerance = Time::from_ps(hi.ps() / 20) + Time::from_us(1);
    assert!(
        hi - lo <= tolerance,
        "{ctx}: end times diverged beyond tolerance: serial={}ps relaxed={}ps",
        serial.ps(),
        relaxed.ps()
    );
}

proptest! {
    /// Randomized traffic, serial vs relaxed 2/3/8 shards: count-stable
    /// observables identical, end time within tolerance, and the relaxed
    /// run reproducible against itself.
    #[test]
    fn relaxed_engine_is_statistically_equivalent_to_serial(
        n in 4u32..9,
        specs in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..14),
    ) {
        let plans = plans_from(n, &specs);
        let serial = run_case_mode(n, &plans, 1, ShardMode::Exact);
        let stable = delivery_fingerprint(&serial);
        for shards in [2usize, 3, 8] {
            let relaxed = run_case_mode(n, &plans, shards, ShardMode::Relaxed);
            prop_assert_eq!(
                &stable,
                &delivery_fingerprint(&relaxed),
                "count-stable observables diverged at {} shards (n={})",
                shards, n
            );
            assert_end_time_close(
                serial.end_time,
                relaxed.end_time,
                &format!("{shards} shards, n={n}"),
            );
            // Run-to-run determinism: the relaxed engine is not
            // serial-identical, but it is reproducible.
            let again = run_case_mode(n, &plans, shards, ShardMode::Relaxed);
            prop_assert_eq!(
                format!("{relaxed:?}"),
                format!("{again:?}"),
                "relaxed run not reproducible at {} shards", shards
            );
        }
    }
}

/// The incast tie storm from the exact-engine suite: the hardest case for
/// pairwise horizons (every shard pair exchanges simultaneously). Counts
/// must hold at every shard count even though tie-breaks shift.
#[test]
fn relaxed_survives_the_same_time_incast_storm() {
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
    let serial = run_case_mode(n, &plans, 1, ShardMode::Exact);
    for shards in [2usize, 3, 4, 8, 12] {
        let relaxed = run_case_mode(n, &plans, shards, ShardMode::Relaxed);
        assert_eq!(
            delivery_fingerprint(&serial),
            delivery_fingerprint(&relaxed),
            "storm counts diverged at {shards} shards"
        );
        assert_end_time_close(
            serial.end_time,
            relaxed.end_time,
            &format!("storm at {shards} shards"),
        );
    }
    assert!(serial.net_packets >= 22, "storm not vacuous");
}

/// Loopback does not panic under the relaxed engine either: self sends are
/// node-local in every mode. The final world's fabric counts what the
/// report counts, on both engines.
#[test]
fn relaxed_handles_loopback_workloads() {
    let n = 4u32;
    let plans: Vec<Vec<PlannedOp>> = (0..n)
        .map(|r| {
            vec![
                PlannedOp {
                    delay: Time::from_ns(500),
                    dst: r,
                    len: MTU + 17,
                    kind: 0,
                },
                PlannedOp {
                    delay: Time::from_ns(900),
                    dst: (r + 1) % n,
                    len: 300,
                    kind: 0,
                },
            ]
        })
        .collect();
    let serial = run_output_mode(n, &plans, 1, ShardMode::Exact);
    let relaxed = run_output_mode(n, &plans, 4, ShardMode::Relaxed);
    assert_eq!(
        delivery_fingerprint(&serial.report),
        delivery_fingerprint(&relaxed.report),
        "loopback counts diverged"
    );
    assert_end_time_close(
        serial.report.end_time,
        relaxed.report.end_time,
        "loopback at 4 shards",
    );
    assert_fabric_matches_report(&serial, "serial");
    assert_fabric_matches_report(&relaxed, "4 relaxed shards");
}

/// Zero lookahead is rejected by the relaxed engine too: a pairwise
/// horizon of zero admits no conservative bound.
#[test]
#[should_panic(expected = "positive lookahead")]
fn relaxed_rejects_zero_latency_fabrics() {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_latency = Time::ZERO;
    config.net.wire_latency = Time::ZERO;
    SimBuilder::new(config)
        .nodes_with(4, |_| Box::new(TrafficNode { plan: Vec::new() }))
        .run_with_shards_mode(2, ShardMode::Relaxed);
}
