//! Large-world incast scenario for the sharded conservative-parallel
//! engine (beyond the paper's artifact set).
//!
//! The determinism goldens run 2- and 12-node worlds — big enough to pin
//! semantics, too small for a parallel engine to earn its keep. This
//! module builds the scenario `tests/scenario_equivalence.rs` and the
//! tests below drive: a 3-level fat tree of dozens of endpoints where
//! every leaf streams multi-packet acked puts at one gather root
//! (sustained incast on the root's ingress link — the global resource the
//! coordinator's ledger serializes) while simultaneously exchanging
//! smaller puts around a cross-pod ring (so every shard both sends and
//! receives across shard boundaries in every window).
//!
//! The programs live in [`spin_apps::incast`] (shared with the scenario
//! compiler); this module fixes the machine shape. The same builder runs
//! on the serial engine or on any shard count, and [`digest`] folds the
//! full report into one number so callers can assert the two engines agree
//! bit-for-bit.

use spin_core::config::{MachineConfig, NicKind};
use spin_core::world::{Report, ShardMode, SimBuilder};
use spin_sim::fnv1a;

/// The incast world: `n` endpoints on a radix-8 fat tree (3 levels from
/// 17 endpoints up: leaves of 4, pods of 16).
pub fn incast_builder(n: u32, rounds: u32) -> SimBuilder {
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_ports = 8;
    config.host.mem_size = 1 << 20;
    spin_apps::incast::builder(config, n, 0, rounds)
}

/// Run the scenario on the serial engine (`shards <= 1`) or the sharded
/// engine in exact (bit-identical) mode.
pub fn incast_report(n: u32, rounds: u32, shards: usize) -> Report {
    incast_report_mode(n, rounds, shards, ShardMode::Exact)
}

/// Run the scenario on the serial engine (`shards <= 1`) or the sharded
/// engine in the given mode.
pub fn incast_report_mode(n: u32, rounds: u32, shards: usize, mode: ShardMode) -> Report {
    let builder = incast_builder(n, rounds);
    if shards <= 1 {
        builder.run_serial().report
    } else {
        builder.run_with_shards_mode(shards, mode).report
    }
}

/// FNV-1a over every observable of the report (same shape the determinism
/// goldens fingerprint).
pub fn digest(r: &Report) -> u64 {
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
        writeln!(out, "node{i} {s:?}").unwrap();
    }
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    fnv1a(out.as_bytes())
}

/// FNV-1a over the *count-stable* observables only: fabric totals, event
/// count, the sorted `(rank, label)` mark multiset, recorded values, and
/// per-node integer statistics — no times, no f64 aggregates. This is the
/// slice the relaxed pairwise-horizon engine preserves exactly (it
/// reshuffles same-instant tie-breaks, which moves timestamps but never
/// what was delivered where), so serial, exact-sharded, and
/// relaxed-sharded runs of one scenario all share one delivery digest.
pub fn delivery_digest(r: &Report) -> u64 {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "events={}", r.events_executed).unwrap();
    writeln!(out, "net packets={} bytes={}", r.net_packets, r.net_bytes).unwrap();
    let mut marks: Vec<(u32, &str)> = r.marks.iter().map(|(n, l, _)| (*n, l.as_str())).collect();
    marks.sort_unstable();
    for (rank, label) in marks {
        writeln!(out, "mark r{rank} {label}").unwrap();
    }
    for (rank, label, v) in &r.values {
        writeln!(out, "value r{rank} {label} = {v}").unwrap();
    }
    for (i, s) in r.node_stats.iter().enumerate() {
        writeln!(
            out,
            "node{i} dma={}/{}/{} hostmem={} hpu={}/{} fc={} drop={} runs={:?} err={} forced={} \
             nack={}/{} rec={}/{}/{}/{}/{} pt={} recovered={}",
            s.dma_bytes,
            s.dma_reads,
            s.dma_writes,
            s.host_mem_bytes,
            s.hpu_admitted,
            s.hpu_rejected,
            s.flow_control_events,
            s.packets_dropped,
            s.handler_runs,
            s.handler_errors,
            s.forced_completion_admissions,
            s.nacks_sent,
            s.recovery_nacks,
            s.recovery_backoffs,
            s.recovery_probes,
            s.recovery_retransmits,
            s.recovery_held,
            s.recovery_abandoned,
            s.pt_reenables,
            s.recovered_messages,
        )
        .unwrap();
    }
    fnv1a(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_is_shard_invariant_and_not_vacuous() {
        let serial = incast_report(18, 2, 1);
        // Every leaf's every gather put was acked, and the incast really
        // hit one ingress port.
        let acks = serial
            .marks
            .iter()
            .filter(|(_, l, _)| l.contains("leaf-Ack"))
            .count();
        assert_eq!(acks, 17 * 2, "acked gather puts");
        assert!(serial.net_packets >= 17 * 2 * 3, "two data packets + ring");
        let d = digest(&serial);
        for shards in [2usize, 5] {
            assert_eq!(
                d,
                digest(&incast_report(18, 2, shards)),
                "digest diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn relaxed_incast_preserves_the_delivery_digest() {
        let serial = incast_report(18, 2, 1);
        let d = delivery_digest(&serial);
        for shards in [2usize, 5] {
            let relaxed = incast_report_mode(18, 2, shards, ShardMode::Relaxed);
            assert_eq!(
                d,
                delivery_digest(&relaxed),
                "delivery digest diverged at {shards} relaxed shards"
            );
        }
    }
}
