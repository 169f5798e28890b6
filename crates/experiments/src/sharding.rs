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
//! on the serial engine or on any shard count: the exact engine must
//! reproduce the serial report's `Debug` text, the relaxed engine its
//! [`delivery_digest`].

use spin_core::config::{MachineConfig, NicKind};
/// The count-stable report digest (defined in `spin-core`).
pub use spin_core::world::delivery_digest;
use spin_core::world::{Report, ShardMode, SimBuilder};

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
    incast_builder(n, rounds)
        .run_with_shards_mode(shards, mode)
        .report
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
        let want = format!("{serial:?}");
        for shards in [2usize, 5] {
            assert_eq!(
                want,
                format!("{:?}", incast_report(18, 2, shards)),
                "report diverged at {shards} shards"
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
