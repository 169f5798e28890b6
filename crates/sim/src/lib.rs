//! # spin-sim — discrete-event simulation substrate
//!
//! This crate provides the simulation machinery that the sPIN reproduction is
//! built on. It plays the role LogGOPSim's event core plays in the paper's
//! toolchain (Hoefler et al., *sPIN: High-performance streaming Processing in
//! the Network*, SC'17, §4.2): a deterministic discrete-event engine with a
//! picosecond time base, plus the supporting pieces every experiment needs —
//! serialized-resource reservation (links, DMA engines, match units), online
//! statistics, the Little's-law analytic model of Fig. 4, deterministic
//! random-number helpers, and a text Gantt-chart recorder reproducing the
//! trace diagrams of Appendix C.
//!
//! The engine is intentionally minimal: one binary heap of user events,
//! ordered by a packed `(time, seq)` key whose sequence half is a stable FIFO
//! tie-break, so simulations are bit-reproducible across runs regardless of
//! hash-map iteration order or platform.

pub mod engine;
pub mod gantt;
pub mod littles_law;
pub mod mailbox;
pub mod noise;
pub mod resource;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventQueue};
pub use mailbox::Mailbox;
pub use time::{Time, GIGA, KIB, MIB, NS, PS, US};

/// 64-bit FNV-1a over `bytes`: the one hash every report digest and
/// determinism golden in the workspace folds its fingerprint text with.
/// Stable across platforms and releases, so pinned digests stay valid.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
