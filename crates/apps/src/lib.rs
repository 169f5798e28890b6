//! # spin-apps — the paper's use cases and baselines
//!
//! Every workload evaluated in the sPIN paper (§4.4 microbenchmarks, §5 use
//! cases, §5.4 sketches), each implemented for all applicable transports so
//! experiments can compare RDMA, Portals 4 triggered operations, and sPIN:
//!
//! * [`pingpong`] — §4.4.1 / Fig. 3b–3c: RDMA vs P4 vs sPIN store/stream;
//! * [`accumulate`] — §4.4.2 / Fig. 3d: complex multiply-accumulate into
//!   host memory, CPU vs HPU;
//! * [`bcast`] — §4.4.3 / Fig. 5a: binomial-tree broadcast, host-forwarded
//!   vs triggered vs streaming handlers;
//! * [`matching`] — §5.1 / Fig. 5b: offloaded MPI message matching (eager +
//!   rendezvous protocols, posted/unexpected paths);
//! * [`datatypes`] — §5.2 / Fig. 7a: MPI vector-datatype unpack on the NIC;
//! * [`raid`] — §5.3 / Fig. 7c: distributed RAID-5 updates (Reed-Solomon
//!   parity) with client/server/parity protocols;
//! * [`kvstore`] — §5.4: key-value store insert/get handlers;
//! * [`condread`] — §5.4: conditional read (database filter scan);
//! * [`graph`] — §5.4: BFS/SSSP vertex-update handlers;
//! * [`ftbcast`] — §5.4: fault-tolerant broadcast with NIC-side duplicate
//!   suppression;
//! * [`txlog`] — §5.4: distributed-transaction access logging;
//! * [`saturate`] — incast overload driving the §3.2 flow-control recovery
//!   handshake closed-loop (beyond the paper's own figure set);
//! * [`gather`] — multi-hop gather + stride-ring exchange (the fat-tree
//!   golden scenario, parameterized for the scenario compiler);
//! * [`incast`] — sustained multi-round incast (the sharding benchmark
//!   scenario, parameterized for the scenario compiler).

pub mod accumulate;
pub mod bcast;
pub mod condread;
pub mod datatypes;
pub mod ftbcast;
pub mod gather;
pub mod graph;
pub mod incast;
pub mod kvstore;
pub mod matching;
pub mod pingpong;
pub mod raid;
pub mod saturate;
pub mod txlog;

/// `len` bytes of the payload pattern `(i * mul % modulus) as u8`, the
/// fill the apps send and verify. The pattern repeats every `modulus`
/// bytes, so one period is computed byte by byte and then doubled with
/// `extend_from_within` until `len` bytes are there.
///
/// # Panics
/// Panics if `modulus` is zero.
pub fn pattern(len: usize, mul: usize, modulus: usize) -> Vec<u8> {
    assert!(modulus > 0, "pattern modulus must be positive");
    let mut out = Vec::with_capacity(len);
    out.extend((0..len.min(modulus)).map(|i| (i * mul % modulus) as u8));
    while out.len() < len {
        // `out` holds whole periods here, so its prefix continues the
        // pattern.
        out.extend_from_within(..out.len().min(len - out.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::pattern;

    #[test]
    fn pattern_matches_the_per_byte_formula() {
        // Every (mul, modulus) an app fills its payload with.
        const USED: [(usize, usize); 8] = [
            (1, 241),  // bcast
            (1, 239),  // datatypes
            (1, 127),  // ftbcast
            (13, 239), // gather
            (31, 251), // incast
            (1, 199),  // matching
            (1, 253),  // pingpong
            (37, 251), // saturate
        ];
        for (mul, m) in USED {
            for len in [0, 1, m - 1, m, m + 1, 8192, (1 << 20) + 3] {
                let got = pattern(len, mul, m);
                assert_eq!(got.len(), len, "mul {mul} mod {m} len {len}");
                for (i, &b) in got.iter().enumerate() {
                    assert_eq!(
                        b,
                        (i * mul % m) as u8,
                        "mul {mul} mod {m} len {len} byte {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn a_zero_modulus_is_refused() {
        pattern(1, 1, 0);
    }
}
