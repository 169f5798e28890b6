//! The HPU cycle cost model — the reproduction's substitute for gem5.
//!
//! §4.2 models each NIC with 2.5 GHz ARM Cortex-A15 cores (IPC ≈ 1 for the
//! straight-line handler codes of Appendix C) and a 1-cycle scratchpad. We
//! charge handler time as instruction counts at that clock. The constants
//! below were set by hand-counting the Appendix C handler bodies (loads,
//! stores, ALU ops, branches per loop iteration); §4.4.2/Fig. 4 shows the
//! results are insensitive to factors of a few as long as per-packet time
//! stays under the line-rate bound (53 ns for 8 HPUs), which these costs
//! respect for all paper handlers.

use spin_sim::time::Time;

/// Picoseconds per HPU cycle at 2.5 GHz.
pub const CYCLE_PS: u64 = 400;

/// Convert a cycle count to simulated time.
#[inline]
pub fn cycles(n: u64) -> Time {
    Time::from_ps(n * CYCLE_PS)
}

/// Convert a duration to whole cycles (rounds up).
#[inline]
pub fn to_cycles(t: Time) -> u64 {
    t.ps().div_ceil(CYCLE_PS)
}

/// Handler invocation: the paper requires execution to start within a cycle
/// of packet arrival; argument setup and prologue cost a few instructions.
pub const HANDLER_INVOKE: u64 = 10;

/// Handler return/epilogue.
pub const HANDLER_RETURN: u64 = 4;

/// Issuing a put from device memory (`PtlHandlerPutFromDevice`): compose the
/// descriptor and hand it to the transceiver. The data is in scratchpad,
/// so no DMA is involved.
pub const PUT_FROM_DEVICE_ISSUE: u64 = 20;

/// Issuing a put from host memory (`PtlHandlerPutFromHost`): enqueue on the
/// normal send queue "as if posted by the host".
pub const PUT_FROM_HOST_ISSUE: u64 = 25;

/// Issuing a get (`PtlHandlerGet*`).
pub const GET_ISSUE: u64 = 25;

/// Issuing a blocking or nonblocking DMA command (the transfer itself is
/// timed by the DMA engine).
pub const DMA_ISSUE: u64 = 10;

/// Extra overhead of a *nonblocking* DMA: handle allocation + completion
/// bookkeeping (Appendix B.6: "slightly higher overhead due to handle
/// allocation and completion").
pub const DMA_NB_EXTRA: u64 = 6;

/// Testing a DMA handle (`PtlHandlerDMATest`).
pub const DMA_TEST: u64 = 4;

/// Atomic CAS / fetch-add on HPU memory (`PtlHandlerCAS` / `PtlHandlerFAdd`).
pub const HPU_ATOMIC: u64 = 6;

/// Atomic DMA CAS / fetch-add against host memory: issue cost; latency comes
/// from the DMA round trip.
pub const DMA_ATOMIC_ISSUE: u64 = 12;

/// Counter manipulation (`PtlHandlerCTInc` etc.).
pub const CT_OP: u64 = 5;

/// Voluntary yield (`PtlHandlerYield`): context switch hint.
pub const YIELD: u64 = 8;

/// Per-16-byte-vector cost of a simple streaming ALU pass over packet data
/// (NEON load, op, store ≈ 2 ops/vector on the A15): XOR parity, checksum.
/// A full 4 KiB packet is 256 vectors → 512 cycles ≈ 205 ns, inside the
/// 650 ns line-rate budget of §4.4.2.
pub const STREAM_VEC16: u64 = 2;

/// Per-element cost of a `complex<f64>` multiply-accumulate (4 mul + 2 add +
/// loads/stores over 16 B; the A15 NEON pipe retires roughly one such
/// element per 10 cycles).
pub const COMPLEX_MUL_16B: u64 = 10;

/// Per-block bookkeeping of the strided-datatype handler loop (offset
/// arithmetic: two divisions + min + branches, Appendix C.3.4).
pub const DDT_BLOCK_MATH: u64 = 18;

/// Hash of a short key (per 8 bytes, e.g. FNV-style) for the KV use case.
pub const HASH_WORD: u64 = 6;

/// The matching constants of §4.2 are *hardware* latencies, not HPU cycles:
/// a header packet searching the match queue takes 30 ns...
pub const MATCH_HEADER: Time = Time::from_ps(30_000);
/// ...and each following packet's CAM lookup takes 2 ns.
pub const MATCH_CAM: Time = Time::from_ps(2_000);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion() {
        assert_eq!(cycles(1).ps(), 400);
        assert_eq!(cycles(100).ns(), 40.0);
        assert_eq!(to_cycles(Time::from_ns(40)), 100);
        assert_eq!(to_cycles(Time::from_ps(401)), 2);
        assert_eq!(to_cycles(Time::ZERO), 0);
    }

    #[test]
    fn paper_handlers_fit_line_rate_budget() {
        // The ping-pong payload handler (Appendix C.3.1) is invoke + one
        // put-from-device + return: must fit the 53 ns / 8-HPU small-packet
        // budget of §4.4.2 with room to spare.
        let pingpong = HANDLER_INVOKE + PUT_FROM_DEVICE_ISSUE + HANDLER_RETURN;
        assert!(cycles(pingpong) < Time::from_ns(53), "{}", cycles(pingpong));
        // A full 4 KiB XOR pass (RAID, C.3.5) is 256 vectors: must fit the
        // 650 ns large-packet budget.
        let raid = HANDLER_INVOKE + 2 * DMA_ISSUE + 256 * STREAM_VEC16 + HANDLER_RETURN;
        assert!(cycles(raid) < Time::from_ns(650), "{}", cycles(raid));
    }

    #[test]
    fn match_constants() {
        assert_eq!(MATCH_HEADER, Time::from_ns(30));
        assert_eq!(MATCH_CAM, Time::from_ns(2));
    }
}
