//! Full events (§3.1: "Completion notification occurs through counting
//! events or appending a full event to an event queue, which is also used
//! for error notification"). The NIC model in `spin-core` delivers each
//! full event to the host program after the host dispatch latency, rather
//! than through a queue the host polls.

use crate::me::MeHandle;
use crate::types::{MatchBits, ProcessId};

/// Kinds of full events the simulator delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A put landed in a priority-list ME.
    Put,
    /// A put landed in an overflow-list ME (unexpected message).
    PutOverflow,
    /// The reply to a get arrived (initiator side).
    Reply,
    /// An ack for a put arrived (initiator side).
    Ack,
    /// The portal table entry was disabled by flow control (§3.2).
    PtDisabled,
    /// A sPIN handler raised an error (FAIL/SEGV, Appendix B.3–B.5).
    HandlerError,
    /// The recovery machinery gave up on a message after exhausting its
    /// probe budget (the target never re-enabled) — the Portals
    /// `PTL_NI_UNDELIVERABLE` failure surfaced to the initiator.
    Undeliverable,
}

/// A full event (`ptl_event_t` subset carrying what the experiments need).
#[derive(Debug, Clone)]
pub struct FullEvent {
    /// What happened.
    pub kind: EventKind,
    /// Peer process (initiator for target events, target for initiator
    /// events).
    pub peer: ProcessId,
    /// Match bits of the operation.
    pub match_bits: MatchBits,
    /// Requested length.
    pub rlength: usize,
    /// Accepted ("matched") length.
    pub mlength: usize,
    /// Offset the data landed at (within the ME region).
    pub offset: usize,
    /// Out-of-band header data from the initiator.
    pub hdr_data: u64,
    /// The ME involved (target events).
    pub me: Option<MeHandle>,
    /// User pointer from the ME.
    pub user_ptr: u64,
    /// Failure code; `0` is success. Only the first handler error per
    /// message is reported (Appendix B.3).
    pub ni_fail: u32,
}

impl FullEvent {
    /// A minimal success event.
    pub fn simple(kind: EventKind, peer: ProcessId, match_bits: MatchBits, len: usize) -> Self {
        FullEvent {
            kind,
            peer,
            match_bits,
            rlength: len,
            mlength: len,
            offset: 0,
            hdr_data: 0,
            me: None,
            user_ptr: 0,
            ni_fail: 0,
        }
    }
}
