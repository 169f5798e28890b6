//! # spin-portals — a Portals 4 substrate
//!
//! The sPIN paper (§3) demonstrates the sPIN model on top of Portals 4
//! because Portals offers receiver-side matching, OS bypass, protection, and
//! NIC resource management — and because its two "network instruction set"
//! mechanisms (triggered operations and locally-managed offsets) are the
//! baseline that sPIN generalizes. This crate implements that substrate as
//! NIC-resident data structures:
//!
//! * **matching entries** (MEs) with 64-bit match/ignore bits, priority and
//!   overflow lists, `USE_ONCE` semantics and locally-managed offsets
//!   ([`me`]),
//! * **counting events** with attached **triggered operations** ([`ct`]) —
//!   the Portals 4 NISA used for the P4 baselines in every experiment,
//! * **full events**, the completion and error notices the NIC model
//!   delivers to the host ([`eq`]),
//! * a **logical network interface** tying them together with portal-table
//!   flow control and the ME limit ([`ni`]).
//!
//! Memory descriptors (MDs) are not modelled: each put names its payload
//! and each get its local destination in the call's own arguments
//! (`HostApi::put` / `HostApi::get` in `spin-core`).
//!
//! The structures are pure state machines: they know nothing about simulated
//! time. The NIC model in `spin-core` drives them and charges time (30 ns
//! header match, 2 ns CAM hit, DMA costs) around the calls.

pub mod ct;
pub mod eq;
pub mod me;
pub mod ni;
pub mod types;

pub use ct::{CtEvent, CtHandle, TriggeredAction, TriggeredOp};
pub use eq::{EventKind, FullEvent};
pub use me::{
    simple_me, HandlerRef, ListKind, MatchEntry, MatchList, MatchOutcome, MeHandle, MeOptions,
};
pub use ni::{HeaderDisposition, PortalTableEntry, PortalsNi, PtIndex, MAX_ENTRIES};
pub use types::{AckReq, MatchBits, OpKind, Packet, ProcessId, PtlAckType, PtlHeader, UserHeader};
