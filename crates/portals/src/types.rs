//! Common Portals 4 wire-level types: process ids, match bits, operation
//! kinds, and the message header (`ptl_header_t` of Appendix B.3).

use bytes::Bytes;
use std::sync::Arc;

/// Logical process identifier (the paper uses logically-addressed mode, so
/// a rank is enough; physical nid/pid addressing maps 1:1 here).
pub type ProcessId = u32;

/// Wildcard source: matches any initiator (MPI_ANY_SOURCE support, §5.1).
pub const ANY_PROCESS: ProcessId = u32::MAX;

/// 64-bit match bits, masked by per-ME ignore bits.
pub type MatchBits = u64;

/// The kind of remote operation a message requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Write payload into target memory.
    Put,
    /// Read from target memory (the reply carries the data).
    Get,
    /// Read-modify-write on target memory.
    Atomic(AtomicOp),
    /// The data-carrying reply to a Get.
    Reply,
    /// An explicit acknowledgement of a Put/Atomic.
    Ack,
}

/// Portals atomic operations (subset used by the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Integer/byte-wise sum.
    Sum,
    /// Bitwise XOR (RAID parity).
    Xor,
    /// Minimum.
    Min,
    /// Compare-and-swap.
    Cswap,
}

/// Acknowledgement request attached to a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckReq {
    /// No acknowledgement.
    #[default]
    None,
    /// Full ack event at the initiator when the target consumed the message.
    Ack,
}

/// Transport-level disposition carried by an `OpKind::Ack` packet
/// (`ptl_ni_fail_t` condensed to what the recovery handshake needs): a
/// positive ack confirms the target consumed the message; a `PtDisabled`
/// NACK tells the initiator the message bounced off a flow-controlled
/// portal table entry (§3.2) and must be queued for retransmission once
/// the target drains and re-enables the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PtlAckType {
    /// The message was delivered and consumed.
    #[default]
    Ok,
    /// The message was dropped: the target PT is disabled (flow control).
    PtDisabled,
}

/// A user-defined header carried in the first bytes of the payload
/// (`ptl_user_header_t`). sPIN header handlers parse this; it is declared
/// statically in the paper so hardware can pre-parse it — here it is a
/// reference-counted byte buffer ([`Bytes`]) with typed accessors, so
/// cloning a header (e.g. sharing it across the packets of a message)
/// never copies the user-header bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserHeader {
    bytes: Bytes,
}

impl UserHeader {
    /// Empty user header.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from raw bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        UserHeader {
            bytes: Bytes::from(bytes),
        }
    }

    /// Build from two u64 fields — the layout the rendezvous protocol of
    /// §5.1 uses (total size, source tag).
    pub fn from_u64_pair(a: u64, b: u64) -> Self {
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
        Self::from_bytes(bytes)
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when no user header is attached.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The backing buffer as an O(1) reference-counted clone (the send
    /// path prepends it to the payload without copying).
    pub fn to_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Read a u64 at byte offset `off` (panics if out of bounds — handler
    /// code parsing a malformed header is a SEGV in the model, and the
    /// runtime catches the panic and converts it, see spin-core).
    pub fn u64_at(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("u64 field"))
    }
}

/// The message header presented to matching and to sPIN header handlers
/// (`ptl_header_t`, Appendix B.3).
#[derive(Debug, Clone)]
pub struct PtlHeader {
    /// Request type.
    pub op: OpKind,
    /// Payload length of the whole message in bytes.
    pub length: usize,
    /// Target process.
    pub target_id: ProcessId,
    /// Source process.
    pub source_id: ProcessId,
    /// Match tag.
    pub match_bits: MatchBits,
    /// Initiator-requested offset into the ME (ignored for locally-managed
    /// MEs).
    pub offset: usize,
    /// 64 bits of out-of-band data delivered with the event.
    pub hdr_data: u64,
    /// User-defined header (first bytes of the payload).
    pub user_hdr: UserHeader,
    /// Portal table index addressed by the initiator.
    pub pt_index: u32,
    /// Acknowledgement requested by the initiator.
    pub ack_req: AckReq,
    /// For `OpKind::Ack` packets: the transport-level disposition (positive
    /// ack vs `PtDisabled` NACK). Always `Ok` on non-ack messages.
    pub ack_type: PtlAckType,
}

impl PtlHeader {
    /// A put header with no user header, addressed at `pt_index` 0.
    pub fn put(
        source_id: ProcessId,
        target_id: ProcessId,
        match_bits: MatchBits,
        length: usize,
    ) -> Self {
        PtlHeader {
            op: OpKind::Put,
            length,
            target_id,
            source_id,
            match_bits,
            offset: 0,
            hdr_data: 0,
            user_hdr: UserHeader::empty(),
            pt_index: 0,
            ack_req: AckReq::None,
            ack_type: PtlAckType::Ok,
        }
    }
}

/// A packet as seen by the target NIC: which message it belongs to, its
/// offset in the message payload, and the payload bytes themselves.
///
/// Payload bytes are reference-counted slices ([`Bytes`]) so packetization
/// never copies message data, and the header is an [`Arc`] so every packet
/// of a message shares the one `PtlHeader` allocation built at injection —
/// cloning a packet is O(1) and allocation-free.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Message-unique id assigned by the initiating NIC.
    pub msg_id: u64,
    /// Index of this packet within the message (0 = header packet).
    pub index: u32,
    /// Total packets in the message.
    pub total: u32,
    /// Byte offset of this packet's payload within the message payload.
    pub offset: usize,
    /// Retransmission attempt of the message this packet belongs to
    /// (0 = first transmission). A channel installed by attempt `k`'s
    /// header ignores straggler packets of earlier attempts — without
    /// this, the tail of a flow-control-bounced large message still in
    /// flight when the retransmit lands would be absorbed into the new
    /// channel's assembly.
    pub attempt: u32,
    /// Payload carried by this packet.
    pub payload: Bytes,
    /// Header — shared by all packets of the message; follow-on packets in
    /// a channel-based system carry only the channel id (the CAM provides
    /// the context), but the simulator keeps the header handy in all packets
    /// for assertion checking. Timing never charges for it on non-header
    /// packets.
    pub header: Arc<PtlHeader>,
}

impl Packet {
    /// Whether this is the header packet (carries matching information).
    pub fn is_header(&self) -> bool {
        self.index == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_header_round_trips() {
        let h = UserHeader::from_u64_pair(0xDEAD_BEEF, 42);
        assert_eq!(h.len(), 16);
        assert_eq!(h.u64_at(0), 0xDEAD_BEEF);
        assert_eq!(h.u64_at(8), 42);
        assert!(UserHeader::empty().is_empty());
    }

    #[test]
    fn put_header_defaults() {
        let h = PtlHeader::put(3, 9, 0x10, 4096);
        assert_eq!(h.op, OpKind::Put);
        assert_eq!(h.source_id, 3);
        assert_eq!(h.target_id, 9);
        assert_eq!(h.length, 4096);
        assert_eq!(h.ack_req, AckReq::None);
    }

    #[test]
    fn packet_header_flag() {
        let h = Arc::new(PtlHeader::put(0, 1, 0, 8192));
        let p0 = Packet {
            msg_id: 1,
            index: 0,
            total: 2,
            offset: 0,
            attempt: 0,
            payload: Bytes::from(vec![0u8; 4096]),
            header: Arc::clone(&h),
        };
        let p1 = Packet {
            index: 1,
            offset: 4096,
            ..p0.clone()
        };
        assert!(p0.is_header());
        assert!(!p1.is_header());
    }
}
