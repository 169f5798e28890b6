//! Message descriptors exchanged between the host/handler layer and the NIC
//! send path.

use bytes::Bytes;
use spin_hpu::memory::MemSlice;
use spin_portals::types::{AckReq, MatchBits, OpKind, ProcessId, PtlAckType, UserHeader};

/// Where the payload of an outgoing message comes from.
#[derive(Debug, Clone)]
pub enum PayloadSpec {
    /// Bytes already at the NIC (handler put-from-device, control messages).
    Inline(Bytes),
    /// A copy-on-write snapshot of host memory taken before injection
    /// (e.g. the Get-serve path snapshots the source at match time). O(1)
    /// to clone; no payload byte is copied.
    Pages(MemSlice),
    /// A host-memory region `[offset, offset+len)`. `charge_dma` selects
    /// whether the NIC pays the §4.3 DMA read before injecting (true for
    /// handler put-from-host and triggered operations; false for
    /// host-initiated sends, whose staging is covered by `o`/`G` per the
    /// paper's accounting).
    HostRegion {
        /// Absolute offset in the node's host memory.
        offset: usize,
        /// Payload length.
        len: usize,
        /// Charge the DMA read on the NIC↔host interconnect.
        charge_dma: bool,
    },
    /// A get request: no payload, `len` is the requested read size.
    None {
        /// Requested length.
        len: usize,
    },
}

impl PayloadSpec {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            PayloadSpec::Inline(b) => b.len(),
            PayloadSpec::Pages(s) => s.len(),
            PayloadSpec::HostRegion { len, .. } => *len,
            PayloadSpec::None { len } => *len,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Who to tell when a request's response arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notify {
    /// Nobody (fire and forget).
    None,
    /// Deliver a full event to the initiating host program.
    Host,
    /// Complete the deferred sPIN message with this id at the initiator
    /// (the rendezvous-get path of §5.1: the get's reply completes the
    /// original receive).
    Channel(u64),
    /// Increment this local counter id on completion.
    Ct(u32),
}

/// An outgoing message descriptor handed to the NIC send path.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Initiating node.
    pub src: ProcessId,
    /// Destination node.
    pub dst: ProcessId,
    /// Operation.
    pub op: OpKind,
    /// Portal table entry addressed at the target.
    pub pt: u32,
    /// Match bits.
    pub match_bits: MatchBits,
    /// Offset requested at the target ME.
    pub remote_offset: usize,
    /// Out-of-band header data.
    pub hdr_data: u64,
    /// User-defined header (prepended to the payload; parsed by header
    /// handlers).
    pub user_hdr: UserHeader,
    /// Payload source.
    pub payload: PayloadSpec,
    /// Acknowledgement requested.
    pub ack: AckReq,
    /// For `Ack` messages: positive ack vs `PtDisabled` NACK (§3.2
    /// recovery handshake). `Ok` on everything else.
    pub ack_type: PtlAckType,
    /// For `Get`: where the reply deposits at the initiator (absolute host
    /// offset). For `Reply`: ditto (copied from the request).
    pub reply_dest: usize,
    /// Completion notification at the initiator.
    pub notify: Notify,
    /// Message id; 0 = assign at injection.
    pub msg_id: u64,
    /// Retransmission attempt (0 = first transmission; bumped by the
    /// flow-control recovery machinery on every probe/replay so receivers
    /// can discard stragglers of earlier attempts).
    pub attempt: u32,
    /// For `Reply`/`Ack`: the request's msg_id being answered.
    pub answers: u64,
    /// Selective retransmission: first packet index to (re)transmit. 0 on
    /// every fresh send; nonzero only on the tail resume a multi-packet
    /// transmission schedules for itself when a fault kills its path after
    /// the header left on a live link — packets below this index already
    /// arrived under the same attempt and are not re-sent.
    pub resume_from: u32,
}

impl OutMsg {
    /// The message every other constructor builds on: `op` from `src` to
    /// `dst`'s portal table entry `pt`, carrying `payload`, with no remote
    /// offset, header data or user header, no ack requested, no completion
    /// notification, an id assigned at injection, and a first attempt from
    /// packet 0.
    pub fn new(
        src: ProcessId,
        dst: ProcessId,
        op: OpKind,
        pt: u32,
        match_bits: MatchBits,
        payload: PayloadSpec,
    ) -> Self {
        OutMsg {
            src,
            dst,
            op,
            pt,
            match_bits,
            remote_offset: 0,
            hdr_data: 0,
            user_hdr: UserHeader::empty(),
            payload,
            ack: AckReq::None,
            ack_type: PtlAckType::Ok,
            reply_dest: 0,
            notify: Notify::None,
            msg_id: 0,
            attempt: 0,
            answers: 0,
            resume_from: 0,
        }
    }

    /// A plain put with inline payload.
    pub fn put_inline(
        src: ProcessId,
        dst: ProcessId,
        pt: u32,
        match_bits: MatchBits,
        payload: Bytes,
    ) -> Self {
        let payload = PayloadSpec::Inline(payload);
        Self::new(src, dst, OpKind::Put, pt, match_bits, payload)
    }

    /// A plain put from host memory (host-initiated: DMA not separately
    /// charged, per §4.3's accounting).
    pub fn put_from_host(
        src: ProcessId,
        dst: ProcessId,
        pt: u32,
        match_bits: MatchBits,
        offset: usize,
        len: usize,
    ) -> Self {
        let payload = PayloadSpec::HostRegion {
            offset,
            len,
            charge_dma: false,
        };
        Self::new(src, dst, OpKind::Put, pt, match_bits, payload)
    }

    /// A get request: fetch `len` bytes matched by `match_bits` at the
    /// target into local host memory at `reply_dest`.
    pub fn get(
        src: ProcessId,
        dst: ProcessId,
        pt: u32,
        match_bits: MatchBits,
        remote_offset: usize,
        len: usize,
        reply_dest: usize,
    ) -> Self {
        let payload = PayloadSpec::None { len };
        OutMsg {
            remote_offset,
            reply_dest,
            notify: Notify::Host,
            ..Self::new(src, dst, OpKind::Get, pt, match_bits, payload)
        }
    }

    /// The same message with `ack` requested, and the initiator's host
    /// told when the ack arrives (no notification without one).
    pub fn acked(self, ack: AckReq) -> Self {
        let notify = if ack == AckReq::None {
            Notify::None
        } else {
            Notify::Host
        };
        OutMsg {
            ack,
            notify,
            ..self
        }
    }

    /// Total payload length.
    pub fn length(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let m = OutMsg::put_inline(0, 1, 0, 7, Bytes::from_static(b"abc"));
        assert_eq!(m.length(), 3);
        assert_eq!(m.op, OpKind::Put);
        let g = OutMsg::get(0, 1, 0, 7, 64, 4096, 1024);
        assert_eq!(g.length(), 4096);
        assert_eq!(g.reply_dest, 1024);
        assert_eq!(g.notify, Notify::Host);
        let h = OutMsg::put_from_host(0, 1, 0, 7, 0, 100);
        assert!(matches!(
            h.payload,
            PayloadSpec::HostRegion {
                charge_dma: false,
                ..
            }
        ));
    }

    #[test]
    fn payload_spec_lengths() {
        assert_eq!(PayloadSpec::Inline(Bytes::new()).len(), 0);
        assert!(PayloadSpec::Inline(Bytes::new()).is_empty());
        assert_eq!(
            PayloadSpec::HostRegion {
                offset: 0,
                len: 10,
                charge_dma: true
            }
            .len(),
            10
        );
        assert_eq!(PayloadSpec::None { len: 5 }.len(), 5);
    }
}
