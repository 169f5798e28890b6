//! The handler execution context: the sandbox sPIN handlers run in.
//!
//! A handler in this reproduction is real Rust code operating on real packet
//! bytes, but its *time* is simulated: every action it takes through
//! [`HandlerCtx`] advances an intra-handler clock by the documented cycle
//! cost ([`crate::cost`]), and blocking DMA advances it by the DMA engine's
//! contended completion time. Side effects that leave the NIC (puts, gets,
//! counter updates) are recorded as timestamped [`OutAction`]s which the NIC
//! runtime in `spin-core` feeds back into the discrete-event queue — the
//! same role the paper's "simcalls" play between gem5 and LogGOPSim (§4.2).
//!
//! The context enforces the sandbox of §2: handlers may only touch the two
//! host-memory windows their ME grants (the ME region and the
//! `handler_host_mem` region of Appendix B.1); any other access is a
//! [`Segv`], reported through the handler's error return code.

use crate::cost;
use crate::dma::DmaEngine;
use crate::memory::{HostMemory, Segv};
use bytes::Bytes;
use spin_portals::types::{MatchBits, ProcessId, UserHeader};
use spin_sim::time::Time;

/// Header-handler return codes (Appendix B.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderRet {
    /// Drop the whole message (NIC discards all following packets).
    Drop,
    /// Drop, and keep the ME pending (do not complete it).
    DropPending,
    /// Continue: invoke payload handlers on data packets.
    ProcessData,
    /// Continue, and keep the ME pending.
    ProcessDataPending,
    /// Execute the default Portals action (deposit at the ME) with no
    /// further handlers; the deposited payload includes the user header.
    Proceed,
    /// Default action, keep the ME pending.
    ProceedPending,
    /// User-signalled handler error.
    Fail,
}

/// Payload-handler return codes (Appendix B.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadRet {
    /// Drop this packet (counts toward `dropped_bytes`).
    Drop,
    /// Packet processed.
    Success,
    /// User-signalled handler error.
    Fail,
}

/// Completion-handler return codes (Appendix B.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionRet {
    /// Message done; complete the ME.
    Success,
    /// Message done; do not complete the ME (e.g. rendezvous get pending).
    SuccessPending,
    /// User-signalled handler error.
    Fail,
}

/// Arguments to the completion handler (§3.2.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionInfo {
    /// Payload bytes dropped by payload handlers or flow control.
    pub dropped_bytes: usize,
    /// Whether flow control fired during this message.
    pub flow_control_triggered: bool,
}

/// Which of the two sandboxed host-memory windows an access targets
/// (`PTL_ME_HOST_MEM` / `PTL_HANDLER_HOST_MEM`, Appendix B.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRegion {
    /// The ME's memory region (message destination).
    MeHost,
    /// The auxiliary handler region (`handler_host_mem_*` of B.1).
    HandlerHost,
}

/// A side effect recorded by a handler for the NIC runtime to execute.
#[derive(Debug, Clone)]
pub enum OutAction {
    /// `PtlHandlerPutFromDevice`: a single-packet put with payload taken
    /// from NIC memory (packet buffer or scratchpad).
    PutFromDevice {
        /// Payload bytes (≤ MTU).
        payload: Bytes,
        /// Destination process.
        target: ProcessId,
        /// Match bits at the destination.
        match_bits: MatchBits,
        /// Offset at the destination ME.
        remote_offset: usize,
        /// Out-of-band data.
        hdr_data: u64,
        /// User header prepended to the payload.
        user_hdr: UserHeader,
    },
    /// `PtlHandlerPutFromHost`: enqueue a put of host memory "as if it was
    /// initiated from the host itself". Offset is ME-relative.
    PutFromHost {
        /// Source offset within the ME region.
        me_offset: usize,
        /// Bytes to send.
        length: usize,
        /// Destination process.
        target: ProcessId,
        /// Match bits at the destination.
        match_bits: MatchBits,
        /// Offset at the destination ME.
        remote_offset: usize,
        /// Out-of-band data.
        hdr_data: u64,
        /// User header prepended to the payload.
        user_hdr: UserHeader,
    },
    /// `PtlHandlerGet`: fetch remote data into the ME region (rendezvous).
    Get {
        /// Destination offset within the local ME region.
        me_offset: usize,
        /// Bytes to fetch.
        length: usize,
        /// Remote process to read from.
        target: ProcessId,
        /// Match bits at the remote match list.
        match_bits: MatchBits,
        /// Offset at the remote ME.
        remote_offset: usize,
    },
    /// `PtlHandlerCTInc`.
    CtInc {
        /// Local counter id.
        ct: u32,
        /// Increment.
        by: u64,
    },
    /// `PtlHandlerCTSet`.
    CtSet {
        /// Local counter id.
        ct: u32,
        /// New value.
        value: u64,
    },
}

/// Handle for a nonblocking DMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaHandle(usize);

/// The result of one handler execution, consumed by the NIC runtime.
#[derive(Debug, Clone)]
pub struct HandlerRun {
    /// Total handler duration (compute + blocking-DMA waits).
    pub duration: Time,
    /// Pure compute/occupancy time (what the core is busy for when
    /// `yield_on_dma` is enabled).
    pub compute: Time,
    /// Time spent blocked on DMA.
    pub dma_blocked: Time,
    /// Side effects with their absolute issue times.
    pub actions: Vec<(Time, OutAction)>,
}

/// The execution context handed to a running handler.
pub struct HandlerCtx<'a> {
    start: Time,
    local: Time,
    compute: Time,
    dma_blocked: Time,
    core: usize,
    num_hpus: usize,
    dma: &'a mut DmaEngine,
    host: &'a mut HostMemory,
    me_region: (usize, usize),
    handler_region: (usize, usize),
    max_payload: usize,
    actions: Vec<(Time, OutAction)>,
    nb_dma: Vec<Time>,
    /// The packet buffer of a payload run; `None` for header and
    /// completion runs.
    packet: Option<&'a Bytes>,
}

impl<'a> HandlerCtx<'a> {
    /// Create a context for a handler starting at absolute time `start`,
    /// pinned to `core` of `num_hpus`, sandboxed to the given host-memory
    /// windows (`(base, len)` pairs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        start: Time,
        core: usize,
        num_hpus: usize,
        dma: &'a mut DmaEngine,
        host: &'a mut HostMemory,
        me_region: (usize, usize),
        handler_region: (usize, usize),
        max_payload: usize,
    ) -> Self {
        let mut ctx = HandlerCtx {
            start,
            local: Time::ZERO,
            compute: Time::ZERO,
            dma_blocked: Time::ZERO,
            core,
            num_hpus,
            dma,
            host,
            me_region,
            handler_region,
            max_payload,
            actions: Vec::new(),
            nb_dma: Vec::new(),
            packet: None,
        };
        ctx.charge(cost::HANDLER_INVOKE);
        ctx
    }

    /// Give a payload run its packet buffer: the storage the handler's
    /// `data` points into. Bytes the handler moves out of it whole, by
    /// [`Self::put_from_device`] or [`Self::dma_to_host_b`], then travel
    /// as views of the buffer instead of copies, as the NIC sends and DMAs
    /// from its packet buffer in place.
    pub fn set_packet(&mut self, packet: &'a Bytes) {
        self.packet = Some(packet);
    }

    /// `PTL_MY_HPU`: the core this handler is pinned to.
    pub fn my_hpu(&self) -> usize {
        self.core
    }

    /// `PTL_NUM_HPUS`: simultaneously active handler units.
    pub fn num_hpus(&self) -> usize {
        self.num_hpus
    }

    /// Absolute simulated time inside the handler.
    pub fn now(&self) -> Time {
        self.start + self.local
    }

    /// Intra-handler elapsed time.
    pub fn elapsed(&self) -> Time {
        self.local
    }

    /// Charge `n` HPU cycles of computation. Handlers use this to account
    /// for work done in plain Rust (per-element loops etc.); the per-action
    /// costs of the `PtlHandler*` calls are charged automatically.
    pub fn compute_cycles(&mut self, n: u64) {
        self.charge(n);
    }

    fn charge(&mut self, n: u64) {
        let t = cost::cycles(n);
        self.local += t;
        self.compute += t;
    }

    fn block(&mut self, until_abs: Time) {
        let now = self.now();
        if until_abs > now {
            let wait = until_abs - now;
            self.local += wait;
            self.dma_blocked += wait;
        }
    }

    /// `data` as a view of the packet buffer, if its address range lies
    /// inside it; `None` for any other memory (HPU memory, DMA reads,
    /// computed buffers) and in runs without a packet.
    fn packet_view(&self, data: &[u8]) -> Option<Bytes> {
        let packet = self.packet?;
        let start = (data.as_ptr() as usize).checked_sub(packet.as_ptr() as usize)?;
        let end = start + data.len();
        (end <= packet.len()).then(|| packet.slice(start..end))
    }

    /// Write `data` at absolute host offset `abs`. A view of the packet
    /// buffer goes through [`HostMemory::write_bytes`], which adopts a
    /// whole aligned page by reference; anything else is copied.
    fn host_write(&mut self, abs: usize, data: &[u8]) -> Result<(), Segv> {
        match self.packet_view(data) {
            Some(view) => self.host.write_bytes(abs, &view),
            None => self.host.write(abs, data),
        }
    }

    fn resolve(&self, region: MemRegion, offset: usize, len: usize) -> Result<usize, Segv> {
        let (base, region_len) = match region {
            MemRegion::MeHost => self.me_region,
            MemRegion::HandlerHost => self.handler_region,
        };
        if offset.checked_add(len).is_some_and(|e| e <= region_len) {
            Ok(base + offset)
        } else {
            Err(Segv {
                offset,
                len,
                region: region_len,
            })
        }
    }

    // ---- DMA (Appendix B.6) ----

    /// `PtlHandlerDMAFromHostB`: blocking read of `len` bytes at `offset`
    /// within `region`. Blocks for the full contended round trip (2·L +
    /// transfer).
    pub fn dma_from_host_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, Segv> {
        self.charge(cost::DMA_ISSUE);
        let abs = self.resolve(region, offset, len)?;
        let timing = self.dma.read(self.now(), len);
        let data = self.host.read(abs, len)?.to_vec();
        self.block(timing.complete);
        Ok(data)
    }

    /// `PtlHandlerDMAToHostB`: blocking write of `data` at `offset` within
    /// `region`. Blocks until the data path accepted the data (the short
    /// blocking sections in the Appendix C.3.2 traces); global visibility is
    /// one DMA latency later. Packet bytes that fill a whole aligned host
    /// page land by page adoption, sharing the packet's storage; all other
    /// data is copied. The simulated cost is the same either way.
    pub fn dma_to_host_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        data: &[u8],
    ) -> Result<(), Segv> {
        self.charge(cost::DMA_ISSUE);
        let abs = self.resolve(region, offset, data.len())?;
        let timing = self.dma.write(self.now(), data.len());
        self.host_write(abs, data)?;
        self.block(timing.channel_end);
        Ok(())
    }

    /// `PtlHandlerDMAFromHostNB`: nonblocking read. Returns the data and a
    /// handle; the data must be considered available only after
    /// [`Self::dma_wait`] (timing-wise the wait is where the latency lands).
    pub fn dma_from_host_nb(
        &mut self,
        region: MemRegion,
        offset: usize,
        len: usize,
    ) -> Result<(Vec<u8>, DmaHandle), Segv> {
        self.charge(cost::DMA_ISSUE + cost::DMA_NB_EXTRA);
        let abs = self.resolve(region, offset, len)?;
        let timing = self.dma.read(self.now(), len);
        let data = self.host.read(abs, len)?.to_vec();
        self.nb_dma.push(timing.complete);
        Ok((data, DmaHandle(self.nb_dma.len() - 1)))
    }

    /// `PtlHandlerDMAToHostNB`: nonblocking write; shares packet bytes as
    /// [`Self::dma_to_host_b`] does.
    pub fn dma_to_host_nb(
        &mut self,
        region: MemRegion,
        offset: usize,
        data: &[u8],
    ) -> Result<DmaHandle, Segv> {
        self.charge(cost::DMA_ISSUE + cost::DMA_NB_EXTRA);
        let abs = self.resolve(region, offset, data.len())?;
        let timing = self.dma.write(self.now(), data.len());
        self.host_write(abs, data)?;
        self.nb_dma.push(timing.channel_end);
        Ok(DmaHandle(self.nb_dma.len() - 1))
    }

    /// `PtlHandlerDMATest`: has the transfer finished?
    pub fn dma_test(&mut self, h: DmaHandle) -> bool {
        self.charge(cost::DMA_TEST);
        self.nb_dma[h.0] <= self.now()
    }

    /// `PtlHandlerDMAWait`: block until the transfer finished.
    pub fn dma_wait(&mut self, h: DmaHandle) {
        self.charge(cost::DMA_TEST);
        self.block(self.nb_dma[h.0]);
    }

    /// `PtlHandlerDMACAS` (blocking form): atomic compare-and-swap on host
    /// memory over the interconnect. On failure `cmp` receives the current
    /// value.
    pub fn dma_cas_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        cmp: &mut u64,
        swap: u64,
    ) -> Result<bool, Segv> {
        self.charge(cost::DMA_ATOMIC_ISSUE);
        let abs = self.resolve(region, offset, 8)?;
        let timing = self.dma.atomic(self.now());
        let ok = self.host.cas_u64(abs, cmp, swap)?;
        self.block(timing.complete);
        Ok(ok)
    }

    /// `PtlHandlerDMAFetchAdd` (blocking form): atomic fetch-add on host
    /// memory; returns the prior value.
    pub fn dma_fetch_add_b(
        &mut self,
        region: MemRegion,
        offset: usize,
        inc: u64,
    ) -> Result<u64, Segv> {
        self.charge(cost::DMA_ATOMIC_ISSUE);
        let abs = self.resolve(region, offset, 8)?;
        let timing = self.dma.atomic(self.now());
        let before = self.host.fetch_add_u64(abs, inc)?;
        self.block(timing.complete);
        Ok(before)
    }

    // ---- message generation ----

    /// `PtlHandlerPutFromDevice`: single-packet put from NIC memory.
    /// Payload must fit `max_payload_size`. A payload inside the packet
    /// buffer of a payload run (the packet itself or any sub-slice of it)
    /// is sent as a view of that buffer, sharing its storage; anything
    /// else (HPU memory, DMA reads, computed buffers, and every put from a
    /// header or completion handler) is copied.
    pub fn put_from_device(
        &mut self,
        payload: &[u8],
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
    ) -> Result<(), Segv> {
        self.put_from_device_with_header(
            payload,
            target,
            match_bits,
            remote_offset,
            hdr_data,
            UserHeader::empty(),
        )
    }

    /// `PtlHandlerPutFromHost`: nonblocking put of ME-region host memory via
    /// the normal send path.
    pub fn put_from_host(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
    ) -> Result<(), Segv> {
        self.put_from_host_with_header(
            me_offset,
            length,
            target,
            match_bits,
            remote_offset,
            hdr_data,
            UserHeader::empty(),
        )
    }

    /// Variant of [`Self::put_from_host`] carrying a user header (protocol
    /// messages).
    #[allow(clippy::too_many_arguments)]
    pub fn put_from_host_with_header(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
        user_hdr: UserHeader,
    ) -> Result<(), Segv> {
        self.charge(cost::PUT_FROM_HOST_ISSUE);
        // Bounds-check against the sandbox now; the runtime DMAs later.
        self.resolve(MemRegion::MeHost, me_offset, length)?;
        self.actions.push((
            self.now(),
            OutAction::PutFromHost {
                me_offset,
                length,
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr,
            },
        ));
        Ok(())
    }

    /// Variant of [`Self::put_from_device`] carrying a user header; the
    /// payload is shared or copied by the same rule.
    #[allow(clippy::too_many_arguments)]
    pub fn put_from_device_with_header(
        &mut self,
        payload: &[u8],
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
        hdr_data: u64,
        user_hdr: UserHeader,
    ) -> Result<(), Segv> {
        assert!(
            payload.len() <= self.max_payload,
            "PutFromDevice payload {} exceeds max_payload_size {}",
            payload.len(),
            self.max_payload
        );
        self.charge(cost::PUT_FROM_DEVICE_ISSUE);
        let payload = self
            .packet_view(payload)
            .unwrap_or_else(|| Bytes::copy_from_slice(payload));
        self.actions.push((
            self.now(),
            OutAction::PutFromDevice {
                payload,
                target,
                match_bits,
                remote_offset,
                hdr_data,
                user_hdr,
            },
        ));
        Ok(())
    }

    /// `PtlHandlerGet`: issue a get to a remote process, depositing into the
    /// local ME region (used by the offloaded rendezvous protocol, §5.1).
    pub fn issue_get(
        &mut self,
        me_offset: usize,
        length: usize,
        target: ProcessId,
        match_bits: MatchBits,
        remote_offset: usize,
    ) -> Result<(), Segv> {
        self.charge(cost::GET_ISSUE);
        self.resolve(MemRegion::MeHost, me_offset, length)?;
        self.actions.push((
            self.now(),
            OutAction::Get {
                me_offset,
                length,
                target,
                match_bits,
                remote_offset,
            },
        ));
        Ok(())
    }

    /// `PtlHandlerCTInc`.
    pub fn ct_inc(&mut self, ct: u32, by: u64) {
        self.charge(cost::CT_OP);
        self.actions.push((self.now(), OutAction::CtInc { ct, by }));
    }

    /// `PtlHandlerCTSet`.
    pub fn ct_set(&mut self, ct: u32, value: u64) {
        self.charge(cost::CT_OP);
        self.actions
            .push((self.now(), OutAction::CtSet { ct, value }));
    }

    /// `PtlHandlerYield`: scheduling hint (charged, otherwise a no-op in
    /// this model — the pool's yield-on-DMA option covers descheduling).
    pub fn yield_now(&mut self) {
        self.charge(cost::YIELD);
    }

    /// Finish the handler, charging the epilogue and yielding the run record.
    pub fn finish(mut self) -> HandlerRun {
        self.charge(cost::HANDLER_RETURN);
        HandlerRun {
            duration: self.local,
            compute: self.compute,
            dma_blocked: self.dma_blocked,
            actions: self.actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaParams;
    use crate::memory::{HpuMemory, HOST_PAGE};

    fn setup() -> (DmaEngine, HostMemory) {
        (
            DmaEngine::new(DmaParams::integrated()),
            HostMemory::new(1 << 20),
        )
    }

    fn ctx<'a>(dma: &'a mut DmaEngine, host: &'a mut HostMemory) -> HandlerCtx<'a> {
        HandlerCtx::new(
            Time::from_us(1),
            0,
            4,
            dma,
            host,
            (0, 1 << 16),       // ME region: first 64 KiB
            (1 << 16, 1 << 10), // handler region: 1 KiB after it
            4096,
        )
    }

    #[test]
    fn invoke_cost_charged() {
        let (mut dma, mut host) = setup();
        let c = ctx(&mut dma, &mut host);
        assert_eq!(c.elapsed(), cost::cycles(cost::HANDLER_INVOKE));
        assert_eq!(c.my_hpu(), 0);
        assert_eq!(c.num_hpus(), 4);
        let run = c.finish();
        assert_eq!(
            run.duration,
            cost::cycles(cost::HANDLER_INVOKE + cost::HANDLER_RETURN)
        );
        assert!(run.actions.is_empty());
    }

    #[test]
    fn blocking_read_blocks_for_round_trip() {
        let (mut dma, mut host) = setup();
        host.write(100, &[7u8; 64]).unwrap();
        let mut c = ctx(&mut dma, &mut host);
        let before = c.elapsed();
        let data = c.dma_from_host_b(MemRegion::MeHost, 100, 64).unwrap();
        assert_eq!(data, vec![7u8; 64]);
        // 2 * 50 ns latency dominates for 64 B.
        let blocked = c.elapsed() - before;
        assert!(blocked > Time::from_ns(100), "{blocked}");
        let run = c.finish();
        assert!(run.dma_blocked > Time::from_ns(99));
        assert!(run.compute < Time::from_ns(20));
    }

    #[test]
    fn blocking_write_blocks_briefly() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        c.dma_to_host_b(MemRegion::MeHost, 0, &[1u8; 4096]).unwrap();
        // Write blocks for the channel only (~27 ns at 150 GiB/s), no 2L.
        assert!(c.elapsed() < Time::from_ns(60), "{}", c.elapsed());
        let run = c.finish();
        assert!(run.duration < Time::from_ns(60));
        assert_eq!(&host.read(0, 1).unwrap()[..], &[1]);
    }

    #[test]
    fn sandbox_enforced() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        // ME region is 64 KiB: offset 65536 is out.
        assert!(c.dma_from_host_b(MemRegion::MeHost, 1 << 16, 8).is_err());
        // Handler region is 1 KiB.
        assert!(c
            .dma_to_host_b(MemRegion::HandlerHost, 1020, &[0; 8])
            .is_err());
        assert!(c
            .dma_to_host_b(MemRegion::HandlerHost, 1016, &[0; 8])
            .is_ok());
        // put_from_host is bounds-checked too.
        assert!(c.put_from_host(1 << 16, 8, 1, 0, 0, 0).is_err());
    }

    #[test]
    fn handler_region_is_offset() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        c.dma_to_host_b(MemRegion::HandlerHost, 0, &[9u8; 4])
            .unwrap();
        drop(c.finish());
        // Lands at absolute 65536.
        assert_eq!(&host.read(1 << 16, 4).unwrap()[..], &[9, 9, 9, 9]);
    }

    #[test]
    fn nonblocking_dma_overlaps() {
        let (mut dma, mut host) = setup();
        host.write(0, &[3u8; 4096]).unwrap();
        let mut c = ctx(&mut dma, &mut host);
        let (data, h) = c.dma_from_host_nb(MemRegion::MeHost, 0, 4096).unwrap();
        assert_eq!(data[0], 3);
        assert!(!c.dma_test(h), "can't be done immediately");
        // Overlap compute with the transfer.
        c.compute_cycles(1000); // 400 ns
        assert!(c.dma_test(h), "done after 400 ns of compute");
        let before = c.elapsed();
        c.dma_wait(h);
        // Wait is (almost) free now.
        assert!(c.elapsed() - before < Time::from_ns(5));
    }

    #[test]
    fn actions_carry_issue_timestamps() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        c.compute_cycles(100);
        c.put_from_device(&[1, 2, 3], 5, 42, 0, 0).unwrap();
        c.compute_cycles(100);
        c.put_from_host(0, 4096, 6, 43, 0, 0).unwrap();
        let run = c.finish();
        assert_eq!(run.actions.len(), 2);
        assert!(run.actions[0].0 < run.actions[1].0);
        match &run.actions[0].1 {
            OutAction::PutFromDevice {
                payload,
                target,
                match_bits,
                ..
            } => {
                assert_eq!(&payload[..], &[1, 2, 3]);
                assert_eq!(*target, 5);
                assert_eq!(*match_bits, 42);
            }
            a => panic!("unexpected action {a:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max_payload_size")]
    fn oversized_put_from_device_panics() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        let big = vec![0u8; 5000];
        let _ = c.put_from_device(&big, 1, 0, 0, 0);
    }

    /// The payloads of the put-from-device actions a handler recorded.
    fn put_payloads(run: HandlerRun) -> Vec<Bytes> {
        (run.actions.into_iter())
            .map(|(_, a)| match a {
                OutAction::PutFromDevice { payload, .. } => payload,
                a => panic!("unexpected action {a:?}"),
            })
            .collect()
    }

    #[test]
    fn put_from_device_forwards_packet_bytes_by_reference() {
        let packet = Bytes::from((0..4096).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        c.set_packet(&packet);
        // The whole packet and a sub-slice of it: views of its storage.
        c.put_from_device(&packet, 1, 0, 0, 0).unwrap();
        c.put_from_device(&packet[100..612], 1, 0, 0, 0).unwrap();
        let sent = put_payloads(c.finish());
        assert_eq!(sent[0].as_ptr(), packet.as_ptr());
        assert_eq!(&sent[0][..], &packet[..]);
        assert_eq!(sent[1].as_ptr(), packet[100..].as_ptr());
        assert_eq!(&sent[1][..], &packet[100..612]);
    }

    #[test]
    fn put_from_device_copies_what_is_not_the_packet() {
        let packet = Bytes::from(vec![5u8; 4096]);
        let (mut dma, mut host) = setup();
        host.write(0, &[9u8; 64]).unwrap();
        let mut state = HpuMemory::alloc(64);
        state.write(0, &[3u8; 64]).unwrap();
        // A payload run's DMA read and HPU memory are copied...
        let mut c = ctx(&mut dma, &mut host);
        c.set_packet(&packet);
        let read = c.dma_from_host_b(MemRegion::MeHost, 0, 64).unwrap();
        c.put_from_device(&read, 1, 0, 0, 0).unwrap();
        let hpu = state.read(0, 64).unwrap();
        c.put_from_device(hpu, 1, 0, 0, 0).unwrap();
        let sent = put_payloads(c.finish());
        assert_eq!(&sent[0][..], &read[..]);
        assert_ne!(sent[0].as_ptr(), read.as_ptr());
        assert_eq!(&sent[1][..], hpu);
        assert_ne!(sent[1].as_ptr(), hpu.as_ptr());
        // ...and so is the packet's own data in a run without a packet
        // buffer (header and completion handlers).
        let mut c = ctx(&mut dma, &mut host);
        c.put_from_device(&packet[..64], 1, 0, 0, 0).unwrap();
        let sent = put_payloads(c.finish());
        assert_eq!(&sent[0][..], &packet[..64]);
        assert_ne!(sent[0].as_ptr(), packet.as_ptr());
    }

    #[test]
    fn dma_to_host_adopts_a_whole_aligned_packet_page() {
        let packet = Bytes::from((0..HOST_PAGE).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
        let (mut dma, mut host) = setup();
        let before = host.cow_clones();
        let mut c = ctx(&mut dma, &mut host);
        c.set_packet(&packet);
        c.dma_to_host_b(MemRegion::MeHost, HOST_PAGE, &packet)
            .unwrap();
        let h = c
            .dma_to_host_nb(MemRegion::MeHost, 3 * HOST_PAGE, &packet)
            .unwrap();
        c.dma_wait(h);
        drop(c.finish());
        assert_eq!(host.cow_clones(), before, "adoption copies no page");
        for at in [HOST_PAGE, 3 * HOST_PAGE] {
            let page = host.read_bytes(at, HOST_PAGE).unwrap();
            assert_eq!(page.as_ptr(), packet.as_ptr(), "page at {at} is the packet");
            assert_eq!(&page[..], &packet[..]);
        }
    }

    #[test]
    fn dma_to_host_of_partial_or_misaligned_packet_bytes_lands_as_write() {
        let packet = Bytes::from((0..HOST_PAGE).map(|i| (i % 233) as u8).collect::<Vec<u8>>());
        // (destination offset, packet range): a partial slice, a whole
        // packet at a misaligned offset, and a partial slice at an aligned
        // one.
        let cases = [
            (7, 100..612),
            (HOST_PAGE + 7, 0..HOST_PAGE),
            (0, 0..HOST_PAGE - 1),
        ];
        for (at, range) in cases {
            let (mut dma, mut host) = setup();
            let mut want = host.clone();
            let mut c = ctx(&mut dma, &mut host);
            c.set_packet(&packet);
            c.dma_to_host_b(MemRegion::MeHost, at, &packet[range.clone()])
                .unwrap();
            drop(c.finish());
            want.write(at, &packet[range.clone()]).unwrap();
            let span = 3 * HOST_PAGE;
            assert_eq!(
                &host.read(0, span).unwrap()[..],
                &want.read(0, span).unwrap()[..],
                "{at} {range:?}"
            );
            assert_eq!(host.cow_clones(), want.cow_clones(), "{at} {range:?}");
        }
    }

    #[test]
    fn dma_atomics() {
        let (mut dma, mut host) = setup();
        host.put_u64(8, 10).unwrap();
        let mut c = ctx(&mut dma, &mut host);
        let before = c.dma_fetch_add_b(MemRegion::MeHost, 8, 5).unwrap();
        assert_eq!(before, 10);
        let mut cmp = 15;
        assert!(c.dma_cas_b(MemRegion::MeHost, 8, &mut cmp, 99).unwrap());
        // Each atomic blocks ~100 ns (2×50 ns latency).
        assert!(c.elapsed() > Time::from_ns(200));
        drop(c.finish());
        assert_eq!(host.get_u64(8).unwrap(), 99);
    }

    #[test]
    fn ct_ops_recorded() {
        let (mut dma, mut host) = setup();
        let mut c = ctx(&mut dma, &mut host);
        c.ct_inc(3, 1);
        c.ct_set(4, 10);
        c.yield_now();
        let run = c.finish();
        assert_eq!(run.actions.len(), 2);
        assert!(matches!(
            run.actions[0].1,
            OutAction::CtInc { ct: 3, by: 1 }
        ));
        assert!(matches!(
            run.actions[1].1,
            OutAction::CtSet { ct: 4, value: 10 }
        ));
    }

    #[test]
    fn competing_handlers_contend_on_dma() {
        let (mut dma, mut host) = setup();
        host.write(0, &[1u8; 8192]).unwrap();
        let t1 = {
            let mut c = HandlerCtx::new(
                Time::ZERO,
                0,
                4,
                &mut dma,
                &mut host,
                (0, 1 << 16),
                (0, 0),
                4096,
            );
            c.dma_from_host_b(MemRegion::MeHost, 0, 4096).unwrap();
            c.finish().duration
        };
        // Second handler starts at the same time; its read queues behind the
        // first on the data path.
        let t2 = {
            let mut c = HandlerCtx::new(
                Time::ZERO,
                1,
                4,
                &mut dma,
                &mut host,
                (0, 1 << 16),
                (0, 0),
                4096,
            );
            c.dma_from_host_b(MemRegion::MeHost, 4096, 4096).unwrap();
            c.finish().duration
        };
        assert!(t2 > t1, "t1={t1} t2={t2}");
    }
}
