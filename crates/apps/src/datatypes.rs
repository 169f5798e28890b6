//! MPI datatype processing on the NIC (§5.2, Fig. 6/7a, Appendix C.3.4).
//!
//! A vector datatype `⟨start, stride, blocksize, count⟩` describes a strided
//! layout in receive memory. The paper's point: iovec-style interfaces need
//! O(n) NIC state for n blocks, while sPIN handlers unpack with O(1) state —
//! each payload handler computes the target offsets for its packet and DMAs
//! the pieces directly to their final locations, at line rate and in any
//! packet order.
//!
//! * **RDMA baseline**: the NIC deposits the packed message into a bounce
//!   buffer; the destination CPU then unpacks it with strided copies
//!   through host memory (2 bytes moved per payload byte, serialized on
//!   the CPU).
//! * **sPIN**: the payload handler runs the Appendix C.3.4 loop, issuing
//!   one DMA write per (partial) block.

use spin_core::config::MachineConfig;
use spin_core::handlers::FnHandlers;
use spin_core::host::{HostApi, HostProgram, MeSpec, PutArgs};
use spin_core::world::{SimBuilder, SimOutput};
use spin_hpu::cost;
use spin_hpu::ctx::{MemRegion, PayloadRet};
use spin_portals::eq::{EventKind, FullEvent};

/// A strided vector datatype: `count` blocks of `blocksize` bytes placed
/// every `stride` bytes starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorDt {
    /// First block's offset in the receive region.
    pub start: usize,
    /// Distance between block starts (≥ blocksize).
    pub stride: usize,
    /// Payload bytes per block.
    pub blocksize: usize,
    /// Number of blocks.
    pub count: usize,
}

impl VectorDt {
    /// Total packed payload size.
    pub fn packed_len(&self) -> usize {
        self.blocksize * self.count
    }

    /// Extent in receive memory (start of first to end of last block).
    pub fn extent(&self) -> usize {
        self.start + (self.count - 1) * self.stride + self.blocksize
    }

    /// Where packed byte `i` lands in the receive region.
    pub fn unpack_offset(&self, i: usize) -> usize {
        let block = i / self.blocksize;
        let within = i % self.blocksize;
        self.start + block * self.stride + within
    }

    /// Unpack a contiguous packed segment `[seg_off, seg_off + data.len())`
    /// into `(target_offset, slice)` pieces — the Appendix C.3.4 loop.
    /// Returns the number of pieces (for cycle accounting).
    pub fn unpack_segments<'d>(&self, seg_off: usize, data: &'d [u8]) -> Vec<(usize, &'d [u8])> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = seg_off + pos;
            let within = abs % self.blocksize;
            let room = self.blocksize - within;
            let take = room.min(data.len() - pos);
            out.push((self.unpack_offset(abs), &data[pos..pos + take]));
            pos += take;
        }
        out
    }
}

/// Transport variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdtMode {
    /// Bounce buffer + CPU unpack.
    Rdma,
    /// Payload handlers unpack with per-block DMA.
    Spin,
}

impl DdtMode {
    /// Series label.
    pub fn label(self) -> &'static str {
        match self {
            DdtMode::Rdma => "RDMA/P4",
            DdtMode::Spin => "sPIN",
        }
    }
}

const DDT_TAG: u64 = 33;

struct Sender {
    bytes: usize,
}
impl HostProgram for Sender {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.write_host(0, &crate::pattern(self.bytes, 1, 239));
        api.mark("post");
        api.put(PutArgs::from_host(1, 0, DDT_TAG, 0, self.bytes));
    }
}

struct RdmaReceiver {
    dt: VectorDt,
    bounce_off: usize,
}
impl HostProgram for RdmaReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        api.me_append(MeSpec::recv(
            0,
            DDT_TAG,
            (self.bounce_off, self.dt.packed_len()),
        ));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        // CPU unpack: one strided memcpy pass over the whole message.
        let packed = api.read_host(self.bounce_off, self.dt.packed_len());
        for (dst, piece) in self.dt.unpack_segments(0, &packed) {
            api.write_host(dst, piece);
        }
        // Timing: the unpack streams packed bytes in and strided bytes out.
        let n = self.dt.packed_len();
        api.stream_compute(n, n, (self.dt.count as u64) * 8);
        api.mark("unpacked");
    }
}

struct SpinReceiver {
    dt: VectorDt,
}
impl HostProgram for SpinReceiver {
    fn on_start(&mut self, api: &mut HostApi<'_>) {
        let dt = self.dt;
        let hpu = api.hpu_alloc(32, None);
        let handlers = FnHandlers::new()
            .on_payload(move |ctx, args, _st| {
                // Appendix C.3.4: compute per-block offsets and DMA each
                // piece to its final location; packets are independent.
                for (dst, piece) in dt.unpack_segments(args.offset, args.data) {
                    ctx.compute_cycles(cost::DDT_BLOCK_MATH);
                    ctx.dma_to_host_b(MemRegion::MeHost, dst, piece)?;
                }
                Ok(PayloadRet::Success)
            })
            .build();
        api.me_append(MeSpec::recv(0, DDT_TAG, (0, self.dt.extent())).with_handlers(handlers, hpu));
    }
    fn on_event(&mut self, ev: &FullEvent, api: &mut HostApi<'_>) {
        assert_eq!(ev.kind, EventKind::Put);
        api.mark("unpacked");
    }
}

/// Run one strided receive; returns the completion time in µs (sender post →
/// data fully unpacked at the receiver).
pub fn run(config: MachineConfig, mode: DdtMode, dt: VectorDt) -> f64 {
    let out = run_full(config, mode, dt);
    completion_us(&out)
}

/// Completion time of a finished run.
pub fn completion_us(out: &SimOutput) -> f64 {
    let post = out.report.mark(0, "post").expect("posted");
    let done = out.report.mark(1, "unpacked").expect("unpacked");
    (done - post).us()
}

/// Run and return the full output.
pub fn run_full(mut config: MachineConfig, mode: DdtMode, dt: VectorDt) -> SimOutput {
    let bounce_off = dt.extent().next_multiple_of(4096);
    config.host.mem_size = (bounce_off + dt.packed_len() + 4096).next_power_of_two();
    // Tiny blocks make each payload handler issue hundreds of DMA writes,
    // so per-packet service time far exceeds the line-rate bound and the
    // backlog grows to ~the whole message. §4.1 sizes NIC buffering by
    // Little's law ("more space can be added to hide more latency"); give
    // the NIC enough execution contexts to absorb the sweep's worst case
    // instead of dropping to flow control.
    config.hpu.contexts_per_hpu = 4096;
    let recv: Box<dyn HostProgram + Send> = match mode {
        DdtMode::Rdma => Box::new(RdmaReceiver { dt, bounce_off }),
        DdtMode::Spin => Box::new(SpinReceiver { dt }),
    };
    SimBuilder::new(config)
        .add_node(Box::new(Sender {
            bytes: dt.packed_len(),
        }))
        .add_node(recv)
        .run()
}

/// Verify the strided layout at the receiver after a run.
pub fn verify_unpack(out: &SimOutput, dt: VectorDt) {
    let mem = &out.world.nodes[1].mem;
    for b in 0..dt.count {
        let dst = dt.start + b * dt.stride;
        let got = mem.read(dst, dt.blocksize).unwrap();
        for (i, &byte) in got.iter().enumerate() {
            let packed_index = b * dt.blocksize + i;
            assert_eq!(
                byte,
                (packed_index % 239) as u8,
                "block {b} byte {i} mismatch"
            );
        }
    }
}

/// The Fig. 7a configuration: a 4 MiB transfer with stride = 2 × blocksize.
pub fn fig7a_dt(total: usize, blocksize: usize) -> VectorDt {
    VectorDt {
        start: 0,
        stride: 2 * blocksize,
        blocksize,
        count: total / blocksize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_core::config::NicKind;

    fn cfg() -> MachineConfig {
        MachineConfig::paper(NicKind::Integrated)
    }

    #[test]
    fn datatype_arithmetic() {
        // The Fig. 6 example: stride 2.5 KiB, blocksize 1.5 KiB.
        let dt = VectorDt {
            start: 0,
            stride: 2560,
            blocksize: 1536,
            count: 8,
        };
        assert_eq!(dt.packed_len(), 12288);
        assert_eq!(dt.extent(), 7 * 2560 + 1536);
        assert_eq!(dt.unpack_offset(0), 0);
        assert_eq!(dt.unpack_offset(1536), 2560);
        assert_eq!(dt.unpack_offset(1536 + 10), 2570);
        // A 4 KiB packet at offset 0 spans blocks 0..2: 3 pieces.
        let data = vec![0u8; 4096];
        let segs = dt.unpack_segments(0, &data);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].1.len(), 1536);
        assert_eq!(segs[2].1.len(), 4096 - 2 * 1536);
        // Segment pieces cover the packet exactly.
        let covered: usize = segs.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(covered, 4096);
    }

    #[test]
    fn both_modes_unpack_identically() {
        let dt = fig7a_dt(256 * 1024, 2048);
        for mode in [DdtMode::Rdma, DdtMode::Spin] {
            let out = run_full(cfg(), mode, dt);
            verify_unpack(&out, dt);
        }
    }

    #[test]
    fn spin_faster_for_large_blocks() {
        // Fig. 7a: above ~256 B blocks sPIN deposits near line rate while
        // RDMA is limited by the extra strided copy.
        let dt = fig7a_dt(1 << 22, 4096);
        let rdma = run(cfg(), DdtMode::Rdma, dt);
        let spin = run(cfg(), DdtMode::Spin, dt);
        assert!(spin < rdma, "spin={spin} rdma={rdma}");
    }

    #[test]
    fn small_blocks_hurt_spin() {
        // Fig. 7a: tiny blocks mean many small DMA transactions — sPIN's
        // completion time rises as blocks shrink.
        let big = run(cfg(), DdtMode::Spin, fig7a_dt(1 << 20, 4096));
        let small = run(cfg(), DdtMode::Spin, fig7a_dt(1 << 20, 64));
        assert!(small > big * 1.5, "small={small} big={big}");
    }

    #[test]
    fn odd_sizes_unpack_correctly() {
        // Blocksize not dividing the MTU: pieces straddle packet borders.
        let dt = VectorDt {
            start: 128,
            stride: 3000,
            blocksize: 1000,
            count: 37,
        };
        let out = run_full(cfg(), DdtMode::Spin, dt);
        verify_unpack(&out, dt);
    }
}
