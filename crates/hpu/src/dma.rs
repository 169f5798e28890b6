//! The NIC↔host DMA engine (§4.3).
//!
//! The paper models DMA "at each host as a simple LogGP system" with o = 0
//! and g = 0 (those costs are inside the cycle-accurate handler execution)
//! and `L`/`G` depending on the NIC integration:
//!
//! * **discrete NIC** over 32-lane PCIe 4: L = 250 ns, G = 15.6 ps/B
//!   (64 GiB/s);
//! * **integrated NIC** on the memory controller: L = 50 ns, G = 6.7 ps/B
//!   (150 GiB/s, the host memory bandwidth).
//!
//! The engine is a pair of contended, gap-filling bandwidth channels — one
//! per direction, since PCIe and on-chip interconnects are full duplex.
//! Competing requests from multiple HPUs (and from message delivery into
//! host memory) serialize per direction, which is the "contention for host
//! memory" extension §4.3 describes. Gap-filling reservation avoids the
//! virtual-time artifact where a request issued late in *event* order but
//! early in *virtual time* would queue behind later traffic.
//!
//! Timing of the three request shapes:
//! * a **read** round-trips the interconnect: request L, data streams
//!   through the host→NIC channel, tail arrives L later ("we pay two DMA
//!   latencies to read the data", Appendix C.3.2);
//! * a **write**'s initiator hands data to the NIC→host channel and the
//!   data is globally visible one L after it drains;
//! * a **fetch** is the cut-through read used on the send path (triggered
//!   puts, handler put-from-host): injection can start as the data streams
//!   back, so it completes one L after the channel drains.

use spin_sim::resource::IntervalResource;
use spin_sim::time::{BytesPerTime, Time};

/// DMA LogGP parameters.
#[derive(Debug, Clone, Copy)]
pub struct DmaParams {
    /// One-way latency L of the NIC↔host interconnect.
    pub latency: Time,
    /// Per-byte gap G of each direction of the data path.
    pub bandwidth: BytesPerTime,
}

impl DmaParams {
    /// Discrete NIC (§4.3): PCIe 4 ×32 — L = 250 ns, 64 GiB/s.
    pub fn discrete() -> Self {
        DmaParams {
            latency: Time::from_ns(250),
            bandwidth: BytesPerTime::from_gib_per_sec(64.0),
        }
    }

    /// Integrated NIC (§4.3): on-chip — L = 50 ns, 150 GiB/s.
    pub fn integrated() -> Self {
        DmaParams {
            latency: Time::from_ns(50),
            bandwidth: BytesPerTime::from_gib_per_sec(150.0),
        }
    }
}

/// Completion times of one DMA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTiming {
    /// When the request occupies its direction of the data path.
    pub channel_start: Time,
    /// When that direction frees.
    pub channel_end: Time,
    /// When the operation's effect is complete (data at the NIC for reads /
    /// fetches, globally visible in host memory for writes).
    pub complete: Time,
}

/// The per-NIC DMA engine.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    params: DmaParams,
    /// Host → NIC direction (reads, fetches).
    from_host: IntervalResource,
    /// NIC → host direction (writes).
    to_host: IntervalResource,
    rate: BytesPerTime,
    reads: u64,
    writes: u64,
    bytes: u64,
}

impl DmaEngine {
    /// An idle engine with the given parameters.
    pub fn new(params: DmaParams) -> Self {
        DmaEngine {
            params,
            from_host: IntervalResource::new(),
            to_host: IntervalResource::new(),
            rate: params.bandwidth,
            reads: 0,
            writes: 0,
            bytes: 0,
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &DmaParams {
        &self.params
    }

    /// Reserve the host→NIC path for a **read** of `bytes` issued at
    /// `issue`. The requester sees data at `request L + channel + L`.
    pub fn read(&mut self, issue: Time, bytes: usize) -> DmaTiming {
        let (start, end) = self
            .from_host
            .reserve(issue + self.params.latency, self.rate.transfer(bytes));
        self.reads += 1;
        self.bytes += bytes as u64;
        DmaTiming {
            channel_start: start,
            channel_end: end,
            complete: end + self.params.latency,
        }
    }

    /// Reserve the host→NIC path for a cut-through send **fetch**: the NIC
    /// can start injecting while data streams in, so the payload is ready
    /// one latency after the channel drains (no second L).
    pub fn fetch(&mut self, issue: Time, bytes: usize) -> DmaTiming {
        let (start, end) = self.from_host.reserve(issue, self.rate.transfer(bytes));
        self.reads += 1;
        self.bytes += bytes as u64;
        DmaTiming {
            channel_start: start,
            channel_end: end,
            complete: end + self.params.latency,
        }
    }

    /// Reserve the NIC→host path for a **write** of `bytes` issued at
    /// `issue`. The issuing handler does not wait for `complete`;
    /// message-delivery DMA uses `complete` as the "data is in host memory"
    /// time (the paper adds "the DMA time ... when the NIC delivers data
    /// into host memory").
    pub fn write(&mut self, issue: Time, bytes: usize) -> DmaTiming {
        let (start, end) = self.to_host.reserve(issue, self.rate.transfer(bytes));
        self.writes += 1;
        self.bytes += bytes as u64;
        DmaTiming {
            channel_start: start,
            channel_end: end,
            complete: end + self.params.latency,
        }
    }

    /// An atomic round trip (CAS / fetch-add over the interconnect): like a
    /// small read — request L, 8-byte channel occupancy, response L.
    pub fn atomic(&mut self, issue: Time) -> DmaTiming {
        self.read(issue, 8)
    }

    /// Total bytes moved over the engine (both directions).
    pub fn bytes_total(&self) -> u64 {
        self.bytes
    }

    /// Reads/fetches issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Upper bound on when both directions are drained.
    pub fn next_free(&self) -> Time {
        self.from_host.horizon().max(self.to_host.horizon())
    }

    /// Busy time accumulated across both directions.
    pub fn busy_total(&self) -> Time {
        self.from_host.busy_total() + self.to_host.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_read_pays_two_latencies() {
        let mut d = DmaEngine::new(DmaParams::discrete());
        let t = d.read(Time::ZERO, 4096);
        // 250 ns out + ~59.6 ns data + 250 ns back ≈ 559.6 ns.
        assert!((t.complete.ns() - 559.6).abs() < 1.0, "{:?}", t);
    }

    #[test]
    fn fetch_pays_one_latency() {
        let mut d = DmaEngine::new(DmaParams::discrete());
        let t = d.fetch(Time::ZERO, 4096);
        // ~59.6 ns data + 250 ns ≈ 309.6 ns.
        assert!((t.complete.ns() - 309.6).abs() < 1.0, "{:?}", t);
    }

    #[test]
    fn integrated_is_faster() {
        let mut di = DmaEngine::new(DmaParams::integrated());
        let mut dd = DmaEngine::new(DmaParams::discrete());
        let ti = di.read(Time::ZERO, 4096);
        let td = dd.read(Time::ZERO, 4096);
        assert!(ti.complete < td.complete);
        // Integrated: 50 + ~25.4 + 50 ≈ 125.4 ns.
        assert!((ti.complete.ns() - 125.4).abs() < 1.0, "{:?}", ti);
    }

    #[test]
    fn write_completes_one_latency_after_channel() {
        let mut d = DmaEngine::new(DmaParams::integrated());
        let t = d.write(Time::ZERO, 4096);
        assert_eq!(t.channel_start, Time::ZERO);
        assert_eq!(t.complete, t.channel_end + Time::from_ns(50));
    }

    #[test]
    fn same_direction_requests_contend() {
        let mut d = DmaEngine::new(DmaParams::integrated());
        let a = d.write(Time::ZERO, 1 << 20);
        let b = d.write(Time::ZERO, 1 << 20);
        assert_eq!(b.channel_start, a.channel_end);
        // Two 1 MiB writes at 150 GiB/s keep the channel busy ~13 us total.
        assert!(
            (d.busy_total().us() - 13.02).abs() < 0.1,
            "{}",
            d.busy_total()
        );
    }

    #[test]
    fn directions_are_full_duplex() {
        let mut d = DmaEngine::new(DmaParams::discrete());
        let w = d.write(Time::ZERO, 1 << 16);
        let r = d.read(Time::ZERO, 1 << 16);
        // The read's data phase does not wait for the write channel.
        assert!(r.channel_start < w.channel_end);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.bytes_total(), 2 << 16);
    }

    #[test]
    fn late_issued_early_read_backfills() {
        let mut d = DmaEngine::new(DmaParams::integrated());
        // First (in issue order) a read far in the future...
        let far = d.read(Time::from_us(100), 4096);
        // ...then a read early in virtual time: it must not queue behind.
        let near = d.read(Time::ZERO, 4096);
        assert!(near.complete < far.channel_start);
    }

    #[test]
    fn atomic_is_a_small_round_trip() {
        let mut d = DmaEngine::new(DmaParams::discrete());
        let t = d.atomic(Time::ZERO);
        assert!((t.complete.ns() - 500.1).abs() < 1.0, "{:?}", t);
    }
}
