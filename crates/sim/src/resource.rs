//! Reservation helpers for serialized and pooled resources.
//!
//! The machine model of the paper is full of resources that serialize work:
//! the NIC egress link (one packet at a time, gap g between them), the
//! matching unit (30 ns per header), the DMA engine (LogGP with a per-byte
//! gap), host memory bandwidth, and host CPU cores. All of them follow the
//! same "reserve the next free slot in virtual time" pattern, captured here.
//!
//! Reservations are made *in timestamp order of request* relative to the
//! event that issues them, which is the standard technique trace-driven
//! simulators like LogGOPSim use to model contention without simulating the
//! arbiter cycle by cycle.

use crate::time::{BytesPerTime, Time};

/// A resource that serves one job at a time (a link, a match unit, a DMA
/// channel). Jobs requested while busy queue up in virtual time.
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    next_free: Time,
    busy_total: Time,
    jobs: u64,
}

impl SerialResource {
    /// A resource idle since time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration`, starting no earlier than `earliest`.
    /// Returns the interval `(start, end)` that was granted.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
        let start = earliest.max(self.next_free);
        let end = start + duration;
        self.next_free = end;
        self.busy_total += duration;
        self.jobs += 1;
        (start, end)
    }

    /// When the resource next becomes idle.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization in `[0, 1]` given the makespan of the run.
    pub fn utilization(&self, makespan: Time) -> f64 {
        if makespan == Time::ZERO {
            0.0
        } else {
            self.busy_total.ps() as f64 / makespan.ps() as f64
        }
    }
}

/// A pool of `k` identical serial servers (HPU cores, host CPU cores).
/// Jobs take the earliest-available server; ties go to the lowest index so
/// schedules are deterministic.
#[derive(Debug, Clone)]
pub struct PooledResource {
    servers: Vec<SerialResource>,
}

impl PooledResource {
    /// A pool with `k` servers, all idle at time zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a resource pool needs at least one server");
        PooledResource {
            servers: vec![SerialResource::new(); k],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Reserve one server for `duration` starting no earlier than `earliest`.
    /// Returns `(server_index, start, end)`.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (usize, Time, Time) {
        let idx = self.earliest_server();
        let (start, end) = self.servers[idx].reserve(earliest, duration);
        (idx, start, end)
    }

    /// Index of the server that frees up first (lowest index on ties).
    pub fn earliest_server(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.next_free() < self.servers[best].next_free() {
                best = i;
            }
        }
        best
    }

    /// When the next server becomes free.
    pub fn next_free(&self) -> Time {
        self.servers[self.earliest_server()].next_free()
    }

    /// When a *specific* server becomes free.
    pub fn server_next_free(&self, idx: usize) -> Time {
        self.servers[idx].next_free()
    }

    /// Reserve a specific server (used when a handler is pinned to a core:
    /// "handlers may not migrate between HPUs while they are running", §3.2.2).
    pub fn reserve_on(&mut self, idx: usize, earliest: Time, duration: Time) -> (Time, Time) {
        self.servers[idx].reserve(earliest, duration)
    }

    /// Total busy time across servers.
    pub fn busy_total(&self) -> Time {
        self.servers.iter().map(|s| s.busy_total()).sum()
    }

    /// Jobs served across servers.
    pub fn jobs(&self) -> u64 {
        self.servers.iter().map(|s| s.jobs()).sum()
    }

    /// Mean utilization across servers over `makespan`.
    pub fn utilization(&self, makespan: Time) -> f64 {
        if makespan == Time::ZERO {
            return 0.0;
        }
        self.busy_total().ps() as f64 / (makespan.ps() as f64 * self.servers.len() as f64)
    }
}

/// A serial resource that back-fills gaps: a reservation takes the first
/// idle interval of sufficient length at or after `earliest`, rather than
/// queueing behind the latest reservation.
///
/// This matters when reservations are issued out of virtual-time order —
/// e.g. a handler computed early in event order reserves the DMA channel
/// far in the future (after its compute phase), and a handler computed
/// later needs the channel *earlier*. A plain [`SerialResource`] would
/// serialize them in issue order, inventing contention that a real FIFO
/// arbiter would never see.
#[derive(Debug, Clone, Default)]
pub struct IntervalResource {
    /// Busy intervals, sorted by start, non-overlapping.
    busy: Vec<(Time, Time)>,
    busy_total: Time,
    jobs: u64,
}

impl IntervalResource {
    /// An idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the first gap of `duration` starting at or after `earliest`.
    /// Returns the granted `(start, end)`.
    pub fn reserve(&mut self, earliest: Time, duration: Time) -> (Time, Time) {
        self.jobs += 1;
        self.busy_total += duration;
        if duration == Time::ZERO {
            return (earliest, earliest);
        }
        // Find the insertion region: first busy interval ending after
        // `earliest`.
        let mut cursor = earliest;
        let mut idx = self.busy.partition_point(|&(_, end)| end <= earliest);
        loop {
            let gap_end = self.busy.get(idx).map(|&(s, _)| s).unwrap_or(Time::MAX);
            let start = cursor.max(
                idx.checked_sub(1)
                    .map(|i| self.busy[i].1)
                    .unwrap_or(Time::ZERO),
            );
            if gap_end.saturating_sub(start) >= duration {
                let end = start + duration;
                self.busy.insert(idx, (start, end));
                self.coalesce_around(idx);
                return (start, end);
            }
            cursor = self.busy[idx].1;
            idx += 1;
        }
    }

    fn coalesce_around(&mut self, idx: usize) {
        // Merge with the next interval if adjacent.
        if idx + 1 < self.busy.len() && self.busy[idx].1 == self.busy[idx + 1].0 {
            let next_end = self.busy[idx + 1].1;
            self.busy[idx].1 = next_end;
            self.busy.remove(idx + 1);
        }
        // Merge with the previous interval if adjacent.
        if idx > 0 && self.busy[idx - 1].1 == self.busy[idx].0 {
            self.busy[idx - 1].1 = self.busy[idx].1;
            self.busy.remove(idx);
        }
    }

    /// Total busy time.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// The end of the last reservation (an upper bound on "next free").
    pub fn horizon(&self) -> Time {
        self.busy.last().map(|&(_, e)| e).unwrap_or(Time::ZERO)
    }
}

/// A bandwidth-serialized channel: moving `n` bytes occupies the channel for
/// `n * G` (plus an optional fixed latency the caller adds separately).
/// Models the DMA engine data path (§4.3) and host memory bandwidth (§4.2).
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    resource: SerialResource,
    rate: BytesPerTime,
    bytes_total: u64,
}

impl BandwidthChannel {
    /// A channel with the given per-byte rate.
    pub fn new(rate: BytesPerTime) -> Self {
        BandwidthChannel {
            resource: SerialResource::new(),
            rate,
            bytes_total: 0,
        }
    }

    /// The channel's configured rate.
    pub fn rate(&self) -> BytesPerTime {
        self.rate
    }

    /// Reserve the channel to move `bytes`, starting no earlier than
    /// `earliest`. Returns `(start, end)`; `end - start == bytes * G`.
    pub fn reserve(&mut self, earliest: Time, bytes: usize) -> (Time, Time) {
        self.bytes_total += bytes as u64;
        self.resource.reserve(earliest, self.rate.transfer(bytes))
    }

    /// When the channel next becomes idle.
    pub fn next_free(&self) -> Time {
        self.resource.next_free()
    }

    /// Total bytes moved (for memory-traffic reports, cf. §4.4.2's claim that
    /// sPIN halves host memory load vs. RDMA for accumulate).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Busy time accumulated.
    pub fn busy_total(&self) -> Time {
        self.resource.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::BytesPerTime;

    #[test]
    fn serial_resource_serializes() {
        let mut r = SerialResource::new();
        let (s1, e1) = r.reserve(Time::from_ns(0), Time::from_ns(10));
        let (s2, e2) = r.reserve(Time::from_ns(0), Time::from_ns(10));
        assert_eq!((s1, e1), (Time::from_ns(0), Time::from_ns(10)));
        assert_eq!((s2, e2), (Time::from_ns(10), Time::from_ns(20)));
        // A later request after the queue drained starts immediately.
        let (s3, _) = r.reserve(Time::from_ns(100), Time::from_ns(5));
        assert_eq!(s3, Time::from_ns(100));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_total(), Time::from_ns(25));
    }

    #[test]
    fn pool_spreads_load() {
        let mut p = PooledResource::new(2);
        let (i1, s1, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        let (i2, s2, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        let (i3, s3, _) = p.reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!((i1, s1), (0, Time::ZERO));
        assert_eq!((i2, s2), (1, Time::ZERO));
        // Third job queues behind the first server.
        assert_eq!((i3, s3), (0, Time::from_ns(10)));
    }

    #[test]
    fn pool_pinned_reservation() {
        let mut p = PooledResource::new(4);
        p.reserve_on(2, Time::ZERO, Time::from_ns(50));
        assert_eq!(p.server_next_free(2), Time::from_ns(50));
        assert_eq!(p.server_next_free(0), Time::ZERO);
        let (idx, _, _) = p.reserve(Time::ZERO, Time::from_ns(1));
        assert_eq!(idx, 0);
    }

    #[test]
    fn pool_utilization() {
        let mut p = PooledResource::new(2);
        p.reserve(Time::ZERO, Time::from_ns(10));
        p.reserve(Time::ZERO, Time::from_ns(10));
        assert!((p.utilization(Time::from_ns(10)) - 1.0).abs() < 1e-9);
        assert!((p.utilization(Time::from_ns(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn interval_resource_backfills_gaps() {
        let mut r = IntervalResource::new();
        // A "future" reservation first...
        let (s1, e1) = r.reserve(Time::from_ns(1000), Time::from_ns(100));
        assert_eq!((s1, e1), (Time::from_ns(1000), Time::from_ns(1100)));
        // ...must not block an earlier request that fits before it.
        let (s2, e2) = r.reserve(Time::from_ns(10), Time::from_ns(100));
        assert_eq!((s2, e2), (Time::from_ns(10), Time::from_ns(110)));
        // A request that does not fit in the gap goes after.
        let (s3, _) = r.reserve(Time::from_ns(950), Time::from_ns(200));
        assert_eq!(s3, Time::from_ns(1100));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_total(), Time::from_ns(400));
    }

    #[test]
    fn interval_resource_serializes_overlapping() {
        let mut r = IntervalResource::new();
        let mut ends = Vec::new();
        for _ in 0..10 {
            let (_, e) = r.reserve(Time::ZERO, Time::from_ns(10));
            ends.push(e);
        }
        // All requested at t=0: they stack back to back.
        assert_eq!(ends.last().copied(), Some(Time::from_ns(100)));
        assert_eq!(r.horizon(), Time::from_ns(100));
    }

    #[test]
    fn interval_resource_coalesces() {
        let mut r = IntervalResource::new();
        for i in 0..100u64 {
            r.reserve(Time::from_ns(i * 10), Time::from_ns(10));
        }
        // All adjacent: should have merged into one interval.
        assert_eq!(r.busy.len(), 1);
    }

    #[test]
    fn interval_resource_exact_fit() {
        let mut r = IntervalResource::new();
        r.reserve(Time::from_ns(0), Time::from_ns(10));
        r.reserve(Time::from_ns(20), Time::from_ns(10));
        // Exactly 10 ns gap at [10,20).
        let (s, e) = r.reserve(Time::ZERO, Time::from_ns(10));
        assert_eq!((s, e), (Time::from_ns(10), Time::from_ns(20)));
        assert_eq!(r.busy.len(), 1, "fully coalesced");
    }

    #[test]
    fn bandwidth_channel_accumulates_bytes() {
        // 64 GiB/s PCIe-4 x32 from §4.3.
        let mut c = BandwidthChannel::new(BytesPerTime::from_gib_per_sec(64.0));
        let (s, e) = c.reserve(Time::ZERO, 4096);
        assert_eq!(s, Time::ZERO);
        // 4096 B at 64 GiB/s ≈ 59.6 ns.
        assert!((e.ns() - 59.6).abs() < 0.2, "{e}");
        c.reserve(Time::ZERO, 4096);
        assert_eq!(c.bytes_total(), 8192);
        assert_eq!(c.next_free(), c.resource.next_free());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        PooledResource::new(0);
    }
}
