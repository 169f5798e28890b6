//! Sharded conservative-parallel engine.
//!
//! The serial engine in [`SimBuilder::run_serial`] dispatches one global
//! `(time, seq)`-ordered queue. This module partitions the world into `k`
//! shards of contiguous node ranges, each owning its nodes' full state and
//! its own pending-event queue, and executes them in parallel under the
//! classic conservative-PDES window rule:
//!
//! > Let δ be the minimum zero-load latency between any two distinct
//! > endpoints ([`Network::min_lookahead`]). A packet dispatched at time
//! > `t` cannot reach another node's ingress port before `t + δ`, so all
//! > events in the half-open window `[T_min, T_min + δ)` — where `T_min`
//! > is the global minimum pending time — are causally independent across
//! > shards and may run concurrently.
//!
//! Everything a dispatch does is node-local except one thing: reserving the
//! *destination* ingress link of a cross-node packet (incast contention is
//! global state). The shard therefore runs only the egress half of the
//! transfer ([`World::deferred_wire`]) and emits [`Ev::WireSend`]; the
//! coordinator replays the ingress half on its **ledger network** during the
//! serial merge, in exactly the order the serial engine would have.
//!
//! # Bit-identical by construction
//!
//! The merge does not approximate the serial order — it reconstructs it.
//! Every dispatch is recorded with the posts it made (in call order); the
//! coordinator replays records in global `(time, seq)` order, handing each
//! post the next global sequence number, exactly as the serial engine's
//! shared queue counter would have. Events that were executed inside the
//! window under a shard-temporary key get their global seq assigned
//! retroactively; events still pending are re-keyed in place
//! ([`ShardQueue::rekey`]). The result: the same events, at the same times,
//! in the same global order, with the same tie-breaks — so reports, marks,
//! clocks, and memory contents are byte-identical at any shard count,
//! including `k = 1` (which short-circuits to the serial engine).
//!
//! The shards of a window run on `std::thread::scope` threads, at most one
//! per core ([`for_each_shard`]); which thread runs a shard changes no
//! result.

use crate::world::{Ev, Node, NodeStats, Report, SimBuilder, SimOutput, WirePolicy, World};
use spin_sim::engine::EventQueue;
use spin_sim::gantt::Gantt;
use spin_sim::shard::ShardQueue;
use spin_sim::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Tag bit of window-temporary event keys. Global sequence numbers stay
/// below it, so at equal times every temp-keyed (newly posted) event sorts
/// after every event that already holds a global seq — the same relative
/// order the serial queue's monotonic counter produces.
const LOCAL_BIT: u64 = 1 << 63;

/// What one dispatch posted, in call order.
enum PostRef {
    /// An own-node event, parked in the shard queue under `temp_key`.
    Local { time: Time, temp_key: u64 },
    /// A cross-node packet: egress already charged, ingress deferred to
    /// the coordinator's ledger. `head` is when the packet head reaches
    /// `dst`'s ingress port.
    Wire {
        dst: u32,
        head: Time,
        pkt: Box<spin_portals::types::Packet>,
    },
}

/// One dispatch executed inside the current window.
struct Record {
    time: Time,
    /// Key the event was popped under: a global seq, or `LOCAL_BIT`-tagged.
    key: u64,
    posts: Vec<PostRef>,
    /// Ranges into the shard world's mark/value logs covering exactly what
    /// this dispatch appended.
    marks: (usize, usize),
    values: (usize, usize),
}

/// One shard: a full `World` replica (authoritative only for the owned
/// contiguous rank range), its pending queue, and the window scratchpad.
struct Shard {
    world: World,
    queue: ShardQueue<Ev>,
    /// Reused per dispatch purely to collect its posts (`drain_posts`).
    scratch: EventQueue<Ev>,
    /// Owned ranks `[first, last)`.
    first: u32,
    last: u32,
    records: Vec<Record>,
    /// temp_key → index into `records`, for posts executed this window.
    temp_index: HashMap<u64, usize>,
    local_counter: u64,
}

impl Shard {
    /// Execute every pending event with `time < window_end`, recording each
    /// dispatch and parking its posts under window-temporary keys.
    fn run_window(&mut self, window_end: Time) {
        // Temp keys reset each window: after a merge every pending event
        // carries a global seq, so no stale temp key can survive into here.
        self.local_counter = 0;
        self.temp_index.clear();
        self.records.clear();
        while self.queue.min_time().is_some_and(|t| t < window_end) {
            let (time, key, ev) = self.queue.pop_first().expect("min_time was Some");
            let marks_start = self.world.marks.len();
            let values_start = self.world.values.len();
            self.scratch.restart_at(time);
            self.world.dispatch(&mut self.scratch, time, ev);
            let mut posts = Vec::new();
            for (at, post) in self.scratch.drain_posts() {
                match post {
                    Ev::WireSend(dst, pkt) => posts.push(PostRef::Wire { dst, head: at, pkt }),
                    own => {
                        self.local_counter += 1;
                        let temp_key = LOCAL_BIT | self.local_counter;
                        self.queue.push(at, temp_key, own);
                        posts.push(PostRef::Local { time: at, temp_key });
                    }
                }
            }
            if key & LOCAL_BIT != 0 {
                self.temp_index.insert(key, self.records.len());
            }
            self.records.push(Record {
                time,
                key,
                posts,
                marks: (marks_start, self.world.marks.len()),
                values: (values_start, self.world.values.len()),
            });
        }
    }
}

/// Shard index owning rank `rank` for chunk size `chunk`.
pub(crate) fn shard_of(rank: u32, chunk: u32) -> usize {
    (rank / chunk) as usize
}

/// Contiguous rank ranges `[first, last)` of `chunk = ceil(n / min(k, n))`
/// nodes per shard — with the shard count clamped to the number of
/// *non-empty* ranges. Plain ceil-division can strand trailing shards with
/// nothing to own (n=12, k=8 → chunk=2 → shards 6 and 7 would start past
/// rank 11); those shards would still pay a full n-node `World` replica and
/// run every window, so they must never be constructed.
pub(crate) fn shard_ranges(n: u32, k: usize) -> Vec<(u32, u32)> {
    assert!(n > 0, "a simulation needs at least one node");
    assert!(k > 0, "shard count must be positive");
    let chunk = n.div_ceil(k.min(n as usize) as u32);
    let k_eff = n.div_ceil(chunk);
    let ranges: Vec<(u32, u32)> = (0..k_eff)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(n)))
        .collect();
    for &(first, last) in &ranges {
        assert!(first < last, "empty shard constructed: [{first}, {last})");
    }
    ranges
}

/// Threads a sharded run spreads its shards over: one per core. A run
/// reads it once, not per window.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `f` on every shard, spread over at most `threads` threads: the
/// shards split into contiguous chunks, every chunk but the first runs on a
/// scoped thread of its own, and the first on the calling thread.
pub(crate) fn for_each_shard<S: Send>(shards: &mut [S], threads: usize, f: impl Fn(&mut S) + Sync) {
    let per_thread = shards.len().div_ceil(threads.max(1)).max(1);
    let mut chunks = shards.chunks_mut(per_thread);
    let first = chunks.next();
    let f = &f;
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(move || chunk.iter_mut().for_each(f));
        }
        first.into_iter().flatten().for_each(f);
    });
}

/// Run `builder` on the sharded engine with (up to) `k` shards.
pub(crate) fn run_sharded(builder: SimBuilder, k: usize) -> SimOutput {
    let n = builder.programs.len() as u32;
    assert!(n > 0, "a simulation needs at least one node");
    let k_eff = k.min(n as usize) as u32;
    if k_eff <= 1 {
        return builder.run_serial();
    }
    let SimBuilder { config, programs } = builder;

    // The ledger network replays every ingress reservation in global merge
    // order; it is also the authority for fabric-wide packet/byte counters
    // and the lookahead.
    let mut ledger = config.build_network(n);
    let delta = ledger.min_lookahead();
    assert!(
        delta > Time::ZERO,
        "sharded engine needs positive lookahead: the minimum inter-node \
         latency is zero (zero-latency links admit no conservative window)"
    );

    // Contiguous non-empty rank ranges (see `shard_ranges` for the
    // trailing-shard clamp).
    let ranges = shard_ranges(n, k_eff as usize);
    let chunk = ranges[0].1 - ranges[0].0;
    let mut shards: Vec<Shard> = Vec::with_capacity(ranges.len());
    for &(first, last) in &ranges {
        let mut world = World::new(config.clone(), n);
        world.wire = WirePolicy::Deferred;
        shards.push(Shard {
            world,
            queue: ShardQueue::new(),
            scratch: EventQueue::new(),
            first,
            last,
            records: Vec::new(),
            temp_index: HashMap::new(),
            local_counter: 0,
        });
    }
    for (i, p) in programs.into_iter().enumerate() {
        let s = shard_of(i as u32, chunk);
        shards[s].world.nodes[i].host.program = Some(p);
    }
    // Seed Start events exactly as the serial engine does: seqs 1..=n.
    let mut next_seq: u64 = 0;
    for i in 0..n {
        next_seq += 1;
        shards[shard_of(i, chunk)]
            .queue
            .push(Time::ZERO, next_seq, Ev::Start(i));
    }
    // Seed the fault schedule with the same seqs the serial engine assigns
    // (continuing after the Starts). Crash/restart events go to the shard
    // owning the node — its replica is the authority for that node's state,
    // and events addressed to the node only ever appear in its queue. The
    // dispatch no-op kinds go to shard 0: they still must *execute*
    // somewhere exactly once so `events_executed` and `end_time` match the
    // serial engine byte-for-byte (their effects are plan-static queries
    // every replica answers identically).
    if let Some(faults) = shards[0].world.faults.clone() {
        // Every replica compiled the identical plan from the shared
        // config, so event index `i` means the same event in all of them.
        for (i, ev) in faults.events().iter().enumerate() {
            next_seq += 1;
            let owner = match ev.kind {
                crate::fault::FaultKind::NodeCrash { node }
                | crate::fault::FaultKind::NodeRestart { node } => shard_of(node, chunk),
                _ => 0,
            };
            shards[owner]
                .queue
                .push(ev.at, next_seq, Ev::Fault(i as u32));
        }
    }

    let mut events_executed: u64 = 0;
    let mut end_time = Time::ZERO;
    let mut marks: Vec<(u32, String, Time)> = Vec::new();
    let mut values: Vec<(u32, String, f64)> = Vec::new();
    let threads = cores();

    // Conservative window loop: each iteration runs [T_min, T_min + δ).
    while let Some(t_min) = shards.iter().filter_map(|s| s.queue.min_time()).min() {
        let window_end = t_min + delta;

        // Parallel phase: shards execute their slice of the window
        // independently; cross-shard effects are parked as WireSend posts.
        for_each_shard(&mut shards, threads, |shard| shard.run_window(window_end));

        // Serial merge: replay records in global (time, seq) order,
        // assigning each post the next global sequence number — the exact
        // bookkeeping the serial engine's shared queue performs at
        // dispatch time.
        let mut heap: BinaryHeap<Reverse<(Time, u64, usize, usize)>> = BinaryHeap::new();
        for (si, shard) in shards.iter().enumerate() {
            for (idx, rec) in shard.records.iter().enumerate() {
                if rec.key & LOCAL_BIT == 0 {
                    heap.push(Reverse((rec.time, rec.key, si, idx)));
                }
            }
        }
        while let Some(Reverse((time, _seq, si, idx))) = heap.pop() {
            events_executed += 1;
            end_time = time;
            {
                let shard = &shards[si];
                let (a, b) = shard.records[idx].marks;
                marks.extend_from_slice(&shard.world.marks[a..b]);
                let (a, b) = shard.records[idx].values;
                values.extend_from_slice(&shard.world.values[a..b]);
            }
            let posts = std::mem::take(&mut shards[si].records[idx].posts);
            for post in posts {
                next_seq += 1;
                match post {
                    PostRef::Wire { dst, head, pkt } => {
                        let bytes = pkt.payload.len();
                        let arrival = ledger.ingress_phase(head, dst, bytes);
                        shards[shard_of(dst, chunk)].queue.push(
                            arrival,
                            next_seq,
                            Ev::PacketArrive(dst, pkt),
                        );
                    }
                    PostRef::Local { time, temp_key } => {
                        if let Some(&ridx) = shards[si].temp_index.get(&temp_key) {
                            // Executed inside this window: it now owns its
                            // global seq; replay it from here.
                            heap.push(Reverse((time, next_seq, si, ridx)));
                        } else {
                            // Still pending (necessarily ≥ window_end):
                            // upgrade its key in place.
                            shards[si].queue.rekey(time, temp_key, next_seq);
                        }
                    }
                }
            }
        }
    }

    // Compose the final world from the authoritative slice of each shard
    // (ranges are contiguous and ascending), the ledger network, and the
    // per-shard Gantt recorders (disjoint ranks). The fabric counters are
    // the ledger's (every cross-node ingress replays there exactly once)
    // plus the shard replicas' — which only ever count loopback transfers,
    // the one send path that stays entirely shard-local.
    let mut nodes: Vec<Node> = Vec::with_capacity(n as usize);
    let mut gantt = Gantt::disabled();
    let mut loopback_packets = 0u64;
    let mut loopback_bytes = 0u64;
    let faults = shards[0].world.faults.take();
    for shard in shards {
        let (first, last) = (shard.first as usize, shard.last as usize);
        loopback_packets += shard.world.network.packets_sent();
        loopback_bytes += shard.world.network.bytes_sent();
        gantt.merge(shard.world.gantt);
        nodes.extend(shard.world.nodes.into_iter().skip(first).take(last - first));
    }
    let report = Report {
        end_time,
        events_executed,
        marks,
        values,
        node_stats: nodes.iter().map(NodeStats::of).collect(),
        net_packets: ledger.packets_sent() + loopback_packets,
        net_bytes: ledger.bytes_sent() + loopback_bytes,
        links_downed_ns: faults.as_ref().map_or(0, |f| f.downtime_ns(end_time)),
    };
    let world = World {
        config,
        network: ledger,
        nodes,
        faults,
        gantt,
        marks: Vec::new(),
        values: Vec::new(),
        link_rngs: HashMap::new(),
        wire: WirePolicy::Direct,
        outbox: Vec::new(),
        wire_dispatches: 0,
    };
    SimOutput { report, world }
}

#[cfg(test)]
mod tests {
    use super::shard_ranges;

    #[test]
    fn shard_ranges_never_constructs_an_empty_shard() {
        // The ISSUE case: n=12, k=8 → chunk=2 → only 6 shards exist.
        assert_eq!(
            shard_ranges(12, 8),
            vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12)]
        );
        // k > n clamps to one node per shard.
        assert_eq!(shard_ranges(3, 64), vec![(0, 1), (1, 2), (2, 3)]);
        // Uneven tail keeps its remainder but stays non-empty.
        assert_eq!(shard_ranges(7, 3), vec![(0, 3), (3, 6), (6, 7)]);
        // Exhaustive small sweep: ranges tile [0, n) and are all non-empty.
        for n in 1..=40u32 {
            for k in 1..=40usize {
                let ranges = shard_ranges(n, k);
                assert!(ranges.len() <= k && ranges.len() <= n as usize);
                let mut next = 0u32;
                for (first, last) in ranges {
                    assert_eq!(first, next, "n={n} k={k}");
                    assert!(first < last, "n={n} k={k}");
                    next = last;
                }
                assert_eq!(next, n, "n={n} k={k}");
            }
        }
    }
}
