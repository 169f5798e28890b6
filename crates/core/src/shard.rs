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
//! transfer, and [`World::hand_off`] emits [`Ev::WireSend`]; the
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
//!
//! The three engines share one set-up and one wrap-up:
//! [`World::initial_events`] lists what is posted before time starts and
//! [`World::finish`] builds the report. The two sharded engines also share
//! [`replicas`], which builds the shard worlds, and [`compose`], which
//! folds them into one final world. Each engine is only its own loop:
//! serial's `run_with`, this module's window-and-merge, and
//! `crate::relaxed`'s exchange-and-round.

use crate::world::{Ev, SimBuilder, SimOutput, WirePolicy, World};
use spin_net::transfer::Network;
use spin_sim::engine::EventQueue;
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

/// One `World` replica per rank range, each with the wire policy `wire`
/// gives its range `[first, last)`, and with every program installed on
/// the replica that owns its rank.
pub(crate) fn replicas(
    builder: SimBuilder,
    ranges: &[(u32, u32)],
    wire: impl Fn(u32, u32) -> WirePolicy,
) -> Vec<World> {
    let SimBuilder { config, programs } = builder;
    let n = programs.len() as u32;
    let mut worlds: Vec<World> = ranges
        .iter()
        .map(|&(first, last)| {
            let mut world = World::new(config.clone(), n);
            world.wire = wire(first, last);
            world
        })
        .collect();
    let chunk = ranges[0].1 - ranges[0].0;
    for (i, p) in programs.into_iter().enumerate() {
        worlds[shard_of(i as u32, chunk)].nodes[i].host.program = Some(p);
    }
    worlds
}

/// Compose a sharded run's final world from its replicas (one per range of
/// `ranges`, which are contiguous and ascending): the first replica, with
/// each node taken from the replica that owns it, every replica's Gantt
/// lanes (disjoint ranks) merged, and `network` as its fabric, with every
/// replica's packet and byte counts folded in. Marks and values are the
/// engine's to merge.
pub(crate) fn compose(worlds: Vec<World>, ranges: &[(u32, u32)], mut network: Network) -> World {
    let mut replicas = worlds.into_iter().zip(ranges);
    let (mut world, &(_, last)) = replicas.next().expect("a sharded run has replicas");
    network.add_counters(&world.network);
    world.nodes.truncate(last as usize);
    for (replica, &(first, last)) in replicas {
        network.add_counters(&replica.network);
        world.gantt.merge(replica.gantt);
        let owned = replica.nodes.into_iter().take(last as usize);
        world.nodes.extend(owned.skip(first as usize));
    }
    world.network = network;
    world.wire = WirePolicy::Direct;
    world
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

/// Run `builder` on the sharded engine with `k ≥ 2` shards (clamped to
/// the node count).
pub(crate) fn run_sharded(builder: SimBuilder, k: usize) -> SimOutput {
    let n = builder.programs.len() as u32;
    // The ledger network replays every ingress reservation in global merge
    // order; it is also the authority for the lookahead.
    let mut ledger = builder.config.build_network(n);
    let delta = ledger.min_lookahead();
    assert!(
        delta > Time::ZERO,
        "sharded engine needs positive lookahead: the minimum inter-node \
         latency is zero (zero-latency links admit no conservative window)"
    );

    // Contiguous non-empty rank ranges (see `shard_ranges` for the
    // trailing-shard clamp).
    let ranges = shard_ranges(n, k);
    let chunk = ranges[0].1 - ranges[0].0;
    let worlds = replicas(builder, &ranges, |_, _| WirePolicy::Deferred);
    // Every replica compiled the identical fault plan from the shared
    // config, so any of them lists the initial events.
    let initial: Vec<(u32, Time, Ev)> = worlds[0].initial_events().collect();
    let mut shards: Vec<Shard> = worlds
        .into_iter()
        .map(|world| Shard {
            world,
            queue: ShardQueue::new(),
            scratch: EventQueue::new(),
            records: Vec::new(),
            temp_index: HashMap::new(),
            local_counter: 0,
        })
        .collect();
    // The initial events take the seqs the serial engine's queue gives
    // them: 1, 2, … in post order.
    let mut next_seq: u64 = 0;
    for (owner, at, ev) in initial {
        next_seq += 1;
        shards[shard_of(owner, chunk)].queue.push(at, next_seq, ev);
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

    // Every cross-node ingress replayed on the ledger exactly once; the
    // replicas counted only loopback transfers, the one send path that
    // stays entirely shard-local.
    let worlds = shards.into_iter().map(|shard| shard.world).collect();
    let mut world = compose(worlds, &ranges, ledger);
    world.marks = marks;
    world.values = values;
    world.finish(end_time, events_executed)
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
