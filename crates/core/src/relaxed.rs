//! Relaxed sharded engine: pairwise horizons instead of a global window.
//!
//! The exact engine (`crate::shard`) buys bit-identity with two serial
//! costs per window: every shard advances to the *same* `T_min + δ` bound
//! (δ = the closest pair anywhere in the fabric), and every cross-shard
//! packet funnels through one coordinator that replays ingress
//! reservations in global merge order. This module removes both, in the
//! classic Chandy–Misra conservative style:
//!
//! * **Pairwise lookahead.** For each directed shard pair `p → s`,
//!   δ(p→s) = [`Network::pair_lookahead`] — the closest *inter-range*
//!   route. Far-apart shards promise each other far wider horizons than
//!   the single global δ.
//! * **Per-pair mailboxes.** Cross-span packets park in the producer's
//!   [`World::outbox`] and are delivered at exchange points into the
//!   consumer's [`Mailbox`] for that pair, together with a null-message
//!   **horizon**: producer `p`'s earliest possible future dispatch time
//!   plus δ(p→s). Horizons are computed by a Bellman-Ford-style fixpoint
//!   (a shard with no work inherits its bound from its own inbound
//!   horizons, so promises chain through idle shards).
//! * **Shard-local ingress.** Each shard's replica network is the
//!   authoritative ledger *partition* for its own nodes' ingress ports,
//!   self-queues, and egress links — a consuming shard charges the incast
//!   reservation of an inbound packet itself, when it dispatches the
//!   [`Ev::WireSend`] through [`World::hand_off`], with no global replay.
//!
//! Each round, shard `s` drains its inbound mailboxes into its own event
//! queue and executes everything strictly below
//! `safe_s = min_p h(p→s)`: every producer has promised not to deliver
//! below its horizon, so those events can never be contradicted. The
//! globally earliest pending event always lies below its owner's `safe`
//! (all promises exceed it by at least one positive δ), so every round
//! makes progress — no null-message-only rounds, no deadlock.
//!
//! What is given up: the serial engine's *tie-break order*. Ingress
//! contention at a consumer resolves in packet-head order rather than in
//! global send-dispatch order, so same-instant incast can resolve
//! differently and end-to-end times can shift by sub-occupancy amounts.
//! The count-stable view (`delivery_digest`: event count, fabric totals,
//! marks, values and integer per-node statistics) equals serial's only
//! where that order decides nothing: runs with no flow-control event, no
//! recovery, no fault and no value derived from simulated time. Outside
//! that scope a tie can flip an outcome — a put that reaches a target
//! before the target's `me_append` takes effect disables the portal table
//! entry — and recovery counters and time-derived values move with it.
//! `tests/shard_relaxed.rs` pins the contract on random traffic and
//! `crates/scenario/tests/corpus.rs` on every corpus file in scope. Runs
//! are still deterministic for a fixed `(world, k)` — exchanges are serial
//! and mailbox merges are keyed `(head, producer, counter)` — they are
//! just not bit-identical to serial. A round's shards run on scoped
//! threads, at most one per core (`crate::shard::for_each_shard`), and
//! which thread runs a shard changes nothing.
//!
//! Set-up and wrap-up are shared with the other engines
//! ([`World::initial_events`], `crate::shard::replicas`,
//! `crate::shard::compose` and [`World::finish`]); this module is only the
//! exchange-and-round loop.

use crate::shard::{compose, cores, for_each_shard, replicas, shard_of, shard_ranges};
use crate::world::{Ev, SimBuilder, SimOutput, WirePolicy, World};
use spin_portals::types::Packet;
use spin_sim::engine::EventQueue;
use spin_sim::mailbox::Mailbox;
use spin_sim::time::Time;

/// `a + b`, saturating at [`Time::MAX`] (horizons of drained shards chain
/// toward infinity; they must not wrap).
fn sat_add(a: Time, b: Time) -> Time {
    Time::from_ps(a.ps().saturating_add(b.ps()))
}

/// A cross-shard packet in flight: destination rank + payload.
type WireMsg = (u32, Box<Packet>);

/// One shard of the relaxed engine: a full `World` replica (authoritative
/// for the owned rank range — nodes, ingress ports, self-queues, egress
/// links), its own event queue, and one inbound mailbox per producer
/// shard.
struct RShard {
    world: World,
    queue: EventQueue<Ev>,
    /// Inbound mailboxes, indexed by producer shard; the self slot is
    /// never delivered to or consulted.
    inbound: Vec<Mailbox<WireMsg>>,
    /// This shard's own index (to skip the self slot).
    index: usize,
    /// Packets drained from the mailboxes, each of which becomes exactly
    /// one [`Ev::WireSend`] dispatch. The serial engine has no such events
    /// — it charges cross-node ingress inside the send dispatch — so the
    /// report subtracts them to keep `events_executed` comparable.
    wire_sends: u64,
}

impl RShard {
    /// The earliest *locally known* work in this shard: queued event or
    /// undrained inbound packet. This anchors the horizon fixpoint — the
    /// chain terms (work that could still arrive from other shards) are
    /// added by Bellman-Ford relaxation over the δ matrix, not read back
    /// from the horizons being computed.
    fn anchor(&self) -> Time {
        let queued = self.queue.peek_time().unwrap_or(Time::MAX);
        self.inbound
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != self.index)
            .filter_map(|(_, mb)| mb.pending_min())
            .fold(queued, Time::min)
    }

    /// Whether this shard has nothing left to do.
    fn is_drained(&self) -> bool {
        self.queue.peek_time().is_none() && self.inbound.iter().all(Mailbox::is_empty)
    }

    /// One round: drain every inbound mailbox into the event queue
    /// (delivered packets are committed — execution order within the shard
    /// is by time, so they merge with local events naturally), then
    /// execute everything strictly below this round's safe bound.
    fn run_round(&mut self) {
        let mut incoming: Vec<(Time, usize, u64, WireMsg)> = Vec::new();
        let mut tmp: Vec<(Time, u64, WireMsg)> = Vec::new();
        for (p, mb) in self.inbound.iter_mut().enumerate() {
            mb.drain_into(&mut tmp);
            incoming.extend(tmp.drain(..).map(|(t, c, m)| (t, p, c, m)));
        }
        // Deterministic cross-pair merge: time order, producer index and
        // per-mailbox FIFO counter as tie-breaks.
        incoming.sort_by_key(|a| (a.0, a.1, a.2));
        self.wire_sends += incoming.len() as u64;
        for (head, _, _, (dst, pkt)) in incoming {
            // head ≥ the pair's horizon at delivery time ≥ every earlier
            // safe bound this shard executed under, so this never posts
            // into the past.
            self.queue.post_at(head, Ev::WireSend(dst, pkt));
        }
        let safe = self
            .inbound
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != self.index)
            .map(|(_, mb)| mb.floor())
            .min()
            .expect("relaxed engine runs with at least two shards");
        let RShard { world, queue, .. } = self;
        while queue.peek_time().is_some_and(|t| t < safe) {
            let (now, ev) = queue.pop_next().expect("peek_time was Some");
            world.dispatch(queue, now, ev);
        }
    }
}

/// Run `builder` on the relaxed pairwise-horizon engine with `k ≥ 2`
/// shards (clamped to the node count).
pub(crate) fn run_relaxed(builder: SimBuilder, k: usize) -> SimOutput {
    let n = builder.programs.len() as u32;
    let ranges = shard_ranges(n, k);
    let k_eff = ranges.len();
    let chunk = ranges[0].1 - ranges[0].0;
    // A fresh fabric instance answers the pairwise-lookahead queries (it is
    // never reserved against) and becomes the final composed world's
    // network. Every fault effect *adds* latency or drops, never lowers a
    // route below its base, so these horizons stay sound under any fault
    // plan the compiler accepts.
    let probe = builder.config.build_network(n);
    let mut delta = vec![vec![Time::ZERO; k_eff]; k_eff];
    for (s, &(sf, sl)) in ranges.iter().enumerate() {
        for (j, &(jf, jl)) in ranges.iter().enumerate() {
            if s == j {
                continue;
            }
            let d = probe.pair_lookahead(sf..sl, jf..jl);
            assert!(
                d > Time::ZERO,
                "relaxed sharded engine needs positive lookahead: the minimum \
                 latency between shards {s} and {j} is zero (zero-latency \
                 links admit no conservative horizon)"
            );
            delta[s][j] = d;
        }
    }

    let worlds = replicas(builder, &ranges, |first, last| WirePolicy::Relaxed {
        first,
        last,
    });
    let initial: Vec<(u32, Time, Ev)> = worlds[0].initial_events().collect();
    let mut shards: Vec<RShard> = worlds
        .into_iter()
        .enumerate()
        .map(|(s, world)| RShard {
            world,
            queue: EventQueue::new(),
            // Initial promise of producer p: it has dispatched nothing
            // yet, so nothing can arrive before δ(p→s).
            inbound: (0..k_eff).map(|p| Mailbox::new(delta[p][s])).collect(),
            index: s,
            wire_sends: 0,
        })
        .collect();
    for (owner, at, ev) in initial {
        shards[shard_of(owner, chunk)].queue.post_at(at, ev);
    }

    let threads = cores();
    let mut executed_before: u64 = 0;
    loop {
        // Exchange, part 1 — deliver: move every parked cross-span packet
        // into its consumer's mailbox for the producing pair. Serial, so
        // mailbox counters (the FIFO tie-break) are deterministic.
        let mut deliveries: Vec<(usize, Time, u32, Box<Packet>)> = Vec::new();
        for (s, shard) in shards.iter_mut().enumerate() {
            deliveries.extend(
                shard
                    .world
                    .outbox
                    .drain(..)
                    .map(|(head, dst, pkt)| (s, head, dst, pkt)),
            );
        }
        for (s, head, dst, pkt) in deliveries {
            let j = shard_of(dst, chunk);
            debug_assert_ne!(j, s, "in-span packets never reach the outbox");
            shards[j].inbound[s].deliver(head, (dst, pkt));
        }

        if shards.iter().all(RShard::is_drained) {
            break;
        }

        // Exchange, part 2 — horizon fixpoint. `bound_s` = the earliest
        // possible future dispatch in shard s: either locally known work
        // (its anchor) or work that could still chain in from another
        // shard (`bound_p + δ(p→s)`). That recurrence is a shortest-path
        // problem from the anchors over the δ matrix, so Bellman-Ford
        // relaxation — initialized *at* the anchors and only ever lowering
        // values — converges in at most k-1 passes. (Iterating the promise
        // form upward instead would creep one δ per pass: the classic
        // null-message stall.)
        let mut bounds: Vec<Time> = shards.iter().map(RShard::anchor).collect();
        for _ in 1..k_eff {
            let mut changed = false;
            for s in 0..k_eff {
                for j in 0..k_eff {
                    if s == j {
                        continue;
                    }
                    let via = sat_add(bounds[s], delta[s][j]);
                    if via < bounds[j] {
                        bounds[j] = via;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Publish the promises: no packet from s can reach j before
        // bound_s + δ(s→j). Bounds are nondecreasing across rounds, but a
        // fresh value can tie an old promise — only strict advances move
        // the mailbox horizon.
        for s in 0..k_eff {
            for j in 0..k_eff {
                if s == j {
                    continue;
                }
                let h = sat_add(bounds[s], delta[s][j]);
                if h > shards[j].inbound[s].horizon() {
                    shards[j].inbound[s].advance_horizon(h);
                }
            }
        }

        // Parallel phase: every shard drains its mailboxes and executes up
        // to its own safe bound — no global window, no coordinator.
        for_each_shard(&mut shards, threads, RShard::run_round);

        let executed_now: u64 = shards.iter().map(|s| s.queue.executed()).sum();
        assert!(
            executed_now > executed_before,
            "relaxed engine stalled: no shard executed an event this round"
        );
        executed_before = executed_now;
    }

    let mut marks: Vec<(u32, String, Time)> = Vec::new();
    let mut values: Vec<(u32, String, f64)> = Vec::new();
    let mut events_executed: u64 = 0;
    let mut end_time = Time::ZERO;
    for shard in &mut shards {
        events_executed += shard.queue.executed() - shard.wire_sends;
        end_time = end_time.max(shard.queue.now());
        marks.append(&mut shard.world.marks);
        values.append(&mut shard.world.values);
    }
    // Shards appended their marks in local execution (= time) order; a
    // stable sort by time merges them into a global time order with
    // shard-index tie-breaks — deterministic, though same-time ties may
    // order differently than the serial trace.
    marks.sort_by_key(|&(_, _, t)| t);
    // Each packet was counted exactly once, on the replica owning its
    // destination (or its self-queue); `probe` counted none.
    let worlds = shards.into_iter().map(|shard| shard.world).collect();
    let mut world = compose(worlds, &ranges, probe);
    world.marks = marks;
    world.values = values;
    world.finish(end_time, events_executed)
}
