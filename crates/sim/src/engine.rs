//! The discrete-event engine.
//!
//! A minimal, deterministic event core in the style of LogGOPSim's central
//! queue: events are `(time, seq, payload)` triples ordered by time with a
//! monotonically increasing sequence number as tie-break, so same-time events
//! execute in insertion order and every simulation is reproducible.
//!
//! The engine is generic over the event payload `E`. Dispatch happens
//! through a closure ([`Engine::run_with`]) so that the crate that owns the
//! world — `spin-core` — can match on its own event enum without this crate
//! knowing anything about NICs or hosts.
//!
//! Pending events live in the standard-library `BinaryHeap` (O(log n)
//! post/pop), ordered by one packed `u128` key, `(time_ps << 64) | seq`.
//! Both halves are `u64`, so key order is exactly `(time, seq)` order and
//! each heap comparison is a single compare.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a particular simulated time.
#[derive(Debug)]
struct Scheduled<E> {
    /// `(time_ps << 64) | seq`: ascending key order is `(time, seq)` order.
    key: u128,
    event: E,
}

impl<E> Scheduled<E> {
    fn new(time: Time, seq: u64, event: E) -> Self {
        Scheduled {
            key: (u128::from(time.ps()) << 64) | u128::from(seq),
            event,
        }
    }

    fn time(&self) -> Time {
        Time::from_ps((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// A time-ordered queue of pending events.
///
/// This is the part of the engine that event handlers get mutable access to
/// while an event is being dispatched, so handlers can post follow-up events.
#[derive(Debug)]
pub struct EventQueue<E> {
    pending: BinaryHeap<Scheduled<E>>,
    now: Time,
    seq: u64,
    executed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            pending: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            executed: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the event being dispatched,
    /// or of the last dispatched event between dispatches).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time — scheduling into the past
    /// is always a model bug and silent reordering would corrupt causality.
    pub fn post_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        self.seq += 1;
        self.pending.push(Scheduled::new(at, self.seq, event));
    }

    /// Schedule `event` after a `delay` relative to now.
    #[inline]
    pub fn post_in(&mut self, delay: Time, event: E) {
        self.post_at(self.now + delay, event);
    }

    /// Schedule `event` at the current time (after all other events already
    /// queued for this instant).
    #[inline]
    pub fn post_now(&mut self, event: E) {
        self.post_at(self.now, event);
    }

    /// Remove and return the next `(time, seq)`-ordered event, advancing
    /// the clock to its timestamp. Public so steppers can single-step a
    /// queue outside an [`Engine`] run loop.
    pub fn pop_next(&mut self) -> Option<(Time, E)> {
        let s = self.pending.pop()?;
        let time = s.time();
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        Some((time, s.event))
    }

    /// Reset the clock to `t` so the queue can be reused as a scratch
    /// post-buffer for the next dispatch (the sharded engine hands one
    /// scratch queue to `dispatch` per event and drains it afterwards).
    /// The queue must be empty and `t` must not move the clock backwards —
    /// both would mean posts from one dispatch leaked into another.
    pub fn restart_at(&mut self, t: Time) {
        assert!(
            self.pending.is_empty(),
            "restart_at on a non-empty queue ({} pending)",
            self.pending.len()
        );
        assert!(
            t >= self.now,
            "restart_at moving backwards: t={t:?} now={:?}",
            self.now
        );
        self.now = t;
    }

    /// Drain every pending event in **post-call order** (ascending internal
    /// sequence number), leaving the queue empty. The clock and executed
    /// count are untouched: nothing is being dispatched — the caller (the
    /// sharded engine) is collecting the posts one dispatch produced so it
    /// can sequence them globally itself.
    pub fn drain_posts(&mut self) -> Vec<(Time, E)> {
        let mut posts: Vec<_> = self.pending.drain().collect();
        posts.sort_unstable_by_key(Scheduled::seq);
        posts.into_iter().map(|s| (s.time(), s.event)).collect()
    }

    /// The earliest pending timestamp, if any (the clock does not move).
    pub fn peek_time(&self) -> Option<Time> {
        self.pending.peek().map(Scheduled::time)
    }
}

/// The simulation driver: owns the queue and runs it to quiescence.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    /// Safety valve: abort after this many events (0 = unlimited). Protects
    /// tests against accidental event storms (e.g. a retransmit loop).
    pub max_events: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine {
            queue: EventQueue::new(),
            max_events: 0,
        }
    }
}

impl<E> Engine<E> {
    /// A fresh engine with no event limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine that panics after `max_events` dispatches.
    pub fn with_limit(max_events: u64) -> Self {
        Engine {
            max_events,
            ..Self::default()
        }
    }

    /// Access the queue (e.g. to seed initial events before running).
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Events executed.
    pub fn executed(&self) -> u64 {
        self.queue.executed()
    }

    /// Run until the queue is empty, dispatching through a closure.
    /// Returns the time of the last executed event.
    pub fn run_with(&mut self, mut f: impl FnMut(&mut EventQueue<E>, Time, E)) -> Time {
        while let Some((now, ev)) = self.queue.pop_next() {
            f(&mut self.queue, now, ev);
            if self.max_events != 0 && self.queue.executed() > self.max_events {
                panic!(
                    "event limit exceeded ({} events executed, {} pending) — runaway simulation?",
                    self.queue.executed(),
                    self.queue.pending()
                );
            }
        }
        self.queue.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two largest representable times: they fill the key's top 64
    /// bits, so any overlap between the packed time and seq would show.
    const TOP: Time = Time::MAX;
    const BELOW_TOP: Time = Time::from_ps(u64::MAX - 1);

    #[test]
    fn events_execute_in_time_order() {
        let mut engine = Engine::new();
        engine.queue_mut().post_at(TOP, 5u32);
        engine.queue_mut().post_at(Time::from_ns(30), 3);
        engine.queue_mut().post_at(BELOW_TOP, 4);
        engine.queue_mut().post_at(Time::from_ns(10), 1);
        engine.queue_mut().post_at(Time::from_ns(20), 2);
        let mut seen = Vec::new();
        engine.run_with(|_, now, ev| seen.push((now, ev)));
        assert_eq!(
            seen,
            vec![
                (Time::from_ns(10), 1),
                (Time::from_ns(20), 2),
                (Time::from_ns(30), 3),
                (BELOW_TOP, 4),
                (TOP, 5),
            ]
        );
    }

    #[test]
    fn same_time_events_are_fifo() {
        // Three instants posted interleaved, latest first: each instant's
        // events dispatch in post order, including at the top of the range.
        let mut engine = Engine::new();
        for i in 0..100u32 {
            for t in [TOP, BELOW_TOP, Time::from_ns(5)] {
                engine.queue_mut().post_at(t, i);
            }
        }
        let mut seen = Vec::new();
        engine.run_with(|_, now, ev| seen.push((now, ev)));
        let expected: Vec<_> = [Time::from_ns(5), BELOW_TOP, TOP]
            .into_iter()
            .flat_map(|t| (0..100).map(move |i| (t, i)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn handlers_can_post_followups() {
        let mut engine = Engine::new();
        engine.queue_mut().post_at(Time::ZERO, 0u32);
        let mut count = 0;
        let end = engine.run_with(|q, _, ev| {
            count += 1;
            if ev < 5 {
                q.post_in(Time::from_ns(7), ev + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(end, Time::from_ns(35));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine.queue_mut().post_at(Time::from_ns(10), 0u32);
        engine.run_with(|q, _, _| {
            q.post_at(Time::from_ns(1), 1);
        });
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn event_limit_catches_runaway() {
        let mut engine = Engine::with_limit(100);
        engine.queue_mut().post_at(Time::ZERO, 0u32);
        engine.run_with(|q, _, ev| q.post_in(Time::from_ns(1), ev));
    }

    #[test]
    fn far_future_jump_preserves_clock_and_order() {
        let mut engine = Engine::new();
        engine.queue_mut().post_at(Time::from_ns(1), 1u32);
        // ~1 s of simulated dead air before the next event.
        engine.queue_mut().post_at(Time::from_us(1_000_000), 2);
        let mut seen = Vec::new();
        let end = engine.run_with(|q, now, ev| {
            seen.push((now, ev));
            if ev == 2 {
                // Post-jump follow-ups at the jumped-to clock still work.
                q.post_in(Time::from_ns(3), 3);
            }
        });
        assert_eq!(
            seen,
            vec![
                (Time::from_ns(1), 1),
                (Time::from_us(1_000_000), 2),
                (Time::from_us(1_000_000) + Time::from_ns(3), 3),
            ]
        );
        assert_eq!(end, Time::from_us(1_000_000) + Time::from_ns(3));
    }

    #[test]
    fn pop_next_single_steps_the_queue() {
        let mut q = EventQueue::new();
        q.post_at(Time::from_ns(2), 'b');
        q.post_at(Time::from_ns(1), 'a');
        // Peeking shows the earliest time without moving the clock.
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.pending(), 2);
        assert_eq!(q.pop_next(), Some((Time::from_ns(1), 'a')));
        assert_eq!(q.now(), Time::from_ns(1));
        assert_eq!(q.executed(), 1);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
        assert_eq!(q.pop_next(), Some((Time::from_ns(2), 'b')));
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn drain_posts_returns_post_call_order() {
        let mut q = EventQueue::new();
        q.restart_at(Time::from_ns(10));
        // Post out of time order, including same-time ties.
        q.post_at(Time::from_ns(30), 'c');
        q.post_at(Time::from_ns(20), 'a');
        q.post_at(Time::from_ns(20), 'b');
        q.post_now('n');
        let posts = q.drain_posts();
        assert_eq!(
            posts,
            vec![
                (Time::from_ns(30), 'c'),
                (Time::from_ns(20), 'a'),
                (Time::from_ns(20), 'b'),
                (Time::from_ns(10), 'n'),
            ]
        );
        assert_eq!(q.pending(), 0);
        assert_eq!(q.executed(), 0, "drain is not dispatch");
        assert_eq!(q.now(), Time::from_ns(10));
        // Reusable afterwards.
        q.restart_at(Time::from_ns(50));
        q.post_now('x');
        assert_eq!(q.drain_posts(), vec![(Time::from_ns(50), 'x')]);
    }

    #[test]
    #[should_panic(expected = "non-empty queue")]
    fn restart_at_rejects_pending_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.post_at(Time::from_ns(5), 1);
        q.restart_at(Time::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "moving backwards")]
    fn restart_at_rejects_time_travel() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.restart_at(Time::from_ns(10));
        q.restart_at(Time::from_ns(5));
    }
}
