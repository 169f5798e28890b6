//! The discrete-event engine.
//!
//! A minimal, deterministic event core in the style of LogGOPSim's central
//! queue: events are `(time, seq, payload)` triples ordered by time with a
//! monotonically increasing sequence number as tie-break, so same-time events
//! execute in insertion order and every simulation is reproducible.
//!
//! The engine is generic over the event payload `E` and the world state `W`.
//! Dispatch happens through a closure (or the [`Dispatch`] trait) so that the
//! crate that owns the world — `spin-core` — can match on its own event enum
//! without this crate knowing anything about NICs or hosts.
//!
//! Pending events are stored behind the [`PendingQueue`] abstraction with
//! two interchangeable backends: the default [`CalendarQueue`] (O(1)
//! amortized post/pop, see `calendar.rs`) and the reference [`HeapQueue`]
//! (`BinaryHeap`, O(log n)). Both yield the exact same `(time, seq)`
//! dispatch order — `tests/queue_equivalence.rs` proves it differentially —
//! so the choice is purely a performance knob (`SPIN_EVENT_QUEUE=heap`
//! flips any run back to the reference backend).

use crate::calendar::CalendarQueue;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a particular simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The storage strategy behind an [`EventQueue`]: any structure that can
/// hold `(time, seq, event)` triples and yield them in ascending
/// `(time, seq)` order. The engine owns the clock, the sequence counter,
/// and every invariant check; backends only order.
///
/// Two implementations exist: [`CalendarQueue`] (the default — O(1)
/// amortized for the simulator's mostly-bounded time horizon) and
/// [`HeapQueue`] (the original `BinaryHeap`, kept as the reference
/// implementation that `tests/queue_equivalence.rs` differentially tests
/// the calendar against).
pub trait PendingQueue<E> {
    /// Store one event. `seq` is unique and ascending across all pushes.
    fn push(&mut self, time: Time, seq: u64, event: E);
    /// Remove and return the earliest `(time, seq)` event.
    fn pop(&mut self) -> Option<(Time, u64, E)>;
    /// The earliest pending time, without removing anything.
    fn peek_time(&self) -> Option<Time>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Keep only events for which `keep` returns true (tombstoning the
    /// rest), preserving `(time, seq)` order among survivors.
    fn retain(&mut self, keep: &mut dyn FnMut(Time, u64, &E) -> bool);
}

/// The reference backend: the standard-library binary heap (O(log n)
/// push/pop), exactly as the engine used before the calendar queue landed.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty heap.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> PendingQueue<E> for HeapQueue<E> {
    fn push(&mut self, time: Time, seq: u64, event: E) {
        self.heap.push(Scheduled { time, seq, event });
    }

    fn pop(&mut self) -> Option<(Time, u64, E)> {
        self.heap.pop().map(|s| (s.time, s.seq, s.event))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn retain(&mut self, keep: &mut dyn FnMut(Time, u64, &E) -> bool) {
        self.heap.retain(|s| keep(s.time, s.seq, &s.event));
    }
}

/// Which [`PendingQueue`] implementation an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Calendar queue (O(1) amortized post/pop) — the default.
    #[default]
    Calendar,
    /// The reference `BinaryHeap` (O(log n)); dispatch order is proven
    /// identical, so flipping back is purely a performance/debugging knob.
    Heap,
}

impl QueueBackend {
    /// The backend selected by the `SPIN_EVENT_QUEUE` environment variable
    /// (`heap` or `calendar`, case-insensitive); the calendar queue when
    /// unset. Lets whole experiment binaries be A/B'd against the
    /// reference backend without a rebuild.
    ///
    /// # Panics
    /// Panics on any other value — a typo like `SPIN_EVENT_QUEUE=haep`
    /// silently benchmarking the wrong backend is exactly the failure this
    /// knob exists to prevent.
    pub fn from_env() -> Self {
        match std::env::var("SPIN_EVENT_QUEUE") {
            Ok(v) if v.eq_ignore_ascii_case("heap") => QueueBackend::Heap,
            Ok(v) if v.eq_ignore_ascii_case("calendar") => QueueBackend::Calendar,
            Ok(v) => panic!("SPIN_EVENT_QUEUE must be `heap` or `calendar`, got {v:?}"),
            Err(_) => QueueBackend::Calendar,
        }
    }
}

/// Backend dispatch. An enum (not `dyn`) so the hot post/pop calls stay
/// static and inlinable.
#[derive(Debug)]
enum Pending<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
}

impl<E> Pending<E> {
    fn of(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Calendar => Pending::Calendar(CalendarQueue::new()),
            QueueBackend::Heap => Pending::Heap(HeapQueue::new()),
        }
    }

    fn push(&mut self, time: Time, seq: u64, event: E) {
        match self {
            Pending::Calendar(q) => q.push(time, seq, event),
            Pending::Heap(q) => q.push(time, seq, event),
        }
    }

    fn pop(&mut self) -> Option<(Time, u64, E)> {
        match self {
            Pending::Calendar(q) => q.pop(),
            Pending::Heap(q) => q.pop(),
        }
    }

    fn peek_time(&self) -> Option<Time> {
        match self {
            Pending::Calendar(q) => q.peek_time(),
            Pending::Heap(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Pending::Calendar(q) => PendingQueue::len(q),
            Pending::Heap(q) => PendingQueue::len(q),
        }
    }

    fn retain(&mut self, keep: &mut dyn FnMut(Time, u64, &E) -> bool) {
        match self {
            Pending::Calendar(q) => PendingQueue::retain(q, keep),
            Pending::Heap(q) => PendingQueue::retain(q, keep),
        }
    }
}

/// A time-ordered queue of pending events.
///
/// This is the part of the engine that event handlers get mutable access to
/// while an event is being dispatched, so handlers can post follow-up events.
#[derive(Debug)]
pub struct EventQueue<E> {
    pending: Pending<E>,
    now: Time,
    seq: u64,
    executed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero, on the backend
    /// [`QueueBackend::from_env`] selects (the calendar queue unless
    /// `SPIN_EVENT_QUEUE=heap`).
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::from_env())
    }

    /// An empty queue at time zero on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            pending: Pending::of(backend),
            now: Time::ZERO,
            seq: 0,
            executed: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.pending {
            Pending::Calendar(_) => QueueBackend::Calendar,
            Pending::Heap(_) => QueueBackend::Heap,
        }
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
        self.pending.push(at, self.seq, event);
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
    /// the clock to its timestamp. Public so steppers and differential
    /// harnesses can single-step a queue outside an [`Engine`] run loop.
    pub fn pop_next(&mut self) -> Option<(Time, E)> {
        let (time, _seq, event) = self.pending.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        Some((time, event))
    }

    /// Like [`EventQueue::pop_next`], but leaves the queue untouched (and
    /// the clock where it is) when the earliest event is after `deadline`.
    fn pop_next_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        match self.pending.peek_time() {
            Some(t) if t <= deadline => self.pop_next(),
            _ => None,
        }
    }

    /// Advance the clock to `t` without dispatching (used by
    /// [`Engine::run_until`] so a deadline leaves `now` at the deadline,
    /// never before it).
    fn advance_to(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Reset the clock to `t` so the queue can be reused as a scratch
    /// post-buffer for the next dispatch (the sharded engine hands one
    /// scratch queue to `dispatch` per event and drains it afterwards).
    /// The queue must be empty and `t` must not move the clock backwards —
    /// both would mean posts from one dispatch leaked into another.
    pub fn restart_at(&mut self, t: Time) {
        assert!(
            self.pending.len() == 0,
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
        let mut posts = Vec::with_capacity(self.pending.len());
        while let Some((time, seq, ev)) = self.pending.pop() {
            posts.push((seq, time, ev));
        }
        // `pop` yields (time, seq) order; post order is seq order.
        posts.sort_by_key(|&(seq, _, _)| seq);
        posts.into_iter().map(|(_, time, ev)| (time, ev)).collect()
    }

    /// Remove (tombstone) every pending event matching `pred`, returning
    /// how many were cancelled. Survivors keep their `(time, seq)` order.
    /// Used when a model-level episode is abandoned and its queued
    /// follow-ups must never dispatch.
    pub fn cancel_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> usize {
        let before = self.pending.len();
        self.pending.retain(&mut |_, _, ev| !pred(ev));
        before - self.pending.len()
    }

    /// The earliest pending timestamp, if any (the clock does not move).
    pub fn peek_time(&self) -> Option<Time> {
        self.pending.peek_time()
    }
}

/// Dispatch trait for types that react to events; an alternative to passing a
/// closure to [`Engine::run_with`].
pub trait Dispatch<E> {
    /// Handle one event at time `now`, possibly posting follow-ups.
    fn dispatch(&mut self, queue: &mut EventQueue<E>, now: Time, event: E);
}

/// The simulation driver: owns the queue and runs it to quiescence.
#[derive(Debug, Default)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    /// Safety valve: abort after this many events (0 = unlimited). Protects
    /// tests against accidental event storms (e.g. a retransmit loop).
    pub max_events: u64,
}

impl<E> Engine<E> {
    /// A fresh engine with no event limit, on the default backend (see
    /// [`EventQueue::new`]).
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            max_events: 0,
        }
    }

    /// A fresh engine that panics after `max_events` dispatches.
    pub fn with_limit(max_events: u64) -> Self {
        Engine {
            queue: EventQueue::new(),
            max_events,
        }
    }

    /// A fresh engine on an explicit [`QueueBackend`] (no event limit; set
    /// [`Engine::max_events`] afterwards if one is wanted).
    pub fn with_backend(backend: QueueBackend) -> Self {
        Engine {
            queue: EventQueue::with_backend(backend),
            max_events: 0,
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

    /// Run until the queue is empty, dispatching through `world`.
    /// Returns the time of the last executed event.
    pub fn run<W: Dispatch<E>>(&mut self, world: &mut W) -> Time {
        self.run_with(|q, now, ev| world.dispatch(q, now, ev))
    }

    /// Run until the queue is empty, dispatching through a closure.
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

    /// Run until the queue is empty or `deadline` passes; events scheduled
    /// after the deadline stay queued.
    ///
    /// Time semantics: on return the clock reads exactly `deadline` — the
    /// simulation has observed "nothing else happens up to the deadline",
    /// so code resuming afterwards may schedule anywhere in
    /// `(deadline, ∞)` but never before it (any still-pending events are
    /// strictly later than the deadline). Returns the clock.
    ///
    /// The `max_events` safety valve applies here exactly as in
    /// [`Engine::run_with`].
    pub fn run_until(
        &mut self,
        deadline: Time,
        mut f: impl FnMut(&mut EventQueue<E>, Time, E),
    ) -> Time {
        while let Some((now, ev)) = self.queue.pop_next_before(deadline) {
            f(&mut self.queue, now, ev);
            if self.max_events != 0 && self.queue.executed() > self.max_events {
                panic!(
                    "event limit exceeded ({} events executed, {} pending) — runaway simulation?",
                    self.queue.executed(),
                    self.queue.pending()
                );
            }
        }
        self.queue.advance_to(deadline);
        self.queue.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::NS;

    #[test]
    fn events_execute_in_time_order() {
        let mut engine = Engine::new();
        engine.queue_mut().post_at(Time::from_ns(30), 3u32);
        engine.queue_mut().post_at(Time::from_ns(10), 1);
        engine.queue_mut().post_at(Time::from_ns(20), 2);
        let mut seen = Vec::new();
        engine.run_with(|_, now, ev| seen.push((now.ps() / NS, ev)));
        assert_eq!(seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut engine = Engine::new();
        for i in 0..100u32 {
            engine.queue_mut().post_at(Time::from_ns(5), i);
        }
        let mut seen = Vec::new();
        engine.run_with(|_, _, ev| seen.push(ev));
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
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
    fn run_until_stops_at_deadline() {
        let mut engine = Engine::new();
        for i in 1..=10u64 {
            engine.queue_mut().post_at(Time::from_ns(i * 10), i);
        }
        let mut seen = Vec::new();
        let end = engine.run_until(Time::from_ns(55), |_, _, ev| seen.push(ev));
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(engine.queue.pending(), 5);
        // The clock reads the deadline, not the last dispatched event.
        assert_eq!(end, Time::from_ns(55));
        assert_eq!(engine.now(), Time::from_ns(55));
        // Resuming picks up the remaining events.
        let end = engine.run_until(Time::from_ns(1000), |_, _, ev| seen.push(ev));
        assert_eq!(seen.len(), 10);
        assert_eq!(end, Time::from_ns(1000));
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains_early() {
        let mut engine: Engine<u32> = Engine::new();
        engine.queue_mut().post_at(Time::from_ns(5), 1);
        let end = engine.run_until(Time::from_ns(100), |_, _, _| {});
        assert_eq!(end, Time::from_ns(100));
        // Post-deadline code cannot schedule before the deadline.
        engine.queue_mut().post_at(Time::from_ns(100), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn run_until_forbids_scheduling_before_deadline_afterwards() {
        let mut engine: Engine<u32> = Engine::new();
        engine.queue_mut().post_at(Time::from_ns(5), 1);
        engine.run_until(Time::from_ns(100), |_, _, _| {});
        engine.queue_mut().post_at(Time::from_ns(50), 2);
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn run_until_enforces_event_limit() {
        let mut engine = Engine::with_limit(100);
        engine.queue_mut().post_at(Time::ZERO, 0u32);
        engine.run_until(Time::from_us(1000), |q, _, ev| {
            q.post_in(Time::from_ns(1), ev);
        });
    }

    // ------------------------------------------------- backend edge cases
    //
    // Everything above runs on the default backend; these pin the engine
    // contract on *both* backends explicitly, at the seams where a
    // calendar queue could plausibly diverge from the reference heap:
    // bucket boundaries, far-future overflow, rotations under run_until,
    // and the two engine panics.

    const BOTH: [QueueBackend; 2] = [QueueBackend::Calendar, QueueBackend::Heap];

    #[test]
    fn backends_are_reported_and_default_is_calendar() {
        assert_eq!(
            EventQueue::<u32>::with_backend(QueueBackend::Heap).backend(),
            QueueBackend::Heap
        );
        assert_eq!(
            EventQueue::<u32>::with_backend(QueueBackend::Calendar).backend(),
            QueueBackend::Calendar
        );
        // Unless SPIN_EVENT_QUEUE overrides it (not set under cargo test),
        // the default is the calendar queue.
        if std::env::var_os("SPIN_EVENT_QUEUE").is_none() {
            assert_eq!(Engine::<u32>::new().queue.backend(), QueueBackend::Calendar);
        }
    }

    #[test]
    fn bucket_boundary_ties_dispatch_fifo_on_both_backends() {
        // Events exactly on multiples of the calendar's initial bucket
        // width (1024 ps), plus ±1 ps neighbours and same-time bursts:
        // identical dispatch on both backends.
        let runs: Vec<Vec<(u64, u32)>> = BOTH
            .iter()
            .map(|&b| {
                let mut engine = Engine::with_backend(b);
                let mut ev = 0u32;
                for k in (0..20u64).rev() {
                    for dt in [k * 1024, k * 1024 + 1, (k * 1024).saturating_sub(1)] {
                        for _ in 0..3 {
                            engine.queue_mut().post_at(Time::from_ps(dt), ev);
                            ev += 1;
                        }
                    }
                }
                let mut seen = Vec::new();
                engine.run_with(|_, now, e| seen.push((now.ps(), e)));
                seen
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let mut sorted = runs[0].clone();
        sorted.sort_by_key(|&(t, _)| t);
        assert_eq!(runs[0], sorted, "time order");
    }

    #[test]
    fn far_future_jump_preserves_clock_and_order() {
        for b in BOTH {
            let mut engine = Engine::with_backend(b);
            engine.queue_mut().post_at(Time::from_ns(1), 1u32);
            // ~1 s of simulated dead air: far beyond any calendar horizon.
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
                ],
                "{b:?}"
            );
            assert_eq!(end, Time::from_us(1_000_000) + Time::from_ns(3));
        }
    }

    #[test]
    fn run_until_across_rotations_leaves_clock_at_each_deadline() {
        // Deadlines that land mid-window, on window boundaries, and inside
        // long empty stretches; posting between calls must stay legal at
        // exactly the deadline.
        for b in BOTH {
            let mut engine = Engine::with_backend(b);
            for i in 0..50u64 {
                engine
                    .queue_mut()
                    .post_at(Time::from_ps(i * 700 + 3), i as u32);
            }
            let mut seen = Vec::new();
            for deadline_ps in [0u64, 1024, 1025, 9_000, 9_001, 100_000, 200_000] {
                let end = engine.run_until(Time::from_ps(deadline_ps), |_, _, ev| seen.push(ev));
                assert_eq!(end, Time::from_ps(deadline_ps), "{b:?}");
                assert_eq!(engine.now(), Time::from_ps(deadline_ps));
                // Scheduling exactly at the deadline is always legal.
                engine
                    .queue_mut()
                    .post_at(Time::from_ps(deadline_ps), 1000 + seen.len() as u32);
                engine.run_until(Time::from_ps(deadline_ps), |_, _, ev| seen.push(ev));
            }
            engine.run_with(|_, _, ev| seen.push(ev));
            assert_eq!(seen.len(), 50 + 7, "{b:?}: every event dispatched once");
        }
    }

    #[test]
    fn past_scheduling_panics_on_both_backends() {
        for b in BOTH {
            let r = std::panic::catch_unwind(|| {
                let mut engine = Engine::with_backend(b);
                engine.queue_mut().post_at(Time::from_ns(10), 0u32);
                engine.run_with(|q, _, _| q.post_at(Time::from_ns(1), 1));
            });
            let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
            assert!(msg.contains("scheduled in the past"), "{b:?}: {msg}");
        }
    }

    #[test]
    fn event_limit_panics_on_both_backends() {
        for b in BOTH {
            let r = std::panic::catch_unwind(|| {
                let mut engine = Engine::with_backend(b);
                engine.max_events = 100;
                engine.queue_mut().post_at(Time::ZERO, 0u32);
                engine.run_with(|q, _, ev| q.post_in(Time::from_ns(1), ev));
            });
            let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
            assert!(msg.contains("event limit exceeded"), "{b:?}: {msg}");
        }
    }

    #[test]
    fn pop_next_single_steps_the_queue() {
        for b in BOTH {
            let mut q = EventQueue::with_backend(b);
            q.post_at(Time::from_ns(2), 'b');
            q.post_at(Time::from_ns(1), 'a');
            assert_eq!(q.pop_next(), Some((Time::from_ns(1), 'a')));
            assert_eq!(q.now(), Time::from_ns(1));
            assert_eq!(q.executed(), 1);
            assert_eq!(q.pending(), 1);
            assert_eq!(q.pop_next(), Some((Time::from_ns(2), 'b')));
            assert_eq!(q.pop_next(), None);
        }
    }

    #[test]
    fn drain_posts_returns_post_call_order() {
        for b in BOTH {
            let mut q = EventQueue::with_backend(b);
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
                ],
                "{b:?}"
            );
            assert_eq!(q.pending(), 0);
            assert_eq!(q.executed(), 0, "drain is not dispatch");
            assert_eq!(q.now(), Time::from_ns(10));
            // Reusable afterwards.
            q.restart_at(Time::from_ns(50));
            q.post_now('x');
            assert_eq!(q.drain_posts(), vec![(Time::from_ns(50), 'x')]);
        }
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

    #[test]
    fn cancel_where_tombstones_matching_events() {
        for b in BOTH {
            let mut q = EventQueue::with_backend(b);
            for i in 0..10u32 {
                q.post_at(Time::from_ns(u64::from(i % 4)), i);
            }
            let cancelled = q.cancel_where(|e| e % 2 == 1);
            assert_eq!(cancelled, 5, "{b:?}");
            assert_eq!(q.pending(), 5);
            // Survivors keep (time, seq) order; cancelling nothing is a
            // no-op returning 0.
            assert_eq!(q.cancel_where(|_| false), 0);
            let mut seen = Vec::new();
            while let Some((_, e)) = q.pop_next() {
                seen.push(e);
            }
            assert_eq!(seen, vec![0, 4, 8, 2, 6], "{b:?}");
        }
    }

    #[test]
    fn dispatch_trait_works() {
        struct Counter(u64);
        impl Dispatch<u32> for Counter {
            fn dispatch(&mut self, q: &mut EventQueue<u32>, _now: Time, ev: u32) {
                self.0 += 1;
                if ev > 0 {
                    q.post_in(Time::from_ns(1), ev - 1);
                }
            }
        }
        let mut engine = Engine::new();
        engine.queue_mut().post_at(Time::ZERO, 4u32);
        let mut w = Counter(0);
        engine.run(&mut w);
        assert_eq!(w.0, 5);
    }
}
