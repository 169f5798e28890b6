//! Differential proof that the engine over the calendar-queue store is
//! observationally identical to the same engine over the reference
//! `BinaryHeap` store (`HeapQueue`).
//!
//! The entire determinism story of this reproduction — the four pinned
//! golden fingerprints, the recovery proptests, same-time FIFO ordering —
//! rests on the event queue dispatching `(time, seq)` in exactly one
//! order. "The test suite still passes" is circumstantial evidence; this
//! harness is the direct kind: it feeds randomized interleavings of every
//! queue operation (`post_at` / `post_in` / `post_now` / single-step pops /
//! `run_until`) to one engine per store and asserts the two produce the
//! same dispatch sequence, the same clock after every operation, and the
//! same pending counts — including the adversarial patterns a calendar
//! queue could plausibly get wrong:
//!
//! * **same-time bursts** (FIFO tie-break inside one bucket),
//! * **bucket-boundary ties** (times on exact multiples of the initial
//!   1024 ps width, ±1 ps),
//! * **sparse far-future jumps** (events seconds ahead — overflow parking
//!   and calendar jumps),
//! * **resize-triggering storms** (hundreds of posts in one burst, then
//!   drains — grow/shrink rebuilds mid-sequence),
//! * **`run_until` deadlines** landing before, on, and after pending
//!   events, with follow-up posts from inside dispatch,
//! * **peek storms** (`run_until` stepped in tiny deadline increments —
//!   the closed-loop-driver pattern the calendar's cached-minimum slot
//!   serves; the cache must never desynchronize from the real minimum).
//!
//! Case count is `PROPTEST_CASES`-controlled (CI bumps it well above the
//! local default). The random programs hold at most ~15k pending events,
//! so a directed churn test below holds the queue at 100, 10,000 and
//! 100,000 pending events, the depths where the ring resizes and the
//! width recalibrates for real.

use proptest::collection;
use proptest::prelude::*;
use spin_sim::engine::{Engine, EventQueue, HeapQueue, PendingQueue};
use spin_sim::time::Time;
use spin_sim::CalendarQueue;

/// One step of the interpreted op program: an opcode plus two raw 64-bit
/// operands the interpreter shapes into times and counts.
type Op = (u8, u64, u64);

/// Everything observable about one engine while interpreting a program.
#[derive(Debug, PartialEq, Eq)]
struct TraceItem {
    /// Index of the driving op (dispatches during `run_until` record the
    /// op that ran them; the final drain records `usize::MAX`).
    op: usize,
    /// Clock at dispatch.
    at: Time,
    /// Event payload.
    ev: u32,
}

/// Dispatch closure shared by both engines: record, then deterministically
/// post follow-ups so the two queues also see in-dispatch posting.
fn dispatch<Q: PendingQueue<u32>>(
    trace: &mut Vec<TraceItem>,
    op: usize,
) -> impl FnMut(&mut EventQueue<u32, Q>, Time, u32) + '_ {
    move |q, now, ev| {
        trace.push(TraceItem { op, at: now, ev });
        // Follow-ups only for first-generation events, so chains terminate.
        if ev < 1_000_000 && ev % 5 == 0 {
            q.post_in(Time::from_ns(u64::from(ev % 7) + 1), ev + 1_000_000);
        }
        if ev < 1_000_000 && ev % 11 == 0 {
            q.post_now(ev + 2_000_000);
        }
    }
}

/// Run the op program on an engine over store `Q`, returning the full
/// observable behavior: the dispatch trace plus (clock, executed, pending)
/// after every op.
fn interpret<Q: PendingQueue<u32> + Default>(
    ops: &[Op],
) -> (Vec<TraceItem>, Vec<(Time, u64, usize)>) {
    let mut engine: Engine<u32, Q> = Engine::default();
    let mut trace = Vec::new();
    let mut states = Vec::new();
    let mut next_ev = 0u32;
    let mut ev = || {
        next_ev += 1;
        next_ev
    };
    for (i, &(code, a, b)) in ops.iter().enumerate() {
        let now = engine.now();
        match code % 9 {
            // Same-time burst: FIFO tie-break, all in one bucket.
            0 => {
                for _ in 0..(a % 8 + 1) {
                    engine.queue_mut().post_now(ev());
                }
            }
            // Near-term post at an arbitrary sub-width offset.
            1 => engine
                .queue_mut()
                .post_at(now + Time::from_ps(a % 4096), ev()),
            // Bucket-boundary ties: exact multiples of the calendar's
            // initial width (1024 ps), ±1 ps.
            2 => {
                let base = (a % 64) * 1024;
                let jitter = [0i64, 1, -1][(b % 3) as usize];
                let t = (base as i64 + jitter).max(0) as u64;
                engine.queue_mut().post_at(now + Time::from_ps(t), ev());
            }
            // Relative post up to 100 ns out.
            3 => engine.queue_mut().post_in(Time::from_ps(a % 100_000), ev()),
            // Sparse far-future jump: seconds ahead, far beyond any
            // calendar horizon (overflow list + jump on pop).
            4 => engine
                .queue_mut()
                .post_at(now + Time::from_us((a % 4 + 1) * 1_000_000), ev()),
            // Resize-triggering storm: a burst big enough to force ring
            // growth, spread over a pseudorandom span.
            5 => {
                let count = 64 + a % 192;
                let mut x = b | 1;
                for _ in 0..count {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    engine
                        .queue_mut()
                        .post_at(now + Time::from_ps(x % 2_000_000), ev());
                }
            }
            // run_until with a deadline that may fall before, between, or
            // after everything pending; dispatch posts follow-ups.
            6 => {
                let deadline = now + Time::from_ps(a % 200_000);
                let end = engine.run_until(deadline, dispatch(&mut trace, i));
                assert_eq!(end, deadline);
            }
            // Peek storm: a closed-loop driver pattern — dozens of
            // `run_until` calls stepping the deadline in tiny increments.
            // Every call peeks the earliest pending time at least once
            // (the calendar store's cached-minimum fast path), most
            // without popping anything.
            7 => {
                let step = a % 2_000 + 1;
                for k in 0..(b % 48 + 16) {
                    let deadline = now + Time::from_ps(step * (k + 1));
                    let end = engine.run_until(deadline, dispatch(&mut trace, i));
                    assert_eq!(end, deadline);
                }
            }
            // Deep drain: a deadline big enough to rotate through (or
            // jump over) long empty stretches.
            _ => {
                let deadline = now + Time::from_us(a % 3 * 1_000_000 + 1);
                engine.run_until(deadline, dispatch(&mut trace, i));
            }
        }
        states.push((
            engine.now(),
            engine.executed(),
            engine.queue_mut().pending(),
        ));
    }
    // Drain to quiescence so every queued event's dispatch is compared.
    engine.run_with(dispatch(&mut trace, usize::MAX));
    states.push((
        engine.now(),
        engine.executed(),
        engine.queue_mut().pending(),
    ));
    (trace, states)
}

proptest! {
    /// Cases come from the default config so `PROPTEST_CASES` scales the
    /// suite in CI.
    #[test]
    fn calendar_and_heap_backends_dispatch_identically(
        ops in collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..60),
    ) {
        let (cal_trace, cal_states) = interpret::<CalendarQueue<u32>>(&ops);
        let (heap_trace, heap_states) = interpret::<HeapQueue<u32>>(&ops);
        prop_assert_eq!(
            cal_states, heap_states,
            "clock/executed/pending diverged"
        );
        prop_assert_eq!(cal_trace.len(), heap_trace.len(), "dispatch counts diverged");
        for (a, b) in cal_trace.iter().zip(&heap_trace) {
            prop_assert_eq!(a, b, "dispatch order diverged");
        }
    }
}

/// A directed (non-random) worst case on top of the property: thousands of
/// same-time events interleaved across bucket boundaries while the ring
/// resizes, popped through `run_until` at every boundary.
#[test]
fn directed_boundary_storm_matches_reference() {
    fn build<Q: PendingQueue<u32> + Default>() -> Vec<(Time, u32)> {
        let mut engine: Engine<u32, Q> = Engine::default();
        let mut id = 0u32;
        for wave in 0..6u64 {
            for k in 0..200u64 {
                for _ in 0..3 {
                    engine
                        .queue_mut()
                        .post_at(Time::from_ps(wave * 131 + k * 1024), id);
                    id += 1;
                }
            }
        }
        let mut seen = Vec::new();
        for k in 0..220u64 {
            engine.run_until(Time::from_ps(k * 1024 + 512), |_, now, ev| {
                seen.push((now, ev));
            });
        }
        engine.run_with(|_, now, ev| seen.push((now, ev)));
        seen
    }
    assert_eq!(
        build::<CalendarQueue<u32>>(),
        build::<HeapQueue<u32>>(),
        "boundary storm diverged"
    );
}

/// Steady-state churn at a held depth: preload `depth` events, then `ops`
/// pop-one/post-one cycles (each post lands within ~1 µs of the popped
/// time, the simulator's typical lookahead), then drain. Returns an
/// **order-sensitive** digest of the dispatch sequence: each `(time,
/// event)` pair is folded in with a rotate, so two stores that dispatch
/// the same multiset in a different order produce different digests.
fn queue_churn<Q: PendingQueue<u64> + Default>(depth: usize, ops: usize) -> u64 {
    let mut q: EventQueue<u64, Q> = EventQueue::default();
    let mut x = 0x243F_6A88_85A3_08D3u64 ^ (depth as u64).rotate_left(17);
    let step = |x: &mut u64| {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x
    };
    for i in 0..depth {
        let dt = step(&mut x) % 1_000_000;
        q.post_at(Time::from_ps(dt), i as u64);
    }
    let mut acc = 0u64;
    let fold = |acc: u64, t: Time, ev: u64| {
        acc.rotate_left(1)
            .wrapping_add(t.ps().rotate_left(7) ^ ev)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    for i in 0..ops {
        let (t, ev) = q.pop_next().expect("queue held at depth");
        acc = fold(acc, t, ev);
        let dt = step(&mut x) % 1_000_000 + 1;
        q.post_at(t + Time::from_ps(dt), (depth + i) as u64);
    }
    while let Some((t, ev)) = q.pop_next() {
        acc = fold(acc, t, ev);
    }
    acc
}

/// Deep queues, directed: the calendar must dispatch in the heap's exact
/// order while held at 100, 10,000 and 100,000 pending events for
/// `4·depth + 10,000` pop/post cycles each.
#[test]
fn deep_churn_matches_reference() {
    for depth in [100, 10_000, 100_000] {
        let ops = 4 * depth + 10_000;
        assert_eq!(
            queue_churn::<CalendarQueue<u64>>(depth, ops),
            queue_churn::<HeapQueue<u64>>(depth, ops),
            "churn digest diverged at depth {depth}"
        );
    }
}
