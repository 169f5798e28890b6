//! Calendar-queue backend for the event engine (Brown 1988).
//!
//! The discrete-event simulations in this workspace schedule almost all of
//! their events within a bounded look-ahead of the current time (handler
//! latencies, per-packet gaps, link traversals — nanoseconds to a few
//! microseconds), so the classic O(log n) binary heap pays an avoidable
//! per-event cost once queues get deep (incast, saturation sweeps, fat
//! trees). A calendar queue exploits the bounded horizon: a ring of time
//! **buckets**, each covering one `width`-picosecond window, gives O(1)
//! amortized post and pop as long as the bucket width tracks the typical
//! inter-event spacing.
//!
//! Shape of the structure:
//!
//! * `buckets[(cursor + k) & mask]` holds exactly the pending events in the
//!   window `[epoch + k·width, epoch + (k+1)·width)` for `k` in
//!   `0..nbuckets`. Every bucket stores its events sorted by `(time, seq)`
//!   **descending**, so the window minimum pops from the `Vec` tail in
//!   O(1) and the FIFO tie-break of the engine (`seq`) is preserved
//!   exactly.
//! * Events at or beyond the ring's horizon (`epoch + nbuckets·width`) go
//!   to an **overflow** min-heap. Whenever the calendar rotates (the
//!   cursor advances one window) the newly opened window is re-populated
//!   from the overflow head, and when every bucket is empty the calendar
//!   **jumps** directly to the earliest overflow event instead of
//!   rotating through the gap one window at a time (sparse far-future
//!   timers).
//! * The ring is resized by powers of two — grown when occupancy exceeds
//!   two events per bucket, shrunk (with hysteresis) when it falls below
//!   an eighth — and the width is re-derived from the observed span of
//!   pending events at each rebuild, so both bursty and sparse phases of
//!   a simulation settle into ~O(1) operations.
//!
//! Every decision here is a deterministic function of the operation
//! sequence: no wall-clock sampling, no randomized thresholds. The
//! engine's dispatch order — `(time, seq)` ascending — is bit-identical
//! to the reference `BinaryHeap` backend, which `tests/queue_equivalence.rs`
//! proves over adversarial interleavings and the pinned determinism
//! goldens prove over whole simulations.

use crate::engine::PendingQueue;
use crate::time::Time;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Smallest ring ever used; shrinking stops here.
const MIN_BUCKETS: usize = 16;
/// Above this many pending events the small-mode sorted vec graduates to
/// the bucket ring.
const SMALL_MAX: usize = 64;
/// Below this many pending events the ring collapses back to small mode.
/// The wide hysteresis band (24..64) keeps a queue hovering at one depth
/// from thrashing between representations.
const SMALL_MIN: usize = 24;
/// Starting bucket width (1.024 ns): in the ballpark of the packet-scale
/// event spacing of the paper's machine model, corrected by the first
/// rebuild anyway.
const INITIAL_WIDTH: u64 = 1 << 10;
/// Grow the ring when occupancy exceeds this many events per bucket.
const GROW_PER_BUCKET: usize = 2;
/// Shrink the ring when occupancy falls below 1/8 event per bucket
/// (hysteresis against grow/shrink thrash at a boundary).
const SHRINK_DIVISOR: usize = 8;

/// One pending event. Time is kept as raw picoseconds: the engine already
/// validated it against the clock.
#[derive(Debug)]
struct Slot<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the overflow BinaryHeap (a max-heap) pops the
        // earliest (time, seq) first — same trick as the reference backend.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A calendar queue over event payloads `E`: the default store of
/// [`crate::engine::EventQueue`] (the reference store is
/// [`crate::engine::HeapQueue`]).
///
/// Below [`SMALL_MAX`] pending events the structure runs in **small
/// mode**: one sorted vec (descending, minimum at the tail), which beats
/// both the ring and a binary heap at the handful-of-events depths the
/// pingpong/bcast scenarios live at — tail pop is O(1) and the sorted
/// insert is a ≤64-element memmove in one cache line stride. The ring
/// takes over for deep queues (incast, saturation, fat trees).
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The ring. Each bucket is sorted descending by `(time, seq)`: the
    /// bucket minimum is at the tail.
    buckets: Vec<Vec<Slot<E>>>,
    /// `buckets.len() - 1`; the ring size is always a power of two.
    mask: usize,
    /// Window width in picoseconds (≥ 1).
    width: u64,
    /// Ring index of the bucket whose window starts at `epoch`.
    cursor: usize,
    /// Absolute start (ps) of the cursor bucket's window. Never exceeds
    /// the engine clock except transiently inside `pop`, so every later
    /// `push` time is `>= epoch`.
    epoch: u64,
    /// Events currently stored in buckets (the rest are in `overflow`).
    in_buckets: usize,
    /// Far-future events (`time >= horizon`), earliest first.
    overflow: BinaryHeap<Slot<E>>,
    /// EWMA of pop-to-pop time gaps: a cheap running estimate of the
    /// simulation's event spacing, used to recalibrate the width on jumps
    /// (a ring hovering just above the small-mode band never resizes, so
    /// rebuilds alone could leave it stuck on a stale width — and in
    /// permanent overflow).
    gap_ewma: u64,
    /// Time of the last popped event (EWMA input; also the epoch witness
    /// when small mode graduates — every pending and future event time is
    /// `>= last_pop`).
    last_pop: u64,
    /// Small-mode storage, sorted descending by `(time, seq)`. Non-empty
    /// only in small mode (`small_mode == true`); the ring fields are
    /// quiescent while it is active.
    small: Vec<Slot<E>>,
    /// Whether the queue currently runs in small mode.
    small_mode: bool,
    /// Cached earliest pending time for O(1) repeated peeks: a pop makes
    /// it `Dirty` (the minimum left), a push refreshes it in place (the
    /// minimum can only move down), and the rebuild/graduate/collapse
    /// reshuffles leave it alone (they never change the pending *set*).
    /// Without it, every `peek_time` on a sparse ring re-scans empty
    /// buckets — up to O(nbuckets) per peek in `run_until`-heavy
    /// closed-loop drivers. Interior-mutable because peeking is `&self`.
    min_cache: Cell<MinCache>,
    /// How many times `peek_time` had to recompute by scanning
    /// (introspection: tests pin that repeated peeks don't re-scan).
    peek_scans: Cell<u64>,
}

/// State of the cached-minimum slot.
#[derive(Debug, Clone, Copy)]
enum MinCache {
    /// Unknown — the next peek scans and refills the cache.
    Dirty,
    /// Known earliest pending time in picoseconds (`None` = empty queue).
    Known(Option<u64>),
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty calendar starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: INITIAL_WIDTH,
            cursor: 0,
            epoch: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            gap_ewma: INITIAL_WIDTH,
            last_pop: 0,
            small: Vec::new(),
            small_mode: true,
            min_cache: Cell::new(MinCache::Known(None)),
            peek_scans: Cell::new(0),
        }
    }

    /// Times `peek_time` recomputed the minimum by scanning (tests pin
    /// that peeks between mutations hit the cache instead).
    pub fn peek_scans(&self) -> u64 {
        self.peek_scans.get()
    }

    /// Total pending events.
    pub fn len(&self) -> usize {
        self.small.len() + self.in_buckets + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current ring size (introspection for tests/benches).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in picoseconds (introspection).
    pub fn bucket_width_ps(&self) -> u64 {
        self.width
    }

    /// Events currently parked on the far-future overflow heap
    /// (introspection).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// First time not covered by the ring: `epoch + nbuckets·width`,
    /// saturating so `Time::MAX` sentinels stay representable.
    fn horizon(&self) -> u64 {
        self.epoch
            .saturating_add(self.width.saturating_mul(self.buckets.len() as u64))
    }

    /// Insert into the ring. Caller guarantees `epoch <= time < horizon`.
    fn bucket_insert(&mut self, s: Slot<E>) {
        debug_assert!(s.time >= self.epoch && s.time < self.horizon());
        let k = ((s.time - self.epoch) / self.width) as usize;
        let idx = (self.cursor + k) & self.mask;
        let b = &mut self.buckets[idx];
        // Descending order: everything strictly greater stays in front of
        // the new slot. `seq` is unique, so there are never equal keys.
        let key = (s.time, s.seq);
        let pos = b.partition_point(|e| (e.time, e.seq) > key);
        b.insert(pos, s);
        self.in_buckets += 1;
    }

    /// Route one slot to its bucket or to the overflow heap.
    fn place(&mut self, s: Slot<E>) {
        if s.time >= self.horizon() {
            self.overflow.push(s);
        } else {
            self.bucket_insert(s);
        }
    }

    /// Move overflow events that now fall inside the ring's horizon into
    /// their buckets (called after every window advance / jump).
    fn promote_overflow(&mut self) {
        let h = self.horizon();
        while self.overflow.peek().is_some_and(|s| s.time < h) {
            let s = self.overflow.pop().expect("peeked");
            self.bucket_insert(s);
        }
    }

    /// Bucket width from the pending events' spacing (~Brown's rule of a
    /// few events per bucket) — measured over the span between the
    /// minimum and the **90th-percentile** time, not the full min–max
    /// span: one far-future outlier (a multi-second timer over a dense
    /// packet burst) must not stretch the windows so far that every
    /// near-term event collapses into a single bucket and pushes
    /// degenerate to O(n) sorted inserts. Events past the resulting
    /// horizon simply park in overflow. `times` is scratch (reordered).
    fn derive_width(times: &mut [u64]) -> u64 {
        debug_assert!(!times.is_empty());
        let q_idx = (times.len() * 9 / 10).min(times.len() - 1);
        let (lo, q90, _) = times.select_nth_unstable(q_idx);
        let q90 = *q90;
        let min = lo.iter().copied().min().unwrap_or(q90);
        // Widened arithmetic: spans can approach `Time::MAX`.
        let per_bucket = 3 * u128::from(q90 - min) / (q_idx.max(1) as u128);
        u64::try_from(per_bucket).unwrap_or(u64::MAX).max(1)
    }

    /// Rebuild with `nbuckets` buckets (a power of two), re-deriving the
    /// width from the spacing of pending events. `epoch`/`cursor` restart
    /// at the current epoch, which is a lower bound for every pending and
    /// future event time.
    fn rebuild(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(std::mem::take(&mut self.overflow));
        if !all.is_empty() {
            let mut times: Vec<u64> = all.iter().map(|s| s.time).collect();
            self.width = Self::derive_width(&mut times);
        }
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        self.mask = nbuckets - 1;
        self.cursor = 0;
        self.in_buckets = 0;
        for s in all {
            self.place(s);
        }
    }

    fn maybe_grow(&mut self) {
        if self.len() > GROW_PER_BUCKET * self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.len() < self.buckets.len() / SHRINK_DIVISOR {
            let target = (self.len() * GROW_PER_BUCKET)
                .next_power_of_two()
                .max(MIN_BUCKETS);
            if target < self.buckets.len() {
                self.rebuild(target);
            }
        }
    }

    /// Record a dispatched time: EWMA spacing estimate + epoch witness.
    fn note_pop(&mut self, time: u64) {
        let gap = time.saturating_sub(self.last_pop);
        self.last_pop = time;
        // Widened so `Time::MAX` sentinel gaps cannot overflow.
        self.gap_ewma = ((3 * u128::from(self.gap_ewma) + u128::from(gap)) / 4) as u64;
    }

    /// Small mode grew past [`SMALL_MAX`]: move everything into the ring,
    /// deriving the width from the spacing of the graduating events.
    fn graduate(&mut self) {
        let all = std::mem::take(&mut self.small);
        self.small_mode = false;
        let mut times: Vec<u64> = all.iter().map(|s| s.time).collect();
        self.width = Self::derive_width(&mut times);
        let min = all.iter().map(|s| s.time).min().expect("non-empty");
        // `last_pop` is a valid epoch: every pending event and every
        // future push happens at or after it.
        self.epoch = self.last_pop.min(min);
        self.cursor = 0;
        self.in_buckets = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        for s in all {
            self.place(s);
        }
    }

    /// The ring drained below [`SMALL_MIN`]: collapse back to one sorted
    /// vec.
    fn collapse(&mut self) {
        let mut all: Vec<Slot<E>> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(std::mem::take(&mut self.overflow));
        all.sort_unstable_by_key(|s| (std::cmp::Reverse(s.time), std::cmp::Reverse(s.seq)));
        self.small = all;
        self.in_buckets = 0;
        self.small_mode = true;
    }

    /// The global minimum event, without mutating any state.
    fn peek_slot(&self) -> Option<&Slot<E>> {
        if self.small_mode {
            return self.small.last();
        }
        if self.in_buckets == 0 {
            return self.overflow.peek();
        }
        // Bucketed events are all earlier than any overflow event, and
        // windows are ordered by ring distance from the cursor, so the
        // tail of the first non-empty bucket is the global minimum.
        let mut idx = self.cursor;
        loop {
            if let Some(s) = self.buckets[idx].last() {
                return Some(s);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn pop_slot(&mut self) -> Option<Slot<E>> {
        if self.small_mode {
            let s = self.small.pop()?;
            self.note_pop(s.time);
            return Some(s);
        }
        if self.is_empty() {
            return None;
        }
        if self.in_buckets == 0 {
            // Everything pending is far-future: jump the calendar straight
            // to the earliest overflow event instead of rotating window by
            // window across the gap. The ring is empty, so this is also
            // the free moment to recalibrate the width to the observed
            // event spacing — without this, a small queue (which never
            // grows, so never rebuilds) would sit on the initial width
            // forever and serve every event through the overflow heap.
            let t = self.overflow.peek().expect("non-empty").time;
            self.epoch = t;
            self.width = self.gap_ewma.max(1).saturating_mul(4);
            self.promote_overflow();
            if self.in_buckets == 0 {
                // Times so late the horizon saturates (Time::MAX
                // sentinels): serve straight from the heap, which is
                // already (time, seq)-ordered.
                let s = self.overflow.pop().expect("non-empty");
                self.last_pop = s.time;
                if self.len() < SMALL_MIN {
                    self.collapse();
                }
                return Some(s);
            }
        }
        loop {
            if let Some(s) = self.buckets[self.cursor].pop() {
                self.in_buckets -= 1;
                self.note_pop(s.time);
                if self.len() < SMALL_MIN {
                    self.collapse();
                } else {
                    self.maybe_shrink();
                }
                return Some(s);
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.epoch = self.epoch.saturating_add(self.width);
            self.promote_overflow();
        }
    }
}

impl<E> PendingQueue<E> for CalendarQueue<E> {
    fn push(&mut self, time: Time, seq: u64, event: E) {
        // A push can only lower the minimum, so a known cache stays known.
        if let MinCache::Known(cur) = self.min_cache.get() {
            let t = time.ps();
            self.min_cache
                .set(MinCache::Known(Some(cur.map_or(t, |m| m.min(t)))));
        }
        let s = Slot {
            time: time.ps(),
            seq,
            event,
        };
        if self.small_mode {
            let key = (s.time, s.seq);
            let pos = self.small.partition_point(|e| (e.time, e.seq) > key);
            self.small.insert(pos, s);
            if self.small.len() > SMALL_MAX {
                self.graduate();
            }
            return;
        }
        self.place(s);
        self.maybe_grow();
    }

    fn pop(&mut self) -> Option<(Time, u64, E)> {
        let popped = self.pop_slot();
        if popped.is_some() {
            // The minimum just left; the next peek recomputes.
            self.min_cache.set(MinCache::Dirty);
        }
        popped.map(|s| (Time::from_ps(s.time), s.seq, s.event))
    }

    fn peek_time(&self) -> Option<Time> {
        if let MinCache::Known(t) = self.min_cache.get() {
            return t.map(Time::from_ps);
        }
        let t = self.peek_slot().map(|s| s.time);
        self.peek_scans.set(self.peek_scans.get() + 1);
        self.min_cache.set(MinCache::Known(t));
        t.map(Time::from_ps)
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }

    fn retain(&mut self, keep: &mut dyn FnMut(Time, u64, &E) -> bool) {
        self.small
            .retain(|s| keep(Time::from_ps(s.time), s.seq, &s.event));
        let mut in_buckets = 0;
        for b in &mut self.buckets {
            b.retain(|s| keep(Time::from_ps(s.time), s.seq, &s.event));
            in_buckets += b.len();
        }
        self.in_buckets = in_buckets;
        self.overflow
            .retain(|s| keep(Time::from_ps(s.time), s.seq, &s.event));
        self.min_cache.set(MinCache::Dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, e)) = q.pop() {
            out.push((t.ps(), s, e));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ps(50), 1, 0);
        q.push(Time::from_ps(10), 2, 1);
        q.push(Time::from_ps(10), 3, 2);
        q.push(Time::from_ps(7), 4, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn same_time_events_keep_fifo_within_one_bucket() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u32 {
            q.push(Time::from_ps(42), i as u64, i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_boundary_times_stay_ordered() {
        // Events exactly on every initial-window boundary, plus ±1 ps
        // neighbours, posted in reverse: must come out time-sorted.
        let mut q = CalendarQueue::new();
        let w = q.bucket_width_ps();
        let mut seq = 0u64;
        let mut expect = Vec::new();
        for k in (0..40u64).rev() {
            for dt in [k * w, (k * w).saturating_sub(1), k * w + 1] {
                seq += 1;
                q.push(Time::from_ps(dt), seq, (dt % 1000) as u32);
                expect.push((dt, seq));
            }
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = drain(&mut q).into_iter().map(|(t, s, _)| (t, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn far_future_events_park_in_overflow_and_promote() {
        let mut q = CalendarQueue::new();
        // Enough near-term events to graduate out of small mode...
        for i in 0..100u64 {
            q.push(Time::from_ps(i * 64), i + 1, i as u32);
        }
        // ...then one event far beyond any ring horizon.
        let far = q.bucket_width_ps() * (q.bucket_count() as u64) * 1_000_000;
        q.push(Time::from_ps(far), 1000, 7);
        assert_eq!(q.overflow_len(), 1, "beyond the horizon: parked");
        for i in 0..100u32 {
            assert_eq!(q.pop().map(|(_, _, e)| e), Some(i));
        }
        // The jump (or small-mode collapse) serves the far event at its
        // exact time rather than rotating millions of windows.
        let (t, _, e) = q.pop().unwrap();
        assert_eq!((t.ps(), e), (far, 7));
        assert_eq!(q.overflow_len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn small_mode_hysteresis_graduates_and_collapses() {
        let mut q = CalendarQueue::new();
        // Below SMALL_MAX: everything lives in the sorted small vec.
        for i in 0..SMALL_MAX as u64 {
            q.push(Time::from_ps(i * 1000), i + 1, i as u32);
        }
        assert_eq!(q.overflow_len(), 0);
        let before = q.bucket_count();
        // Crossing SMALL_MAX graduates to the ring...
        q.push(Time::from_ps(999_999), 1000, 999);
        assert_eq!(q.len(), SMALL_MAX + 1);
        // ...and draining below SMALL_MIN collapses back; order holds
        // across both transitions.
        let mut last = (0u64, 0u64);
        let mut popped = 0;
        while let Some((t, s, _)) = q.pop() {
            assert!((t.ps(), s) > last, "order broke across mode changes");
            last = (t.ps(), s);
            popped += 1;
        }
        assert_eq!(popped, SMALL_MAX + 1);
        assert_eq!(q.bucket_count(), before, "ring storage is retained");
    }

    #[test]
    fn time_max_sentinels_are_served() {
        let mut q = CalendarQueue::new();
        q.push(Time::MAX, 1, 1);
        q.push(Time::MAX, 2, 2);
        q.push(Time::from_ps(5), 3, 3);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn storm_triggers_growth_and_drain_triggers_shrink() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.bucket_count(), MIN_BUCKETS);
        for i in 0..10_000u64 {
            q.push(Time::from_ps(i * 37 % 1_000_000), i + 1, i as u32);
        }
        assert!(q.bucket_count() > MIN_BUCKETS, "storm grew the ring");
        let grown = q.bucket_count();
        let mut last = (0, 0);
        for _ in 0..10_000 {
            let (t, s, _) = q.pop().unwrap();
            assert!((t.ps(), s) > last, "order broke during resizes");
            last = (t.ps(), s);
        }
        assert!(q.is_empty());
        assert!(q.bucket_count() < grown, "drain shrank the ring");
    }

    #[test]
    fn far_outlier_does_not_poison_bucket_width() {
        let mut q = CalendarQueue::new();
        // One timer ~1 s out over a dense ~1 µs burst: the width must
        // track the dense core, not the full min–max span (otherwise
        // every near-term event collapses into one bucket).
        q.push(Time::from_us(1_000_000), 1, 0);
        for i in 0..5000u64 {
            q.push(Time::from_ps(i * 200), i + 2, i as u32);
        }
        assert!(
            q.bucket_width_ps() < 10_000,
            "width poisoned by the outlier: {} ps",
            q.bucket_width_ps()
        );
        let mut last = 0u64;
        let mut n = 0;
        while let Some((t, _, _)) = q.pop() {
            assert!(t.ps() >= last);
            last = t.ps();
            n += 1;
        }
        assert_eq!(n, 5001);
    }

    #[test]
    fn repeated_peeks_hit_the_cached_minimum() {
        let mut q = CalendarQueue::new();
        // Grow well past small mode so peeks would otherwise scan the
        // ring, then drain most of it so the ring is sparse — the exact
        // shape the cached-minimum slot exists for.
        for i in 0..2_000u64 {
            q.push(Time::from_ps(i * 977), i + 1, i as u32);
        }
        for _ in 0..1_900 {
            q.pop().unwrap();
        }
        let min = q.peek_time().unwrap();
        let scans = q.peek_scans();
        for _ in 0..1_000 {
            assert_eq!(q.peek_time(), Some(min));
        }
        assert_eq!(q.peek_scans(), scans, "peek storm re-scanned the ring");

        // A push of an earlier time updates the cache in place (no scan)…
        let earlier = Time::from_ps(min.ps() - 1);
        q.push(earlier, 100_000, 7);
        assert_eq!(q.peek_time(), Some(earlier));
        // …a later push leaves the minimum alone…
        q.push(Time::from_ps(min.ps() + 500_000), 100_001, 8);
        assert_eq!(q.peek_time(), Some(earlier));
        assert_eq!(q.peek_scans(), scans, "pushes should not force scans");
        // …and a pop invalidates: the next peek recomputes correctly.
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, earlier);
        assert_eq!(q.peek_time(), Some(min));
        assert_eq!(q.peek_scans(), scans + 1, "exactly one recompute");
    }

    #[test]
    fn cached_peek_survives_mode_transitions() {
        // Graduate (small → ring) and collapse (ring → small) reshuffle
        // storage but never change the pending set, so peeks stay correct
        // across both — including the empty-queue edges.
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        for i in (0..(SMALL_MAX as u64 + 20)).rev() {
            q.push(Time::from_ps(i * 131 + 7), 1000 - i, i as u32);
            assert_eq!(q.peek_time(), Some(Time::from_ps(i * 131 + 7)));
        }
        let mut last = 0;
        while let Some((t, _, _)) = q.pop() {
            assert!(t.ps() >= last);
            last = t.ps();
            assert_eq!(q.peek_time().is_none(), q.is_empty());
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_matches_pop_without_mutation() {
        let mut q = CalendarQueue::new();
        for i in 0..100u64 {
            q.push(Time::from_ps((i * 7919) % 5_000), i, i as u32);
        }
        while !q.is_empty() {
            let peeked = q.peek_time().unwrap();
            let before = q.len();
            let (t, _, _) = q.pop().unwrap();
            assert_eq!(peeked, t);
            assert_eq!(q.len(), before - 1);
        }
        assert!(q.peek_time().is_none());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // A quick in-crate differential check (the heavyweight adversarial
        // version lives in tests/queue_equivalence.rs).
        use crate::engine::HeapQueue;
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut seq = 0u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut clock = 0u64;
        for round in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if round % 3 < 2 {
                let dt = x % 50_000;
                seq += 1;
                cal.push(Time::from_ps(clock + dt), seq, round as u32);
                heap.push(Time::from_ps(clock + dt), seq, round as u32);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "backends diverged at round {round}");
                if let Some((t, _, _)) = a {
                    clock = t.ps();
                }
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
