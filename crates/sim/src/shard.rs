//! Per-shard pending-event store for the conservative-parallel engine.
//!
//! A [`ShardQueue`] holds one shard's pending events keyed by
//! `(time, key)`, where `key` is a globally-assigned sequence number (or a
//! shard-temporary key while a window is still executing — see
//! spin-core's shard coordinator). Unlike
//! [`EventQueue`](crate::engine::EventQueue), which owns its sequence
//! counter and therefore its local notion of tie-breaking, a `ShardQueue`
//! is deliberately dumb: the coordinator decides every key, because
//! same-time ties must break in the *global* serial order, not in
//! per-shard insertion order.
//!
//! A `BTreeMap` (not a heap) backs it because the merge step needs one
//! operation a heap cannot do cheaply: [`ShardQueue::rekey`], which
//! upgrades a window-temporary key to its final global sequence number in
//! place.

use crate::time::Time;
use std::collections::BTreeMap;

/// A `(time, key)`-ordered pending-event store with externally-owned keys.
#[derive(Debug)]
pub struct ShardQueue<E> {
    map: BTreeMap<(Time, u64), E>,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        ShardQueue {
            map: BTreeMap::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Store `event` under `(time, key)`.
    ///
    /// # Panics
    /// Panics if the slot is already occupied — keys are globally unique,
    /// so a collision is always a coordinator bug.
    pub fn push(&mut self, time: Time, key: u64, event: E) {
        let prior = self.map.insert((time, key), event);
        assert!(prior.is_none(), "duplicate shard-queue key {key} at {time}");
    }

    /// The earliest pending time, without removing anything.
    pub fn min_time(&self) -> Option<Time> {
        self.map.keys().next().map(|&(t, _)| t)
    }

    /// Remove and return the earliest `(time, key)` event.
    pub fn pop_first(&mut self) -> Option<(Time, u64, E)> {
        self.map.pop_first().map(|((t, k), ev)| (t, k, ev))
    }

    /// Re-file the event at `(time, old_key)` under `(time, new_key)` —
    /// the merge step assigning a pending event its global sequence number.
    ///
    /// # Panics
    /// Panics if no event is stored under `(time, old_key)`.
    pub fn rekey(&mut self, time: Time, old_key: u64, new_key: u64) {
        let ev = self
            .map
            .remove(&(time, old_key))
            .unwrap_or_else(|| panic!("rekey of absent key {old_key} at {time}"));
        self.push(time, new_key, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_key() {
        let mut q = ShardQueue::new();
        q.push(Time::from_ns(10), 7, 'b');
        q.push(Time::from_ns(10), 3, 'a');
        q.push(Time::from_ns(5), 9, 'z');
        assert_eq!(q.min_time(), Some(Time::from_ns(5)));
        assert_eq!(q.pop_first(), Some((Time::from_ns(5), 9, 'z')));
        assert_eq!(q.pop_first(), Some((Time::from_ns(10), 3, 'a')));
        assert_eq!(q.pop_first(), Some((Time::from_ns(10), 7, 'b')));
        assert_eq!(q.pop_first(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn rekey_moves_an_event_to_its_global_seq() {
        let mut q = ShardQueue::new();
        let temp = (1 << 63) | 1;
        q.push(Time::from_ns(10), temp, 'x');
        q.push(Time::from_ns(10), 4, 'y');
        // Temp keys sort after any global seq; after rekeying to 2 the
        // event moves ahead of key 4 at the same instant.
        q.rekey(Time::from_ns(10), temp, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_first(), Some((Time::from_ns(10), 2, 'x')));
        assert_eq!(q.pop_first(), Some((Time::from_ns(10), 4, 'y')));
    }

    #[test]
    #[should_panic(expected = "duplicate shard-queue key")]
    fn duplicate_keys_panic() {
        let mut q = ShardQueue::new();
        q.push(Time::from_ns(1), 1, 'a');
        q.push(Time::from_ns(1), 1, 'b');
    }

    #[test]
    #[should_panic(expected = "rekey of absent key")]
    fn rekey_of_missing_event_panics() {
        let mut q: ShardQueue<char> = ShardQueue::new();
        q.rekey(Time::from_ns(1), 1, 2);
    }
}
