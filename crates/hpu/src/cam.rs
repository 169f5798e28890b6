//! The channel CAM: fast context lookup for non-header packets.
//!
//! §4.2: "Messages are matched in hardware and only header packets search
//! the full matching queue. A matched header packet will install a channel
//! into a fast content-addressable memory (CAM) for the remaining packets.
//! We assume that matching a header packet takes 30 ns and each following
//! packet takes 2 ns for the CAM lookup."
//!
//! The CAM is generic over the channel payload `T` — the NIC runtime in
//! `spin-core` stores its per-message processing state there. Capacity is
//! bounded like real CAMs; insertion fails when full, which the runtime
//! treats like a flow-control condition.

use std::collections::HashMap;

/// A bounded content-addressable channel table keyed by message id.
#[derive(Debug, Clone)]
pub struct Cam<T> {
    channels: HashMap<u64, T>,
    capacity: usize,
    installs: u64,
    hits: u64,
    misses: u64,
}

impl<T> Cam<T> {
    /// A CAM holding up to `capacity` concurrent channels.
    ///
    /// The backing table starts empty and allocates on its first install:
    /// `capacity` is the architectural bound, not a preallocation. Even 16
    /// slots of channel state per NIC cost 6.5 MiB on a 1,024-node world,
    /// most of whose NICs never install a channel.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CAM capacity must be positive");
        Cam {
            channels: HashMap::new(),
            capacity,
            installs: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Install a channel for `msg_id`. Returns `Err(state)` when the CAM is
    /// full (caller handles it as flow control) or the id is already present
    /// (a model bug).
    pub fn install(&mut self, msg_id: u64, state: T) -> Result<(), T> {
        if self.channels.len() >= self.capacity || self.channels.contains_key(&msg_id) {
            return Err(state);
        }
        self.channels.insert(msg_id, state);
        self.installs += 1;
        Ok(())
    }

    /// Look up the channel for a follow-on packet.
    pub fn lookup(&mut self, msg_id: u64) -> Option<&mut T> {
        match self.channels.get_mut(&msg_id) {
            Some(t) => {
                self.hits += 1;
                Some(t)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without counting a hit (assertions/tests).
    pub fn peek(&self, msg_id: u64) -> Option<&T> {
        self.channels.get(&msg_id)
    }

    /// Remove a channel when its message completes.
    pub fn evict(&mut self, msg_id: u64) -> Option<T> {
        self.channels.remove(&msg_id)
    }

    /// Iterate over the installed channels (order unspecified) — the
    /// receiver-side drain check scans these for channels still assembling
    /// on a flow-controlled portal table entry.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.channels.values()
    }

    /// Channels currently installed.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no channels are installed.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Lifetime install count.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses (packets whose channel was dropped/evicted).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_evict() {
        let mut cam: Cam<u32> = Cam::new(4);
        cam.install(10, 7).unwrap();
        assert_eq!(*cam.lookup(10).unwrap(), 7);
        *cam.lookup(10).unwrap() = 8;
        assert_eq!(cam.evict(10), Some(8));
        assert!(cam.lookup(10).is_none());
        assert_eq!(cam.hits(), 2);
        assert_eq!(cam.misses(), 1);
    }

    #[test]
    fn capacity_bound() {
        let mut cam: Cam<()> = Cam::new(2);
        cam.install(1, ()).unwrap();
        cam.install(2, ()).unwrap();
        assert!(cam.install(3, ()).is_err());
        cam.evict(1);
        assert!(cam.install(3, ()).is_ok());
        assert_eq!(cam.len(), 2);
    }

    #[test]
    fn duplicate_install_rejected() {
        let mut cam: Cam<u8> = Cam::new(4);
        cam.install(5, 1).unwrap();
        assert_eq!(cam.install(5, 2), Err(2));
        assert_eq!(*cam.peek(5).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: Cam<()> = Cam::new(0);
    }
}
