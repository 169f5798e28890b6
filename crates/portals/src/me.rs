//! Matching entries and match lists (§3.1).
//!
//! A matched Portals interface directs each incoming message to the first
//! matching entry (ME) in the priority list of the addressed portal-table
//! entry; if none matches, the overflow list is searched; if that fails too,
//! the interface enters flow control. MEs carry 64-bit match bits with an
//! ignore mask and an optional source filter, identify a slice of host
//! memory, and may be persistent or `USE_ONCE`, with initiator-specified or
//! locally-managed offsets.
//!
//! The sPIN extension (§3.2, Appendix B.1) attaches up to three handler
//! references and an HPU-memory handle to an ME; here those are opaque ids
//! resolved by the NIC runtime in `spin-core`.

use crate::types::{MatchBits, ProcessId, ANY_PROCESS};

/// Handle to an appended matching entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeHandle(pub u64);

/// Which list an ME was appended to / matched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Searched first, in append order.
    Priority,
    /// Searched if the priority list has no match (unexpected messages).
    Overflow,
}

/// ME behaviour options (subset of `PTL_ME_*`). Every ME accepts both put
/// and get operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeOptions {
    /// Unlink after the first match.
    pub use_once: bool,
    /// Locally-managed offset: incoming data packs at the ME's own cursor
    /// rather than the initiator-specified offset.
    pub manage_local: bool,
}

impl MeOptions {
    /// A one-shot receive buffer (the common MPI receive shape).
    pub fn use_once() -> Self {
        MeOptions {
            use_once: true,
            ..Default::default()
        }
    }

    /// A persistent, locally-managed buffer (e.g. an unexpected-message
    /// landing zone).
    pub fn managed_overflow() -> Self {
        MeOptions {
            use_once: false,
            manage_local: true,
        }
    }
}

/// Reference to sPIN handlers installed on an ME (opaque to this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerRef(pub u32);

/// A matching entry.
#[derive(Debug, Clone)]
pub struct MatchEntry {
    /// Handle assigned at append time.
    pub handle: MeHandle,
    /// Match bits compared against the header.
    pub match_bits: MatchBits,
    /// Bits to ignore in the comparison (1 = ignored).
    pub ignore_bits: MatchBits,
    /// Only accept messages from this process (`ANY_PROCESS` = wildcard).
    pub source: ProcessId,
    /// Start offset of the ME's memory region in host memory.
    pub start: usize,
    /// Length of the memory region.
    pub length: usize,
    /// Behaviour flags.
    pub options: MeOptions,
    /// Locally-managed offset cursor (bytes consumed so far).
    pub local_offset: usize,
    /// Counting event attached to this ME, if any.
    pub ct: Option<u32>,
    /// sPIN handler set attached to this ME, if any (P4sPIN extension).
    pub handlers: Option<HandlerRef>,
    /// Handle of the HPU memory the handlers run in.
    pub hpu_memory: Option<u32>,
    /// Auxiliary handler host-memory window (`handler_host_mem_start` /
    /// `handler_host_mem_length` of Appendix B.1): absolute base and length.
    pub handler_mem: (usize, usize),
    /// Opaque user pointer returned in events.
    pub user_ptr: u64,
    /// Simulated time (ps) at which the append *takes effect* on the NIC.
    /// `PtlMEAppend` costs host-core time; until the charged call
    /// completes, headers must not see this entry (`0` = always active).
    pub active_at: u64,
}

impl MatchEntry {
    /// Does this ME accept a message with the given bits/source?
    pub fn matches(&self, bits: MatchBits, source: ProcessId) -> bool {
        let bits_ok = (bits ^ self.match_bits) & !self.ignore_bits == 0;
        let src_ok = self.source == ANY_PROCESS || self.source == source;
        bits_ok && src_ok
    }
}

/// Outcome of presenting a header to a match list.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The matched entry's handle.
    pub handle: MeHandle,
    /// Which list it sat on.
    pub list: ListKind,
    /// Byte offset within the ME region where the message lands.
    pub dest_offset: usize,
    /// Bytes accepted (message truncated to the ME region).
    pub mlength: usize,
    /// Whether the entry was unlinked by this match (USE_ONCE).
    pub unlinked: bool,
    /// Snapshot of the matched entry at match time — needed because a
    /// USE_ONCE entry is already unlinked when the caller sees this outcome.
    pub entry: MatchEntry,
}

/// A portal-table entry's pair of ME lists.
#[derive(Debug, Clone, Default)]
pub struct MatchList {
    priority: Vec<MatchEntry>,
    overflow: Vec<MatchEntry>,
    next_handle: u64,
}

impl MatchList {
    /// Empty lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry, returning its handle. `list` selects priority or
    /// overflow; entries are searched in append order.
    pub fn append(&mut self, mut me: MatchEntry, list: ListKind) -> MeHandle {
        self.next_handle += 1;
        let handle = MeHandle(self.next_handle);
        me.handle = handle;
        match list {
            ListKind::Priority => self.priority.push(me),
            ListKind::Overflow => self.overflow.push(me),
        }
        handle
    }

    /// Number of entries across both lists.
    pub fn len(&self) -> usize {
        self.priority.len() + self.overflow.len()
    }

    /// Whether any entry carries sPIN handlers — i.e. the portal table
    /// entry is NIC-managed: the NIC can recover it from flow control
    /// locally (drain HPU contexts, re-enable), whereas a plain Portals
    /// entry is ULP-managed and only `PtlPTEnable` from the host may
    /// re-open it (§3.2).
    pub fn has_handler_entry(&self) -> bool {
        self.priority
            .iter()
            .chain(self.overflow.iter())
            .any(|e| e.handlers.is_some())
    }

    /// Whether both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.priority.is_empty() && self.overflow.is_empty()
    }

    /// Entries searched when the *header* packet of a message arrives (the
    /// paper: "only header packets search the full matching queue"). The
    /// returned count is what the 30 ns header-match cost covers; follow-on
    /// packets hit the CAM instead. `now_ps` is the match time: entries
    /// whose append has not yet taken effect (`active_at > now_ps`) are
    /// invisible, exactly as on hardware where `PtlMEAppend` completes
    /// only after the host call returns.
    pub fn match_header(
        &mut self,
        bits: MatchBits,
        source: ProcessId,
        rlength: usize,
        req_offset: usize,
        now_ps: u64,
    ) -> Option<MatchOutcome> {
        for list in [ListKind::Priority, ListKind::Overflow] {
            let entries = match list {
                ListKind::Priority => &mut self.priority,
                ListKind::Overflow => &mut self.overflow,
            };
            if let Some(pos) = entries
                .iter()
                .position(|e| e.active_at <= now_ps && e.matches(bits, source))
            {
                let me = &mut entries[pos];
                let dest_offset = if me.options.manage_local {
                    me.local_offset
                } else {
                    req_offset
                };
                let room = me.length.saturating_sub(dest_offset);
                let mlength = rlength.min(room);
                if me.options.manage_local {
                    me.local_offset += mlength;
                }
                let handle = me.handle;
                let unlinked = me.options.use_once;
                let entry = me.clone();
                if unlinked {
                    entries.remove(pos);
                }
                return Some(MatchOutcome {
                    handle,
                    list,
                    dest_offset,
                    mlength,
                    unlinked,
                    entry,
                });
            }
        }
        None
    }

    /// Explicitly unlink an entry (PtlMEUnlink). Returns whether it existed.
    pub fn unlink(&mut self, handle: MeHandle) -> bool {
        if let Some(pos) = self.priority.iter().position(|e| e.handle == handle) {
            self.priority.remove(pos);
            return true;
        }
        if let Some(pos) = self.overflow.iter().position(|e| e.handle == handle) {
            self.overflow.remove(pos);
            return true;
        }
        false
    }
}

/// Convenience constructor for a plain receive ME.
pub fn simple_me(
    match_bits: MatchBits,
    ignore_bits: MatchBits,
    source: ProcessId,
    start: usize,
    length: usize,
    options: MeOptions,
) -> MatchEntry {
    MatchEntry {
        handle: MeHandle(0),
        match_bits,
        ignore_bits,
        source,
        start,
        length,
        options,
        local_offset: 0,
        ct: None,
        handlers: None,
        hpu_memory: None,
        handler_mem: (0, 0),
        user_ptr: 0,
        active_at: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me(bits: MatchBits, ignore: MatchBits) -> MatchEntry {
        simple_me(bits, ignore, ANY_PROCESS, 0, 1 << 20, MeOptions::default())
    }

    #[test]
    fn exact_match() {
        let mut l = MatchList::new();
        l.append(me(42, 0), ListKind::Priority);
        assert!(l.match_header(42, 0, 100, 0, 0).is_some());
        assert!(l.match_header(43, 0, 100, 0, 0).is_none());
    }

    #[test]
    fn ignore_bits_mask() {
        let mut l = MatchList::new();
        // Match on the low 32 bits only.
        l.append(me(0x0000_0001, 0xFFFF_FFFF_0000_0000), ListKind::Priority);
        assert!(l.match_header(0xABCD_0000_0000_0001, 7, 10, 0, 0).is_some());
    }

    #[test]
    fn source_filter_and_wildcard() {
        let mut l = MatchList::new();
        let mut e = me(5, 0);
        e.source = 3;
        l.append(e, ListKind::Priority);
        assert!(l.match_header(5, 4, 10, 0, 0).is_none());
        assert!(l.match_header(5, 3, 10, 0, 0).is_some());
    }

    #[test]
    fn priority_before_overflow_in_append_order() {
        let mut l = MatchList::new();
        let h_over = l.append(me(1, 0), ListKind::Overflow);
        let h_pri1 = l.append(me(1, 0), ListKind::Priority);
        let _h_pri2 = l.append(me(1, 0), ListKind::Priority);
        let m = l.match_header(1, 0, 10, 0, 0).unwrap();
        assert_eq!(m.handle, h_pri1);
        assert_eq!(m.list, ListKind::Priority);
        // Drain priority list; overflow matches next.
        l.unlink(h_pri1);
        let m2 = l.match_header(1, 0, 10, 0, 0).unwrap();
        assert_ne!(m2.handle, h_over); // h_pri2 still in front
        l.unlink(m2.handle);
        let m3 = l.match_header(1, 0, 10, 0, 0).unwrap();
        assert_eq!(m3.list, ListKind::Overflow);
    }

    #[test]
    fn use_once_unlinks() {
        let mut l = MatchList::new();
        let mut e = me(9, 0);
        e.options = MeOptions::use_once();
        l.append(e, ListKind::Priority);
        let m = l.match_header(9, 0, 10, 0, 0).unwrap();
        assert!(m.unlinked);
        assert!(l.match_header(9, 0, 10, 0, 0).is_none());
        assert!(l.is_empty());
    }

    #[test]
    fn locally_managed_offset_packs() {
        let mut l = MatchList::new();
        let mut e = me(1, 0);
        e.options = MeOptions::managed_overflow();
        e.length = 10_000;
        l.append(e, ListKind::Priority);
        let a = l.match_header(1, 0, 4000, 999, 0).unwrap();
        let b = l.match_header(1, 0, 4000, 999, 0).unwrap();
        // Requested offset ignored; data packs back to back.
        assert_eq!(a.dest_offset, 0);
        assert_eq!(b.dest_offset, 4000);
        // Third message truncates at the region end.
        let c = l.match_header(1, 0, 4000, 0, 0).unwrap();
        assert_eq!(c.dest_offset, 8000);
        assert_eq!(c.mlength, 2000);
    }

    #[test]
    fn initiator_offset_respected_without_manage_local() {
        let mut l = MatchList::new();
        l.append(me(1, 0), ListKind::Priority);
        let m = l.match_header(1, 0, 100, 512, 0).unwrap();
        assert_eq!(m.dest_offset, 512);
        assert_eq!(m.mlength, 100);
    }

    #[test]
    fn truncation_to_region() {
        let mut l = MatchList::new();
        let mut e = me(1, 0);
        e.length = 64;
        l.append(e, ListKind::Priority);
        let m = l.match_header(1, 0, 100, 0, 0).unwrap();
        assert_eq!(m.mlength, 64);
    }

    #[test]
    fn entries_are_invisible_before_active_at() {
        let mut l = MatchList::new();
        let mut early = me(1, 0);
        early.active_at = 500;
        l.append(early, ListKind::Priority);
        // Before the append takes effect the header misses...
        assert!(l.match_header(1, 0, 10, 0, 499).is_none());
        // ...at/after it, it matches.
        assert!(l.match_header(1, 0, 10, 0, 500).is_some());
        // A not-yet-active entry is skipped in favor of a later active one.
        let mut pending = me(2, 0);
        pending.active_at = 1_000;
        l.append(pending, ListKind::Priority);
        let mut live = me(2, 0);
        live.active_at = 0;
        let h_live = l.append(live, ListKind::Priority);
        assert_eq!(l.match_header(2, 0, 10, 0, 600).unwrap().handle, h_live);
    }

    #[test]
    fn unlink_and_search() {
        let mut l = MatchList::new();
        let h = l.append(me(7, 0), ListKind::Priority);
        assert!(l.unlink(h));
        assert!(!l.unlink(h));
        assert!(l.is_empty());
    }
}
