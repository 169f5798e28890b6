//! The logical network interface (NI): portal table, counters, and flow
//! control.
//!
//! Flow control follows §3.2: when a message arrives and cannot be handled —
//! no matching ME, or (for sPIN) no HPU execution contexts — the portal
//! table entry is disabled and subsequent messages to it are dropped until
//! the host re-enables it (PtlPTEnable). The NIC model notifies the host
//! with a `PtDisabled` full event.

use crate::ct::{CtHandle, CtTable, TriggeredAction, TriggeredOp};
use crate::me::{ListKind, MatchEntry, MatchList, MatchOutcome, MeHandle};
use crate::types::{MatchBits, ProcessId};

/// Portal table index.
pub type PtIndex = u32;

/// Maximum MEs across one NI's portal table (`max_entries` of the Portals
/// NI limits).
pub const MAX_ENTRIES: usize = 1 << 16;

/// One portal-table entry: a match list plus flow-control state.
#[derive(Debug, Clone)]
pub struct PortalTableEntry {
    /// The ME lists.
    pub match_list: MatchList,
    /// Whether the entry accepts messages (false = flow control active).
    pub enabled: bool,
    /// Simulated time (ps) at which the most recent `PtlPTEnable` takes
    /// effect: the host call costs core time, so headers arriving before
    /// this instant still see the entry disabled (`0` = since forever).
    pub enabled_at: u64,
}

/// Result of presenting a message header to the NI.
#[derive(Debug, Clone)]
pub enum HeaderDisposition {
    /// Matched an ME; carry on processing the message.
    Matched(Box<MatchOutcome>),
    /// No ME matched: the entry enters flow control, the message is dropped.
    FlowControl,
    /// The entry was already disabled: message dropped silently.
    Dropped,
}

/// The NI state machine.
#[derive(Debug, Clone)]
pub struct PortalsNi {
    pts: Vec<PortalTableEntry>,
    cts: CtTable,
}

impl PortalsNi {
    /// An NI with `num_pts` portal-table entries, all enabled and empty.
    pub fn new(num_pts: usize) -> Self {
        PortalsNi {
            pts: (0..num_pts)
                .map(|_| PortalTableEntry {
                    match_list: MatchList::new(),
                    enabled: true,
                    enabled_at: 0,
                })
                .collect(),
            cts: CtTable::new(),
        }
    }

    // ---- portal table ----

    /// Re-enable an entry after flow control (PtlPTEnable), effective
    /// immediately. NIC-local re-enables (the drain policy) use this.
    pub fn pt_enable(&mut self, pt: PtIndex) {
        self.pts[pt as usize].enabled = true;
        self.pts[pt as usize].enabled_at = 0;
    }

    /// Re-enable an entry effective at `at_ps`: headers matched before
    /// that instant still see it disabled. Host-issued `PtlPTEnable` uses
    /// this so the charged call latency is NIC-visible.
    pub fn pt_enable_at(&mut self, pt: PtIndex, at_ps: u64) {
        self.pts[pt as usize].enabled = true;
        self.pts[pt as usize].enabled_at = at_ps;
    }

    /// Disable an entry (PtlPTDisable).
    pub fn pt_disable(&mut self, pt: PtIndex) {
        self.pts[pt as usize].enabled = false;
    }

    /// Whether an entry is accepting messages.
    pub fn pt_enabled(&self, pt: PtIndex) -> bool {
        self.pts[pt as usize].enabled
    }

    // ---- matching ----

    /// Append an ME (PtlMEAppend). Fails when [`MAX_ENTRIES`] is exhausted —
    /// symmetric to the flow-control situation, §3.2.
    pub fn me_append(
        &mut self,
        pt: PtIndex,
        me: MatchEntry,
        list: ListKind,
    ) -> Result<MeHandle, &'static str> {
        let total: usize = self.pts.iter().map(|p| p.match_list.len()).sum();
        if total >= MAX_ENTRIES {
            return Err("NI match-entry limit exhausted");
        }
        Ok(self.pts[pt as usize].match_list.append(me, list))
    }

    /// Unlink an ME by handle.
    pub fn me_unlink(&mut self, pt: PtIndex, h: MeHandle) -> bool {
        self.pts[pt as usize].match_list.unlink(h)
    }

    /// Number of MEs on an entry.
    pub fn me_count(&self, pt: PtIndex) -> usize {
        self.pts[pt as usize].match_list.len()
    }

    /// Whether the entry is NIC-managed (some ME carries sPIN handlers):
    /// only such entries may be re-enabled by the NIC's drain-and-re-enable
    /// policy; plain Portals entries wait for the host's `PtlPTEnable`.
    pub fn pt_spin_managed(&self, pt: PtIndex) -> bool {
        self.pts[pt as usize].match_list.has_handler_entry()
    }

    /// Present a message header to a portal-table entry at time `now_ps`.
    ///
    /// On a miss the entry is disabled (flow control). The time gates
    /// both the effective-enabled check (`enabled_at`) and ME visibility
    /// (`MatchEntry::active_at`): host actions whose charged call has not
    /// yet completed are invisible to the wire.
    pub fn deliver_header(
        &mut self,
        pt: PtIndex,
        bits: MatchBits,
        source: ProcessId,
        rlength: usize,
        req_offset: usize,
        now_ps: u64,
    ) -> HeaderDisposition {
        let entry = &mut self.pts[pt as usize];
        if !entry.enabled || now_ps < entry.enabled_at {
            return HeaderDisposition::Dropped;
        }
        match entry
            .match_list
            .match_header(bits, source, rlength, req_offset, now_ps)
        {
            Some(m) => HeaderDisposition::Matched(Box::new(m)),
            None => {
                entry.enabled = false;
                HeaderDisposition::FlowControl
            }
        }
    }

    // ---- counters ----

    /// Allocate a counter.
    pub fn ct_alloc(&mut self) -> CtHandle {
        self.cts.alloc()
    }

    /// Read a counter.
    pub fn ct_get(&self, h: CtHandle) -> crate::ct::CtEvent {
        self.cts.get(h)
    }

    /// Increment a counter, returning triggered actions to execute.
    #[must_use = "returned actions must be executed by the NIC"]
    pub fn ct_inc(&mut self, h: CtHandle, by: u64) -> Vec<TriggeredAction> {
        self.cts.inc(h, by)
    }

    /// Set a counter, returning triggered actions to execute.
    #[must_use = "returned actions must be executed by the NIC"]
    pub fn ct_set(&mut self, h: CtHandle, v: u64) -> Vec<TriggeredAction> {
        self.cts.set(h, v)
    }

    /// Attach a triggered op.
    #[must_use = "returned actions must be executed by the NIC"]
    pub fn ct_append_triggered(&mut self, h: CtHandle, op: TriggeredOp) -> Vec<TriggeredAction> {
        self.cts.append_triggered(h, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::{simple_me, MeOptions};
    use crate::types::ANY_PROCESS;

    fn ni() -> PortalsNi {
        PortalsNi::new(4)
    }

    #[test]
    fn match_and_flow_control() {
        let mut ni = ni();
        ni.me_append(
            0,
            simple_me(7, 0, ANY_PROCESS, 0, 4096, MeOptions::use_once()),
            ListKind::Priority,
        )
        .unwrap();
        // First message matches.
        let d = ni.deliver_header(0, 7, 1, 100, 0, 0);
        assert!(matches!(d, HeaderDisposition::Matched(_)));
        // Second finds nothing: flow control disables the entry.
        let d = ni.deliver_header(0, 7, 1, 100, 0, 0);
        assert!(matches!(d, HeaderDisposition::FlowControl));
        assert!(!ni.pt_enabled(0));
        // Third is dropped silently.
        let d = ni.deliver_header(0, 7, 1, 100, 0, 0);
        assert!(matches!(d, HeaderDisposition::Dropped));
        // Re-enable and repost: works again.
        ni.pt_enable(0);
        ni.me_append(
            0,
            simple_me(7, 0, ANY_PROCESS, 0, 4096, MeOptions::use_once()),
            ListKind::Priority,
        )
        .unwrap();
        assert!(matches!(
            ni.deliver_header(0, 7, 1, 100, 0, 0),
            HeaderDisposition::Matched(_)
        ));
    }

    #[test]
    fn pt_enable_at_defers_the_reenable() {
        let mut ni = ni();
        ni.pt_disable(0);
        ni.me_append(
            0,
            simple_me(7, 0, ANY_PROCESS, 0, 4096, MeOptions::default()),
            ListKind::Priority,
        )
        .unwrap();
        ni.pt_enable_at(0, 1_000);
        assert!(ni.pt_enabled(0));
        // A header racing the charged PtlPTEnable call still bounces...
        assert!(matches!(
            ni.deliver_header(0, 7, 1, 100, 0, 999),
            HeaderDisposition::Dropped
        ));
        // ...and one arriving at/after the effective instant matches.
        assert!(matches!(
            ni.deliver_header(0, 7, 1, 100, 0, 1_000),
            HeaderDisposition::Matched(_)
        ));
        // A NIC-local re-enable (drain policy) is immediate.
        ni.pt_disable(0);
        ni.pt_enable(0);
        assert!(matches!(
            ni.deliver_header(0, 7, 1, 100, 0, 0),
            HeaderDisposition::Matched(_)
        ));
    }

    #[test]
    fn entry_limit_enforced() {
        let mut ni = PortalsNi::new(1);
        for _ in 0..MAX_ENTRIES {
            ni.me_append(
                0,
                simple_me(1, 0, ANY_PROCESS, 0, 64, MeOptions::default()),
                ListKind::Priority,
            )
            .unwrap();
        }
        assert!(ni
            .me_append(
                0,
                simple_me(1, 0, ANY_PROCESS, 0, 64, MeOptions::default()),
                ListKind::Priority,
            )
            .is_err());
    }

    #[test]
    fn pts_are_independent() {
        let mut ni = ni();
        ni.me_append(
            1,
            simple_me(5, 0, ANY_PROCESS, 0, 64, MeOptions::default()),
            ListKind::Priority,
        )
        .unwrap();
        // PT 0 has nothing: flow control there...
        assert!(matches!(
            ni.deliver_header(0, 5, 0, 10, 0, 0),
            HeaderDisposition::FlowControl
        ));
        // ...but PT 1 still matches.
        assert!(matches!(
            ni.deliver_header(1, 5, 0, 10, 0, 0),
            HeaderDisposition::Matched(_)
        ));
    }

    #[test]
    fn counters_through_ni() {
        let mut ni = ni();
        let ct = ni.ct_alloc();
        let other = ni.ct_alloc();
        let none = ni.ct_append_triggered(
            ct,
            TriggeredOp {
                threshold: 1,
                action: TriggeredAction::CtInc {
                    ct: other,
                    increment: 2,
                },
            },
        );
        assert!(none.is_empty());
        let fired = ni.ct_inc(ct, 1);
        assert_eq!(fired.len(), 1);
        assert_eq!(ni.ct_get(ct).success, 1);
    }
}
