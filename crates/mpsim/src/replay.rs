//! In-flight message replay log for localized recovery.
//!
//! Each rank keeps a bounded ring of the messages *delivered to it* since
//! its last checkpoint, point-to-point or inside a collective: the
//! sender, tag, the sender's sequence number for the message (its send
//! count, as the envelope carries it), the receiver's own send count at
//! delivery, payload length, and the payload's FNV-1a checksum. The log
//! answers the question a localized-recovery supervisor asks after a
//! single-rank failure — "what traffic does the failed rank have to
//! re-derive to catch back up to the surviving ranks' horizon?" — without
//! holding the payload bytes themselves (the replay re-executes the
//! deterministic rank body from the checkpoint, so coordinates are all
//! that is needed to size and charge the replay): the entries its program
//! received before its faulted send ([`ReplayLog::len_within`]), not the
//! more a live culprit may log before the failure reaches it.
//!
//! The log is shared [`ReplayLog`]-handle-style exactly like
//! [`crate::FaultPlan`]: clones see the same rings, so the supervisor
//! that installed the log in [`crate::SimOptions::replay`] can read the
//! failed rank's ring after the run dies. Writes are charged a small
//! virtual-time cost on the receiving rank (see
//! [`ReplayLog::WRITE_OPS`]) — durability is not free, and the
//! report's R-standby gates compare recovery times across policies
//! honestly only if the logging tax is on the books.
//!
//! Rings are truncated by [`crate::SpmdComm::replay_truncate`] (called by
//! the checkpoint publisher) — entries older than the last checkpoint
//! can never need replaying. When a ring overflows its capacity the
//! oldest entry is evicted and counted: an eviction since the last
//! checkpoint means the log no longer covers the full gap, and the
//! supervisor must fall back to a full restart for correctness.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Coordinates of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEntry {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// The sender's sequence number for the message: its per-rank send
    /// count, 1-based, across all destinations.
    pub seq: u64,
    /// The receiving rank's own send count when the message was
    /// delivered: where in the receiver's program the delivery falls.
    pub at: u64,
    /// FNV-1a checksum of the payload bytes (0 when the sender did not
    /// stamp one).
    pub checksum: u64,
    /// Payload length in bytes.
    pub len: usize,
}

#[derive(Debug, Default)]
struct Ring {
    entries: VecDeque<ReplayEntry>,
    /// Entries evicted by capacity pressure since the last truncate.
    evicted: u64,
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    /// One ring per rank, grown on first use.
    rings: Mutex<Vec<Ring>>,
}

/// Shared handle to the per-rank delivery rings (see the module docs).
/// Clones share state, like [`crate::FaultPlan`].
#[derive(Debug, Clone)]
pub struct ReplayLog {
    inner: Arc<Inner>,
}

impl ReplayLog {
    /// Abstract compute ops charged on the receiving rank per logged
    /// entry (a bounded-ring append of five words).
    pub const WRITE_OPS: u64 = 4;

    /// A log whose per-rank rings hold at most `capacity` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        ReplayLog {
            inner: Arc::new(Inner { capacity: capacity.max(1), rings: Mutex::new(Vec::new()) }),
        }
    }

    /// Ring capacity per rank.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    fn with_ring<R>(&self, rank: usize, f: impl FnOnce(&mut Ring) -> R) -> R {
        // lint:allow(unwrap): mutex poisoning only follows another panic
        let mut rings = self.inner.rings.lock().expect("replay log lock");
        if rings.len() <= rank {
            rings.resize_with(rank + 1, Ring::default);
        }
        f(&mut rings[rank])
    }

    /// Append a delivered message's coordinates to `rank`'s ring,
    /// evicting the oldest entry at capacity.
    pub fn record(&self, rank: usize, entry: ReplayEntry) {
        let capacity = self.inner.capacity;
        self.with_ring(rank, |ring| {
            if ring.entries.len() == capacity {
                ring.entries.pop_front();
                ring.evicted += 1;
            }
            ring.entries.push_back(entry);
        });
    }

    /// Drop everything logged for `rank` (its checkpoint just made the
    /// entries unnecessary) and clear its eviction count.
    pub fn truncate(&self, rank: usize) {
        self.with_ring(rank, |ring| {
            ring.entries.clear();
            ring.evicted = 0;
        });
    }

    /// Entries logged for `rank` that were delivered while it had sent at
    /// most `sent` messages: the part of its ring its program fixes
    /// before its send `sent + 1`, whatever the run order of the ranks.
    pub fn len_within(&self, rank: usize, sent: u64) -> usize {
        self.with_ring(rank, |ring| ring.entries.iter().filter(|e| e.at <= sent).count())
    }

    /// Entries evicted from `rank`'s ring since its last truncate. A
    /// non-zero count means the ring no longer covers the gap back to
    /// the checkpoint.
    pub fn evicted(&self, rank: usize) -> u64 {
        self.with_ring(rank, |ring| ring.evicted)
    }

    /// Snapshot of `rank`'s ring, oldest first.
    pub fn snapshot(&self, rank: usize) -> Vec<ReplayEntry> {
        self.with_ring(rank, |ring| ring.entries.iter().copied().collect())
    }

    /// Clear every ring (a fresh recovery epoch).
    pub fn reset(&self) {
        // lint:allow(unwrap): mutex poisoning only follows another panic
        let mut rings = self.inner.rings.lock().expect("replay log lock");
        rings.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(src: usize, seq: u64) -> ReplayEntry {
        ReplayEntry { src, tag: 7, seq, at: seq, checksum: 0xFEED, len: 24 }
    }

    #[test]
    fn records_in_order_and_snapshots() {
        let log = ReplayLog::new(8);
        log.record(2, e(0, 1));
        log.record(2, e(1, 1));
        assert_eq!(log.snapshot(2).len(), 2);
        assert_eq!(log.snapshot(0).len(), 0);
        let snap = log.snapshot(2);
        assert_eq!(snap[0].src, 0);
        assert_eq!(snap[1].src, 1);
        assert_eq!(log.evicted(2), 0);
    }

    #[test]
    fn len_within_counts_what_the_receivers_sends_fix() {
        let log = ReplayLog::new(8);
        for at in [0, 0, 1, 3] {
            log.record(2, ReplayEntry { at, ..e(0, 1) });
        }
        assert_eq!(log.len_within(2, 0), 2);
        assert_eq!(log.len_within(2, 2), 3);
        assert_eq!(log.len_within(2, u64::MAX), 4);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        let log = ReplayLog::new(3);
        for seq in 1..=5 {
            log.record(0, e(1, seq));
        }
        assert_eq!(log.snapshot(0).len(), 3);
        assert_eq!(log.evicted(0), 2);
        let snap = log.snapshot(0);
        assert_eq!(snap.iter().map(|x| x.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn truncate_clears_entries_and_evictions() {
        let log = ReplayLog::new(2);
        for seq in 1..=4 {
            log.record(1, e(0, seq));
        }
        assert_eq!(log.evicted(1), 2);
        log.truncate(1);
        assert!(log.snapshot(1).is_empty());
        assert_eq!(log.evicted(1), 0);
        // Other ranks' rings are untouched by a per-rank truncate.
        log.record(0, e(1, 9));
        log.truncate(1);
        assert_eq!(log.snapshot(0).len(), 1);
    }

    #[test]
    fn clones_share_the_rings() {
        let log = ReplayLog::new(4);
        let alias = log.clone();
        alias.record(3, e(0, 1));
        assert_eq!(log.snapshot(3).len(), 1);
        log.reset();
        assert!(alias.snapshot(3).is_empty());
    }
}
