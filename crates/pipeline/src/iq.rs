//! The unified instruction queue (IQ).
//!
//! Holds dependency-wait state for up to `capacity` instructions across all
//! threads. Instructions are *retained after issue* until the execute stage
//! confirms they will not replay; the confirmation takes `iq_ex_stages +
//! confirm_feedback` cycles (the load-resolution loop delay) plus an extra
//! cycle to clear the entry — the IQ-pressure effect of paper §2.2.2.
//!
//! # Organization
//!
//! Entries live in a fixed slot arena with a free-list, so an entry's slot
//! number is stable for its whole IQ residency and the machine can reach
//! it in O(1) through the `iq_slot` hint stored on the dynamic
//! instruction. Two side structures keep the per-cycle scans off the
//! arena:
//!
//! - per-cluster *ready lists* (`(seq, slot)`, age-sorted) — the
//!   incrementally maintained set of issue-eligible waiting entries, so
//!   event-driven select takes each list's head.
//!
//! A confirmed entry's slot release is the machine's to schedule: it
//! queues `(slot, seq)` for the cycle the slot frees and calls
//! [`IssueQueue::release`] when that cycle arrives. Squashes clear slots
//! in place; a release record for a squashed entry is recognized (and
//! skipped) by the entry's unique `seq`. Steady-state operation allocates
//! nothing: the arena, free-list and ready lists all retain their
//! high-water capacity.

use crate::dyninst::InstId;
use std::collections::VecDeque;

/// Wait-state of one IQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IqState {
    /// Waiting for operands.
    Waiting,
    /// Issued speculatively; retained in case of replay.
    Issued,
    /// Confirmed by execute; the slot frees when the machine's release
    /// event for it falls due.
    Confirmed,
}

/// One IQ entry.
#[derive(Debug, Clone, Copy)]
pub struct IqEntry {
    /// Instruction handle.
    pub id: InstId,
    /// Global age (issue priority: oldest first).
    pub seq: u64,
    /// Owning thread.
    pub thread: usize,
    /// Cluster the instruction was slotted to at decode.
    pub cluster: usize,
    /// Wait-state.
    pub state: IqState,
}

/// Per-slot bookkeeping for the event-driven issue path. Lives beside the
/// arena (not inside [`IqEntry`]) so entry copies stay cheap and the flags
/// survive state transitions that replace the entry.
#[derive(Debug, Clone, Copy, Default)]
struct SlotMeta {
    /// Bumped every time the slot (re-)enters `Waiting` — on insertion and
    /// on replay. External records that name a waiting tenure carry
    /// `(slot, epoch)` and are validated lazily: a mismatch means the
    /// tenure ended (issued, squashed, or a new entry reused the slot) and
    /// the record is stale.
    epoch: u32,
    /// Slot is on its cluster's ready list.
    in_ready: bool,
    /// Slot is parked on its thread's store-wait gate list.
    gated: bool,
}

/// The unified, clustered instruction queue.
#[derive(Debug)]
pub struct IssueQueue {
    /// Slot arena; `None` slots are on the free-list.
    slots: Vec<Option<IqEntry>>,
    /// Per-slot event-driven bookkeeping (epoch + ready/gated flags).
    meta: Vec<SlotMeta>,
    /// Reusable slot indices (LIFO).
    free: Vec<u32>,
    /// Per-cluster *ready* waiting entries (`(seq, slot)`, `seq`-ascending):
    /// the incrementally maintained set of waiting entries whose operands
    /// have all arrived and whose store-wait gate is clear. Select pops the
    /// front instead of re-evaluating every waiting entry. The seq is
    /// denormalized into the list so ordered insertion and removal probe
    /// local memory instead of chasing slot-arena pointers.
    ready: Vec<VecDeque<(u64, u32)>>,
    /// Total entries across all ready lists.
    ready_count: usize,
    per_cluster: Vec<u32>,
    /// Live entries.
    len: usize,
    /// Live entries not in `Waiting` state (issued + confirmed).
    not_waiting: usize,
    // Statistics.
    occupancy_sum: u64,
    issued_occupancy_sum: u64,
    samples: u64,
    peak: usize,
}

impl IssueQueue {
    /// An empty IQ with `capacity` slots serving `clusters` clusters.
    pub fn new(capacity: usize, clusters: usize) -> IssueQueue {
        IssueQueue {
            slots: vec![None; capacity],
            meta: vec![SlotMeta::default(); capacity],
            // Reversed so slot 0 is handed out first.
            free: (0..capacity as u32).rev().collect(),
            ready: vec![VecDeque::new(); clusters],
            ready_count: 0,
            per_cluster: vec![0; clusters],
            len: 0,
            not_waiting: 0,
            occupancy_sum: 0,
            issued_occupancy_sum: 0,
            samples: 0,
            peak: 0,
        }
    }

    /// Entries currently slotted to `cluster` (for least-loaded slotting at
    /// decode).
    #[inline]
    pub fn cluster_len(&self, cluster: usize) -> u32 {
        self.per_cluster[cluster]
    }

    /// Slots in use (waiting + issued + not-yet-cleared confirmed entries).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots available for insertion.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.len
    }

    /// Total slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy by wait-state: (waiting, issued, confirmed).
    pub fn state_breakdown(&self) -> (usize, usize, usize) {
        let mut b = (0, 0, 0);
        for e in self.iter() {
            match e.state {
                IqState::Waiting => b.0 += 1,
                IqState::Issued => b.1 += 1,
                IqState::Confirmed => b.2 += 1,
            }
        }
        b
    }

    /// True when the per-cluster tallies match the entries (auditor check).
    pub fn cluster_counts_consistent(&self) -> bool {
        let mut counts = vec![0u32; self.per_cluster.len()];
        for e in self.iter() {
            match counts.get_mut(e.cluster) {
                Some(c) => *c += 1,
                None => return false,
            }
        }
        counts == self.per_cluster
    }

    /// True when every ready list holds a subset of its cluster's waiting
    /// entries, age-sorted, with the `in_ready` flags in agreement
    /// (auditor check — structural half of the ready-list invariant; the
    /// machine cross-checks the semantic half against `entry_ready`).
    pub fn ready_lists_consistent(&self) -> bool {
        let mut listed = 0;
        for (cluster, list) in self.ready.iter().enumerate() {
            let mut prev = None;
            for &(seq, slot) in list {
                let Some(e) = self.slots.get(slot as usize).and_then(Option::as_ref) else {
                    return false;
                };
                if e.cluster != cluster || e.state != IqState::Waiting || e.seq != seq {
                    return false;
                }
                if !self.meta[slot as usize].in_ready || self.meta[slot as usize].gated {
                    return false;
                }
                if prev.is_some_and(|p| p >= e.seq) {
                    return false;
                }
                prev = Some(e.seq);
                listed += 1;
            }
        }
        if listed != self.ready_count {
            return false;
        }
        // No in_ready flag may be set outside the lists.
        self.meta.iter().filter(|m| m.in_ready).count() == listed
    }

    /// Insert an instruction; returns its slot, or `None` (and does
    /// nothing) when full. The caller stores the slot on the dynamic
    /// instruction (`iq_slot`) for O(1) state transitions.
    pub fn insert(&mut self, entry: IqEntry) -> Option<u32> {
        debug_assert_eq!(entry.state, IqState::Waiting, "insertions start waiting");
        let slot = self.free.pop()?;
        self.per_cluster[entry.cluster] += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.slots[slot as usize] = Some(entry);
        self.begin_waiting_tenure(slot);
        Some(slot)
    }

    /// Start a new waiting tenure for `slot`: bump the epoch (invalidating
    /// any outstanding `(slot, epoch)` records for the previous tenure)
    /// and reset the ready/gated flags.
    fn begin_waiting_tenure(&mut self, slot: u32) {
        let m = &mut self.meta[slot as usize];
        m.epoch = m.epoch.wrapping_add(1);
        debug_assert!(!m.in_ready, "ready membership ends with the tenure");
        m.in_ready = false;
        m.gated = false;
    }

    /// The current waiting-tenure epoch of `slot`. Pair with the slot in
    /// external records and validate via
    /// [`IssueQueue::waiting_at_epoch`].
    #[inline]
    pub fn epoch_of(&self, slot: u32) -> u32 {
        self.meta[slot as usize].epoch
    }

    /// The entry at `slot` if it is still in the `Waiting` tenure that
    /// `epoch` was captured from; `None` means the record is stale.
    #[inline]
    pub fn waiting_at_epoch(&self, slot: u32, epoch: u32) -> Option<&IqEntry> {
        if self.meta[slot as usize].epoch != epoch {
            return None;
        }
        self.slots[slot as usize]
            .as_ref()
            .filter(|e| e.state == IqState::Waiting)
    }

    /// True when `slot` is on its cluster's ready list.
    #[inline]
    pub fn in_ready(&self, slot: u32) -> bool {
        self.meta[slot as usize].in_ready
    }

    /// True when `slot` is parked on a store-wait gate list.
    #[inline]
    pub fn is_gated(&self, slot: u32) -> bool {
        self.meta[slot as usize].gated
    }

    /// Mark `slot` as parked on (or released from) a store-wait gate list.
    /// The flag only de-duplicates gate-list membership; staleness is
    /// handled by epoch validation on the list records.
    #[inline]
    pub fn set_gated(&mut self, slot: u32, gated: bool) {
        self.meta[slot as usize].gated = gated;
    }

    /// Put a waiting entry on its cluster's ready list (age-ordered).
    /// No-op if it is already there.
    pub fn ready_push(&mut self, slot: u32) {
        if self.meta[slot as usize].in_ready {
            return;
        }
        // invariant: callers only push live waiting entries.
        let e = self.slots[slot as usize].as_ref().expect("live ready slot");
        debug_assert_eq!(e.state, IqState::Waiting, "only waiting entries ready");
        let (cluster, seq) = (e.cluster, e.seq);
        let list = &mut self.ready[cluster];
        // Readiness usually arrives in age order: youngest-at-the-back is
        // the overwhelmingly common case, so try a plain push first.
        if list.back().is_none_or(|&(s, _)| s < seq) {
            list.push_back((seq, slot));
        } else {
            let pos = list.partition_point(|&(s, _)| s < seq);
            list.insert(pos, (seq, slot));
        }
        self.meta[slot as usize].in_ready = true;
        self.ready_count += 1;
    }

    /// Drop `slot` (holding `seq`, in `cluster`) from its ready list.
    /// Select issues the oldest entry, so the front is the common case.
    fn ready_remove(&mut self, cluster: usize, slot: u32, seq: u64) {
        let list = &mut self.ready[cluster];
        if list.front() == Some(&(seq, slot)) {
            list.pop_front();
        } else {
            let pos = list.partition_point(|&(s, _)| s < seq);
            debug_assert!(
                pos < list.len() && list[pos] == (seq, slot),
                "ready list holds the entry"
            );
            list.remove(pos);
        }
        self.meta[slot as usize].in_ready = false;
        self.ready_count -= 1;
    }

    /// Withdraw `slot` from its ready list if present (a wake-up was
    /// rescinded, or its store-wait gate closed).
    pub fn ready_withdraw(&mut self, slot: u32) {
        if !self.meta[slot as usize].in_ready {
            return;
        }
        // invariant: in_ready entries are live and waiting.
        let e = self.slots[slot as usize].as_ref().expect("live ready slot");
        let (cluster, seq) = (e.cluster, e.seq);
        self.ready_remove(cluster, slot, seq);
    }

    /// The oldest ready entry of `cluster`, if any.
    #[inline]
    pub fn ready_front(&self, cluster: usize) -> Option<&IqEntry> {
        let &(_, slot) = self.ready[cluster].front()?;
        // invariant: ready lists reference live slots only.
        Some(self.slots[slot as usize].as_ref().expect("live ready slot"))
    }

    /// Entries across all ready lists.
    #[inline]
    pub fn ready_total(&self) -> usize {
        self.ready_count
    }

    /// Ready entries of `cluster` as `(slot, entry)` pairs, age-ascending.
    pub fn ready_iter(&self, cluster: usize) -> impl Iterator<Item = (u32, &IqEntry)> {
        self.ready[cluster].iter().map(|&(_, slot)| {
            // invariant: ready lists reference live slots only.
            let e = self.slots[slot as usize].as_ref().expect("live ready slot");
            (slot, e)
        })
    }

    /// Entry at `slot` if it is live and holds `id` (the `iq_slot` hint on
    /// a dynamic instruction may be stale after a squash).
    fn entry_at(&mut self, slot: u32, id: InstId) -> Option<&mut IqEntry> {
        self.slots
            .get_mut(slot as usize)?
            .as_mut()
            .filter(|e| e.id == id)
    }

    /// Waiting → Issued (select); drops the entry from its ready list.
    pub fn mark_issued(&mut self, slot: u32, id: InstId) {
        let Some(e) = self.entry_at(slot, id) else {
            return;
        };
        debug_assert_eq!(e.state, IqState::Waiting, "issue selects waiting entries");
        if e.state != IqState::Waiting {
            return;
        }
        e.state = IqState::Issued;
        let (cluster, seq) = (e.cluster, e.seq);
        self.not_waiting += 1;
        if self.meta[slot as usize].in_ready {
            self.ready_remove(cluster, slot, seq);
        }
        self.meta[slot as usize].gated = false;
    }

    /// Issued → Waiting (replay); the entry starts a new waiting tenure.
    pub fn mark_waiting(&mut self, slot: u32, id: InstId) {
        let Some(e) = self.entry_at(slot, id) else {
            return;
        };
        if e.state != IqState::Issued {
            debug_assert!(
                matches!(e.state, IqState::Waiting),
                "replay only rewinds issued entries"
            );
            return;
        }
        e.state = IqState::Waiting;
        self.not_waiting -= 1;
        self.begin_waiting_tenure(slot);
    }

    /// Issued → Confirmed (execute will not replay). Returns the entry's
    /// `seq` when it confirmed the entry (`None` for a stale `slot` hint):
    /// the caller then schedules [`IssueQueue::release`]`(slot, seq)` for
    /// the cycle the slot frees.
    pub fn mark_confirmed(&mut self, slot: u32, id: InstId) -> Option<u64> {
        let e = self.entry_at(slot, id)?;
        debug_assert_eq!(e.state, IqState::Issued, "only issued entries confirm");
        if !matches!(e.state, IqState::Issued) {
            return None;
        }
        e.state = IqState::Confirmed;
        Some(e.seq)
    }

    /// Iterate all live entries (slot order).
    pub fn iter(&self) -> impl Iterator<Item = &IqEntry> {
        self.slots.iter().flatten()
    }

    /// The entry at `slot` if it is live and `Waiting`.
    #[inline]
    pub fn waiting_slot(&self, slot: u32) -> Option<&IqEntry> {
        self.slots[slot as usize]
            .as_ref()
            .filter(|e| e.state == IqState::Waiting)
    }

    /// Free `slot` if it still holds the confirmed entry `seq`. A squash
    /// may have cleared the slot (and may have refilled it with a younger
    /// entry): the unique `seq` disambiguates, and a stale record does
    /// nothing.
    pub fn release(&mut self, slot: u32, seq: u64) {
        let live = self.slots[slot as usize]
            .as_ref()
            .is_some_and(|e| e.seq == seq && matches!(e.state, IqState::Confirmed));
        if !live {
            return;
        }
        // invariant: `live` above proved the slot occupied.
        let e = self.slots[slot as usize].take().expect("live slot");
        self.per_cluster[e.cluster] -= 1;
        self.len -= 1;
        self.not_waiting -= 1;
        self.free.push(slot);
    }

    /// Remove entries selected by `kill` (squash). Returns how many were
    /// removed (for useless-work accounting).
    pub fn squash(&mut self, mut kill: impl FnMut(&IqEntry) -> bool) -> usize {
        let mut removed = 0;
        for slot in 0..self.slots.len() as u32 {
            let Some(e) = self.slots[slot as usize] else {
                continue;
            };
            if !kill(&e) {
                continue;
            }
            if e.state == IqState::Waiting {
                if self.meta[slot as usize].in_ready {
                    self.ready_remove(e.cluster, slot, e.seq);
                }
                self.meta[slot as usize].gated = false;
            } else {
                self.not_waiting -= 1;
            }
            // Stale release records are skipped by their seq check.
            // External (slot, epoch) records go stale when the slot's next
            // tenure bumps the epoch.
            self.slots[slot as usize] = None;
            self.per_cluster[e.cluster] -= 1;
            self.len -= 1;
            self.free.push(slot);
            removed += 1;
        }
        removed
    }

    /// Record one cycle's occupancy statistics.
    #[inline]
    pub fn sample_occupancy(&mut self) {
        self.sample_occupancy_n(1);
    }

    /// Record `n` identical cycles of occupancy statistics at once — used
    /// when the quiescence skip jumps the clock over cycles in which the
    /// IQ provably cannot change.
    #[inline]
    pub fn sample_occupancy_n(&mut self, n: u64) {
        self.samples += n;
        self.occupancy_sum += n * self.len as u64;
        self.issued_occupancy_sum += n * self.not_waiting as u64;
    }

    /// Restart the occupancy statistics for a new measurement window; the
    /// peak then counts insertions after the restart.
    pub(crate) fn reset_occupancy(&mut self) {
        self.occupancy_sum = 0;
        self.issued_occupancy_sum = 0;
        self.samples = 0;
        self.peak = 0;
    }

    /// (mean occupancy, mean post-issue occupancy, peak) over the sampled
    /// cycles.
    pub fn occupancy_stats(&self) -> (f64, f64, usize) {
        if self.samples == 0 {
            return (0.0, 0.0, self.peak);
        }
        (
            self.occupancy_sum as f64 / self.samples as f64,
            self.issued_occupancy_sum as f64 / self.samples as f64,
            self.peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, cluster: usize) -> IqEntry {
        IqEntry {
            id: InstId {
                slot: seq as u32,
                gen: 0,
            },
            seq,
            thread: 0,
            cluster,
            state: IqState::Waiting,
        }
    }

    /// Insert and return the (slot, id) pair for follow-up transitions.
    fn put(q: &mut IssueQueue, seq: u64, cluster: usize) -> (u32, InstId) {
        let e = entry(seq, cluster);
        let slot = q.insert(e).expect("capacity");
        (slot, e.id)
    }

    #[test]
    fn capacity_is_enforced() {
        let mut q = IssueQueue::new(2, 4);
        assert!(q.insert(entry(1, 0)).is_some());
        assert!(q.insert(entry(2, 1)).is_some());
        assert!(q.insert(entry(3, 2)).is_none(), "full IQ rejects insertion");
        assert_eq!(q.len(), 2);
        assert_eq!(q.free_slots(), 0);
        assert!(q.cluster_counts_consistent());
        assert!(q.ready_lists_consistent());
    }

    #[test]
    fn confirmed_entries_release_on_time() {
        let mut q = IssueQueue::new(4, 4);
        let (slot, id) = put(&mut q, 1, 0);
        q.mark_issued(slot, id);
        assert_eq!(q.mark_confirmed(slot, id), Some(1));
        assert_eq!(q.iter().next().map(|e| e.state), Some(IqState::Confirmed));
        q.release(slot, 1);
        assert_eq!(q.len(), 0);
        assert_eq!(q.free_slots(), 4);
    }

    #[test]
    fn squash_removes_matching() {
        let mut q = IssueQueue::new(8, 4);
        for s in 1..=5 {
            let (slot, _) = put(&mut q, s, 0);
            q.ready_push(slot);
        }
        let killed = q.squash(|e| e.seq > 3);
        assert_eq!(killed, 2);
        assert_eq!(q.len(), 3);
        assert!(q.cluster_counts_consistent());
        assert!(q.ready_lists_consistent());
        assert_eq!(
            q.ready_iter(0).map(|(_, e)| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn occupancy_sampling() {
        let mut q = IssueQueue::new(8, 4);
        put(&mut q, 1, 0);
        let (slot, id) = put(&mut q, 2, 0);
        q.mark_issued(slot, id);
        q.sample_occupancy();
        let (mean, issued_mean, peak) = q.occupancy_stats();
        assert_eq!(mean, 2.0);
        assert_eq!(issued_mean, 1.0);
        assert_eq!(peak, 2);
    }

    #[test]
    fn ready_lists_stay_age_sorted_across_replay() {
        let mut q = IssueQueue::new(8, 2);
        // Out-of-order insertion (SMT threads interleave seqs).
        let (s3, id3) = put(&mut q, 3, 1);
        let (s1, id1) = put(&mut q, 1, 1);
        let (s5, _id5) = put(&mut q, 5, 1);
        for slot in [s3, s1, s5] {
            q.ready_push(slot);
        }
        let ready = |q: &IssueQueue| q.ready_iter(1).map(|(_, e)| e.seq).collect::<Vec<_>>();
        assert_eq!(ready(&q), vec![1, 3, 5]);
        // Issue the oldest two, replay one: its new tenure starts off the
        // ready list and rejoins in age order once woken again.
        q.mark_issued(s1, id1);
        q.mark_issued(s3, id3);
        q.mark_waiting(s3, id3);
        assert_eq!(ready(&q), vec![5]);
        assert!(!q.in_ready(s3));
        q.ready_push(s3);
        assert_eq!(ready(&q), vec![3, 5]);
        assert!(q.ready_lists_consistent());
    }

    #[test]
    fn ready_lists_track_waiting_subset_in_age_order() {
        let mut q = IssueQueue::new(8, 2);
        let (s3, _) = put(&mut q, 3, 1);
        let (s1, id1) = put(&mut q, 1, 1);
        let (s5, _) = put(&mut q, 5, 1);
        q.ready_push(s5);
        q.ready_push(s1);
        q.ready_push(s1); // duplicate push is a no-op
        assert_eq!(q.ready_total(), 2);
        assert_eq!(q.ready_front(1).map(|e| e.seq), Some(1));
        assert_eq!(
            q.ready_iter(1).map(|(_, e)| e.seq).collect::<Vec<_>>(),
            vec![1, 5]
        );
        assert!(q.ready_lists_consistent());
        // Issuing the front removes it from the ready list; the next
        // oldest ready entry surfaces (s3 was never ready).
        q.mark_issued(s1, id1);
        assert_eq!(q.ready_front(1).map(|e| e.seq), Some(5));
        // A rescinded wake-up withdraws without issuing.
        q.ready_withdraw(s5);
        q.ready_withdraw(s5); // idempotent
        assert_eq!(q.ready_total(), 0);
        assert!(q.ready_front(1).is_none());
        assert!(!q.in_ready(s3) && !q.in_ready(s5));
        assert!(q.ready_lists_consistent());
    }

    #[test]
    fn epochs_invalidate_records_across_tenures() {
        let mut q = IssueQueue::new(1, 1);
        let (slot, id) = put(&mut q, 1, 0);
        let epoch0 = q.epoch_of(slot);
        assert!(q.waiting_at_epoch(slot, epoch0).is_some());
        // Issue ends the tenure; replay starts a new one.
        q.mark_issued(slot, id);
        assert!(q.waiting_at_epoch(slot, epoch0).is_none(), "issued");
        q.mark_waiting(slot, id);
        assert!(
            q.waiting_at_epoch(slot, epoch0).is_none(),
            "replay is a new tenure"
        );
        let epoch1 = q.epoch_of(slot);
        assert_ne!(epoch0, epoch1);
        assert_eq!(q.waiting_at_epoch(slot, epoch1).map(|e| e.seq), Some(1));
        // Squash + slot reuse by a younger entry: old epochs stay stale.
        q.squash(|e| e.seq == 1);
        let (slot2, _) = put(&mut q, 2, 0);
        assert_eq!(slot2, slot);
        assert!(q.waiting_at_epoch(slot, epoch1).is_none());
        assert_eq!(
            q.waiting_at_epoch(slot, q.epoch_of(slot)).map(|e| e.seq),
            Some(2)
        );
    }

    #[test]
    fn squash_clears_ready_and_gate_state() {
        let mut q = IssueQueue::new(8, 1);
        let (s1, _) = put(&mut q, 1, 0);
        let (s2, _) = put(&mut q, 2, 0);
        q.ready_push(s1);
        q.set_gated(s2, true);
        assert_eq!(q.squash(|_| true), 2);
        assert_eq!(q.ready_total(), 0);
        assert!(q.ready_lists_consistent());
        // Reused slots start their tenure with clean flags.
        let (s1b, _) = put(&mut q, 3, 0);
        let (s2b, _) = put(&mut q, 4, 0);
        assert!(!q.in_ready(s1b) && !q.is_gated(s1b));
        assert!(!q.in_ready(s2b) && !q.is_gated(s2b));
    }

    #[test]
    fn batched_occupancy_sampling_matches_repeated_sampling() {
        let mut q = IssueQueue::new(8, 1);
        put(&mut q, 1, 0);
        let (slot, id) = put(&mut q, 2, 0);
        q.mark_issued(slot, id);
        let mut a = IssueQueue::new(8, 1);
        put(&mut a, 1, 0);
        let (slot_a, id_a) = put(&mut a, 2, 0);
        a.mark_issued(slot_a, id_a);
        for _ in 0..7 {
            q.sample_occupancy();
        }
        a.sample_occupancy_n(7);
        assert_eq!(q.occupancy_stats(), a.occupancy_stats());
    }

    #[test]
    fn stale_release_records_are_skipped_after_squash_and_reuse() {
        let mut q = IssueQueue::new(1, 1);
        let (slot, id) = put(&mut q, 1, 0);
        q.mark_issued(slot, id);
        assert_eq!(q.mark_confirmed(slot, id), Some(1));
        // Squash before the release cycle; the record for seq 1 is stale.
        assert_eq!(q.squash(|e| e.seq == 1), 1);
        // The slot is reused by a younger entry before cycle 5.
        let (slot2, id2) = put(&mut q, 2, 0);
        assert_eq!(slot2, slot, "single-slot IQ reuses the slot");
        q.release(slot, 1);
        assert_eq!(q.len(), 1, "the younger entry survives the stale record");
        q.mark_issued(slot2, id2);
        q.release(slot2, 2);
        assert_eq!(q.len(), 1, "an unconfirmed entry is not released");
        assert_eq!(q.mark_confirmed(slot2, id2), Some(2));
        q.release(slot2, 2);
        assert_eq!(q.len(), 0);
    }
}
