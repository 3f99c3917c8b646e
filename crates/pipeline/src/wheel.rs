//! Fixed-size timing wheel for cycle-indexed event queues.
//!
//! The cycle engine schedules three kinds of future work (begin-execute,
//! complete, delayed wake-up corrections). All delays are bounded by
//! configuration latencies, so a calendar-queue ring of pre-sized buckets
//! indexed by `cycle & (horizon - 1)` (the horizon is a power of two, so a
//! mask replaces a 64-bit `%` on every schedule, drain step and rescan
//! probe) serves nearly every event from memory it
//! already owns; the rare event past the horizon (a TLB walk stacked on a
//! memory miss, a fault-injected latency spike) parks in a small overflow
//! heap until its cycle comes due. After warm-up, scheduling and draining
//! allocate nothing: bucket `Vec`s and the drain buffer keep their
//! capacity, and the heap only grows while a new high-water mark of
//! overflowed events is in flight.
//!
//! # Determinism contract
//!
//! The wheel replaces `BTreeMap<u64, Vec<T>>` queues drained with
//! `pop_first`, which yields events grouped by ascending cycle and, within
//! a cycle, in insertion order. [`TimingWheel::drain_due`] reproduces that
//! order exactly: every event carries its requested cycle and a wheel-wide
//! insertion sequence, and the drained batch is sorted by `(cycle, seq)`.
//! The requested cycle is preserved even when an event is scheduled for a
//! cycle that has already been drained (the engine schedules completions
//! "for this cycle" from later pipeline stages); such events are slotted
//! into the next drainable bucket but still sort — and stamp — by their
//! requested cycle, exactly as a `BTreeMap` key would.

use std::collections::BinaryHeap;

/// One scheduled event: the cycle it was requested for, the wheel-wide
/// insertion sequence used for deterministic tie-breaking, and the
/// caller's payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Due<T> {
    pub cycle: u64,
    pub seq: u64,
    pub payload: T,
}

/// Overflow-heap entry ordered by `(cycle, seq)` only (min-heap via
/// `Reverse` at the use site). `seq` is unique per wheel, so the order is
/// total without comparing payloads.
#[derive(Debug)]
struct Parked<T> {
    cycle: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.cycle, self.seq) == (other.cycle, other.seq)
    }
}
impl<T> Eq for Parked<T> {}
impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so that `BinaryHeap` (a max-heap) pops the smallest
        // `(cycle, seq)` first.
        (other.cycle, other.seq).cmp(&(self.cycle, self.seq))
    }
}

/// Calendar-queue event wheel: a ring of `horizon` buckets plus an
/// overflow heap for events at least `horizon` cycles out.
#[derive(Debug)]
pub(crate) struct TimingWheel<T> {
    /// `buckets[c & mask]` holds events drainable at cycle `c` for the
    /// current wheel revolution.
    buckets: Vec<Vec<Due<T>>>,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: u64,
    /// Events whose slot cycle was `>= cursor + horizon` when scheduled.
    overflow: BinaryHeap<Parked<T>>,
    /// First cycle not yet drained. Buckets cover
    /// `cursor .. cursor + horizon`.
    cursor: u64,
    /// Wheel-wide insertion sequence (the `BTreeMap + Vec::push` order).
    next_seq: u64,
    /// Live event count across buckets and overflow.
    len: usize,
    /// Cached [`TimingWheel::next_due`] value. Exact while `due_dirty` is
    /// false; a drain that removed events invalidates it (the quiescence
    /// check calls `next_due` every cycle, so keeping this O(1) matters).
    /// `Cell` because `next_due` refreshes the cache behind `&self`.
    cached_due: std::cell::Cell<Option<u64>>,
    /// When set, `cached_due` is stale and the next `next_due` rescans.
    due_dirty: std::cell::Cell<bool>,
}

impl<T> TimingWheel<T> {
    /// `horizon` buckets, rounded up to a power of two; events scheduled
    /// less than that many cycles ahead of the drain cursor go straight to
    /// their bucket.
    pub fn new(horizon: u64) -> TimingWheel<T> {
        assert!(horizon >= 1, "timing wheel needs at least one bucket");
        let horizon = horizon.next_power_of_two();
        let mut buckets = Vec::new();
        buckets.resize_with(horizon as usize, Vec::new);
        TimingWheel {
            buckets,
            mask: horizon - 1,
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            cached_due: std::cell::Cell::new(None),
            due_dirty: std::cell::Cell::new(false),
        }
    }

    fn horizon(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Schedule `payload` for `cycle`. A cycle at or past
    /// `cursor + horizon` parks in the overflow heap; a cycle already
    /// behind the cursor lands in the next drainable bucket while keeping
    /// its requested cycle for ordering and stamping.
    pub fn schedule(&mut self, cycle: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot_cycle = cycle.max(self.cursor);
        // Both bucketed and overflow events drain exactly at `slot_cycle`
        // (overflow satisfies `cycle >= cursor`, and the drain cursor
        // visits every cycle while events are live), so the cache can be
        // maintained without a rescan.
        if !self.due_dirty.get() {
            let d = self
                .cached_due
                .get()
                .map_or(slot_cycle, |c| c.min(slot_cycle));
            self.cached_due.set(Some(d));
        }
        if slot_cycle >= self.cursor + self.horizon() {
            self.overflow.push(Parked {
                cycle,
                seq,
                payload,
            });
        } else {
            let idx = (slot_cycle & self.mask) as usize;
            self.buckets[idx].push(Due {
                cycle,
                seq,
                payload,
            });
        }
    }

    /// Drain every event due at or before `now` into `out` (cleared
    /// first), sorted by `(cycle, seq)` — the exact order a
    /// `BTreeMap<u64, Vec<T>>` drained with `pop_first` would yield.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Due<T>>) {
        out.clear();
        if self.len == 0 {
            // Idle fast-forward: with no live events every bucket is empty
            // and the overflow heap has nothing to refill them with, so the
            // cursor can jump straight past `now` without visiting buckets.
            // This keeps quiescence-skipped windows O(1) per wheel instead
            // of O(skipped cycles).
            self.cursor = self.cursor.max(now + 1);
            self.cached_due.set(None);
            self.due_dirty.set(false);
            return;
        }
        if !self.due_dirty.get() && self.cached_due.get().is_some_and(|d| d > now) {
            // Nothing drains before the cached earliest event: skip the
            // empty buckets. Keeps per-cycle drains of a quiet wheel O(1).
            self.cursor = self.cursor.max(now + 1);
            return;
        }
        while self.cursor <= now {
            let idx = (self.cursor & self.mask) as usize;
            out.append(&mut self.buckets[idx]);
            while self.overflow.peek().is_some_and(|p| p.cycle <= self.cursor) {
                // invariant: peek above proved the heap non-empty.
                let p = self.overflow.pop().expect("non-empty");
                out.push(Due {
                    cycle: p.cycle,
                    seq: p.seq,
                    payload: p.payload,
                });
            }
            self.cursor += 1;
        }
        self.len -= out.len();
        if !out.is_empty() {
            // The earliest event may just have drained; recompute lazily.
            self.due_dirty.set(true);
        }
        // Buckets hold events in schedule (seq) order, so a batch is
        // usually sorted already; check before paying for the sort.
        if !out.is_sorted_by_key(|e| (e.cycle, e.seq)) {
            out.sort_unstable_by_key(|e| (e.cycle, e.seq));
        }
    }

    /// Live events (buckets + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The earliest cycle at which [`TimingWheel::drain_due`] would yield
    /// an event, or `None` when the wheel is empty. This is the *drain*
    /// cycle: an event scheduled for an already-drained cycle reports the
    /// bucket slot it actually parked in, which is the first cycle a drain
    /// can reach it. The quiescence-skip logic uses this to jump the clock
    /// to the next pending event.
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if !self.due_dirty.get() {
            return self.cached_due.get();
        }
        let due = self.scan_next_due();
        self.cached_due.set(due);
        self.due_dirty.set(false);
        due
    }

    /// Bucket/overflow scan behind [`TimingWheel::next_due`]'s cache.
    /// Walks outward from the cursor, so the first non-empty bucket is the
    /// answer and the scan exits after `distance-to-next-event` probes
    /// instead of visiting the whole ring.
    fn scan_next_due(&self) -> Option<u64> {
        let h = self.horizon();
        // Overflow events always satisfy `cycle > cursor` (past-due events
        // are slotted into buckets, and drains pop everything `<= cursor`),
        // and they drain the cycle the cursor reaches them.
        let over = self.overflow.peek().map(|p| p.cycle);
        // Every bucketed event's slot cycle is in [cursor, cursor + h), so
        // bucket `(cursor + d) & mask` drains exactly at `cursor + d`.
        for d in 0..h {
            let due = self.cursor + d;
            if over.is_some_and(|o| o <= due) {
                return over;
            }
            if !self.buckets[(due & self.mask) as usize].is_empty() {
                return Some(due);
            }
        }
        over
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_rng::Rng;
    use std::collections::BTreeMap;

    /// Drain the reference model the way the machine drained its
    /// `BTreeMap` queues: pop ascending keys `<= now`, preserving push
    /// order within a key.
    fn drain_btree(model: &mut BTreeMap<u64, Vec<u32>>, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((&cyc, _)) = model.first_key_value() {
            if cyc > now {
                break;
            }
            let (cyc, list) = model.pop_first().expect("non-empty");
            out.extend(list.into_iter().map(|p| (cyc, p)));
        }
        out
    }

    fn drain_wheel(wheel: &mut TimingWheel<u32>, now: u64) -> Vec<(u64, u32)> {
        let mut buf = Vec::new();
        wheel.drain_due(now, &mut buf);
        buf.into_iter().map(|e| (e.cycle, e.payload)).collect()
    }

    #[test]
    fn matches_btreemap_order_under_random_schedules() {
        let mut rng = Rng::seed_from_u64(0x5eed_4e11);
        // 7 rounds up to an 8-bucket ring; events still land up to
        // `3 * 7 + 40` cycles out, well into the overflow heap.
        for horizon in [1u64, 2, 7, 64] {
            let mut wheel = TimingWheel::new(horizon);
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let mut payload = 0u32;
            // The engine drains once per cycle, strictly advancing.
            for now in 0..2_000u64 {
                // Mirror one engine iteration: drain first, then schedule.
                assert_eq!(drain_wheel(&mut wheel, now), drain_btree(&mut model, now));
                assert_eq!(
                    wheel.len(),
                    model.values().map(Vec::len).sum::<usize>(),
                    "len out of sync at cycle {now}"
                );
                // A burst of schedules at mixed horizons. `ahead == 0`
                // exercises the engine's "for this cycle" completions:
                // `now` was drained above, so the event lands behind the
                // wheel cursor but must still sort (and stamp) by its
                // requested cycle, like a BTreeMap key.
                for _ in 0..(rng.next_u64() % 4) {
                    let cycle = now + rng.next_u64() % (3 * horizon + 40);
                    wheel.schedule(cycle, payload);
                    model.entry(cycle).or_default().push(payload);
                    payload += 1;
                }
            }
        }
    }

    #[test]
    fn horizon_rounds_up_to_a_power_of_two() {
        let mut wheel = TimingWheel::new(5);
        assert_eq!(wheel.horizon(), 8);
        // Cycle 7 is the last in-ring bucket of an 8-bucket ring, 8 the
        // first overflow cycle; both must still drain on time.
        wheel.schedule(7, 1);
        wheel.schedule(8, 2);
        assert_eq!(drain_wheel(&mut wheel, 7), vec![(7, 1)]);
        assert_eq!(drain_wheel(&mut wheel, 8), vec![(8, 2)]);
    }

    #[test]
    fn horizon_boundary_events_round_trip() {
        let h = 16;
        let mut wheel = TimingWheel::new(h);
        // Exactly the last in-horizon bucket vs the first overflow cycle.
        wheel.schedule(h - 1, 1);
        wheel.schedule(h, 2);
        assert_eq!(wheel.len(), 2);
        assert_eq!(drain_wheel(&mut wheel, h - 1), vec![(h - 1, 1)]);
        assert_eq!(drain_wheel(&mut wheel, h), vec![(h, 2)]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn overflow_refills_across_revolutions() {
        let h = 8;
        let mut wheel = TimingWheel::new(h);
        // Far-future events spanning several wheel revolutions, scheduled
        // out of cycle order.
        for &(cycle, payload) in &[(70u64, 7u32), (23, 2), (51, 5), (23, 3), (9, 1)] {
            wheel.schedule(cycle, payload);
        }
        let mut got = Vec::new();
        for now in 0..=80 {
            got.extend(drain_wheel(&mut wheel, now));
        }
        assert_eq!(got, vec![(9, 1), (23, 2), (23, 3), (51, 5), (70, 7)]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn past_due_schedule_sorts_by_requested_cycle() {
        let mut wheel = TimingWheel::new(8);
        assert!(drain_wheel(&mut wheel, 10).is_empty());
        // Scheduled "for cycle 10" after cycle 10 drained, alongside a
        // later-seq event actually due at 11: the requested cycle must
        // dominate the tie-break, as a BTreeMap key would.
        wheel.schedule(11, 20);
        wheel.schedule(10, 10);
        assert_eq!(drain_wheel(&mut wheel, 11), vec![(10, 10), (11, 20)]);
    }

    #[test]
    fn next_due_tracks_the_earliest_drainable_event() {
        let mut wheel = TimingWheel::new(8);
        assert_eq!(wheel.next_due(), None);
        wheel.schedule(5, 1);
        wheel.schedule(3, 2);
        wheel.schedule(100, 3); // overflow
        assert_eq!(wheel.next_due(), Some(3));
        assert!(drain_wheel(&mut wheel, 4).ends_with(&[(3, 2)]));
        assert_eq!(wheel.next_due(), Some(5));
        assert_eq!(drain_wheel(&mut wheel, 5), vec![(5, 1)]);
        assert_eq!(wheel.next_due(), Some(100), "overflow event is visible");
        // A past-due schedule parks in the next drainable bucket: that slot,
        // not the requested cycle, is when a drain can reach it.
        wheel.schedule(2, 4);
        assert_eq!(wheel.next_due(), Some(6));
        assert_eq!(drain_wheel(&mut wheel, 6), vec![(2, 4)]);
        assert_eq!(drain_wheel(&mut wheel, 100), vec![(100, 3)]);
        assert_eq!(wheel.next_due(), None);
    }

    #[test]
    fn next_due_agrees_with_drain_under_random_schedules() {
        let mut rng = Rng::seed_from_u64(0xd0e5_1234);
        let mut wheel = TimingWheel::new(16);
        let mut payload = 0u32;
        let mut now = 0u64;
        while now < 3_000 {
            for _ in 0..(rng.next_u64() % 3) {
                wheel.schedule(now + rng.next_u64() % 60, payload);
                payload += 1;
            }
            match wheel.next_due() {
                None => {
                    assert_eq!(wheel.len(), 0);
                    now += 1;
                }
                Some(due) => {
                    assert!(due >= now, "next_due never points behind the clock");
                    if due > 0 {
                        assert!(
                            drain_wheel(&mut wheel, due - 1).is_empty(),
                            "nothing drains before next_due"
                        );
                    }
                    assert!(
                        !drain_wheel(&mut wheel, due).is_empty(),
                        "something drains exactly at next_due"
                    );
                    now = due + 1;
                }
            }
        }
    }

    #[test]
    fn empty_wheel_fast_forwards_the_cursor() {
        let mut wheel = TimingWheel::new(8);
        // Jump far ahead while empty; scheduling afterwards must still
        // work for both near and past-due cycles.
        assert!(drain_wheel(&mut wheel, 1_000_000).is_empty());
        wheel.schedule(1_000_003, 1);
        wheel.schedule(999_999, 2); // behind the cursor: next drainable slot
        assert_eq!(
            drain_wheel(&mut wheel, 1_000_003),
            vec![(999_999, 2), (1_000_003, 1)]
        );
    }

    #[test]
    fn survives_watchdog_sized_idle_windows() {
        // The forward-progress watchdog tolerates 50k cycles with no
        // retirement; the wheel must deliver an event parked that far out
        // (and keep empty revolutions cheap and allocation-stable).
        let h = 256;
        let mut wheel = TimingWheel::new(h);
        wheel.schedule(50_000, 1);
        wheel.schedule(50_000 + h, 2);
        let mut got = Vec::new();
        for now in 0..=(50_000 + h) {
            got.extend(drain_wheel(&mut wheel, now));
        }
        assert_eq!(got, vec![(50_000, 1), (50_000 + h, 2)]);
        assert_eq!(wheel.len(), 0);
    }
}
