//! Time-ordered event queues for the cycle engine.
//!
//! The cycle engine schedules six kinds of future work (begin-execute,
//! complete, delayed wake-up corrections, readiness timers, register-file
//! write-backs and IQ slot releases). Each stream is one [`EventQueue`]: a
//! `VecDeque` kept in `(cycle, schedule order)`. Begin-execute, wake-up,
//! write-back and release events have fixed delays, so they append; a
//! completion or timer due before the back is inserted after every event
//! of its own or an earlier cycle. The deque keeps its high-water
//! capacity, so after warm-up scheduling and draining allocate nothing.
//!
//! # Determinism contract
//!
//! The queue replaces `BTreeMap<u64, Vec<T>>` queues drained with
//! `pop_first`, which yields events grouped by ascending cycle and, within
//! a cycle, in insertion order. [`EventQueue::drain_due`] reproduces that
//! order exactly, because the deque is already in that order. The
//! requested cycle is preserved even when an event is scheduled for a
//! cycle that has already been drained (the engine schedules completions
//! "for this cycle" from later pipeline stages): such an event drains at
//! the next drain, but still sorts — and stamps — by its requested cycle,
//! exactly as a `BTreeMap` key would.

use std::collections::VecDeque;

/// One scheduled event: the cycle it was requested for and the caller's
/// payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Due<T> {
    pub cycle: u64,
    pub payload: T,
}

/// One event stream, in `(cycle, schedule order)`.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    events: VecDeque<Due<T>>,
    /// First cycle not yet drained: an event requested for an earlier
    /// cycle drains at the next drain, at `cursor` or later.
    cursor: u64,
}

impl<T> EventQueue<T> {
    pub fn new() -> EventQueue<T> {
        EventQueue {
            events: VecDeque::new(),
            cursor: 0,
        }
    }

    /// Schedule `payload` for `cycle`, after every event already
    /// scheduled for that cycle.
    pub fn schedule(&mut self, cycle: u64, payload: T) {
        let e = Due { cycle, payload };
        if self.events.back().is_none_or(|b| b.cycle <= cycle) {
            self.events.push_back(e);
        } else {
            let at = self.events.partition_point(|e| e.cycle <= cycle);
            self.events.insert(at, e);
        }
    }

    /// Drain every event due at or before `now` into `out` (cleared
    /// first), in `(cycle, schedule order)` — the exact order a
    /// `BTreeMap<u64, Vec<T>>` drained with `pop_first` would yield. A
    /// cycle already drained drains nothing.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Due<T>>) {
        out.clear();
        if now < self.cursor {
            return;
        }
        self.cursor = now + 1;
        while let Some(e) = self.events.pop_front_if(|e| e.cycle <= now) {
            out.push(e);
        }
    }

    /// Drop front events while `stale(requested cycle, payload)` holds, so
    /// that [`EventQueue::next_due`] of a stream whose events can go stale
    /// names a cycle at which something happens.
    pub fn prune_front(&mut self, mut stale: impl FnMut(u64, &T) -> bool) {
        while self
            .events
            .pop_front_if(|e| stale(e.cycle, &e.payload))
            .is_some()
        {}
    }

    /// Pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The earliest cycle at which [`EventQueue::drain_due`] would yield
    /// an event, or `None` when the queue is empty. This is the *drain*
    /// cycle: an event scheduled for an already-drained cycle reports the
    /// first cycle a drain can reach it. The quiescence-skip logic uses
    /// this to jump the clock to the next pending event.
    pub fn next_due(&self) -> Option<u64> {
        self.events.front().map(|e| e.cycle.max(self.cursor))
    }

    /// Check, from scratch, that the queue is in cycle order and that no
    /// event drains before `target`: the skip-boundary audit's view of
    /// this stream. `Err` describes the first offending event.
    pub fn check_quiet_before(&self, target: u64) -> Result<(), String> {
        let mut prev = 0;
        for (i, e) in self.events.iter().enumerate() {
            if e.cycle < prev {
                return Err(format!(
                    "event {i} requested for cycle {} queued after one for cycle {prev}",
                    e.cycle
                ));
            }
            prev = e.cycle;
            let drains = e.cycle.max(self.cursor);
            if drains < target {
                return Err(format!(
                    "event {i} (requested for cycle {}) drains at cycle {drains}, before {target}",
                    e.cycle
                ));
            }
        }
        Ok(())
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

    fn drain_queue(q: &mut EventQueue<u32>, now: u64) -> Vec<(u64, u32)> {
        let mut buf = Vec::new();
        q.drain_due(now, &mut buf);
        buf.into_iter().map(|e| (e.cycle, e.payload)).collect()
    }

    #[test]
    fn matches_btreemap_order_under_random_schedules() {
        let mut rng = Rng::seed_from_u64(0x5eed_4e11);
        // Events land up to `3 * spread + 40` cycles out, mostly out of
        // schedule order, so most schedules insert before the back.
        for spread in [1u64, 2, 7, 64] {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let mut payload = 0u32;
            // The engine drains once per cycle, strictly advancing.
            for now in 0..2_000u64 {
                // Mirror one engine iteration: drain first, then schedule.
                assert_eq!(drain_queue(&mut q, now), drain_btree(&mut model, now));
                assert_eq!(
                    q.len(),
                    model.values().map(Vec::len).sum::<usize>(),
                    "len out of sync at cycle {now}"
                );
                // A burst of schedules at mixed distances. Distance 0
                // exercises the engine's "for this cycle" completions:
                // `now` was drained above, so the event lands behind the
                // drain cursor but must still sort (and stamp) by its
                // requested cycle, like a BTreeMap key.
                for _ in 0..(rng.next_u64() % 4) {
                    let cycle = now + rng.next_u64() % (3 * spread + 40);
                    q.schedule(cycle, payload);
                    model.entry(cycle).or_default().push(payload);
                    payload += 1;
                }
            }
        }
    }

    #[test]
    fn horizon_boundary_events_round_trip() {
        let h = 16;
        let mut q = EventQueue::new();
        // Adjacent cycles, scheduled in order: each drains on its own.
        q.schedule(h - 1, 1);
        q.schedule(h, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(drain_queue(&mut q, h - 1), vec![(h - 1, 1)]);
        assert_eq!(drain_queue(&mut q, h), vec![(h, 2)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overflow_refills_across_revolutions() {
        let mut q = EventQueue::new();
        // Far-future events, scheduled out of cycle order.
        for &(cycle, payload) in &[(70u64, 7u32), (23, 2), (51, 5), (23, 3), (9, 1)] {
            q.schedule(cycle, payload);
        }
        let mut got = Vec::new();
        for now in 0..=80 {
            got.extend(drain_queue(&mut q, now));
        }
        assert_eq!(got, vec![(9, 1), (23, 2), (23, 3), (51, 5), (70, 7)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn past_due_schedule_sorts_by_requested_cycle() {
        let mut q = EventQueue::new();
        assert!(drain_queue(&mut q, 10).is_empty());
        // Scheduled "for cycle 10" after cycle 10 drained, alongside a
        // later-seq event actually due at 11: the requested cycle must
        // dominate the tie-break, as a BTreeMap key would.
        q.schedule(11, 20);
        q.schedule(10, 10);
        assert_eq!(drain_queue(&mut q, 11), vec![(10, 10), (11, 20)]);
    }

    #[test]
    fn next_due_tracks_the_earliest_drainable_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_due(), None);
        q.schedule(5, 1);
        q.schedule(3, 2);
        q.schedule(100, 3);
        assert_eq!(q.next_due(), Some(3));
        assert!(drain_queue(&mut q, 4).ends_with(&[(3, 2)]));
        assert_eq!(q.next_due(), Some(5));
        assert_eq!(drain_queue(&mut q, 5), vec![(5, 1)]);
        assert_eq!(q.next_due(), Some(100), "a far event is visible");
        // A past-due schedule drains at the next drain: that cycle, not
        // the requested one, is when a drain can reach it.
        q.schedule(2, 4);
        assert_eq!(q.next_due(), Some(6));
        assert_eq!(drain_queue(&mut q, 6), vec![(2, 4)]);
        assert_eq!(drain_queue(&mut q, 100), vec![(100, 3)]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn next_due_agrees_with_drain_under_random_schedules() {
        let mut rng = Rng::seed_from_u64(0xd0e5_1234);
        let mut q = EventQueue::new();
        let mut payload = 0u32;
        let mut now = 0u64;
        while now < 3_000 {
            for _ in 0..(rng.next_u64() % 3) {
                q.schedule(now + rng.next_u64() % 60, payload);
                payload += 1;
            }
            match q.next_due() {
                None => {
                    assert_eq!(q.len(), 0);
                    now += 1;
                }
                Some(due) => {
                    assert!(due >= now, "next_due never points behind the clock");
                    if due > 0 {
                        assert!(
                            drain_queue(&mut q, due - 1).is_empty(),
                            "nothing drains before next_due"
                        );
                    }
                    assert!(
                        !drain_queue(&mut q, due).is_empty(),
                        "something drains exactly at next_due"
                    );
                    now = due + 1;
                }
            }
        }
    }

    #[test]
    fn empty_wheel_fast_forwards_the_cursor() {
        let mut q = EventQueue::new();
        // Jump far ahead while empty; scheduling afterwards must still
        // work for both near and past-due cycles.
        assert!(drain_queue(&mut q, 1_000_000).is_empty());
        q.schedule(1_000_003, 1);
        q.schedule(999_999, 2); // behind the cursor: drains next
        assert_eq!(
            drain_queue(&mut q, 1_000_003),
            vec![(999_999, 2), (1_000_003, 1)]
        );
    }

    #[test]
    fn check_quiet_before_reads_every_event() {
        let mut q = EventQueue::new();
        q.schedule(12, 1);
        q.schedule(15, 2);
        assert!(q.check_quiet_before(12).is_ok());
        assert!(q.check_quiet_before(13).is_err());
        // A past-due event drains at the cursor, not its requested cycle.
        assert_eq!(drain_queue(&mut q, 12), vec![(12, 1)]);
        q.schedule(11, 3);
        assert!(q.check_quiet_before(13).is_ok());
        assert!(q.check_quiet_before(14).is_err());
        // An event out of cycle order behind the front is found too.
        assert_eq!(drain_queue(&mut q, 13), vec![(11, 3)]);
        q.events.push_back(Due {
            cycle: 14,
            payload: 4,
        });
        let err = q.check_quiet_before(15).expect_err("disorder must fail");
        assert!(err.contains("queued after"), "{err}");
    }

    #[test]
    fn prune_front_stops_at_the_first_live_event() {
        let mut q = EventQueue::new();
        for (cycle, payload) in [(5u64, 1u32), (6, 2), (7, 3), (9, 4)] {
            q.schedule(cycle, payload);
        }
        // Payloads 1 and 2 are stale, 3 is live: 4 stays queued behind it
        // even though it is stale too.
        let stale = |_: u64, &p: &u32| p != 3;
        q.prune_front(stale);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_due(), Some(7));
        assert_eq!(drain_queue(&mut q, 7), vec![(7, 3)]);
        q.prune_front(stale);
        assert_eq!(q.next_due(), None);
        q.prune_front(stale); // an empty queue is a no-op
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn survives_watchdog_sized_idle_windows() {
        // The forward-progress watchdog tolerates 50k cycles with no
        // retirement; the queue must deliver events parked that far out.
        let h = 256;
        let mut q = EventQueue::new();
        q.schedule(50_000, 1);
        q.schedule(50_000 + h, 2);
        let mut got = Vec::new();
        for now in 0..=(50_000 + h) {
            got.extend(drain_queue(&mut q, now));
        }
        assert_eq!(got, vec![(50_000, 1), (50_000 + h, 2)]);
        assert_eq!(q.len(), 0);
    }
}
