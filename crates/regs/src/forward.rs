//! The forwarding buffer.
//!
//! Paper §2.2.1: "The base model contains a forwarding buffer which retains
//! results for instructions executed in the last 9 cycles" — five cycles to
//! cover long-latency operations and limit register-file write ports, four
//! more to cover the write-back wire delay. A hit here is the paper's
//! *timely operand* class; the buffer is what turns the execute→RF-write
//! loose loop into a tight loop.

use crate::PhysReg;

/// `cycles` sentinel for "no live entry".
const EMPTY: u64 = u64::MAX;

/// Sliding-window result store: `(physical register → value)` for results
/// produced in the last `window` cycles.
///
/// Layout is chosen for the simulator's per-cycle hot paths: lookups index
/// dense per-preg arrays (rename guarantees one live producer per preg, so
/// this is an exact CAM model), and the write-back traffic for a cycle is
/// kept in a small ring of per-cycle buckets so [`expiring_into`] touches
/// only the results actually leaving the buffer instead of scanning every
/// resident entry. Eviction is a watermark, not a sweep: entries older than
/// the last [`evict_expired`] call stop matching without being visited.
///
/// [`expiring_into`]: ForwardingBuffer::expiring_into
/// [`evict_expired`]: ForwardingBuffer::evict_expired
#[derive(Debug, Clone)]
pub struct ForwardingBuffer {
    window: u64,
    /// Produced cycle per preg (`EMPTY` = no entry). Grown on demand.
    cycles: Vec<u64>,
    /// Value per preg; valid only where `cycles` is live.
    values: Vec<u64>,
    /// Entries produced before this cycle are evicted (never match).
    watermark: u64,
    /// Per-cycle write-back buckets: pregs whose producer wrote in the
    /// tagged cycle. A bucket may hold stale pregs (re-inserted or
    /// invalidated since); readers re-validate against `cycles`.
    buckets: Vec<Vec<PhysReg>>,
    /// The cycle each bucket currently holds (`EMPTY` = untouched).
    bucket_cycle: Vec<u64>,
    /// `buckets.len() - 1`; the ring length is a power of two, so a
    /// cycle's bucket is `cycle & ring_mask`.
    ring_mask: u64,
    hits: u64,
    misses: u64,
}

impl ForwardingBuffer {
    /// A buffer retaining results for `window` cycles (the paper uses 9).
    /// Per-preg storage grows on demand; use
    /// [`ForwardingBuffer::with_regs`] to pre-size it.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> ForwardingBuffer {
        ForwardingBuffer::with_regs(window, 0)
    }

    /// A buffer retaining results for `window` cycles, pre-sized for
    /// `nregs` physical registers so steady-state operation never
    /// allocates.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_regs(window: u64, nregs: usize) -> ForwardingBuffer {
        assert!(window > 0, "forwarding window must be positive");
        // A result is visible for `window` cycles and reported once more as
        // it expires, so distinct live cycles never collide in a ring of at
        // least `window + 2` buckets.
        let ring = (window + 2).next_power_of_two() as usize;
        ForwardingBuffer {
            window,
            cycles: vec![EMPTY; nregs],
            values: vec![0; nregs],
            watermark: 0,
            buckets: vec![Vec::new(); ring],
            bucket_cycle: vec![EMPTY; ring],
            ring_mask: ring as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// The retention window in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    #[inline]
    fn ensure_reg(&mut self, r: PhysReg) {
        let need = r.index() + 1;
        if self.cycles.len() < need {
            self.cycles.resize(need, EMPTY);
            self.values.resize(need, 0);
        }
    }

    /// Record a result produced at `cycle`.
    pub fn insert(&mut self, r: PhysReg, value: u64, cycle: u64) {
        self.ensure_reg(r);
        let idx = (cycle & self.ring_mask) as usize;
        if self.bucket_cycle[idx] != cycle {
            self.bucket_cycle[idx] = cycle;
            self.buckets[idx].clear();
        }
        // Same-preg same-cycle re-insert only updates the value.
        if self.cycles[r.index()] != cycle {
            self.buckets[idx].push(r);
        }
        self.cycles[r.index()] = cycle;
        self.values[r.index()] = value;
    }

    #[inline]
    fn live_value(&self, r: PhysReg, now: u64) -> Option<u64> {
        let cycle = *self.cycles.get(r.index())?;
        if cycle != EMPTY && cycle >= self.watermark && now >= cycle && now - cycle < self.window {
            Some(self.values[r.index()])
        } else {
            None
        }
    }

    /// Look up `r` at `now`: a hit if its producer wrote within the window
    /// (strictly fewer than `window` cycles ago, counting the producing
    /// cycle itself).
    #[inline]
    pub fn lookup(&mut self, r: PhysReg, now: u64) -> Option<u64> {
        let v = self.live_value(r, now);
        match v {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        v
    }

    /// Non-counting lookup for diagnostics and the insertion-table protocol
    /// (checking whether a value is *about to leave* the buffer).
    #[inline]
    pub fn probe(&self, r: PhysReg, now: u64) -> Option<u64> {
        self.live_value(r, now)
    }

    /// Values whose retention expires exactly at `now` — i.e. results
    /// written back to the register file this cycle. The DRA snoops this
    /// write-back traffic to fill the cluster register caches.
    pub fn expiring(&self, now: u64) -> Vec<(PhysReg, u64)> {
        let mut v = Vec::new();
        self.expiring_into(now, &mut v);
        v
    }

    /// [`ForwardingBuffer::expiring`] into a caller-owned buffer (cleared
    /// first), so the per-cycle write-back snoop allocates nothing.
    pub fn expiring_into(&self, now: u64, out: &mut Vec<(PhysReg, u64)>) {
        out.clear();
        let Some(c) = now.checked_sub(self.window) else {
            return;
        };
        if c < self.watermark {
            return;
        }
        let idx = (c & self.ring_mask) as usize;
        if self.bucket_cycle[idx] != c {
            return;
        }
        for &r in &self.buckets[idx] {
            // Skip pregs re-inserted or invalidated since the bucket push.
            if self.cycles[r.index()] == c {
                out.push((r, self.values[r.index()]));
            }
        }
        out.sort_unstable_by_key(|(r, _)| *r);
        out.dedup_by_key(|(r, _)| *r);
    }

    /// The earliest cycle `>= now` at which [`ForwardingBuffer::expiring`]
    /// would report a non-empty write-back set, or `None` when no resident
    /// entry has a pending expiry. Used by the quiescence-skip logic: the
    /// clock must not jump past a write-back event (the DRA and the RPFT
    /// snoop that traffic).
    pub fn next_expiry(&self, now: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        for (idx, &c) in self.bucket_cycle.iter().enumerate() {
            if c == EMPTY || c < self.watermark {
                continue;
            }
            let at = c + self.window;
            if at < now || best.is_some_and(|b| at >= b) {
                continue;
            }
            // The bucket may hold only stale pregs (re-inserted or
            // invalidated since); an expiry only fires if some entry is
            // still live for the bucket's cycle.
            if self.buckets[idx]
                .iter()
                .any(|r| self.cycles[r.index()] == c)
            {
                best = Some(at);
            }
        }
        best
    }

    /// Drop entries older than the window (housekeeping). Call once per
    /// cycle after `expiring`. O(1): advances the eviction watermark; stale
    /// entries stop matching without being visited.
    #[inline]
    pub fn evict_expired(&mut self, now: u64) {
        let floor = now.saturating_sub(self.window);
        self.watermark = self.watermark.max(floor);
    }

    /// Invalidate any entry for `r` (physical-register reallocation; a new
    /// consumer must never see the previous incarnation's value).
    #[inline]
    pub fn invalidate(&mut self, r: PhysReg) {
        if let Some(c) = self.cycles.get_mut(r.index()) {
            *c = EMPTY;
        }
    }

    /// Clear everything (full squash of a thread does **not** require this —
    /// values remain architecturally correct — but tests use it).
    pub fn clear(&mut self) {
        self.cycles.fill(EMPTY);
        for b in &mut self.buckets {
            b.clear();
        }
        self.bucket_cycle.fill(EMPTY);
    }

    /// (hits, misses) among counted lookups.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_window_miss_after() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 42, 100);
        assert_eq!(f.lookup(PhysReg(1), 100), Some(42));
        assert_eq!(f.lookup(PhysReg(1), 108), Some(42));
        assert_eq!(f.lookup(PhysReg(1), 109), None);
        assert_eq!(f.stats(), (2, 1));
    }

    #[test]
    fn reinsert_refreshes_window() {
        let mut f = ForwardingBuffer::new(4);
        f.insert(PhysReg(2), 1, 10);
        f.insert(PhysReg(2), 2, 13);
        assert_eq!(f.lookup(PhysReg(2), 16), Some(2));
    }

    #[test]
    fn expiring_reports_writeback_traffic() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 11, 100);
        f.insert(PhysReg(2), 22, 101);
        assert_eq!(f.expiring(109), vec![(PhysReg(1), 11)]);
        assert_eq!(f.expiring(110), vec![(PhysReg(2), 22)]);
        assert!(
            f.expiring(111).is_empty(),
            "only reported at the exact boundary"
        );
    }

    #[test]
    fn expiring_skips_refreshed_and_invalidated_entries() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 11, 100);
        f.insert(PhysReg(2), 22, 100);
        f.insert(PhysReg(3), 33, 100);
        f.insert(PhysReg(1), 12, 104); // refreshed: expires later
        f.invalidate(PhysReg(2)); // reallocated: never written back
        assert_eq!(f.expiring(109), vec![(PhysReg(3), 33)]);
        assert_eq!(f.expiring(113), vec![(PhysReg(1), 12)]);
    }

    #[test]
    fn expiring_into_reuses_buffer_without_allocating() {
        let mut f = ForwardingBuffer::with_regs(9, 8);
        f.insert(PhysReg(5), 55, 40);
        let mut out = Vec::with_capacity(4);
        out.push((PhysReg(0), 999)); // must be cleared
        f.expiring_into(49, &mut out);
        assert_eq!(out, vec![(PhysReg(5), 55)]);
        f.expiring_into(50, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn evict_expired_removes_stale_entries() {
        let mut f = ForwardingBuffer::new(2);
        f.insert(PhysReg(1), 5, 0);
        f.evict_expired(10);
        assert!(f.probe(PhysReg(1), 1).is_none());
    }

    #[test]
    fn invalidate_on_reallocation() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(7), 99, 50);
        f.invalidate(PhysReg(7));
        assert_eq!(f.lookup(PhysReg(7), 51), None);
    }

    #[test]
    fn next_expiry_finds_the_earliest_pending_writeback() {
        let mut f = ForwardingBuffer::new(9);
        assert_eq!(f.next_expiry(0), None);
        f.insert(PhysReg(1), 11, 100);
        f.insert(PhysReg(2), 22, 103);
        assert_eq!(f.next_expiry(100), Some(109));
        assert_eq!(f.next_expiry(109), Some(109), "inclusive at the boundary");
        assert_eq!(f.next_expiry(110), Some(112), "past expiries are skipped");
        assert_eq!(f.next_expiry(113), None);
    }

    #[test]
    fn next_expiry_ignores_stale_and_evicted_entries() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 11, 100);
        f.insert(PhysReg(2), 22, 101);
        f.insert(PhysReg(1), 12, 104); // refreshed: old bucket entry stale
        f.invalidate(PhysReg(2)); // reallocated: never expires
        assert_eq!(f.next_expiry(100), Some(113));
        f.evict_expired(114); // watermark past every producer cycle
        assert_eq!(f.next_expiry(100), None);
    }

    #[test]
    fn next_expiry_agrees_with_expiring() {
        let mut f = ForwardingBuffer::new(4);
        f.insert(PhysReg(1), 1, 10);
        f.insert(PhysReg(3), 3, 12);
        f.insert(PhysReg(5), 5, 12);
        let mut now = 10;
        while let Some(at) = f.next_expiry(now) {
            for c in now..at {
                assert!(f.expiring(c).is_empty(), "no write-back before {at}");
            }
            assert!(!f.expiring(at).is_empty(), "write-back fires at {at}");
            now = at + 1;
        }
        assert!(f.expiring(now).is_empty());
    }

    #[test]
    fn probe_does_not_count() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 1, 0);
        let _ = f.probe(PhysReg(1), 0);
        assert_eq!(f.stats(), (0, 0));
    }
}
