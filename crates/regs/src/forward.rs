//! The forwarding buffer.
//!
//! Paper §2.2.1: "The base model contains a forwarding buffer which retains
//! results for instructions executed in the last 9 cycles" — five cycles to
//! cover long-latency operations and limit register-file write ports, four
//! more to cover the write-back wire delay. A hit here is the paper's
//! *timely operand* class; the buffer is what turns the execute→RF-write
//! loose loop into a tight loop.
//!
//! The buffer is the per-register value store only. When each value
//! leaves it (the register-file write-back, `window` cycles after it was
//! produced) is the machine's event to schedule; [`ForwardingBuffer::leaving`]
//! confirms that a scheduled write-back is still current.

use crate::PhysReg;

/// `cycles` sentinel for "no live entry".
const EMPTY: u64 = u64::MAX;

/// Sliding-window result store: `(physical register → value)` for results
/// produced in the last `window` cycles.
///
/// Lookups index dense per-preg arrays (rename guarantees one live
/// producer per preg, so this is an exact CAM model). The buffer keeps no
/// timing structure of its own: the machine schedules each result's
/// write-back on its event queue and asks [`leaving`] whether the result
/// is still the one leaving the buffer. Eviction is a watermark, not a
/// sweep: entries older than the last [`evict_expired`] call stop matching
/// without being visited.
///
/// [`leaving`]: ForwardingBuffer::leaving
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
        ForwardingBuffer {
            window,
            cycles: vec![EMPTY; nregs],
            values: vec![0; nregs],
            watermark: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Record a result produced at `cycle`.
    pub fn insert(&mut self, r: PhysReg, value: u64, cycle: u64) {
        let need = r.index() + 1;
        if self.cycles.len() < need {
            self.cycles.resize(need, EMPTY);
            self.values.resize(need, 0);
        }
        self.cycles[r.index()] = cycle;
        self.values[r.index()] = value;
    }

    /// Look up `r` at `now`: a hit if its producer wrote within the window
    /// (strictly fewer than `window` cycles ago, counting the producing
    /// cycle itself).
    #[inline]
    pub fn lookup(&mut self, r: PhysReg, now: u64) -> Option<u64> {
        let cycle = self.cycles.get(r.index()).copied().unwrap_or(EMPTY);
        let live =
            cycle != EMPTY && cycle >= self.watermark && now >= cycle && now - cycle < self.window;
        let v = live.then(|| self.values[r.index()]);
        match v {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        v
    }

    /// `r`'s value if it leaves the buffer exactly at `now` — i.e. is
    /// written back to the register file this cycle: its entry was
    /// produced `window` cycles before `now` and has not been re-inserted,
    /// invalidated or evicted since. The DRA and the RPFT snoop this
    /// write-back traffic.
    #[inline]
    pub fn leaving(&self, r: PhysReg, now: u64) -> Option<u64> {
        let c = now.checked_sub(self.window)?;
        (c >= self.watermark && self.cycles.get(r.index()) == Some(&c))
            .then(|| self.values[r.index()])
    }

    /// Drop entries older than the window (housekeeping). Call once per
    /// cycle after the write-back. O(1): advances the eviction watermark;
    /// stale entries stop matching without being visited.
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
        assert_eq!(f.leaving(PhysReg(1), 109), Some(11));
        assert_eq!(f.leaving(PhysReg(2), 109), None, "not yet");
        assert_eq!(f.leaving(PhysReg(2), 110), Some(22));
        assert_eq!(f.leaving(PhysReg(1), 110), None, "already written back");
    }

    #[test]
    fn expiring_skips_refreshed_and_invalidated_entries() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(1), 11, 100);
        f.insert(PhysReg(2), 22, 100);
        f.insert(PhysReg(3), 33, 100);
        f.insert(PhysReg(1), 12, 104); // refreshed: leaves later
        f.invalidate(PhysReg(2)); // reallocated: never written back
        assert_eq!(f.leaving(PhysReg(3), 109), Some(33));
        assert_eq!(f.leaving(PhysReg(1), 109), None, "refreshed");
        assert_eq!(f.leaving(PhysReg(2), 109), None, "invalidated");
        assert_eq!(f.leaving(PhysReg(1), 113), Some(12));
    }

    #[test]
    fn leaving_reports_each_writeback_once_at_its_boundary() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(3), 33, 101);
        assert_eq!(f.leaving(PhysReg(3), 110), Some(33));
        for now in [100, 108, 109, 111] {
            assert_eq!(f.leaving(PhysReg(3), now), None, "only at the boundary");
        }
        assert_eq!(f.leaving(PhysReg(7), 110), None, "never inserted");
        assert_eq!(f.leaving(PhysReg(3), 5), None, "before the first window");
    }

    #[test]
    fn evict_expired_removes_stale_entries() {
        let mut f = ForwardingBuffer::new(2);
        f.insert(PhysReg(1), 5, 0);
        f.evict_expired(10);
        assert_eq!(f.lookup(PhysReg(1), 1), None);
    }

    #[test]
    fn invalidate_on_reallocation() {
        let mut f = ForwardingBuffer::new(9);
        f.insert(PhysReg(7), 99, 50);
        f.invalidate(PhysReg(7));
        assert_eq!(f.lookup(PhysReg(7), 51), None);
    }
}
