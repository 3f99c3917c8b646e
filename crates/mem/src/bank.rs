//! Cache-bank contention tracking.
//!
//! The paper's load-resolution loop exists because a load's latency is
//! non-deterministic: it may hit, miss, *or suffer a bank conflict* (§2.2.2).
//! [`BankTracker`] models the conflict part: each bank can start one access
//! per cycle; a second access to the same bank in the same cycle is delayed.

/// Per-cycle bank-busy bookkeeping for an interleaved cache.
#[derive(Debug, Clone)]
pub struct BankTracker {
    busy_until: Vec<u64>,
    line_bytes: u64,
    conflicts: u64,
}

impl BankTracker {
    /// A tracker for `banks` banks interleaved at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two.
    pub fn new(banks: usize, line_bytes: u64) -> BankTracker {
        assert!(
            banks > 0 && banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        BankTracker {
            busy_until: vec![0; banks],
            line_bytes,
            conflicts: 0,
        }
    }

    /// Which bank serves `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) as usize) & (self.busy_until.len() - 1)
    }

    /// Reserve `addr`'s bank starting at cycle `now`. Returns the number of
    /// extra cycles the access must wait for the bank (0 if free).
    pub fn reserve(&mut self, addr: u64, now: u64) -> u64 {
        let b = self.bank_of(addr);
        let free_at = self.busy_until[b];
        let start = now.max(free_at);
        self.busy_until[b] = start + 1;
        let wait = start - now;
        if wait > 0 {
            self.conflicts += 1;
        }
        wait
    }

    /// Total accesses that experienced a conflict delay.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bank_same_cycle_conflicts() {
        let mut b = BankTracker::new(4, 64);
        assert_eq!(b.reserve(0, 10), 0);
        assert_eq!(b.reserve(0, 10), 1, "second access to bank 0 waits");
        assert_eq!(b.reserve(0, 10), 2);
        assert_eq!(b.conflicts(), 2);
    }

    #[test]
    fn different_banks_no_conflict() {
        let mut b = BankTracker::new(4, 64);
        assert_eq!(b.reserve(0, 5), 0);
        assert_eq!(b.reserve(64, 5), 0);
        assert_eq!(b.reserve(128, 5), 0);
        assert_eq!(b.reserve(192, 5), 0);
        assert_eq!(b.conflicts(), 0);
    }

    #[test]
    fn banks_free_up_next_cycle() {
        let mut b = BankTracker::new(2, 64);
        assert_eq!(b.reserve(0, 1), 0);
        assert_eq!(b.reserve(0, 2), 0);
        assert_eq!(b.conflicts(), 0);
    }

    #[test]
    fn bank_mapping_interleaves_by_line() {
        let b = BankTracker::new(4, 64);
        assert_eq!(b.bank_of(0), 0);
        assert_eq!(b.bank_of(63), 0);
        assert_eq!(b.bank_of(64), 1);
        assert_eq!(b.bank_of(256), 0);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_banks_rejected() {
        let _ = BankTracker::new(3, 64);
    }
}
