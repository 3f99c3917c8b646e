//! Cluster register cache (CRC) — paper §5.1.
//!
//! One 16-entry, fully-associative register cache per functional-unit
//! cluster, placed next to the cluster to keep access at a single cycle.
//! Replacement is plain FIFO: the paper found that smarter policies gain
//! almost nothing because most register values are read once. Stale values
//! are impossible by construction: physical-register reallocation
//! invalidates matching entries (paper §5.5).

use crate::PhysReg;
use std::collections::VecDeque;

/// CRC replacement policy. The paper uses FIFO and reports that smarter
/// policies ("almost perfect knowledge of which values were needed") gain
/// almost nothing — [`CrcPolicy::Lru`] exists to check that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrcPolicy {
    /// Plain insertion-order eviction (the paper's choice).
    #[default]
    Fifo,
    /// Hits refresh recency; the least-recently-used entry evicts.
    Lru,
}

/// A small FIFO (or LRU) register cache for one cluster.
#[derive(Debug, Clone)]
pub struct ClusterRegCache {
    entries: VecDeque<(PhysReg, u64)>,
    /// Per physical register: resident in `entries` (grown on demand), so
    /// the invalidation every register allocation performs skips the
    /// associative scan for the many registers that are not cached.
    resident: Vec<bool>,
    capacity: usize,
    policy: CrcPolicy,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ClusterRegCache {
    /// A FIFO CRC holding `capacity` values (the paper uses 16).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ClusterRegCache {
        ClusterRegCache::with_policy(capacity, CrcPolicy::Fifo)
    }

    /// A CRC with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_policy(capacity: usize, policy: CrcPolicy) -> ClusterRegCache {
        assert!(capacity > 0, "CRC capacity must be positive");
        ClusterRegCache {
            entries: VecDeque::with_capacity(capacity),
            resident: Vec::new(),
            capacity,
            policy,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// This cache, pre-sized for `nregs` physical registers so that
    /// steady-state inserts never allocate.
    pub fn sized_for(mut self, nregs: usize) -> ClusterRegCache {
        if self.resident.len() < nregs {
            self.resident.resize(nregs, false);
        }
        self
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no values are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a value at write-back. FIFO-evicts the oldest entry when
    /// full; re-inserting an already-present register refreshes its value
    /// in place (it keeps its FIFO position — the hardware would simply
    /// rewrite the CAM row).
    pub fn insert(&mut self, r: PhysReg, value: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(reg, _)| *reg == r) {
            e.1 = value;
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some((old, _)) = self.entries.pop_front() {
                self.resident[old.index()] = false;
            }
            self.evictions += 1;
        }
        self.entries.push_back((r, value));
        if self.resident.len() <= r.index() {
            self.resident.resize(r.index() + 1, false);
        }
        self.resident[r.index()] = true;
    }

    /// Associative lookup. A hit **consumes nothing**: values may be read
    /// by several consumers before replacement pressure pushes them out.
    /// Under [`CrcPolicy::Lru`], a hit refreshes the entry's recency.
    pub fn lookup(&mut self, r: PhysReg) -> Option<u64> {
        match self.entries.iter().position(|(reg, _)| *reg == r) {
            Some(i) => {
                self.hits += 1;
                let v = self.entries[i].1;
                if self.policy == CrcPolicy::Lru {
                    let e = self.entries.remove(i).expect("present");
                    self.entries.push_back(e);
                }
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Non-counting lookup.
    pub fn probe(&self, r: PhysReg) -> Option<u64> {
        self.entries
            .iter()
            .find(|(reg, _)| *reg == r)
            .map(|&(_, v)| v)
    }

    /// Iterate resident `(register, value)` pairs in replacement order
    /// (used by the pipeline's invariant auditor).
    pub fn entries(&self) -> impl Iterator<Item = (PhysReg, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Invalidate any entry for `r` (physical-register reallocation — the
    /// paper's stale-value rule, §5.5).
    pub fn invalidate(&mut self, r: PhysReg) {
        if !self.resident.get(r.index()).copied().unwrap_or(false) {
            return;
        }
        self.resident[r.index()] = false;
        // `insert` keeps registers unique, so exactly one entry matches.
        if let Some(i) = self.entries.iter().position(|(reg, _)| *reg == r) {
            self.entries.remove(i);
        }
    }

    /// (hits, misses, fifo evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hits_refresh_recency() {
        let mut c = ClusterRegCache::with_policy(2, CrcPolicy::Lru);
        c.insert(PhysReg(1), 1);
        c.insert(PhysReg(2), 2);
        assert_eq!(c.lookup(PhysReg(1)), Some(1)); // refresh 1
        c.insert(PhysReg(3), 3); // evicts 2, not 1
        assert_eq!(c.probe(PhysReg(1)), Some(1));
        assert_eq!(c.probe(PhysReg(2)), None);
    }

    #[test]
    fn fifo_hits_do_not_refresh() {
        let mut c = ClusterRegCache::new(2);
        c.insert(PhysReg(1), 1);
        c.insert(PhysReg(2), 2);
        assert_eq!(c.lookup(PhysReg(1)), Some(1));
        c.insert(PhysReg(3), 3); // evicts 1 regardless of the hit
        assert_eq!(c.probe(PhysReg(1)), None);
        assert_eq!(c.probe(PhysReg(2)), Some(2));
    }

    #[test]
    fn insert_lookup() {
        let mut c = ClusterRegCache::new(4);
        c.insert(PhysReg(1), 10);
        assert_eq!(c.lookup(PhysReg(1)), Some(10));
        assert_eq!(c.lookup(PhysReg(2)), None);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn fifo_eviction_order() {
        let mut c = ClusterRegCache::new(2);
        c.insert(PhysReg(1), 1);
        c.insert(PhysReg(2), 2);
        c.insert(PhysReg(3), 3); // evicts PhysReg(1)
        assert_eq!(c.probe(PhysReg(1)), None);
        assert_eq!(c.probe(PhysReg(2)), Some(2));
        assert_eq!(c.probe(PhysReg(3)), Some(3));
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn lookups_do_not_consume() {
        let mut c = ClusterRegCache::new(2);
        c.insert(PhysReg(1), 7);
        assert_eq!(c.lookup(PhysReg(1)), Some(7));
        assert_eq!(c.lookup(PhysReg(1)), Some(7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = ClusterRegCache::new(2);
        c.insert(PhysReg(1), 1);
        c.insert(PhysReg(2), 2);
        c.insert(PhysReg(1), 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe(PhysReg(1)), Some(11));
        // PhysReg(1) kept its FIFO slot: next insert evicts it first.
        c.insert(PhysReg(3), 3);
        assert_eq!(c.probe(PhysReg(1)), None);
    }

    #[test]
    fn invalidate_tracks_evictions_and_reinserts() {
        let mut c = ClusterRegCache::new(2).sized_for(8);
        c.insert(PhysReg(1), 1);
        c.insert(PhysReg(2), 2);
        c.insert(PhysReg(3), 3); // evicts PhysReg(1)
        c.invalidate(PhysReg(1)); // no longer resident: nothing to drop
        assert_eq!(c.len(), 2);
        c.insert(PhysReg(1), 11); // evicts PhysReg(2)
        c.invalidate(PhysReg(3));
        c.invalidate(PhysReg(9)); // beyond the pre-sized registers
        assert_eq!(c.entries().collect::<Vec<_>>(), vec![(PhysReg(1), 11)]);
        c.invalidate(PhysReg(1));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = ClusterRegCache::new(4);
        c.insert(PhysReg(5), 50);
        c.invalidate(PhysReg(5));
        assert_eq!(c.probe(PhysReg(5)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = ClusterRegCache::new(16);
        for i in 0..32 {
            c.insert(PhysReg(i), i as u64);
        }
        assert_eq!(c.len(), 16);
        assert_eq!(c.capacity(), 16);
        // Oldest half evicted.
        assert_eq!(c.probe(PhysReg(15)), None);
        assert_eq!(c.probe(PhysReg(16)), Some(16));
    }
}
