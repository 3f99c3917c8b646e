//! Branch target buffer.
//!
//! Tagged, direct-mapped target cache. The fetch unit consults it for the
//! taken-path target of control instructions before they are even decoded;
//! a miss means a taken branch redirects only after decode (modelled by the
//! pipeline as a fetch bubble).

/// A direct-mapped, tagged branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    // (tag, target); tag == u64::MAX means empty.
    entries: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Build a BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(
            entries.is_power_of_two() && u32::try_from(entries).is_ok(),
            "BTB size must be a power of two below 2^32"
        );
        Btb {
            entries: vec![(u64::MAX, 0); entries],
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.entries.len() - 1)
    }

    /// Predicted target for the control instruction at `pc`, if present.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let (tag, target) = self.entries[self.index(pc)];
        if tag == pc {
            self.hits += 1;
            Some(target)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Non-counting lookup (for tests and diagnostics).
    pub fn probe(&self, pc: u64) -> Option<u64> {
        let (tag, target) = self.entries[self.index(pc)];
        (tag == pc).then_some(target)
    }

    /// Install or update the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = (pc, target);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Snapshot the occupied slots for a checkpoint, in slot order.
    /// Statistics are not included.
    pub fn export_state(&self) -> BtbWarmState {
        BtbWarmState {
            slots: u32::try_from(self.entries.len()).expect("Btb::new bounds the size"),
            entries: (0..)
                .zip(&self.entries)
                .filter(|(_, &(tag, _))| tag != u64::MAX)
                .map(|(slot, &(tag, target))| (slot, tag, target))
                .collect(),
        }
    }

    /// Restore a snapshot from [`Btb::export_state`]. Rejects snapshots
    /// that are malformed or taken from a BTB of another size.
    pub fn import_state(&mut self, state: &BtbWarmState) -> Result<(), String> {
        if state.slots as usize != self.entries.len() {
            return Err(format!(
                "snapshot has {} slots, BTB has {}",
                state.slots,
                self.entries.len()
            ));
        }
        self.entries.fill((u64::MAX, 0));
        for &(slot, tag, target) in &state.entries {
            self.entries[slot as usize] = (tag, target);
        }
        Ok(())
    }
}

/// A BTB's occupied slots as a checkpoint holds them. Every entry names
/// a slot of the table, in ascending slot order, with a tag other than
/// the empty-slot marker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BtbWarmState {
    slots: u32,
    entries: Vec<(u32, u64, u64)>,
}

impl BtbWarmState {
    /// The state of a `slots`-slot BTB whose occupied slots are
    /// `entries`, as `(slot, tag, target)`.
    ///
    /// # Errors
    ///
    /// A message naming the first slot past the table, out of order or
    /// repeated, or holding the empty-slot tag.
    pub fn new(slots: u32, entries: Vec<(u32, u64, u64)>) -> Result<BtbWarmState, String> {
        let mut next = 0;
        for &(slot, tag, _) in &entries {
            if slot >= slots {
                return Err(format!("slot {slot} is past the {slots} slots"));
            }
            if slot < next {
                return Err(format!("slot {slot} is out of order or repeated"));
            }
            if tag == u64::MAX {
                return Err(format!("slot {slot} holds the empty-slot tag"));
            }
            next = slot + 1;
        }
        Ok(BtbWarmState { slots, entries })
    }

    /// Slots in the BTB the state was taken from.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// `(slot, tag, target)` of every occupied slot, in slot order.
    pub fn entries(&self) -> &[(u32, u64, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = Btb::new(16);
        assert_eq!(b.lookup(5), None);
        b.update(5, 100);
        assert_eq!(b.lookup(5), Some(100));
        assert_eq!(b.stats(), (1, 1));
    }

    #[test]
    fn conflicting_pcs_evict() {
        let mut b = Btb::new(16);
        b.update(3, 30);
        b.update(19, 190); // same slot in a 16-entry BTB
        assert_eq!(b.probe(3), None);
        assert_eq!(b.probe(19), Some(190));
    }

    #[test]
    fn update_overwrites_target() {
        let mut b = Btb::new(4);
        b.update(1, 10);
        b.update(1, 20);
        assert_eq!(b.probe(1), Some(20));
    }

    /// A BTB warmed by one seeded stream, exported and imported into a
    /// fresh one, predicts a second stream exactly like the original and
    /// ends in the same state.
    #[test]
    fn warm_state_round_trip_is_exact() {
        let mut rng = looseloops_rng::Rng::seed_from_u64(0xb7b2);
        let mut warm = Btb::new(64);
        for _ in 0..40 {
            warm.update(rng.gen_range(0u64..256), rng.gen_range(0u64..1 << 20));
        }
        let state = warm.export_state();
        assert!(!state.entries().is_empty() && state.entries().len() < 64);
        let mut fresh = Btb::new(64);
        fresh.import_state(&state).expect("same size");
        assert_eq!(fresh.export_state(), state);
        for i in 0..2000 {
            let pc = rng.gen_range(0u64..256);
            assert_eq!(warm.lookup(pc), fresh.lookup(pc), "{i}");
            if rng.gen_bool(0.3) {
                let target = rng.gen_range(0u64..1 << 20);
                warm.update(pc, target);
                fresh.update(pc, target);
            }
        }
        assert_eq!(warm.export_state(), fresh.export_state());
    }

    #[test]
    fn malformed_warm_state_is_rejected() {
        let mut b = Btb::new(16);
        let good = BtbWarmState::new(16, vec![(3, 3, 30), (15, 31, 7)]).expect("well formed");
        b.import_state(&good).expect("same size");
        assert_eq!(b.probe(31), Some(7));
        for bad in [
            vec![(16, 16, 1)],
            vec![(3, 3, 1), (3, 19, 2)],
            vec![(5, 5, 1), (3, 3, 2)],
            vec![(4, u64::MAX, 0)],
        ] {
            assert!(BtbWarmState::new(16, bad.clone()).is_err(), "{bad:?}");
        }
        let smaller = BtbWarmState::new(8, vec![]).expect("well formed");
        assert!(b.import_state(&smaller).is_err());
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Btb::new(10);
    }
}
