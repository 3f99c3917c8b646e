//! Data-TLB timing model.
//!
//! The paper attributes part of `turb3d`'s pipeline-length sensitivity to
//! dTLB misses "where recovery from the beginning of the pipeline impacts
//! performance" — i.e. a dTLB miss is handled as a trap that refetches from
//! the start of the pipe. [`TlbMissPolicy`] lets the pipeline choose between
//! that trap behaviour and a simpler fixed walk penalty.

use crate::cache::CacheWarmState;

/// What a TLB miss does to the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbMissPolicy {
    /// Add a fixed fill penalty to the access latency (hardware walker).
    Penalty(u32),
    /// Raise a trap; the pipeline squashes and refetches from the faulting
    /// instruction (the fill still happens so the retry hits).
    Trap,
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Translation present.
    Hit,
    /// Missed; a fixed `extra` cycles were added by the hardware walker.
    MissPenalty {
        /// Extra cycles added to the access.
        extra: u32,
    },
    /// Missed under [`TlbMissPolicy::Trap`]; the pipeline must trap.
    MissTrap,
}

/// TLB geometry and behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Miss handling.
    pub miss_policy: TlbMissPolicy,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 64,
            page_bytes: 8192,
            miss_policy: TlbMissPolicy::Penalty(30),
        }
    }
}

/// Fully-associative, true-LRU translation look-aside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    // (vpn, last_use)
    entries: Vec<(u64, u64)>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Build an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(
            cfg.entries > 0 && cfg.entries <= usize::from(u16::MAX),
            "TLB needs 1..=65535 entries"
        );
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            cfg,
            entries: Vec::with_capacity(cfg.entries),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// This TLB's configuration.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Translate the page containing `addr`, filling on a miss.
    pub fn access(&mut self, addr: u64) -> TlbOutcome {
        self.stamp += 1;
        let vpn = addr / self.cfg.page_bytes;
        if let Some(e) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = self.stamp;
            self.hits += 1;
            return TlbOutcome::Hit;
        }
        self.misses += 1;
        if self.entries.len() == self.cfg.entries {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.stamp));
        match self.cfg.miss_policy {
            TlbMissPolicy::Penalty(extra) => TlbOutcome::MissPenalty { extra },
            TlbMissPolicy::Trap => TlbOutcome::MissTrap,
        }
    }

    /// Would `addr` translate without missing? No state is modified.
    pub fn probe(&self, addr: u64) -> bool {
        let vpn = addr / self.cfg.page_bytes;
        self.entries.iter().any(|(v, _)| *v == vpn)
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Snapshot the translations for a checkpoint, as one fully
    /// associative set: the resident page numbers, least to most recently
    /// used. Statistics are not included.
    pub fn export_state(&self) -> CacheWarmState {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(_, last_use)| last_use);
        CacheWarmState {
            ways: u16::try_from(self.cfg.entries).expect("Tlb::new bounds the capacity"),
            counts: vec![entries.len() as u16],
            tags: entries.into_iter().map(|(vpn, _)| vpn).collect(),
        }
    }

    /// Restore a snapshot from [`Tlb::export_state`], with use stamps in
    /// the listed order (exact for the reasons [`CacheWarmState`] gives).
    /// Rejects snapshots that are not one set of this TLB's capacity.
    pub fn import_state(&mut self, state: &CacheWarmState) -> Result<(), String> {
        if state.counts.len() != 1 || usize::from(state.ways) != self.cfg.entries {
            return Err(format!(
                "snapshot has {} sets of {} entries, the TLB is one set of {}",
                state.counts.len(),
                state.ways,
                self.cfg.entries
            ));
        }
        self.entries.clear();
        self.entries
            .extend((1..).zip(&state.tags).map(|(stamp, &vpn)| (vpn, stamp)));
        self.stamp = u64::from(state.ways);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: TlbMissPolicy) -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_policy: policy,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut t = tiny(TlbMissPolicy::Penalty(30));
        assert_eq!(t.access(0x1000), TlbOutcome::MissPenalty { extra: 30 });
        assert_eq!(t.access(0x1fff), TlbOutcome::Hit, "same page");
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny(TlbMissPolicy::Penalty(1));
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // touch page 0
        t.access(0x2000); // evicts page 1
        assert!(t.probe(0x0000));
        assert!(!t.probe(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn trap_policy_fills_so_retry_hits() {
        let mut t = tiny(TlbMissPolicy::Trap);
        assert_eq!(t.access(0x5000), TlbOutcome::MissTrap);
        assert_eq!(
            t.access(0x5000),
            TlbOutcome::Hit,
            "trap handler filled the entry"
        );
    }

    #[test]
    fn probe_is_pure() {
        let t = tiny(TlbMissPolicy::Trap);
        assert!(!t.probe(0x1234));
    }
}
