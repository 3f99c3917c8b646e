//! Data-TLB configuration.
//!
//! The paper attributes part of `turb3d`'s pipeline-length sensitivity to
//! dTLB misses "where recovery from the beginning of the pipeline impacts
//! performance" — i.e. a dTLB miss is handled as a trap that refetches from
//! the start of the pipe. [`TlbMissPolicy`] lets the pipeline choose between
//! that trap behaviour and a simpler fixed walk penalty.
//!
//! The TLB's directory is a [`Cache`](crate::Cache) of one fully
//! associative set whose lines are pages ([`TlbConfig::geometry`]);
//! [`MemHierarchy::access`](crate::MemHierarchy::access) applies the miss
//! policy.

use crate::cache::CacheConfig;

/// What a TLB miss does to the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbMissPolicy {
    /// Add a fixed fill penalty to the access latency (hardware walker).
    Penalty(u32),
    /// Raise a trap; the pipeline squashes and refetches from the faulting
    /// instruction (the fill still happens so the retry hits).
    Trap,
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

impl TlbConfig {
    /// The TLB as a cache: one set of `entries` ways, one line per page.
    /// A line's tag is then its virtual page number. The latency is
    /// unused: a miss costs what the policy says.
    pub fn geometry(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.entries * self.page_bytes as usize,
            assoc: self.entries,
            line_bytes: self.page_bytes as usize,
            hit_latency: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;

    fn tiny() -> Cache {
        Cache::new(
            TlbConfig {
                entries: 2,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Trap,
            }
            .geometry(),
        )
    }

    #[test]
    fn hit_after_fill() {
        let mut t = tiny();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert_eq!((t.stats().hits, t.stats().misses), (1, 1));
        assert_eq!(t.export_state().tags(), [1], "the tag is the page number");
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny();
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
        use crate::{AccessKind, HierarchyConfig, MemHierarchy};
        let mut m = MemHierarchy::new(HierarchyConfig {
            dtlb: TlbConfig {
                entries: 2,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Trap,
            },
            ..HierarchyConfig::default()
        });
        assert!(m.access(AccessKind::DataRead, 0x5000, 0).tlb_trap);
        assert!(
            !m.access(AccessKind::DataRead, 0x5000, 1).tlb_trap,
            "trap handler filled the entry"
        );
        let s = m.stats();
        assert_eq!((s.dtlb_hits, s.dtlb_misses), (1, 1));
    }

    #[test]
    fn probe_is_pure() {
        let t = tiny();
        assert!(!t.probe(0x1234));
        assert_eq!(t.stats().accesses(), 0);
    }
}
