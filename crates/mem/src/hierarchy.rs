//! The full memory hierarchy of the paper's base machine: split first-level
//! caches, a unified second level, banked L1D access, a data TLB, and a flat
//! main-memory latency.

use crate::bank::BankTracker;
use crate::cache::{Cache, CacheConfig, CacheStats, CacheWarmState};
use crate::prefetch::{PrefetchConfig, StreamPrefetcher};
use crate::tlb::{TlbConfig, TlbMissPolicy};

/// Which port an access uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I, no TLB modelled).
    InstFetch,
    /// Data load.
    DataRead,
    /// Data store.
    DataWrite,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// First-level cache.
    L1,
    /// Unified second-level cache.
    L2,
    /// Main memory.
    Memory,
}

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles, including bank-conflict and TLB-walk delays.
    pub latency: u32,
    /// The level that supplied the line.
    pub level: HitLevel,
    /// The access missed in the data TLB and the policy is `Trap`; the
    /// pipeline must squash and refetch.
    pub tlb_trap: bool,
    /// Extra cycles spent waiting for a busy bank.
    pub bank_wait: u32,
}

impl AccessResult {
    /// True if this access hit in the first-level cache with no TLB trap —
    /// the case the paper's load-hit speculation bets on.
    pub fn is_l1_hit(&self) -> bool {
        self.level == HitLevel::L1 && !self.tlb_trap
    }
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level instruction cache.
    pub l1i: CacheConfig,
    /// First-level data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Main-memory access latency (beyond L2) in cycles.
    pub mem_latency: u32,
    /// Number of L1D banks (power of two).
    pub l1d_banks: usize,
    /// Miss-status holding registers: maximum concurrent outstanding L1D
    /// misses. Further misses wait for a free MSHR (bounding memory-level
    /// parallelism).
    pub mshrs: usize,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Optional L1D stride prefetcher (an extension beyond the paper's
    /// machine; `None` reproduces the paper).
    pub prefetch: Option<PrefetchConfig>,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::l1i_default(),
            l1d: CacheConfig::l1d_default(),
            l2: CacheConfig::l2_default(),
            mem_latency: 120,
            l1d_banks: 8,
            mshrs: 8,
            dtlb: TlbConfig::default(),
            prefetch: None,
        }
    }
}

/// Aggregate statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction cache hits/misses.
    pub l1i: CacheStats,
    /// L1 data cache hits/misses.
    pub l1d: CacheStats,
    /// Unified L2 hits/misses.
    pub l2: CacheStats,
    /// Data-TLB (hits, misses).
    pub dtlb_hits: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// L1D bank conflicts.
    pub bank_conflicts: u64,
    /// Accesses delayed waiting for a free MSHR.
    pub mshr_waits: u64,
    /// Prefetch fills issued (0 without a prefetcher).
    pub prefetches: u64,
}

/// Portable warm-state snapshot of the hierarchy: which lines and pages
/// are resident in each cache and the TLB, and their recency order
/// ([`CacheWarmState`]: 8 bytes per resident line plus a 2-byte count per
/// set; validity and use stamps are implied by position). In-flight
/// timing state (banks, MSHRs) is intentionally absent: a checkpoint is
/// taken at a quiesced functional boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HierarchyWarmState {
    /// L1 instruction cache.
    pub l1i: CacheWarmState,
    /// L1 data cache.
    pub l1d: CacheWarmState,
    /// Unified L2.
    pub l2: CacheWarmState,
    /// Data TLB: one fully associative set of virtual page numbers.
    pub dtlb: CacheWarmState,
}

/// L1I + L1D + L2 + memory timing model.
///
/// ```
/// use looseloops_mem::{MemHierarchy, HierarchyConfig, AccessKind, HitLevel};
/// let mut m = MemHierarchy::new(HierarchyConfig::default());
/// let first = m.access(AccessKind::DataRead, 0x1000, 0);
/// assert_eq!(first.level, HitLevel::Memory);
/// let again = m.access(AccessKind::DataRead, 0x1000, 10);
/// assert_eq!(again.level, HitLevel::L1);
/// assert!(again.latency < first.latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    // One fully associative set of pages (`TlbConfig::geometry`).
    dtlb: Cache,
    banks: BankTracker,
    // Completion cycles of outstanding L1D misses.
    mshr_busy: Vec<u64>,
    mshr_waits: u64,
    prefetcher: Option<StreamPrefetcher>,
}

impl MemHierarchy {
    /// Build the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dtlb: Cache::new(cfg.dtlb.geometry()),
            banks: BankTracker::new(cfg.l1d_banks, cfg.l1d.line_bytes as u64),
            mshr_busy: Vec::with_capacity(cfg.mshrs),
            mshr_waits: 0,
            prefetcher: cfg.prefetch.map(StreamPrefetcher::new),
            cfg,
        }
    }

    /// Feed the prefetcher a demand load (`pc`, `addr`); confirmed streams
    /// fill L1D and L2 directly (an idealized zero-contention fill path).
    pub fn observe_load(&mut self, pc: u64, addr: u64) {
        if let Some(p) = &mut self.prefetcher {
            for target in p.observe(pc, addr) {
                self.l1d.fill(target);
                self.l2.fill(target);
            }
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Walk `addr` through the levels `kind` uses, updating residency and
    /// recency: the data TLB (data accesses only), the first-level cache,
    /// and L2 when the first level misses. Returns the level that supplied
    /// the line and whether the TLB missed.
    fn walk(&mut self, kind: AccessKind, addr: u64) -> (HitLevel, bool) {
        let (l1, tlb_miss) = match kind {
            AccessKind::InstFetch => (&mut self.l1i, false),
            AccessKind::DataRead | AccessKind::DataWrite => {
                (&mut self.l1d, !self.dtlb.access(addr))
            }
        };
        let level = if l1.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else {
            HitLevel::Memory
        };
        (level, tlb_miss)
    }

    /// Perform one timed access at cycle `now`: the residency walk of
    /// [`MemHierarchy::warm_access`], plus the TLB miss policy, bank and
    /// MSHR timing of data accesses.
    pub fn access(&mut self, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        let (level, tlb_miss) = self.walk(kind, addr);
        // The miss's own service time below L1.
        let service = match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => self.cfg.l2.hit_latency,
            HitLevel::Memory => self.cfg.l2.hit_latency + self.cfg.mem_latency,
        };
        if kind == AccessKind::InstFetch {
            return AccessResult {
                latency: self.cfg.l1i.hit_latency + service,
                level,
                tlb_trap: false,
                bank_wait: 0,
            };
        }
        // Stalls the request suffers *before* it can allocate an MSHR: the
        // L1 pipeline itself, a TLB walk, a busy bank.
        let mut pre = self.cfg.l1d.hit_latency;
        let mut tlb_trap = false;
        if tlb_miss {
            match self.cfg.dtlb.miss_policy {
                TlbMissPolicy::Penalty(extra) => pre += extra,
                TlbMissPolicy::Trap => tlb_trap = true,
            }
        }
        let bank_wait = self.banks.reserve(addr, now) as u32;
        pre += bank_wait;
        let mut mshr_wait = 0u32;
        if level != HitLevel::L1 {
            // An L1 miss allocates an MSHR once it reaches the cache (after
            // its pre-MSHR stalls) and holds it until the fill returns.
            // When all MSHRs are busy the miss waits for the earliest to
            // free — measured from its own arrival, not the call cycle, so
            // a cycle spent in the TLB walk or a bank queue is never also
            // charged as MSHR wait, and the slot's recorded flight time
            // covers exactly its own wait + service.
            let t_req = now + u64::from(pre);
            self.mshr_busy.retain(|&done| done > t_req);
            if self.mshr_busy.len() >= self.cfg.mshrs {
                let earliest = *self.mshr_busy.iter().min().expect("non-empty");
                // > 0 by the retain above; saturate rather than silently
                // truncate a pathological wait.
                let wait = earliest - t_req;
                debug_assert!(
                    u32::try_from(wait).is_ok(),
                    "MSHR wait {wait} overflows u32"
                );
                mshr_wait = u32::try_from(wait).unwrap_or(u32::MAX);
                self.mshr_waits += 1;
                // Retire the slot we are taking over.
                if let Some(pos) = self.mshr_busy.iter().position(|&d| d == earliest) {
                    self.mshr_busy.swap_remove(pos);
                }
            }
            self.mshr_busy
                .push(t_req + u64::from(mshr_wait) + u64::from(service));
        }
        AccessResult {
            latency: pre.saturating_add(mshr_wait).saturating_add(service),
            level,
            tlb_trap,
            bank_wait,
        }
    }

    /// Functionally warm the hierarchy: the residency walk of
    /// [`MemHierarchy::access`] without its bank/MSHR timing and latency.
    /// This is the hook the fast-forward interpreter drives; after a
    /// warm-up done entirely through it, tag/LRU state matches a detailed
    /// warm-up of the same access stream (in-flight MSHR/bank state is
    /// empty, which is the correct quiesced state at a functional/detailed
    /// boundary).
    pub fn warm_access(&mut self, kind: AccessKind, addr: u64) {
        self.walk(kind, addr);
    }

    /// Number of MSHRs still occupied by misses in flight at cycle `now`.
    pub fn mshrs_in_flight(&self, now: u64) -> usize {
        self.mshr_busy.iter().filter(|&&done| done > now).count()
    }

    /// Structural self-check for the invariant auditor: the outstanding-miss
    /// list may never exceed the configured MSHR count (the `access` path
    /// displaces a slot before pushing, so a violation means the accounting
    /// fix regressed).
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.mshr_busy.len() > self.cfg.mshrs {
            return Err(format!(
                "{} outstanding misses exceed {} MSHRs",
                self.mshr_busy.len(),
                self.cfg.mshrs
            ));
        }
        Ok(())
    }

    /// Snapshot the warm state (cache/TLB tags and recency) for a
    /// checkpoint. Timing state (banks, MSHRs) is deliberately excluded:
    /// it has no meaning across a functional/detailed boundary.
    pub fn export_warm(&self) -> HierarchyWarmState {
        HierarchyWarmState {
            l1i: self.l1i.export_state(),
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            dtlb: self.dtlb.export_state(),
        }
    }

    /// Restore warm state captured by [`MemHierarchy::export_warm`].
    /// Fails (leaving some levels possibly updated) if any snapshot does
    /// not match this hierarchy's geometry.
    pub fn import_warm(&mut self, warm: &HierarchyWarmState) -> Result<(), String> {
        self.l1i
            .import_state(&warm.l1i)
            .map_err(|e| format!("l1i: {e}"))?;
        self.l1d
            .import_state(&warm.l1d)
            .map_err(|e| format!("l1d: {e}"))?;
        self.l2
            .import_state(&warm.l2)
            .map_err(|e| format!("l2: {e}"))?;
        self.dtlb
            .import_state(&warm.dtlb)
            .map_err(|e| format!("dtlb: {e}"))?;
        Ok(())
    }

    /// Would a data access to `addr` hit in L1D? (No state change.)
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Latency of an L1D hit with no hazards — the deterministic value the
    /// issue logic schedules load consumers against (the paper's load-hit
    /// speculation).
    pub fn l1d_hit_latency(&self) -> u32 {
        self.cfg.l1d.hit_latency
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        let dtlb = self.dtlb.stats();
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            dtlb_hits: dtlb.hits,
            dtlb_misses: dtlb.misses,
            bank_conflicts: self.banks.conflicts(),
            mshr_waits: self.mshr_waits,
            prefetches: self.prefetcher.as_ref().map_or(0, StreamPrefetcher::issued),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 3,
            },
            l2: CacheConfig {
                size_bytes: 8192,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 12,
            },
            mem_latency: 100,
            l1d_banks: 2,
            mshrs: 8,
            dtlb: TlbConfig {
                entries: 4,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Penalty(20),
            },
            prefetch: None,
        })
    }

    #[test]
    fn prefetcher_converts_stream_misses_to_hits() {
        let mut with = MemHierarchy::new(HierarchyConfig {
            prefetch: Some(crate::prefetch::PrefetchConfig::default()),
            ..HierarchyConfig::default()
        });
        let mut without = MemHierarchy::new(HierarchyConfig::default());
        let mut now = 0;
        for i in 0..64u64 {
            let addr = 0x40_0000 + i * 64;
            with.access(AccessKind::DataRead, addr, now);
            with.observe_load(0x99, addr);
            without.access(AccessKind::DataRead, addr, now);
            now += 200; // let MSHRs drain
        }
        let (w, wo) = (with.stats(), without.stats());
        assert!(
            w.prefetches > 20,
            "stream must be detected: {}",
            w.prefetches
        );
        assert!(
            w.l1d.misses < wo.l1d.misses / 2,
            "prefetching must remove most stream misses: {} vs {}",
            w.l1d.misses,
            wo.l1d.misses
        );
    }

    #[test]
    fn mshr_limit_serializes_excess_misses() {
        let mut m = MemHierarchy::new(HierarchyConfig {
            mshrs: 1,
            ..HierarchyConfig::default()
        });
        // Two cold misses in the same cycle to different lines/banks/pages.
        let a = m.access(AccessKind::DataRead, 0x10_0000, 0);
        let b = m.access(AccessKind::DataRead, 0x20_0040, 0);
        assert!(!a.is_l1_hit() && !b.is_l1_hit());
        // a: 3 (L1D) + 30 (TLB walk) + 12 (L2) + 120 (mem) = 165, with its
        // MSHR allocated at t_req = 33 and held until 165.
        assert_eq!(a.latency, 3 + 30 + 12 + 120);
        // b arrives at its own t_req = 33, waits 165 - 33 = 132 for the
        // single MSHR, then serves its own 132-cycle miss: 33 + 132 + 132.
        // (The old accounting folded the wait into the slot's flight time
        // and measured it from the call cycle, giving 330.)
        assert_eq!(b.latency, 33 + 132 + 132);
        assert_eq!(m.stats().mshr_waits, 1);
    }

    #[test]
    fn mshr_saturation_pins_occupancy_and_latency() {
        // Zero-penalty TLB and plenty of banks so the only contention is
        // the 2-entry MSHR file; all three accesses are cold L2+mem misses
        // issued in the same cycle to distinct lines on distinct banks.
        let mut m = MemHierarchy::new(HierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 3,
            },
            l2: CacheConfig {
                size_bytes: 8192,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 12,
            },
            mem_latency: 100,
            l1d_banks: 8,
            mshrs: 2,
            dtlb: TlbConfig {
                entries: 64,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Penalty(0),
            },
            ..HierarchyConfig::default()
        });
        let a = m.access(AccessKind::DataRead, 0x00, 0);
        let b = m.access(AccessKind::DataRead, 0x40, 0);
        let c = m.access(AccessKind::DataRead, 0x80, 0);
        // a, b: pre = 3, service = 12 + 100; MSHRs held over (3, 115].
        assert_eq!(a.latency, 3 + 12 + 100);
        assert_eq!(b.latency, 3 + 12 + 100);
        // c: arrives at t_req = 3 with both MSHRs busy until 115; waits
        // 112, then its own 112-cycle service: 3 + 112 + 112 = 227. The
        // pre-fix accounting measured the wait from cycle 0 and would
        // report 230 here (and record the slot busy for 230 cycles).
        assert_eq!(c.latency, 3 + 112 + 112);
        assert_eq!(m.stats().mshr_waits, 1);
        // Occupancy: c displaced one of the (a, b) slots, so exactly two
        // misses are in flight until 115, then only c's until 227.
        assert_eq!(m.mshrs_in_flight(4), 2);
        assert_eq!(m.mshrs_in_flight(116), 1);
        assert_eq!(m.mshrs_in_flight(227), 0);
        m.check_consistency().expect("bounded occupancy");
    }

    #[test]
    fn warm_access_matches_detailed_residency() {
        let mut warm = small();
        let mut timed = small();
        let mut now = 0;
        for i in 0..48u64 {
            let addr = (i * 64) % 2048;
            warm.warm_access(AccessKind::DataRead, addr);
            timed.access(AccessKind::DataRead, addr, now);
            warm.warm_access(AccessKind::InstFetch, addr);
            timed.access(AccessKind::InstFetch, addr, now);
            now += 200; // drain banks/MSHRs so timing never skews recency
        }
        let (w, t) = (warm.export_warm(), timed.export_warm());
        assert_eq!(
            w, t,
            "functional warm-up must leave identical tag/LRU state"
        );
        let s = warm.stats();
        assert_eq!(s.bank_conflicts, 0);
        assert_eq!(s.mshr_waits, 0, "warm path models no MSHR timing");
    }

    #[test]
    fn warm_state_round_trips() {
        let mut m = small();
        for i in 0..32u64 {
            m.warm_access(AccessKind::DataRead, i * 64);
            m.warm_access(AccessKind::InstFetch, 4096 + i * 64);
        }
        let warm = m.export_warm();
        let mut fresh = small();
        fresh.import_warm(&warm).expect("matching geometry");
        assert_eq!(fresh.export_warm(), warm);
        // Restored residency answers probes like the original.
        assert_eq!(fresh.probe_l1d(0x40), m.probe_l1d(0x40));

        // Mismatched geometry is rejected, not silently truncated.
        let mut tiny = MemHierarchy::new(HierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 256,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 3,
            },
            ..HierarchyConfig::default()
        });
        assert!(tiny.import_warm(&warm).is_err());
    }

    #[test]
    fn plentiful_mshrs_do_not_wait() {
        let mut m = MemHierarchy::new(HierarchyConfig::default());
        for i in 0..8u64 {
            m.access(AccessKind::DataRead, 0x10_0000 + i * 64, 0);
        }
        assert_eq!(m.stats().mshr_waits, 0);
    }

    #[test]
    fn latency_accumulates_down_the_hierarchy() {
        let mut m = small();
        let r = m.access(AccessKind::DataRead, 0, 0);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.latency, 3 + 20 + 12 + 100); // l1 + tlb walk + l2 + mem
        let r = m.access(AccessKind::DataRead, 0, 1);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, 3);
        assert!(r.is_l1_hit());
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut m = small();
        // Fill 32 lines: 2x the 1 KiB L1D, well within the 8 KiB L2.
        // Keep all lines within one TLB page to isolate cache effects, and
        // space accesses far enough apart that banks and MSHRs fully drain.
        let mut now = 0;
        for i in 0..32u64 {
            m.access(AccessKind::DataRead, i * 64, now);
            now += 200;
        }
        let r = m.access(AccessKind::DataRead, 0, now);
        assert_eq!(r.level, HitLevel::L2, "evicted from L1 but resident in L2");
        assert_eq!(r.latency, 3 + 12);
    }

    #[test]
    fn bank_conflicts_add_wait() {
        let mut m = small();
        m.access(AccessKind::DataRead, 0, 0);
        // Lines 0 and 128 both map to bank 0 of 2 at 64B interleave.
        m.access(AccessKind::DataRead, 128, 50);
        let r = m.access(AccessKind::DataRead, 0, 50);
        assert_eq!(r.bank_wait, 1);
        assert_eq!(m.stats().bank_conflicts, 1);
    }

    #[test]
    fn tlb_trap_surfaces() {
        let mut m = MemHierarchy::new(HierarchyConfig {
            dtlb: TlbConfig {
                entries: 2,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Trap,
            },
            ..HierarchyConfig::default()
        });
        let r = m.access(AccessKind::DataRead, 0x9000, 0);
        assert!(r.tlb_trap);
        assert!(!r.is_l1_hit());
        let r = m.access(AccessKind::DataRead, 0x9000, 1);
        assert!(!r.tlb_trap, "retry after trap hits the TLB");
    }

    #[test]
    fn ifetch_bypasses_tlb_and_banks() {
        let mut m = small();
        let r = m.access(AccessKind::InstFetch, 0, 0);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.latency, 1 + 12 + 100);
        let r = m.access(AccessKind::InstFetch, 0, 0);
        assert_eq!(r.latency, 1);
        assert_eq!(m.stats().l1i.hits, 1);
    }

    #[test]
    fn stats_roll_up() {
        let mut m = small();
        m.access(AccessKind::DataRead, 0, 0);
        m.access(AccessKind::DataWrite, 0, 1);
        m.access(AccessKind::InstFetch, 0, 2);
        let s = m.stats();
        assert_eq!(s.l1d.accesses(), 2);
        assert_eq!(s.l1i.accesses(), 1);
        assert_eq!(s.dtlb_hits + s.dtlb_misses, 2);
    }
}
