//! Set-associative timing cache with true-LRU replacement.
//!
//! The cache is a *timing directory*: it tracks tags and recency only. The
//! pipeline asks [`Cache::access`] whether an address would hit and lets the
//! functional memory hold the actual bytes.

use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set); 1 = direct mapped.
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access latency in cycles on a hit.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's base 64 KiB, 2-way, 64 B-line, 3-cycle data cache.
    pub fn l1d_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 << 10,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 3,
        }
    }

    /// 64 KiB, 2-way, 64 B-line, single-cycle instruction cache.
    pub fn l1i_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 << 10,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// 1 MiB, 8-way unified second-level cache, 12-cycle access.
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 1 << 20,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; 0 when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    // Monotonic use stamp for true LRU; 0 marks an empty way.
    last_use: u64,
}

impl Line {
    fn holds(&self, tag: u64) -> bool {
        self.tag == tag && self.last_use != 0
    }
}

/// The warm state of a set-associative, true-LRU cache (the data TLB is
/// one too: a single fully associative set) as a checkpoint holds it:
/// which tags are resident and their recency order, nothing else.
///
/// Recency order is exact. Every resident line carries a unique, nonzero
/// use stamp and an empty way carries stamp 0, so replacement takes the
/// way with the smallest stamp: the first empty way, else the least
/// recently used line. A tag is resident at most once per set, so which
/// way a line sits in never changes a hit, a miss or a victim. The order
/// of each set's stamps is all that matters, and the order of the tags
/// says it.
///
/// Every value describes some structure of its geometry: no set holds
/// more lines than its ways or one tag twice, and the per-set counts
/// account for every tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheWarmState {
    pub(crate) ways: u16,
    pub(crate) counts: Vec<u16>,
    pub(crate) tags: Vec<u64>,
}

impl CacheWarmState {
    /// The state of a structure with `ways` ways per set, holding
    /// `counts[s]` lines in set `s` and, the sets one after the other,
    /// the tags of each set from least to most recently used.
    ///
    /// # Errors
    ///
    /// A message naming the first set that holds more lines than its
    /// ways or one tag twice, or the mismatch between the counts and the
    /// tags.
    pub fn new(ways: u16, counts: Vec<u16>, tags: Vec<u64>) -> Result<CacheWarmState, String> {
        let mut rest = &tags[..];
        for (set, &n) in counts.iter().enumerate() {
            if n > ways {
                return Err(format!("set {set} holds {n} lines in {ways} ways"));
            }
            let Some((set_tags, tail)) = rest.split_at_checked(n.into()) else {
                return Err(format!(
                    "the set counts need more than the {} tags",
                    tags.len()
                ));
            };
            for (i, tag) in set_tags.iter().enumerate() {
                if set_tags[..i].contains(tag) {
                    return Err(format!("set {set} holds tag {tag:#x} twice"));
                }
            }
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(format!("{} tags follow the last set", rest.len()));
        }
        Ok(CacheWarmState { ways, counts, tags })
    }

    /// Ways per set.
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Resident lines of each set, in set order.
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Every set's resident tags, least to most recently used, the sets
    /// one after the other.
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }
}

/// A set-associative, true-LRU, write-allocate timing cache.
///
/// ```
/// use looseloops_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 64, hit_latency: 3 });
/// assert!(!c.access(0x40));   // cold miss, line now resident
/// assert!(c.access(0x40));    // hit
/// assert!(c.access(0x7f));    // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * assoc, row-major by set
    // An address's set is `(addr >> line_shift) & set_mask` and its tag
    // `addr >> tag_shift`: the geometry is all powers of two.
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size, or capacity not divisible by `assoc * line_bytes`).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 0,
            "bad line size"
        );
        assert!(
            cfg.assoc > 0 && cfg.assoc <= usize::from(u16::MAX),
            "associativity must be 1..=65535"
        );
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.assoc * cfg.line_bytes) && cfg.num_sets() > 0,
            "capacity must be a whole number of sets"
        );
        assert!(
            cfg.num_sets().is_power_of_two(),
            "set count must be a power of two"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            lines: vec![Line::default(); cfg.num_sets() * cfg.assoc],
            line_shift,
            set_mask: cfg.num_sets() as u64 - 1,
            tag_shift: line_shift + cfg.num_sets().trailing_zeros(),
            cfg,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of `addr`'s set, and the tag `addr` has in it.
    fn ways_of(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let first = ((addr >> self.line_shift) & self.set_mask) as usize * self.cfg.assoc;
        (first..first + self.cfg.assoc, addr >> self.tag_shift)
    }

    /// Make `addr`'s line the most recently used, replacing the way with
    /// the smallest stamp on a miss. Returns whether it was resident.
    fn touch(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let (ways, tag) = self.ways_of(addr);
        let ways = &mut self.lines[ways];
        let (line, hit) = match ways.iter().position(|l| l.holds(tag)) {
            Some(way) => (&mut ways[way], true),
            None => {
                let lru = ways.iter_mut().min_by_key(|l| l.last_use);
                (lru.expect("assoc > 0"), false)
            }
        };
        *line = Line {
            tag,
            last_use: self.stamp,
        };
        hit
    }

    /// Access `addr`: returns `true` on a hit. On a miss the line is filled
    /// (write-allocate), evicting the LRU way. Recency and statistics are
    /// updated either way.
    pub fn access(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Would `addr` hit right now? No state is modified.
    pub fn probe(&self, addr: u64) -> bool {
        let (ways, tag) = self.ways_of(addr);
        self.lines[ways].iter().any(|l| l.holds(tag))
    }

    /// Fill `addr`'s line without counting an access (used for prefetch-like
    /// warm-up and by tests).
    pub fn fill(&mut self, addr: u64) {
        self.touch(addr);
    }

    /// Snapshot the directory for a checkpoint: each set's resident tags,
    /// least to most recently used. Statistics are not included.
    pub fn export_state(&self) -> CacheWarmState {
        // Sized exactly: checkpoints hold these for a whole sweep.
        let mut state = CacheWarmState {
            ways: u16::try_from(self.cfg.assoc).expect("Cache::new bounds the associativity"),
            counts: Vec::with_capacity(self.cfg.num_sets()),
            tags: Vec::with_capacity(self.lines.iter().filter(|l| l.last_use != 0).count()),
        };
        let mut set: Vec<Line> = Vec::with_capacity(self.cfg.assoc);
        for ways in self.lines.chunks_exact(self.cfg.assoc) {
            set.clear();
            set.extend(ways.iter().filter(|l| l.last_use != 0));
            set.sort_unstable_by_key(|l| l.last_use);
            state.counts.push(set.len() as u16);
            state.tags.extend(set.iter().map(|l| l.tag));
        }
        state
    }

    /// Restore a snapshot from [`Cache::export_state`]. Each set's lines
    /// get use stamps in their listed order, below any stamp an access
    /// hands out later, so replacement picks the victims the exported
    /// cache would. Rejects snapshots of another geometry.
    pub fn import_state(&mut self, state: &CacheWarmState) -> Result<(), String> {
        if state.counts.len() != self.cfg.num_sets() || usize::from(state.ways) != self.cfg.assoc {
            return Err(format!(
                "snapshot has {} sets of {} ways, geometry needs {} of {}",
                state.counts.len(),
                state.ways,
                self.cfg.num_sets(),
                self.cfg.assoc
            ));
        }
        let mut tags = state.tags.iter();
        for (ways, &n) in self
            .lines
            .chunks_exact_mut(self.cfg.assoc)
            .zip(&state.counts)
        {
            ways.fill(Line::default());
            for (stamp, (line, &tag)) in
                (1..).zip(ways.iter_mut().zip(tags.by_ref().take(n.into())))
            {
                *line = Line {
                    tag,
                    last_use: stamp,
                };
            }
        }
        self.stamp = u64::from(state.ways);
        Ok(())
    }

    /// Invalidate the line containing `addr`, if resident.
    pub fn invalidate(&mut self, addr: u64) {
        let (ways, tag) = self.ways_of(addr);
        for l in &mut self.lines[ways] {
            if l.holds(tag) {
                *l = Line::default();
            }
        }
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B/{}-way/{}B-line cache: {} hits, {} misses ({:.2}% miss)",
            self.cfg.size_bytes,
            self.cfg.assoc,
            self.cfg.line_bytes,
            self.stats.hits,
            self.stats.misses,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64B lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 3,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line, different set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with addresses ≡ 0 (mod 128).
        c.access(0); // way A
        c.access(128); // way B
        c.access(0); // touch A so B is LRU
        c.access(256); // evicts B
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0);
        c.access(128);
        assert!(c.probe(0) && c.probe(128));
        let before = c.stats();
        assert!(!c.probe(256));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.invalidate(0);
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }

    #[test]
    fn fill_counts_no_access() {
        let mut c = tiny();
        c.fill(0);
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(0));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 8 distinct lines mapping to 2 sets x 2 ways: 2x over capacity,
        // round-robin access defeats LRU entirely.
        for _ in 0..4 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn working_set_within_capacity_reuses() {
        let mut c = tiny();
        for _ in 0..4 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().misses, 4, "only cold misses");
        assert_eq!(c.stats().hits, 12);
    }

    #[test]
    fn miss_rate_math() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn default_geometries_are_sane() {
        assert_eq!(CacheConfig::l1d_default().num_sets(), 512);
        assert_eq!(CacheConfig::l2_default().num_sets(), 2048);
        let _ = Cache::new(CacheConfig::l1d_default());
        let _ = Cache::new(CacheConfig::l1i_default());
        let _ = Cache::new(CacheConfig::l2_default());
    }

    #[test]
    #[should_panic]
    fn degenerate_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            assoc: 3,
            line_bytes: 7,
            hit_latency: 1,
        });
    }
}
