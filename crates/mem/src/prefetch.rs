//! Stride-based stream prefetcher (an extension beyond the paper).
//!
//! The paper's load-resolution loop hurts exactly when loads miss; a
//! prefetcher attacks the miss *rate* where the DRA attacks the loop
//! *delay* — making this the natural companion ablation. The design is a
//! classic PC-indexed stride table: when a load PC shows the same address
//! stride twice, the prefetcher starts issuing fills `degree` strides
//! ahead.

/// Configuration for the [`StreamPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// PC-indexed stride-table entries (power of two).
    pub entries: usize,
    /// How many strides ahead to fetch once a stream is confirmed.
    pub degree: u32,
}

impl Default for PrefetchConfig {
    fn default() -> PrefetchConfig {
        PrefetchConfig {
            entries: 256,
            degree: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confirmed: bool,
}

/// PC-indexed stride prefetcher. The owner (the memory hierarchy) feeds it
/// every demand access via [`StreamPrefetcher::observe`] and receives the
/// line addresses to prefetch.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    cfg: PrefetchConfig,
    table: Vec<StrideEntry>,
    issued: u64,
}

impl StreamPrefetcher {
    /// Build a prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `degree` is zero.
    pub fn new(cfg: PrefetchConfig) -> StreamPrefetcher {
        assert!(
            cfg.entries.is_power_of_two(),
            "table must be a power of two"
        );
        assert!(cfg.degree > 0, "degree must be positive");
        StreamPrefetcher {
            table: vec![StrideEntry::default(); cfg.entries],
            cfg,
            issued: 0,
        }
    }

    /// Observe a demand access by the load at `pc` to `addr`; returns the
    /// addresses to prefetch (none until the stride is confirmed). The
    /// addresses are computed as they are taken, so nothing is allocated.
    pub fn observe(&mut self, pc: u64, addr: u64) -> impl Iterator<Item = u64> {
        let i = (pc as usize) & (self.table.len() - 1);
        let e = &mut self.table[i];
        let mut stride = 0;
        let mut ahead = 0;
        if e.tag == pc {
            stride = addr.wrapping_sub(e.last_addr) as i64;
            if stride != 0 && stride == e.stride {
                if e.confirmed {
                    ahead = i64::from(self.cfg.degree);
                    self.issued += u64::from(self.cfg.degree);
                } else {
                    e.confirmed = true;
                }
            } else {
                e.stride = stride;
                e.confirmed = false;
            }
            e.last_addr = addr;
        } else {
            *e = StrideEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                confirmed: false,
            };
        }
        (1..=ahead).map(move |k| addr.wrapping_add((stride * k) as u64))
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_confirms_then_streams() {
        let mut p = StreamPrefetcher::new(PrefetchConfig {
            entries: 16,
            degree: 2,
        });
        assert_eq!(p.observe(0x10, 1000).count(), 0); // learn addr
        assert_eq!(p.observe(0x10, 1064).count(), 0); // learn stride
        assert_eq!(p.observe(0x10, 1128).count(), 0); // confirm
        let pf: Vec<u64> = p.observe(0x10, 1192).collect();
        assert_eq!(pf, vec![1256, 1320], "stream of 64s, degree 2");
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn changing_stride_resets_confirmation() {
        let mut p = StreamPrefetcher::new(PrefetchConfig {
            entries: 16,
            degree: 1,
        });
        assert_eq!(p.observe(0x20, 0).count(), 0);
        assert_eq!(p.observe(0x20, 64).count(), 0);
        assert_eq!(p.observe(0x20, 128).count(), 0);
        assert_eq!(p.observe(0x20, 512).count(), 0, "stride broke");
        assert_eq!(
            p.observe(0x20, 896).count(),
            0,
            "new stride not yet confirmed"
        );
        assert_eq!(p.observe(0x20, 1280).count(), 1);
        assert_eq!(p.observe(0x20, 1664).count(), 1, "new stride confirmed");
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StreamPrefetcher::new(PrefetchConfig {
            entries: 16,
            degree: 1,
        });
        assert_eq!(p.observe(0x30, 10_000).count(), 0);
        assert_eq!(p.observe(0x30, 9_936).count(), 0);
        assert_eq!(p.observe(0x30, 9_872).count(), 0);
        let pf: Vec<u64> = p.observe(0x30, 9_808).collect();
        assert_eq!(pf, vec![9_744]);
    }

    #[test]
    fn pc_aliasing_replaces_entries() {
        let mut p = StreamPrefetcher::new(PrefetchConfig {
            entries: 16,
            degree: 1,
        });
        assert_eq!(p.observe(0x1, 0).count(), 0);
        assert_eq!(p.observe(0x1, 64).count(), 0);
        assert_eq!(p.observe(0x11, 0).count(), 0); // aliases 0x1 in a 16-entry table
        assert_eq!(p.observe(0x1, 128).count(), 0, "entry was stolen");
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StreamPrefetcher::new(PrefetchConfig::default());
        for _ in 0..10 {
            assert_eq!(p.observe(0x40, 4096).count(), 0);
        }
    }
}
