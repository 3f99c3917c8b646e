//! Randomized property tests for the memory-hierarchy timing models
//! against executable reference models, driven by a deterministic seed
//! schedule from `looseloops-rng`.

use looseloops_mem::{
    AccessKind, BankTracker, Cache, CacheConfig, CacheWarmState, HierarchyConfig, MemHierarchy,
    TlbConfig, TlbMissPolicy,
};
use looseloops_rng::Rng;

/// Reference set-associative LRU cache: naive timestamps.
struct RefCache {
    sets: Vec<Vec<(u64, u64)>>, // (tag, last_use)
    assoc: usize,
    line: u64,
    stamp: u64,
}

impl RefCache {
    fn new(sets: usize, assoc: usize, line: u64) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); sets],
            assoc,
            line,
            stamp: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let nsets = self.sets.len() as u64;
        let set = ((addr / self.line) % nsets) as usize;
        let tag = addr / self.line / nsets;
        let ways = &mut self.sets[set];
        if let Some(e) = ways.iter_mut().find(|(t, _)| *t == tag) {
            e.1 = self.stamp;
            return true;
        }
        if ways.len() == self.assoc {
            let lru = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, u))| *u)
                .map(|(i, _)| i)
                .unwrap();
            ways.swap_remove(lru);
        }
        ways.push((tag, self.stamp));
        false
    }
}

/// The timing cache agrees hit-for-hit with the reference LRU model, as
/// a cache and as a TLB (one fully associative set of pages).
#[test]
fn cache_matches_reference_lru() {
    let mut rng = Rng::seed_from_u64(0x3e31);
    let tlb = TlbConfig {
        entries: 8,
        page_bytes: 4096,
        miss_policy: TlbMissPolicy::Trap,
    };
    let geometries = [
        // 4 sets x 2 ways x 64B lines = 512 B — tiny, to force evictions.
        (
            CacheConfig {
                size_bytes: 512,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            4096,
        ),
        (tlb.geometry(), 24 * 4096),
    ];
    for (cfg, span) in geometries {
        for _ in 0..64 {
            let mut cache = Cache::new(cfg);
            let mut reference = RefCache::new(cfg.num_sets(), cfg.assoc, cfg.line_bytes as u64);
            let n = rng.gen_range(1usize..400);
            for _ in 0..n {
                let a = rng.gen_range(0u64..span);
                assert_eq!(cache.access(a), reference.access(a), "addr {a}");
            }
        }
    }
}

/// Hits + misses always equals accesses; a just-accessed line always
/// probes resident.
#[test]
fn cache_accounting_invariants() {
    let mut rng = Rng::seed_from_u64(0x3e32);
    for _ in 0..32 {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 1024,
            assoc: 4,
            line_bytes: 32,
            hit_latency: 2,
        });
        let n = rng.gen_range(1usize..200);
        for i in 0..n {
            let a = rng.gen_range(0u64..100_000);
            cache.access(a);
            assert!(cache.probe(a), "just-accessed line must be resident");
            assert_eq!(cache.stats().accesses(), i as u64 + 1);
        }
    }
}

/// Bank reservations never allow two grants of the same bank in the
/// same cycle, and waits are exactly the backlog.
#[test]
fn bank_grants_are_serialized() {
    let mut rng = Rng::seed_from_u64(0x3e33);
    for _ in 0..64 {
        let mut banks = BankTracker::new(4, 64);
        let mut grants: Vec<(usize, u64)> = Vec::new(); // (bank, grant cycle)
        let n = rng.gen_range(1usize..100);
        let mut reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..16), rng.gen_range(0u64..8)))
            .collect();
        reqs.sort_by_key(|&(_, t)| t);
        for (line, t) in reqs {
            let addr = line * 64;
            let wait = banks.reserve(addr, t);
            let bank = banks.bank_of(addr);
            let grant = t + wait;
            assert!(
                !grants.contains(&(bank, grant)),
                "double grant of bank {bank} at cycle {grant}"
            );
            grants.push((bank, grant));
        }
    }
}

/// TLB: after any data access, even one that trapped, an immediate
/// re-access of the same page does not trap; the TLB's hits and misses
/// add up to the data accesses.
#[test]
fn tlb_refill_and_accounting() {
    let mut rng = Rng::seed_from_u64(0x3e34);
    for _ in 0..32 {
        let mut m = MemHierarchy::new(HierarchyConfig {
            dtlb: TlbConfig {
                entries: 8,
                page_bytes: 4096,
                miss_policy: TlbMissPolicy::Trap,
            },
            ..HierarchyConfig::default()
        });
        let mut accesses = 0u64;
        let n = rng.gen_range(1usize..200);
        for now in 0..n as u64 {
            let addr = rng.gen_range(0u64..32) * 4096;
            m.access(AccessKind::DataRead, addr, now);
            accesses += 1;
            let retry = m.access(AccessKind::DataWrite, addr, now);
            assert!(!retry.tlb_trap, "refill must stick");
            accesses += 1;
            let s = m.stats();
            assert_eq!(s.dtlb_hits + s.dtlb_misses, accesses);
        }
    }
}

/// A cache warmed by one random stream (accesses, fills and
/// invalidations), exported and imported into a fresh cache, answers a
/// second stream hit-for-hit like the original and ends in the same
/// state: the recency-ordered snapshot loses nothing replacement reads.
#[test]
fn cache_warm_state_round_trip_is_exact() {
    // 4 sets x 4 ways x 64 B, over 64 lines.
    let cfg = CacheConfig {
        size_bytes: 1024,
        assoc: 4,
        line_bytes: 64,
        hit_latency: 1,
    };
    warm_state_round_trip_is_exact(cfg, 4096, 0x3e35);
}

/// The TLB's snapshot is exact in the same sense: its directory is one
/// fully associative set of 8 pages, here over 24 pages.
#[test]
fn tlb_warm_state_round_trip_is_exact() {
    let tlb = TlbConfig {
        entries: 8,
        page_bytes: 4096,
        miss_policy: TlbMissPolicy::Penalty(30),
    };
    warm_state_round_trip_is_exact(tlb.geometry(), 24 * 4096, 0x3e36);
}

/// Warm a `cfg` cache with a random stream over `[0, span)`, round-trip
/// its snapshot, and check the copy stays in step with the original.
fn warm_state_round_trip_is_exact(cfg: CacheConfig, span: u64, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let lines = cfg.num_sets() * cfg.assoc;
    for _ in 0..32 {
        let mut warm = Cache::new(cfg);
        for _ in 0..rng.gen_range(0usize..300) {
            let a = rng.gen_range(0u64..span);
            match rng.bounded(8) {
                0 => warm.fill(a),
                1 => warm.invalidate(a),
                _ => {
                    warm.access(a);
                }
            }
        }
        let state = warm.export_state();
        assert!(state.tags().len() <= lines);
        let mut restored = Cache::new(cfg);
        restored.import_state(&state).expect("same geometry");
        assert_eq!(restored.export_state(), state);
        for _ in 0..400 {
            let a = rng.gen_range(0u64..span);
            if rng.bounded(8) == 0 {
                warm.invalidate(a);
                restored.invalidate(a);
            } else {
                assert_eq!(warm.access(a), restored.access(a), "addr {a}");
            }
        }
        assert_eq!(warm.export_state(), restored.export_state());
    }
}

/// A snapshot that describes no cache cannot be built (a set fuller than
/// its ways, a tag twice in a set, counts that do not account for the
/// tags), and a snapshot of another geometry is refused.
#[test]
fn malformed_cache_warm_state_is_rejected() {
    let mut c = Cache::new(CacheConfig {
        size_bytes: 512, // 4 sets x 2 ways
        assoc: 2,
        line_bytes: 64,
        hit_latency: 1,
    });
    let state = |ways, counts: &[u16], tags: &[u64]| {
        CacheWarmState::new(ways, counts.to_vec(), tags.to_vec())
    };
    let good = state(2, &[2, 0, 1, 0], &[5, 6, 7]).expect("well formed");
    c.import_state(&good).expect("same geometry");
    assert_eq!(c.export_state(), good);
    for (ways, counts, tags) in [
        (2, &[3, 0, 0, 0][..], &[5, 6, 7][..]),
        (2, &[2, 0, 0, 0], &[5, 5]),
        (2, &[1, 0, 0, 0], &[5, 6]),
        (2, &[2, 0, 0, 0], &[5]),
    ] {
        assert!(state(ways, counts, tags).is_err(), "{counts:?} {tags:?}");
    }
    for other in [state(2, &[0, 0, 0], &[]), state(4, &[0, 0, 0, 0], &[])] {
        assert!(c.import_state(&other.expect("well formed")).is_err());
    }
    let tlb_shaped = TlbConfig {
        entries: 2,
        page_bytes: 4096,
        miss_policy: TlbMissPolicy::Trap,
    };
    let mut tlb = Cache::new(tlb_shaped.geometry());
    assert!(state(2, &[2], &[3, 3]).is_err());
    assert!(tlb
        .import_state(&state(2, &[1, 1], &[1, 2]).unwrap())
        .is_err());
    assert!(tlb.import_state(&state(4, &[2], &[3, 4]).unwrap()).is_err());
    tlb.import_state(&state(2, &[2], &[3, 4]).unwrap())
        .expect("one full set");
}
