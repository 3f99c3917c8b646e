//! Cross-handle contention on one result-store directory: concurrent
//! saves and loads of the same and different digests must never expose a
//! torn entry. The store's only guarantees are (a) atomic publication
//! via write-to-temp-then-rename and (b) key verification on load — so
//! every load must return nothing, or a complete decodable entry that
//! matches one of the values some writer actually published.

use looseloops::{ResultStore, SimStats};

/// Distinguishable stats: a writer's iteration is recoverable from the
/// cycle count, so readers can check completeness (every section of the
/// entry must agree on the iteration).
fn stats_for(iteration: u64) -> SimStats {
    let mut s = SimStats::new(1);
    s.cycles = 10_000 + iteration;
    s.retired = vec![20_000 + iteration];
    s.branches = 3_000 + iteration;
    s.loads = 4_000 + iteration;
    s.loop_cost.cycles = 10_000 + iteration;
    s.loop_cost.width = 4;
    s
}

#[test]
fn racing_handles_never_observe_a_torn_entry() {
    let dir = std::env::temp_dir().join(format!("looseloops-store-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const WRITERS: u64 = 4;
    const ITERS: u64 = 40;
    const SHARED_DIGEST: u64 = 42;
    const SHARED_KEY: &str = "job: shared config";

    std::thread::scope(|scope| {
        // Writers: each opens its OWN handle (as a separate process
        // would), hammers the shared digest, and keeps a private digest
        // of its own alive alongside.
        for t in 0..WRITERS {
            let dir = &dir;
            scope.spawn(move || {
                let store = ResultStore::open(dir).expect("writer opens store");
                let own_key = format!("job: writer {t}");
                for i in 0..ITERS {
                    store
                        .save(SHARED_DIGEST, SHARED_KEY, &stats_for(i))
                        .expect("save shared digest");
                    store
                        .save(1_000 + t, &own_key, &stats_for(t * 1_000 + i))
                        .expect("save private digest");
                }
            });
        }

        // Readers: their own handles too, polling both the contended
        // digest and the private ones while the writers run.
        for t in 0..WRITERS {
            let dir = &dir;
            scope.spawn(move || {
                let store = ResultStore::open(dir).expect("reader opens store");
                let own_key = format!("job: writer {t}");
                for _ in 0..ITERS * 2 {
                    // Shared digest: absent or a complete entry from one
                    // single save (all fields agree on the iteration).
                    match store
                        .load(SHARED_DIGEST, SHARED_KEY)
                        .expect("load is clean")
                    {
                        None => {}
                        Some(s) => {
                            let i = s.cycles - 10_000;
                            assert!(i < ITERS, "cycles out of range: {}", s.cycles);
                            let expect = stats_for(i);
                            assert_eq!(s.retired, expect.retired, "torn entry");
                            assert_eq!(s.branches, expect.branches, "torn entry");
                            assert_eq!(s.loads, expect.loads, "torn entry");
                            assert_eq!(s.loop_cost.cycles, expect.loop_cost.cycles);
                        }
                    }
                    // Private digest, right key: absent or that writer's.
                    if let Some(s) = store.load(1_000 + t, &own_key).expect("load is clean") {
                        let i = s.cycles - 10_000;
                        assert_eq!(i / 1_000, t, "wrong writer's entry under digest");
                    }
                    // Private digest, WRONG key: digest collisions answer
                    // as a miss, never as someone else's results.
                    let other = format!("job: writer {}", (t + 1) % WRITERS);
                    assert!(
                        store
                            .load(1_000 + t, &other)
                            .expect("collision load is clean")
                            .is_none(),
                        "a key mismatch must be a miss"
                    );
                }
            });
        }
    });

    // Quiescent state: every digest holds the final complete value.
    let store = ResultStore::open(&dir).expect("final open");
    let last = store
        .load(SHARED_DIGEST, SHARED_KEY)
        .expect("final load")
        .expect("shared digest present");
    assert_eq!(last.retired[0], 20_000 + (last.cycles - 10_000));
    for t in 0..WRITERS {
        let s = store
            .load(1_000 + t, &format!("job: writer {t}"))
            .expect("final private load")
            .expect("private digest present");
        assert_eq!((s.cycles - 10_000) / 1_000, t);
    }
    // No leaked temp files: every `.tmp.` either renamed or was the
    // losing writer's (removed best-effort after a failed rename — on
    // POSIX renames never fail here, so none survive).
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
