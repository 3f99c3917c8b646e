//! The sweep engine only reorders independent deterministic simulations,
//! so a parallel sweep must be *byte-identical* to the serial path, and
//! repeated figures must come from the memo cache instead of re-running.

use looseloops::{
    ExecMode, FigureResult, FigureSpec, ResultStore, RunBudget, SweepEngine, Workload,
};

fn tiny() -> RunBudget {
    RunBudget {
        warmup: 500,
        measure: 3_000,
        max_cycles: 2_000_000,
    }
}

fn run_on(engine: &SweepEngine, id: &str, workloads: &[Workload]) -> FigureResult {
    FigureSpec::for_id(id, workloads, tiny())
        .expect("known figure id")
        .run_on(engine)
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("looseloops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig4_parallel_is_byte_identical_to_serial() {
    let serial = SweepEngine::new(1);
    let parallel = SweepEngine::new(8);
    let ws = Workload::smoke_set();
    let a = run_on(&serial, "fig4", &ws);
    let b = run_on(&parallel, "fig4", &ws);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "--jobs 8 must reproduce --jobs 1 exactly"
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(serial.summary().jobs_run, parallel.summary().jobs_run);
    assert_eq!(parallel.workers(), 8);
}

#[test]
fn dra_ablation_parallel_is_byte_identical_to_serial() {
    let serial = SweepEngine::new(1);
    let parallel = SweepEngine::new(8);
    let ws = Workload::smoke_set();
    let a = run_on(&serial, "dra-design", &ws);
    let b = run_on(&parallel, "dra-design", &ws);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "--jobs 8 must reproduce --jobs 1 exactly"
    );
}

#[test]
fn repeated_figures_hit_the_cache() {
    let sweep = SweepEngine::new(4);
    let ws = Workload::smoke_set();
    let first = run_on(&sweep, "fig4", &ws);
    let after_first = sweep.summary();
    assert!(after_first.jobs_run > 0);
    assert_eq!(
        after_first.cache_hits, 0,
        "a cold engine has nothing to hit"
    );

    let second = run_on(&sweep, "fig4", &ws);
    let after_second = sweep.summary();
    assert_eq!(
        after_second.jobs_run, after_first.jobs_run,
        "regenerating a figure must not simulate anything new"
    );
    assert_eq!(
        after_second.cache_hits, after_first.jobs_run,
        "every job of the repeat must be a cache hit"
    );
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "memoized results must be identical"
    );
}

#[test]
fn store_backed_figures_are_byte_identical_to_store_less_runs() {
    let dir = scratch("store-determinism");
    let ws = Workload::smoke_set();

    // Reference: no store at all.
    let plain = SweepEngine::new(4);
    let reference = run_on(&plain, "fig4", &ws);

    // Cold store-backed run: simulates everything, writes the store.
    let cold = SweepEngine::with_stores(
        4,
        ExecMode::Detailed,
        None,
        Some(ResultStore::open(&dir).expect("open store")),
    );
    let first = run_on(&cold, "fig4", &ws);
    assert_eq!(
        first.to_json(),
        reference.to_json(),
        "attaching a store must not change any figure byte"
    );
    let cold_summary = cold.summary();
    assert!(cold_summary.jobs_run > 0);
    assert_eq!(cold_summary.store_hits, 0, "a cold store has nothing");

    // Warm run in a *fresh* engine (empty memo cache) on the same
    // directory: everything is answered from disk, nothing simulates.
    let warm = SweepEngine::with_stores(
        4,
        ExecMode::Detailed,
        None,
        Some(ResultStore::open(&dir).expect("reopen store")),
    );
    let second = run_on(&warm, "fig4", &ws);
    assert_eq!(
        second.to_json(),
        reference.to_json(),
        "store-served results must be byte-identical"
    );
    assert_eq!(format!("{second:?}"), format!("{reference:?}"));
    let warm_summary = warm.summary();
    assert_eq!(warm_summary.jobs_run, 0, "warm store must answer every job");
    assert_eq!(warm_summary.store_hits, cold_summary.jobs_run);
    assert!(warm_summary.line().contains("store hits"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_figures_share_runs() {
    // Figure 4's 5_5 machine at rf=3 is the same machine Figure 8's rf=3
    // base column uses (base_with_latencies(5, 5) == base_for_rf(3)), so
    // running fig4 first must make part of fig8 free.
    let sweep = SweepEngine::new(4);
    let ws = Workload::smoke_set();
    run_on(&sweep, "fig4", &ws);
    let before = sweep.summary();
    run_on(&sweep, "fig8", &ws);
    let after = sweep.summary();
    assert!(
        after.cache_hits > before.cache_hits,
        "fig8 must reuse fig4's base-machine runs (hits {} -> {})",
        before.cache_hits,
        after.cache_hits
    );
}
