//! Golden sampled statistics: `run_sampled` on four paper workloads (three
//! single-thread kernels and one SMT pair), on the base and the DRA
//! (5-cycle register file) machine and on the base machine with each of
//! the other four direction predictors, after a functional warm-up, must
//! reproduce the pinned FNV-1a digest of its aggregate `SimStats` Debug
//! rendering, and of its warm-up checkpoint's stored (LLCK) encoding.
//!
//! Every sampled window starts from warm state that went through a
//! checkpoint: exported from the functional cursor's caches, TLB,
//! predictor and BTB, and imported into a fresh detailed machine. Each job
//! runs twice — once capturing its warm-up checkpoint and saving it to an
//! on-disk store, once loading it back from that store — so a change to
//! the warm-state snapshot or to the checkpoint encoding that alters any
//! restored machine fails here, without waiting for the benchmark's
//! digests. The encoding column catches a change to the warm state that
//! no window's statistics happen to show.
//!
//! Regenerate `tests/golden/sampled_stats.tsv` (only when a change is
//! meant to alter simulated results) with:
//!
//! ```text
//! LOOSELOOPS_BLESS=1 cargo test --release -p looseloops --test sampled_golden
//! ```

use looseloops::branch::PredictorKind;
use looseloops::pipeline::PipelineConfig;
use looseloops::{
    fnv1a64, run_sampled, warm_digest, Benchmark, CheckpointStore, Job, RunBudget, SamplingPlan,
    WarmCounts, WarmMemo, Workload,
};
use std::fmt::Write;
use std::path::Path;

const BUDGET: RunBudget = RunBudget {
    warmup: 200_000,
    measure: 30_000,
    max_cycles: 2_000_000,
};

fn workloads() -> [Workload; 4] {
    [
        Workload::Single(Benchmark::Compress),
        Workload::Single(Benchmark::Swim),
        Workload::Single(Benchmark::Turb3d),
        Workload::Pair(Benchmark::pairs()[0]),
    ]
}

fn machines() -> Vec<(&'static str, PipelineConfig)> {
    let mut machines = vec![
        ("base", PipelineConfig::base()),
        ("dra_rf5", PipelineConfig::dra_for_rf(5)),
    ];
    for kind in PredictorKind::all() {
        if kind != PipelineConfig::base().predictor {
            let cfg = PipelineConfig {
                predictor: kind,
                ..PipelineConfig::base()
            };
            machines.push((kind.name(), cfg));
        }
    }
    machines
}

/// The digest of `job`'s sampled stats under the budget's auto plan, with
/// the warm-up checkpoint taken from `store` when it holds one.
fn digest(job: &Job, store: &CheckpointStore, memo: &WarmMemo) -> u64 {
    let plan = SamplingPlan::for_budget(job.budget);
    let run = run_sampled(job, plan, Some(store), memo, false).expect("sampled run");
    fnv1a64(format!("{:?}", run.stats).as_bytes())
}

fn table() -> String {
    let dir = std::env::temp_dir().join(format!("ll-sampled-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open the checkpoint store");
    let mut out = String::from(
        "# workload\tmachine\tfnv1a64(sampled SimStats Debug)\tfnv1a64(warm-up LLCK encoding)\n",
    );
    for w in workloads() {
        for (mname, cfg) in machines() {
            let job = Job::new(cfg, w, BUDGET);
            // A fresh memo each time, so the first run captures (or, for
            // the second machine, loads the first's checkpoint: the warm
            // key ignores the register scheme) and the second loads.
            let captured = digest(&job, &store, &WarmMemo::default());
            let memo = WarmMemo::default();
            let loaded = digest(&job, &store, &memo);
            let from_store = WarmCounts {
                loaded: 1,
                ..WarmCounts::default()
            };
            assert_eq!(memo.counts(), from_store, "{} {mname}", w.name());
            assert_eq!(
                captured,
                loaded,
                "{} {mname}: a stored checkpoint restores another machine",
                w.name()
            );
            let cfg = w.config_for(&job.config);
            let llck = std::fs::read(store.path(warm_digest(&cfg, &w, BUDGET.warmup)))
                .expect("the captured checkpoint is stored");
            let llck = fnv1a64(&llck);
            writeln!(out, "{}\t{mname}\t{captured:016x}\t{llck:016x}", w.name())
                .expect("writing to a String");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn sampled_stats_match_the_pinned_digests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sampled_stats.tsv");
    let got = table();
    if std::env::var_os("LOOSELOOPS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden table is checked in");
    assert_eq!(
        want, got,
        "sampled statistics drifted from tests/golden/sampled_stats.tsv"
    );
}
