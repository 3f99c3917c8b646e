//! Accuracy gate for interval sampling: the sampled CPI estimate must
//! land near the full detailed CPI, and the reported error bar must be a
//! defensible summary of the estimator's spread — otherwise sampled
//! figures would silently mislead.
//!
//! Referenced from `looseloops::sampling`'s module docs: the detailed
//! path is the reference; this test pins the estimator against it.

use looseloops::checkpoint::{CheckpointStore, WarmMemo};
use looseloops::{
    run_sampled, try_run_programs, Benchmark, ExecMode, Job, PipelineConfig, RunBudget,
    SamplingPlan, SweepEngine, Workload,
};

fn job(bench: Benchmark) -> Job {
    let budget = RunBudget {
        warmup: 5_000,
        measure: 60_000,
        max_cycles: 6_000_000,
    };
    Job::new(PipelineConfig::base(), Workload::Single(bench), budget)
}

#[test]
fn sampled_cpi_tracks_detailed_cpi_within_ten_percent() {
    let memo = WarmMemo::default();
    for bench in [Benchmark::Compress, Benchmark::Swim] {
        let job = job(bench);
        let detailed = job
            .workload
            .try_run(&job.config, job.budget)
            .expect("detailed reference");
        let d_cpi = 1.0 / detailed.ipc();

        let plan = SamplingPlan::for_budget(job.budget);
        let run = run_sampled(&job, plan, None, &memo, false).expect("sampled run");
        let s_cpi = 1.0 / run.stats.ipc();

        let rel = (s_cpi - d_cpi).abs() / d_cpi;
        assert!(
            rel < 0.10,
            "{}: sampled CPI {s_cpi:.4} vs detailed {d_cpi:.4} ({:.1}% off)",
            bench.name(),
            rel * 100.0
        );
        // The estimate must actually be an estimate: far fewer detailed
        // instructions than the full run.
        assert!(run.stats.total_retired() <= plan.detailed_instructions());
        assert!(run.stats.total_retired() * 3 < detailed.total_retired());
        // The error bar must be finite, non-negative, and small relative
        // to the mean (these are steady-state loop proxies).
        let (mean, se) = (run.cpi_mean(), run.cpi_stderr());
        assert!(se.is_finite() && se >= 0.0);
        assert!(
            se < 0.5 * mean,
            "{}: stderr {se:.4} vs mean {mean:.4}",
            bench.name()
        );
    }
}

#[test]
fn fast_forward_preserves_steady_state_cpi() {
    // Functional warm-up must leave caches/predictors warm enough that
    // the measured window's CPI matches a detailed warm-up within 5%.
    // Fast-forwarding is the one-window plan that measures the whole
    // budget in detail.
    let job = job(Benchmark::Compress);
    let detailed = job
        .workload
        .try_run(&job.config, job.budget)
        .expect("detailed reference");
    let spec = format!("w=1,warm=0,detail={}", job.budget.measure);
    let plan = SamplingPlan::parse(&spec, job.budget).expect("one-window plan");
    assert_eq!(plan.skip, 0);
    let ff = run_sampled(&job, plan, None, &WarmMemo::default(), false)
        .expect("fast-forwarded run")
        .stats;
    let (d, f) = (1.0 / detailed.ipc(), 1.0 / ff.ipc());
    assert!(
        (f - d).abs() / d < 0.05,
        "fast-forwarded CPI {f:.4} vs detailed {d:.4}"
    );
    assert_eq!(ff.total_retired(), detailed.total_retired());
}

#[test]
fn one_window_plan_from_a_cold_start_is_the_detailed_run_exactly() {
    // With no warm-up, the one-window plan restores a machine from the
    // untouched functional state and runs the whole window in detail:
    // an exact oracle for checkpoint restore, down to every counter.
    let budget = RunBudget {
        warmup: 0,
        measure: 20_000,
        max_cycles: 2_000_000,
    };
    let spec = format!("w=1,warm=0,detail={}", budget.measure);
    let plan = SamplingPlan::parse(&spec, budget).expect("one-window plan");
    let workloads = [
        Workload::Single(Benchmark::Compress),
        Workload::Single(Benchmark::Swim),
        Workload::Pair(Benchmark::pairs()[0]),
    ];
    for cfg in [PipelineConfig::base(), PipelineConfig::dra_for_rf(5)] {
        for workload in workloads {
            let job = Job::new(cfg.clone(), workload, budget);
            let detailed =
                try_run_programs(&workload.config_for(&cfg), workload.programs(), budget)
                    .expect("detailed run");
            let restored = run_sampled(&job, plan, None, &WarmMemo::default(), false)
                .expect("one-window run")
                .stats;
            assert_eq!(
                format!("{restored:?}"),
                format!("{detailed:?}"),
                "{} on {:?}",
                workload.name(),
                cfg.scheme
            );
        }
    }
}

#[test]
fn sampled_sweep_engine_reuses_one_checkpoint_across_depths() {
    // Sweep points differing only in pipeline depth share a warm-up
    // prefix; through the engine they must hit one stored checkpoint.
    let dir = std::env::temp_dir().join(format!(
        "looseloops-sampling-accuracy-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store");
    let budget = RunBudget {
        warmup: 4_000,
        measure: 12_000,
        max_cycles: 2_000_000,
    };
    let plan = SamplingPlan::parse("w=4,detail=600,warm=120", budget).unwrap();
    let engine = SweepEngine::with_mode(1, ExecMode::Sampled(plan), Some(store));
    let jobs: Vec<Job> = [3u32, 5, 7]
        .iter()
        .map(|&rf| {
            Job::new(
                PipelineConfig::base_for_rf(rf),
                Workload::Single(Benchmark::Compress),
                budget,
            )
        })
        .collect();
    let stats = engine.run_jobs(&jobs);
    assert_eq!(stats.len(), 3);
    let counts = engine.summary().checkpoints;
    assert_eq!((counts.captured, counts.loaded), (1, 0), "{counts:?}");
    let files = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "llck"))
        .count();
    assert_eq!(
        files, 1,
        "three register-file depths must share one warm-up checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
