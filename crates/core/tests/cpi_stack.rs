//! Per-loop CPI-stack attribution: conservation, normalization, the
//! paper's qualitative trend (longer pipes charge more to the
//! branch-resolution loop), and stack determinism through the sweep
//! engine's memo cache.

use looseloops::{
    pipeline::Machine, Benchmark, CpiComponent, FigureKind, FigureSpec, PipelineConfig, RunBudget,
    SweepEngine, Workload,
};

fn tiny() -> RunBudget {
    RunBudget {
        warmup: 500,
        measure: 3_000,
        max_cycles: 2_000_000,
    }
}

/// Conservation is integer-exact on every machine the paper evaluates:
/// used slots plus charged slots equals width × cycles, and the
/// normalized components sum to the measured CPI. The per-cycle auditor
/// checks the integer identity every cycle of these runs.
#[test]
fn stacks_conserve_and_sum_to_cpi_on_all_machines() {
    let machines = [
        PipelineConfig::base(),
        PipelineConfig::base_with_latencies(9, 9),
        PipelineConfig::dra_for_rf(5),
    ];
    for cfg in machines {
        let audited = PipelineConfig {
            audit: true,
            ..cfg.clone()
        };
        let stats = Workload::Single(Benchmark::Compress)
            .try_run(&audited, tiny())
            .expect("audited run completes");
        let st = &stats.loop_cost;
        assert!(st.conserves(), "slot leak on {cfg:?}");
        assert_eq!(st.used + st.total_lost(), st.width * st.cycles);
        assert_eq!(st.cycles, stats.cycles);
        assert_eq!(st.used, stats.total_retired());
        let sum: f64 = st.cpi_components().iter().sum();
        assert!(
            (sum - st.cpi()).abs() < 1e-9,
            "components sum to {sum}, CPI is {}",
            st.cpi()
        );
    }
}

/// Warm-up statistics are discarded; the measured stack accounts exactly
/// the measured window.
#[test]
fn stack_restarts_with_the_measurement_window() {
    let cfg = PipelineConfig::base();
    let prog = Benchmark::Compress.program();
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    m.run(500, 1_000_000).unwrap();
    m.reset_stats();
    assert_eq!(m.stats().loop_cost.cycles, 0, "reset clears the stack");
    m.run(2_000, 1_000_000).unwrap();
    let st = &m.stats().loop_cost;
    assert_eq!(st.cycles, m.stats().cycles);
    assert!(st.conserves());
}

/// Figure 4's qualitative claim, read off the stacks: stretching DEC→EX
/// from 6 to 18 cycles grows the CPI charged to the branch-resolution
/// loop monotonically on a branch-limited integer code.
#[test]
fn branch_resolution_component_grows_with_pipeline_length() {
    let sweep = SweepEngine::new(2);
    let ws = [Workload::Single(Benchmark::Compress)];
    let spec = FigureSpec::for_id("fig4", &ws, tiny()).expect("fig4 is a figure");
    let rep = spec.render_stacks(&sweep.run_jobs(&spec.jobs()));
    assert_eq!(rep.rows.len(), 4, "one row per fig4 machine");
    let idx = CpiComponent::BranchResolution.index();
    let branch: Vec<f64> = rep.rows.iter().map(|r| r.components[idx]).collect();
    for (i, w) in branch.windows(2).enumerate() {
        assert!(
            w[1] >= w[0] - 1e-12,
            "branch-resolution CPI must not shrink as the pipe lengthens: \
             {branch:?} (step {i})"
        );
    }
    assert!(
        branch[3] > branch[0],
        "18-cycle DEC->EX must charge strictly more to the branch loop than 6-cycle: {branch:?}"
    );
    // Every row of the report still conserves after normalization.
    for r in &rep.rows {
        let sum: f64 = r.components.iter().sum();
        assert!(
            (sum - r.cpi).abs() < 1e-9,
            "{}: {sum} vs {}",
            r.label,
            r.cpi
        );
    }
}

/// A memoized run carries its stack: asking again answers from the cache
/// with an identical (PartialEq) stack, and stacks are identical across
/// worker counts.
#[test]
fn cached_and_fresh_stacks_are_identical() {
    let ws = Workload::smoke_set();
    let spec = FigureSpec {
        id: "s".into(),
        title: "t".into(),
        paper_expectation: String::new(),
        configs: vec![("base".to_string(), PipelineConfig::base())],
        workloads: ws.clone(),
        budget: tiny(),
        kind: FigureKind::Speedup,
    };
    let stacks = |sweep: &SweepEngine| spec.render_stacks(&sweep.run_jobs(&spec.jobs()));

    let serial = SweepEngine::new(1);
    let a = stacks(&serial);
    let parallel = SweepEngine::new(8);
    let b = stacks(&parallel);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "stacks are worker-count invariant"
    );

    // Second generation on the same engine: all cache hits, same bytes.
    parallel.reset_metrics();
    let c = stacks(&parallel);
    let s = parallel.summary();
    assert_eq!(s.jobs_run, 0, "second pass is pure cache hits");
    assert_eq!(s.cache_hits, ws.len() as u64);
    assert_eq!(format!("{b:?}"), format!("{c:?}"));
}
