//! Smoke tests for every figure harness: each experiment must produce a
//! structurally valid result at a tiny budget, and the baseline rows must
//! be exactly 1.0. The engine runs four workers, so the parallel sweep
//! path runs here on any host.

use looseloops_repro::core::{FigureResult, FigureSpec, RunBudget, SweepEngine, Workload};

fn tiny() -> RunBudget {
    RunBudget {
        warmup: 500,
        measure: 3_000,
        max_cycles: 2_000_000,
    }
}

fn run(id: &str, workloads: &[Workload]) -> FigureResult {
    FigureSpec::for_id(id, workloads, tiny())
        .expect("known figure id")
        .run_on(&SweepEngine::new(4))
}

fn check_speedup_figure(f: &FigureResult, series: usize, baseline_row: usize) {
    assert_eq!(f.series.len(), series, "{}", f.id);
    for s in &f.series {
        assert_eq!(
            s.values.len(),
            f.columns.len(),
            "{}: ragged series {}",
            f.id,
            s.label
        );
        for v in &s.values {
            assert!(
                v.is_finite() && *v > 0.0,
                "{}: non-positive speedup in {}",
                f.id,
                s.label
            );
        }
    }
    for v in &f.series[baseline_row].values {
        assert!((v - 1.0).abs() < 1e-12, "{}: baseline must be 1.0", f.id);
    }
    assert!(!f.paper_expectation.is_empty());
    // Rendering must not panic and must include every column.
    let table = f.to_table();
    for c in &f.columns {
        assert!(table.contains(c.as_str()), "{}: missing column {c}", f.id);
    }
    let json = f.to_json();
    assert!(json.contains(&f.id));
}

#[test]
fn fig4_smoke() {
    let f = run("fig4", &Workload::smoke_set());
    check_speedup_figure(&f, 4, 0);
}

#[test]
fn fig5_smoke() {
    let f = run("fig5", &Workload::smoke_set());
    check_speedup_figure(&f, 4, 0);
}

#[test]
fn fig6_smoke() {
    let f = run("fig6", &[]);
    assert_eq!(f.series.len(), 1);
    assert_eq!(f.columns.len(), 61);
    let v = &f.series[0].values;
    assert!(v.windows(2).all(|w| w[1] >= w[0]), "CDF must be monotone");
    assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
}

#[test]
fn fig8_smoke() {
    let ws = Workload::smoke_set();
    let f = run("fig8", &ws);
    assert_eq!(f.series.len(), 3);
    for s in &f.series {
        assert!(s.label.contains("DRA"));
        assert_eq!(s.values.len(), ws.len());
        for v in &s.values {
            assert!(
                v.is_finite() && *v > 0.3 && *v < 3.0,
                "implausible speedup {v}"
            );
        }
    }
}

#[test]
fn fig9_smoke() {
    let ws = Workload::smoke_set();
    let f = run("fig9", &ws);
    assert_eq!(f.series.len(), 5);
    for col in 0..ws.len() {
        let total: f64 = f.series.iter().map(|s| s.values[col]).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "fractions must sum to 1, got {total}"
        );
    }
    let rf = f.series.iter().find(|s| s.label == "regfile").unwrap();
    assert!(
        rf.values.iter().all(|v| *v == 0.0),
        "DRA never reads RF on the IQ-EX path"
    );
}

#[test]
fn ablation_smoke() {
    let f = run("load-policy", &Workload::smoke_set());
    // 4 policies; smoke set + the appended chase microbenchmark.
    check_speedup_figure(&f, 4, 0);
    assert_eq!(*f.columns.last().unwrap(), "chase");
}
