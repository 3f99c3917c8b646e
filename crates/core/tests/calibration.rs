//! Kernel calibration contracts: each Spec95 proxy must sit at the
//! operating point its paper characterization requires (DESIGN.md §4).
//! These tests pin the workload suite — if a kernel drifts out of its
//! envelope, the figures stop meaning what EXPERIMENTS.md says they mean.

use looseloops::{Benchmark, PipelineConfig, RunBudget, SimStats, Workload};

fn measure(cfg: &PipelineConfig, b: Benchmark) -> SimStats {
    let budget = RunBudget {
        warmup: 30_000,
        measure: 60_000,
        max_cycles: 50_000_000,
    };
    Workload::Single(b)
        .try_run(cfg, budget)
        .expect("the run completes")
}

#[test]
fn branchy_int_codes_mispredict_heavily() {
    for b in [Benchmark::Compress, Benchmark::Gcc, Benchmark::Go] {
        let s = measure(&PipelineConfig::base(), b);
        let rate = s.branch_mispredict_rate();
        assert!(
            (0.08..0.45).contains(&rate),
            "{b}: mispredict rate {rate:.3} outside the branchy-int envelope"
        );
        let density = s.branches as f64 / s.total_retired() as f64;
        assert!(density > 0.10, "{b}: branch density {density:.3} too low");
    }
}

#[test]
fn m88ksim_is_well_predicted() {
    let s = measure(&PipelineConfig::base(), Benchmark::M88ksim);
    assert!(
        s.branch_mispredict_rate() < 0.02,
        "m88ksim must be nearly mispredict-free, got {:.3}",
        s.branch_mispredict_rate()
    );
}

#[test]
fn load_hit_rates_are_realistic() {
    // The paper: "most programs have a high load hit rate" — speculation
    // must be a good bet everywhere.
    for b in Benchmark::all() {
        let s = measure(&PipelineConfig::base(), b);
        if matches!(b, Benchmark::Hydro2d | Benchmark::Mgrid) {
            // The deliberately memory-bound codes: every iteration brings a
            // fresh line from main memory (the stencil re-touches lines, so
            // the per-load rate sits between 1/3 and ~1).
            assert!(
                s.load_miss_rate() > 0.25,
                "{b}: miss rate {:.3} — should be memory-bound",
                s.load_miss_rate()
            );
        } else {
            assert!(
                s.load_miss_rate() < 0.25,
                "{b}: miss rate {:.3} too high for a high-hit-rate code",
                s.load_miss_rate()
            );
        }
    }
}

#[test]
fn swim_and_turb3d_exercise_the_load_loop() {
    for b in [Benchmark::Swim, Benchmark::Turb3d] {
        let s = measure(&PipelineConfig::base(), b);
        assert!(
            (0.02..0.25).contains(&s.load_miss_rate()),
            "{b}: L1 miss rate {:.3} outside the L2-resident-stream envelope",
            s.load_miss_rate()
        );
        assert!(
            s.load_replays > 50,
            "{b}: the load loop must fire ({} replays)",
            s.load_replays
        );
    }
}

#[test]
fn turb3d_takes_tlb_traps() {
    let s = measure(&PipelineConfig::base(), Benchmark::Turb3d);
    assert!(s.tlb_traps > 10, "turb3d's long strides must trap the dTLB");
    // But not so many that they dominate (a trap storm would change its
    // character entirely).
    assert!((s.tlb_traps as f64) < s.total_retired() as f64 / 200.0);
}

#[test]
fn apsi_is_chain_bound_with_dra_misses() {
    let s = measure(&PipelineConfig::base(), Benchmark::Apsi);
    assert!(
        s.ipc() < 1.2,
        "apsi must be low-ILP, got ipc {:.2}",
        s.ipc()
    );
    let dra = measure(&PipelineConfig::dra_for_rf(5), Benchmark::Apsi);
    assert!(
        (0.004..0.04).contains(&dra.operand_miss_rate()),
        "apsi operand-miss rate {:.4} outside the paper's ~1.5% neighbourhood",
        dra.operand_miss_rate()
    );
}

#[test]
fn su2cor_queues_wide_fp_work() {
    let s = measure(&PipelineConfig::base(), Benchmark::Su2cor);
    assert!(
        s.branch_mispredict_rate() < 0.10,
        "su2cor mispredicts rarely, got {:.3}",
        s.branch_mispredict_rate()
    );
    assert!(s.iq_occupancy_mean > 30.0, "su2cor must keep the IQ busy");
}

#[test]
fn memory_bound_codes_ignore_pipe_length() {
    // The defining property the paper uses for hydro2d/mgrid: main-memory
    // latency dwarfs the loop delays.
    let budget = RunBudget {
        warmup: 20_000,
        measure: 40_000,
        max_cycles: 50_000_000,
    };
    for b in [Benchmark::Hydro2d, Benchmark::Mgrid] {
        let short = Workload::Single(b)
            .try_run(&PipelineConfig::base_with_latencies(3, 3), budget)
            .expect("the run completes")
            .ipc();
        let long = Workload::Single(b)
            .try_run(&PipelineConfig::base_with_latencies(9, 9), budget)
            .expect("the run completes")
            .ipc();
        let loss = 1.0 - long / short;
        assert!(
            loss < 0.20,
            "{b}: lost {:.1}% to pipe length — too sensitive for a memory-bound code",
            loss * 100.0
        );
    }
}
