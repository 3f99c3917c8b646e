//! Differential cycle-exactness suite for the event-driven engine.
//!
//! The incremental ready lists and the quiescence skip are pure
//! accelerations: they must reproduce the naive per-cycle engine's
//! behavior *exactly* — same cycle count, same `SimStats` (CPI stack,
//! stall counters, IQ occupancy sums included), same retire stream.
//! Every case here runs twice, event-driven (the default) vs naive
//! (`set_event_driven(false)`), and compares the full Debug rendering of
//! the statistics plus the captured retire streams.
//!
//! Coverage: the checked-in fuzz regression corpus, fresh
//! structure-aware fuzz cases, fault storms (latency spikes, branch
//! flips, DRA operand drops) across all four load-speculation policies
//! and both register schemes, and SMT with store-wait traps.

use looseloops::workload::{synthetic, SyntheticParams};
use looseloops_fuzz::FuzzCase;
use looseloops_isa::Program;
use looseloops_pipeline::{FaultPlan, Machine, PipelineConfig};
use std::path::Path;

/// Run `cfg` on `programs` once with each engine and assert identical
/// observable behavior. The auditor is forced off: it would disable the
/// quiescence skip (by design) and this suite exists to exercise it.
fn assert_engines_agree(mut cfg: PipelineConfig, programs: Vec<Program>, label: &str) {
    cfg.audit = false;
    let run = |naive: bool| {
        let mut m = Machine::new(cfg.clone(), programs.clone()).expect("valid config");
        if naive {
            m.set_event_driven(false);
        }
        m.enable_retire_capture();
        // Deadlocks must also be *identical* (same cycle, same snapshot),
        // so keep the error rather than unwrapping.
        let outcome = m
            .run(u64::MAX, 300_000)
            .map(|_| ())
            .map_err(|e| e.to_string());
        (
            outcome,
            m.cycle(),
            format!("{:?}", m.stats()),
            m.take_retires(),
        )
    };
    let fast = run(false);
    let naive = run(true);
    assert_eq!(fast.0, naive.0, "{label}: run outcome diverged");
    assert_eq!(fast.1, naive.1, "{label}: cycle count diverged");
    assert_eq!(fast.3, naive.3, "{label}: retire stream diverged");
    assert_eq!(fast.2, naive.2, "{label}: SimStats diverged");
}

#[test]
fn fuzz_corpus_is_cycle_exact_under_the_event_driven_engine() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let entries = looseloops_fuzz::load_dir(&dir).expect("corpus must load");
    assert!(entries.len() >= 5, "corpus too small: {}", entries.len());
    for entry in entries {
        assert_engines_agree(
            entry.case.config.clone(),
            entry.case.programs.clone(),
            &format!("corpus `{}`", entry.name),
        );
    }
}

#[test]
fn fresh_fuzz_cases_are_cycle_exact() {
    for seed in [1u64, 7, 23, 1999, 31_337, 42_424] {
        let case = FuzzCase::from_seed(seed, None);
        assert_engines_agree(case.config.clone(), case.programs.clone(), &case.label());
    }
}

fn mem_heavy(seed: u64) -> Program {
    synthetic(SyntheticParams {
        seed,
        body_len: 24,
        branches: 3,
        taken_bits: 2,
        loads: 4,
        stores: 2,
        footprint: 64 << 10,
        chain: 4,
        fp: false,
        base: 16 << 20,
    })
}

#[test]
fn fault_storms_are_cycle_exact_across_load_policies() {
    use looseloops_pipeline::LoadSpecPolicy as P;
    for (i, policy) in [P::Stall, P::ReissueTree, P::ReissueShadow, P::Refetch]
        .into_iter()
        .enumerate()
    {
        let mut cfg = PipelineConfig::base();
        cfg.load_policy = policy;
        cfg.faults = Some(FaultPlan::load_storm(31 + i as u64, 0.3, 150));
        assert_engines_agree(
            cfg,
            vec![mem_heavy(5 + i as u64)],
            &format!("{policy:?} storm"),
        );
    }
}

#[test]
fn branch_storms_and_dra_drops_are_cycle_exact() {
    let mut cfg = PipelineConfig::base();
    cfg.faults = Some(FaultPlan::branch_storm(77, 0.25));
    assert_engines_agree(cfg, vec![mem_heavy(9)], "branch storm");

    let mut dra = PipelineConfig::dra_for_rf(5);
    dra.faults = Some(FaultPlan::load_storm(13, 0.2, 200));
    assert_engines_agree(dra, vec![mem_heavy(11)], "dra load storm");
}

#[test]
fn smt_store_traffic_is_cycle_exact() {
    let cfg = PipelineConfig::base().smt(2);
    let progs = vec![mem_heavy(21), mem_heavy(22)];
    assert_engines_agree(cfg, progs, "smt-2 store traffic");
}
