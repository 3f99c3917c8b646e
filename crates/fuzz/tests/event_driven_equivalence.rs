//! Differential cycle-exactness suite for the event-driven engine.
//!
//! The incremental ready lists and the quiescence skip are pure
//! accelerations: they must reproduce the naive per-cycle engine's
//! behavior *exactly* — same cycle count, same `SimStats` (CPI stack,
//! stall counters, IQ occupancy sums included), same retire stream.
//! Every case here runs twice, event-driven (the default) vs naive
//! (`set_event_driven(false)`), and compares the full Debug rendering of
//! the statistics (all but the auditor's own pass count) plus the
//! captured retire streams.
//!
//! Coverage: the checked-in fuzz regression corpus, fresh
//! structure-aware fuzz cases, fault storms (latency spikes, branch
//! flips, DRA operand drops) across all four load-speculation policies
//! and both register schemes, SMT with store-wait traps, and rename's
//! branch-checkpoint limit.

use looseloops::workload::{synthetic, SyntheticParams};
use looseloops_fuzz::FuzzCase;
use looseloops_isa::Program;
use looseloops_pipeline::{FaultPlan, Machine, PipelineConfig, SimStats};
use std::path::Path;

/// Run `cfg` on `programs` for up to 300,000 cycles once with each engine
/// and assert identical observable behavior.
fn assert_engines_agree(cfg: PipelineConfig, programs: Vec<Program>, label: &str) {
    assert_engines_agree_within(cfg, programs, label, 300_000);
}

/// [`assert_engines_agree`] for up to `max_cycles` cycles, returning the
/// statistics. Audited cases (the fuzz corpus and fresh fuzz cases) run
/// the auditor in both engines; it checks the event-driven engine after
/// each skip too, so `audit_checks` is the one counter left out of the
/// comparison.
fn assert_engines_agree_within(
    cfg: PipelineConfig,
    programs: Vec<Program>,
    label: &str,
    max_cycles: u64,
) -> SimStats {
    let run = |naive: bool| {
        let mut m = Machine::new(cfg.clone(), programs.clone()).expect("valid config");
        if naive {
            m.set_event_driven(false);
        }
        m.enable_retire_capture();
        // Deadlocks must also be *identical* (same cycle, same snapshot),
        // so keep the error rather than unwrapping.
        let outcome = m
            .run(u64::MAX, max_cycles)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let stats = SimStats {
            audit_checks: 0,
            ..m.stats().clone()
        };
        (outcome, m.cycle(), stats, m.take_retires())
    };
    let fast = run(false);
    let naive = run(true);
    assert_eq!(fast.0, naive.0, "{label}: run outcome diverged");
    assert_eq!(fast.1, naive.1, "{label}: cycle count diverged");
    assert_eq!(fast.3, naive.3, "{label}: retire stream diverged");
    assert_eq!(
        format!("{:?}", fast.2),
        format!("{:?}", naive.2),
        "{label}: SimStats diverged"
    );
    fast.2
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

/// No preset, figure or workload sets `branch_checkpoints`, so this is
/// the only place rename's checkpoint-limit stall runs: a conditional
/// branch waits at rename until an older one resolves, and the skip must
/// charge those stall cycles exactly as stepping does.
#[test]
fn branch_checkpoint_limits_are_cycle_exact() {
    use looseloops::workload::Benchmark;
    for (scheme, base) in [
        ("base", PipelineConfig::base()),
        ("dra5", PipelineConfig::dra_for_rf(5)),
    ] {
        for bench in [Benchmark::Go, Benchmark::Gcc] {
            let retired = [1, 4].map(|limit| {
                let mut cfg = base.clone();
                cfg.branch_checkpoints = Some(limit);
                let label = format!("{bench:?} {scheme} branch_checkpoints={limit}");
                let stats = assert_engines_agree_within(cfg, vec![bench.program()], &label, 60_000);
                assert!(
                    stats.rename_stall_cycles > 0,
                    "{label}: rename never stalled"
                );
                stats.total_retired()
            });
            assert!(
                retired[0] < retired[1],
                "{bench:?} {scheme}: one checkpoint must retire less than four in the same cycles: {retired:?}"
            );
        }
    }
}
