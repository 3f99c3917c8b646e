//! High-level simulation driver: warm-up + measurement runs.
//!
//! The paper warms the simulator before measuring ("warm up the simulator
//! for 1 to 2 million instructions, and simulate each benchmark from 90 to
//! 200 million instructions"); [`RunBudget`] scales that protocol to
//! whatever budget the caller can afford — figures use hundreds of
//! thousands of instructions, tests use thousands.

use looseloops_isa::Program;
use looseloops_pipeline::{Machine, PipelineConfig, SimError, SimStats};

/// Instruction/cycle budget for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Instructions to retire before statistics are reset (cache/predictor
    /// warm-up).
    pub warmup: u64,
    /// Instructions to retire in the measured window.
    pub measure: u64,
    /// Hard cycle ceiling (guards against pathological configurations).
    pub max_cycles: u64,
}

impl RunBudget {
    /// The default figure budget: 50k warm-up, 300k measured instructions.
    pub fn bench() -> RunBudget {
        RunBudget {
            warmup: 50_000,
            measure: 300_000,
            max_cycles: 20_000_000,
        }
    }

    /// A small budget for tests.
    pub fn test() -> RunBudget {
        RunBudget {
            warmup: 2_000,
            measure: 20_000,
            max_cycles: 2_000_000,
        }
    }
}

impl Default for RunBudget {
    fn default() -> RunBudget {
        RunBudget::bench()
    }
}

/// Run `programs` (one per configured thread) under `cfg`: warm up, reset
/// statistics, measure. Returns the measured-window statistics.
///
/// # Errors
///
/// Everything [`Machine::new`] and [`Machine::run`] can report: an invalid
/// configuration, a mismatched program count, a deadlock, or (with
/// `cfg.audit`) an invariant violation.
pub fn try_run_programs(
    cfg: &PipelineConfig,
    programs: Vec<Program>,
    budget: RunBudget,
) -> Result<SimStats, SimError> {
    let mut m = Machine::new(cfg.clone(), programs)?;
    if budget.warmup > 0 {
        m.run(budget.warmup, budget.max_cycles)?;
        m.reset_stats();
    }
    Ok(m.run(budget.measure, budget.max_cycles)?.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_workload::Benchmark;

    #[test]
    fn warmup_is_excluded_from_measurement() {
        let budget = RunBudget {
            warmup: 5_000,
            measure: 10_000,
            max_cycles: 5_000_000,
        };
        let programs = vec![Benchmark::M88ksim.program()];
        let stats =
            try_run_programs(&PipelineConfig::base(), programs, budget).expect("m88ksim runs");
        // Retired count reflects only the measured window (within the
        // retire-width granularity of the run loop).
        assert!(stats.total_retired() >= 10_000);
        assert!(stats.total_retired() < 10_100);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn smt_pair_runs_both_threads() {
        let stats = try_run_programs(
            &PipelineConfig::base().smt(2),
            Benchmark::pairs()[0].programs(),
            RunBudget::test(),
        )
        .expect("the pair runs");
        assert!(stats.retired[0] > 0);
        assert!(stats.retired[1] > 0);
    }

    #[test]
    fn thread_count_mismatch_is_typed() {
        let err = try_run_programs(
            &PipelineConfig::base().smt(2),
            vec![Benchmark::Go.program()],
            RunBudget::test(),
        )
        .expect_err("2-thread config with one program");
        assert!(matches!(
            err,
            SimError::ProgramCount {
                expected: 2,
                got: 1
            }
        ));
    }
}
