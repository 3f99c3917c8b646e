//! One fuzz case: a sampled machine configuration plus generated programs,
//! and the differential run that compares the timing pipeline against the
//! ISA oracle.
//!
//! A case fails when any of these diverge:
//! - the **retire stream**: every retired instruction's PC, decoded form,
//!   written register/value, memory address, branch outcome and next PC,
//!   compared in architectural order per thread;
//! - the **final architectural state**: all 64 registers, the PC and the
//!   halt flag, via [`ArchState::diff`];
//! - the **final data memory** (single-thread cases), via
//!   [`FlatMemory::diff`];
//! - **liveness**: the machine must halt within the cycle budget (the
//!   watchdog is armed, so wedges surface as typed deadlocks, not
//!   timeouts);
//! - the **engines**: once the oracle checks pass, the event-driven run
//!   they checked is compared with a naive per-cycle run of the case; the
//!   two must agree on outcome, cycle count, retire stream and statistics
//!   (the comparison [`engines_agree`] makes).
//!
//! Failures are *data* (a [`Finding`]), never panics — the shrinker needs
//! to re-run candidate cases by the thousand.

use crate::gen::{generate, GenProfile};
use looseloops_isa::{ArchState, FlatMemory, Program, Retired};
use looseloops_pipeline::{FaultPlan, LoadSpecPolicy, Machine, PipelineConfig, SimStats};
use looseloops_rng::Rng;
use std::fmt;

/// What kind of divergence a case produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The functional oracle itself failed (PC out of range / step budget)
    /// — a generator bug, not a pipeline bug. The shrinker rejects
    /// candidates that degrade into this.
    OracleError,
    /// The timing machine returned a [`looseloops_pipeline::SimError`]
    /// (invalid config, deadlock, invariant violation).
    Sim,
    /// The machine did not retire its halt within the cycle budget.
    HaltMismatch,
    /// The retire streams differ (first mismatching retirement).
    RetireDivergence,
    /// Final register/PC/halt state differs after both sides halted.
    FinalState,
    /// Final data memory differs after both sides halted.
    MemoryDivergence,
    /// The naive per-cycle engine disagrees with the event-driven one.
    EngineDivergence,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::OracleError => "oracle error",
            FindingKind::Sim => "simulation error",
            FindingKind::HaltMismatch => "halt mismatch",
            FindingKind::RetireDivergence => "retire divergence",
            FindingKind::FinalState => "final-state divergence",
            FindingKind::MemoryDivergence => "memory divergence",
            FindingKind::EngineDivergence => "engine divergence",
        })
    }
}

/// One observed failure, with a human-readable detail line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Failure category.
    pub kind: FindingKind,
    /// What diverged, exactly.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// A fully materialized differential test case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Campaign seed this case was derived from (0 for corpus replays).
    pub seed: u64,
    /// Generator profile (kept for labeling; the programs are already
    /// materialized).
    pub profile: GenProfile,
    /// Machine configuration under test (auditor and watchdog always on).
    pub config: PipelineConfig,
    /// One program per hardware thread.
    pub programs: Vec<Program>,
    /// Timing-simulation cycle budget.
    pub max_cycles: u64,
    /// Oracle step budget per thread.
    pub oracle_steps: u64,
}

/// Statistics from one executed case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The divergence, if any.
    pub finding: Option<Finding>,
    /// Instructions the timing machine retired.
    pub retired: u64,
    /// Cycles the timing machine ran.
    pub cycles: u64,
}

impl FuzzCase {
    /// Derive a complete case from a campaign seed: profile, configuration
    /// (valid by construction) and per-thread programs all come from one
    /// deterministic RNG stream.
    pub fn from_seed(seed: u64, force_profile: Option<GenProfile>) -> FuzzCase {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xf0cced);
        let profile = force_profile.unwrap_or_else(|| *rng.choose(&GenProfile::all()).unwrap());
        let config = sample_config(&mut rng);
        let programs = (0..config.threads)
            .map(|t| generate(seed, profile, t))
            .collect();
        FuzzCase {
            seed,
            profile,
            config,
            programs,
            max_cycles: 2_000_000,
            oracle_steps: 1_000_000,
        }
    }

    /// Short label for logs.
    pub fn label(&self) -> String {
        format!("seed={:#x} profile={}", self.seed, self.profile)
    }
}

/// Sample a valid machine configuration: scheme × RF latency × latency
/// jitter × load policy × predictor × SMT × fault storm. Auditor and
/// watchdog are always armed so structural bugs surface even when the
/// architectural results still match.
fn sample_config(rng: &mut Rng) -> PipelineConfig {
    let rf = *rng.choose(&[3u32, 5, 7]).unwrap();
    let mut cfg = if rng.gen_bool(0.5) {
        PipelineConfig::base_for_rf(rf)
    } else {
        PipelineConfig::dra_for_rf(rf)
    };
    cfg.dec_iq_stages += rng.gen_range(0u32..3);
    cfg.iq_ex_stages += rng.gen_range(0u32..3);
    cfg.load_policy = *rng
        .choose(&[
            LoadSpecPolicy::ReissueTree,
            LoadSpecPolicy::ReissueShadow,
            LoadSpecPolicy::Stall,
            LoadSpecPolicy::Refetch,
        ])
        .unwrap();
    {
        use looseloops::branch::PredictorKind::*;
        cfg.predictor = *rng
            .choose(&[Tournament, Gshare, Local, Bimodal, Taken])
            .unwrap();
    }
    if rng.gen_bool(0.25) {
        cfg.threads = 2;
    }
    cfg.audit = true;
    cfg.watchdog_window = 50_000;
    if rng.gen_bool(0.6) {
        let mut plan = FaultPlan {
            seed: rng.next_u64(),
            ..FaultPlan::default()
        };
        if rng.gen_bool(0.7) {
            plan.branch_flip_rate = rng.gen_f64() * 0.3;
        }
        if rng.gen_bool(0.7) {
            plan.load_spike_rate = rng.gen_f64() * 0.3;
            plan.load_spike_cycles = rng.gen_range(1u64..120);
        }
        if rng.gen_bool(0.5) {
            plan.operand_miss_rate = rng.gen_f64() * 0.2;
        }
        if rng.gen_bool(0.3) {
            let start = rng.gen_range(0u64..5_000);
            plan = plan.in_window(start, start + rng.gen_range(500u64..10_000));
        }
        cfg.faults = Some(plan);
    }
    debug_assert!(cfg.validate().is_ok());
    cfg
}

/// Run the oracle for one program, collecting its full retire stream.
fn oracle_run(
    prog: &Program,
    steps: u64,
) -> Result<(ArchState, FlatMemory, Vec<Retired>), Finding> {
    let mut mem = FlatMemory::with_program(prog);
    let mut st = ArchState::new(prog);
    let mut retires = Vec::new();
    while !st.is_halted() {
        if retires.len() as u64 >= steps {
            return Err(Finding {
                kind: FindingKind::OracleError,
                detail: format!("oracle exhausted {steps} steps without halting"),
            });
        }
        match st.step(prog, &mut mem) {
            Ok(r) => retires.push(r),
            Err(e) => {
                return Err(Finding {
                    kind: FindingKind::OracleError,
                    detail: format!("oracle at pc {}: {e}", st.pc()),
                })
            }
        }
    }
    Ok((st, mem, retires))
}

/// One engine's run of a case, with retire capture. `outcome`'s `Err`
/// holds the [`looseloops_pipeline::SimError`]'s text.
struct EngineRun {
    machine: Machine,
    outcome: Result<(), String>,
    retires: Vec<(usize, Retired)>,
}

impl EngineRun {
    /// Run `cfg` on `programs` for up to `max_cycles` cycles on the
    /// event-driven or the naive per-cycle engine; `Err` if the machine
    /// cannot be built.
    fn new(
        cfg: &PipelineConfig,
        programs: &[Program],
        max_cycles: u64,
        event_driven: bool,
    ) -> Result<Self, String> {
        let mut machine =
            Machine::new(cfg.clone(), programs.to_vec()).map_err(|e| e.to_string())?;
        machine.set_event_driven(event_driven);
        machine.enable_retire_capture();
        let outcome = machine
            .run(u64::MAX, max_cycles)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let retires = machine.take_retires();
        Ok(EngineRun {
            machine,
            outcome,
            retires,
        })
    }

    /// Compare this event-driven run with a naive per-cycle run of the
    /// same case: the outcome (a deadlock's snapshot included), cycles,
    /// retire stream and statistics but `audit_checks` (the auditor also
    /// checks after each quiescence skip). `Err` names the first part
    /// that differs.
    fn agrees_with(&self, naive: &EngineRun) -> Result<(), String> {
        let (fast_at, naive_at) = (self.machine.cycle(), naive.machine.cycle());
        if (&self.outcome, fast_at) != (&naive.outcome, naive_at) {
            return Err(format!(
                "outcome at cycle: event-driven {:?} at {fast_at}, naive {:?} at {naive_at}",
                self.outcome, naive.outcome
            ));
        }
        let (a, b) = (&self.retires, &naive.retires);
        if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
            return Err(format!(
                "retirement #{i}: event-driven {:?}, naive {:?}",
                a.get(i),
                b.get(i)
            ));
        }
        let stats = |r: &EngineRun| {
            let mut stats = r.machine.stats().clone();
            stats.audit_checks = 0;
            format!("{stats:?}")
        };
        let (a, b) = (stats(self), stats(naive));
        if a != b {
            // Name the first differing `field: value` rather than both dumps.
            let (x, y) = a
                .split(", ")
                .zip(b.split(", "))
                .find(|(x, y)| x != y)
                .unwrap_or((&a, &b));
            return Err(format!("SimStats: event-driven `{x}`, naive `{y}`"));
        }
        Ok(())
    }
}

/// Run `cfg` on `programs` for up to `max_cycles` cycles on the
/// event-driven and the naive per-cycle engine and compare them as
/// `run_case` does once its oracle checks pass. `Ok` holds the
/// event-driven run's statistics; `Err` names the first part that differs.
pub fn engines_agree(
    cfg: &PipelineConfig,
    programs: &[Program],
    max_cycles: u64,
) -> Result<SimStats, String> {
    let fast = EngineRun::new(cfg, programs, max_cycles, true)?;
    fast.agrees_with(&EngineRun::new(cfg, programs, max_cycles, false)?)?;
    Ok(fast.machine.stats().clone())
}

/// Execute one case differentially. Never panics on divergence — failures
/// come back as [`Finding`]s.
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    let fail = |kind, detail| CaseOutcome {
        finding: Some(Finding { kind, detail }),
        retired: 0,
        cycles: 0,
    };

    // Oracle side, per thread.
    let mut oracle = Vec::with_capacity(case.programs.len());
    for prog in &case.programs {
        match oracle_run(prog, case.oracle_steps) {
            Ok(o) => oracle.push(o),
            Err(f) => return fail(f.kind, f.detail),
        }
    }

    // Timing side: one event-driven run serves the oracle checks and,
    // once they pass, the comparison with the naive engine.
    let mut run = match EngineRun::new(&case.config, &case.programs, case.max_cycles, true) {
        Ok(run) => run,
        Err(e) => return fail(FindingKind::Sim, format!("machine construction: {e}")),
    };
    if let Err(e) = &run.outcome {
        return fail(FindingKind::Sim, e.clone());
    }
    let m = &mut run.machine;
    let cycles = m.cycle();
    let retired = m.stats().total_retired();
    if !m.is_done() {
        return fail(
            FindingKind::HaltMismatch,
            format!(
                "machine did not halt within {} cycles ({} retired)",
                case.max_cycles, retired
            ),
        );
    }

    // Per-thread retire streams, in architectural order.
    for (t, (o_state, o_mem, o_retires)) in oracle.iter().enumerate() {
        let machine_stream: Vec<&Retired> = run
            .retires
            .iter()
            .filter(|(th, _)| *th == t)
            .map(|(_, r)| r)
            .collect();
        if machine_stream.len() != o_retires.len() {
            return fail(
                FindingKind::RetireDivergence,
                format!(
                    "thread {t}: oracle retired {} instructions, machine {}",
                    o_retires.len(),
                    machine_stream.len()
                ),
            );
        }
        for (i, (o, g)) in o_retires.iter().zip(&machine_stream).enumerate() {
            if o != *g {
                return fail(
                    FindingKind::RetireDivergence,
                    format!("thread {t} retirement #{i}: oracle {o:?} != machine {g:?}"),
                );
            }
        }
        // Final architectural state through the public diff API.
        let d = o_state.diff(&m.arch_state(t));
        if !d.is_empty() {
            return fail(
                FindingKind::FinalState,
                format!(
                    "thread {t}: {}",
                    d.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            );
        }
        // Memory: only meaningful single-threaded (SMT shares one image).
        if case.programs.len() == 1 {
            let md = o_mem.diff(m.data_mem());
            if !md.is_empty() {
                return fail(
                    FindingKind::MemoryDivergence,
                    md.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; "),
                );
            }
        }
    }

    let naive = EngineRun::new(&case.config, &case.programs, case.max_cycles, false);
    if let Err(detail) = naive.and_then(|naive| run.agrees_with(&naive)) {
        return fail(FindingKind::EngineDivergence, detail);
    }

    CaseOutcome {
        finding: None,
        retired,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_configs_are_always_valid() {
        let mut rng = Rng::seed_from_u64(0xc0ffee);
        for _ in 0..200 {
            sample_config(&mut rng).validate().unwrap();
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = FuzzCase::from_seed(42, None);
        let b = FuzzCase::from_seed(42, None);
        assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
        assert_eq!(a.programs.len(), b.programs.len());
        for (pa, pb) in a.programs.iter().zip(&b.programs) {
            assert_eq!(pa.insts, pb.insts);
        }
    }

    #[test]
    fn a_healthy_pipeline_passes_a_seed_sweep() {
        for seed in 0..8u64 {
            let case = FuzzCase::from_seed(seed, None);
            let out = run_case(&case);
            assert!(
                out.finding.is_none(),
                "{}: {}",
                case.label(),
                out.finding.unwrap()
            );
            assert!(out.retired > 0);
        }
    }
}
