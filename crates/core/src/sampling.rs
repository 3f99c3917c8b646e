//! SMARTS-style interval sampling of the measured window.
//!
//! Instead of simulating the full measured budget cycle-accurately, a
//! [`SamplingPlan`] alternates *functional* windows (ISA-level execution
//! that keeps caches/TLB/predictors warm via `crate::checkpoint`'s
//! [`FunctionalCursor`]) with short *detailed* windows, each preceded by a
//! detailed warm-up stretch that re-fills what functional warming cannot
//! model (in-flight pipeline state, queue occupancies, MSHR pressure).
//! The per-window CPIs give a mean and a standard error — the error bar
//! the sampled estimate is reported with, in the spirit of Wunderlich et
//! al.'s SMARTS (ISCA 2003) applied to this simulator's budget scale.
//!
//! Sampling is an estimator, not a replacement: the detailed path remains
//! the reference, and `tests/sampling_accuracy.rs` pins the estimator's
//! error against it.

use crate::checkpoint::{
    restore_into, warm_checkpoint, CheckpointStore, FunctionalCursor, WarmMemo,
};
use crate::simulator::{warm_then_measure, RunBudget};
use crate::sweep::Job;
use looseloops_pipeline::profile::StageReport;
use looseloops_pipeline::{Machine, SimError, SimStats};

/// One interval-sampling schedule: `windows` repetitions of
/// `skip` (functional) → `detail_warmup` (detailed, discarded) →
/// `detail` (detailed, measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Number of sampling windows spread across the measured budget.
    pub windows: u32,
    /// Instructions fast-forwarded functionally before each window.
    pub skip: u64,
    /// Detailed instructions run and *discarded* before each measured
    /// window, to refill pipeline/queue state functional warming cannot
    /// represent.
    pub detail_warmup: u64,
    /// Detailed instructions measured per window.
    pub detail: u64,
}

impl SamplingPlan {
    /// A plan scaled to `budget`: 10 windows, each measuring 1/150 of
    /// the budget, preceded by a detailed warm-up of *twice* the window.
    /// In all, a fifth of the measured instructions run in detail (a 5×
    /// reduction); the rest is skipped functionally. A window measures at
    /// least 200 instructions, so below a 6,000-instruction budget the
    /// plan has fewer windows (at least one) to stay inside the budget.
    ///
    /// The windows sit at a fixed stride, and that is where this plan's
    /// bias comes from. At a 1 M / 300 k budget, turb3d on the base
    /// machine reads +11.1% high under this plan (about 3% stderr), while
    /// the one-window plan — the same functional warm-up, then the whole
    /// measured window in detail — reads +0.1%. So functional warming is
    /// accurate, and a 20 k per-window warm-up instead of 4 k leaves the
    /// error near +10%. Moving `skip` from 24,000 to 23,000 or 25,000
    /// brings it to −0.1% or +0.3%: the 30,000-instruction stride aliases
    /// with the kernel's period and over-samples its costly phase.
    /// `tests/sampling_accuracy.rs` bounds the error against the detailed
    /// reference.
    pub fn for_budget(budget: RunBudget) -> SamplingPlan {
        let detail = (budget.measure / 150).max(200);
        let detail_warmup = 2 * detail;
        // At most 10, so the cast cannot truncate.
        let windows = (budget.measure / (detail + detail_warmup)).clamp(1, 10) as u32;
        let covered = u64::from(windows) * (detail + detail_warmup);
        let skip = budget.measure.saturating_sub(covered) / u64::from(windows);
        SamplingPlan {
            windows,
            skip,
            detail_warmup,
            detail,
        }
    }

    /// Parse a plan spec: `auto`, or comma-separated `key=value` pairs
    /// with keys `w` (windows), `detail` and `warm` — e.g.
    /// `w=10,detail=5000,warm=1000`. Omitted keys start from
    /// [`SamplingPlan::for_budget`]. `skip` is always derived, so the
    /// schedule spans the measured budget.
    ///
    /// # Errors
    ///
    /// A human-readable message on an unknown key, an unparsable value,
    /// a degenerate plan (zero windows / zero detail), or a plan that runs
    /// more detailed instructions than the measured budget holds.
    pub fn parse(spec: &str, budget: RunBudget) -> Result<SamplingPlan, String> {
        let mut plan = SamplingPlan::for_budget(budget);
        // `auto` (or nothing) sets no key: the plan stays the budget's.
        let auto = matches!(spec.trim(), "" | "auto");
        for part in spec.split(',').filter(|_| !auto) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("`{part}`: cannot parse `{value}` as an integer"))?;
            match key.trim() {
                "w" | "windows" => {
                    plan.windows =
                        u32::try_from(value).map_err(|_| format!("`{part}`: too many windows"))?;
                }
                "detail" => plan.detail = value,
                "warm" => plan.detail_warmup = value,
                other => {
                    return Err(format!(
                        "unknown sampling key `{other}` (expected w, detail, warm)"
                    ))
                }
            }
        }
        if plan.windows == 0 {
            return Err("sampling needs at least one window".into());
        }
        if plan.detail == 0 {
            return Err("sampling needs a non-zero detail window".into());
        }
        let detailed = plan.detailed_instructions();
        if detailed > budget.measure {
            return Err(format!(
                "the sampling plan runs {detailed} detailed instructions, more than the {} measured",
                budget.measure
            ));
        }
        plan.skip = (budget.measure - detailed) / u64::from(plan.windows);
        Ok(plan)
    }

    /// Instructions of the measured budget simulated in detail (warm-up
    /// stretches included) — the numerator of the sampling speedup.
    pub fn detailed_instructions(&self) -> u64 {
        u64::from(self.windows).saturating_mul(self.detail.saturating_add(self.detail_warmup))
    }
}

/// The outcome of one sampled run: aggregate statistics over the measured
/// windows plus the per-window CPI spread behind the error bar.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Statistics absorbed across every measured window (so `stats.ipc()`
    /// is the instruction-weighted estimate a figure would plot).
    pub stats: SimStats,
    /// CPI of each measured window, in execution order.
    pub window_cpi: Vec<f64>,
    /// Wall-clock stage profile summed over every window's machine, when
    /// the run was asked to profile.
    pub profile: Option<StageReport>,
}

impl SampledRun {
    /// Mean of the per-window CPIs.
    pub fn cpi_mean(&self) -> f64 {
        let n = self.window_cpi.len().max(1) as f64;
        self.window_cpi.iter().sum::<f64>() / n
    }

    /// Standard error of the per-window CPI mean (0 with fewer than two
    /// windows).
    pub fn cpi_stderr(&self) -> f64 {
        let n = self.window_cpi.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.cpi_mean();
        let var = self
            .window_cpi
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        (var / n as f64).sqrt()
    }

    /// `mean ± k·stderr` rendered for reports.
    pub fn error_bar(&self) -> String {
        format!(
            "CPI {:.4} ± {:.4} ({} windows)",
            self.cpi_mean(),
            self.cpi_stderr(),
            self.window_cpi.len()
        )
    }
}

/// Execute `job` under `plan`: warm up (shared checkpoint), then per
/// window fast-forward functionally and probe with a fresh detailed
/// machine restored from the functional cursor. With `profile`, every
/// window's machine times its stages and the run returns their sum.
///
/// Fewer than `plan.windows` windows are measured when the workload
/// halts; a workload that halts before *any* window is an error (the
/// caller asked for an estimate no window can support).
///
/// # Errors
///
/// Everything the detailed path can report, plus
/// [`SimError::FastForward`] from functional execution or restore.
pub fn run_sampled(
    job: &Job,
    plan: SamplingPlan,
    store: Option<&CheckpointStore>,
    memo: &WarmMemo,
    profile: bool,
) -> Result<SampledRun, SimError> {
    let cfg = job.workload.config_for(&job.config);
    let programs = job.workload.programs();
    let mut cursor = if job.budget.warmup > 0 {
        let ckpt = warm_checkpoint(job, store, memo)?;
        FunctionalCursor::from_checkpoint(&cfg, programs.clone(), &ckpt)?
    } else {
        FunctionalCursor::new(&cfg, programs.clone())
    };

    let mut agg: Option<SimStats> = None;
    let mut window_cpi = Vec::new();
    let mut report = profile.then(StageReport::default);
    for window in 1..=plan.windows {
        cursor.advance(plan.skip)?;
        if cursor.all_halted() {
            break;
        }
        let mut m = Machine::new(cfg.clone(), programs.clone())?;
        if profile {
            m.enable_profile();
        }
        restore_into(&mut m, &cursor.checkpoint())?;
        let stats = warm_then_measure(
            &mut m,
            plan.detail_warmup,
            plan.detail,
            job.budget.max_cycles,
        )?;
        if let (Some(total), Some(window)) = (&mut report, m.profile()) {
            total.add(window);
        }
        if stats.total_retired() > 0 && stats.cycles > 0 {
            window_cpi.push(stats.cycles as f64 / stats.total_retired() as f64);
            match &mut agg {
                None => agg = Some(stats),
                Some(a) => a.absorb(&stats),
            }
        }
        if window == plan.windows {
            break;
        }
        // The cursor independently replays what the detailed probe just
        // simulated, so the next window starts from a consistent
        // functional state. The probe is discarded first: until then it
        // shares the cursor's memory pages, and the cursor would copy
        // every page it writes.
        drop(m);
        cursor.advance(plan.detail_warmup + plan.detail)?;
    }

    let stats = agg.ok_or_else(|| {
        SimError::FastForward(
            "sampling measured no windows (workload halted before the first one)".into(),
        )
    })?;
    Ok(SampledRun {
        stats,
        window_cpi,
        profile: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> RunBudget {
        RunBudget {
            warmup: 10_000,
            measure: 300_000,
            max_cycles: 20_000_000,
        }
    }

    #[test]
    fn auto_plan_spans_the_budget() {
        let p = SamplingPlan::for_budget(budget());
        assert_eq!(p.windows, 10);
        assert_eq!(p.detail, 2_000);
        assert_eq!(p.detail_warmup, 4_000);
        let span = u64::from(p.windows) * (p.skip + p.detail + p.detail_warmup);
        assert!(span <= 300_000 && span > 290_000, "span {span}");
        assert_eq!(p.detailed_instructions(), 60_000);
    }

    #[test]
    fn parse_overrides_and_rederives_skip() {
        let p = SamplingPlan::parse("w=4,detail=2000", budget()).expect("parse");
        assert_eq!((p.windows, p.detail), (4, 2_000));
        assert_eq!(p.detail_warmup, 4_000, "warm keeps the auto value");
        assert_eq!(p.skip, (300_000 - 4 * 6_000) / 4);
        let q = SamplingPlan::parse("w=2,detail=100,warm=0", budget()).expect("parse");
        assert_eq!(
            q,
            SamplingPlan {
                windows: 2,
                skip: (300_000 - 2 * 100) / 2,
                detail_warmup: 0,
                detail: 100
            }
        );
        assert_eq!(
            SamplingPlan::parse("auto", budget()).unwrap(),
            SamplingPlan::for_budget(budget())
        );
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in ["q=3", "skip=7", "detail", "w=0", "detail=0,w=3", "w=abc"] {
            assert!(SamplingPlan::parse(bad, budget()).is_err(), "{bad}");
        }
    }

    #[test]
    fn plans_stay_inside_the_budget() {
        let at = |measure| RunBudget {
            measure,
            ..budget()
        };
        // Below 6,000 the auto plan keeps its windows and takes fewer.
        let windows = [600, 5_000, 6_000].map(|m| SamplingPlan::for_budget(at(m)).windows);
        assert_eq!(windows, [1, 8, 10]);
        for measure in [600, 1_000, 5_000, 5_999, 6_000, 300_000] {
            let p = SamplingPlan::parse("auto", at(measure)).expect("auto fits");
            let span = u64::from(p.windows) * (p.skip + p.detail + p.detail_warmup);
            assert!(
                p.detailed_instructions() <= span && span <= measure,
                "{p:?}"
            );
        }
        // Both numbers are named when a plan does not fit.
        let err = SamplingPlan::parse("w=1,warm=0,detail=300000", at(5_000)).unwrap_err();
        assert!(err.contains("300000") && err.contains("5000"), "{err}");
        let err = SamplingPlan::parse("auto", at(599)).unwrap_err();
        assert!(err.contains("600") && err.contains("599"), "{err}");
        let one = SamplingPlan::parse("w=1,warm=0,detail=5000", at(5_000)).expect("fits");
        assert_eq!(one.skip, 0, "the one-window plan covers the budget");
    }

    #[test]
    fn a_shared_warm_image_leaves_sampled_stats_unchanged() {
        use crate::experiments::Workload;
        use looseloops_branch::PredictorKind;
        use looseloops_pipeline::PipelineConfig;
        use looseloops_workload::Benchmark;
        let job = |predictor| {
            let mut cfg = PipelineConfig::base();
            cfg.predictor = predictor;
            let budget = RunBudget {
                warmup: 20_000,
                measure: 30_000,
                max_cycles: 10_000_000,
            };
            Job::new(cfg, Workload::Single(Benchmark::Hydro2d), budget)
        };
        let measured = job(PredictorKind::Gshare);
        let plan = SamplingPlan::for_budget(measured.budget);
        let fresh = run_sampled(&measured, plan, None, &WarmMemo::default(), false).expect("fresh");

        let memo = WarmMemo::default();
        let first = warm_checkpoint(&job(PredictorKind::Bimodal), None, &memo).expect("first");
        let shared = run_sampled(&measured, plan, None, &memo, false).expect("shared");
        let ckpt = warm_checkpoint(&measured, None, &memo).expect("memo hit");
        assert_eq!(
            ckpt.mem.pages_shared_with(&first.mem),
            first.mem.pages_touched()
        );

        assert_eq!(format!("{:?}", fresh.stats), format!("{:?}", shared.stats));
        assert_eq!(fresh.window_cpi, shared.window_cpi);
    }

    #[test]
    fn stderr_is_zero_for_singletons_and_positive_for_spread() {
        let mk = |cpi: Vec<f64>| SampledRun {
            stats: SimStats::new(1),
            window_cpi: cpi,
            profile: None,
        };
        assert_eq!(mk(vec![1.5]).cpi_stderr(), 0.0);
        let run = mk(vec![1.0, 2.0, 3.0]);
        assert!((run.cpi_mean() - 2.0).abs() < 1e-12);
        assert!((run.cpi_stderr() - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(run.error_bar().contains("3 windows"));
    }
}
