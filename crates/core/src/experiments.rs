//! The paper's evaluation, experiment by experiment.
//!
//! Each figure of the evaluation section is one row of a table: its ids,
//! title, paper expectation, rendering rule, machine grid and workload
//! rule. [`FigureSpec::for_id`] turns a row into a [`FigureSpec`] (the
//! ids are [`FigureSpec::ids`]) for a workload set and a [`RunBudget`],
//! to run on a caller-owned [`SweepEngine`] with [`FigureSpec::run_on`]. The
//! `looseloops figure` command runs them at a large budget and prints the
//! tables recorded in EXPERIMENTS.md; tests run them with tiny budgets to
//! keep CI fast.

use crate::report::{CpiStackReport, CpiStackRow, FigureResult, Series};
use crate::simulator::{try_run_programs, RunBudget};
use crate::sweep::{Job, SweepEngine};
use looseloops_branch::PredictorKind;
use looseloops_isa::Program;
use looseloops_mem::PrefetchConfig;
use looseloops_pipeline::{LoadSpecPolicy, PipelineConfig, RegisterScheme, SimError, SimStats};
use looseloops_regs::CrcPolicy;
use looseloops_workload::{Benchmark, SmtPair};
use std::sync::Arc;

/// A workload of the paper's evaluation: a single benchmark or an SMT pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One hardware thread.
    Single(Benchmark),
    /// The paper's two-thread SMT pairings.
    Pair(SmtPair),
    /// A named microbenchmark (currently only "chase").
    Micro(&'static str),
}

impl Workload {
    /// The thirteen workloads of Figures 4, 5 and 8: ten benchmarks plus
    /// three SMT pairs.
    pub fn paper_set() -> Vec<Workload> {
        let mut v: Vec<Workload> = Benchmark::all().into_iter().map(Workload::Single).collect();
        v.extend(Benchmark::pairs().into_iter().map(Workload::Pair));
        v
    }

    /// A fast subset for smoke tests (one int, one fp, one pair).
    pub fn smoke_set() -> Vec<Workload> {
        vec![
            Workload::Single(Benchmark::Compress),
            Workload::Single(Benchmark::Swim),
            Workload::Pair(Benchmark::pairs()[0]),
        ]
    }

    /// Display name (paper style).
    pub fn name(&self) -> String {
        match self {
            Workload::Single(b) => b.name().to_string(),
            Workload::Pair(p) => p.name(),
            Workload::Micro(m) => (*m).to_string(),
        }
    }

    /// The hardware-thread count this workload occupies.
    pub fn threads(&self) -> usize {
        match self {
            Workload::Single(_) | Workload::Micro(_) => 1,
            Workload::Pair(_) => 2,
        }
    }

    /// `cfg` with its thread count adjusted to this workload — the exact
    /// machine [`Workload::try_run`] simulates. Factored out so the
    /// checkpoint/sampling drivers build the same machine the detailed
    /// path does.
    pub fn config_for(&self, cfg: &PipelineConfig) -> PipelineConfig {
        cfg.clone().smt(self.threads())
    }

    /// The concrete program list this workload runs, one per hardware
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`Workload::Micro`] name (a programming error,
    /// not a simulation outcome).
    pub fn programs(&self) -> Vec<Program> {
        match self {
            Workload::Single(b) => vec![b.program()],
            Workload::Pair(p) => p.programs(),
            Workload::Micro(m) => match *m {
                "chase" => vec![looseloops_workload::kernels::int::chase(16 << 20)],
                other => panic!("unknown microbenchmark {other}"),
            },
        }
    }

    /// Run this workload under `cfg`; the workload sets the thread count.
    ///
    /// # Errors
    ///
    /// Everything [`try_run_programs`] can report: an invalid
    /// configuration, a deadlock, or (with `cfg.audit`) an invariant
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`Workload::Micro`] name (a programming error,
    /// not a simulation outcome).
    pub fn try_run(&self, cfg: &PipelineConfig, budget: RunBudget) -> Result<SimStats, SimError> {
        try_run_programs(&self.config_for(cfg), self.programs(), budget)
    }
}

/// How a figure's completed grid results are folded into a
/// [`FigureResult`]. Pure data → pure function: no engine involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// IPC of every config relative to the first config, per workload.
    Speedup,
    /// Figure 6: operand-availability-gap CDF of the single grid point,
    /// columns are gap values 0..=60.
    GapCdf,
    /// Figure 9: operand-source fractions of one config across workloads.
    OperandSources,
    /// Figure 8: pairwise speedups — configs come in (base, DRA) pairs,
    /// rows 2k base and 2k+1 the matched DRA.
    DraPairSpeedup,
}

/// One figure of the evaluation as **pure data**: a labeled machine grid,
/// a workload set, a budget, and a rendering rule. The spec is completely
/// decoupled from execution — [`FigureSpec::jobs`] enumerates the sweep
/// points and [`FigureSpec::render`] / [`FigureSpec::render_stacks`] fold
/// their results, so one run of the grid yields both the figure and its
/// CPI stacks.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Canonical figure id (`fig4`, `ablation-load-policy`, ...).
    pub id: String,
    /// Human title, exactly as the figure prints it.
    pub title: String,
    /// What the paper says this figure should show.
    pub paper_expectation: String,
    /// The labeled machine grid.
    pub configs: Vec<(String, PipelineConfig)>,
    /// The workload set (already including any figure-specific pins or
    /// extras, e.g. Figure 6's turb3d or the load-policy chase micro).
    pub workloads: Vec<Workload>,
    /// Warm-up/measurement budget every grid point runs at.
    pub budget: RunBudget,
    /// How results become a figure.
    pub kind: FigureKind,
}

/// Which workloads a figure runs, given the caller's set.
enum WorkloadRule {
    /// The caller's set.
    Caller,
    /// This one workload, whatever the caller asked for.
    Pinned(Workload),
    /// The caller's set plus this one.
    Plus(Workload),
}

/// One row of [`FIGURES`]: a figure of the evaluation, less the caller's
/// workloads and budget.
struct Figure {
    /// Canonical id, as [`FigureSpec::id`] reports it.
    id: &'static str,
    /// The id `looseloops figure` lists (the ablations drop `ablation-`).
    cli_id: &'static str,
    title: &'static str,
    expectation: &'static str,
    kind: FigureKind,
    /// The labeled machine grid, baseline first.
    grid: fn() -> Vec<(String, PipelineConfig)>,
    workloads: WorkloadRule,
}

/// The base machine at each `(DEC-IQ, IQ-EX)` split, labeled `X_Y`.
fn depth_grid(splits: [(u32, u32); 4]) -> Vec<(String, PipelineConfig)> {
    splits
        .into_iter()
        .map(|(x, y)| {
            (
                format!("{x}_{y}"),
                PipelineConfig::base_with_latencies(x, y),
            )
        })
        .collect()
}

/// `base` once per labeled point, with the point's value put in by `set`.
fn vary<L: ToString, T>(
    base: PipelineConfig,
    set: fn(&mut PipelineConfig, T),
    points: impl IntoIterator<Item = (L, T)>,
) -> Vec<(String, PipelineConfig)> {
    points
        .into_iter()
        .map(|(label, value)| {
            let mut cfg = base.clone();
            set(&mut cfg, value);
            (label.to_string(), cfg)
        })
        .collect()
}

/// Every figure, in the order `looseloops figure all` prints them.
static FIGURES: [Figure; 11] = [
    // Figure 4: DEC→EX swept from 6 to 18 cycles.
    Figure {
        id: "fig4",
        cli_id: "fig4",
        title: "Performance for varying pipeline lengths (relative to 6 cycles DEC->EX)",
        expectation: "monotonic losses up to ~24% at 18 cycles; int codes lose to the branch loop, \
         swim/turb3d to the load loop; hydro2d/mgrid (memory-bound) and apsi (low ILP) \
         are least sensitive; SMT pairs lose less than their worst member",
        kind: FigureKind::Speedup,
        grid: || depth_grid([(3, 3), (5, 5), (7, 7), (9, 9)]),
        workloads: WorkloadRule::Caller,
    },
    // Figure 5: a fixed 12-cycle DEC→EX, split differently.
    Figure {
        id: "fig5",
        cli_id: "fig5",
        title: "Performance for a fixed 12-cycle DEC->EX, shifting stages out of IQ-EX (relative to 3_9)",
        expectation: "up to ~15% gain for 9_3 on the load-loop-sensitive codes (swim, turb3d, apsi-swim); \
         branch-bound and memory-bound codes are flat",
        kind: FigureKind::Speedup,
        grid: || depth_grid([(3, 9), (5, 7), (7, 5), (9, 3)]),
        workloads: WorkloadRule::Caller,
    },
    // Figure 6: the operand-gap CDF of turb3d on the base machine.
    Figure {
        id: "fig6",
        cli_id: "fig6",
        title: "CDF of cycles between first- and second-operand availability (turb3d)",
        expectation: "~25% of instructions have gaps of 25+ cycles; the 9-cycle \
         forwarding buffer covers only ~50% of instructions",
        kind: FigureKind::GapCdf,
        grid: || vec![("base".to_string(), PipelineConfig::base())],
        workloads: WorkloadRule::Pinned(Workload::Single(Benchmark::Turb3d)),
    },
    // Figure 8: DRA:5_3 vs Base:5_5, DRA:7_3 vs Base:5_7, DRA:9_3 vs
    // Base:5_9 for 3-, 5- and 7-cycle register files.
    Figure {
        id: "fig8",
        cli_id: "fig8",
        title: "DRA speedup over the base machine, per register-file latency",
        expectation: "gains up to 4% / 9% / 15% for 3/5/7-cycle register files, \
         growing with RF latency; apsi (and apsi-swim) LOSE 10-14% \
         from operand-resolution-loop misses",
        kind: FigureKind::DraPairSpeedup,
        grid: || {
            [3, 5, 7]
                .into_iter()
                .flat_map(|rf| {
                    [PipelineConfig::base_for_rf(rf), PipelineConfig::dra_for_rf(rf)].map(|cfg| {
                        let scheme = if cfg.scheme.is_dra() { "dra" } else { "base" };
                        let (x, y) = (cfg.dec_iq_stages, cfg.iq_ex_stages);
                        (format!("{scheme}:{x}_{y} (rf{rf})"), cfg)
                    })
                })
                .collect()
        },
        workloads: WorkloadRule::Caller,
    },
    // Figure 9: where the DRA's operands come from.
    Figure {
        id: "fig9",
        cli_id: "fig9",
        title: "Operand sources under the DRA (7_3, 5-cycle register file)",
        expectation: "more than half of operands come from the forwarding buffer; \
         the rest split between pre-read and the CRCs; miss rates are \
         well under 1% except apsi at ~1.5%",
        kind: FigureKind::OperandSources,
        grid: || vec![("dra:7_3 (rf5)".to_string(), PipelineConfig::dra_for_rf(5))],
        workloads: WorkloadRule::Caller,
    },
    // §2.2.2: the four load-resolution-loop policies. The pointer-chase
    // micro is the workload where the policy is the entire story.
    Figure {
        id: "ablation-load-policy",
        cli_id: "load-policy",
        title: "Load mis-speculation recovery policies (relative to tree reissue)",
        expectation: "reissue beats stall; refetch is significantly worse than reissue (paper §2.2.2); \
         21264-style shadow reissue trails tree reissue",
        kind: FigureKind::Speedup,
        grid: || {
            vary(
                PipelineConfig::base(),
                |cfg, p| cfg.load_policy = p,
                [
                    ("reissue-tree", LoadSpecPolicy::ReissueTree),
                    ("reissue-shadow", LoadSpecPolicy::ReissueShadow),
                    ("stall", LoadSpecPolicy::Stall),
                    ("refetch", LoadSpecPolicy::Refetch),
                ],
            )
        },
        workloads: WorkloadRule::Plus(Workload::Micro("chase")),
    },
    // §5.1: CRC size and replacement policy, and idealized insertion-table
    // cleanup on squash, all on the 5-cycle-RF DRA (7_3).
    Figure {
        id: "ablation-dra-design",
        cli_id: "dra-design",
        title: "DRA design choices (7_3, 5-cycle RF; relative to the paper's 16-entry FIFO CRC)",
        expectation: "paper §5.1: mechanisms smarter than FIFO gain almost nothing; capacity matters          more than policy",
        kind: FigureKind::Speedup,
        grid: || {
            vary(
                PipelineConfig::dra_for_rf(5),
                |cfg, (crc_entries, crc_policy, cleanup)| {
                    cfg.scheme = RegisterScheme::Dra {
                        crc_entries,
                        crc_policy,
                    };
                    cfg.dra_ideal_squash_cleanup = cleanup;
                },
                [
                    ("fifo-16 (paper)", (16, CrcPolicy::Fifo, false)),
                    ("lru-16", (16, CrcPolicy::Lru, false)),
                    ("fifo-8", (8, CrcPolicy::Fifo, false)),
                    ("fifo-32", (32, CrcPolicy::Fifo, false)),
                    ("ideal-cleanup", (16, CrcPolicy::Fifo, true)),
                ],
            )
        },
        workloads: WorkloadRule::Caller,
    },
    // §2.2.1: the forwarding buffer keeps 9 cycles of results (5 for
    // long-latency ops + 4 of write-back delay).
    Figure {
        id: "ablation-fwd-window",
        cli_id: "fwd-window",
        title: "Forwarding-buffer retention window under the DRA (7_3; relative to the paper's 9)",
        expectation: "the 9-cycle window was sized to hand values to the register file exactly as          they expire; shrinking it shifts traffic to the CRCs (more operand misses),          growing it buys little because the gap distribution has a long tail (Figure 6)",
        kind: FigureKind::Speedup,
        grid: || {
            vary(
                PipelineConfig::dra_for_rf(5),
                |cfg, w| cfg.fwd_window = w,
                [9, 5, 13, 17].map(|w| (format!("window-{w}"), w)),
            )
        },
        workloads: WorkloadRule::Caller,
    },
    // §2.2.2's IQ-pressure argument: reissue retention shrinks the
    // effective window.
    Figure {
        id: "ablation-iq-size",
        cli_id: "iq-size",
        title: "Instruction-queue capacity on the base machine (relative to the paper's 128)",
        expectation: "issued instructions are retained for the 8-cycle loop delay plus a clear          cycle; small IQs lose exposed ILP exactly as §2.2.2 argues",
        kind: FigureKind::Speedup,
        grid: || {
            vary(
                PipelineConfig::base(),
                |cfg, n| cfg.iq_entries = n,
                [128, 64, 32, 256].map(|n| (format!("iq-{n}"), n)),
            )
        },
        workloads: WorkloadRule::Caller,
    },
    // Beyond the paper: a stride prefetcher attacks the load loop's
    // mis-speculation rate where the DRA attacks its delay.
    Figure {
        id: "ablation-prefetch",
        cli_id: "prefetch",
        title: "Stride prefetching vs / with the DRA (5-cycle RF; relative to the base machine)",
        expectation: "extension beyond the paper: prefetching cuts the load loop's mis-speculation          rate, the DRA cuts its delay — the streaming codes should take both",
        kind: FigureKind::Speedup,
        grid: || {
            [
                ("base", PipelineConfig::base_for_rf(5)),
                ("dra", PipelineConfig::dra_for_rf(5)),
            ]
            .into_iter()
            .flat_map(|(name, cfg)| {
                vary(
                    cfg,
                    |cfg, prefetch| cfg.mem.prefetch = prefetch,
                    [
                        (name.to_string(), None),
                        (format!("{name}+prefetch"), Some(PrefetchConfig::default())),
                    ],
                )
            })
            .collect()
        },
        workloads: WorkloadRule::Caller,
    },
    // The branch-resolution loop's mis-speculation rate under weaker
    // direction predictors.
    Figure {
        id: "ablation-predictor",
        cli_id: "predictor",
        title: "Direction predictors on the base machine (relative to the tournament)",
        expectation: "weaker predictors fire the branch-resolution loop more often; the          branch-limited integer codes pay the most",
        kind: FigureKind::Speedup,
        grid: || {
            vary(
                PipelineConfig::base(),
                |cfg, k| cfg.predictor = k,
                [
                    ("tournament", PredictorKind::Tournament),
                    ("gshare", PredictorKind::Gshare),
                    ("local", PredictorKind::Local),
                    ("bimodal", PredictorKind::Bimodal),
                    ("always-taken", PredictorKind::Taken),
                ],
            )
        },
        workloads: WorkloadRule::Caller,
    },
];

impl FigureSpec {
    /// Every figure id, in the order `looseloops figure all` prints them.
    /// The ablations also answer to their canonical `ablation-*` ids.
    pub fn ids() -> impl Iterator<Item = &'static str> {
        FIGURES.iter().map(|f| f.cli_id)
    }

    /// The spec behind a figure id, canonical (`ablation-load-policy`) or
    /// CLI-short (`load-policy`). `workloads` seeds the workload set;
    /// figures that pin their own workloads (Figure 6) ignore it, and the
    /// load-policy ablation appends its chase microbenchmark. `None` for
    /// an unknown id.
    pub fn for_id(id: &str, workloads: &[Workload], budget: RunBudget) -> Option<FigureSpec> {
        let f = FIGURES.iter().find(|f| f.id == id || f.cli_id == id)?;
        let workloads = match f.workloads {
            WorkloadRule::Caller => workloads.to_vec(),
            WorkloadRule::Pinned(w) => vec![w],
            WorkloadRule::Plus(w) => workloads.iter().copied().chain([w]).collect(),
        };
        Some(FigureSpec {
            id: f.id.into(),
            title: f.title.into(),
            paper_expectation: f.expectation.into(),
            configs: (f.grid)(),
            workloads,
            budget,
            kind: f.kind,
        })
    }

    /// The full `configs × workloads` grid as sweep jobs, row-major in
    /// config order — the exact order [`FigureSpec::render`] expects its
    /// results in.
    pub fn jobs(&self) -> Vec<Job> {
        self.configs
            .iter()
            .flat_map(|(_, cfg)| {
                self.workloads
                    .iter()
                    .map(move |w| Job::new(cfg.clone(), *w, self.budget))
            })
            .collect()
    }

    /// Fold completed results (one per [`FigureSpec::jobs`] entry, same
    /// order) into the figure. Pure: no simulation, no engine.
    ///
    /// # Panics
    ///
    /// Panics when `results` does not cover the grid.
    pub fn render(&self, results: &[Arc<SimStats>]) -> FigureResult {
        let nw = self.workloads.len();
        assert_eq!(
            results.len(),
            self.configs.len() * nw,
            "figure {} expects one result per grid point",
            self.id
        );
        let series = match self.kind {
            FigureKind::Speedup => {
                // ipc[config][workload]
                let ipc: Vec<Vec<f64>> = results
                    .chunks(nw.max(1))
                    .map(|row| row.iter().map(|s| s.ipc()).collect())
                    .collect();
                self.configs
                    .iter()
                    .enumerate()
                    .map(|(i, (label, _))| Series {
                        label: label.clone(),
                        values: (0..nw).map(|w| ipc[i][w] / ipc[0][w]).collect(),
                    })
                    .collect()
            }
            FigureKind::GapCdf => {
                let cdf = results[0].gap_cdf();
                return FigureResult {
                    id: self.id.clone(),
                    title: self.title.clone(),
                    columns: (0..=60).map(|p: usize| p.to_string()).collect(),
                    series: vec![Series {
                        label: self.workloads[0].name(),
                        values: (0..=60).map(|p: usize| cdf[p]).collect(),
                    }],
                    paper_expectation: self.paper_expectation.clone(),
                };
            }
            FigureKind::OperandSources => {
                let labels = ["pre-read", "forward", "crc", "regfile", "miss"];
                let mut fractions: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
                for stats in &results[..nw] {
                    for (i, v) in stats.operand_source_fractions().into_iter().enumerate() {
                        fractions[i].push(v);
                    }
                }
                labels
                    .iter()
                    .zip(fractions)
                    .map(|(l, values)| Series {
                        label: (*l).into(),
                        values,
                    })
                    .collect()
            }
            FigureKind::DraPairSpeedup => (0..self.configs.len() / 2)
                .map(|k| {
                    let base = &self.configs[2 * k].1;
                    let dra = &self.configs[2 * k + 1].1;
                    Series {
                        label: format!(
                            "DRA:{}_{} vs Base:{}_{}",
                            dra.dec_iq_stages,
                            dra.iq_ex_stages,
                            base.dec_iq_stages,
                            base.iq_ex_stages
                        ),
                        values: (0..nw)
                            .map(|w| {
                                results[(2 * k + 1) * nw + w].ipc() / results[2 * k * nw + w].ipc()
                            })
                            .collect(),
                    }
                })
                .collect(),
        };
        FigureResult {
            id: self.id.clone(),
            title: self.title.clone(),
            columns: self.workloads.iter().map(Workload::name).collect(),
            series,
            paper_expectation: self.paper_expectation.clone(),
        }
    }

    /// The per-loop CPI-stack companion view of the same results: one row
    /// per (config, workload) grid point.
    pub fn render_stacks(&self, results: &[Arc<SimStats>]) -> CpiStackReport {
        let nw = self.workloads.len().max(1);
        let mut rep = CpiStackReport::new(
            format!("{}-stacks", self.id),
            format!("Per-loop CPI stacks behind {}", self.id),
        );
        for ((label, _), row) in self.configs.iter().zip(results.chunks(nw)) {
            for (w, stats) in self.workloads.iter().zip(row) {
                rep.rows.push(CpiStackRow::from_stats(
                    format!("{label}/{}", w.name()),
                    stats,
                ));
            }
        }
        rep
    }

    /// Execute the grid on `sweep` and render.
    pub fn run_on(&self, sweep: &SweepEngine) -> FigureResult {
        self.render(&sweep.run_jobs(&self.jobs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunBudget {
        RunBudget {
            warmup: 500,
            measure: 4_000,
            max_cycles: 2_000_000,
        }
    }

    #[test]
    fn paper_set_has_thirteen_workloads() {
        assert_eq!(Workload::paper_set().len(), 13);
    }

    fn run(id: &str, workloads: &[Workload]) -> FigureResult {
        FigureSpec::for_id(id, workloads, tiny())
            .expect("known figure id")
            .run_on(&SweepEngine::new(2))
    }

    #[test]
    fn every_id_resolves_and_aliases_match_their_short_ids() {
        let ws = Workload::smoke_set();
        for id in FigureSpec::ids() {
            let spec = FigureSpec::for_id(id, &ws, tiny())
                .unwrap_or_else(|| panic!("`{id}` must resolve"));
            if id.starts_with("fig") {
                assert_eq!(spec.id, id);
                continue;
            }
            let canonical = format!("ablation-{id}");
            assert_eq!(spec.id, canonical, "`{id}` reports its canonical id");
            let alias = FigureSpec::for_id(&canonical, &ws, tiny()).unwrap();
            assert_eq!(alias.title, spec.title);
            let keys = |s: &FigureSpec| s.jobs().iter().map(Job::key).collect::<Vec<_>>();
            assert_eq!(keys(&alias), keys(&spec), "`{canonical}` vs `{id}`");
        }
        assert!(FigureSpec::for_id("nonesuch", &ws, tiny()).is_none());
    }

    #[test]
    fn fig4_shape() {
        let f = run("fig4", &Workload::smoke_set());
        assert_eq!(f.series.len(), 4);
        assert_eq!(f.columns.len(), 3);
        // Baseline series is exactly 1.0 everywhere.
        for v in &f.series[0].values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        // Longer pipes do not help.
        for (b, long) in f.series[0].values.iter().zip(&f.series[3].values) {
            assert!(long <= &(b * 1.02), "9_9 must not beat 3_3: {long} vs {b}");
        }
    }

    #[test]
    fn fig6_cdf_is_monotone() {
        let f = run("fig6", &[]);
        let vals = &f.series[0].values;
        for w in vals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(vals[60] <= 1.0 && vals[0] >= 0.0);
    }

    #[test]
    fn fig9_fractions_sum_to_one() {
        let ws = [Workload::Single(Benchmark::M88ksim)];
        let f = run("fig9", &ws);
        let total: f64 = f.series.iter().map(|s| s.values[0]).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        // DRA never uses the baseline register-file path.
        let rf = f.series.iter().find(|s| s.label == "regfile").unwrap();
        assert_eq!(rf.values[0], 0.0);
    }
}
