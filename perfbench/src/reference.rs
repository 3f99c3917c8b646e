//! `perfbench --reference`: regenerate the pinned outputs in `reference/`.
//!
//! * `digests.tsv`: the digest of every figure `detailed-grid` (paper
//!   share) and `sampled-all` render.
//! * `detailed_cpi.tsv`: the detailed CPI of every distinct `sampled-all`
//!   job, run in `ExecMode::Detailed` at the same budget. This is the
//!   reference `cpi_err_pct` measures the sampler against; it is the
//!   expensive part (every job simulates its full 1.3 M instructions in
//!   detail).
//!
//! Results do not depend on the worker count, so the engines use every
//! core.

use crate::pins::digest;
use crate::workloads::{specs, ALL_FIGURES, GRID_BUDGET, GRID_FIGURES, SAMPLED_BUDGET};
use looseloops::{
    fnv1a64, CheckpointStore, ExecMode, FigureResult, FigureSpec, SamplingPlan, SweepEngine,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

const REGENERATE: &str = "python3 perfbench/run.py --reference";

fn figures(engine: &SweepEngine, specs: &[FigureSpec]) -> Vec<FigureResult> {
    specs.iter().map(|s| s.run_on(engine)).collect()
}

/// Regenerate both pinned files under `dir`, using `work` for the
/// checkpoint store.
pub fn regenerate(dir: &Path, work: &Path) -> std::io::Result<()> {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "# Pinned figure digests (FNV-1a of FigureResult::to_json).\n\
         # Regenerate from the repository root with: {REGENERATE}\n"
    );
    let grid = figures(&SweepEngine::new(jobs), &specs(&GRID_FIGURES, GRID_BUDGET));
    for f in &grid {
        let _ = writeln!(out, "detailed-grid\t{}\t{:016x}", f.id, digest(f));
    }
    eprintln!("[reference] detailed-grid figures done");

    let sampled_specs = specs(&ALL_FIGURES, SAMPLED_BUDGET);
    std::fs::create_dir_all(work)?;
    let ckpt = CheckpointStore::open(work).map_err(|e| std::io::Error::other(e.to_string()))?;
    let plan = SamplingPlan::for_budget(SAMPLED_BUDGET);
    let sampled = figures(
        &SweepEngine::with_mode(jobs, ExecMode::Sampled(plan), Some(ckpt)),
        &sampled_specs,
    );
    for f in &sampled {
        let _ = writeln!(out, "sampled-all\t{}\t{:016x}", f.id, digest(f));
    }
    std::fs::write(dir.join("digests.tsv"), out)?;
    eprintln!("[reference] sampled-all figures done; running the detailed CPI reference");

    let mut seen = HashSet::new();
    let jobs_list: Vec<_> = sampled_specs
        .iter()
        .flat_map(FigureSpec::jobs)
        .filter(|j| seen.insert(j.key()))
        .collect();
    let results = SweepEngine::new(jobs).run_jobs(&jobs_list);
    let mut out = format!(
        "# Detailed-mode CPI of every distinct sampled-all job (warm-up {}, measured {}).\n\
         # Columns: FNV-1a of Job::key, job label, cycles / retired.\n\
         # Regenerate from the repository root with: {REGENERATE}\n",
        SAMPLED_BUDGET.warmup, SAMPLED_BUDGET.measure
    );
    for (job, stats) in jobs_list.iter().zip(&results) {
        let cpi = stats.cycles as f64 / stats.total_retired().max(1) as f64;
        let _ = writeln!(
            out,
            "{:016x}\t{}\t{cpi}",
            fnv1a64(job.key().as_bytes()),
            job.label()
        );
    }
    std::fs::write(dir.join("detailed_cpi.tsv"), out)
}
