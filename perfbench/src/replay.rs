//! Traced replay of sweep jobs through the simulator's public API.
//!
//! Each function repeats, call for call, what the sweep engine does for one
//! job (`try_run_programs` for detailed jobs, `run_sampled` for sampled
//! ones, the result-store probe and write-back around both), with a span
//! around every call. The caller compares the returned statistics with the
//! engine's own; a job whose replay differs is dropped from the per-layer
//! numbers.

use crate::trace::Tracer;
use looseloops::checkpoint::warm_checkpoint;
use looseloops::isa::Program;
use looseloops::{
    fnv1a64, restore_into, warm_digest, CheckpointStore, FunctionalCursor, Job, Machine,
    PipelineConfig, ResultStore, RunBudget, SamplingPlan, SimError, SimStats, WarmMemo,
};
use std::collections::HashSet;

/// Work done by one replayed job, the denominators of the per-layer rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Instructions retired by full-budget `Machine::run` calls.
    pub run_insts: u64,
    /// Cycles simulated by full-budget `Machine::run` calls.
    pub run_cycles: u64,
    /// Instructions retired in sampled windows, detailed fill included.
    pub window_insts: u64,
    /// Instructions executed by `FunctionalCursor::advance`.
    pub functional_insts: u64,
    /// `warm_checkpoint` calls.
    pub warm_calls: u64,
    /// `warm_checkpoint` calls that captured a new checkpoint.
    pub captures: u64,
    /// Encoded bytes of the captured checkpoints.
    pub ckpt_bytes: u64,
    /// Result-store entries written or read.
    pub store_entries: u64,
    /// Bytes of those entries.
    pub store_bytes: u64,
    /// Result-store loads that answered the job.
    pub store_hits: u64,
}

impl Work {
    /// Add `o` into `self`.
    pub fn add(&mut self, o: &Work) {
        self.run_insts += o.run_insts;
        self.run_cycles += o.run_cycles;
        self.window_insts += o.window_insts;
        self.functional_insts += o.functional_insts;
        self.warm_calls += o.warm_calls;
        self.captures += o.captures;
        self.ckpt_bytes += o.ckpt_bytes;
        self.store_entries += o.store_entries;
        self.store_bytes += o.store_bytes;
        self.store_hits += o.store_hits;
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// `try_run_programs`: build, warm up, reset, measure.
///
/// # Errors
///
/// Whatever the machine reports.
pub fn detailed(
    tr: &mut Tracer,
    cfg: &PipelineConfig,
    programs: impl FnOnce() -> Vec<Program>,
    budget: RunBudget,
    work: &mut Work,
) -> Result<SimStats, SimError> {
    let programs = tr.leaf("workload.programs", programs);
    let mut m = tr.leaf("pipeline.new", || Machine::new(cfg.clone(), programs))?;
    if budget.warmup > 0 {
        let (insts, cycles) = tr.leaf("pipeline.run", || {
            m.run(budget.warmup, budget.max_cycles)
                .map(|s| (s.total_retired(), s.cycles))
        })?;
        work.run_insts += insts;
        work.run_cycles += cycles;
        tr.leaf("pipeline.reset_stats", || m.reset_stats());
    }
    let stats = tr.leaf("pipeline.run", || {
        m.run(budget.measure, budget.max_cycles).cloned()
    })?;
    work.run_insts += stats.total_retired();
    work.run_cycles += stats.cycles;
    Ok(stats)
}

/// `run_sampled`: warm checkpoint, then per window functional skip,
/// snapshot, fresh machine, restore, detailed fill and measurement.
/// `seen` holds the warm digests already captured in this replay.
///
/// # Errors
///
/// Whatever the functional or detailed path reports.
pub fn sampled(
    tr: &mut Tracer,
    job: &Job,
    plan: SamplingPlan,
    store: Option<&CheckpointStore>,
    memo: &WarmMemo,
    seen: &mut HashSet<u64>,
    work: &mut Work,
) -> Result<SimStats, SimError> {
    let cfg = job.workload.config_for(&job.config);
    let programs = tr.leaf("workload.programs", || job.workload.programs());
    let mut cursor = if job.budget.warmup > 0 {
        let digest = warm_digest(&cfg, &job.workload, job.budget.warmup);
        let first = seen.insert(digest);
        let name = if first {
            "checkpoint.capture"
        } else {
            "checkpoint.memo_hit"
        };
        let ckpt = tr.leaf(name, || warm_checkpoint(job, store, memo))?;
        work.warm_calls += 1;
        if first {
            work.captures += 1;
            work.ckpt_bytes += store.map_or(0, |s| file_len(&s.path(digest)));
        }
        tr.leaf("checkpoint.cursor", || {
            FunctionalCursor::from_checkpoint(&cfg, programs.clone(), &ckpt)
        })?
    } else {
        FunctionalCursor::new(&cfg, programs.clone())
    };

    let mut agg: Option<SimStats> = None;
    for _ in 0..plan.windows {
        work.functional_insts += tr.leaf("isa.functional", || cursor.advance(plan.skip))?;
        if cursor.all_halted() {
            break;
        }
        let ckpt = tr.leaf("checkpoint.snapshot", || cursor.checkpoint());
        let mut m = tr.leaf("pipeline.new", || {
            Machine::new(cfg.clone(), programs.clone())
        })?;
        tr.leaf("checkpoint.restore", || restore_into(&mut m, &ckpt))?;
        let mut fill = 0;
        let stats = tr.leaf("pipeline.window", || {
            if plan.detail_warmup > 0 {
                fill = m
                    .run(plan.detail_warmup, job.budget.max_cycles)?
                    .total_retired();
                m.reset_stats();
            }
            m.run(plan.detail, job.budget.max_cycles).cloned()
        })?;
        work.window_insts += fill + stats.total_retired();
        if stats.total_retired() > 0 && stats.cycles > 0 {
            match &mut agg {
                None => agg = Some(stats),
                Some(a) => a.absorb(&stats),
            }
        }
        work.functional_insts += tr.leaf("isa.functional", || {
            cursor.advance(plan.detail_warmup + plan.detail)
        })?;
    }
    agg.ok_or_else(|| SimError::FastForward("sampling measured no windows".into()))
}

/// The engine's result-store tiers around `simulate`: probe the store,
/// simulate on a miss, write the result back.
///
/// # Errors
///
/// Whatever `simulate` reports.
pub fn through_store(
    tr: &mut Tracer,
    store: &ResultStore,
    key: &str,
    work: &mut Work,
    simulate: impl FnOnce(&mut Tracer, &mut Work) -> Result<SimStats, SimError>,
) -> Result<SimStats, SimError> {
    let digest = fnv1a64(key.as_bytes());
    if let Ok(Some(stats)) = tr.leaf("store.load", || store.load(digest, key)) {
        work.store_hits += 1;
        work.store_entries += 1;
        work.store_bytes += file_len(&store.path(digest));
        return Ok(stats);
    }
    let stats = simulate(tr, work)?;
    if tr
        .leaf("store.save", || store.save(digest, key, &stats))
        .is_ok()
    {
        work.store_entries += 1;
        work.store_bytes += file_len(&store.path(digest));
    }
    Ok(stats)
}
