//! Parallel sweep engine with memoized runs.
//!
//! Every figure of the evaluation is a grid of *independent* deterministic
//! simulations — `configs × workloads` at one [`RunBudget`]. The
//! [`SweepEngine`] executes such grids on a worker pool sized from
//! [`std::thread::available_parallelism`] (overridable with `--jobs`)
//! and memoizes every completed run in a cache keyed by
//! a stable hash of `(config, workload, budget)`, so configurations shared
//! between figures (the base machine appears in Figure 4, Figure 8 and
//! three ablations) are simulated exactly once per process.
//!
//! The simulator is fully deterministic, so the engine only *reorders*
//! independent runs; results are bit-identical to the serial path
//! regardless of the worker count (`tests/sweep_determinism.rs` enforces
//! this).
//!
//! The workspace is dependency-free and offline, so there is no rayon
//! here: the pool is a hand-rolled job queue behind a `Mutex<VecDeque>`,
//! drained by scoped threads.
//!
//! The engine reports by value: what its jobs did, which cache tier
//! answered them, why a stored entry could not be used and, when asked,
//! where host time went, all come back in one [`SweepSummary`]. It
//! prints nothing.

use crate::checkpoint::{CheckpointStore, WarmCounts, WarmMemo};
use crate::experiments::Workload;
use crate::sampling::SamplingPlan;
use crate::simulator::RunBudget;
use crate::store::{ResultStore, StoreMisses};
use looseloops_pipeline::profile::StageReport;
use looseloops_pipeline::{LoopCostStack, PipelineConfig, SimError, SimStats};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock `m`, recovering from poisoning.
///
/// The engine's mutexes guard plain accumulators (memo map, metrics)
/// whose updates are plain `insert`s and additions, so a panic elsewhere
/// in a worker can never leave them mid-mutation — taking the inner value
/// after a poisoning is always safe, and one panicked job cannot sink
/// every later batch of a shared engine.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Human-readable message out of a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one executed sweep job yields: the run's statistics or the
/// [`SimError`] that stopped it.
type JobResult = Result<Arc<SimStats>, SimError>;

/// One point of a sweep: a machine configuration, a workload, a budget.
#[derive(Debug, Clone)]
pub struct Job {
    /// The machine to simulate (thread count is adjusted to the workload).
    pub config: PipelineConfig,
    /// What to run on it.
    pub workload: Workload,
    /// Warm-up/measurement instruction budget.
    pub budget: RunBudget,
}

/// How the engine executes a job's instruction budget.
///
/// A sampled mode participates in the memo key (see
/// [`Job::key_with_mode`]), so an engine's cache never conflates a
/// sampled estimate with a full detailed run — and the detailed path's
/// keys (and therefore its results) are byte-identical to what they were
/// before execution modes existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Cycle-accurate simulation of warm-up and measured window (the
    /// reference behavior).
    #[default]
    Detailed,
    /// SMARTS-style interval sampling: functional warm-up (restoring a
    /// shared checkpoint when one exists), then functional fast-forward
    /// between detailed windows spread across the measured budget. The
    /// one-window plan `w=1,warm=0,detail=<measure>` is plain
    /// fast-forwarding: functional warm-up, then the full measured window
    /// in detail.
    Sampled(SamplingPlan),
}

/// FNV-1a, the classic 64-bit offset-basis/prime pair. Stable across
/// processes and platforms, unlike `DefaultHasher`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Job {
    /// Bundle a sweep point.
    pub fn new(config: PipelineConfig, workload: Workload, budget: RunBudget) -> Job {
        Job {
            config,
            workload,
            budget,
        }
    }

    /// The full memoization key. Every field of the configuration, the
    /// workload and the budget participates via the `Debug` rendering
    /// (plain data throughout, so the rendering is total and stable);
    /// using the whole string as the map key makes collisions impossible.
    pub fn key(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.config, self.workload, self.budget)
    }

    /// [`Job::key`] plus the execution mode. [`ExecMode::Detailed`]
    /// contributes nothing, so a detailed job's key is [`Job::key`] itself
    /// (the key perfbench pins detailed CPIs by).
    pub fn key_with_mode(&self, mode: ExecMode) -> String {
        match mode {
            ExecMode::Detailed => self.key(),
            other => format!("{}|{other:?}", self.key()),
        }
    }

    /// Stable 64-bit digest of [`Job::key`], for compact display.
    pub fn key_hash(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// Short human label: workload name plus the full 64-bit key digest
    /// (32 bits would collide at sweep sizes the birthday bound reaches).
    pub fn label(&self) -> String {
        format!("{}#{:016x}", self.workload.name(), self.key_hash())
    }
}

/// Aggregate counters of everything an engine has executed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSummary {
    /// Worker threads the engine runs with.
    pub workers: usize,
    /// Jobs requested through [`SweepEngine::run_jobs`] (memoized or not).
    pub jobs_requested: u64,
    /// Jobs actually simulated.
    pub jobs_run: u64,
    /// Jobs answered from the memo cache (including duplicates within one
    /// batch, which are simulated once and shared).
    pub cache_hits: u64,
    /// Jobs answered from the on-disk result store instead of simulating.
    pub store_hits: u64,
    /// Executed jobs that ended in a [`SimError`] (reported per job by
    /// [`SweepEngine::try_run_jobs`]; never cached, so a retry re-runs).
    pub jobs_failed: u64,
    /// Wall-clock time spent inside `run_jobs` (the parallel region).
    pub wall: Duration,
    /// Summed per-job simulation time across all workers.
    pub busy: Duration,
    /// Total instructions simulated (warm-up + measured, executed jobs
    /// only).
    pub instructions: u64,
    /// Per-loop CPI stack merged over every successfully executed job —
    /// the engine-wide view of where retire slots went.
    pub stack: LoopCostStack,
    /// Result-store entries that were present but unusable, by cause;
    /// each job re-simulated and overwrote its entry.
    pub store_misses: StoreMisses,
    /// Finished runs the result store could not save.
    pub store_save_failures: u64,
    /// Where the warm-up checkpoints of sampled jobs came from.
    pub checkpoints: WarmCounts,
    /// Checkpoints of older format versions the checkpoint store deleted
    /// when it was opened.
    pub stale_checkpoints: u64,
    /// Wall-clock stage profile summed over every executed job; `None`
    /// unless the engine profiles ([`SweepEngine::enable_profile`]).
    pub profile: Option<StageReport>,
}

impl SweepSummary {
    /// Aggregate simulated MIPS: instructions over the parallel region's
    /// wall-clock — this is the number that scales with `--jobs`.
    pub fn sim_mips(&self) -> f64 {
        self.instructions as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }

    /// One-line rendering for harness logs. Store and checkpoint counts
    /// and failures appear only when nonzero, so a clean detailed run
    /// without a store reads `N jobs run, M cache hits, …`.
    pub fn line(&self) -> String {
        let mut counts = String::new();
        let mut note = |n: u64, what: &str| {
            if n > 0 {
                let _ = write!(counts, ", {n} {what}");
            }
        };
        let (misses, ckpt) = (&self.store_misses, &self.checkpoints);
        let missed = format!("store misses ({})", misses.causes());
        let regenerated = format!("checkpoints regenerated ({})", ckpt.regenerated.causes());
        note(self.store_hits, "store hits");
        note(misses.total(), &missed);
        note(self.store_save_failures, "store saves failed");
        note(ckpt.loaded, "checkpoints loaded");
        note(ckpt.captured, "checkpoints captured");
        note(ckpt.regenerated.total(), &regenerated);
        note(ckpt.save_failures, "checkpoint saves failed");
        note(self.stale_checkpoints, "stale checkpoints removed");
        note(self.jobs_failed, "FAILED");
        format!(
            "{} jobs run, {} cache hits{counts}, {:.1} sim-MIPS ({} workers, busy {:.2}s over {:.2}s wall)",
            self.jobs_run,
            self.cache_hits,
            self.sim_mips(),
            self.workers,
            self.busy.as_secs_f64(),
            self.wall.as_secs_f64()
        )
    }
}

/// Worker-pool executor with a per-process memo cache of completed runs.
pub struct SweepEngine {
    workers: usize,
    mode: ExecMode,
    ckpt_store: Option<CheckpointStore>,
    result_store: Option<ResultStore>,
    warm_memo: WarmMemo,
    /// The empty, calibrated report each job's stage profile is added
    /// into; `None` when the engine does not profile.
    profile: Option<StageReport>,
    cache: Mutex<HashMap<String, Arc<SimStats>>>,
    /// Counters since construction or the last reset; locked once per
    /// finished job.
    metrics: Mutex<SweepSummary>,
}

impl std::fmt::Debug for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepEngine")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Worker count from the machine: `available_parallelism`, or 1 if that
/// is unknowable.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f(i)` for every `i in 0..n` on a pool of `workers` scoped
/// threads and return the results in index order.
///
/// This is the sweep engine's worker pool factored out for any embarrassingly
/// parallel indexed computation (the differential fuzzer maps seed indices
/// through it). The pool is the same hand-rolled shared-queue design —
/// the workspace is dependency-free, so no rayon. Because results are
/// reassembled by index, the output is identical whatever the worker
/// count; only wall-clock changes.
///
/// `workers` is clamped to `1..=n`; `n == 0` returns an empty vector
/// without spawning. A panic in `f` propagates out of the scope and
/// aborts the map.
pub fn parallel_map<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = lock_clean(&queue).pop_front();
                let Some(i) = next else { break };
                let r = f(i);
                lock_clean(&done).push((i, r));
            });
        }
    });
    let mut out = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

impl SweepEngine {
    /// An engine with `workers` worker threads; `0` means "size from the
    /// machine" ([`default_jobs`]).
    pub fn new(workers: usize) -> SweepEngine {
        SweepEngine::with_mode(workers, ExecMode::Detailed, None)
    }

    /// An engine that executes jobs under `mode`. A `store` adds an
    /// on-disk checkpoint cache shared across processes, and a checkpoint
    /// then stays in memory only while a job uses it; without one,
    /// warm-state checkpoints stay in memory for every later job of the
    /// same (config-warm-relevant, workload, warm-up) digest.
    pub fn with_mode(
        workers: usize,
        mode: ExecMode,
        store: Option<CheckpointStore>,
    ) -> SweepEngine {
        SweepEngine::with_stores(workers, mode, store, None)
    }

    /// The fully general constructor: execution mode, an optional on-disk
    /// checkpoint store (warm state), and an optional on-disk result store
    /// (completed runs). With a result store the cache is three-tiered:
    /// memory → disk → simulate; results loaded from disk enter the memory
    /// cache, and simulated results are written back, so any number of
    /// processes sharing one store directory converge to zero simulation.
    pub fn with_stores(
        workers: usize,
        mode: ExecMode,
        ckpt_store: Option<CheckpointStore>,
        result_store: Option<ResultStore>,
    ) -> SweepEngine {
        let workers = if workers == 0 {
            default_jobs()
        } else {
            workers
        };
        let stale_checkpoints = ckpt_store
            .as_ref()
            .map_or(0, CheckpointStore::stale_removed);
        SweepEngine {
            workers,
            mode,
            ckpt_store,
            result_store,
            warm_memo: WarmMemo::default(),
            profile: None,
            cache: Mutex::new(HashMap::new()),
            metrics: Mutex::new(SweepSummary {
                workers,
                stale_checkpoints,
                ..SweepSummary::default()
            }),
        }
    }

    /// Time the pipeline stages of every job this engine executes from
    /// now on; [`SweepSummary::profile`] then carries their sum. Other
    /// engines in the process are not affected.
    pub fn enable_profile(&mut self) {
        self.profile = Some(StageReport::default().calibrated());
        lock_clean(&self.metrics).profile = self.profile;
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute one job under the engine's mode, with its stage profile
    /// when the engine profiles.
    fn execute(&self, job: &Job) -> Result<(SimStats, Option<StageReport>), SimError> {
        let profile = self.profile.is_some();
        match self.mode {
            ExecMode::Detailed => crate::simulator::run_profiled(
                &job.workload.config_for(&job.config),
                job.workload.programs(),
                job.budget,
                profile,
            ),
            ExecMode::Sampled(plan) => crate::sampling::run_sampled(
                job,
                plan,
                self.ckpt_store.as_ref(),
                &self.warm_memo,
                profile,
            )
            .map(|run| (run.stats, run.profile)),
        }
    }

    /// Execute `jobs`, returning one result per job in input order; a job
    /// that ends in a [`SimError`] yields its own `Err` without tearing
    /// down the batch — every other job still completes.
    ///
    /// Jobs already in the memo cache are answered without simulating;
    /// duplicates within the batch are simulated once (duplicates of a
    /// *failed* job all receive the same error). Successes are cached;
    /// failures are not, so a later request retries. The rest are drained
    /// from a shared queue by scoped worker threads. Because the simulator
    /// is deterministic and the jobs are independent, the returned
    /// statistics are identical whatever the worker count.
    pub fn try_run_jobs(&self, jobs: &[Job]) -> Vec<JobResult> {
        let t0 = Instant::now();
        let keys: Vec<String> = jobs.iter().map(|j| j.key_with_mode(self.mode)).collect();

        // First occurrence of every key not already cached gets simulated
        // (or answered from the on-disk store, when one is attached).
        let pending: Vec<usize> = {
            let cache = lock_clean(&self.cache);
            let mut scheduled: HashSet<&str> = HashSet::new();
            keys.iter()
                .enumerate()
                .filter(|(_, k)| !cache.contains_key(*k) && scheduled.insert(k.as_str()))
                .map(|(i, _)| i)
                .collect()
        };
        {
            let mut m = lock_clean(&self.metrics);
            m.jobs_requested += jobs.len() as u64;
            m.cache_hits += (jobs.len() - pending.len()) as u64;
        }

        // Key → error for this batch's failures (failures are never
        // cached, so the map is batch-local).
        let mut failed: HashMap<&str, SimError> = HashMap::new();
        if !pending.is_empty() {
            let results = parallel_map(self.workers, pending.len(), |k| {
                let job = &jobs[pending[k]];
                let key = &keys[pending[k]];
                // Second cache tier: the on-disk result store. A hit is a
                // finished run — no simulation, no jobs_run/busy
                // accounting (like the memo cache, the metrics track work,
                // not requests). A colliding entry is a plain miss; an
                // unusable one is counted by cause.
                if let Some(store) = &self.result_store {
                    let digest = fnv1a64(key.as_bytes());
                    match store.load(digest, key) {
                        Ok(Some(stats)) => {
                            lock_clean(&self.metrics).store_hits += 1;
                            return Ok(Arc::new(stats));
                        }
                        Ok(None) => {}
                        Err(e) => lock_clean(&self.metrics).store_misses.count(&e),
                    }
                }
                let t = Instant::now();
                // Isolate panics: a worker that panics must report a
                // per-job error like any other failure, not unwind through
                // the pool (and poison the engine for every later batch).
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(job)))
                        .unwrap_or_else(|payload| {
                            Err(SimError::Panicked(panic_message(&*payload)))
                        });
                let busy = t.elapsed();
                let saved = match (&result, &self.result_store) {
                    (Ok((stats, _)), Some(store)) => {
                        store.save(fnv1a64(key.as_bytes()), key, stats).is_ok()
                    }
                    _ => true,
                };
                {
                    let mut m = lock_clean(&self.metrics);
                    m.jobs_run += 1;
                    m.busy += busy;
                    m.store_save_failures += u64::from(!saved);
                    match &result {
                        Ok((stats, report)) => {
                            m.instructions += job.budget.warmup + stats.total_retired();
                            m.stack.merge(&stats.loop_cost);
                            if let (Some(total), Some(report)) = (&mut m.profile, report) {
                                total.add(report);
                            }
                        }
                        Err(_) => m.jobs_failed += 1,
                    }
                }
                result.map(|(stats, _)| Arc::new(stats))
            });
            let mut cache = lock_clean(&self.cache);
            for (&i, result) in pending.iter().zip(results) {
                match result {
                    Ok(stats) => {
                        cache.insert(keys[i].clone(), stats);
                    }
                    Err(e) => {
                        failed.insert(keys[i].as_str(), e);
                    }
                }
            }
        }

        lock_clean(&self.metrics).wall += t0.elapsed();
        let cache = lock_clean(&self.cache);
        keys.iter()
            .map(|k| match cache.get(k) {
                Some(stats) => Ok(Arc::clone(stats)),
                None => Err(failed
                    .get(k.as_str())
                    .expect("every requested job was simulated or failed")
                    .clone()),
            })
            .collect()
    }

    /// [`SweepEngine::try_run_jobs`] for infallible contexts (the figure
    /// generators, whose configurations are known-valid).
    ///
    /// # Panics
    ///
    /// After the whole batch has drained, panics listing every failed
    /// job's label and error — a bad config cannot silently discard the
    /// results of the jobs that did complete.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Arc<SimStats>> {
        let results = self.try_run_jobs(jobs);
        let mut failures: Vec<String> = Vec::new();
        let mut out = Vec::with_capacity(results.len());
        for (job, result) in jobs.iter().zip(results) {
            match result {
                Ok(stats) => out.push(stats),
                Err(e) => failures.push(format!("{}: {e}", job.label())),
            }
        }
        assert!(
            failures.is_empty(),
            "{} sweep job(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        );
        out
    }

    /// Counters since construction (or the last [`SweepEngine::reset_metrics`]).
    pub fn summary(&self) -> SweepSummary {
        SweepSummary {
            checkpoints: self.warm_memo.counts(),
            ..*lock_clean(&self.metrics)
        }
    }

    /// Zero the counters. The memo cache is kept — metrics
    /// describe work, the cache describes results.
    pub fn reset_metrics(&self) {
        *lock_clean(&self.metrics) = SweepSummary {
            workers: self.workers,
            profile: self.profile,
            ..SweepSummary::default()
        };
        self.warm_memo.reset_counts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_workload::Benchmark;

    fn tiny() -> RunBudget {
        RunBudget {
            warmup: 200,
            measure: 2_000,
            max_cycles: 1_000_000,
        }
    }

    fn job(b: Benchmark) -> Job {
        Job::new(PipelineConfig::base(), Workload::Single(b), tiny())
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let square = |i: usize| i * i;
        let reference: Vec<usize> = (0..97).map(square).collect();
        for workers in [0, 1, 3, 8, 200] {
            assert_eq!(parallel_map(workers, 97, square), reference);
        }
        assert!(parallel_map(4, 0, square).is_empty());
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let a = job(Benchmark::Compress);
        assert_eq!(a.key(), job(Benchmark::Compress).key());
        assert_eq!(a.key_hash(), job(Benchmark::Compress).key_hash());
        assert_ne!(a.key(), job(Benchmark::Swim).key());
        let mut other_budget = job(Benchmark::Compress);
        other_budget.budget.measure += 1;
        assert_ne!(a.key(), other_budget.key());
        let dra = Job::new(PipelineConfig::dra_for_rf(5), a.workload, a.budget);
        assert_ne!(a.key(), dra.key());
    }

    #[test]
    fn duplicate_jobs_simulate_once() {
        let engine = SweepEngine::new(4);
        let jobs = [job(Benchmark::Compress), job(Benchmark::Compress)];
        let out = engine.run_jobs(&jobs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].cycles, out[1].cycles);
        let s = engine.summary();
        assert_eq!(s.jobs_requested, 2);
        assert_eq!(s.jobs_run, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn cache_survives_across_batches() {
        let engine = SweepEngine::new(2);
        engine.run_jobs(&[job(Benchmark::Compress)]);
        engine.run_jobs(&[job(Benchmark::Compress)]);
        let s = engine.summary();
        assert_eq!((s.jobs_run, s.cache_hits), (1, 1));
    }

    #[test]
    fn grid_matches_individual_runs() {
        let engine = SweepEngine::new(8);
        let configs = [
            PipelineConfig::base(),
            PipelineConfig::base_with_latencies(7, 7),
        ];
        let workloads = [
            Workload::Single(Benchmark::Compress),
            Workload::Single(Benchmark::Swim),
        ];
        let jobs: Vec<Job> = configs
            .iter()
            .flat_map(|c| workloads.map(|w| Job::new(c.clone(), w, tiny())))
            .collect();
        let out = engine.run_jobs(&jobs);
        assert_eq!(out.len(), 4);
        for (job, got) in jobs.iter().zip(&out) {
            let reference = job
                .workload
                .try_run(&job.config, tiny())
                .expect("reference run");
            assert_eq!(got.cycles, reference.cycles);
            assert_eq!(got.total_retired(), reference.total_retired());
        }
    }

    #[test]
    fn metrics_reset_keeps_cache() {
        let engine = SweepEngine::new(2);
        engine.run_jobs(&[job(Benchmark::Compress)]);
        engine.reset_metrics();
        assert_eq!(engine.summary().jobs_run, 0);
        engine.run_jobs(&[job(Benchmark::Compress)]);
        let s = engine.summary();
        assert_eq!(
            (s.jobs_run, s.cache_hits),
            (0, 1),
            "cache outlives metric resets"
        );
    }

    #[test]
    fn label_carries_the_full_64_bit_digest() {
        let j = job(Benchmark::Compress);
        assert_eq!(j.label(), format!("compress#{:016x}", j.key_hash()));
        let digest = j.label().split('#').nth(1).unwrap().to_string();
        assert_eq!(digest.len(), 16, "no 32-bit truncation: {digest}");
    }

    fn broken_job() -> Job {
        let cfg = PipelineConfig {
            clusters: 0,
            ..PipelineConfig::base()
        };
        Job::new(cfg, Workload::Single(Benchmark::Compress), tiny())
    }

    #[test]
    fn a_failing_job_does_not_sink_the_batch() {
        let engine = SweepEngine::new(4);
        let jobs = [
            job(Benchmark::Compress),
            broken_job(),
            job(Benchmark::Swim),
            broken_job(), // duplicate failure: same error, simulated once
        ];
        let out = engine.try_run_jobs(&jobs);
        assert!(out[0].is_ok() && out[2].is_ok(), "good jobs complete");
        assert!(out[1].is_err() && out[3].is_err(), "bad jobs report errors");
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            out[3].as_ref().unwrap_err(),
            "duplicates share the error"
        );
        let s = engine.summary();
        assert_eq!(s.jobs_failed, 1, "one execution failed");
        // Failures are not cached: a retry re-runs (and fails again).
        let again = engine.try_run_jobs(&[broken_job()]);
        assert!(again[0].is_err());
        assert_eq!(engine.summary().jobs_failed, 2);
        assert!(engine.summary().line().contains("FAILED"));
    }

    #[test]
    #[should_panic(expected = "sweep job(s) failed")]
    fn run_jobs_panics_with_labeled_failures_after_draining() {
        let engine = SweepEngine::new(2);
        engine.run_jobs(&[job(Benchmark::Compress), broken_job()]);
    }

    fn panicking_job() -> Job {
        // An unknown micro name panics inside `Workload::programs` — a
        // deterministic stand-in for any worker panic.
        Job::new(PipelineConfig::base(), Workload::Micro("nonesuch"), tiny())
    }

    #[test]
    fn a_panicking_job_is_isolated_and_the_engine_stays_usable() {
        let engine = SweepEngine::new(4);
        let jobs = [
            job(Benchmark::Compress),
            panicking_job(),
            job(Benchmark::Swim),
        ];
        let out = engine.try_run_jobs(&jobs);
        assert!(out[0].is_ok() && out[2].is_ok(), "good jobs complete");
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(err, SimError::Panicked(_)), "got {err:?}");
        assert!(err.to_string().contains("job panicked"));
        assert_eq!(engine.summary().jobs_failed, 1);
        // Regression: the panic used to poison the engine's mutexes, so
        // every later call on the same engine also panicked.
        let again = engine.run_jobs(&[job(Benchmark::Compress), job(Benchmark::Swim)]);
        assert_eq!(again.len(), 2);
        let s = engine.summary();
        assert_eq!(s.cache_hits, 2, "memo cache survived the panic");
        assert!(s.stack.conserves());
    }

    fn poison<T>(m: &Mutex<T>) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("deliberate poison");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn poisoned_engine_locks_recover() {
        // Poison the metrics and cache mutexes directly (panic while the
        // guard is held) and check every engine entry point still works.
        let engine = SweepEngine::new(2);
        engine.run_jobs(&[job(Benchmark::Compress)]);
        poison(&engine.metrics);
        poison(&engine.cache);
        assert!(engine.metrics.is_poisoned());
        let s = engine.summary();
        assert!(s.stack.conserves());
        engine.run_jobs(&[job(Benchmark::Compress)]);
        assert_eq!(engine.summary().cache_hits, 1, "cache intact after poison");
        engine.reset_metrics();
        assert_eq!(engine.summary().jobs_run, 0);
    }

    #[test]
    fn disk_store_answers_fresh_engines_without_simulating() {
        let dir = std::env::temp_dir().join(format!("llrs-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).expect("open");
        let jobs = [job(Benchmark::Compress), job(Benchmark::Swim)];

        let cold = SweepEngine::with_stores(2, ExecMode::Detailed, None, Some(store.clone()));
        let a = cold.run_jobs(&jobs);
        let s = cold.summary();
        assert_eq!((s.jobs_run, s.store_hits), (2, 0));

        // A fresh engine (empty memo) on the same directory answers
        // everything from disk: zero simulation, identical results.
        let warm = SweepEngine::with_stores(2, ExecMode::Detailed, None, Some(store));
        let b = warm.run_jobs(&jobs);
        let s = warm.summary();
        assert_eq!((s.jobs_run, s.store_hits), (0, 2));
        assert!(s.line().contains("2 store hits"));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.total_retired(), y.total_retired());
            assert_eq!(x.loop_cost, y.loop_cost);
        }
        // Store hits fill the memo cache: a repeat within the warm engine
        // is a memory hit, not another disk read.
        warm.run_jobs(&jobs);
        assert_eq!(warm.summary().cache_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unusable_store_entries_are_counted_by_cause_and_rewritten() {
        let dir = std::env::temp_dir().join(format!("llrs-misses-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).expect("open");
        let jobs = [
            job(Benchmark::Compress),
            job(Benchmark::Swim),
            job(Benchmark::Go),
            job(Benchmark::Gcc),
        ];
        let engine = || SweepEngine::with_stores(2, ExecMode::Detailed, None, Some(store.clone()));
        let reference = engine().run_jobs(&jobs);
        let clean = engine();
        clean.run_jobs(&jobs);
        assert_eq!(clean.summary().store_misses, StoreMisses::default());

        // An older format version, a torn file, a directory in the
        // entry's place (unreadable, and it cannot be saved over), and an
        // entry cut right after its counter block.
        let path = |j: &Job| store.path(fnv1a64(j.key().as_bytes()));
        let mut old = std::fs::read(path(&jobs[0])).unwrap();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(path(&jobs[0]), old).unwrap();
        std::fs::write(path(&jobs[1]), b"LLRS").unwrap();
        std::fs::remove_file(path(&jobs[2])).unwrap();
        std::fs::create_dir(path(&jobs[2])).unwrap();
        let slots: usize = reference[3].counters().iter().map(|(_, s)| s.len()).sum();
        let cut = 16 + jobs[3].key().len() + 8 * slots;
        let entry = std::fs::read(path(&jobs[3])).unwrap();
        std::fs::write(path(&jobs[3]), &entry[..cut]).unwrap();

        let skewed = engine();
        let out = skewed.run_jobs(&jobs);
        let s = skewed.summary();
        let misses = StoreMisses {
            version_skew: 1,
            corrupt: 2,
            io: 1,
        };
        assert_eq!((s.jobs_run, s.store_hits, s.store_misses), (4, 0, misses));
        assert_eq!(s.store_save_failures, 1);
        let line = s.line();
        assert!(
            line.contains("4 store misses (1 version skew, 2 corrupt, 1 i/o)"),
            "{line}"
        );
        assert!(line.contains("1 store saves failed"), "{line}");
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // The three rewritten entries now load; the blocked one misses
        // again.
        let again = engine();
        again.run_jobs(&jobs);
        let s = again.summary();
        assert_eq!((s.jobs_run, s.store_hits, s.store_misses.io), (1, 3, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_a_profiling_engine_reports_stage_times() {
        let jobs = [job(Benchmark::Compress), job(Benchmark::Swim)];
        let mut profiled = SweepEngine::new(2);
        profiled.enable_profile();
        let mut sampled =
            SweepEngine::with_mode(1, ExecMode::Sampled(SamplingPlan::for_budget(tiny())), None);
        sampled.enable_profile();
        let plain = SweepEngine::new(2);
        // All three at once: no report leaks from one engine to another.
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| profiled.run_jobs(&jobs));
            let b = s.spawn(|| plain.run_jobs(&jobs));
            s.spawn(|| sampled.run_jobs(&jobs));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "profiling moved a result"
            );
        }
        assert!(plain.summary().profile.is_none());
        for engine in [&profiled, &sampled] {
            let report = engine
                .summary()
                .profile
                .expect("the profiling engine reports");
            assert!(report.stepped_cycles > 0 && report.sampled_cycles > 0);
            assert!(report.total_ns() > 0);
        }
        // Cache hits add nothing, and a reset keeps the switch on.
        let before = profiled.summary().profile;
        profiled.run_jobs(&jobs);
        assert_eq!(profiled.summary().profile, before);
        profiled.reset_metrics();
        let report = profiled.summary().profile.expect("still profiling");
        assert_eq!(report.stepped_cycles, 0);
    }

    #[test]
    fn exec_mode_participates_in_keys_only_when_not_detailed() {
        let j = job(Benchmark::Compress);
        assert_eq!(j.key(), j.key_with_mode(ExecMode::Detailed));
        let plan = SamplingPlan::for_budget(j.budget);
        assert_ne!(j.key(), j.key_with_mode(ExecMode::Sampled(plan)));
    }

    #[test]
    fn exec_modes_estimate_the_detailed_cpi() {
        let budget = RunBudget {
            warmup: 5_000,
            measure: 40_000,
            max_cycles: 4_000_000,
        };
        let j = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            budget,
        );
        let cpi = |s: &SimStats| s.cycles as f64 / s.total_retired() as f64;
        let detailed = &SweepEngine::new(1).run_jobs(std::slice::from_ref(&j))[0];

        let plan = SamplingPlan::for_budget(budget);
        let s_engine = SweepEngine::with_mode(1, ExecMode::Sampled(plan), None);
        let sampled = &s_engine.run_jobs(std::slice::from_ref(&j))[0];
        // Sampling simulates a small fraction of the window in detail...
        assert!(sampled.total_retired() <= plan.detailed_instructions());
        assert!(sampled.total_retired() < detailed.total_retired() / 3);
        // ...and still lands near the detailed CPI.
        let s_err = (cpi(sampled) - cpi(detailed)).abs() / cpi(detailed);
        assert!(
            s_err < 0.10,
            "sampled CPI off by {:.1}% ({:.4} vs {:.4})",
            s_err * 100.0,
            cpi(sampled),
            cpi(detailed)
        );
    }

    #[test]
    fn summary_stack_merges_executed_jobs() {
        let engine = SweepEngine::new(2);
        let jobs = [job(Benchmark::Compress), job(Benchmark::Swim)];
        let out = engine.run_jobs(&jobs);
        let s = engine.summary();
        assert!(s.stack.conserves(), "merged stack conserves slots");
        assert_eq!(
            s.stack.cycles,
            out.iter().map(|st| st.cycles).sum::<u64>(),
            "stack covers every executed cycle"
        );
        // Cache hits add nothing: the stack tracks work, not requests.
        engine.run_jobs(&jobs);
        assert_eq!(engine.summary().stack.cycles, s.stack.cycles);
        engine.reset_metrics();
        assert_eq!(engine.summary().stack, LoopCostStack::default());
    }
}
