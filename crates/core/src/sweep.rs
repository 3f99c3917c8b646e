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
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::hash::{BuildHasherDefault, Hasher};
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

/// The FNV-1a offset basis: the state of a digest over no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue the FNV-1a state `h` over `bytes`. Continuing a prefix's
/// state over the rest equals hashing the whole, so a key's digest can
/// reuse its shared configuration prefix.
fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a, the classic 64-bit offset-basis/prime pair. Stable across
/// processes and platforms, unlike `DefaultHasher`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV_BASIS, bytes)
}

/// Append what follows the configuration in a memo key:
/// `|{workload:?}|{budget:?}`, then `|{mode:?}` unless the mode is
/// [`ExecMode::Detailed`]. The one definition of the key layout after its
/// configuration prefix.
fn push_key_suffix(out: &mut String, workload: &Workload, budget: &RunBudget, mode: ExecMode) {
    let _ = write!(out, "|{workload:?}|{budget:?}");
    if mode != ExecMode::Detailed {
        let _ = write!(out, "|{mode:?}");
    }
}

/// A job's memo key under the engine's mode and its [`fnv1a64`] digest:
/// the name of its result-store entry and its memo bucket.
#[derive(Debug, PartialEq, Eq)]
struct JobKey {
    text: String,
    digest: u64,
}

/// Every job's [`JobKey`] under `mode`, in one pass. A figure grid lists
/// its workloads machine by machine, so a job whose configuration equals
/// the previous job's reuses that configuration's `Debug` text and the
/// FNV state after it: only the suffix is rendered and hashed again.
fn job_keys(jobs: &[Job], mode: ExecMode) -> Vec<JobKey> {
    let mut prefix: Option<(&PipelineConfig, String, u64)> = None;
    jobs.iter()
        .map(|job| {
            if prefix.as_ref().is_none_or(|(cfg, ..)| **cfg != job.config) {
                let text = format!("{:?}", job.config);
                let state = fnv1a64(text.as_bytes());
                prefix = Some((&job.config, text, state));
            }
            let (_, head, state) = prefix.as_ref().expect("rendered above");
            let mut text = String::with_capacity(head.len() + 256);
            text.push_str(head);
            push_key_suffix(&mut text, &job.workload, &job.budget, mode);
            let digest = fnv1a64_continue(*state, &text.as_bytes()[head.len()..]);
            JobKey { text, digest }
        })
        .collect()
}

/// A [`Hasher`] that passes a `u64` through unchanged: the keys of a
/// [`DigestMap`] are FNV-1a digests already.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_continue(self.0, bytes);
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// Values keyed by a job key's digest. Each digest's bucket holds
/// `(key, value)` pairs and a lookup compares the full key, so two keys
/// that share a 64-bit digest stay two entries and neither answers for
/// the other.
struct DigestMap<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>, BuildHasherDefault<DigestHasher>>,
}

impl<K, V> Default for DigestMap<K, V> {
    fn default() -> Self {
        DigestMap {
            buckets: HashMap::default(),
        }
    }
}

impl<K: AsRef<str>, V> DigestMap<K, V> {
    /// The value stored for `key`, whose digest is `digest`.
    fn get(&self, digest: u64, key: &str) -> Option<&V> {
        let bucket = self.buckets.get(&digest)?;
        bucket
            .iter()
            .find(|(k, _)| k.as_ref() == key)
            .map(|(_, v)| v)
    }

    /// Store `value` for `key`, whose digest is `digest`, replacing any
    /// value stored for the same key.
    fn insert(&mut self, digest: u64, key: K, value: V) {
        let bucket = self.buckets.entry(digest).or_default();
        match bucket.iter_mut().find(|(k, _)| k.as_ref() == key.as_ref()) {
            Some(entry) => entry.1 = value,
            None => bucket.push((key, value)),
        }
    }
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
    /// the engine compares the whole string on every memo and store hit,
    /// so a digest collision can never answer for another job.
    pub fn key(&self) -> String {
        self.key_with_mode(ExecMode::Detailed)
    }

    /// [`Job::key`] plus the execution mode. [`ExecMode::Detailed`]
    /// contributes nothing, so a detailed job's key is [`Job::key`] itself
    /// (the key perfbench pins detailed CPIs by).
    pub fn key_with_mode(&self, mode: ExecMode) -> String {
        let mut key = format!("{:?}", self.config);
        push_key_suffix(&mut key, &self.workload, &self.budget, mode);
        key
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
    /// The memo: every successful run by its key's digest.
    cache: Mutex<DigestMap<String, Arc<SimStats>>>,
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
            cache: Mutex::new(DigestMap::default()),
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
        self.run_keyed(jobs, job_keys(jobs, self.mode))
    }

    /// [`SweepEngine::try_run_jobs`] with every job's key and digest
    /// given (`keys[i]` belongs to `jobs[i]`).
    fn run_keyed(&self, jobs: &[Job], mut keys: Vec<JobKey>) -> Vec<JobResult> {
        /// Where a job's answer comes from.
        enum Answer {
            /// The memo held it.
            Memo(Arc<SimStats>),
            /// The `n`th pending run of this batch answers it.
            Run(usize),
        }
        let t0 = Instant::now();

        // First occurrence of every key not already cached gets simulated
        // (or answered from the on-disk store, when one is attached);
        // later occurrences share its run.
        let mut pending: Vec<usize> = Vec::new();
        let answers: Vec<Answer> = {
            let cache = lock_clean(&self.cache);
            let mut scheduled: DigestMap<&str, usize> = DigestMap::default();
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    if let Some(stats) = cache.get(k.digest, &k.text) {
                        return Answer::Memo(Arc::clone(stats));
                    }
                    if let Some(&run) = scheduled.get(k.digest, &k.text) {
                        return Answer::Run(run);
                    }
                    scheduled.insert(k.digest, &k.text, pending.len());
                    pending.push(i);
                    Answer::Run(pending.len() - 1)
                })
                .collect()
        };
        {
            let mut m = lock_clean(&self.metrics);
            m.jobs_requested += jobs.len() as u64;
            m.cache_hits += (jobs.len() - pending.len()) as u64;
        }

        let results = parallel_map(self.workers, pending.len(), |k| {
            let job = &jobs[pending[k]];
            let JobKey { text: key, digest } = &keys[pending[k]];
            // Second cache tier: the on-disk result store. A hit is a
            // finished run — no simulation, no jobs_run/busy accounting
            // (like the memo cache, the metrics track work, not
            // requests). A colliding entry is a plain miss; an unusable
            // one is counted by cause.
            if let Some(store) = &self.result_store {
                match store.load(*digest, key) {
                    Ok(Some(stats)) => {
                        lock_clean(&self.metrics).store_hits += 1;
                        return Ok(Arc::new(stats));
                    }
                    Ok(None) => {}
                    Err(e) => lock_clean(&self.metrics).store_misses.count(&e),
                }
            }
            let t = Instant::now();
            // Isolate panics: a worker that panics must report a per-job
            // error like any other failure, not unwind through the pool
            // (and poison the engine for every later batch).
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(job)))
                    .unwrap_or_else(|payload| Err(SimError::Panicked(panic_message(&*payload))));
            let busy = t.elapsed();
            let saved = match (&result, &self.result_store) {
                (Ok((stats, _)), Some(store)) => store.save(*digest, key, stats).is_ok(),
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
        // Successes enter the memo; failures are not cached, so a later
        // request retries.
        {
            let mut cache = lock_clean(&self.cache);
            for (&i, result) in pending.iter().zip(&results) {
                if let Ok(stats) = result {
                    let key = std::mem::take(&mut keys[i].text);
                    cache.insert(keys[i].digest, key, Arc::clone(stats));
                }
            }
        }

        lock_clean(&self.metrics).wall += t0.elapsed();
        answers
            .into_iter()
            .map(|answer| match answer {
                Answer::Memo(stats) => Ok(stats),
                Answer::Run(run) => results[run].clone(),
            })
            .collect()
    }

    /// [`SweepEngine::try_run_jobs`] as one result: every job's
    /// statistics in input order or, once the whole batch has drained,
    /// one message listing every failed job's label and error — a failed
    /// job cannot silently discard the results of the jobs that did
    /// complete.
    ///
    /// # Errors
    ///
    /// The labeled failures, if any job failed.
    pub fn run_all(&self, jobs: &[Job]) -> Result<Vec<Arc<SimStats>>, String> {
        let results = self.try_run_jobs(jobs);
        let mut failures: Vec<String> = Vec::new();
        let mut out = Vec::with_capacity(results.len());
        for (job, result) in jobs.iter().zip(results) {
            match result {
                Ok(stats) => out.push(stats),
                Err(e) => failures.push(format!("{}: {e}", job.label())),
            }
        }
        if failures.is_empty() {
            return Ok(out);
        }
        Err(format!(
            "{} sweep job(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }

    /// [`SweepEngine::run_all`] for infallible contexts (the figure
    /// generators, whose configurations are known-valid).
    ///
    /// # Panics
    ///
    /// With `run_all`'s message, if any job failed.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Arc<SimStats>> {
        self.run_all(jobs).unwrap_or_else(|e| panic!("{e}"))
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

    /// The engine's one-pass keys are exactly [`Job::key_with_mode`] and
    /// its [`fnv1a64`] digest, job by job.
    fn assert_keys_match(jobs: &[Job], mode: ExecMode) {
        let keys = job_keys(jobs, mode);
        assert_eq!(keys.len(), jobs.len());
        for (job, key) in jobs.iter().zip(&keys) {
            let text = job.key_with_mode(mode);
            assert_eq!(key.digest, fnv1a64(text.as_bytes()), "{text}");
            assert_eq!(key.text, text);
        }
    }

    #[test]
    fn batch_keys_and_digests_equal_the_per_job_rendering() {
        let budget = RunBudget::default();
        let jobs: Vec<Job> = crate::experiments::FigureSpec::ids()
            .flat_map(|id| {
                crate::experiments::FigureSpec::for_id(id, &Workload::paper_set(), budget)
                    .expect("a listed figure")
                    .jobs()
            })
            .collect();
        let auto = SamplingPlan::parse("auto", budget).expect("auto plan");
        // Neighbours that differ only in the sign of a zero fault rate
        // print differently, so neither may reuse the other's text.
        let rate = |r: f64| PipelineConfig {
            faults: Some(looseloops_pipeline::FaultPlan::branch_storm(3, r)),
            ..PipelineConfig::base()
        };
        let signed = [0.0, -0.0, -0.0, 0.0]
            .map(|r| Job::new(rate(r), Workload::Single(Benchmark::Compress), tiny()));
        for mode in [ExecMode::Detailed, ExecMode::Sampled(auto)] {
            assert_keys_match(&jobs, mode);
            assert_keys_match(&signed, mode);
        }
        let keys = job_keys(&signed, ExecMode::Detailed);
        assert!(keys[1].text.contains("branch_flip_rate: -0.0"));
        assert_ne!(keys[0], keys[1]);
        assert_eq!((&keys[0], &keys[1]), (&keys[3], &keys[2]));
    }

    #[test]
    fn a_digest_bucket_keeps_every_key_apart() {
        let mut map: DigestMap<String, u32> = DigestMap::default();
        map.insert(7, "a".into(), 1);
        map.insert(7, "b".into(), 2);
        map.insert(7, "a".into(), 3);
        assert_eq!((map.get(7, "a"), map.get(7, "b")), (Some(&3), Some(&2)));
        assert_eq!((map.get(7, "c"), map.get(8, "a")), (None, None));
    }

    #[test]
    fn jobs_forced_onto_one_digest_are_simulated_and_answered_apart() {
        let dir = std::env::temp_dir().join(format!("llrs-collide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ResultStore::open(&dir).expect("open");
        let forged = |jobs: &[Job]| -> Vec<JobKey> {
            let keys = job_keys(jobs, ExecMode::Detailed);
            keys.into_iter()
                .map(|k| JobKey {
                    digest: 0x5eed,
                    ..k
                })
                .collect()
        };
        let (compress, swim) = (job(Benchmark::Compress), job(Benchmark::Swim));
        let reference = SweepEngine::new(1).run_jobs(&[compress.clone(), swim.clone()]);
        let same = |got: &[JobResult], want: &[&Arc<SimStats>]| {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(format!("{:?}", g.as_ref().expect("ran")), format!("{w:?}"));
            }
        };

        // One batch, one worker: both keys run (the duplicate shares the
        // first run), and each answer is its own job's.
        let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(store.clone()));
        let batch = [compress.clone(), swim.clone(), compress.clone()];
        let out = engine.run_keyed(&batch, forged(&batch));
        same(&out, &[&reference[0], &reference[1], &reference[0]]);
        let s = engine.summary();
        assert_eq!((s.jobs_run, s.cache_hits, s.store_hits), (2, 1, 0));
        // Both sit in the memo's one bucket.
        let out = engine.run_keyed(&batch[..2], forged(&batch[..2]));
        same(&out, &[&reference[0], &reference[1]]);
        assert_eq!(engine.summary().cache_hits, 3);

        // On disk the two share one file, which swim wrote last: a fresh
        // engine's compress finds swim's key there, a plain miss.
        let alone = std::slice::from_ref(&compress);
        let fresh = || SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(store.clone()));
        let cold = fresh();
        same(&cold.run_keyed(alone, forged(alone)), &[&reference[0]]);
        let s = cold.summary();
        assert_eq!(
            (s.jobs_run, s.store_hits, s.store_misses.total()),
            (1, 0, 0)
        );
        // It rewrote the file for compress, which now answers from disk.
        let warm = fresh();
        same(&warm.run_keyed(alone, forged(alone)), &[&reference[0]]);
        assert_eq!((warm.summary().jobs_run, warm.summary().store_hits), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
