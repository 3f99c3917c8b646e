//! The three workloads: `detailed-grid`, `sampled-all` and `warm-rerun`.
//!
//! Every workload runs on one single-worker sweep engine driven by one
//! caller in a closed loop. A run prepares its inputs (timed as `setup_s`,
//! repeated during the timed phase, median reported; see [`Setup`]), then
//! repeats whole passes until the requested seconds have elapsed (at least
//! one pass), and checks every pass's output. With tracing on, one
//! untraced pass runs with a traced replay of the same jobs woven into it
//! (see [`interleaved`] and `replay.rs`).

use crate::layers::{Counts, Inputs};
use crate::pins;
use crate::replay::{self, Work};
use crate::trace::Tracer;
use looseloops::workload::{synthetic, SyntheticParams};
use looseloops::{
    fnv1a64, isa::Program, try_run_programs, CheckpointStore, ExecMode, FigureResult, FigureSpec,
    Job, Machine, PipelineConfig, ResultStore, RunBudget, SamplingPlan, SimError, SimStats,
    SweepEngine, SweepSummary, WarmMemo, Workload,
};
use looseloops_rng::Rng;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["detailed-grid", "sampled-all", "warm-rerun"];

/// The simmips reference budget (`crates/bench/benches/simmips.rs`).
pub const GRID_BUDGET: RunBudget = RunBudget {
    warmup: 20_000,
    measure: 100_000,
    max_cycles: 20_000_000,
};
/// Paper-scale functional warm-up, the CLI's default measured budget.
pub const SAMPLED_BUDGET: RunBudget = RunBudget {
    warmup: 1_000_000,
    measure: 300_000,
    max_cycles: 20_000_000,
};
/// The warm-rerun store is filled at a small budget: store entries have
/// the same size whatever the budget, and the timed phase simulates nothing.
pub const FILL_BUDGET: RunBudget = RunBudget {
    warmup: 200,
    measure: 2_000,
    max_cycles: 1_000_000,
};

/// The figures of `detailed-grid`.
pub const GRID_FIGURES: [&str; 2] = ["fig4", "fig8"];
/// Every figure of `looseloops figure all`, in its order.
pub const ALL_FIGURES: [&str; 11] = [
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "load-policy",
    "dra-design",
    "fwd-window",
    "iq-size",
    "prefetch",
    "predictor",
];
/// Data footprints of the seed-drawn synthetic programs: L1-resident
/// (64 KiB L1D), L2-resident (1 MiB L2) and beyond L2. Fixing the classes
/// keeps the seed from moving the mix between cache regimes.
const SYNTHETIC_FOOTPRINTS: [u32; 3] = [16 << 10, 256 << 10, 4 << 20];
/// Seconds between set-up repetitions during the timed phase.
const SETUP_EVERY: f64 = 0.5;
/// The same for the warm-rerun fill, a full `figure all` pass.
const FILL_EVERY: f64 = 3.0;
/// Jobs per engine call where the timed phase pauses between calls, and
/// in the traced run.
const CHUNK: usize = 8;
/// Budget of the untimed warm-up job that ends `detailed-grid` and
/// `sampled-all` set-up.
const WARM_UP_BUDGET: RunBudget = RunBudget {
    warmup: 1_000,
    measure: 10_000,
    max_cycles: 2_000_000,
};

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: jobs, figure checks and verifications.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Spans of the traced run, written out by the caller.
    pub spans: Option<Tracer>,
}

impl Outcome {
    fn check(&mut self, (checks, failures): (u64, Vec<String>)) {
        self.attempted += checks;
        self.failures.extend(failures);
    }
}

/// A run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Specs of `ids` over the paper's thirteen workloads at `budget`. Every
/// distinct workload's programs are built once here, so the inputs are
/// checked, and program generation is timed, before the timed phase.
pub fn specs(ids: &[&str], budget: RunBudget) -> Vec<FigureSpec> {
    let workloads = Workload::paper_set();
    let specs: Vec<FigureSpec> = ids
        .iter()
        .map(|id| FigureSpec::for_id(id, &workloads, budget).expect("known figure id"))
        .collect();
    let mut seen = HashSet::new();
    for w in specs.iter().flat_map(|s| &s.workloads) {
        if seen.insert(w.name()) {
            assert!(!w.programs().is_empty(), "{} has no program", w.name());
        }
    }
    specs
}

/// Run the first job of the first figure, detailed, at a small budget and
/// discard the result: the process's code, allocator and page tables are
/// warm when the timed phase starts, as on any run after a user's first.
/// Work later moved into machine construction or first use shows here.
fn warm_up(specs: &[FigureSpec], out: &mut Outcome) {
    let job = &specs[0].jobs()[0];
    out.attempted += 1;
    if let Err(e) = job.workload.try_run(&job.config, WARM_UP_BUDGET) {
        out.failures
            .push(format!("warm-up job {}: {e}", job.label()));
    }
}

/// A fresh, empty directory.
fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create a work directory inside the checkout");
    path.to_path_buf()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up repetitions, timed for `setup_s`. The first makes the run's
/// inputs; later ones are made during the timed phase, off its clock (see
/// [`Setup::pause`]). Host contention on a shared machine comes in phases
/// of about a second, so repetitions spread over the run let their median
/// see the same phases as the timed phase, not just the moment before it.
struct Setup<F> {
    make: F,
    every: f64,
    last: Instant,
    times: Vec<f64>,
}

impl<T, F: FnMut(usize, &mut Outcome) -> T> Setup<F> {
    /// Make the inputs, timed; `make` gets the repetition's index.
    fn new(mut make: F, every: f64, out: &mut Outcome) -> (Setup<F>, T) {
        let t0 = Instant::now();
        let inputs = make(0, out);
        let setup = Setup {
            make,
            every,
            last: Instant::now(),
            times: vec![t0.elapsed().as_secs_f64()],
        };
        (setup, inputs)
    }

    /// Between two pieces of timed work: repeat the set-up, discarding
    /// what it makes, if `every` seconds have passed since the last
    /// repetition. Returns the seconds taken, which the caller keeps off
    /// the timed clock.
    fn pause(&mut self, out: &mut Outcome) -> f64 {
        if self.last.elapsed().as_secs_f64() < self.every {
            return 0.0;
        }
        let t0 = Instant::now();
        drop((self.make)(self.times.len(), out));
        let dt = t0.elapsed().as_secs_f64();
        self.times.push(dt);
        self.last = Instant::now();
        dt
    }
}

type JobResult = Result<Arc<SimStats>, SimError>;

/// The rendered figures of one pass (a figure with a failed job is not
/// rendered) and every job's result, spec by spec.
#[derive(Default)]
struct FigurePass {
    figures: Vec<FigureResult>,
    results: Vec<Vec<JobResult>>,
}

/// Run `specs` on `engine`, `per_call` jobs per engine call (`usize::MAX`:
/// a figure per call), calling `pause` after each call. Returns the pass
/// and the seconds `pause` took.
fn run_figures(
    engine: &SweepEngine,
    specs: &[FigureSpec],
    per_call: usize,
    pause: &mut dyn FnMut() -> f64,
) -> (FigurePass, f64) {
    let mut pass = FigurePass::default();
    let mut paused = 0.0;
    for spec in specs {
        let mut r = Vec::new();
        for chunk in spec.jobs().chunks(per_call) {
            r.extend(engine.try_run_jobs(chunk));
            paused += pause();
        }
        pass.push(spec, r);
    }
    (pass, paused)
}

impl FigurePass {
    /// Keep `spec`'s job results and render the figure from them.
    fn push(&mut self, spec: &FigureSpec, r: Vec<JobResult>) {
        let ok: Option<Vec<Arc<SimStats>>> = r.iter().map(|x| x.as_ref().ok().cloned()).collect();
        if let Some(ok) = ok {
            self.figures.push(spec.render(&ok));
        }
        self.results.push(r);
    }

    /// Count every job and record its error, if any.
    fn account(&self, specs: &[FigureSpec], out: &mut Outcome) {
        for (spec, results) in specs.iter().zip(&self.results) {
            for (job, r) in spec.jobs().iter().zip(results) {
                out.attempted += 1;
                if let Err(e) = r {
                    out.failures.push(format!("{}: {e}", job.label()));
                }
            }
        }
    }

    /// The result of each distinct job key, in first-occurrence order.
    fn by_key(&self, specs: &[FigureSpec], mode: ExecMode) -> Vec<(Job, JobResult)> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (spec, results) in specs.iter().zip(&self.results) {
            for (job, r) in spec.jobs().into_iter().zip(results) {
                if seen.insert(job.key_with_mode(mode)) {
                    out.push((job, r.clone()));
                }
            }
        }
        out
    }
}

/// One timed pass.
struct Pass {
    wall_s: f64,
    jobs: u64,
    instructions: u64,
}

/// `wall_s` (timed-phase wall time per pass), `sim_mips` and `jobs_per_s`
/// (totals over the timed phase), and `setup_s` (median). Totals rather
/// than per-pass medians: host contention comes in phases of seconds, and
/// a total averages over the phases a run sees where a median jumps
/// between them.
fn end_to_end(out: &mut Outcome, setup: Vec<f64>, passes: &[Pass]) {
    out.notes
        .push(format!("{} set-up repetition(s)", setup.len()));
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let instructions: u64 = passes.iter().map(|p| p.instructions).sum();
    let jobs: u64 = passes.iter().map(|p| p.jobs).sum();
    out.metrics = vec![
        ("wall_s", wall / passes.len() as f64, "s"),
        ("sim_mips", instructions as f64 / wall / 1e6, "Minstr/s"),
        ("jobs_per_s", jobs as f64 / wall, "jobs/s"),
        ("setup_s", median(setup), "s"),
    ];
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let q = |f: f64| walls[((walls.len() - 1) as f64 * f).round() as usize];
    out.notes.push(format!(
        "{} timed pass(es); pass wall quartiles {:.6} / {:.6} / {:.6} s",
        passes.len(),
        q(0.25),
        q(0.5),
        q(0.75)
    ));
}

/// Repeat `pass` until `seconds` have elapsed, at least once.
fn timed<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![pass()];
    while t0.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// Replay fidelity: the traced replay must reproduce the engine's result.
fn same(a: &SimStats, b: &SimStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// A replayed job awaiting its fidelity check.
struct Replayed {
    work: Work,
    got: Result<Arc<SimStats>, SimError>,
    /// The engine's result, filed by [`Replay::expect`].
    expected: Option<JobResult>,
}

/// What the traced run accumulates. The untraced engine work and its
/// traced replay alternate every few jobs, in alternating order (see
/// [`interleaved`]), so host drift over the run and warm caches weigh on
/// both times alike. Replayed results are compared with the engine's only
/// in [`Replay::finish`], outside the timed replay.
struct Replay {
    tr: Tracer,
    jobs: Vec<Replayed>,
    /// Wall time of the untraced engine work, seconds.
    untraced_s: f64,
    /// Wall time of the traced replay, seconds.
    traced_s: f64,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            tr: Tracer::new(),
            jobs: Vec::new(),
            untraced_s: 0.0,
            traced_s: 0.0,
        }
    }

    /// Run `f` untraced, adding its wall time to `untraced_s`.
    fn untraced<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.untraced_s += t0.elapsed().as_secs_f64();
        r
    }

    /// Replay one job under a `job` span. Returns the job's id, under
    /// which the engine's result is filed with [`Replay::expect`], and the
    /// replayed result.
    fn job(
        &mut self,
        f: impl FnOnce(&mut Tracer, &mut Work) -> Result<SimStats, SimError>,
    ) -> (usize, Option<Arc<SimStats>>) {
        let id = self.jobs.len();
        let t0 = Instant::now();
        self.tr
            .set_job(u32::try_from(id).expect("fewer than 2^32 jobs"));
        let root = self.tr.enter("job");
        let mut work = Work::default();
        let got = f(&mut self.tr, &mut work).map(Arc::new);
        self.tr.exit(root);
        self.traced_s += t0.elapsed().as_secs_f64();
        let out = got.as_ref().ok().cloned();
        self.jobs.push(Replayed {
            work,
            got,
            expected: None,
        });
        (id, out)
    }

    /// File the engine's result for replayed job `id`.
    fn expect(&mut self, id: usize, engine: JobResult) {
        self.jobs[id].expected = Some(engine);
    }

    /// Render `spec` from replayed results, under an `experiments.render` span.
    fn render(&mut self, spec: &FigureSpec, results: Option<Vec<Arc<SimStats>>>) {
        self.tr.set_job(crate::trace::NO_JOB);
        if let Some(r) = results {
            let t0 = Instant::now();
            self.tr.leaf("experiments.render", || spec.render(&r));
            self.traced_s += t0.elapsed().as_secs_f64();
        }
    }

    fn finish(self, out: &mut Outcome, summary: SweepSummary, cpi_err_pct: f64) {
        let mut invalid = BTreeSet::new();
        let mut work = Work::default();
        let mut counts = Counts::default();
        for (id, j) in (0u32..).zip(&self.jobs) {
            match (&j.got, &j.expected) {
                (Ok(g), Some(Ok(e))) if same(g, e) => {
                    work.add(&j.work);
                    counts.add(g);
                }
                _ => {
                    invalid.insert(id);
                }
            }
        }
        let totals = self.tr.totals(&invalid);
        out.notes.push(format!(
            "{:<22} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        ));
        for (name, t) in &totals {
            out.notes.push(format!(
                "{name:<22} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let inputs = Inputs {
            totals,
            work,
            counts,
            summary,
            untraced_s: self.untraced_s,
            traced_s: self.traced_s,
            mismatches: invalid.len() as u64,
            cpi_err_pct,
            rates: crate::micro::measure(),
        };
        out.attempted += self.jobs.len() as u64;
        for id in &invalid {
            out.failures.push(format!(
                "replayed job {id} differs from the engine's result"
            ));
        }
        out.metrics = inputs.metrics();
        out.spans = Some(self.tr);
    }
}

/// Run `specs` on `engine` untraced and replay them traced, alternating
/// between the two every `per_call` jobs (as many as the workload's timed
/// pass gives the engine in one call) and switching which goes first each
/// time. The replay runs every job whose key was not replayed
/// before (the engine answers those from its memo) through `run`; each
/// figure is rendered on both sides.
fn interleaved(
    rp: &mut Replay,
    engine: &SweepEngine,
    specs: &[FigureSpec],
    mode: ExecMode,
    per_call: usize,
    mut run: impl FnMut(&mut Tracer, &mut Work, &Job, &str) -> Result<SimStats, SimError>,
) -> FigurePass {
    let mut pass = FigurePass::default();
    let mut done: HashMap<String, Option<Arc<SimStats>>> = HashMap::new();
    let mut turn = 0;
    for spec in specs {
        let jobs = spec.jobs();
        let mut engine_results: Vec<JobResult> = Vec::with_capacity(jobs.len());
        let mut results = Some(Vec::new());
        for chunk in jobs.chunks(per_call) {
            let base = engine_results.len();
            let engine_first = turn % 2 == 0;
            turn += 1;
            if engine_first {
                engine_results.extend(rp.untraced(|| engine.try_run_jobs(chunk)));
            }
            let mut replayed = Vec::new();
            for (n, job) in chunk.iter().enumerate() {
                let key = job.key_with_mode(mode);
                if !done.contains_key(&key) {
                    let (id, got) = rp.job(|tr, work| run(tr, work, job, &key));
                    replayed.push((id, base + n));
                    done.insert(key.clone(), got);
                }
                match (&mut results, &done[&key]) {
                    (Some(r), Some(s)) => r.push(Arc::clone(s)),
                    _ => results = None,
                }
            }
            if !engine_first {
                engine_results.extend(rp.untraced(|| engine.try_run_jobs(chunk)));
            }
            for (id, n) in replayed {
                rp.expect(id, engine_results[n].clone());
            }
        }
        rp.untraced(|| pass.push(spec, engine_results));
        rp.render(spec, results);
    }
    pass
}

// ---------------------------------------------------------------------------
// detailed-grid
// ---------------------------------------------------------------------------

/// The synthetic programs `seed` draws: one per footprint class, with
/// seed-drawn branch density and predictability, load/store mix,
/// dependence-chain length and int/fp mix.
pub fn synthetic_params(seed: u64) -> Vec<SyntheticParams> {
    let mut rng = Rng::seed_from_u64(seed);
    SYNTHETIC_FOOTPRINTS
        .iter()
        .map(|&footprint| SyntheticParams {
            seed: rng.next_u64(),
            body_len: rng.gen_range(20u32..33),
            branches: rng.gen_range(1u32..5),
            taken_bits: rng.gen_range(1u32..5),
            loads: rng.gen_range(1u32..5),
            stores: rng.gen_range(0u32..3),
            footprint,
            chain: rng.gen_range(0u32..9),
            fp: rng.gen_bool(0.5),
            base: 16 << 20,
        })
        .collect()
}

struct GridInputs {
    specs: Vec<FigureSpec>,
    configs: Vec<PipelineConfig>,
    programs: Vec<(String, Program)>,
}

fn grid_setup(seed: u64) -> GridInputs {
    let specs = specs(&GRID_FIGURES, GRID_BUDGET);
    let mut seen = HashSet::new();
    let configs = specs
        .iter()
        .flat_map(|s| s.configs.iter().map(|(_, c)| c.clone()))
        .filter(|c| seen.insert(format!("{c:?}")))
        .collect();
    let programs = synthetic_params(seed)
        .into_iter()
        .map(|p| (format!("synthetic-{}k", p.footprint >> 10), synthetic(p)))
        .collect();
    GridInputs {
        specs,
        configs,
        programs,
    }
}

struct GridPass {
    wall_s: f64,
    figures: FigurePass,
    synthetic: Vec<Result<SimStats, SimError>>,
    summary: SweepSummary,
}

/// One pass, calling `pause` between engine calls and synthetic jobs and
/// keeping its time off the pass's wall time.
fn grid_pass(g: &GridInputs, pause: &mut dyn FnMut() -> f64) -> GridPass {
    let t0 = Instant::now();
    let engine = SweepEngine::new(1);
    let (figures, mut paused) = run_figures(&engine, &g.specs, CHUNK, pause);
    let mut synthetic = Vec::new();
    for (_, p) in &g.programs {
        for c in &g.configs {
            synthetic.push(try_run_programs(c, vec![p.clone()], GRID_BUDGET));
            paused += pause();
        }
    }
    GridPass {
        wall_s: t0.elapsed().as_secs_f64() - paused,
        figures,
        synthetic,
        summary: engine.summary(),
    }
}

impl GridPass {
    fn account(&self, g: &GridInputs, out: &mut Outcome) -> Pass {
        self.figures.account(&g.specs, out);
        out.check(pins::check_figures(
            &self.figures.figures,
            &pins::digests_for(pins::DIGESTS, "detailed-grid"),
        ));
        let mut instructions = self.summary.instructions;
        for (i, r) in self.synthetic.iter().enumerate() {
            out.attempted += 1;
            match r {
                Ok(s) => instructions += GRID_BUDGET.warmup + s.total_retired(),
                Err(e) => out.failures.push(format!("{}: {e}", synthetic_label(g, i))),
            }
        }
        Pass {
            wall_s: self.wall_s,
            jobs: self.summary.jobs_requested + self.synthetic.len() as u64,
            instructions,
        }
    }
}

fn synthetic_label(g: &GridInputs, i: usize) -> String {
    let (name, _) = &g.programs[i / g.configs.len()];
    format!("{name} on config {}", i % g.configs.len())
}

/// Re-run each synthetic program on the first grid machine with every
/// retirement checked against the ISA interpreter, and require the
/// statistics of the timed pass.
fn verify_synthetic(g: &GridInputs, pass: &GridPass, out: &mut Outcome) {
    for (i, (name, prog)) in g.programs.iter().enumerate() {
        out.attempted += 1;
        let cfg = g.configs[0].clone();
        let checked = std::panic::catch_unwind(|| -> Result<SimStats, SimError> {
            let mut m = Machine::new(cfg, vec![prog.clone()])?;
            m.enable_verification();
            m.run(GRID_BUDGET.warmup, GRID_BUDGET.max_cycles)?;
            m.reset_stats();
            Ok(m.run(GRID_BUDGET.measure, GRID_BUDGET.max_cycles)?.clone())
        });
        match (checked, &pass.synthetic[i * g.configs.len()]) {
            (Ok(Ok(v)), Ok(timed)) if same(&v, timed) => {}
            (Ok(Ok(_)), _) => out
                .failures
                .push(format!("{name}: verified run differs from the timed run")),
            (Ok(Err(e)), _) => out.failures.push(format!("{name}: verified run: {e}")),
            (Err(_), _) => out
                .failures
                .push(format!("{name}: diverged from the ISA interpreter")),
        }
    }
}

fn detailed_grid(s: Settings) -> Outcome {
    let mut out = Outcome::default();
    let make = |_: usize, out: &mut Outcome| {
        let g = grid_setup(s.seed);
        warm_up(&g.specs, out);
        g
    };
    let (mut setup, g) = Setup::new(make, SETUP_EVERY, &mut out);
    if !s.trace {
        let mut last = None;
        let passes = timed(s.seconds, || {
            let p = grid_pass(&g, &mut || setup.pause(&mut out));
            let measured = p.account(&g, &mut out);
            last = Some(p);
            measured
        });
        verify_synthetic(&g, last.as_ref().expect("one pass"), &mut out);
        end_to_end(&mut out, setup.times, &passes);
        return out;
    }
    let engine = SweepEngine::new(1);
    let mut rp = Replay::new();
    let figures = interleaved(
        &mut rp,
        &engine,
        &g.specs,
        ExecMode::Detailed,
        CHUNK,
        |tr, work, job, _| {
            let cfg = job.workload.config_for(&job.config);
            replay::detailed(tr, &cfg, || job.workload.programs(), job.budget, work)
        },
    );
    let mut synthetic = Vec::new();
    for (_, prog) in &g.programs {
        for cfg in &g.configs {
            let engine_first = synthetic.len() % 2 == 0;
            let mut untraced = || try_run_programs(cfg, vec![prog.clone()], GRID_BUDGET);
            let first = engine_first.then(|| rp.untraced(&mut untraced));
            let (id, _) = rp.job(|tr, work| {
                replay::detailed(tr, cfg, || vec![prog.clone()], GRID_BUDGET, work)
            });
            let r = first.unwrap_or_else(|| rp.untraced(&mut untraced));
            rp.expect(id, r.clone().map(Arc::new));
            synthetic.push(r);
        }
    }
    let pass = GridPass {
        wall_s: rp.untraced_s,
        figures,
        synthetic,
        summary: engine.summary(),
    };
    pass.account(&g, &mut out);
    rp.finish(&mut out, pass.summary, 0.0);
    out
}

// ---------------------------------------------------------------------------
// sampled-all
// ---------------------------------------------------------------------------

/// Fresh, empty checkpoint and result stores.
struct Stores {
    ckpt: CheckpointStore,
    results: ResultStore,
}

fn fresh_stores(dir: &Path) -> Stores {
    Stores {
        ckpt: CheckpointStore::open(fresh_dir(&dir.join("ckpt"))).expect("open checkpoint store"),
        results: ResultStore::open(fresh_dir(&dir.join("results"))).expect("open result store"),
    }
}

fn sampled_mode() -> ExecMode {
    ExecMode::Sampled(SamplingPlan::for_budget(SAMPLED_BUDGET))
}

/// One pass, calling `pause` between engine calls and keeping its time
/// off the pass's wall time.
fn sampled_pass(
    figs: &[FigureSpec],
    st: &Stores,
    pause: &mut dyn FnMut() -> f64,
) -> (f64, FigurePass, SweepSummary) {
    let t0 = Instant::now();
    let engine = SweepEngine::with_stores(
        1,
        sampled_mode(),
        Some(st.ckpt.clone()),
        Some(st.results.clone()),
    );
    let (figures, paused) = run_figures(&engine, figs, CHUNK, pause);
    (
        t0.elapsed().as_secs_f64() - paused,
        figures,
        engine.summary(),
    )
}

/// Mean |sampled CPI − detailed CPI| / detailed CPI, in percent, over the
/// distinct jobs, against the pinned detailed reference.
fn cpi_err_pct(pass: &FigurePass, specs: &[FigureSpec], out: &mut Outcome) -> f64 {
    let reference = pins::detailed_cpi(pins::DETAILED_CPI);
    let mut errs = Vec::new();
    for (job, r) in pass.by_key(specs, sampled_mode()) {
        let Ok(stats) = r else { continue };
        out.attempted += 1;
        match reference.get(&fnv1a64(job.key().as_bytes())) {
            Some(&detailed) => {
                let sampled = stats.cycles as f64 / stats.total_retired().max(1) as f64;
                errs.push((sampled - detailed).abs() / detailed);
            }
            None => out
                .failures
                .push(format!("{}: no pinned detailed CPI", job.label())),
        }
    }
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

fn check_sampled(pass: &FigurePass, specs: &[FigureSpec], out: &mut Outcome) {
    pass.account(specs, out);
    out.check(pins::check_figures(
        &pass.figures,
        &pins::digests_for(pins::DIGESTS, "sampled-all"),
    ));
}

fn sampled_all(s: Settings, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let make = |_: usize, out: &mut Outcome| {
        let figs = specs(&ALL_FIGURES, SAMPLED_BUDGET);
        warm_up(&figs, out);
        figs
    };
    let (mut setup, figs) = Setup::new(make, SETUP_EVERY, &mut out);
    if !s.trace {
        let mut n = 0;
        let mut err = 0.0;
        let passes = timed(s.seconds, || {
            let (wall_s, fp, summary) = sampled_pass(
                &figs,
                &fresh_stores(&work.join(format!("pass{n}"))),
                &mut || setup.pause(&mut out),
            );
            check_sampled(&fp, &figs, &mut out);
            if n == 0 {
                err = cpi_err_pct(&fp, &figs, &mut out);
            }
            n += 1;
            Pass {
                wall_s,
                jobs: summary.jobs_requested,
                instructions: summary.instructions,
            }
        });
        out.notes.push(format!("cpi_err_pct {err:.4} %"));
        end_to_end(&mut out, setup.times, &passes);
        return out;
    }
    let mode = sampled_mode();
    let ExecMode::Sampled(plan) = mode else {
        unreachable!("sampled mode")
    };
    let st = fresh_stores(&work.join("pass"));
    let engine = SweepEngine::with_stores(1, mode, Some(st.ckpt.clone()), Some(st.results.clone()));
    let fresh = fresh_stores(&work.join("replay"));
    let memo = WarmMemo::default();
    let mut seen = HashSet::new();
    let mut rp = Replay::new();
    let pass = interleaved(
        &mut rp,
        &engine,
        &figs,
        mode,
        CHUNK,
        |tr, work, job, key| {
            replay::through_store(tr, &fresh.results, key, work, |tr, work| {
                replay::sampled(tr, job, plan, Some(&fresh.ckpt), &memo, &mut seen, work)
            })
        },
    );
    check_sampled(&pass, &figs, &mut out);
    let err = cpi_err_pct(&pass, &figs, &mut out);
    rp.finish(&mut out, engine.summary(), err);
    out
}

// ---------------------------------------------------------------------------
// warm-rerun
// ---------------------------------------------------------------------------

struct WarmInputs {
    specs: Vec<FigureSpec>,
    store: ResultStore,
    figures: Vec<FigureResult>,
}

/// Fill a fresh store with one `figure all` pass.
fn warm_setup(dir: &Path, out: &mut Outcome) -> WarmInputs {
    let specs = specs(&ALL_FIGURES, FILL_BUDGET);
    let store = ResultStore::open(fresh_dir(dir)).expect("open result store");
    let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(store.clone()));
    let (fill, _) = run_figures(&engine, &specs, usize::MAX, &mut || 0.0);
    fill.account(&specs, out);
    WarmInputs {
        specs,
        store,
        figures: fill.figures,
    }
}

fn digests(figures: &[FigureResult]) -> Vec<(String, u64)> {
    figures
        .iter()
        .map(|f| (f.id.clone(), pins::digest(f)))
        .collect()
}

fn warm_pass(inp: &WarmInputs) -> (f64, FigurePass, SweepSummary) {
    let t0 = Instant::now();
    let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(inp.store.clone()));
    let (figures, _) = run_figures(&engine, &inp.specs, usize::MAX, &mut || 0.0);
    (t0.elapsed().as_secs_f64(), figures, engine.summary())
}

/// Every job must come from the store, and every figure must match the
/// set-up's own output.
fn check_warm(inp: &WarmInputs, pass: &FigurePass, summary: &SweepSummary, out: &mut Outcome) {
    pass.account(&inp.specs, out);
    out.check(pins::check_figures(&pass.figures, &digests(&inp.figures)));
    for _ in 0..summary.jobs_run {
        out.failures
            .push("warm-rerun simulated a job instead of loading it".into());
    }
}

/// Instructions the answered jobs cover: budget warm-up plus measured.
fn covered(pass: &FigurePass, specs: &[FigureSpec]) -> u64 {
    pass.by_key(specs, ExecMode::Detailed)
        .iter()
        .filter_map(|(job, r)| {
            r.as_ref()
                .ok()
                .map(|s| job.budget.warmup + s.total_retired())
        })
        .sum()
}

fn warm_rerun(s: Settings, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let make = |i: usize, out: &mut Outcome| warm_setup(&work.join(format!("fill{i}")), out);
    let (mut setup, inp) = Setup::new(make, FILL_EVERY, &mut out);
    if !s.trace {
        let mut instructions = None;
        let passes = timed(s.seconds, || {
            setup.pause(&mut out);
            let (wall_s, fp, summary) = warm_pass(&inp);
            check_warm(&inp, &fp, &summary, &mut out);
            Pass {
                wall_s,
                jobs: summary.jobs_requested,
                instructions: *instructions.get_or_insert_with(|| covered(&fp, &inp.specs)),
            }
        });
        end_to_end(&mut out, setup.times, &passes);
        return out;
    }
    let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(inp.store.clone()));
    let mut rp = Replay::new();
    let pass = interleaved(
        &mut rp,
        &engine,
        &inp.specs,
        ExecMode::Detailed,
        usize::MAX,
        |tr, work, _, key| {
            replay::through_store(tr, &inp.store, key, work, |_, _| {
                Err(SimError::Panicked("not in the store".into()))
            })
        },
    );
    let summary = engine.summary();
    check_warm(&inp, &pass, &summary, &mut out);
    rp.finish(&mut out, summary, 0.0);
    out
}

/// The run budget of workload `name` (for `warm-rerun`, of its fill), or
/// `None` for an unknown name.
pub fn budget(name: &str) -> Option<RunBudget> {
    match name {
        "detailed-grid" => Some(GRID_BUDGET),
        "sampled-all" => Some(SAMPLED_BUDGET),
        "warm-rerun" => Some(FILL_BUDGET),
        _ => None,
    }
}

/// Run workload `name`, one of [`NAMES`], with its work directories under
/// `work`.
pub fn run(name: &str, s: Settings, work: &Path) -> Outcome {
    match name {
        "detailed-grid" => detailed_grid(s),
        "sampled-all" => sampled_all(s, work),
        "warm-rerun" => warm_rerun(s, work),
        other => unreachable!("unknown workload {other}"),
    }
}
