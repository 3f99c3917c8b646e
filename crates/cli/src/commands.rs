//! Subcommand implementations.

use crate::args::{ArgError, Args};
use crate::config::{budget_from_args, config_from_args, BUDGET_FLAGS, CONFIG_FLAGS};
use looseloops::{
    fnv1a64, loop_inventory, restore_into, run_sampled, warm_key, CheckpointStore, ExecMode,
    FigureKind, FigureSpec, Job, Machine, ResultStore, RunBudget, SamplingPlan, SimStats,
    StageReport, StoreError, SweepEngine, WarmMemo, Workload,
};
use looseloops_workload::Benchmark;

fn config_flag_set(extra: &[&'static str]) -> Vec<&'static str> {
    [CONFIG_FLAGS, BUDGET_FLAGS, extra].concat()
}

fn print_stats(stats: &SimStats, json: bool) {
    if json {
        // Every table counter by name, plus what the table leaves out.
        let mut fields = vec![
            format!("\"retired\": {:?}", stats.retired),
            format!("\"ipc\": {}", stats.ipc()),
            format!("\"iq_occupancy_mean\": {}", stats.iq_occupancy_mean),
            format!("\"iq_post_issue_mean\": {}", stats.iq_post_issue_mean),
            format!("\"iq_peak\": {}", stats.iq_peak),
        ];
        fields.extend(stats.counters().iter().map(|(name, slots)| match slots {
            [one] => format!("\"{name}\": {one}"),
            many => format!("\"{name}\": {many:?}"),
        }));
        println!("{{\n  {}\n}}", fields.join(",\n  "));
        return;
    }
    println!("cycles                {}", stats.cycles);
    println!(
        "instructions retired  {} {:?}",
        stats.total_retired(),
        stats.retired
    );
    println!("IPC                   {:.4}", stats.ipc());
    println!(
        "branches              {} ({} mispredicted, {:.2}%)",
        stats.branches,
        stats.branch_mispredicts,
        stats.branch_mispredict_rate() * 100.0
    );
    println!(
        "loads                 {} ({} L1 misses, {:.2}%)",
        stats.loads,
        stats.load_l1_misses,
        stats.load_miss_rate() * 100.0
    );
    println!(
        "useless work          {} (load replays {}, shadow {}, operand {}, squashed-after-issue {})",
        stats.useless_work(),
        stats.load_replays,
        stats.shadow_replays,
        stats.operand_replays,
        stats.squashed_after_issue
    );
    let f = stats.operand_source_fractions();
    println!(
        "operand sources       pre-read {:.1}%  forward {:.1}%  crc {:.1}%  regfile {:.1}%  miss {:.3}%",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0,
        f[4] * 100.0
    );
    println!(
        "traps                 memory-order {}  dTLB {}  barriers {}",
        stats.mem_order_traps, stats.tlb_traps, stats.mem_barriers
    );
    println!(
        "IQ occupancy          mean {:.1}  post-issue {:.1}  peak {}",
        stats.iq_occupancy_mean, stats.iq_post_issue_mean, stats.iq_peak
    );
    if stats.audit_checks > 0 || stats.faults_injected > 0 || stats.deadlocks_detected > 0 {
        println!(
            "hardening             audit checks {}  faults injected {} (flip/spike/miss {:?})  deadlocks {}",
            stats.audit_checks, stats.faults_injected, stats.faults_by_kind, stats.deadlocks_detected
        );
    }
}

/// Print a wall-clock stage profile, when `--profile-stages` recorded
/// one. Goes to stderr, like the sweep summary, so piped figure output
/// stays byte-identical.
fn emit_profile(label: &str, report: Option<StageReport>) {
    if let Some(rep) = report {
        eprintln!("[profile] {label}: {}", rep.render());
    }
}

/// Parse the execution-mode flag shared by `run` and `figure`:
/// `--sample SPEC`, or the detailed path without it.
fn mode_from_args(args: &Args, budget: RunBudget) -> Result<ExecMode, ArgError> {
    Ok(match args.get("sample") {
        Some(spec) => ExecMode::Sampled(SamplingPlan::parse(spec, budget).map_err(ArgError)?),
        None => ExecMode::Detailed,
    })
}

/// Open one of the two stores kept in `--store-dir DIR`, the CLI's one
/// on-disk cache: finished runs (`*.llrs`, the result store) and warm-up
/// checkpoints (`*.llck`, the checkpoint store) live side by side in it.
/// `None` without `--store-dir`.
fn open_in_store_dir<S>(
    args: &Args,
    what: &str,
    open: impl FnOnce(&str) -> Result<S, StoreError>,
) -> Result<Option<S>, ArgError> {
    let Some(dir) = args.get("store-dir") else {
        return Ok(None);
    };
    open(dir)
        .map(Some)
        .map_err(|e| ArgError(format!("--store-dir {dir}: cannot open the {what}: {e}")))
}

/// The checkpoint store in `--store-dir`, if one was given.
fn checkpoint_store_from_args(args: &Args) -> Result<Option<CheckpointStore>, ArgError> {
    open_in_store_dir(args, "checkpoint store", |dir| CheckpointStore::open(dir))
}

/// Resolve `--bench NAME` / `--pair NAME` into a [`Workload`].
fn workload_from_flags(args: &Args) -> Result<Workload, ArgError> {
    if let Some(name) = args.get("bench") {
        Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .map(Workload::Single)
            .ok_or_else(|| {
                ArgError(format!(
                    "unknown benchmark `{name}` — see `looseloops list`"
                ))
            })
    } else if let Some(name) = args.get("pair") {
        Benchmark::pairs()
            .into_iter()
            .find(|p| p.name() == name)
            .map(Workload::Pair)
            .ok_or_else(|| ArgError(format!("unknown pair `{name}` — see `looseloops list`")))
    } else {
        Err(ArgError("need --bench or --pair".into()))
    }
}

/// `looseloops run`
pub fn run(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&[
        "bench",
        "pair",
        "asm",
        "verify",
        "trace",
        "json",
        "sample",
        "store-dir",
        "profile-stages",
    ]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let profile = args.has("profile-stages");

    let mode = mode_from_args(args, budget)?;
    if let ExecMode::Sampled(plan) = mode {
        for incompatible in ["asm", "verify", "trace"] {
            if args.has(incompatible) {
                return Err(ArgError(format!(
                    "--{incompatible} runs the detailed path only; drop --sample"
                )));
            }
        }
        let workload = workload_from_flags(args)?;
        let store = checkpoint_store_from_args(args)?;
        let job = Job::new(cfg, workload, budget);
        let run = run_sampled(&job, plan, store.as_ref(), &WarmMemo::default(), profile)
            .map_err(|e| ArgError(e.to_string()))?;
        let label = workload.name();
        let json = args.has("json");
        if !json {
            println!(
                "== {label} (sampled: {} windows of {} detailed instrs) ==",
                plan.windows, plan.detail
            );
        }
        print_stats(&run.stats, json);
        if !json {
            println!("sampling              {}", run.error_bar());
        }
        emit_profile(&label, run.profile.map(StageReport::calibrated));
        return Ok(());
    }
    if args.has("store-dir") {
        // The detailed path has no warm-up checkpoint to keep.
        return Err(ArgError("--store-dir needs --sample".into()));
    }

    // The workload sets the thread count; an assembly file runs one.
    let (cfg, programs, label) = if args.has("bench") || args.has("pair") {
        let workload = workload_from_flags(args)?;
        (
            workload.config_for(&cfg),
            workload.programs(),
            workload.name(),
        )
    } else if let Some(path) = args.get("asm") {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let prog = looseloops_isa::asm::assemble_named(path, &src)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        (cfg, vec![prog], path.to_string())
    } else {
        return Err(ArgError("run needs --bench, --pair, or --asm".into()));
    };

    let mut m = Machine::new(cfg, programs).map_err(|e| ArgError(e.to_string()))?;
    if profile {
        m.enable_profile();
    }
    if args.has("verify") {
        m.enable_verification();
    }
    if args.get("trace").is_some() {
        m.enable_trace();
    }
    if budget.warmup > 0 {
        m.run(budget.warmup, budget.max_cycles)
            .map_err(|e| ArgError(e.to_string()))?;
        m.reset_stats();
        // Tracing starts after warm-up.
        if args.get("trace").is_some() {
            let _ = m.take_trace();
            m.enable_trace();
        }
    }
    m.run(budget.measure, budget.max_cycles)
        .map_err(|e| ArgError(e.to_string()))?;

    if !args.has("json") {
        println!("== {label} ==");
    }
    print_stats(m.stats(), args.has("json"));
    if let Some(path) = args.get("trace") {
        std::fs::write(path, m.take_trace())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        if !args.has("json") {
            println!("trace written to {path}");
        }
    }
    emit_profile(&label, m.profile().map(|p| p.calibrated()));
    Ok(())
}

/// Parse `--workloads a,b,c` (default: the full paper set).
fn workloads_from_args(args: &Args) -> Result<Vec<Workload>, ArgError> {
    match args.get("workloads") {
        None => Ok(Workload::paper_set()),
        Some(list) => list
            .split(',')
            .map(|n| {
                Workload::paper_set()
                    .into_iter()
                    .find(|w| w.name() == n)
                    .ok_or_else(|| ArgError(format!("unknown workload `{n}`")))
            })
            .collect(),
    }
}

/// `--jobs N`; 0 or absent means every core of the machine.
fn jobs_from_args(args: &Args) -> Result<usize, ArgError> {
    Ok(match args.get_or("jobs", 0)? {
        0 => looseloops::default_jobs(),
        n => n,
    })
}

/// Build a sweep engine from `--jobs N` executing under `mode`, with
/// both stores of `--store-dir` attached when it is given. The engine
/// keeps finished runs in the result store always, and reads the
/// checkpoint store only when `mode` samples. `--profile-stages`
/// (where the command takes it) turns on the engine's stage profile.
fn sweep_from_args(args: &Args, mode: ExecMode) -> Result<SweepEngine, ArgError> {
    let workers = jobs_from_args(args)?;
    let results = open_in_store_dir(args, "result store", |dir| ResultStore::open(dir))?;
    let ckpts = checkpoint_store_from_args(args)?;
    let mut sweep = SweepEngine::with_stores(workers, mode, ckpts, results);
    if args.has("profile-stages") {
        sweep.enable_profile();
    }
    Ok(sweep)
}

/// `looseloops figure`
pub fn figure(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&[
        "smoke",
        "json-out",
        "workloads",
        "jobs",
        "stacks",
        "sample",
        "store-dir",
        "profile-stages",
    ]);
    args.reject_unknown(&allowed)?;
    let known = || format!("{}, all", FigureSpec::ids().collect::<Vec<_>>().join(", "));
    let id = args
        .positional()
        .first()
        .ok_or_else(|| ArgError(format!("figure needs an id ({})", known())))?;
    let mut budget = budget_from_args(args)?;
    if args.has("smoke") {
        budget = RunBudget {
            warmup: 1_000,
            measure: 5_000,
            max_cycles: 2_000_000,
        };
    }
    let workloads = workloads_from_args(args)?;
    let ids: Vec<&str> = if id == "all" {
        if args.get("json-out").is_some() {
            return Err(ArgError(
                "--json-out applies to a single figure, not `all`".into(),
            ));
        }
        FigureSpec::ids().collect()
    } else {
        vec![id]
    };
    let specs = ids
        .iter()
        .map(|fid| {
            FigureSpec::for_id(fid, &workloads, budget)
                .ok_or_else(|| ArgError(format!("unknown figure `{fid}` (known: {})", known())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mode = mode_from_args(args, budget)?;
    let sweep = sweep_from_args(args, mode)?;
    // `all` runs every figure on one engine, so overlapping grids (the
    // base machine appears in several figures) simulate once. With
    // --stacks, each figure's per-loop CPI stacks are rendered from the
    // same results and appended after the figure itself.
    let mut last = None;
    for (fid, spec) in ids.iter().zip(&specs) {
        let before = sweep.summary().profile;
        let results = sweep.run_jobs(&spec.jobs());
        let fig = spec.render(&results);
        print!("{fig}");
        if args.has("stacks") {
            print!("{}", spec.render_stacks(&results));
        }
        // What this figure's own simulations cost; none when every job
        // was answered from a cache.
        let own = sweep
            .summary()
            .profile
            .zip(before)
            .map(|(a, b)| a.since(&b));
        emit_profile(fid, own.filter(|r| r.stepped_cycles > 0));
        last = Some(fig);
    }
    eprintln!("[sweep] {}", sweep.summary().line());
    if let (Some(path), Some(fig)) = (args.get("json-out"), last) {
        std::fs::write(path, fig.to_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("(json written to {path})");
    }
    Ok(())
}

/// `looseloops loops` (and `looseloops loops attribute`)
pub fn loops(args: &Args) -> Result<(), ArgError> {
    if args.positional().first().map(String::as_str) == Some("attribute") {
        return loops_attribute(args);
    }
    // `loop_inventory` reads only the scheme and the pipe lengths.
    args.reject_unknown(&["scheme", "rf", "dec", "ex"])?;
    let cfg = config_from_args(args)?;
    println!(
        "machine: DEC-IQ={} IQ-EX={} RF-read={} scheme={:?}",
        cfg.dec_iq_stages, cfg.iq_ex_stages, cfg.rf_read_latency, cfg.scheme
    );
    for l in loop_inventory(&cfg) {
        println!("  {l}");
    }
    Ok(())
}

/// `looseloops loops attribute` — run the configured machine over the
/// workloads and print its per-loop CPI stack: where every lost retire
/// slot went, one column per loop-cost component, components summing to
/// the measured CPI.
fn loops_attribute(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&["workloads", "jobs", "store-dir"]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let workloads = workloads_from_args(args)?;
    let sweep = sweep_from_args(args, ExecMode::Detailed)?;
    let label = format!(
        "{}:{}_{}",
        if cfg.scheme.is_dra() { "dra" } else { "base" },
        cfg.dec_iq_stages,
        cfg.iq_ex_stages
    );
    // Only the id, the grid and the budget reach the stacks.
    let spec = FigureSpec {
        id: "loops-attribute".into(),
        title: String::new(),
        paper_expectation: String::new(),
        configs: vec![(label, cfg.clone())],
        workloads,
        budget,
        kind: FigureKind::Speedup,
    };
    print!("{}", spec.render_stacks(&sweep.run_jobs(&spec.jobs())));
    println!("loops charged:");
    for l in loop_inventory(&cfg) {
        if let Some(c) = l.cpi_component() {
            println!("  {:<18} <- {l}", c.name());
        }
    }
    println!(
        "conservation: every cycle's {} retire slots are either used by a retiring \
         instruction or charged to exactly one component (enforced by the invariant \
         auditor under --audit)",
        cfg.width
    );
    eprintln!("[sweep] {}", sweep.summary().line());
    Ok(())
}

/// `looseloops asm` — assemble a file and report its size; `--disasm`
/// round-trips it. `run --asm FILE` simulates it.
pub fn asm(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["disasm"])?;
    let path = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("asm needs a source file".into()))?;
    let src =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let prog = looseloops_isa::asm::assemble_named(path, &src)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: {} instructions, {} data chunks",
        prog.len(),
        prog.init_data.len()
    );
    if args.has("disasm") {
        print!("{}", looseloops_isa::disassemble(&prog));
    }
    Ok(())
}

/// `looseloops kernel` — inspect a benchmark proxy's generated code.
pub fn kernel(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["disasm"])?;
    let name = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("kernel needs a benchmark name — see `looseloops list`".into()))?;
    let b = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| ArgError(format!("unknown benchmark `{name}`")))?;
    let prog = b.program();
    println!("{name}: {}", b.description());
    println!(
        "{} instructions, {} data chunks ({} bytes of initial data)",
        prog.len(),
        prog.init_data.len(),
        prog.init_data.iter().map(|(_, b)| b.len()).sum::<usize>()
    );
    if args.has("disasm") {
        print!("{}", looseloops_isa::disassemble(&prog));
    }
    Ok(())
}

/// `looseloops list`
pub fn list(_args: &Args) -> Result<(), ArgError> {
    println!("benchmarks (Spec95 proxies):");
    for b in Benchmark::all() {
        println!(
            "  {:<10} {:<4} {}",
            b.name(),
            if b.is_int() { "int" } else { "fp" },
            b.description()
        );
    }
    println!("SMT pairs:");
    for p in Benchmark::pairs() {
        println!("  {}", p.name());
    }
    println!(
        "figures: {}",
        FigureSpec::ids().collect::<Vec<_>>().join(" ")
    );
    Ok(())
}

/// `looseloops checkpoint` — build (or report) the functional warm-up
/// checkpoint a workload's sweep points would share, and optionally
/// verify a detailed resume from it against the ISA oracle. With
/// `--store-dir DIR` the checkpoint is loaded from, or saved to, DIR;
/// without it, it is captured in memory and saved nowhere.
pub fn checkpoint(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&["bench", "pair", "store-dir", "verify"]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let workload = workload_from_flags(args)?;
    let store = checkpoint_store_from_args(args)?;

    let wcfg = workload.config_for(&cfg);
    let key = warm_key(&wcfg, &workload, budget.warmup);
    let digest = fnv1a64(key.as_bytes());
    // A stored checkpoint is loaded and left as it is; a missing or
    // unusable one is captured and saved, which replaces the file.
    let job = Job::new(cfg, workload, budget);
    let memo = WarmMemo::default();
    let ckpt = looseloops::checkpoint::warm_checkpoint(&job, store.as_ref(), &memo)
        .map_err(|e| ArgError(e.to_string()))?;
    let counts = memo.counts();
    if counts.regenerated.total() > 0 {
        eprintln!(
            "warning: checkpoint {digest:016x}: the stored copy is unusable ({}); regenerating",
            counts.regenerated.causes()
        );
    }
    if counts.save_failures > 0 {
        eprintln!("warning: cannot save checkpoint {digest:016x}");
    }
    let already_stored = counts.loaded > 0;

    println!(
        "{} after {} functional warm-up instruction(s)",
        workload.name(),
        ckpt.instructions
    );
    println!(
        "digest     {digest:016x}{}",
        if already_stored {
            "  (already stored)"
        } else {
            ""
        }
    );
    let bytes = ckpt.encode(&key).len();
    match &store {
        Some(s) => println!("file       {} ({bytes} bytes)", s.path(digest).display()),
        None => println!("file       none, in memory only ({bytes} bytes)"),
    }
    if let Some(s) = store.as_ref().filter(|s| s.stale_removed() > 0) {
        println!("store      {} stale checkpoints removed", s.stale_removed());
    }
    let h = &ckpt.hier;
    let p = &ckpt.predictor;
    println!(
        "contents   {} thread(s), {} memory page(s), {} cache line(s), {} predictor counter(s), {} BTB entr(ies)",
        ckpt.threads.len(),
        ckpt.mem.pages_touched(),
        h.l1i.tags().len() + h.l1d.tags().len() + h.l2.tags().len(),
        p.counters().len() + p.local_counters().len(),
        ckpt.btb.entries().len()
    );

    if args.has("verify") {
        let check = budget.measure.clamp(1_000, 20_000);
        let mut m = Machine::new(wcfg, workload.programs()).map_err(|e| ArgError(e.to_string()))?;
        restore_into(&mut m, &ckpt).map_err(|e| ArgError(e.to_string()))?;
        m.enable_verification();
        m.run(check, budget.max_cycles)
            .map_err(|e| ArgError(format!("resume verification failed: {e}")))?;
        println!(
            "verify     ok — detailed resume matched the ISA oracle for {} instruction(s)",
            m.stats().total_retired()
        );
    }
    Ok(())
}

/// `looseloops fuzz`
pub fn fuzz(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[
        "seeds",
        "start",
        "jobs",
        "budget",
        "profile",
        "replay",
        "write-corpus",
        "no-shrink",
    ])?;

    // Replay mode: re-run every checked-in reproducer and fail on any
    // divergence.
    if let Some(dir) = args.get("replay") {
        let entries = looseloops_fuzz::corpus::load_dir(std::path::Path::new(dir))
            .map_err(|e| ArgError(format!("corpus: {e}")))?;
        let mut failed = 0;
        for entry in &entries {
            let out = looseloops_fuzz::run_case(&entry.case);
            match out.finding {
                None => println!(
                    "ok   {:<40} ({} retired, recorded: {})",
                    entry.name, out.retired, entry.recorded_finding
                ),
                Some(f) => {
                    println!("FAIL {:<40} {f}", entry.name);
                    failed += 1;
                }
            }
        }
        println!(
            "replayed {} corpus entr(ies), {failed} failure(s)",
            entries.len()
        );
        if failed > 0 {
            return Err(ArgError(format!("{failed} corpus entr(ies) diverged")));
        }
        return Ok(());
    }

    let profile = match args.get("profile") {
        None => None,
        Some(name) => Some(looseloops_fuzz::GenProfile::from_name(name).ok_or_else(|| {
            ArgError(format!(
                "unknown profile `{name}` (try: {})",
                looseloops_fuzz::GenProfile::all()
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?),
    };
    let opts = looseloops_fuzz::CampaignOpts {
        start: args.get_or("start", 0u64)?,
        seeds: args.get_or("seeds", 100u64)?,
        jobs: jobs_from_args(args)?,
        profile,
        shrink: !args.has("no-shrink"),
        budget: args
            .get("budget")
            .map(|b| {
                b.parse::<u64>()
                    .map_err(|_| ArgError(format!("bad --budget `{b}`")))
            })
            .transpose()?,
    };
    let report = looseloops_fuzz::run_campaign(&opts);
    print!("{report}");

    if let Some(dir) = args.get("write-corpus") {
        let dir = std::path::Path::new(dir);
        for fail in &report.failures {
            if let Some((case, finding)) = &fail.shrunk {
                let name = format!("fuzz-seed-{:04x}", fail.seed);
                let path = looseloops_fuzz::save_entry(dir, &name, case, finding)
                    .map_err(|e| ArgError(format!("corpus: {e}")))?;
                println!("wrote {}", path.display());
            }
        }
    }
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "{} differential failure(s) in {} case(s)",
            report.failures.len(),
            report.cases
        )))
    }
}
