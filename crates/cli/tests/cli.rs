//! End-to-end CLI tests: spawn the built binary and check its behaviour.

use std::process::Command;

fn looseloops(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_looseloops"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// `line` split at its spaces: an argument list without paths.
fn argv(line: &str) -> Vec<&str> {
    line.split(' ').collect()
}

/// The standard output of a run that must succeed.
fn stdout(args: &[&str]) -> String {
    String::from_utf8_lossy(&ok(args).stdout).into_owned()
}

/// The output of a run that must succeed.
fn ok(args: &[&str]) -> std::process::Output {
    let out = looseloops(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn help_prints_usage() {
    let text = stdout(&["help"]);
    assert!(text.contains("USAGE"));
    assert!(text.contains("figure"));
}

#[test]
fn help_names_every_figure_id() {
    let text = stdout(&["help"]);
    for id in looseloops::FigureSpec::ids() {
        assert!(text.contains(id), "help must name `{id}`");
    }
}

#[test]
fn list_names_everything() {
    let text = stdout(&["list"]);
    for name in ["compress", "turb3d", "apsi-swim", "fig8"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn run_bench_reports_stats() {
    let run = "run --bench m88ksim --warmup 1000 --measure 5000 --verify";
    let text = stdout(&argv(run));
    assert!(text.contains("IPC"));
    assert!(text.contains("operand sources"));
}

#[test]
fn run_json_is_parseable_shape() {
    let text = stdout(&argv("run --bench go --warmup 500 --measure 3000 --json"));
    assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
    // Every counter prints, the memory hierarchy's included.
    for key in [
        "\"ipc\"",
        "\"fetched\"",
        "\"squashed\"",
        "\"l1d_hits\"",
        "\"l1d_misses\"",
    ] {
        assert!(text.contains(key), "{key} missing: {text}");
    }
}

#[test]
fn asm_disassembles_and_run_asm_simulates_to_the_halt() {
    let path = std::env::temp_dir().join(format!("looseloops_cli_{}.s", std::process::id()));
    let src = "addi r1, r31, 3\ntop:\nsubi r1, r1, 1\nbne r1, top\nhalt\n";
    std::fs::write(&path, src).unwrap();
    let file = path.to_str().unwrap();
    let text = stdout(&["asm", file, "--disasm"]);
    assert!(text.contains("4 instructions") && text.contains("subi r1, r1, 1"));
    // addi, three subi/bne trips, halt: 8 retired, short of the budget.
    let mut run = vec!["run", "--asm", file];
    run.extend(argv("--verify --warmup 0 --measure 1000"));
    let text = stdout(&run);
    assert!(text.contains("instructions retired  8 [8]"), "{text}");
    let out = looseloops(&["asm", file, "--run"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --run"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_workload_sets_the_thread_count() {
    let out = looseloops(&argv("run --bench go --threads 2"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --threads"), "{err}");
    let text = stdout(&argv(
        "run --pair apsi-swim --warmup 500 --measure 3000 --json",
    ));
    let (_, list) = text.split_once("\"retired\": [").expect("retired");
    let list = &list[..list.find(']').unwrap()];
    let threads: Vec<u64> = list.split(", ").map(|n| n.parse().unwrap()).collect();
    assert!(
        threads.len() == 2 && threads.iter().all(|&n| n > 0),
        "{text}"
    );
}

#[test]
fn a_one_window_plan_is_the_fast_forwarded_run() {
    let spec = "--sample w=1,warm=0,detail=5000 --warmup 1000 --measure 5000";
    let text = stdout(&argv(&format!("run --bench compress {spec}")));
    assert!(text.contains("(1 windows)"), "{text}");
    let too_big = "figure fig6 --smoke --sample w=1,warm=0,detail=300000";
    let out = looseloops(&argv(too_big));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("300000") && err.contains("5000"), "{err}");
}

#[test]
fn the_auto_plan_follows_budgets_below_six_thousand() {
    let auto = "run --bench compress --sample auto --warmup 1000 --measure";
    let stats = |m| stdout(&argv(&format!("{auto} {m}")));
    let (short, long) = (stats(5000), stats(6000));
    assert!(short.contains("(8 windows)") && long.contains("(10 windows)"));
    assert_ne!(short, long);
}

#[test]
fn figure_smoke_runs() {
    assert!(stdout(&["figure", "fig6", "--smoke"]).contains("fig6"));
}

#[test]
fn loops_inventory_prints() {
    let text = stdout(&argv("loops --scheme dra --rf 7"));
    assert!(text.contains("operand resolution"));
    assert!(text.contains("load resolution"));
    let out = looseloops(&argv("loops --policy stall"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "loops ignores --policy");
    assert!(err.contains("unknown flag --policy"), "{err}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let out = looseloops(&["run"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bench"));

    let out = looseloops(&["run", "--bench", "nonesuch"]);
    assert!(!out.status.success());

    let out = looseloops(&["frobnicate"]);
    assert!(!out.status.success());

    let out = looseloops(&["run", "--bnech", "go"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // Only a sampled run has a checkpoint to keep.
    let out = looseloops(&argv("run --bench go --store-dir unused"));
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--store-dir needs --sample"), "{err}");
}

#[test]
fn trace_file_is_written() {
    let path = std::env::temp_dir().join("looseloops_cli_trace.kanata");
    let _ = std::fs::remove_file(&path);
    let mut args = argv("run --bench go --warmup 200 --measure 1500 --trace");
    args.push(path.to_str().unwrap());
    ok(&args);
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.starts_with("Kanata\t0004"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn figure_store_dir_makes_the_second_run_simulation_free() {
    let dir = scratch_dir("store");
    let mut args = argv("figure fig6 --smoke --jobs 2 --store-dir");
    args.push(dir.to_str().unwrap());

    let cold = ok(&args);
    let warm = ok(&args);

    assert_eq!(
        cold.stdout, warm.stdout,
        "store-served figures must be byte-identical"
    );
    let warm_log = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_log.contains("0 jobs run"),
        "warm store must simulate nothing: {warm_log}"
    );
    assert!(warm_log.contains("store hits"), "{warm_log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_of_an_older_format_costs_one_summary_line() {
    let dir = scratch_dir("old-store");
    let figures = "figure all --smoke --workloads compress,swim --jobs 2";
    let reference = ok(&argv(figures));
    let mut args = argv(figures);
    args.extend(["--store-dir", dir.to_str().unwrap()]);
    ok(&args);

    // Every entry as an LLRS version 1 file would carry it.
    let entries = files_with_extension(&dir, "llrs");
    for name in &entries {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
    }
    let skewed = ok(&args);
    assert_eq!(
        skewed.stdout, reference.stdout,
        "skewed entries re-simulate"
    );
    let log = String::from_utf8_lossy(&skewed.stderr);
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 1, "one summary line, not one per job: {log}");
    let n = entries.len();
    assert!(
        lines[0].starts_with(&format!("[sweep] {n} jobs run, ")),
        "{log}"
    );
    let misses = format!(" cache hits, {n} store misses ({n} version skew), ");
    assert!(lines[0].contains(&misses), "{log}");

    let warm = ok(&args);
    assert_eq!(warm.stdout, reference.stdout, "rewritten entries load");
    let log = String::from_utf8_lossy(&warm.stderr);
    assert!(log.starts_with("[sweep] 0 jobs run"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_store_dir_is_reported_as_the_result_store() {
    let file = std::env::temp_dir().join(format!("looseloops-cli-notadir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();
    let mut args = argv("figure fig6 --smoke --store-dir");
    args.push(file.to_str().unwrap());
    let out = looseloops(&args);
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--store-dir"),
        "error must name the flag: {err}"
    );
    assert!(err.contains("result store"), "{err}");
    assert!(!err.contains("checkpoint"), "not a checkpoint error: {err}");
}

#[test]
fn canonical_ablation_ids_print_what_the_short_ids_print() {
    let short = ok(&["figure", "load-policy", "--smoke"]);
    let canonical = ok(&["figure", "ablation-load-policy", "--smoke"]);
    assert_eq!(
        String::from_utf8_lossy(&canonical.stdout),
        String::from_utf8_lossy(&short.stdout)
    );
}

#[test]
fn unknown_figure_lists_every_known_id() {
    let out = looseloops(&["figure", "nonesuch", "--smoke"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown figure `nonesuch`"), "{err}");
    for id in looseloops::FigureSpec::ids() {
        assert!(err.contains(id), "error must name `{id}`: {err}");
    }
}

#[test]
fn kernel_inspection_disassembles() {
    let text = stdout(&["kernel", "go", "--disasm"]);
    assert!(text.contains("go:"));
    assert!(text.contains("bne"), "go's disassembly has branches");
}

/// A fresh scratch directory under the system temp dir, unique per test
/// and process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("looseloops-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Names of the files in `dir` with extension `ext`, sorted.
fn files_with_extension(dir: &std::path::Path, ext: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn stage_profile_goes_to_stderr_and_leaves_the_figure_unchanged() {
    let plain = ok(&["figure", "fig6", "--smoke"]);
    let profiled = ok(&argv("figure fig6 --smoke --profile-stages"));
    assert_eq!(plain.stdout, profiled.stdout);
    let err = String::from_utf8_lossy(&profiled.stderr);
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with("[profile]")).collect();
    assert_eq!(lines.len(), 1, "{err}");
    assert!(lines[0].starts_with("[profile] fig6: stepped "), "{err}");
    assert!(!String::from_utf8_lossy(&plain.stderr).contains("[profile]"));
}

#[test]
fn checkpoint_is_saved_to_the_store_dir_and_found_there_again() {
    let dir = scratch_dir("checkpoint");
    let d = dir.to_str().unwrap();
    let mut args = argv("checkpoint --bench compress --verify --store-dir");
    args.push(d);
    let first = ok(&args);
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(text.contains("verify     ok"), "{text}");
    assert!(!text.contains("already stored"), "{text}");
    assert_eq!(files_with_extension(&dir, "llck").len(), 1);

    let second = ok(&["checkpoint", "--bench", "compress", "--store-dir", d]);
    let text = String::from_utf8_lossy(&second.stdout);
    assert!(text.contains("already stored"), "{text}");

    // A corrupt file is captured again, not reported as stored.
    let file = dir.join(&files_with_extension(&dir, "llck")[0]);
    std::fs::write(&file, b"LLCK").unwrap();
    let third = ok(&["checkpoint", "--bench", "compress", "--store-dir", d]);
    let text = String::from_utf8_lossy(&third.stdout);
    assert!(!text.contains("already stored"), "{text}");
    assert!(String::from_utf8_lossy(&third.stderr).contains("regenerating"));
    assert_ne!(std::fs::read(&file).unwrap(), b"LLCK");

    // Without --store-dir nothing is saved anywhere.
    let memory_only = ok(&["checkpoint", "--bench", "compress"]);
    let text = String::from_utf8_lossy(&memory_only.stdout);
    assert!(text.contains("in memory only"), "{text}");
    assert!(!text.contains("already stored"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampled_figure_keeps_results_and_checkpoints_in_one_store_dir() {
    let dir = scratch_dir("sampled-store");
    let d = dir.to_str().unwrap();
    let smoke = ["figure", "predictor", "--smoke", "--sample", "auto"];
    let longer = argv("figure predictor --sample auto --warmup 1000 --measure 6000");
    let with_store = |base: &[&str]| {
        let mut args = base.to_vec();
        args.extend(["--store-dir", d]);
        ok(&args)
    };

    let reference = ok(&smoke);
    let cold = with_store(&smoke);
    assert_eq!(cold.stdout, reference.stdout, "cold store");
    let checkpoints = files_with_extension(&dir, "llck");
    let results = files_with_extension(&dir, "llrs");
    assert!(!checkpoints.is_empty() && !results.is_empty());

    let warm = with_store(&smoke);
    assert_eq!(warm.stdout, reference.stdout, "warm store");
    let log = String::from_utf8_lossy(&warm.stderr);
    assert!(log.contains("0 jobs run"), "{log}");

    // Same warm-up, longer measurement: every result misses, every
    // checkpoint loads. A capture would have rewritten its file.
    let modified = |names: &[String]| -> Vec<std::time::SystemTime> {
        names
            .iter()
            .map(|n| std::fs::metadata(dir.join(n)).unwrap().modified().unwrap())
            .collect()
    };
    let before = modified(&checkpoints);
    let longer_reference = ok(&longer);
    let longer_stored = with_store(&longer);
    assert_eq!(longer_stored.stdout, longer_reference.stdout, "longer run");
    let log = String::from_utf8_lossy(&longer_stored.stderr);
    assert!(!log.contains("store hits"), "results must miss: {log}");
    let loaded = format!("{} checkpoints loaded", checkpoints.len());
    assert!(log.contains(&loaded), "{log}");
    assert!(!log.contains("captured"), "{log}");
    assert_eq!(files_with_extension(&dir, "llck"), checkpoints);
    assert_eq!(
        modified(&checkpoints),
        before,
        "checkpoints were recaptured"
    );
    assert_eq!(
        files_with_extension(&dir, "llrs").len(),
        2 * results.len(),
        "one new result per job"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
