//! End-to-end CLI tests: spawn the built binary and check its behaviour.

use std::process::Command;

fn looseloops(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_looseloops"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = looseloops(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("figure"));
}

#[test]
fn list_names_everything() {
    let out = looseloops(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["compress", "turb3d", "apsi-swim", "fig8"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn run_bench_reports_stats() {
    let out = looseloops(&[
        "run",
        "--bench",
        "m88ksim",
        "--warmup",
        "1000",
        "--measure",
        "5000",
        "--verify",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC"));
    assert!(text.contains("operand sources"));
}

#[test]
fn run_json_is_parseable_shape() {
    let out = looseloops(&[
        "run",
        "--bench",
        "go",
        "--warmup",
        "500",
        "--measure",
        "3000",
        "--json",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
    assert!(text.contains("\"ipc\""));
}

#[test]
fn asm_assembles_runs_and_disassembles() {
    let dir = std::env::temp_dir();
    let path = dir.join("looseloops_cli_test.s");
    std::fs::write(
        &path,
        "addi r1, r31, 3\ntop:\nsubi r1, r1, 1\nbne r1, top\nhalt\n",
    )
    .unwrap();
    let out = looseloops(&["asm", path.to_str().unwrap(), "--run", "--disasm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("halted: true"));
    assert!(text.contains("subi r1, r1, 1"));
}

#[test]
fn figure_smoke_runs() {
    let out = looseloops(&["figure", "fig6", "--smoke"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig6"));
}

#[test]
fn loops_inventory_prints() {
    let out = looseloops(&["loops", "--scheme", "dra", "--rf", "7"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("operand resolution"));
    assert!(text.contains("load resolution"));
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
}

#[test]
fn trace_file_is_written() {
    let path = std::env::temp_dir().join("looseloops_cli_trace.kanata");
    let _ = std::fs::remove_file(&path);
    let out = looseloops(&[
        "run",
        "--bench",
        "go",
        "--warmup",
        "200",
        "--measure",
        "1500",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.starts_with("Kanata\t0004"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn figure_store_dir_makes_the_second_run_simulation_free() {
    let dir = std::env::temp_dir().join(format!("looseloops-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "figure",
        "fig6",
        "--smoke",
        "--jobs",
        "2",
        "--store-dir",
        dir.to_str().unwrap(),
    ];

    let cold = looseloops(&args);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let warm = looseloops(&args);
    assert!(warm.status.success());

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
fn unusable_store_dir_is_reported_as_the_result_store() {
    let file = std::env::temp_dir().join(format!("looseloops-cli-notadir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();
    let out = looseloops(&[
        "figure",
        "fig6",
        "--smoke",
        "--store-dir",
        file.to_str().unwrap(),
    ]);
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
    let short = looseloops(&["figure", "load-policy", "--smoke"]);
    assert!(
        short.status.success(),
        "{}",
        String::from_utf8_lossy(&short.stderr)
    );
    let canonical = looseloops(&["figure", "ablation-load-policy", "--smoke"]);
    assert!(
        canonical.status.success(),
        "{}",
        String::from_utf8_lossy(&canonical.stderr)
    );
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
    for id in looseloops::FigureSpec::IDS {
        assert!(err.contains(id), "error must name `{id}`: {err}");
    }
}

#[test]
fn kernel_inspection_disassembles() {
    let out = looseloops(&["kernel", "go", "--disasm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("go:"));
    assert!(text.contains("bne"), "go's disassembly has branches");
}
