//! `perfbench`: the looseloops performance benchmark.
//!
//! ```text
//! perfbench --workload detailed-grid|sampled-all|warm-rerun
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --reference                # regenerate reference/*.tsv
//! ```
//!
//! Run it from the repository root (normally through `perfbench/run.py`,
//! which builds it and adds `peak_rss_mb`). Human-readable lines go to
//! stderr. On stdout, a `budget {...}` line gives the workload's run
//! budget, and the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the per-layer ones, and the spans
//! are written to `perfbench/out/trace-<workload>-seed<N>.jsonl`.

mod layers;
mod micro;
mod pins;
mod reference;
mod replay;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench --reference";

/// Work directories and trace files live here, inside the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        reference: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                };
            }
            "--reference" => a.reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

fn budget_json(b: looseloops::RunBudget) -> String {
    format!(
        "{{\"warmup\": {}, \"measure\": {}, \"max_cycles\": {}}}",
        b.warmup, b.measure, b.max_cycles
    )
}

/// The result line. Non-finite values cannot occur in a valid run; they
/// are written as 0 rather than as invalid JSON.
fn result_json(out: &workloads::Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        metrics.join(", ")
    )
}

fn report(name: &str, a: &Args, out: &workloads::Outcome) {
    eprintln!(
        "perfbench {name} seed={} trace={}",
        a.seed,
        u8::from(a.trace)
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    let tags: std::collections::HashMap<&str, &str> =
        layers::CATALOG.iter().map(|&(n, _, t)| (n, t)).collect();
    for (metric, v, unit) in &out.metrics {
        match tags.get(metric) {
            Some(tag) => eprintln!("  {metric:<28} {v:>16.4} {unit:<9} -> {tag}"),
            None => eprintln!("  {metric:<28} {v:>16.4} {unit}"),
        }
    }
    let failed = out.failures.len() as f64;
    eprintln!(
        "  {:<28} {:>16.4} fraction  ({} of {} failed)",
        "error_rate",
        failed / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    );
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("perfbench/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if a.reference {
        let done = reference::regenerate(Path::new("perfbench/reference"), &work);
        let _ = std::fs::remove_dir_all(&work);
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write the reference: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = a.workload.clone() else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(budget) = workloads::budget(&name) else {
        eprintln!(
            "perfbench: unknown workload `{name}` (known: {})",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let settings = workloads::Settings {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let out = workloads::run(&name, settings, &work);
    let _ = std::fs::remove_dir_all(&work);
    report(&name, &a, &out);
    if let Some(tr) = &out.spans {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{name}-seed{}.jsonl", a.seed));
        match std::fs::write(&path, tr.to_jsonl()) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  cannot write spans to {}: {e}", path.display()),
        }
    }
    println!("budget {}", budget_json(budget));
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
