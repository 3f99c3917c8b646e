//! `looseloops` — command-line front end to the *Loose Loops Sink Chips*
//! reproduction.
//!
//! ```text
//! looseloops run --bench swim --scheme dra --rf 5 --measure 200000
//! looseloops run --asm kernel.s --verify --trace out.kanata
//! looseloops figure fig8 --measure 100000
//! looseloops loops --scheme dra --rf 7
//! looseloops asm kernel.s --disasm
//! looseloops list
//! ```

use args::Args;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Write to standard output; every command prints through here. A closed
/// pipe (`looseloops … | head`) ends the process quietly with status 0,
/// as any filter whose reader has gone; any other write error ends it
/// with status 1.
fn write_stdout(text: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod config;

const USAGE: &str = "\
looseloops — 'Loose Loops Sink Chips' (HPCA 2002) reproduction

USAGE:
    looseloops <command> [flags]

COMMANDS:
    run      Simulate a workload and print statistics
             --bench NAME | --pair NAME | --asm FILE  (what to run; a
             pair runs two threads, everything else one)
             --scheme base|dra  --rf N  --dec X  --ex Y
             --policy tree|shadow|stall|refetch
             --predictor tournament|gshare|local|bimodal|taken
             (the keys of a fuzz corpus `config:` line but threads,
             which the workload sets)
             --warmup N  --measure N  --max-cycles N
             --verify  --trace FILE  --json
             --audit  (per-cycle invariant auditor)
             --watchdog N  (deadlock window in cycles, 0 = off)
             --inject seed=N,branch=RATE,load=RATE[:CYCLES],operand=RATE,
             window=A:B  (fault storm, every key optional, seed 1 by
             default; a fuzz corpus `faults:` line is the same spec)
             --sample auto|w=N,detail=N,warm=N  (functional warm-up, then
             interval sampling with a CPI error bar; the gap between
             windows follows from the budget; the one-window plan
             w=1,warm=0,detail=<measure> is plain fast-forwarding)
             --store-dir DIR  (keep warm-up checkpoints in DIR for reuse
             across processes; needs --sample)
             --profile-stages  (wall-clock per-stage breakdown of the
             simulator itself from 1 stepped cycle in 64, scaled up and
             printed to stderr with the measured timer cost; simulated
             results are byte-identical with or without it)
    figure   Regenerate the paper's evaluation figures
             fig4|fig5|fig6|fig8|fig9|load-policy|dra-design|fwd-window|
             iq-size|prefetch|predictor|all  (`all` shares one run cache;
             the ablations also answer to ablation-ID)
             --workloads a,b,c  (default: the 13 paper workloads)
             --warmup N  --measure N  --smoke  --json-out FILE
             --jobs N  (sweep workers; default all cores)
             --stacks  (append each figure's per-loop CPI stacks; reuses
             the figure's own memoized runs)
             --sample SPEC  (as in `run`; sampled figures report
             estimates, detailed stays the reference)
             --store-dir DIR  (the one on-disk cache: finished runs are
             reused across processes, and so are warm-up checkpoints
             under --sample; the [sweep] line on stderr counts entries
             it could not use, by cause)
             --profile-stages  (per-figure wall-clock stage breakdown)
             --audit  (every grid machine under the per-cycle invariant
             auditor; the figure table fixes the machines, so no other
             machine flag applies)
    checkpoint
             Build or inspect the functional warm-up checkpoint a
             workload's sweep points share
             --bench NAME | --pair NAME
             --store-dir DIR  (load it from DIR, or save it there; without
             it the checkpoint is built in memory and not saved)
             --verify  (restore + detailed resume against the ISA oracle)
             (plus config/budget flags; --warmup sets the warm-up length)
    loops    Print the micro-architectural loop inventory for a config
             --scheme base|dra  --rf N  --dec X  --ex Y  (no other flags)
    loops attribute
             Per-loop CPI stacks for a config over workloads: each lost
             retire slot charged to the loop that caused it, components
             summing to the measured CPI
             --workloads a,b,c  --jobs N  (plus config/budget flags)
    fuzz     Differential fuzzing: generated programs run through both the
             timing pipeline and the ISA oracle; any divergence in retire
             streams, final state or memory is a failure (shrunk by default)
             --seeds N  --start N  --jobs N  --budget CYCLES
             --profile branch|memory|chain|barrier|frontend|fp|mixed
             --no-shrink  --write-corpus DIR
             --replay DIR  (re-run checked-in reproducers, fail on drift)
    asm      Assemble a .s file; --disasm round-trips it, `run --asm` runs it
    kernel   Inspect a benchmark proxy (NAME [--disasm])
    list     List benchmarks, SMT pairs, and figures
    help     This text
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cmd = raw.first().cloned().unwrap_or_else(|| "help".into());
    let rest = raw.into_iter().skip(1);
    let value_flags: Vec<&str> = [
        "bench",
        "pair",
        "asm",
        "trace",
        "json-out",
        "workloads",
        "jobs",
        "scheme",
        "rf",
        "dec",
        "ex",
        "policy",
        "predictor",
        "warmup",
        "measure",
        "max-cycles",
        "watchdog",
        "inject",
        "seeds",
        "start",
        "budget",
        "profile",
        "replay",
        "write-corpus",
        "sample",
        "store-dir",
    ]
    .to_vec();
    let args = match Args::parse(rest, &value_flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match cmd.as_str() {
        "run" => commands::run(&args),
        "figure" => commands::figure(&args),
        "loops" => commands::loops(&args),
        "fuzz" => commands::fuzz(&args),
        "checkpoint" => commands::checkpoint(&args),
        "asm" => commands::asm(&args),
        "kernel" => commands::kernel(&args),
        "list" => commands::list(&args),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(())
        }
        other => Err(args::ArgError(format!(
            "unknown command `{other}` — try `looseloops help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
