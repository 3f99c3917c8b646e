//! SMT throughput: run the paper's three two-thread pairings and compare
//! combined throughput against each member running alone — the paper's
//! observation that multi-threading dampens loose-loop losses because the
//! other thread keeps doing useful work during a recovery.
//!
//! ```text
//! cargo run --release --example smt_throughput [instructions]
//! ```

use looseloops::{Benchmark, PipelineConfig, RunBudget, SimError, Workload};

fn main() -> Result<(), SimError> {
    let measure: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let budget = RunBudget {
        warmup: measure / 2,
        measure,
        max_cycles: 100_000_000,
    };
    // The workload sets the thread count: one for a member, two for the pair.
    let base = PipelineConfig::base();

    println!(
        "{:>20} {:>10} {:>10} {:>12} {:>12}",
        "pair", "ipc(a)", "ipc(b)", "ipc(a+b|smt)", "smt gain"
    );
    for pair in Benchmark::pairs() {
        let a = Workload::Single(pair.0).try_run(&base, budget)?.ipc();
        let b = Workload::Single(pair.1).try_run(&base, budget)?.ipc();
        let both = Workload::Pair(pair).try_run(&base, budget)?;
        let combined = both.ipc();
        // Throughput gain over time-slicing the two programs on one thread
        // (harmonic-mean baseline).
        let timeslice = 2.0 / (1.0 / a + 1.0 / b);
        println!(
            "{:>20} {:>10.3} {:>10.3} {:>12.3} {:>11.1}%",
            pair.name(),
            a,
            b,
            combined,
            (combined / timeslice - 1.0) * 100.0
        );
    }
    println!();
    println!("SMT shares the pipeline's loose-loop recovery bubbles between");
    println!("threads: while one thread squashes, the other issues.");
    Ok(())
}
