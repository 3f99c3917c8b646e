//! A miniature of the paper's Figure 4/5 studies: sweep the DEC-IQ/IQ-EX
//! latencies on a couple of workloads and print each figure's relative
//! IPC, then the per-loop CPI stacks behind it.
//!
//! The grids are the registry's own (`FigureSpec::for_id("fig4")` and
//! `"fig5"`), run on one [`SweepEngine`]: all `configs × workloads` points
//! execute on a worker pool (all cores). Each table is relative to its
//! figure's first machine: 3_3 for Figure 4 and 3_9 for Figure 5.
//!
//! ```text
//! cargo run --release --example pipeline_sweep [instructions]
//! ```

use looseloops::{Benchmark, FigureSpec, RunBudget, SweepEngine, Workload};

fn main() {
    let measure: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let budget = RunBudget {
        warmup: measure / 4,
        measure,
        max_cycles: 100_000_000,
    };
    let workloads: Vec<Workload> = [Benchmark::Go, Benchmark::Swim, Benchmark::Hydro2d]
        .into_iter()
        .map(Workload::Single)
        .collect();
    let sweep = SweepEngine::new(0);

    for id in ["fig4", "fig5"] {
        let spec = FigureSpec::for_id(id, &workloads, budget).expect("a registry figure");
        let results = sweep.run_jobs(&spec.jobs());
        print!("{}", spec.render(&results));
        print!("{}", spec.render_stacks(&results));
        println!();
    }
    println!("go is limited by the branch-resolution loop (whole-pipe length),");
    println!("swim by the load-resolution loop (IQ-EX only), and hydro2d by");
    println!("main memory (neither) — the paper's 'not all pipelines are");
    println!("created equal' result.");
    println!();
    println!("sweep: {}", sweep.summary().line());
}
