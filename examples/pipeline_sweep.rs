//! A miniature of the paper's Figure 4/5 studies: sweep the DEC-IQ/IQ-EX
//! latencies on a couple of workloads and print relative IPC against the
//! base 3_3 machine.
//!
//! The grids run on the [`SweepEngine`]: all `configs × workloads` points
//! execute on a worker pool (all cores), and the
//! 3_3 baseline both tables normalize against is simulated exactly once —
//! the second sweep takes it from the engine's memo cache.
//!
//! ```text
//! cargo run --release --example pipeline_sweep [instructions]
//! ```

use looseloops_repro::core::{Benchmark, PipelineConfig, RunBudget, SweepEngine, Workload};

fn print_sweep(
    sweep: &SweepEngine,
    title: &str,
    latencies: [(u32, u32); 4],
    workloads: &[Workload],
    budget: RunBudget,
) {
    println!("-- {title} --");
    let mut header = format!("{:>10}", "");
    for (x, y) in latencies {
        header.push_str(&format!(" {:>8}", format!("{x}_{y}")));
    }
    println!("{header}");
    // First config is the 3_3 base machine every table normalizes against;
    // the engine dedups it when it also appears in `latencies`, and the
    // second table gets it from the memo cache.
    let configs: Vec<PipelineConfig> = std::iter::once((3, 3))
        .chain(latencies)
        .map(|(x, y)| PipelineConfig::base_with_latencies(x, y))
        .collect();
    let grid = sweep.run_grid(&configs, workloads, budget);
    for (w, workload) in workloads.iter().enumerate() {
        let baseline = grid[0][w].ipc();
        let mut row = format!("{:>10}", workload.name());
        for cfg_row in &grid[1..] {
            row.push_str(&format!(" {:>8.3}", cfg_row[w].ipc() / baseline));
        }
        println!("{row}");
    }
}

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

    print_sweep(
        &sweep,
        "lengthening the pipe (Figure 4 flavour)",
        [(3, 3), (5, 5), (7, 7), (9, 9)],
        &workloads,
        budget,
    );
    println!();
    print_sweep(
        &sweep,
        "fixed 12-cycle DEC->EX, shifting stages out of IQ-EX (Figure 5 flavour)",
        [(3, 9), (5, 7), (7, 5), (9, 3)],
        &workloads,
        budget,
    );
    println!();
    println!("go is limited by the branch-resolution loop (whole-pipe length),");
    println!("swim by the load-resolution loop (IQ-EX only), and hydro2d by");
    println!("main memory (neither) — the paper's 'not all pipelines are");
    println!("created equal' result.");
    println!();
    println!("sweep: {}", sweep.summary().line());
}
