//! Development diagnostic: dump full statistics for one workload under a
//! set of configurations. Usage: `cargo run --release --example debug_stats [bench]`.

use looseloops::{Benchmark, PipelineConfig, RunBudget, SimError, Workload};

fn main() -> Result<(), SimError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".into());
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let budget = RunBudget {
        warmup: 20_000,
        measure: 100_000,
        max_cycles: 50_000_000,
    };
    for (label, cfg) in [
        ("base 5_5 rf3".to_string(), PipelineConfig::base_for_rf(3)),
        ("dra  5_3 rf3".to_string(), PipelineConfig::dra_for_rf(3)),
        ("base 5_9 rf7".to_string(), PipelineConfig::base_for_rf(7)),
        ("dra  9_3 rf7".to_string(), PipelineConfig::dra_for_rf(7)),
    ] {
        let s = Workload::Single(bench).try_run(&cfg, budget)?;
        println!("--- {name} {label} ---");
        println!(
            "ipc={:.3} cycles={} retired={} fetched={} squashed={} (after-issue {})",
            s.ipc(),
            s.cycles,
            s.total_retired(),
            s.fetched,
            s.squashed,
            s.squashed_after_issue
        );
        println!(
            "branches={} mispred={} ({:.2}%) target_mis={} loads={} l1miss={:.2}% replays: load={} shadow={} operand={}",
            s.branches,
            s.branch_mispredicts,
            s.branch_mispredict_rate() * 100.0,
            s.target_mispredicts,
            s.loads,
            s.load_miss_rate() * 100.0,
            s.load_replays,
            s.shadow_replays,
            s.operand_replays
        );
        println!(
            "operand srcs [preread fwd crc rf miss] = {:?} miss_rate={:.3}% opmiss_stall={} rename_stall={}",
            s.operand_sources,
            s.operand_miss_rate() * 100.0,
            s.operand_miss_stall_cycles,
            s.rename_stall_cycles
        );
        println!(
            "iq: mean={:.1} post_issue={:.1} peak={} traps: mem={} tlb={} line_pred={:?}",
            s.iq_occupancy_mean,
            s.iq_post_issue_mean,
            s.iq_peak,
            s.mem_order_traps,
            s.tlb_traps,
            s.line_pred
        );
        println!("mem: {:?}", s.mem);
        println!(
            "load latency p50/p90/p99: {:?}/{:?}/{:?}",
            s.load_latency_percentile(0.50),
            s.load_latency_percentile(0.90),
            s.load_latency_percentile(0.99)
        );
    }
    Ok(())
}
