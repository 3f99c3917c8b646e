//! Base machine vs the Distributed Register Algorithm on one workload:
//! speedup, operand-source breakdown (Figure 9 flavour), and the
//! operand-resolution-loop statistics.
//!
//! ```text
//! cargo run --release --example dra_comparison [benchmark] [instructions]
//! ```

use looseloops::{Benchmark, PipelineConfig, RunBudget, SimError, Workload};

fn main() -> Result<(), SimError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "swim".into());
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}` (try swim, apsi, go, …)"));
    let measure: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let budget = RunBudget {
        warmup: measure / 2,
        measure,
        max_cycles: 100_000_000,
    };

    println!("workload: {bench}\n");
    println!(
        "{:>24} {:>10} {:>10} {:>10} {:>10}",
        "", "ipc", "op-miss%", "replays", "pipe(DEC->EX)"
    );
    for rf in [3u32, 5, 7] {
        let base_cfg = PipelineConfig::base_for_rf(rf);
        let dra_cfg = PipelineConfig::dra_for_rf(rf);
        let base = Workload::Single(bench).try_run(&base_cfg, budget)?;
        let dra = Workload::Single(bench).try_run(&dra_cfg, budget)?;
        println!(
            "{:>24} {:>10.3} {:>10.3} {:>10} {:>10}",
            format!("base 5_{} (rf={rf})", base_cfg.iq_ex_stages),
            base.ipc(),
            0.0,
            base.load_replays,
            base_cfg.dec_to_ex(),
        );
        println!(
            "{:>24} {:>10.3} {:>10.3} {:>10} {:>10}",
            format!("DRA {}_3 (rf={rf})", dra_cfg.dec_iq_stages),
            dra.ipc(),
            dra.operand_miss_rate() * 100.0,
            dra.load_replays + dra.operand_replays,
            dra_cfg.dec_to_ex(),
        );
        let f = dra.operand_source_fractions();
        println!(
            "{:>24} pre-read {:.1}%  forward {:.1}%  CRC {:.1}%  miss {:.2}%   speedup {:.3}",
            "",
            f[0] * 100.0,
            f[1] * 100.0,
            f[2] * 100.0,
            f[4] * 100.0,
            dra.ipc() / base.ipc(),
        );
        println!();
    }
    Ok(())
}
