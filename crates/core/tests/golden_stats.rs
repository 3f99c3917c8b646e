//! Golden simulated statistics: every paper workload on the base and the
//! DRA (5-cycle register file) machine, under every load-recovery policy
//! (`ReissueTree`, `Refetch`, `Stall` and `ReissueShadow`), in both engine
//! modes, must reproduce the pinned FNV-1a digest of its full `SimStats`
//! Debug rendering.
//!
//! The event-driven and naive engines share the wake-up bookkeeping
//! (ready schedules, version stamps, consumer lists), so their agreement
//! cannot catch a drift in it; this table can. Any change to a simulated
//! number fails here first.
//!
//! Regenerate `tests/golden/sim_stats.tsv` (only when a change is meant to
//! alter simulated results) with:
//!
//! ```text
//! LOOSELOOPS_BLESS=1 cargo test --release -p looseloops --test golden_stats
//! ```

use looseloops::pipeline::{LoadSpecPolicy, Machine, PipelineConfig};
use looseloops::{fnv1a64, Workload};
use std::fmt::Write;
use std::path::Path;

const WARMUP: u64 = 500;
const MEASURE: u64 = 3_000;
const MAX_CYCLES: u64 = 2_000_000;

fn machines() -> [(&'static str, PipelineConfig); 2] {
    [
        ("base", PipelineConfig::base()),
        ("dra_rf5", PipelineConfig::dra_for_rf(5)),
    ]
}

fn policies() -> [(&'static str, LoadSpecPolicy); 4] {
    [
        ("reissue_tree", LoadSpecPolicy::ReissueTree),
        ("refetch", LoadSpecPolicy::Refetch),
        ("stall", LoadSpecPolicy::Stall),
        ("reissue_shadow", LoadSpecPolicy::ReissueShadow),
    ]
}

/// Warm up, reset, measure — the detailed sweep's protocol — on an
/// explicitly chosen engine, returning the digest of the measured stats.
fn digest(cfg: PipelineConfig, w: &Workload, event_driven: bool) -> u64 {
    let mut m = Machine::new(w.config_for(&cfg), w.programs()).expect("valid config");
    m.set_event_driven(event_driven);
    m.run(WARMUP, MAX_CYCLES).expect("warm-up runs");
    m.reset_stats();
    let stats = m.run(MEASURE, MAX_CYCLES).expect("measured window runs");
    fnv1a64(format!("{stats:?}").as_bytes())
}

fn table() -> String {
    let mut out = String::from("# workload\tmachine\tpolicy\tengine\tfnv1a64(SimStats Debug)\n");
    for w in Workload::paper_set() {
        for (mname, mcfg) in machines() {
            for (pname, policy) in policies() {
                let cfg = PipelineConfig {
                    load_policy: policy,
                    ..mcfg.clone()
                };
                for (ename, event) in [("event", true), ("naive", false)] {
                    let d = digest(cfg.clone(), &w, event);
                    writeln!(out, "{}\t{mname}\t{pname}\t{ename}\t{d:016x}", w.name())
                        .expect("writing to a String");
                }
            }
        }
    }
    out
}

#[test]
fn simulated_stats_match_the_pinned_digests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_stats.tsv");
    let got = table();
    if std::env::var_os("LOOSELOOPS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden table is checked in");
    let mismatches: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  pinned {w}\n  now    {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == got.lines().count(),
        "simulated statistics drifted from tests/golden/sim_stats.tsv:\n{}",
        mismatches.join("\n")
    );
}
