//! Per-layer metrics of the traced run, each tagged with the end-to-end
//! metric and workload it should move.

use crate::micro::Rates;
use crate::replay::Work;
use crate::trace::Totals;
use looseloops::{SimStats, SweepSummary};
use std::collections::BTreeMap;

/// Tag of the simulated counts.
const SIMULATED: &str = "simulated: identical under a pure-speed change";

/// `(name, unit, tag)` of every per-layer metric, in output order. The
/// names and units match `per_layer` in `BENCHMARK.json`. The tag names the
/// end-to-end metric and workload a change to the layer should move.
pub const CATALOG: &[(&str, &str, &str)] = &[
    ("pipeline.new_us", "us", "sampled-all wall_s"),
    ("pipeline.run_ns_per_inst", "ns", "detailed-grid sim_mips"),
    ("pipeline.run_ns_per_cycle", "ns", "detailed-grid sim_mips"),
    ("pipeline.window_ns_per_inst", "ns", "sampled-all wall_s"),
    ("pipeline.cycles", "count", SIMULATED),
    ("pipeline.retired", "count", SIMULATED),
    ("pipeline.fetched", "count", SIMULATED),
    ("pipeline.squashed", "count", SIMULATED),
    (
        "pipeline.useful_ratio",
        "ratio",
        "simulated: retired / fetched",
    ),
    ("pipeline.branch_mispredicts", "count", SIMULATED),
    ("pipeline.load_replays", "count", SIMULATED),
    ("pipeline.operand_misses", "count", SIMULATED),
    ("mem.l1d_accesses", "count", SIMULATED),
    ("mem.l1d_misses", "count", SIMULATED),
    ("mem.l2_misses", "count", SIMULATED),
    ("mem.cache_access_ns", "ns", "detailed-grid sim_mips"),
    ("branch.predict_train_ns", "ns", "detailed-grid sim_mips"),
    ("regs.rename_rollback_ns", "ns", "detailed-grid sim_mips"),
    ("regs.fwd_insert_lookup_ns", "ns", "detailed-grid sim_mips"),
    ("regs.crc_insert_lookup_ns", "ns", "detailed-grid sim_mips"),
    ("isa.predecode_ns_per_inst", "ns", "sampled-all wall_s"),
    ("isa.predecode_lookup_ns", "ns", "detailed-grid sim_mips"),
    (
        "isa.functional_ns_per_inst",
        "ns",
        "sampled-all wall_s; none on detailed-grid",
    ),
    (
        "checkpoint.warm_calls",
        "count",
        "base of checkpoint.memo_hit_ratio",
    ),
    ("checkpoint.captures", "count", "sampled-all wall_s"),
    ("checkpoint.memo_hit_ratio", "ratio", "sampled-all wall_s"),
    ("checkpoint.capture_ms", "ms", "sampled-all wall_s"),
    ("checkpoint.snapshot_us", "us", "sampled-all wall_s"),
    ("checkpoint.restore_us", "us", "sampled-all wall_s"),
    ("checkpoint.bytes", "B", "sampled-all wall_s"),
    ("store.save_us", "us", "sampled-all wall_s"),
    ("store.load_us", "us", "warm-rerun jobs_per_s"),
    ("store.bytes_per_entry", "B", "warm-rerun jobs_per_s"),
    ("store.hits", "count", "warm-rerun jobs_per_s"),
    ("sweep.overhead_ms", "ms", "wall_s on every workload"),
    ("sweep.jobs_run", "count", "wall_s on every workload"),
    ("sweep.memo_hits", "count", "wall_s on every workload"),
    ("experiments.render_us", "us", "warm-rerun jobs_per_s"),
    ("workload.programs_us", "us", "setup_s"),
    (
        "sampling.cpi_err_pct",
        "%",
        "sampled-all accuracy; pinned detailed reference",
    ),
    (
        "trace.overhead_pct",
        "%",
        "traced against untraced wall time",
    ),
    (
        "trace.replay_mismatches",
        "count",
        "must be 0; mismatched jobs are left out",
    ),
];

/// Simulated counts summed over the replayed jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    cycles: u64,
    retired: u64,
    fetched: u64,
    squashed: u64,
    branch_mispredicts: u64,
    load_replays: u64,
    operand_misses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_misses: u64,
}

impl Counts {
    /// Add one job's statistics.
    pub fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.retired += s.total_retired();
        self.fetched += s.fetched;
        self.squashed += s.squashed;
        self.branch_mispredicts += s.branch_mispredicts;
        self.load_replays += s.load_replays;
        self.operand_misses += s.operand_misses;
        self.l1d_accesses += s.mem.l1d.hits + s.mem.l1d.misses;
        self.l1d_misses += s.mem.l1d.misses;
        self.l2_misses += s.mem.l2.misses;
    }
}

/// Everything the per-layer metrics are computed from.
pub struct Inputs {
    /// Span totals of the valid jobs.
    pub totals: BTreeMap<&'static str, Totals>,
    /// Work of the valid jobs.
    pub work: Work,
    /// Simulated counts of the valid jobs.
    pub counts: Counts,
    /// The untraced pass's engine counters.
    pub summary: SweepSummary,
    /// Wall time of the untraced engine work, seconds.
    pub untraced_s: f64,
    /// Wall time of its traced replay, seconds.
    pub traced_s: f64,
    /// Jobs whose replay did not reproduce the engine's statistics.
    pub mismatches: u64,
    /// Sampled-vs-detailed CPI error, percent (0 where nothing is sampled).
    pub cpi_err_pct: f64,
    /// Per-structure rates.
    pub rates: Rates,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Inputs {
    fn span(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn value(&self, name: &str) -> f64 {
        let w = &self.work;
        let c = &self.counts;
        let per = |span: &str, n: u64| ratio(self.span(span).total_ns as f64, n as f64);
        match name {
            "pipeline.new_us" => self.span("pipeline.new").mean_ns() / 1e3,
            "pipeline.run_ns_per_inst" => per("pipeline.run", w.run_insts),
            "pipeline.run_ns_per_cycle" => per("pipeline.run", w.run_cycles),
            "pipeline.window_ns_per_inst" => per("pipeline.window", w.window_insts),
            "pipeline.cycles" => c.cycles as f64,
            "pipeline.retired" => c.retired as f64,
            "pipeline.fetched" => c.fetched as f64,
            "pipeline.squashed" => c.squashed as f64,
            "pipeline.useful_ratio" => ratio(c.retired as f64, c.fetched as f64),
            "pipeline.branch_mispredicts" => c.branch_mispredicts as f64,
            "pipeline.load_replays" => c.load_replays as f64,
            "pipeline.operand_misses" => c.operand_misses as f64,
            "mem.l1d_accesses" => c.l1d_accesses as f64,
            "mem.l1d_misses" => c.l1d_misses as f64,
            "mem.l2_misses" => c.l2_misses as f64,
            "mem.cache_access_ns" => self.rates.cache_access_ns,
            "branch.predict_train_ns" => self.rates.predict_train_ns,
            "regs.rename_rollback_ns" => self.rates.rename_rollback_ns,
            "regs.fwd_insert_lookup_ns" => self.rates.fwd_insert_lookup_ns,
            "regs.crc_insert_lookup_ns" => self.rates.crc_insert_lookup_ns,
            "isa.predecode_ns_per_inst" => self.rates.predecode_ns_per_inst,
            "isa.predecode_lookup_ns" => self.rates.predecode_lookup_ns,
            "isa.functional_ns_per_inst" => per("isa.functional", w.functional_insts),
            "checkpoint.warm_calls" => w.warm_calls as f64,
            "checkpoint.captures" => w.captures as f64,
            "checkpoint.memo_hit_ratio" => {
                ratio((w.warm_calls - w.captures) as f64, w.warm_calls as f64)
            }
            "checkpoint.capture_ms" => self.span("checkpoint.capture").mean_ns() / 1e6,
            "checkpoint.snapshot_us" => self.span("checkpoint.snapshot").mean_ns() / 1e3,
            "checkpoint.restore_us" => self.span("checkpoint.restore").mean_ns() / 1e3,
            "checkpoint.bytes" => ratio(w.ckpt_bytes as f64, w.captures as f64),
            "store.save_us" => self.span("store.save").mean_ns() / 1e3,
            "store.load_us" => self.span("store.load").mean_ns() / 1e3,
            "store.bytes_per_entry" => ratio(w.store_bytes as f64, w.store_entries as f64),
            "store.hits" => w.store_hits as f64,
            "sweep.overhead_ms" => {
                (self.summary.wall.as_secs_f64() - self.summary.busy.as_secs_f64()) * 1e3
            }
            "sweep.jobs_run" => self.summary.jobs_run as f64,
            "sweep.memo_hits" => self.summary.cache_hits as f64,
            "experiments.render_us" => self.span("experiments.render").mean_ns() / 1e3,
            "workload.programs_us" => self.span("workload.programs").mean_ns() / 1e3,
            "sampling.cpi_err_pct" => self.cpi_err_pct,
            "trace.overhead_pct" => ratio(self.traced_s - self.untraced_s, self.untraced_s) * 100.0,
            "trace.replay_mismatches" => self.mismatches as f64,
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    }

    /// Every catalogued metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        CATALOG
            .iter()
            .map(|&(name, unit, _)| (name, self.value(name), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        let listed: Vec<(String, String)> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap_or_default().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap_or_default()
                    .to_string();
                (name, unit)
            })
            .collect();
        let catalog: Vec<(String, String)> = CATALOG
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, catalog);
    }
}
