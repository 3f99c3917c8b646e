//! Optional wall-clock stage profiling for the detailed engine.
//!
//! Enabled process-wide (`enable()`, surfaced as `--profile-stages` in the
//! CLI) *before* machines are constructed: each [`crate::Machine`] then
//! allocates a local [`StageReport`] and times the pipeline stages of a
//! deterministic 1-in-[`SAMPLE_STRIDE`] subset of its stepped cycles,
//! merging into the process-global totals when its stats are finalized.
//! Reports scale the sampled times up to all stepped cycles. Sampling
//! keeps the timer's own cost (reported as [`StageReport::timer_pair_ns`],
//! measured when profiling is enabled) from inflating the run it measures.
//! Wall-clock numbers never enter `SimStats` — they are a measurement of
//! the simulator, not of the simulated machine — so figure outputs are
//! byte-identical with profiling on or off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stage labels, in `step_cycle` order (reverse pipeline order), plus the
/// trailing per-cycle bookkeeping (IQ release/sampling, counters).
pub const STAGE_NAMES: [&str; 11] = [
    "retire",
    "attribute",
    "complete",
    "writeback",
    "execute",
    "wakeup",
    "issue",
    "insert",
    "rename",
    "fetch",
    "bookkeep",
];

/// Number of timed stages per cycle.
pub const STAGE_COUNT: usize = STAGE_NAMES.len();

/// One stepped cycle in this many is timed: the first, then every
/// `SAMPLE_STRIDE`-th, counted per machine.
pub const SAMPLE_STRIDE: u64 = 64;

/// Stage-boundary hook of the cycle engine: `lap(i)` marks the end of
/// stage `i` of [`STAGE_NAMES`]. The untimed [`NoProbe`] compiles away.
pub(crate) trait Probe {
    fn lap(&mut self, stage: usize);
}

/// The probe of an untimed cycle.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn lap(&mut self, _stage: usize) {}
}

/// The probe of a timed cycle: charges the time since the previous
/// boundary to the stage that just ended.
pub(crate) struct Stopwatch {
    last: Instant,
    pub(crate) ns: [u64; STAGE_COUNT],
}

impl Stopwatch {
    pub(crate) fn start() -> Stopwatch {
        Stopwatch {
            last: Instant::now(),
            ns: [0; STAGE_COUNT],
        }
    }
}

impl Probe for Stopwatch {
    #[inline]
    fn lap(&mut self, stage: usize) {
        let t = Instant::now();
        self.ns[stage] += t.duration_since(self.last).as_nanos() as u64;
        self.last = t;
    }
}

/// Accumulated per-stage wall-clock time plus cycle accounting.
#[derive(Debug, Default, Clone)]
pub struct StageReport {
    /// Nanoseconds measured in each stage over the sampled cycles, indexed
    /// like [`STAGE_NAMES`]; [`StageReport::scaled_stage_ns`] estimates
    /// the time over all stepped cycles.
    pub stage_ns: [u64; STAGE_COUNT],
    /// Cycles actually stepped through the stage functions.
    pub stepped_cycles: u64,
    /// Stepped cycles whose stages were timed.
    pub sampled_cycles: u64,
    /// Measured cost of one `Instant::now()` pair in ns (set by
    /// [`take_report`]; each timed stage carries about one).
    pub timer_pair_ns: u64,
    /// Cycles elided by the quiescence skip.
    pub skipped_cycles: u64,
    /// Number of quiescence jumps taken.
    pub skips: u64,
}

impl StageReport {
    /// Does the next stepped cycle fall on the sampling stride?
    #[inline]
    pub(crate) fn samples_next(&self) -> bool {
        self.stepped_cycles.is_multiple_of(SAMPLE_STRIDE)
    }

    /// Per-stage time scaled from the sampled to all stepped cycles.
    pub fn scaled_stage_ns(&self) -> [u64; STAGE_COUNT] {
        let scale = |ns: u64| {
            if self.sampled_cycles == 0 {
                0
            } else {
                (u128::from(ns) * u128::from(self.stepped_cycles) / u128::from(self.sampled_cycles))
                    as u64
            }
        };
        self.stage_ns.map(scale)
    }

    /// Estimated total nanoseconds across all stages and stepped cycles.
    pub fn total_ns(&self) -> u64 {
        self.scaled_stage_ns().iter().sum()
    }

    fn add(&mut self, other: &StageReport) {
        for (a, b) in self.stage_ns.iter_mut().zip(&other.stage_ns) {
            *a += b;
        }
        self.stepped_cycles += other.stepped_cycles;
        self.sampled_cycles += other.sampled_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.skips += other.skips;
    }

    /// One-line human-readable breakdown: stages sorted by cost, with
    /// percentage of the total, plus the stepped/skipped cycle split and
    /// the sampling and timer cost behind the estimate.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let total = self.total_ns().max(1);
        let mut stages: Vec<(usize, u64)> =
            self.scaled_stage_ns().iter().copied().enumerate().collect();
        stages.sort_by_key(|&(i, ns)| (std::cmp::Reverse(ns), i));
        let mut out = format!(
            "stepped {} cycles ({} timed, timer pair {} ns), skipped {} ({} jumps), {:.1} ms est. total | ",
            self.stepped_cycles,
            self.sampled_cycles,
            self.timer_pair_ns,
            self.skipped_cycles,
            self.skips,
            self.total_ns() as f64 / 1e6,
        );
        for (rank, (i, ns)) in stages.iter().enumerate() {
            if rank > 0 {
                out.push(' ');
            }
            let _ = write!(
                out,
                "{}={:.1}%",
                STAGE_NAMES[*i],
                *ns as f64 * 100.0 / total as f64
            );
        }
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TIMER_PAIR_NS: AtomicU64 = AtomicU64::new(0);
static TOTALS: Mutex<Option<StageReport>> = Mutex::new(None);

/// Turn stage profiling on for machines constructed from now on, and
/// measure what one `Instant::now()` pair costs on this host.
pub fn enable() {
    const PAIRS: u32 = 10_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    let pair_ns = start.elapsed().as_nanos() as u64 / u64::from(PAIRS);
    TIMER_PAIR_NS.store(pair_ns, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Is stage profiling on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Merge a machine-local report into the process-global totals.
pub(crate) fn merge(local: &StageReport) {
    let mut guard = TOTALS.lock().unwrap_or_else(|p| p.into_inner());
    guard.get_or_insert_with(StageReport::default).add(local);
}

/// Drain the process-global totals accumulated since the last call
/// (`None` when nothing was recorded — e.g. profiling is off).
pub fn take_report() -> Option<StageReport> {
    let mut rep = TOTALS.lock().unwrap_or_else(|p| p.into_inner()).take()?;
    rep.timer_pair_ns = TIMER_PAIR_NS.load(Ordering::Relaxed);
    Some(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_merge_and_render() {
        let mut a = StageReport::default();
        a.stage_ns[0] = 300;
        a.stage_ns[6] = 700;
        a.stepped_cycles = 640;
        a.sampled_cycles = 10;
        let mut b = StageReport::default();
        b.stage_ns[6] = 300;
        b.skipped_cycles = 90;
        b.skips = 3;
        b.add(&a);
        // 1300 ns over 10 timed cycles, scaled to 640 stepped ones.
        assert_eq!(b.total_ns(), 1300 * 64);
        assert_eq!(b.scaled_stage_ns()[6], 1000 * 64);
        assert_eq!(b.stepped_cycles, 640);
        assert_eq!(b.skipped_cycles, 90);
        let line = b.render();
        // Issue dominates, so it leads the sorted breakdown.
        assert!(line.contains("skipped 90 (3 jumps)"), "{line}");
        assert!(line.contains("issue=76.9%"), "{line}");
    }

    #[test]
    fn sampling_times_one_cycle_per_stride() {
        let mut r = StageReport::default();
        let mut timed = 0;
        for _ in 0..(3 * SAMPLE_STRIDE + 1) {
            if r.samples_next() {
                timed += 1;
            }
            r.stepped_cycles += 1;
        }
        assert_eq!(timed, 4, "cycles 0, 64, 128 and 192");
    }
}
