//! Simulation statistics.
//!
//! Everything the paper's figures need: IPC, branch/load mis-speculation
//! counts, reissue (useless-work) counts, operand-source breakdown
//! (Figure 9), the operand-availability-gap histogram (Figure 6), and IQ
//! occupancy.

use looseloops_mem::{CacheStats, HierarchyStats};

/// Maximum tracked operand-availability gap; larger gaps land in the last
/// bucket. The histogram covers 0..=127 so Figure 6 can plot any prefix
/// (the paper shows 0..=60) without clamping distorting the tail.
pub const GAP_BUCKETS: usize = 128;

/// A cause a lost retire slot is charged to in the per-loop CPI stack.
///
/// Each cause after [`CpiComponent::Base`] corresponds to one of the loose
/// loops in the paper's taxonomy (`loop_inventory` in the core crate) or to
/// a structural limit the loops run against. Every cycle in which retire
/// commits fewer than `width` instructions charges its `width - retired`
/// lost slots to exactly **one** cause, so the stack conserves slots by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpiComponent {
    /// Steady-state/base execution: issue-limited, dependence-limited, or
    /// end-of-program drain — nothing attributable to a loose loop.
    Base,
    /// Branch-resolution loop: mispredict squash plus pipeline refill.
    BranchResolution,
    /// Load-resolution loop: replays and confirm waits behind loads that
    /// issued consumers speculatively (including Refetch-policy squashes).
    LoadResolution,
    /// DRA operand-resolution loop: operand misses and their recovery.
    OperandResolution,
    /// Memory-trap loop: memory-order violation and dTLB traps.
    MemoryTrap,
    /// Memory-barrier stall: rename held while a barrier drains.
    MemoryBarrier,
    /// Front end: I-cache misses, line-predictor bubbles, fetch refill not
    /// attributable to a specific loop squash.
    Frontend,
    /// Memory-hierarchy latency: head load waiting on a cache miss.
    MemoryLatency,
}

impl CpiComponent {
    /// Number of components in the stack.
    pub const COUNT: usize = 8;

    /// All components in canonical (storage) order.
    pub const ALL: [CpiComponent; CpiComponent::COUNT] = [
        CpiComponent::Base,
        CpiComponent::BranchResolution,
        CpiComponent::LoadResolution,
        CpiComponent::OperandResolution,
        CpiComponent::MemoryTrap,
        CpiComponent::MemoryBarrier,
        CpiComponent::Frontend,
        CpiComponent::MemoryLatency,
    ];

    /// Storage index in [`LoopCostStack::lost`].
    pub fn index(self) -> usize {
        match self {
            CpiComponent::Base => 0,
            CpiComponent::BranchResolution => 1,
            CpiComponent::LoadResolution => 2,
            CpiComponent::OperandResolution => 3,
            CpiComponent::MemoryTrap => 4,
            CpiComponent::MemoryBarrier => 5,
            CpiComponent::Frontend => 6,
            CpiComponent::MemoryLatency => 7,
        }
    }

    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CpiComponent::Base => "base",
            CpiComponent::BranchResolution => "branch-resolution",
            CpiComponent::LoadResolution => "load-resolution",
            CpiComponent::OperandResolution => "operand-resolution",
            CpiComponent::MemoryTrap => "memory-trap",
            CpiComponent::MemoryBarrier => "memory-barrier",
            CpiComponent::Frontend => "frontend",
            CpiComponent::MemoryLatency => "memory-latency",
        }
    }

    /// The `loop_inventory` loop this component charges, if it maps to one.
    /// `Base`, `Frontend`, and `MemoryLatency` are structural, not loops.
    pub fn loop_name(self) -> Option<&'static str> {
        match self {
            CpiComponent::BranchResolution => Some("branch resolution"),
            CpiComponent::LoadResolution => Some("load resolution"),
            CpiComponent::OperandResolution => Some("operand resolution"),
            CpiComponent::MemoryTrap => Some("memory trap"),
            CpiComponent::MemoryBarrier => Some("memory barrier"),
            CpiComponent::Base | CpiComponent::Frontend | CpiComponent::MemoryLatency => None,
        }
    }
}

/// Per-loop cycle accounting: every retire-slot of every cycle is either
/// used by a committed instruction or charged, whole-cycle at a time, to
/// one [`CpiComponent`].
///
/// Conservation holds in integers by construction:
/// `used + lost.sum() == width * cycles`, and the normalized view in
/// [`LoopCostStack::cpi_components`] sums exactly to the measured CPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopCostStack {
    /// Retire slots per cycle (commit width); 0 until the first charge.
    pub width: u64,
    /// Cycles accounted.
    pub cycles: u64,
    /// Slots filled by retired instructions.
    pub used: u64,
    /// Lost slots per component, indexed by [`CpiComponent::index`].
    pub lost: [u64; CpiComponent::COUNT],
}

impl LoopCostStack {
    /// Account one cycle: `retired` slots used, the remaining
    /// `width - retired` charged to `cause`.
    pub fn charge(&mut self, width: u64, retired: u64, cause: CpiComponent) {
        debug_assert!(retired <= width);
        debug_assert!(self.width == 0 || self.width == width);
        self.width = width;
        self.cycles += 1;
        self.used += retired;
        self.lost[cause.index()] += width - retired;
    }

    /// Account `cycles` consecutive retire-nothing cycles charged to one
    /// `cause` in a single step — the quiescence skip's batched
    /// equivalent of calling [`LoopCostStack::charge`] `cycles` times
    /// with `retired == 0`. Conservation is preserved exactly.
    pub fn charge_idle(&mut self, width: u64, cycles: u64, cause: CpiComponent) {
        debug_assert!(self.width == 0 || self.width == width);
        self.width = width;
        self.cycles += cycles;
        self.lost[cause.index()] += width * cycles;
    }

    /// Lost slots charged to one component.
    pub fn component(&self, c: CpiComponent) -> u64 {
        self.lost[c.index()]
    }

    /// Total lost slots across all components.
    pub fn total_lost(&self) -> u64 {
        self.lost.iter().sum()
    }

    /// Total retire slots offered: `width * cycles`.
    pub fn total_slots(&self) -> u64 {
        self.width * self.cycles
    }

    /// Integer conservation: used + lost slots exactly fill all slots.
    pub fn conserves(&self) -> bool {
        self.used + self.total_lost() == self.total_slots()
    }

    /// Measured cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.used == 0 {
            0.0
        } else {
            self.cycles as f64 / self.used as f64
        }
    }

    /// The CPI stack: per-component cycles-per-instruction, in
    /// [`CpiComponent::ALL`] order. The base component absorbs the used
    /// slots, so the entries sum exactly to [`LoopCostStack::cpi`].
    pub fn cpi_components(&self) -> [f64; CpiComponent::COUNT] {
        let mut out = [0.0; CpiComponent::COUNT];
        if self.used == 0 || self.width == 0 {
            return out;
        }
        let denom = (self.width * self.used) as f64;
        for (o, &l) in out.iter_mut().zip(&self.lost) {
            *o = l as f64 / denom;
        }
        out[CpiComponent::Base.index()] += self.used as f64 / denom;
        out
    }

    /// Accumulate another stack into this one (sweep aggregation). Merging
    /// stacks of different widths keeps the raw slot counts additive but
    /// makes the slot total approximate; same-width merges stay exact.
    pub fn merge(&mut self, other: &LoopCostStack) {
        self.width = self.width.max(other.width);
        self.cycles += other.cycles;
        self.used += other.used;
        for (a, b) in self.lost.iter_mut().zip(&other.lost) {
            *a += b;
        }
    }
}

/// Entries in [`SimStats::counters`].
pub const COUNTERS: usize = 39;

/// A counter's storage as a slice: one slot for a scalar, every slot for
/// an array.
trait Slots {
    fn slots(&self) -> &[u64];
    fn slots_mut(&mut self) -> &mut [u64];
}

impl Slots for u64 {
    fn slots(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn slots_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl<const N: usize> Slots for [u64; N] {
    fn slots(&self) -> &[u64] {
        self
    }
    fn slots_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// Defines [`SimStats::counters`] and [`SimStats::counters_mut`] from one
/// destructuring of `SimStats` and the table order of its bindings. A
/// binding left out of the order is an unused variable, denied.
macro_rules! counter_table {
    (let $fields:pat = self; [$($name:ident),* $(,)?]) => {
        impl SimStats {
            /// Every additive counter, by name, in table order. A scalar
            /// counter is a one-slot slice; `operand_sources` and
            /// `faults_by_kind` keep their array shape.
            #[deny(unused_variables)]
            pub fn counters(&self) -> [(&'static str, &[u64]); COUNTERS] {
                let $fields = self;
                [$((stringify!($name), Slots::slots($name))),*]
            }

            /// [`SimStats::counters`], writable.
            #[deny(unused_variables)]
            pub fn counters_mut(&mut self) -> [(&'static str, &mut [u64]); COUNTERS] {
                let $fields = self;
                [$((stringify!($name), Slots::slots_mut($name))),*]
            }
        }
    };
}

// The one list of `SimStats`' additive counters. The pattern names every
// field without `..`, so a new field does not compile until it is placed:
// bound here and listed below, or bound to `_` among the fields merged by
// hand (`retired`, the histograms, the IQ means and peak, `loop_cost`).
counter_table! {
    let SimStats {
        cycles, retired: _, fetched, squashed, squashed_after_issue,
        branches, branch_mispredicts, target_mispredicts,
        loads, load_l1_hits, load_l1_misses, load_replays, shadow_replays,
        operand_misses, operand_replays, operand_sources, insertion_saturations,
        mem_order_traps, tlb_traps, mem_barriers, branch_squashes,
        operand_gap_hist: _, load_latency_hist: _,
        rename_stall_cycles, operand_miss_stall_cycles,
        iq_occupancy_mean: _, iq_post_issue_mean: _, iq_peak: _,
        mem: HierarchyStats {
            l1i: CacheStats { hits: l1i_hits, misses: l1i_misses },
            l1d: CacheStats { hits: l1d_hits, misses: l1d_misses },
            l2: CacheStats { hits: l2_hits, misses: l2_misses },
            dtlb_hits, dtlb_misses, bank_conflicts, mshr_waits, prefetches,
        },
        line_pred: (line_pred_correct, line_pred_wrong),
        deadlocks_detected, faults_injected, faults_by_kind, audit_checks,
        loop_cost: _,
    } = self;
    [
        cycles, fetched, squashed, squashed_after_issue,
        branches, branch_mispredicts, target_mispredicts,
        loads, load_l1_hits, load_l1_misses, load_replays, shadow_replays,
        operand_misses, operand_replays, operand_sources, insertion_saturations,
        mem_order_traps, tlb_traps, mem_barriers, branch_squashes,
        rename_stall_cycles, operand_miss_stall_cycles,
        l1i_hits, l1i_misses, l1d_hits, l1d_misses, l2_hits, l2_misses,
        dtlb_hits, dtlb_misses, bank_conflicts, mshr_waits, prefetches,
        line_pred_correct, line_pred_wrong,
        deadlocks_detected, faults_injected, faults_by_kind, audit_checks,
    ]
}

/// Counters for one simulation run.
///
/// Every additive `u64` counter is named once, in this module's
/// `counter_table!` invocation: [`SimStats::counters`] lists them by
/// name, and zeroing, [`SimStats::absorb`], the result store's codec and
/// `run --json` all read that list. The few fields that do not simply add (per-thread
/// retirement, the histograms, the IQ means and peak, the loop-cost
/// stack) are merged by hand.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired, per thread.
    pub retired: Vec<u64>,
    /// Instructions fetched (including wrong-path work).
    pub fetched: u64,
    /// Wrong-path instructions squashed before retirement.
    pub squashed: u64,
    /// Squashed instructions that had already issued at least once — the
    /// paper's "useless work" for control/order mis-speculation.
    pub squashed_after_issue: u64,

    /// Conditional branches executed (correct path, resolved).
    pub branches: u64,
    /// Conditional-branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Indirect/target mispredictions (BTB/RAS wrong).
    pub target_mispredicts: u64,

    /// Loads executed to completion.
    pub loads: u64,
    /// Loads that hit L1 (the speculation the base machine bets on).
    pub load_l1_hits: u64,
    /// Loads that missed L1.
    pub load_l1_misses: u64,
    /// Issued instructions killed and reissued because an operand was not
    /// present at execute while its producer was still in flight — the
    /// load-resolution-loop useless work (paper: "number of instructions
    /// reissued").
    pub load_replays: u64,
    /// Replays triggered by the ReissueShadow policy on non-dependent
    /// instructions.
    pub shadow_replays: u64,

    /// DRA: operand-resolution-loop mis-speculations (operand misses).
    pub operand_misses: u64,
    /// DRA: instructions reissued because of operand misses (the missing
    /// instruction itself plus issued dependents).
    pub operand_replays: u64,
    /// Operand-source breakdown: [pre-read, forward, CRC, reg-file, miss].
    pub operand_sources: [u64; 5],
    /// DRA insertion-table saturation events (consumers lost to the 2-bit
    /// counter limit, §5.4).
    pub insertion_saturations: u64,

    /// Memory-order violation traps (load/store reorder).
    pub mem_order_traps: u64,
    /// dTLB miss traps serviced at retire.
    pub tlb_traps: u64,
    /// Memory barriers retired.
    pub mem_barriers: u64,
    /// Branch-recovery squash events.
    pub branch_squashes: u64,

    /// Histogram of cycles between first- and second-operand availability
    /// (Figure 6). Single/zero-operand instructions count in bucket 0.
    pub operand_gap_hist: Vec<u64>,
    /// Histogram of load latencies in cycles (AGU + cache/TLB/bank/MSHR),
    /// clamped to the last bucket.
    pub load_latency_hist: Vec<u64>,

    /// Cycles rename stalled (free list, in-flight cap, IQ backpressure,
    /// memory barrier).
    pub rename_stall_cycles: u64,
    /// Cycles the front end was stalled servicing DRA operand misses.
    pub operand_miss_stall_cycles: u64,

    /// Mean IQ occupancy over the run.
    pub iq_occupancy_mean: f64,
    /// Mean count of post-issue (retained) entries.
    pub iq_post_issue_mean: f64,
    /// Peak IQ occupancy.
    pub iq_peak: usize,

    /// Memory-hierarchy counters.
    pub mem: HierarchyStats,
    /// Line-predictor (correct, wrong).
    pub line_pred: (u64, u64),

    /// Forward-progress watchdog trips (0 or 1 per run; the run ends with
    /// a `DeadlockError` when it fires).
    pub deadlocks_detected: u64,
    /// Faults injected by the fault-injection harness, total.
    pub faults_injected: u64,
    /// Injected faults by class: [branch flips, load spikes, operand
    /// misses] (`FaultKind` order).
    pub faults_by_kind: [u64; 3],
    /// Per-cycle invariant-auditor passes completed.
    pub audit_checks: u64,
    /// Per-loop CPI-stack accounting of every retire slot.
    pub loop_cost: LoopCostStack,
}

impl SimStats {
    /// Zeroed statistics for `threads` hardware threads.
    pub fn new(threads: usize) -> SimStats {
        SimStats {
            retired: vec![0; threads],
            operand_gap_hist: vec![0; GAP_BUCKETS],
            load_latency_hist: vec![0; 512],
            ..SimStats::default()
        }
    }

    /// Set every table counter to `op(own, other's)`, slot by slot. The
    /// hand-merged fields are left alone.
    pub(crate) fn combine_counters(&mut self, other: &SimStats, op: impl Fn(u64, u64) -> u64) {
        for ((_, mine), (_, theirs)) in self.counters_mut().into_iter().zip(other.counters()) {
            for (a, &b) in mine.iter_mut().zip(theirs) {
                *a = op(*a, b);
            }
        }
    }

    /// Total instructions retired across threads.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate in [0, 1].
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// L1 data-cache load miss rate in [0, 1].
    pub fn load_miss_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_l1_misses as f64 / self.loads as f64
        }
    }

    /// Fraction of source operands obtained from each location, in Figure 9
    /// order: [pre-read, forwarding buffer, CRC, register file, miss].
    pub fn operand_source_fractions(&self) -> [f64; 5] {
        let total: u64 = self.operand_sources.iter().sum();
        if total == 0 {
            return [0.0; 5];
        }
        let mut f = [0.0; 5];
        for (o, s) in f.iter_mut().zip(self.operand_sources) {
            *o = s as f64 / total as f64;
        }
        f
    }

    /// DRA operand miss rate over all delivered operands.
    pub fn operand_miss_rate(&self) -> f64 {
        self.operand_source_fractions()[4]
    }

    /// Record one load's total latency.
    pub fn record_load_latency(&mut self, latency: u64) {
        let b = (latency as usize).min(self.load_latency_hist.len() - 1);
        self.load_latency_hist[b] += 1;
    }

    /// The latency at or below which fraction `p` of loads completed;
    /// `None` when no loads were recorded. `p` is clamped to [0, 1] (NaN
    /// counts as 0), and `p = 0.0` means the fastest observed load — never
    /// an empty bucket.
    pub fn load_latency_percentile(&self, p: f64) -> Option<u64> {
        let total: u64 = self.load_latency_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let target = ((total as f64 * p).ceil() as u64).max(1);
        let mut acc = 0;
        for (lat, &count) in self.load_latency_hist.iter().enumerate() {
            acc += count;
            if acc >= target {
                return Some(lat as u64);
            }
        }
        Some(self.load_latency_hist.len() as u64 - 1)
    }

    /// Record an operand availability gap (Figure 6).
    pub fn record_gap(&mut self, gap: u64) {
        let b = (gap as usize).min(GAP_BUCKETS - 1);
        self.operand_gap_hist[b] += 1;
    }

    /// Cumulative distribution of operand gaps: `cdf[i]` = fraction of
    /// instructions with gap ≤ i.
    pub fn gap_cdf(&self) -> Vec<f64> {
        let total: u64 = self.operand_gap_hist.iter().sum();
        if total == 0 {
            return vec![1.0; GAP_BUCKETS];
        }
        let mut acc = 0u64;
        self.operand_gap_hist
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / total as f64
            })
            .collect()
    }

    /// Total useless work: every killed-after-issue or reissued
    /// instruction.
    pub fn useless_work(&self) -> u64 {
        self.squashed_after_issue + self.load_replays + self.shadow_replays + self.operand_replays
    }

    /// Accumulate another run's counters into this one — the aggregation
    /// behind interval sampling, where each detailed measurement window
    /// produces its own `SimStats` and the sampled run reports their sum.
    /// Table counters and histograms add; occupancy means combine
    /// cycle-weighted; peaks take the max; the loop-cost stack merges.
    pub fn absorb(&mut self, other: &SimStats) {
        let (wa, wb) = (self.cycles as f64, other.cycles as f64);
        if wa + wb > 0.0 {
            self.iq_occupancy_mean =
                (self.iq_occupancy_mean * wa + other.iq_occupancy_mean * wb) / (wa + wb);
            self.iq_post_issue_mean =
                (self.iq_post_issue_mean * wa + other.iq_post_issue_mean * wb) / (wa + wb);
        }
        if self.retired.len() < other.retired.len() {
            self.retired.resize(other.retired.len(), 0);
        }
        for (mine, theirs) in [
            (&mut self.retired, &other.retired),
            (&mut self.operand_gap_hist, &other.operand_gap_hist),
            (&mut self.load_latency_hist, &other.load_latency_hist),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.iq_peak = self.iq_peak.max(other.iq_peak);
        self.loop_cost.merge(&other.loop_cost);
        self.combine_counters(other, |a, b| a + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_math() {
        let mut s = SimStats::new(2);
        s.cycles = 100;
        s.retired = vec![300, 100];
        assert_eq!(s.total_retired(), 400);
        assert!((s.ipc() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::new(1);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_mispredict_rate(), 0.0);
        assert_eq!(s.load_miss_rate(), 0.0);
        assert_eq!(s.operand_miss_rate(), 0.0);
    }

    #[test]
    fn operand_fractions_sum_to_one() {
        let mut s = SimStats::new(1);
        s.operand_sources = [10, 50, 20, 15, 5];
        let f = s.operand_source_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s.operand_miss_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn gap_histogram_and_cdf() {
        let mut s = SimStats::new(1);
        s.record_gap(0);
        s.record_gap(0);
        s.record_gap(5);
        s.record_gap(10_000); // clamps into the last bucket
        let cdf = s.gap_cdf();
        assert!((cdf[0] - 0.5).abs() < 1e-12);
        assert!((cdf[5] - 0.75).abs() < 1e-12);
        assert!((cdf[GAP_BUCKETS - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_latency_percentiles() {
        let mut s = SimStats::new(1);
        assert_eq!(s.load_latency_percentile(0.5), None);
        for _ in 0..90 {
            s.record_load_latency(4);
        }
        for _ in 0..10 {
            s.record_load_latency(135);
        }
        assert_eq!(s.load_latency_percentile(0.5), Some(4));
        assert_eq!(s.load_latency_percentile(0.9), Some(4));
        assert_eq!(s.load_latency_percentile(0.95), Some(135));
        // p = 0.0 must report the fastest *observed* latency, not an empty
        // bucket 0; out-of-range p clamps instead of over/under-shooting.
        assert_eq!(s.load_latency_percentile(0.0), Some(4));
        assert_eq!(s.load_latency_percentile(-3.0), Some(4));
        assert_eq!(s.load_latency_percentile(1.0), Some(135));
        assert_eq!(s.load_latency_percentile(7.5), Some(135));
        assert_eq!(s.load_latency_percentile(f64::NAN), Some(4));
        s.record_load_latency(10_000); // clamps
        assert_eq!(*s.load_latency_hist.last().unwrap(), 1);
    }

    #[test]
    fn loop_cost_stack_conserves_and_normalizes() {
        let mut st = LoopCostStack::default();
        // 4 cycles at width 8: full, half lost to branches, empty on a
        // frontend bubble, 3/8 lost to memory latency.
        st.charge(8, 8, CpiComponent::Base);
        st.charge(8, 4, CpiComponent::BranchResolution);
        st.charge(8, 0, CpiComponent::Frontend);
        st.charge(8, 5, CpiComponent::MemoryLatency);
        assert_eq!(st.cycles, 4);
        assert_eq!(st.used, 17);
        assert_eq!(st.total_lost(), 15);
        assert!(st.conserves());
        assert_eq!(st.component(CpiComponent::BranchResolution), 4);
        assert_eq!(st.component(CpiComponent::Frontend), 8);
        assert_eq!(st.component(CpiComponent::MemoryLatency), 3);
        let comps = st.cpi_components();
        let sum: f64 = comps.iter().sum();
        assert!(
            (sum - st.cpi()).abs() < 1e-12,
            "stack must sum to measured CPI: {sum} vs {}",
            st.cpi()
        );
    }

    #[test]
    fn charge_idle_matches_repeated_empty_charges() {
        let mut a = LoopCostStack::default();
        let mut b = LoopCostStack::default();
        a.charge(8, 3, CpiComponent::Base);
        b.charge(8, 3, CpiComponent::Base);
        for _ in 0..17 {
            a.charge(8, 0, CpiComponent::MemoryLatency);
        }
        b.charge_idle(8, 17, CpiComponent::MemoryLatency);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.used, b.used);
        assert_eq!(a.lost, b.lost);
        assert!(b.conserves());
    }

    #[test]
    fn loop_cost_stack_merge_is_additive() {
        let mut a = LoopCostStack::default();
        a.charge(8, 8, CpiComponent::Base);
        a.charge(8, 2, CpiComponent::LoadResolution);
        let mut b = LoopCostStack::default();
        b.charge(8, 0, CpiComponent::OperandResolution);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.cycles, 3);
        assert_eq!(m.used, 10);
        assert_eq!(m.component(CpiComponent::LoadResolution), 6);
        assert_eq!(m.component(CpiComponent::OperandResolution), 8);
        assert!(m.conserves());
    }

    #[test]
    fn cpi_component_names_are_unique_and_ordered() {
        for (i, c) in CpiComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: std::collections::HashSet<&str> =
            CpiComponent::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), CpiComponent::COUNT);
    }

    #[test]
    fn absorbing_itself_doubles_every_table_counter() {
        let mut x = SimStats::new(2);
        let slots = x.counters_mut().into_iter().flat_map(|(_, s)| s);
        for (i, v) in slots.enumerate() {
            *v = 1 + i as u64;
        }
        let before = x.clone();
        x.absorb(&before);
        for ((name, now), (_, was)) in x.counters().into_iter().zip(before.counters()) {
            for (a, b) in now.iter().zip(was) {
                assert_eq!(*a, 2 * b, "{name}");
            }
        }
        let names: std::collections::HashSet<&str> =
            x.counters().iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), COUNTERS, "table names are unique");
    }

    #[test]
    fn useless_work_rolls_up() {
        let mut s = SimStats::new(1);
        s.squashed_after_issue = 1;
        s.load_replays = 2;
        s.shadow_replays = 3;
        s.operand_replays = 4;
        assert_eq!(s.useless_work(), 10);
    }
}
