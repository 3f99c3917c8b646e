//! The cycle-level machine model.
//!
//! An execution-driven, 8-wide, clustered, SMT out-of-order pipeline with
//! explicit signal-propagation delays: wake-ups, confirmations, redirects
//! and miss signals all ride delay lines rather than acting instantly —
//! the property the paper credits ASIM with enforcing.
//!
//! Stage order within a cycle is reverse (retire → … → fetch) so that no
//! information computed in a stage can be consumed by an earlier stage in
//! the same cycle.

use crate::config::{PipelineConfig, RegisterScheme};
use crate::dyninst::{InstId, InstPhase, InstSlab};
use crate::error::{DeadlockError, PipelineSnapshot, SimError, ThreadSnapshot};
use crate::faults::FaultInjector;
use crate::iq::IssueQueue;
use crate::lsq::StoreWaitTable;
use crate::profile::{NoProbe, Probe, Stopwatch};
use crate::stats::{CpiComponent, SimStats};
use crate::trace::PipelineTracer;
use crate::wheel::{Due, TimingWheel};
use looseloops_branch::{
    build_predictor, Btb, DirectionPredictor, LinePredictor, ReturnAddressStack,
};
use looseloops_isa::{ArchState, FlatMemory, Predecode, Program, Retired};
use looseloops_mem::MemHierarchy;
use looseloops_regs::{
    ClusterRegCache, ForwardingBuffer, FreeList, InsertionTable, PhysReg, PhysRegFile, RenameMap,
    Rpft,
};
use std::collections::VecDeque;

mod execute;
mod fetch;
mod issue;
mod recover;
mod rename;
mod retire;
mod skip;
#[cfg(test)]
mod timing_tests;

use issue::Tenure;

/// Bucket count for the event wheels. Most delays are bounded by small
/// config latencies (issue-to-execute transit, ALU/cache latencies); even
/// a memory miss with a TLB walk stays well inside 256 cycles, so the
/// overflow heap only sees fault-injected latency spikes and pathological
/// configurations.
const WHEEL_HORIZON: u64 = 256;

/// Reusable per-stage working buffers. Every stage that needs a scratch
/// list takes the buffer out (`std::mem::take`), uses it, and puts it
/// back, so after warm-up `step_cycle` runs without heap allocation: the
/// buffers keep their high-water capacity across cycles.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// do_issue: per-cluster oldest-ready selection.
    picks: Vec<Option<(u64, InstId)>>,
    /// Events drained from `exec_events` this cycle.
    exec_due: Vec<Due<(InstId, u32)>>,
    /// do_execute: still-valid events ordered by age (`seq`).
    exec_list: Vec<(u64, InstId, u32)>,
    /// Events drained from `complete_events` this cycle.
    complete_due: Vec<Due<(InstId, u32)>>,
    /// do_complete: still-valid completions ordered by age.
    due: Vec<(u64, InstId, u32, u64)>,
    /// Events drained from `wakeup_events` this cycle.
    wakeup_due: Vec<Due<(InstId, u32, u64)>>,
    /// Load-shadow kill / trap recovery victims.
    to_replay: Vec<InstId>,
    /// squash_after: not-yet-renamed front-end victims.
    dropped: Vec<InstId>,
    /// do_writeback: values leaving the forwarding buffer this cycle.
    expiring: Vec<(PhysReg, u64)>,
    /// Events drained from `ready_events` this cycle.
    ready_due: Vec<Due<(u32, u32)>>,
    /// on_store_wait_marked: ready-list loads to re-gate.
    gate_sweep: Vec<u32>,
}

/// Per-thread front-end and program-order state. Fields are crate-visible
/// for the invariant auditor (`audit.rs`).
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) program: Program,
    /// Per-PC static instruction metadata, decoded once at construction
    /// (DESIGN.md §14). The fetch/rename/execute stages index this flat
    /// table instead of re-interrogating `Inst` per dynamic instance.
    pub(crate) code: Predecode,
    pub(crate) fetch_pc: u64,
    /// PC of the next instruction in architectural (retired) order —
    /// `entry` until the first retirement, then the last retired
    /// instruction's `next_pc`.
    pub(crate) arch_pc: u64,
    /// Fetch suspended: a `halt` was fetched, or the PC ran off the image
    /// on a wrong path. Cleared by squash redirects.
    pub(crate) fetch_suspended: bool,
    pub(crate) fetch_stall_until: u64,
    /// Fetched instructions awaiting rename, with the cycle they become
    /// eligible (fetch-stage delay).
    pub(crate) decode_q: VecDeque<(u64, InstId)>,
    /// Renamed instructions travelling the DEC-IQ pipe toward the IQ.
    pub(crate) transit_q: VecDeque<(u64, InstId)>,
    /// Program-order window (renamed, not yet retired).
    pub(crate) rob: VecDeque<InstId>,
    /// In-flight stores in program order.
    pub(crate) store_q: VecDeque<InstId>,
    /// Count of `store_q` entries whose address is still unknown
    /// (`mem_addr` unset). Incremented at rename, decremented when the
    /// store executes, recomputed on squash.
    pub(crate) unknown_stores: usize,
    /// `seq` of the oldest address-unknown store in `store_q`
    /// (`u64::MAX` when `unknown_stores == 0`). A store-wait-predicted
    /// load must wait exactly while this is older than the load — the
    /// O(1) replacement for scanning `store_q` per readiness check.
    pub(crate) oldest_unknown_seq: u64,
    pub(crate) ras: ReturnAddressStack,
    /// Sequence number of an un-retired memory barrier stalling rename.
    pub(crate) mb_stall_seq: Option<u64>,
    /// Unresolved conditional branches in flight (checkpoint accounting).
    pub(crate) unresolved_branches: usize,
    /// The thread retired its `halt`.
    pub(crate) done: bool,
    /// CPI-stack attribution for the pipeline refill in progress: the
    /// squash (or barrier) cause plus the global `seq` at the event. Empty
    /// or front-end-phase retire slots charge here until an instruction
    /// younger than the marker retires (refill delivered).
    pub(crate) refill_cause: Option<(u64, CpiComponent)>,
    /// Verification oracle (enabled by [`Machine::enable_verification`]).
    pub(crate) oracle: Option<(ArchState, FlatMemory)>,
}

/// The simulated machine: construct with [`Machine::new`], drive with
/// [`Machine::run`], read results from [`Machine::stats`]. Fields are
/// crate-visible for the invariant auditor (`audit.rs`).
pub struct Machine {
    pub(crate) cfg: PipelineConfig,
    pub(crate) cycle: u64,
    pub(crate) seq: u64,
    pub(crate) slab: InstSlab,
    pub(crate) iq: IssueQueue,
    pub(crate) threads: Vec<ThreadState>,
    // Register machinery.
    pub(crate) freelist: FreeList,
    pub(crate) physfile: PhysRegFile,
    pub(crate) rename: Vec<RenameMap>,
    pub(crate) fwd: ForwardingBuffer,
    pub(crate) rpft: Rpft,
    pub(crate) crcs: Vec<ClusterRegCache>,
    pub(crate) itables: Vec<InsertionTable>,
    /// Per physical register: earliest cycle a consumer may *issue* so its
    /// operand is present at execute. `u64::MAX` = producer unscheduled.
    pub(crate) ready_at: Vec<u64>,
    /// Per physical register: cycle the value was actually produced
    /// (`u64::MAX` while in flight).
    pub(crate) avail_cycle: Vec<u64>,
    /// Per physical register: bumped whenever `ready_at` is rewritten (or
    /// re-broadcast to a blocked consumer), so consumers blocked on a
    /// failed wake-up know when to retry.
    pub(crate) ready_version: Vec<u32>,
    /// Per physical register: some consumer recorded the current
    /// `ready_version` as its `blocked_version`. Set by `execute_one`,
    /// cleared by the next version bump. While clear, a broadcast that
    /// leaves `ready_at` unchanged cannot change any consumer's readiness.
    pub(crate) version_blocked: Vec<bool>,
    // Memory.
    pub(crate) hier: MemHierarchy,
    pub(crate) data_mem: FlatMemory,
    // Prediction.
    pub(crate) pred: Box<dyn DirectionPredictor>,
    pub(crate) btb: Btb,
    pub(crate) line_pred: LinePredictor,
    pub(crate) store_wait: StoreWaitTable,
    // Event wheels: cycle -> [(inst, issue-stamp)] in insertion order.
    pub(crate) exec_events: TimingWheel<(InstId, u32)>,
    pub(crate) complete_events: TimingWheel<(InstId, u32)>,
    /// Delayed wake-up corrections: the IQ learns a load missed only after
    /// the load-resolution loop's feedback delay. (cycle -> [(inst, stamp,
    /// corrected ready_at)]).
    pub(crate) wakeup_events: TimingWheel<(InstId, u32, u64)>,
    /// Readiness timers for the incremental scheduler: when a wake-up
    /// names a finite future cycle for a waiting entry, a `(slot, epoch)`
    /// record fires here at that cycle and the entry is re-evaluated.
    /// Spurious fires (withdrawn or superseded wake-ups) are harmless.
    pub(crate) ready_events: TimingWheel<(u32, u32)>,
    /// Per physical register: `(slot, epoch)` records of waiting IQ
    /// entries whose readiness may change when this register's wake-up
    /// schedule changes. Registered at the start of each waiting tenure
    /// for every source register that is not yet *settled* (produced and
    /// past its wake-up cycle); drained by [`Machine::set_ready_at`].
    pub(crate) preg_consumers: Vec<Vec<(u32, u32)>>,
    /// Per IQ slot: what the slot's current waiting tenure waits on,
    /// copied from the instruction by [`Machine::begin_tenure`]. Only
    /// execute and replay rewrite those operand fields, and both end the
    /// tenure, so `reeval_entry` reads this compact record instead of the
    /// instruction slab.
    pub(crate) tenures: Vec<Tenure>,
    /// Per thread: `(slot, epoch)` records of waiting loads parked behind
    /// the store-wait predictor (an older address-unknown store exists).
    /// Drained when a store's address resolves or the queue is squashed.
    pub(crate) gated_loads: Vec<Vec<(u32, u32)>>,
    /// Event-driven scheduling + quiescence skip enabled (default). When
    /// off, `do_issue` falls back to the per-cycle waiting-list walk and
    /// `run` steps every cycle — the reference the differential suite
    /// compares against.
    pub(crate) event_driven: bool,
    /// Did the just-stepped cycle visibly do anything (retire, event
    /// fire, issue, insert, rename, fetch access, write-back, slot
    /// release)? Cleared at the top of every step. Purely a gate on the
    /// quiescence *check*: a false negative costs one evaluation of
    /// [`Machine::quiescent_until`], a false positive delays a skip by
    /// one stepped cycle — neither affects simulated results.
    pub(crate) progressed: bool,
    /// Wall-clock per-stage accumulation since
    /// [`Machine::enable_profile`]; `None` (no timing at all) until then.
    pub(crate) profile: Option<Box<crate::profile::StageReport>>,
    pub(crate) frontend_stall_until: u64,
    /// Per-cluster count of slotted instructions still in DEC-IQ transit
    /// (the IQ itself tracks inserted ones). Slotting balances on the sum,
    /// otherwise whole fetch groups clump onto one cluster for the length
    /// of the transit pipe.
    pub(crate) cluster_pressure: Vec<u32>,
    pub(crate) stats: SimStats,
    /// The structure-kept counts (see [`Machine::structure_counts`]) at
    /// the last [`Machine::reset_stats`]; reported counts are taken
    /// relative to it.
    pub(crate) stats_base: SimStats,
    /// Captured retire stream (for equivalence tests), if enabled.
    pub(crate) retire_capture: Option<Vec<(usize, Retired)>>,
    /// Kanata pipeline tracer, if enabled.
    pub(crate) tracer: Option<PipelineTracer>,
    /// Armed fault injector (from `cfg.faults`), if any.
    pub(crate) injector: Option<FaultInjector>,
    /// Reusable per-stage working buffers (see [`Scratch`]).
    pub(crate) scratch: Scratch,
}

impl Machine {
    /// Build a machine running `programs` (one per hardware thread).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid
    /// ([`PipelineConfig::validate`]) and [`SimError::ProgramCount`] if the
    /// program count does not match `cfg.threads`.
    pub fn new(cfg: PipelineConfig, programs: Vec<Program>) -> Result<Machine, SimError> {
        cfg.validate()?;
        if programs.len() != cfg.threads {
            return Err(SimError::ProgramCount {
                expected: cfg.threads,
                got: programs.len(),
            });
        }

        let mut freelist = FreeList::new(cfg.phys_regs);
        let rename: Vec<RenameMap> = (0..cfg.threads)
            .map(|_| RenameMap::new(&mut freelist))
            .collect();
        let mut data_mem = FlatMemory::new();
        for p in &programs {
            data_mem.load_init_data(p);
        }
        let (crcs, itables) = match cfg.scheme {
            RegisterScheme::Monolithic => (Vec::new(), Vec::new()),
            RegisterScheme::Dra {
                crc_entries,
                crc_policy,
            } => (
                (0..cfg.clusters)
                    .map(|_| {
                        ClusterRegCache::with_policy(crc_entries, crc_policy)
                            .sized_for(cfg.phys_regs)
                    })
                    .collect(),
                (0..cfg.clusters)
                    .map(|_| InsertionTable::new(cfg.phys_regs))
                    .collect(),
            ),
        };
        let threads = programs
            .into_iter()
            .map(|program| ThreadState {
                fetch_pc: program.entry,
                arch_pc: program.entry,
                code: Predecode::of(&program),
                program,
                fetch_suspended: false,
                fetch_stall_until: 0,
                decode_q: VecDeque::new(),
                transit_q: VecDeque::new(),
                rob: VecDeque::new(),
                store_q: VecDeque::new(),
                unknown_stores: 0,
                oldest_unknown_seq: u64::MAX,
                ras: ReturnAddressStack::new(cfg.ras_entries),
                mb_stall_seq: None,
                unresolved_branches: 0,
                done: false,
                refill_cause: None,
                oracle: None,
            })
            .collect();

        Ok(Machine {
            iq: IssueQueue::new(cfg.iq_entries, cfg.clusters),
            physfile: PhysRegFile::new(cfg.phys_regs),
            fwd: ForwardingBuffer::with_regs(cfg.fwd_window, cfg.phys_regs),
            rpft: Rpft::new(cfg.phys_regs),
            ready_at: vec![0; cfg.phys_regs],
            avail_cycle: vec![0; cfg.phys_regs],
            ready_version: vec![0; cfg.phys_regs],
            version_blocked: vec![false; cfg.phys_regs],
            hier: MemHierarchy::new(cfg.mem),
            pred: build_predictor(cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
            line_pred: LinePredictor::new(cfg.line_entries, cfg.width as u64),
            store_wait: StoreWaitTable::new(cfg.store_wait_entries),
            stats: SimStats::new(cfg.threads),
            stats_base: SimStats::default(),
            crcs,
            itables,
            threads,
            rename,
            freelist,
            data_mem,
            cycle: 0,
            seq: 0,
            slab: InstSlab::new(),
            exec_events: TimingWheel::new(WHEEL_HORIZON),
            complete_events: TimingWheel::new(WHEEL_HORIZON),
            wakeup_events: TimingWheel::new(WHEEL_HORIZON),
            ready_events: TimingWheel::new(WHEEL_HORIZON),
            preg_consumers: vec![Vec::new(); cfg.phys_regs],
            tenures: vec![Tenure::default(); cfg.iq_entries],
            gated_loads: vec![Vec::new(); cfg.threads],
            event_driven: true,
            progressed: true,
            profile: None,
            scratch: Scratch::default(),
            frontend_stall_until: 0,
            cluster_pressure: vec![0; cfg.clusters],
            retire_capture: None,
            tracer: None,
            injector: cfg.faults.map(FaultInjector::new),
            cfg,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Current cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Architectural data memory (retired stores + initial images).
    pub fn data_mem(&mut self) -> &mut FlatMemory {
        &mut self.data_mem
    }

    /// Architectural value of register `r` in `thread` (via the retired
    /// rename mapping — only meaningful once the pipeline has drained, e.g.
    /// after the thread halts).
    pub fn arch_reg(&mut self, thread: usize, r: looseloops_isa::Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        let p = self.rename[thread].lookup(r);
        self.physfile.read(p)
    }

    /// Snapshot of `thread`'s full architectural state — all 64 registers
    /// (via [`Machine::arch_reg`]), the PC of the next unretired
    /// instruction, and the halt flag — as an interpreter [`ArchState`],
    /// so it can be [`ArchState::diff`]ed against the functional model's.
    /// Like `arch_reg`, only meaningful once the pipeline has drained.
    pub fn arch_state(&mut self, thread: usize) -> ArchState {
        let mut st = ArchState::new(&self.threads[thread].program);
        for idx in 0..looseloops_isa::reg::NUM_ARCH_REGS {
            let r = looseloops_isa::Reg::from_index(idx);
            let v = self.arch_reg(thread, r);
            st.write_reg(r, v);
        }
        st.set_pc(self.threads[thread].arch_pc);
        st.set_halted(self.threads[thread].done);
        st
    }

    /// Scheduled-vs-fired fault accounting (`None` when `cfg.faults` is
    /// unset). Storm tests assert on this so injections cannot be dropped
    /// silently.
    pub fn fault_summary(&self) -> Option<crate::faults::FaultSummary> {
        self.injector.as_ref().map(FaultInjector::summary)
    }

    /// Check every retired instruction against the functional interpreter,
    /// starting from the machine's *current* architectural state — so this
    /// works both on a fresh machine and immediately after a checkpoint
    /// restore (call it before running, or after the pipeline has fully
    /// drained).
    ///
    /// # Panics
    ///
    /// Any later `run` panics on the first divergence. Only valid for
    /// workloads whose threads touch disjoint memory (all bundled
    /// workloads do): each thread's oracle gets its own clone of the
    /// shared data memory.
    pub fn enable_verification(&mut self) {
        let states: Vec<ArchState> = (0..self.threads.len())
            .map(|t| self.arch_state(t))
            .collect();
        for (t, st) in states.into_iter().enumerate() {
            let mem = self.data_mem.clone();
            self.threads[t].oracle = Some((st, mem));
        }
    }

    /// Restore a thread's architectural state (all 64 registers, the PC of
    /// the next instruction, and the halt flag) from a checkpoint. The
    /// values land in the physical register file through the committed
    /// rename mapping, so a subsequent [`Machine::run`] picks up exactly
    /// where the functional fast-forward left off.
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] if any cycle has already run (restore is
    /// only sound on a fresh machine) or `regs` has the wrong length.
    pub fn restore_thread_state(
        &mut self,
        thread: usize,
        regs: &[u64],
        pc: u64,
        halted: bool,
    ) -> Result<(), SimError> {
        if self.cycle != 0 || self.seq != 0 {
            return Err(SimError::FastForward(
                "thread restore requires a fresh machine (cycle 0)".into(),
            ));
        }
        if regs.len() != usize::from(looseloops_isa::reg::NUM_ARCH_REGS) {
            return Err(SimError::FastForward(format!(
                "checkpoint has {} registers, machine has {}",
                regs.len(),
                looseloops_isa::reg::NUM_ARCH_REGS
            )));
        }
        for (idx, &v) in regs.iter().enumerate() {
            let r = looseloops_isa::Reg::from_index(idx as u8);
            if r.is_zero() {
                continue;
            }
            let p = self.rename[thread].lookup(r);
            self.physfile.write(p, v);
        }
        let th = &mut self.threads[thread];
        th.fetch_pc = pc;
        th.arch_pc = pc;
        th.done = halted;
        th.fetch_suspended = halted;
        Ok(())
    }

    /// Replace the shared functional data memory wholesale (checkpoint
    /// restore; pair with [`Machine::restore_thread_state`]). `mem`'s
    /// pages are copy-on-write, so the machine copies only the pages it
    /// writes.
    pub fn replace_data_mem(&mut self, mem: FlatMemory) {
        self.data_mem = mem;
    }

    /// Install cache/TLB warm state captured during functional fast-forward.
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] if the snapshot does not match this
    /// machine's hierarchy geometry.
    pub fn install_warm_hierarchy(
        &mut self,
        warm: &looseloops_mem::HierarchyWarmState,
    ) -> Result<(), SimError> {
        self.hier.import_warm(warm).map_err(SimError::FastForward)
    }

    /// Install direction-predictor warm state (from
    /// `DirectionPredictor::export_state` of a same-kind predictor).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] on a geometry/kind mismatch.
    pub fn install_warm_predictor(
        &mut self,
        state: &looseloops_branch::PredictorWarmState,
    ) -> Result<(), SimError> {
        self.pred.import_state(state).map_err(SimError::FastForward)
    }

    /// Install BTB warm state (from `Btb::export_state` of a same-size BTB).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] on a size mismatch.
    pub fn install_warm_btb(
        &mut self,
        state: &looseloops_branch::BtbWarmState,
    ) -> Result<(), SimError> {
        self.btb.import_state(state).map_err(SimError::FastForward)
    }

    /// Start recording a Kanata pipeline trace (viewable in Konata-style
    /// pipeline viewers). Costly in memory for long runs; intended for
    /// windows of up to a few hundred thousand cycles.
    pub fn enable_trace(&mut self) {
        self.tracer = Some(PipelineTracer::new());
    }

    /// Start timing this machine's pipeline stages (see
    /// [`crate::profile`]); [`Machine::profile`] then reports every cycle
    /// stepped from here on, across all later `run` calls.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The stage profile since [`Machine::enable_profile`] (`None` when
    /// profiling was never enabled).
    pub fn profile(&self) -> Option<&crate::profile::StageReport> {
        self.profile.as_deref()
    }

    /// Drain the Kanata trace recorded since `enable_trace` (empty string
    /// if tracing was never enabled).
    pub fn take_trace(&mut self) -> String {
        self.tracer
            .as_mut()
            .map(PipelineTracer::take)
            .unwrap_or_default()
    }

    /// Record `(thread, Retired)` for every retirement (equivalence tests).
    pub fn enable_retire_capture(&mut self) {
        self.retire_capture = Some(Vec::new());
    }

    /// Drain and return the captured retire stream. Capture stays enabled;
    /// the drained buffer's allocation is handed to the caller and the
    /// capture restarts empty.
    pub fn take_retires(&mut self) -> Vec<(usize, Retired)> {
        self.retire_capture
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Number of dynamic instructions currently tracked (fetched, not yet
    /// retired or squashed).
    pub fn in_flight(&self) -> usize {
        self.slab.live()
    }

    /// Free physical registers (diagnostics: after a full drain this must
    /// equal `phys_regs - 64 * threads` or registers leaked).
    pub fn free_phys_regs(&self) -> usize {
        self.freelist.available()
    }

    /// All threads have retired their `halt`.
    pub fn is_done(&self) -> bool {
        self.threads.iter().all(|t| t.done)
    }

    /// Reset statistics counters (after warm-up) without touching
    /// micro-architectural state: the next measured window counts only
    /// itself, including the counts kept by the memory hierarchy, the IQ,
    /// the line predictor, the insertion tables and the fault injector.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new(self.cfg.threads);
        self.iq.reset_occupancy();
        let mut base = SimStats::default();
        self.structure_counts(&mut base);
        self.stats_base = base;
    }

    /// Run until every thread halts, `max_retired` instructions retire
    /// (total), or `max_cycles` elapse — whichever is first. Returns the
    /// statistics.
    ///
    /// When `cfg.audit` is set, the invariant auditor runs after every
    /// stepped cycle and after every quiescence skip, so the skip runs
    /// audited too: the checks are of state, which a skip leaves as the
    /// stepped cycles would, and the loop-cost check also covers the
    /// retire slots the skip charged in one batch. When
    /// `cfg.watchdog_window` is non-zero, a forward-progress watchdog
    /// monitors retirement.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no instruction retires for a whole
    /// watchdog window while un-halted threads still have work, and
    /// [`SimError::Invariant`] if the auditor finds a broken structural
    /// invariant. Both carry enough state to diagnose the wedge; the
    /// machine is left intact for inspection.
    pub fn run(&mut self, max_retired: u64, max_cycles: u64) -> Result<&SimStats, SimError> {
        let target = self.stats.total_retired().saturating_add(max_retired);
        let last_cycle = self.cycle.saturating_add(max_cycles);
        let window = self.cfg.watchdog_window;
        // The watchdog anchors at run start so a machine that never retires
        // anything still trips it.
        let mut last_retired = self.stats.total_retired();
        let mut last_progress_cycle = self.cycle;
        while !self.is_done() && self.stats.total_retired() < target && self.cycle < last_cycle {
            self.step_cycle();
            self.audit_if_enabled()?;
            let retired = self.stats.total_retired();
            if retired != last_retired {
                last_retired = retired;
                last_progress_cycle = self.cycle;
            } else if window > 0 && self.cycle - last_progress_cycle >= window {
                self.stats.deadlocks_detected += 1;
                self.finalize_stats();
                return Err(DeadlockError {
                    cycle: self.cycle,
                    window,
                    last_retire_cycle: last_progress_cycle,
                    snapshot: self.snapshot(),
                }
                .into());
            }
            // Only skip when the loop will actually continue — a skip
            // after the final retirement (or budget exhaustion) would
            // charge cycles the naive loop never steps.
            if self.event_driven
                && !self.progressed
                && !self.is_done()
                && self.stats.total_retired() < target
                && self.cycle < last_cycle
            {
                if let Some(t) = self.quiescent_until(last_cycle, window, last_progress_cycle) {
                    self.skip_to(t);
                    self.audit_if_enabled()?;
                }
            }
        }
        self.finalize_stats();
        Ok(&self.stats)
    }

    /// Under `cfg.audit`, check every invariant; a violation finalizes the
    /// statistics and ends the run.
    fn audit_if_enabled(&mut self) -> Result<(), SimError> {
        if self.cfg.audit {
            if let Err(v) = self.audit() {
                self.finalize_stats();
                return Err(v.into());
            }
        }
        Ok(())
    }

    /// Point-in-time occupancy of every pipeline structure (the payload of
    /// a [`DeadlockError`], also useful for ad-hoc diagnostics).
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            cycle: self.cycle,
            iq_len: self.iq.len(),
            iq_capacity: self.iq.capacity(),
            iq_states: self.iq.state_breakdown(),
            free_phys_regs: self.freelist.available(),
            phys_regs: self.cfg.phys_regs,
            in_flight: self.total_in_flight(),
            max_in_flight: self.cfg.max_in_flight,
            frontend_stall_until: self.frontend_stall_until,
            pending_events: (
                self.exec_events.len(),
                self.complete_events.len(),
                self.wakeup_events.len(),
            ),
            threads: self
                .threads
                .iter()
                .map(|th| ThreadSnapshot {
                    done: th.done,
                    fetch_pc: th.fetch_pc,
                    fetch_suspended: th.fetch_suspended,
                    fetch_stall_until: th.fetch_stall_until,
                    decode_q: th.decode_q.len(),
                    transit_q: th.transit_q.len(),
                    rob: th.rob.len(),
                    store_q: th.store_q.len(),
                    unresolved_branches: th.unresolved_branches,
                    mb_stalled: th.mb_stall_seq.is_some(),
                    oldest: th.rob.front().and_then(|&id| self.slab.get(id)).map(|di| {
                        let phase = match di.phase {
                            InstPhase::FrontEnd => "FrontEnd",
                            InstPhase::InIq => "InIq",
                            InstPhase::Issued => "Issued",
                            InstPhase::Complete => "Complete",
                            InstPhase::Retired => "Retired",
                        };
                        (di.seq, di.pc, phase)
                    }),
                })
                .collect(),
        }
    }

    /// Advance exactly one cycle.
    pub fn step_cycle(&mut self) {
        let Some(p) = self.profile.as_deref_mut() else {
            self.step_stages(&mut NoProbe);
            return;
        };
        let timed = p.samples_next();
        p.stepped_cycles += 1;
        if !timed {
            self.step_stages(&mut NoProbe);
            return;
        }
        let mut watch = Stopwatch::start();
        self.step_stages(&mut watch);
        let p = self.profile.as_deref_mut().expect("profiling enabled");
        for (total, stage) in p.stage_ns.iter_mut().zip(&watch.ns) {
            *total += stage;
        }
        p.sampled_cycles += 1;
    }

    /// The stages of one cycle, in `profile::STAGE_NAMES` order; `probe`
    /// marks each stage boundary (a no-op unless the cycle is timed).
    #[inline(always)]
    fn step_stages<P: Probe>(&mut self, probe: &mut P) {
        self.progressed = false;
        let now = self.cycle;
        let retired = self.do_retire(now);
        self.progressed |= retired > 0;
        probe.lap(0);
        // Attribution reads the machine exactly as retire left it, before
        // later (earlier-in-pipe) stages mutate phases for the next cycle.
        self.attribute_cycle(now, retired);
        probe.lap(1);
        self.do_complete(now);
        probe.lap(2);
        // Write-back runs before execute: a value leaving the forwarding
        // buffer this cycle is already in the register file / CRCs when
        // this cycle's executions read operands (the hardware's write-back
        // bypass wire).
        self.do_writeback(now);
        probe.lap(3);
        self.do_execute(now);
        probe.lap(4);
        self.do_wakeups(now);
        probe.lap(5);
        self.do_issue(now);
        probe.lap(6);
        self.do_insert(now);
        probe.lap(7);
        self.do_rename(now);
        probe.lap(8);
        self.do_fetch(now);
        probe.lap(9);
        self.progressed |= self.iq.next_release().is_some_and(|r| r <= now);
        self.iq.release_confirmed(now);
        self.iq.sample_occupancy();
        if self.frontend_held(now) {
            self.stats.operand_miss_stall_cycles += 1;
        }
        self.stats.cycles += 1;
        self.cycle += 1;
        probe.lap(10);
    }

    /// Write the lifetime totals of the counts that structures keep, not
    /// `SimStats`, into `s`. The structures never restart them (the fault
    /// injector's also feed [`Machine::fault_summary`]).
    fn structure_counts(&self, s: &mut SimStats) {
        s.mem = self.hier.stats();
        s.line_pred = self.line_pred.stats();
        s.insertion_saturations = self.itables.iter().map(|t| t.saturation_events()).sum();
        if let Some(inj) = &self.injector {
            s.faults_injected = inj.injected();
            s.faults_by_kind = inj.by_kind();
        }
    }

    fn finalize_stats(&mut self) {
        let mut stats = std::mem::take(&mut self.stats);
        let (mean, post, peak) = self.iq.occupancy_stats();
        stats.iq_occupancy_mean = mean;
        stats.iq_post_issue_mean = post;
        stats.iq_peak = peak;
        // `stats_base` holds nothing but structure counts, so this rebases
        // them on the last reset and leaves every other counter as is.
        self.structure_counts(&mut stats);
        stats.combine_counters(&self.stats_base, |now, base| now - base);
        self.stats = stats;
    }

    /// Enable or disable the event-driven engine (incremental ready-list
    /// selection + quiescence skip). On by default; the differential suite
    /// turns it off to produce the naive per-cycle-stepping reference.
    pub fn set_event_driven(&mut self, on: bool) {
        self.event_driven = on;
    }

    /// The DRA operand-miss recovery stall (paper §5.4) holds fetch,
    /// rename and insert until `frontend_stall_until`.
    fn frontend_held(&self, now: u64) -> bool {
        now < self.frontend_stall_until
    }

    /// The round-robin of rename, insert and retire: `step` acts once for
    /// thread `t`, or returns `false` when `t` can do nothing more this
    /// cycle, until `budget` steps acted or no thread can; returns how many
    /// acted.
    #[inline(always)]
    fn round_robin(
        &mut self,
        budget: usize,
        mut step: impl FnMut(&mut Machine, usize) -> bool,
    ) -> usize {
        let nthreads = self.threads.len();
        // Bit t set: thread t can do nothing more this cycle (`validate`
        // caps threads at 4).
        let all = (1u32 << nthreads) - 1;
        let mut blocked = 0u32;
        let mut left = budget;
        while left > 0 && blocked != all {
            for t in 0..nthreads {
                if left == 0 {
                    break;
                }
                if blocked & (1 << t) != 0 {
                    continue;
                }
                if step(self, t) {
                    left -= 1;
                } else {
                    blocked |= 1 << t;
                }
            }
        }
        budget - left
    }
}

/// When a stage can next act for one thread. Fetch, rename, insert and
/// retire each state their conditions once, in a `*_readiness` function
/// that both the stage and the quiescence skip call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    /// The stage acts this cycle.
    Now,
    /// Its next work ripens at this later cycle.
    At(u64),
    /// Its next work is ripe but held until another stage frees a
    /// resource; rename counts each such cycle in `rename_stall_cycles`.
    Stalled,
    /// It has nothing to act on until another stage acts.
    Blocked,
}
