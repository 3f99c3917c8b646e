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

use crate::config::{LoadSpecPolicy, PipelineConfig, RegisterScheme};
use crate::dyninst::{
    BranchPrediction, DestRename, InstId, InstPhase, InstSlab, OperandSource, SrcOperand, NO_CYCLE,
};
use crate::error::{DeadlockError, PipelineSnapshot, SimError, ThreadSnapshot};
use crate::faults::FaultInjector;
use crate::iq::{IqEntry, IqState, IssueQueue};
use crate::lsq::{contains, forward_value, overlaps, StoreWaitTable};
use crate::profile::{NoProbe, Probe, Stopwatch};
use crate::stats::{CpiComponent, SimStats};
use crate::trace::PipelineTracer;
use crate::wheel::{Due, TimingWheel};
use looseloops_branch::{
    build_predictor, Btb, DirectionPredictor, LinePredictor, ReturnAddressStack,
};
use looseloops_isa::{
    branch_taken, eval_op, ArchState, BranchKind, Class, FlatMemory, Memory, Opcode, Predecode,
    Program, Retired, StaticInstInfo,
};
use looseloops_mem::{AccessKind, MemHierarchy};
use looseloops_regs::{
    ClusterRegCache, ForwardingBuffer, FreeList, InsertionTable, PhysReg, PhysRegFile, RenameMap,
    Rpft,
};
use std::collections::VecDeque;

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

impl ThreadState {
    fn frontend_len(&self) -> usize {
        self.decode_q.len() + self.transit_q.len()
    }

    fn icount(&self) -> usize {
        self.frontend_len() + self.rob.len()
    }
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

    /// Install direction-predictor warm state (the word vector from
    /// `DirectionPredictor::export_state` of a same-kind predictor).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] on a geometry/kind mismatch.
    pub fn install_warm_predictor(&mut self, words: &[u64]) -> Result<(), SimError> {
        self.pred.import_state(words).map_err(SimError::FastForward)
    }

    /// Install BTB warm state (from `Btb::export_state` of a same-size BTB).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] on a size mismatch.
    pub fn install_warm_btb(&mut self, entries: &[(u64, u64)]) -> Result<(), SimError> {
        self.btb
            .import_state(entries)
            .map_err(SimError::FastForward)
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
    /// cycle; when `cfg.watchdog_window` is non-zero, a forward-progress
    /// watchdog monitors retirement.
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
        // Quiescence skip is only sound when the auditor is off: the
        // auditor must observe (and count) every cycle.
        let may_skip = self.event_driven && !self.cfg.audit;
        while !self.is_done() && self.stats.total_retired() < target && self.cycle < last_cycle {
            self.step_cycle();
            if self.cfg.audit {
                if let Err(v) = self.audit() {
                    self.finalize_stats();
                    return Err(v.into());
                }
            }
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
            if may_skip
                && !self.progressed
                && !self.is_done()
                && self.stats.total_retired() < target
                && self.cycle < last_cycle
            {
                if let Some(t) = self.quiescent_until(last_cycle, window, last_progress_cycle) {
                    self.skip_to(t);
                }
            }
        }
        self.finalize_stats();
        Ok(&self.stats)
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
        if now < self.frontend_stall_until {
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

    /// Rewrite a register's wake-up schedule and bump its version so
    /// blocked consumers re-evaluate. A broadcast that repeats the stored
    /// cycle while no consumer is blocked on the current version is a
    /// no-op: every registered consumer already reflects that cycle (a
    /// ready-list entry, a timer at it, or a wait on another source), and
    /// a version bump only matters to a blocked consumer.
    #[inline]
    fn set_ready_at(&mut self, p: PhysReg, v: u64) {
        let i = p.index();
        if self.ready_at[i] == v && !self.version_blocked[i] {
            return;
        }
        self.ready_at[i] = v;
        self.ready_version[i] = self.ready_version[i].wrapping_add(1);
        self.version_blocked[i] = false;
        self.drain_consumers(p);
    }

    /// Enable or disable the event-driven engine (incremental ready-list
    /// selection + quiescence skip). On by default; the differential suite
    /// turns it off to produce the naive per-cycle-stepping reference.
    pub fn set_event_driven(&mut self, on: bool) {
        self.event_driven = on;
    }

    // ----------------------------------------------- incremental scheduling
    //
    // The incremental structures (per-cluster ready lists, per-preg
    // consumer lists, readiness timers, store-wait gate lists) are
    // maintained in BOTH engine modes — only issue *selection* and the
    // quiescence skip switch on `event_driven` — so the auditor can check
    // the ready-list invariants unconditionally and the naive mode stays a
    // true reference for the shared bookkeeping.
    //
    // A physical register is *settled* once it is produced and past its
    // wake-up cycle (`avail_cycle != MAX && ready_at <= now`). A settled
    // register's readiness can never regress: withdrawal (replay) requires
    // an un-produced value, and post-completion rewrites only move the
    // wake-up earlier. Consumer-list registration and record retention key
    // off exactly this predicate.

    /// Store-wait gate for waiting entry `e`: a predicted-conflicting load
    /// must hold while any older same-thread store's address is unknown.
    pub(crate) fn entry_gated(&self, e: &IqEntry) -> bool {
        let di = self.slab.expect(e.id);
        di.class == Class::Load
            && self.store_wait.must_wait(di.pc)
            && self.threads[e.thread].oldest_unknown_seq < di.seq
    }

    /// [`Machine::entry_gated`] for a tenure's copied facts.
    #[inline]
    fn tenure_gated(&self, t: &Tenure) -> bool {
        t.load_pc.is_some_and(|pc| self.store_wait.must_wait(pc))
            && self.threads[t.thread].oldest_unknown_seq < t.seq
    }

    /// Start the waiting tenure in `slot` (after insert or replay): copy
    /// what it waits on into `tenures`, register it on the consumer list
    /// of every source register that could still change its readiness
    /// (see the *settled* rule above), and place it.
    fn begin_tenure(&mut self, slot: u32, now: u64) {
        let Some(e) = self.iq.waiting_slot(slot) else {
            return;
        };
        let (id, thread) = (e.id, e.thread);
        let epoch = self.iq.epoch_of(slot);
        let di = self.slab.expect(id);
        let mut tenure = Tenure {
            seq: di.seq,
            thread,
            load_pc: (di.class == Class::Load).then_some(di.pc),
            srcs: [SrcWait::None; 2],
        };
        let mut first: Option<PhysReg> = None;
        for (wait, src) in tenure.srcs.iter_mut().zip(di.srcs) {
            let Some(src) = src else { continue };
            if src.payload_valid {
                *wait = SrcWait::At(src.ready_at);
                continue;
            }
            let p = src.phys;
            *wait = SrcWait::Reg {
                phys: p.index() as u32,
                blocked: src.blocked_version,
            };
            if first == Some(p) {
                continue; // both sources name the same register
            }
            if first.is_none() {
                first = Some(p);
            }
            if self.avail_cycle[p.index()] == u64::MAX || self.ready_at[p.index()] > now {
                self.preg_consumers[p.index()].push((slot, epoch));
            }
        }
        self.tenures[slot as usize] = tenure;
        self.reeval_entry(slot, now);
    }

    /// Re-evaluate the waiting entry in `slot` against current wake-up and
    /// store-wait state, moving it between the cluster ready list, the
    /// store-wait gate list, and the readiness timer wheel. Idempotent —
    /// spurious calls (stale timers, duplicate consumer records) are
    /// harmless. The caller must have validated that `slot` is `Waiting`.
    fn reeval_entry(&mut self, slot: u32, now: u64) {
        debug_assert!(
            self.iq.waiting_slot(slot).is_some(),
            "reeval_entry: slot not waiting"
        );
        let t = self.tenures[slot as usize];
        let gated = self.tenure_gated(&t);
        // The earliest issue cycle — the cycle-comparison mirror of
        // `src_ready`: `u64::MAX` when unbounded (producer unscheduled, or
        // a source blocked on a wake-up version that has not been
        // rewritten).
        let mut r = 0u64;
        if !gated {
            for src in t.srcs {
                let c = match src {
                    SrcWait::None => 0,
                    SrcWait::At(c) => c,
                    SrcWait::Reg { phys, blocked } => {
                        if blocked == Some(self.ready_version[phys as usize]) {
                            u64::MAX
                        } else {
                            self.ready_at[phys as usize]
                        }
                    }
                };
                r = r.max(c);
            }
        }
        if gated {
            self.iq.ready_withdraw(slot);
            if !self.iq.is_gated(slot) {
                self.iq.set_gated(slot, true);
                self.gated_loads[t.thread].push((slot, self.iq.epoch_of(slot)));
            }
            return;
        }
        self.iq.set_gated(slot, false);
        if r <= now {
            self.iq.ready_push(slot);
        } else {
            self.iq.ready_withdraw(slot);
            if r != u64::MAX {
                self.ready_events
                    .schedule(r, (slot, self.iq.epoch_of(slot)));
            }
        }
    }

    /// Re-evaluate every consumer registered on `p` after its wake-up
    /// schedule changed. Records survive while `p` is still unsettled (a
    /// future wake-up may move again, or be withdrawn); once `p` settles
    /// the records are spent and the list empties.
    fn drain_consumers(&mut self, p: PhysReg) {
        if self.preg_consumers[p.index()].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.preg_consumers[p.index()]);
        let now = self.cycle;
        let keep = self.avail_cycle[p.index()] == u64::MAX || self.ready_at[p.index()] > now;
        let mut i = 0;
        while i < list.len() {
            let (slot, epoch) = list[i];
            if self.iq.waiting_at_epoch(slot, epoch).is_none() {
                list.swap_remove(i);
                continue;
            }
            self.reeval_entry(slot, now);
            if keep {
                i += 1;
            } else {
                list.swap_remove(i);
            }
        }
        // `reeval_entry` never touches consumer lists, but merge rather
        // than overwrite in case that ever changes.
        let mut stray = std::mem::replace(&mut self.preg_consumers[p.index()], list);
        self.preg_consumers[p.index()].append(&mut stray);
    }

    /// Re-evaluate thread `t`'s store-wait-gated loads after the set of
    /// address-unknown stores shrank (a store executed, or a squash).
    fn drain_gated(&mut self, t: usize) {
        if self.gated_loads[t].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.gated_loads[t]);
        let now = self.cycle;
        let mut i = 0;
        while i < list.len() {
            let (slot, epoch) = list[i];
            if self.iq.waiting_at_epoch(slot, epoch).is_none() || !self.iq.is_gated(slot) {
                list.swap_remove(i);
                continue;
            }
            self.reeval_entry(slot, now);
            if self.iq.is_gated(slot) {
                i += 1; // still parked — keep the record
            } else {
                list.swap_remove(i);
            }
        }
        // A reeval above cannot have re-gated into the (taken) field list,
        // but merge rather than overwrite for the same reason as
        // `drain_consumers`.
        let mut stray = std::mem::replace(&mut self.gated_loads[t], list);
        self.gated_loads[t].append(&mut stray);
    }

    /// A store-wait bit was just set for `pc` (memory-order violation):
    /// ready-list loads of that PC with an older address-unknown store
    /// must come back out and park on the gate list. Runs in `do_execute`,
    /// so the gate is visible to this cycle's `do_issue` — exactly when
    /// the per-cycle evaluation would first see it.
    fn on_store_wait_marked(&mut self, pc: u64) {
        let mut sweep = std::mem::take(&mut self.scratch.gate_sweep);
        sweep.clear();
        for cluster in 0..self.cfg.clusters {
            for (slot, _) in self.iq.ready_iter(cluster) {
                let t = &self.tenures[slot as usize];
                if t.load_pc == Some(pc) && self.threads[t.thread].oldest_unknown_seq < t.seq {
                    sweep.push(slot);
                }
            }
        }
        let now = self.cycle;
        for &slot in &sweep {
            self.reeval_entry(slot, now);
        }
        self.scratch.gate_sweep = sweep;
    }

    /// Recompute `unknown_stores` / `oldest_unknown_seq` for thread `t` by
    /// scanning its store queue (squash recovery; the steady-state updates
    /// are O(1) increments at rename and decrements at store execution).
    fn recount_unknown_stores(&mut self, t: usize) {
        let mut count = 0usize;
        let mut oldest = u64::MAX;
        for &sid in &self.threads[t].store_q {
            let sdi = self.slab.expect(sid);
            if sdi.mem_addr.is_none() {
                count += 1;
                oldest = oldest.min(sdi.seq);
            }
        }
        let th = &mut self.threads[t];
        th.unknown_stores = count;
        th.oldest_unknown_seq = oldest;
    }

    // ------------------------------------------------------ quiescence skip

    /// Mirror of `rename_one`'s failure paths, without side effects: would
    /// renaming `id` on thread `t` stall right now?
    fn rename_would_block(&self, t: usize, id: InstId) -> bool {
        let di = self.slab.expect(id);
        if di.class == Class::CondBranch {
            if let Some(limit) = self.cfg.branch_checkpoints {
                if self.threads[t].unresolved_branches >= limit {
                    return true;
                }
            }
        }
        let info = self.threads[t]
            .code
            .info(di.pc)
            .expect("fetched implies predecoded");
        info.dest.is_some() && self.freelist.available() == 0
    }

    /// When no stage can make progress at the current cycle, return the
    /// earliest future cycle at which anything could change — capped by
    /// the run budget and the watchdog — so the run loop may jump there.
    /// Returns `None` when some stage can still act now (or the jump would
    /// be empty). Soundness: every condition a stage acts on is either
    /// checked "ripe now" here (→ `None`) or contributes its ripening
    /// cycle to the target, so every skipped cycle is provably a cycle the
    /// naive loop would have stepped through without changing anything but
    /// the per-cycle counters (batch-charged by `skip_to`).
    fn quiescent_until(
        &self,
        last_cycle: u64,
        window: u64,
        last_progress_cycle: u64,
    ) -> Option<u64> {
        let now = self.cycle;
        // Issue: anything on a ready list issues next cycle.
        if self.iq.ready_total() > 0 {
            return None;
        }
        // Pending events on any wheel.
        let wheel_dues = [
            self.exec_events.next_due(),
            self.complete_events.next_due(),
            self.wakeup_events.next_due(),
            self.ready_events.next_due(),
        ];
        if wheel_dues.iter().any(|d| d.is_some_and(|d| d <= now)) {
            return None;
        }
        // Write-back: a forwarding-buffer value expiring now must drain.
        let expiry = self.fwd.next_expiry(now);
        if expiry == Some(now) {
            return None;
        }
        // IQ slot release of a confirmed entry.
        let release = self.iq.next_release();
        if release.is_some_and(|r| r <= now) {
            return None;
        }
        // Retire: a completed ROB head retires next cycle.
        for th in &self.threads {
            if th.done {
                continue;
            }
            if let Some(&id) = th.rob.front() {
                if self.slab.expect(id).phase == InstPhase::Complete {
                    return None;
                }
            }
        }
        let mut target = last_cycle;
        let fsu = self.frontend_stall_until;
        if now < fsu {
            // Fetch/rename/insert are all held by the operand-miss
            // recovery stall; they can next act when it lifts.
            target = target.min(fsu);
        } else {
            let decode_cap = (self.cfg.fetch_stages as usize + 2) * self.cfg.width;
            let transit_cap = (self.cfg.dec_iq_stages as usize + 2) * self.cfg.width;
            let in_flight_full = self.total_in_flight() >= self.cfg.max_in_flight;
            for (t, th) in self.threads.iter().enumerate() {
                // Fetch (an eligible thread performs an I-cache access
                // even if it then stalls — never skip over that).
                if !th.done && !th.fetch_suspended && th.decode_q.len() < decode_cap {
                    if th.fetch_stall_until <= now {
                        return None;
                    }
                    target = target.min(th.fetch_stall_until);
                }
                // Insert (do_insert has no done/thread gate: mirror that).
                if let Some(&(ready, _)) = th.transit_q.front() {
                    if ready <= now {
                        if self.iq.free_slots() > 0 {
                            return None;
                        }
                    } else {
                        target = target.min(ready);
                    }
                }
                // Rename.
                if let Some(&(ready, id)) = th.decode_q.front() {
                    if ready <= now {
                        let blocked = th.mb_stall_seq.is_some()
                            || th.transit_q.len() >= transit_cap
                            || in_flight_full
                            || self.rename_would_block(t, id);
                        if !blocked {
                            return None;
                        }
                        // A ripe blocked thread charges one rename stall
                        // per cycle; skip_to batch-charges it.
                    } else {
                        target = target.min(ready);
                    }
                }
            }
        }
        for d in wheel_dues.into_iter().flatten() {
            target = target.min(d);
        }
        if let Some(e) = expiry {
            target = target.min(e);
        }
        if let Some(r) = release {
            target = target.min(r);
        }
        if window > 0 {
            // Step the cycle that trips the watchdog, so a deadlock fires
            // at exactly the same cycle (and with the same snapshot) as
            // under naive stepping.
            target = target.min(last_progress_cycle.saturating_add(window).saturating_sub(1));
        }
        (target > now).then_some(target)
    }

    /// Jump the clock from the current (quiescent) cycle to `target`,
    /// batch-charging everything the naive per-cycle loop would have
    /// recorded over the window: CPI-stack idle attribution (the
    /// classification is constant across a quiescent window — nothing
    /// retires and `now < frontend_stall_until` cannot flip inside it),
    /// per-cycle stall counters, IQ occupancy samples, and the cycle
    /// counter itself.
    fn skip_to(&mut self, target: u64) {
        let now = self.cycle;
        debug_assert!(target > now);
        let k = target - now;
        let width = self.cfg.width as u64;
        let cause = self.classify_lost_cycle(now);
        self.stats.loop_cost.charge_idle(width, k, cause);
        if now < self.frontend_stall_until {
            self.stats.operand_miss_stall_cycles += k;
        } else {
            // Every thread with a ripe decode head is provably blocked
            // (quiescent_until returned) and charges one rename stall per
            // skipped cycle, exactly as do_rename would have.
            let ripe = self
                .threads
                .iter()
                .filter(|th| th.decode_q.front().is_some_and(|&(r, _)| r <= now))
                .count() as u64;
            self.stats.rename_stall_cycles += k * ripe;
        }
        self.iq.sample_occupancy_n(k);
        self.stats.cycles += k;
        self.cycle = target;
        if let Some(p) = &mut self.profile {
            p.skips += 1;
            p.skipped_cycles += k;
        }
    }

    /// Process due wake-up corrections (the delayed miss notifications of
    /// the load-resolution loop).
    fn do_wakeups(&mut self, now: u64) {
        let mut list = std::mem::take(&mut self.scratch.wakeup_due);
        self.wakeup_events.drain_due(now, &mut list);
        self.progressed |= !list.is_empty();
        for e in &list {
            let (id, stamp, ready) = e.payload;
            let Some(di) = self.slab.get(id) else {
                continue;
            };
            if di.issue_count != stamp {
                continue;
            }
            if let Some(DestRename { new, .. }) = di.dest {
                let v = ready.min(self.ready_at[new.index()]);
                self.set_ready_at(new, v);
            }
        }
        self.scratch.wakeup_due = list;
    }

    // ----------------------------------------------------------------- fetch

    fn do_fetch(&mut self, now: u64) {
        if now < self.frontend_stall_until {
            return;
        }
        // ICOUNT: fetch from the eligible thread with the fewest in-flight
        // instructions.
        let decode_cap = (self.cfg.fetch_stages as usize + 2) * self.cfg.width;
        let Some(t) = (0..self.threads.len())
            .filter(|&t| {
                let th = &self.threads[t];
                !th.done
                    && !th.fetch_suspended
                    && th.fetch_stall_until <= now
                    && th.decode_q.len() < decode_cap
            })
            .min_by_key(|&t| (self.threads[t].icount(), t))
        else {
            return;
        };

        self.progressed = true;
        let block_start = self.threads[t].fetch_pc;
        // One aligned I-cache access per fetch block.
        let block_addr = Program::inst_addr(block_start) & !63;
        let ic = self.hier.access(AccessKind::InstFetch, block_addr, now);
        if !ic.is_l1_hit() {
            self.threads[t].fetch_stall_until = now + ic.latency as u64;
            return;
        }

        let width = self.cfg.width as u64;
        let block_end = (block_start / width + 1) * width; // stay in the fetch block
        let mut pc = block_start;
        let next_fetch_pc;
        loop {
            let Some(&info) = self.threads[t].code.info(pc) else {
                // Wrong-path runaway: suspend until a squash redirects us.
                self.threads[t].fetch_suspended = true;
                next_fetch_pc = pc;
                break;
            };
            let id = self.alloc_inst(t, pc, &info, now);
            if let Some(tr) = &mut self.tracer {
                let seq = self.slab.expect(id).seq;
                tr.fetch(now, id, seq, t, pc, &info.inst);
            }
            self.stats.fetched += 1;
            let ready = now + self.cfg.fetch_stages as u64;
            self.threads[t].decode_q.push_back((ready, id));

            if info.class == Class::Halt {
                self.threads[t].fetch_suspended = true;
                next_fetch_pc = pc + 1;
                break;
            }
            if info.is_control {
                let (next, taken) = self.predict_control(t, id, pc, &info);
                if taken {
                    next_fetch_pc = next;
                    break;
                }
            }
            pc += 1;
            if pc >= block_end {
                next_fetch_pc = pc;
                break;
            }
        }

        // Next-line predictor: the tight loop. A wrong prediction costs one
        // fetch bubble.
        let predicted = self.line_pred.predict(block_start);
        self.line_pred.train(block_start, next_fetch_pc);
        if predicted != next_fetch_pc {
            self.threads[t].fetch_stall_until = self.threads[t].fetch_stall_until.max(now + 2);
        }
        self.threads[t].fetch_pc = next_fetch_pc;
    }

    /// Predict a control instruction at fetch. Returns (next fetch pc,
    /// redirects-away-from-fall-through).
    fn predict_control(
        &mut self,
        t: usize,
        id: InstId,
        pc: u64,
        info: &StaticInstInfo,
    ) -> (u64, bool) {
        let history = self.pred.snapshot_history();
        let ras_ckpt = self.threads[t].ras.checkpoint_fixed();
        let mut pred_ctx = 0u64;
        let fall = pc + 1;
        let (next, taken) = match info.branch_kind {
            BranchKind::Cond => {
                let (mut dir, ctx) = self.pred.predict_ctx(pc);
                // Fault injection: a flipped direction is just a wrong
                // prediction — resolution squashes and repairs history
                // exactly as for a natural mispredict.
                if let Some(inj) = &mut self.injector {
                    if inj.flip_branch(self.cycle) {
                        dir = !dir;
                    }
                }
                pred_ctx = ctx;
                if dir {
                    ((fall as i64 + info.inst.imm as i64) as u64, true)
                } else {
                    (fall, false)
                }
            }
            // PC-relative target, known from pre-decode bits.
            BranchKind::Br => (((fall as i64) + info.inst.imm as i64) as u64, true),
            BranchKind::Jsr => {
                self.threads[t].ras.push(fall);
                (((fall as i64) + info.inst.imm as i64) as u64, true)
            }
            BranchKind::Ret => (self.threads[t].ras.pop().unwrap_or(fall), true),
            BranchKind::Jmp => (self.btb.lookup(pc).unwrap_or(fall), true),
            BranchKind::None => unreachable!("not a control class"),
        };
        let cold = self.slab.expect_cold_mut(id);
        cold.pred = Some(BranchPrediction {
            taken,
            next_pc: next,
            history,
            ctx: pred_ctx,
        });
        cold.ras_ckpt = Some(ras_ckpt);
        (next, taken)
    }

    fn alloc_inst(&mut self, t: usize, pc: u64, info: &StaticInstInfo, now: u64) -> InstId {
        self.seq += 1;
        self.slab.alloc(self.seq, t, pc, info, now)
    }

    // ---------------------------------------------------------------- rename

    fn do_rename(&mut self, now: u64) {
        if now < self.frontend_stall_until {
            return;
        }
        // Nothing decoded anywhere: skip the round-robin bookkeeping. No
        // stall statistics fire on an empty decode queue, so this early-out
        // is invisible to the simulated results.
        if self.threads.iter().all(|th| th.decode_q.is_empty()) {
            return;
        }
        let transit_cap = (self.cfg.dec_iq_stages as usize + 2) * self.cfg.width;
        let mut budget = self.cfg.width;
        // Every successful rename pushes exactly one ROB entry, so the
        // in-flight count can be carried locally instead of re-summing the
        // per-thread ROB lengths for each candidate.
        let mut in_flight = self.total_in_flight();
        // Round-robin across threads, in per-thread program order, until
        // the budget runs out or every thread is blocked.
        let nthreads = self.threads.len();
        let mut blocked = ThreadMask::default();
        while budget > 0 && !blocked.all(nthreads) {
            for t in 0..nthreads {
                if budget == 0 {
                    break;
                }
                if blocked.has(t) {
                    continue;
                }
                let th = &self.threads[t];
                let Some(&(ready, id)) = th.decode_q.front() else {
                    blocked.set(t);
                    continue;
                };
                if ready > now
                    || th.mb_stall_seq.is_some()
                    || th.transit_q.len() >= transit_cap
                    || in_flight >= self.cfg.max_in_flight
                {
                    if ready <= now {
                        self.stats.rename_stall_cycles += 1;
                    }
                    blocked.set(t);
                    continue;
                }
                if !self.rename_one(t, id, now) {
                    self.stats.rename_stall_cycles += 1;
                    blocked.set(t);
                    continue;
                }
                self.threads[t].decode_q.pop_front();
                in_flight += 1;
                budget -= 1;
                self.progressed = true;
            }
        }
    }

    fn total_in_flight(&self) -> usize {
        // Every renamed, un-retired instruction sits in its thread's ROB
        // (instructions in DEC-IQ transit included), so the ROB lengths ARE
        // the in-flight count.
        self.threads.iter().map(|t| t.rob.len()).sum()
    }

    /// Rename one instruction; returns `false` if it must stall (free-list
    /// exhaustion or no free branch checkpoint).
    fn rename_one(&mut self, t: usize, id: InstId, now: u64) -> bool {
        let pc = self.slab.expect(id).pc;
        // All static facts come from the predecode table — no per-dynamic
        // opcode matches on this path.
        let info = *self.threads[t]
            .code
            .info(pc)
            .expect("fetched implies predecoded");
        let class = info.class;
        if class == Class::CondBranch {
            if let Some(limit) = self.cfg.branch_checkpoints {
                if self.threads[t].unresolved_branches >= limit {
                    return false; // wait for an older branch to resolve
                }
            }
        }
        // Sources must be looked up against the *pre-instruction* map —
        // before the destination rename overwrites a same-register mapping
        // (e.g. `add r2, r2, r1`).
        let mut src_phys: [Option<(looseloops_isa::Reg, PhysReg)>; 2] = [None, None];
        for (slot, arch) in info.srcs.into_iter().enumerate() {
            if let Some(arch) = arch {
                src_phys[slot] = Some((arch, self.rename[t].lookup(arch)));
            }
        }
        let dest = match info.dest {
            Some(arch) => {
                let Some((new, prev)) = self.rename[t].rename_dest(arch, &mut self.freelist) else {
                    return false;
                };
                self.on_allocate_phys(new);
                Some(DestRename { arch, new, prev })
            }
            None => None,
        };

        // Cluster slotting: least-loaded among the clusters whose
        // functional units can execute this class (FP on the first
        // `fp_clusters`, memory on the last `mem_clusters`), counting both
        // IQ occupancy and DEC-IQ transit; ties to the lowest index.
        let eligible: std::ops::Range<usize> = match info.affinity {
            looseloops_isa::ClusterAffinity::Fp => 0..self.cfg.fp_clusters,
            looseloops_isa::ClusterAffinity::Mem => {
                (self.cfg.clusters - self.cfg.mem_clusters)..self.cfg.clusters
            }
            looseloops_isa::ClusterAffinity::Any => 0..self.cfg.clusters,
        };
        // validate() guarantees fp_clusters and mem_clusters are both in
        // 1..=clusters, so every eligibility range is non-empty.
        let load = |c: usize| self.iq.cluster_len(c) + self.cluster_pressure[c];
        let mut cluster = eligible.start;
        let mut least = load(cluster);
        for c in eligible.start + 1..eligible.end {
            if load(c) < least {
                least = load(c);
                cluster = c;
            }
        }

        // Sources.
        let mut srcs: [Option<SrcOperand>; 2] = [None, None];
        for (slot, entry) in src_phys.into_iter().enumerate() {
            let Some((arch, phys)) = entry else { continue };
            let mut payload = 0u64;
            let mut payload_valid = false;
            let mut itable_pending = false;
            if self.cfg.scheme.is_dra() {
                if self.rpft.can_preread(phys) {
                    // Completed operand: pre-read during DEC-IQ.
                    payload = self.physfile.read(phys);
                    payload_valid = true;
                } else {
                    // Not in the register file yet: tell this cluster's
                    // insertion table a consumer is coming.
                    self.itables[cluster].increment(phys);
                    itable_pending = true;
                }
            }
            srcs[slot] = Some(SrcOperand {
                arch,
                phys,
                payload,
                payload_valid,
                ready_at: 0,
                obtained: None,
                avail_cycle: NO_CYCLE,
                itable_pending,
                blocked_version: None,
            });
        }

        if let Some(tr) = &mut self.tracer {
            tr.stage(now, id, "Dc");
        }
        if class == Class::CondBranch {
            self.threads[t].unresolved_branches += 1;
        }
        let di = self.slab.expect_mut(id);
        di.holds_checkpoint = class == Class::CondBranch;
        di.rename_cycle = now;
        di.dest = dest;
        di.srcs = srcs;
        di.cluster = cluster;

        match class {
            Class::MemBar => {
                di.phase = InstPhase::Complete;
                di.next_pc = Some(di.pc + 1);
                self.threads[t].mb_stall_seq = Some(di.seq);
                self.threads[t].rob.push_back(id);
            }
            Class::Halt => {
                di.phase = InstPhase::Complete;
                di.next_pc = Some(di.pc);
                self.threads[t].rob.push_back(id);
            }
            _ => {
                if class == Class::Store {
                    let seq = di.seq;
                    let th = &mut self.threads[t];
                    th.store_q.push_back(id);
                    // Address unknown until the store executes. A new store
                    // is the youngest, so the oldest-unknown marker only
                    // changes when it was previously "none" — and a
                    // MAX→seq transition cannot newly gate any *older*
                    // waiting load, so no gate re-evaluation is needed.
                    th.unknown_stores += 1;
                    if th.oldest_unknown_seq == u64::MAX {
                        th.oldest_unknown_seq = seq;
                    }
                }
                self.cluster_pressure[cluster] += 1;
                self.threads[t].rob.push_back(id);
                let insert_at = now + self.cfg.dec_iq_stages as u64;
                self.threads[t].transit_q.push_back((insert_at, id));
            }
        }
        true
    }

    fn on_allocate_phys(&mut self, p: PhysReg) {
        self.physfile.mark_allocated(p);
        self.rpft.on_allocate(p);
        self.fwd.invalidate(p);
        for c in &mut self.crcs {
            c.invalidate(p);
        }
        for t in &mut self.itables {
            t.clear(p);
        }
        self.ready_at[p.index()] = u64::MAX;
        self.avail_cycle[p.index()] = u64::MAX;
        // No waiting entry can still reference the previous incarnation of
        // a freshly allocated register (its last reader retired before the
        // redefiner released it) — any leftover consumer records are stale.
        self.preg_consumers[p.index()].clear();
    }

    // ---------------------------------------------------------------- insert

    fn do_insert(&mut self, now: u64) {
        if now < self.frontend_stall_until {
            return;
        }
        // Nothing in DEC-IQ transit anywhere: the round-robin below would
        // only mark every thread blocked and exit, so skip it outright.
        if self.threads.iter().all(|th| th.transit_q.is_empty()) {
            return;
        }
        let nthreads = self.threads.len();
        let mut blocked = ThreadMask::default();
        while !blocked.all(nthreads) {
            for t in 0..nthreads {
                if blocked.has(t) {
                    continue;
                }
                let Some(&(ready, id)) = self.threads[t].transit_q.front() else {
                    blocked.set(t);
                    continue;
                };
                if ready > now || self.iq.free_slots() == 0 {
                    blocked.set(t);
                    continue;
                }
                let di = self.slab.expect(id);
                let entry = IqEntry {
                    id,
                    seq: di.seq,
                    thread: t,
                    cluster: di.cluster,
                    state: IqState::Waiting,
                };
                let slot = self.iq.insert(entry);
                debug_assert!(slot.is_some());
                self.cluster_pressure[di.cluster] -= 1;
                if let Some(tr) = &mut self.tracer {
                    tr.stage(now, id, "Q");
                }
                let di = self.slab.expect_mut(id);
                di.phase = InstPhase::InIq;
                di.insert_cycle = now;
                if let Some(slot) = slot {
                    di.iq_slot = slot;
                }
                self.threads[t].transit_q.pop_front();
                if let Some(slot) = slot {
                    // New waiting tenure: hook up incremental readiness.
                    self.begin_tenure(slot, now);
                }
                self.progressed = true;
            }
        }
    }

    // ----------------------------------------------------------------- issue

    /// Earliest-issue constraint for one source operand.
    fn src_ready(&self, src: &SrcOperand, now: u64) -> bool {
        if src.payload_valid {
            return src.ready_at <= now;
        }
        // A consumer that already executed against a stale wake-up stays
        // blocked until the producer re-broadcasts (version change).
        if src.blocked_version == Some(self.ready_version[src.phys.index()]) {
            return false;
        }
        self.ready_at[src.phys.index()] <= now
    }

    pub(crate) fn entry_ready(&self, e: &IqEntry, now: u64) -> bool {
        let di = self.slab.expect(e.id);
        for src in di.srcs.iter().flatten() {
            if !self.src_ready(src, now) {
                return false;
            }
        }
        // Store-wait discipline: a load whose PC has trapped before must
        // wait for every older store's address. `oldest_unknown_seq` is
        // the incrementally maintained minimum over address-unknown
        // entries of the thread's store queue, so the old per-evaluation
        // queue scan reduces to one comparison.
        if di.class == Class::Load
            && self.store_wait.must_wait(di.pc)
            && self.threads[e.thread].oldest_unknown_seq < di.seq
        {
            return false;
        }
        true
    }

    fn do_issue(&mut self, now: u64) {
        // Fire due readiness timers (scheduled whenever a wake-up named a
        // finite future cycle). Stale records — the tenure ended, or the
        // wake-up moved again — are dropped or handled idempotently.
        let mut due = std::mem::take(&mut self.scratch.ready_due);
        self.ready_events.drain_due(now, &mut due);
        self.progressed |= !due.is_empty();
        for e in &due {
            let (slot, epoch) = e.payload;
            if self.iq.waiting_at_epoch(slot, epoch).is_some() {
                self.reeval_entry(slot, now);
            }
        }
        self.scratch.ready_due = due;

        // One selection per cluster: oldest ready waiting entry.
        if self.event_driven && self.iq.ready_total() == 0 {
            return; // no ready entry anywhere — nothing to select
        }
        let mut picks = std::mem::take(&mut self.scratch.picks);
        picks.clear();
        picks.resize(self.cfg.clusters, None);
        if self.event_driven {
            // The incrementally maintained ready lists are age-sorted, so
            // each cluster's pick is its list head — O(clusters), not
            // O(waiting × operands).
            for (cluster, pick) in picks.iter_mut().enumerate() {
                if let Some(e) = self.iq.ready_front(cluster) {
                    *pick = Some((e.seq, e.id));
                }
            }
        } else {
            // Naive reference: evaluate every waiting entry from scratch
            // and keep each cluster's oldest ready one.
            for e in self.iq.iter() {
                if e.state == IqState::Waiting
                    && picks[e.cluster].is_none_or(|(seq, _)| e.seq < seq)
                    && self.entry_ready(e, now)
                {
                    picks[e.cluster] = Some((e.seq, e.id));
                }
            }
        }
        for &pick in &picks {
            if let Some((_, id)) = pick {
                self.progressed = true;
                self.issue_one(id, now);
            }
        }
        self.scratch.picks = picks;
    }

    fn issue_one(&mut self, id: InstId, now: u64) {
        if let Some(tr) = &mut self.tracer {
            tr.stage(now, id, "Is");
        }
        let y = self.cfg.iq_ex_stages as u64;
        let di = self.slab.expect_mut(id);
        di.issue_cycle = now;
        di.issue_count += 1;
        di.phase = InstPhase::Issued;
        let stamp = di.issue_count;
        let class = di.class;
        let dest = di.dest;
        let slot = di.iq_slot;
        self.iq.mark_issued(slot, id);
        let exec_at = now + y;
        self.exec_events.schedule(exec_at, (id, stamp));

        // Speculative wake-up broadcast: consumers may issue so they reach
        // execute exactly when the (predicted) result forwards.
        if let Some(DestRename { new, .. }) = dest {
            let lat = self.class_latency(class) as u64;
            let speculate_loads = !matches!(self.cfg.load_policy, LoadSpecPolicy::Stall);
            if class != Class::Load || speculate_loads {
                let predicted_complete = exec_at + lat - 1;
                self.set_ready_at(new, (predicted_complete + 1).saturating_sub(y));
            }
            // Under Stall, load consumers wake only once the outcome is
            // known (set in the execute stage).
        }
    }

    /// Deterministic execution latency by class; loads get AGU + L1-hit
    /// here (the speculative schedule), with the true latency applied at
    /// the data-cache access.
    fn class_latency(&self, class: Class) -> u32 {
        let l = &self.cfg.lat;
        match class {
            Class::IntAlu | Class::Branch | Class::CondBranch | Class::Jump => l.int_alu,
            Class::IntMul => l.int_mul,
            Class::FpAdd => l.fp_add,
            Class::FpMul => l.fp_mul,
            Class::FpDiv => l.fp_div,
            Class::Load => l.agu + self.hier.l1d_hit_latency(),
            Class::Store => l.agu,
            Class::MemBar | Class::Halt => 1,
        }
    }

    // --------------------------------------------------------------- execute

    fn do_execute(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.scratch.exec_due);
        self.exec_events.drain_due(now, &mut due);
        // Oldest-first so same-cycle store→load forwarding within a thread
        // resolves in program order. The wheel orders a batch by schedule
        // time, which usually — but not always (replays reschedule old
        // instructions late) — matches program order, so check before
        // paying for the sort. Instruction seq is the required key; the
        // wheel's own per-batch ordering is NOT a substitute.
        let mut list = std::mem::take(&mut self.scratch.exec_list);
        list.clear();
        list.extend(due.drain(..).filter_map(|e| {
            let (id, stamp) = e.payload;
            let di = self.slab.get(id)?;
            (di.issue_count == stamp && di.phase == InstPhase::Issued)
                .then_some((di.seq, id, stamp))
        }));
        self.scratch.exec_due = due;
        self.progressed |= !list.is_empty();
        if !list.is_sorted_by_key(|&(seq, _, _)| seq) {
            list.sort_unstable_by_key(|&(seq, _, _)| seq);
        }
        for &(_, id, stamp) in &list {
            // An older instruction in this very batch may have squashed or
            // replayed this one (branch recovery, memory trap, shadow
            // kill): re-validate before executing.
            let still_due = self
                .slab
                .get(id)
                .is_some_and(|di| di.issue_count == stamp && di.phase == InstPhase::Issued);
            if still_due {
                self.execute_one(id, now);
            }
        }
        self.scratch.exec_list = list;
    }

    /// Gathered operand values, or the reason execution must abort.
    fn gather_operands(
        &mut self,
        id: InstId,
        now: u64,
    ) -> Result<([u64; 2], [Option<OperandSource>; 2]), ExecAbort> {
        let di = self.slab.expect(id);
        let cluster = di.cluster;
        let srcs = di.srcs;
        let mut vals = [0u64; 2];
        let mut sources = [None; 2];
        for (i, src) in srcs.iter().enumerate() {
            let Some(src) = src else { continue };
            if src.payload_valid {
                vals[i] = src.payload;
                // A re-acquisition after an operand miss is not a new read.
                sources[i] = match src.obtained {
                    Some(OperandSource::Miss) => None,
                    _ => Some(OperandSource::PreRead),
                };
                continue;
            }
            let p = src.phys;
            if self.avail_cycle[p.index()] >= now {
                // Producer has not produced: load-shadow (or chained)
                // replay.
                return Err(ExecAbort::ProducerNotReady(i));
            }
            match self.cfg.scheme {
                RegisterScheme::Monolithic => {
                    // Forwarding buffer first; older values come from the
                    // monolithic register file read during IQ-EX.
                    if self.fwd.lookup(p, now).is_some() {
                        sources[i] = Some(OperandSource::Forward);
                    } else {
                        sources[i] = Some(OperandSource::RegFile);
                    }
                    vals[i] = self.physfile.read(p);
                }
                RegisterScheme::Dra { .. } => {
                    // Fault injection: force this lookup to miss. Safe
                    // because the producer-not-ready check above already
                    // passed — the value is in the register file, so the
                    // architected miss-recovery path delivers it.
                    if self
                        .injector
                        .as_mut()
                        .is_some_and(|inj| inj.drop_operand(now))
                    {
                        return Err(ExecAbort::OperandMiss(i));
                    }
                    if let Some(v) = self.fwd.lookup(p, now) {
                        vals[i] = v;
                        sources[i] = Some(OperandSource::Forward);
                    } else if let Some(v) = self.crcs[cluster].lookup(p) {
                        vals[i] = v;
                        sources[i] = Some(OperandSource::Crc);
                    } else {
                        return Err(ExecAbort::OperandMiss(i));
                    }
                }
            }
        }
        Ok((vals, sources))
    }

    fn execute_one(&mut self, id: InstId, now: u64) {
        match self.gather_operands(id, now) {
            Ok((vals, sources)) => self.execute_with(id, now, vals, sources),
            Err(ExecAbort::ProducerNotReady(slot)) => {
                // Block until the producer re-broadcasts its wake-up —
                // unless the value is completing this very cycle (no
                // further broadcast is coming; a plain retry suffices).
                if let Some(src) = self.slab.expect_mut(id).srcs[slot].as_mut() {
                    let p = src.phys.index();
                    src.blocked_version = (self.avail_cycle[p] == u64::MAX).then(|| {
                        self.version_blocked[p] = true;
                        self.ready_version[p]
                    });
                }
                self.replay(id, ReplayCause::Producer)
            }
            Err(ExecAbort::OperandMiss(slot)) => self.operand_miss(id, slot, now),
        }
    }

    /// Put an issued instruction back to Waiting (it will reissue).
    fn replay(&mut self, id: InstId, cause: ReplayCause) {
        if let Some(tr) = &mut self.tracer {
            tr.stage(self.cycle, id, "Q");
        }
        let di = self.slab.expect_mut(id);
        di.phase = InstPhase::InIq;
        di.needs_replay = true;
        di.replay_component = Some(match cause {
            ReplayCause::Producer | ReplayCause::Shadow => CpiComponent::LoadResolution,
            ReplayCause::OperandMiss => CpiComponent::OperandResolution,
        });
        // Withdraw the speculative wake-up this issue broadcast: the
        // result is NOT coming on the predicted schedule. Consumers go
        // back to waiting until the replayed issue re-broadcasts;
        // otherwise they spin through issue -> execute -> replay.
        let dest = di.dest;
        if let Some(DestRename { new, .. }) = dest {
            if self.avail_cycle[new.index()] == u64::MAX {
                self.set_ready_at(new, u64::MAX);
            }
        }
        let slot = self.slab.expect(id).iq_slot;
        self.iq.mark_waiting(slot, id);
        // New waiting tenure: hook up incremental readiness. (Sources
        // whose producers re-blocked above register on the producer's
        // consumer list; the re-broadcast re-evaluates this entry.)
        self.begin_tenure(slot, self.cycle);
        match cause {
            // Producer-not-ready chains are rooted at mis-speculated loads
            // (deterministic-latency producers never disappoint their
            // consumers) — the paper's load-resolution-loop useless work.
            ReplayCause::Producer => self.stats.load_replays += 1,
            ReplayCause::OperandMiss => self.stats.operand_replays += 1,
            ReplayCause::Shadow => self.stats.shadow_replays += 1,
        }
    }

    /// DRA operand-resolution-loop mis-speculation: the value exists only
    /// in the register file. Read it there, deliver to the payload, replay,
    /// and stall the front end while the recovery runs (paper §5.4).
    fn operand_miss(&mut self, id: InstId, slot: usize, now: u64) {
        self.stats.operand_misses += 1;
        self.stats.operand_sources[4] += 1; // Miss bucket
        let delivery = now + self.cfg.rf_read_latency as u64;
        self.frontend_stall_until = self.frontend_stall_until.max(delivery);
        let y = self.cfg.iq_ex_stages as u64;
        let di = self.slab.expect_mut(id);
        let phys = di.srcs[slot].as_ref().expect("missing operand slot").phys;
        let src = di.srcs[slot].as_mut().expect("missing operand slot");
        src.obtained = Some(OperandSource::Miss);
        src.ready_at = (delivery + 1).saturating_sub(y);
        let value = self.physfile.read(phys);
        let src = self.slab.expect_mut(id).srcs[slot].as_mut().expect("slot");
        src.payload = value;
        src.payload_valid = true;
        self.replay(id, ReplayCause::OperandMiss);
    }

    fn execute_with(
        &mut self,
        id: InstId,
        now: u64,
        vals: [u64; 2],
        sources: [Option<OperandSource>; 2],
    ) {
        if let Some(tr) = &mut self.tracer {
            tr.stage(now, id, "X");
        }
        // Commit operand bookkeeping (stats + DRA insertion-table
        // decrements) only on successful execution.
        let (cluster, srcs_snapshot) = {
            let di = self.slab.expect(id);
            (di.cluster, di.srcs)
        };
        for (i, s) in sources.iter().enumerate() {
            let Some(s) = s else { continue };
            let bucket = match s {
                OperandSource::PreRead => 0,
                OperandSource::Forward => 1,
                OperandSource::Crc => 2,
                OperandSource::RegFile => 3,
                OperandSource::Miss => 4,
            };
            self.stats.operand_sources[bucket] += 1;
            if *s == OperandSource::Forward && self.cfg.scheme.is_dra() {
                if let Some(src) = &srcs_snapshot[i] {
                    self.itables[cluster].decrement(src.phys);
                    if let Some(slot) = self.slab.expect_mut(id).srcs[i].as_mut() {
                        slot.itable_pending = false;
                    }
                }
            }
        }
        // Record operand availability (Figure 6).
        {
            let rename_cycle = self.slab.expect(id).rename_cycle;
            let mut avail = [None, None];
            for (i, src) in srcs_snapshot.iter().enumerate() {
                let Some(src) = src else { continue };
                let a = if src.payload_valid {
                    rename_cycle
                } else {
                    self.avail_cycle[src.phys.index()].max(rename_cycle)
                };
                avail[i] = Some(a);
            }
            let di = self.slab.expect_mut(id);
            for (i, a) in avail.into_iter().enumerate() {
                if let (Some(slot), Some(a)) = (di.srcs[i].as_mut(), a) {
                    slot.avail_cycle = a;
                    if slot.obtained.is_none() {
                        slot.obtained = sources[i];
                    }
                }
            }
        }

        let di = self.slab.expect(id);
        let (inst, pc, t, seq, class) = (di.inst, di.pc, di.thread, di.seq, di.class);
        let s1 = if inst.rs1.is_zero() { 0 } else { vals[0] };
        let s2 = if inst.uses_imm {
            inst.imm as i64 as u64
        } else if inst.rs2.is_zero() {
            0
        } else {
            vals[1]
        };

        match class {
            Class::Load => self.execute_load(id, now, s1),
            Class::Store => self.execute_store(id, now, s1, s2),
            Class::CondBranch | Class::Branch | Class::Jump => self.execute_control(id, now, s1),
            Class::IntAlu | Class::IntMul | Class::FpAdd | Class::FpMul | Class::FpDiv => {
                let result = if inst.op == Opcode::Nop {
                    0
                } else {
                    eval_op(inst.op, s1, s2)
                };
                let lat = self.class_latency(class) as u64;
                self.finish_exec(id, now, now + lat - 1, Some(result), pc + 1, true);
            }
            Class::MemBar | Class::Halt => {
                unreachable!("barriers and halts never enter the IQ (thread {t}, seq {seq})")
            }
        }
    }

    /// Common execute epilogue: confirm the IQ entry, schedule completion.
    /// `broadcast` re-anchors the destination wake-up immediately; load
    /// misses pass `false` and deliver the correction later, after the
    /// load-resolution loop's feedback delay (see `execute_load`).
    fn finish_exec(
        &mut self,
        id: InstId,
        now: u64,
        complete_at: u64,
        result: Option<u64>,
        next_pc: u64,
        broadcast: bool,
    ) {
        let free_at = now + self.cfg.confirm_feedback as u64 + self.cfg.iq_clear_extra as u64;
        let slot = self.slab.expect(id).iq_slot;
        self.iq.mark_confirmed(slot, id, free_at);
        let y = self.cfg.iq_ex_stages as u64;
        let di = self.slab.expect_mut(id);
        di.result = result;
        di.next_pc = Some(next_pc);
        let stamp = di.issue_count;
        let dest = di.dest;
        if broadcast {
            if let Some(DestRename { new, .. }) = dest {
                // Re-anchor the wake-up to the true completion time.
                self.set_ready_at(new, (complete_at + 1).saturating_sub(y));
            }
        }
        self.complete_events
            .schedule(complete_at.max(now), (id, stamp));
    }

    fn execute_load(&mut self, id: InstId, now: u64, base: u64) {
        let agu = self.cfg.lat.agu as u64;
        let y = self.cfg.iq_ex_stages as u64;
        let (imm, t, seq, pc, size) = {
            let di = self.slab.expect(id);
            (di.inst.imm, di.thread, di.seq, di.pc, di.mem_size)
        };
        let addr = base.wrapping_add(imm as i64 as u64);

        // Memory-dependence check against older in-flight stores.
        let mut forwarded: Option<u64> = None;
        let mut conflict_pending = false;
        for &sid in self.threads[t].store_q.iter().rev() {
            let s = self.slab.expect(sid);
            if s.seq >= seq {
                continue;
            }
            match s.mem_addr.map(|sa| (sa, s.mem_size)) {
                Some(sa) if overlaps(sa, (addr, size)) => {
                    if contains(sa, (addr, size)) {
                        forwarded = Some(forward_value(
                            sa,
                            s.store_data.expect("store data"),
                            (addr, size),
                        ));
                    } else {
                        conflict_pending = true; // partial overlap: wait it out
                    }
                    break; // newest older store wins
                }
                Some(_) => continue,
                None => {} // unknown address: speculate past it
            }
        }
        if conflict_pending {
            // Rare partial-overlap case: retry once the store has retired.
            let di = self.slab.expect_mut(id);
            if let Some(src) = di.srcs[0].as_mut() {
                src.ready_at = ((now + 4 + 1).saturating_sub(y)).max(src.ready_at);
                if !src.payload_valid {
                    src.payload = base;
                    src.payload_valid = true;
                }
            }
            self.replay(id, ReplayCause::Producer);
            return;
        }

        // Timed cache access (wrong-path loads pollute realistically).
        let access = self.hier.access(AccessKind::DataRead, addr, now + agu - 1);
        // Train the optional stream prefetcher on demand loads.
        self.hier.observe_load(pc, addr);
        let hit = access.is_l1_hit();
        // Fault injection: a latency spike delays the value. Scheduling
        // treats a spiked hit as a miss (so the delayed wake-up correction
        // reaches consumers); the L1 hit/miss *stats* keep the real cache
        // outcome.
        let spike = self
            .injector
            .as_mut()
            .and_then(|inj| inj.load_spike(now))
            .unwrap_or(0);
        let sched_hit = hit && spike == 0;
        let complete_at = now + agu - 1 + access.latency as u64 + spike;
        let value = forwarded.unwrap_or_else(|| self.data_mem.read(addr, size));

        self.stats.loads += 1;
        self.stats
            .record_load_latency(agu + access.latency as u64 + spike);
        if hit {
            self.stats.load_l1_hits += 1;
        } else {
            self.stats.load_l1_misses += 1;
        }

        {
            let di = self.slab.expect_mut(id);
            di.mem_addr = Some(addr);
            di.load_l1_hit = Some(hit);
            di.tlb_trap = access.tlb_trap;
        }

        // The load-resolution loop: hit/miss becomes known at the end of
        // the (speculatively scheduled) hit latency.
        let known_at = now + agu - 1 + self.hier.l1d_hit_latency() as u64;
        if !sched_hit {
            match self.cfg.load_policy {
                LoadSpecPolicy::Stall | LoadSpecPolicy::ReissueTree => {}
                LoadSpecPolicy::ReissueShadow => self.kill_load_shadow(id, t),
                LoadSpecPolicy::Refetch => {
                    self.finish_exec(id, now, complete_at, Some(value), pc + 1, true);
                    self.refetch_after_load(id, known_at);
                    return;
                }
            }
        }
        if matches!(self.cfg.load_policy, LoadSpecPolicy::Stall) {
            // Consumers were never woken speculatively; wake them for the
            // known outcome, no earlier than the determination point.
            if let Some(DestRename { new, .. }) = self.slab.expect(id).dest {
                let v = ((complete_at + 1).saturating_sub(y)).max(known_at + 1);
                self.set_ready_at(new, v);
            }
            let di = self.slab.expect_mut(id);
            let stamp = di.issue_count;
            di.next_pc = Some(pc + 1);
            di.result = Some(value);
            let free_at = now + self.cfg.confirm_feedback as u64 + self.cfg.iq_clear_extra as u64;
            let slot = self.slab.expect(id).iq_slot;
            self.iq.mark_confirmed(slot, id, free_at);
            self.complete_events.schedule(complete_at, (id, stamp));
            return;
        }
        if sched_hit {
            self.finish_exec(id, now, complete_at, Some(value), pc + 1, true);
        } else {
            // The IQ keeps issuing against the stale hit-assumed schedule
            // until the miss signal traverses the load-resolution loop's
            // feedback path; only then does the corrected wake-up land.
            self.finish_exec(id, now, complete_at, Some(value), pc + 1, false);
            let stamp = self.slab.expect(id).issue_count;
            let corrected = (complete_at + 1).saturating_sub(y);
            self.wakeup_events.schedule(
                known_at + self.cfg.confirm_feedback as u64,
                (id, stamp, corrected),
            );
        }
    }

    /// 21264-style recovery: kill every issued-but-unconfirmed instruction
    /// of the thread (in the load shadow), dependent or not.
    fn kill_load_shadow(&mut self, load: InstId, t: usize) {
        let load_seq = self.slab.expect(load).seq;
        let mut to_replay = std::mem::take(&mut self.scratch.to_replay);
        to_replay.clear();
        to_replay.extend(self.iq.iter().filter_map(|e| {
            (e.thread == t
                && e.seq > load_seq
                && matches!(e.state, IqState::Issued)
                && e.id != load)
                .then_some(e.id)
        }));
        for &id in &to_replay {
            self.replay(id, ReplayCause::Shadow);
        }
        self.scratch.to_replay = to_replay;
    }

    /// Refetch recovery for a load miss: squash everything after the load
    /// and refetch from the next instruction.
    fn refetch_after_load(&mut self, load: InstId, redirect_at: u64) {
        let (t, seq, pc) = {
            let di = self.slab.expect(load);
            (di.thread, di.seq, di.pc)
        };
        self.squash_after(
            t,
            seq,
            pc + 1,
            redirect_at + 1,
            CpiComponent::LoadResolution,
        );
    }

    fn execute_store(&mut self, id: InstId, now: u64, base: u64, data: u64) {
        let (imm, t, seq, pc, size) = {
            let di = self.slab.expect(id);
            (di.inst.imm, di.thread, di.seq, di.pc, di.mem_size)
        };
        let addr = base.wrapping_add(imm as i64 as u64);
        let was_unknown = {
            let di = self.slab.expect_mut(id);
            let was = di.mem_addr.is_none();
            di.mem_addr = Some(addr);
            di.store_data = Some(data);
            was
        };
        if was_unknown {
            let th = &mut self.threads[t];
            th.unknown_stores -= 1;
            if th.oldest_unknown_seq == seq {
                // The oldest unknown address just resolved: advance the
                // marker and release any store-wait gates it was holding.
                self.recount_unknown_stores(t);
                self.drain_gated(t);
            }
        }

        // Memory-order violation: a younger load of ours already executed
        // against an overlapping address (it read stale data).
        let mut violator: Option<(u64, InstId)> = None;
        for &lid in &self.threads[t].rob {
            let l = self.slab.expect(lid);
            if l.seq <= seq || l.class != Class::Load {
                continue;
            }
            if let Some(la) = l.mem_addr {
                if overlaps((addr, size), (la, l.mem_size))
                    && matches!(l.phase, InstPhase::Issued | InstPhase::Complete)
                    && violator.map(|(s, _)| l.seq < s).unwrap_or(true)
                {
                    violator = Some((l.seq, lid));
                }
            }
        }
        let complete_at = now + self.cfg.lat.agu as u64 - 1;
        self.finish_exec(id, now, complete_at.max(now), None, pc + 1, true);

        if let Some((_, lid)) = violator {
            let (lseq, lpc) = {
                let l = self.slab.expect(lid);
                (l.seq, l.pc)
            };
            self.stats.mem_order_traps += 1;
            self.store_wait.mark(lpc);
            // Freshly predicted PC: ready-list loads at that PC (any
            // thread — the table is shared) must re-park behind their
            // older unknown stores before this cycle's issue stage runs.
            self.on_store_wait_marked(lpc);
            // Recovery stage is fetch (paper Figure 2, memory trap loop):
            // squash from the violating load inclusive and refetch it.
            self.squash_after(t, lseq - 1, lpc, now + 1, CpiComponent::MemoryTrap);
        }
    }

    fn execute_control(&mut self, id: InstId, now: u64, s1: u64) {
        let (inst, pc, t, class, has_dest) = {
            let di = self.slab.expect(id);
            (di.inst, di.pc, di.thread, di.class, di.dest.is_some())
        };
        let fall = pc + 1;
        let (taken, target) = match class {
            Class::CondBranch => {
                let tk = branch_taken(inst.op, s1);
                (
                    tk,
                    if tk {
                        (fall as i64 + inst.imm as i64) as u64
                    } else {
                        fall
                    },
                )
            }
            Class::Branch => (true, (fall as i64 + inst.imm as i64) as u64),
            Class::Jump => (true, s1),
            _ => unreachable!(),
        };
        let result = has_dest.then_some(fall); // link value for jsr/jmp

        // Prediction tables are trained at retire (in order, correct path
        // only); execute handles only detection and history repair.
        if class == Class::CondBranch {
            let di = self.slab.expect_mut(id);
            if di.holds_checkpoint {
                di.holds_checkpoint = false;
                self.threads[t].unresolved_branches -= 1;
            }
        }

        let (pred_next, history) = {
            let (di, cold) = self.slab.expect_both_mut(id);
            di.taken = Some(taken);
            // invariant: predict_control stamped a prediction on every
            // control instruction at fetch, before it could reach execute.
            let p = cold
                .pred
                .as_ref()
                .expect("control instructions carry predictions");
            (p.next_pc, p.history)
        };

        let lat = self.cfg.lat.int_alu as u64;
        self.finish_exec(id, now, now + lat - 1, result, target, true);

        if pred_next != target {
            // Mis-speculation on the branch-resolution loop.
            if class == Class::CondBranch {
                self.stats.branch_mispredicts += 1;
            } else {
                self.stats.target_mispredicts += 1;
            }
            self.stats.branch_squashes += 1;
            // Restore speculative history to the pre-branch snapshot, then
            // shift the true outcome in.
            self.pred.restore_history(history);
            if class == Class::CondBranch {
                self.pred.speculate_history(taken);
                let ctx = self
                    .slab
                    .expect_cold(id)
                    .pred
                    .as_ref()
                    .expect("prediction")
                    .ctx;
                self.pred.repair(pc, ctx, taken);
            }
            let seq = self.slab.expect(id).seq;
            let ras = self.slab.expect_cold_mut(id).ras_ckpt.take();
            if let Some(ras) = ras {
                self.threads[t].ras.restore_fixed(&ras);
                // Redo this instruction's own RAS effect.
                match inst.op {
                    Opcode::Jsr => self.threads[t].ras.push(fall),
                    Opcode::Ret => {
                        let _ = self.threads[t].ras.pop();
                    }
                    _ => {}
                }
            }
            // Branch-resolution feedback delay: one cycle.
            #[allow(unused_mut)]
            let mut redirect = target;
            #[cfg(feature = "chaos")]
            if self.cfg.chaos_branch_recovery_off_by_one && class == Class::CondBranch {
                // Seeded defect for the differential fuzzer: the recovery
                // redirect (not the architectural next_pc) lands one
                // instruction late, so post-recovery retirement diverges
                // from the oracle.
                redirect = redirect.wrapping_add(1);
            }
            self.squash_after(t, seq, redirect, now + 1, CpiComponent::BranchResolution);
        }
    }

    // -------------------------------------------------------------- complete

    fn do_complete(&mut self, now: u64) {
        // Drain every due bucket. Results scheduled "for this cycle" during
        // a later stage of the previous iteration (single-cycle ops
        // complete in their execute cycle) are picked up here, one
        // simulator iteration later, stamped with their true cycle (the
        // wheel preserves each event's requested cycle).
        let mut drained = std::mem::take(&mut self.scratch.complete_due);
        self.complete_events.drain_due(now, &mut drained);
        // Program-order (instruction seq) sort, skipped when the batch
        // already arrives ordered — see `do_execute` for why the wheel's
        // schedule-time ordering is not a substitute for this key.
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        due.extend(drained.drain(..).filter_map(|e| {
            let (id, stamp) = e.payload;
            let di = self.slab.get(id)?;
            (di.issue_count == stamp).then_some((di.seq, id, stamp, e.cycle))
        }));
        self.scratch.complete_due = drained;
        if !due.is_sorted_by_key(|&(seq, _, _, _)| seq) {
            due.sort_unstable_by_key(|&(seq, _, _, _)| seq);
        }
        self.progressed |= !due.is_empty();
        for &(_, id, _, cyc) in &due {
            if let Some(tr) = &mut self.tracer {
                tr.stage(now, id, "Cm");
            }
            let di = self.slab.expect_mut(id);
            di.phase = InstPhase::Complete;
            di.complete_cycle = cyc;
            let (dest, result) = (di.dest, di.result);
            if let (Some(DestRename { new, .. }), Some(v)) = (dest, result) {
                self.physfile.write(new, v);
                self.fwd.insert(new, v, cyc);
                self.avail_cycle[new.index()] = cyc;
                let y = self.cfg.iq_ex_stages as u64;
                let nv = self.ready_at[new.index()].min((cyc + 1).saturating_sub(y));
                self.set_ready_at(new, nv);
            }
        }
        self.scratch.due = due;
    }

    // ------------------------------------------------------------- writeback

    /// Register-file write-back: values leaving the forwarding buffer
    /// become pre-readable (RPFT) and, under the DRA, are captured by the
    /// cluster register caches whose insertion tables show outstanding
    /// consumers.
    fn do_writeback(&mut self, now: u64) {
        let mut expiring = std::mem::take(&mut self.scratch.expiring);
        self.fwd.expiring_into(now, &mut expiring);
        self.progressed |= !expiring.is_empty();
        for &(p, v) in &expiring {
            self.rpft.on_writeback(p);
            if self.cfg.scheme.is_dra() {
                for c in 0..self.cfg.clusters {
                    if self.itables[c].take_at_writeback(p) {
                        self.crcs[c].insert(p, v);
                    }
                }
            }
        }
        self.scratch.expiring = expiring;
        self.fwd.evict_expired(now);
    }

    // ---------------------------------------------------------------- retire

    fn do_retire(&mut self, now: u64) -> u64 {
        let mut budget = self.cfg.width;
        let nthreads = self.threads.len();
        let mut blocked = ThreadMask::default();
        while budget > 0 && !blocked.all(nthreads) {
            for t in 0..nthreads {
                if budget == 0 {
                    break;
                }
                if blocked.has(t) {
                    continue;
                }
                let th = &self.threads[t];
                let head = th.rob.front().filter(|_| !th.done);
                let Some(&id) =
                    head.filter(|&&id| self.slab.expect(id).phase == InstPhase::Complete)
                else {
                    blocked.set(t);
                    continue;
                };
                self.retire_one(t, id, now);
                budget -= 1;
                if self.threads[t].done {
                    blocked.set(t);
                }
            }
        }
        (self.cfg.width - budget) as u64
    }

    /// Charge this cycle's retire slots to the per-loop CPI stack:
    /// `retired` slots used, the rest lost to a single classified cause.
    fn attribute_cycle(&mut self, now: u64, retired: u64) {
        let width = self.cfg.width as u64;
        let cause = if retired < width {
            self.classify_lost_cycle(now)
        } else {
            CpiComponent::Base
        };
        self.stats.loop_cost.charge(width, retired, cause);
    }

    /// Why retire could not fill its slots this cycle. Inspects the oldest
    /// un-retired instruction across live threads (the commit bottleneck)
    /// and the thread's refill state after a squash.
    fn classify_lost_cycle(&self, now: u64) -> CpiComponent {
        // Oldest ROB head across not-done threads: the instruction the
        // retire stage is actually waiting on.
        let mut oldest: Option<(u64, usize, InstId)> = None;
        for (t, th) in self.threads.iter().enumerate() {
            if th.done {
                continue;
            }
            if let Some(&id) = th.rob.front() {
                let seq = self.slab.expect(id).seq;
                if oldest.is_none_or(|(s, _, _)| seq < s) {
                    oldest = Some((seq, t, id));
                }
            }
        }
        let Some((_, t, id)) = oldest else {
            // Every live ROB is empty: the pipe is refilling. Charge the
            // squash/barrier that caused it when known, else the DRA
            // operand-recovery stall, else the front end.
            for th in &self.threads {
                if !th.done {
                    if let Some((_, c)) = th.refill_cause {
                        return c;
                    }
                }
            }
            if self.threads.iter().all(|th| th.done) {
                return CpiComponent::Base; // end-of-program drain
            }
            if now < self.frontend_stall_until {
                return CpiComponent::OperandResolution;
            }
            return CpiComponent::Frontend;
        };
        let di = self.slab.expect(id);
        match di.phase {
            // Renamed but still in DEC-IQ transit: the window is refilling.
            InstPhase::FrontEnd => self.threads[t]
                .refill_cause
                .map(|(_, c)| c)
                .unwrap_or(CpiComponent::Frontend),
            InstPhase::InIq | InstPhase::Issued => {
                // A head load waiting on a confirmed L1 miss is memory
                // latency, not a loose loop.
                if di.class == Class::Load && di.load_l1_hit == Some(false) {
                    return CpiComponent::MemoryLatency;
                }
                if let Some(c) = di.replay_component {
                    return c;
                }
                CpiComponent::Base
            }
            // A Complete head means the width budget ran out mid-group or
            // another thread consumed the slots: steady-state cost.
            InstPhase::Complete | InstPhase::Retired => CpiComponent::Base,
        }
    }

    fn retire_one(&mut self, t: usize, id: InstId, now: u64) {
        let di = self.slab.expect(id);
        let (inst, pc, seq, tlb_trap, class) = (di.inst, di.pc, di.seq, di.tlb_trap, di.class);
        // invariant: only Complete-phase instructions retire, and every
        // path into Complete (finish_exec, rename of barriers/halts, the
        // Stall-policy load path) sets next_pc first.
        let next_pc = di
            .next_pc
            .expect("complete instructions know their next pc");
        let retired = Retired {
            pc,
            inst,
            wrote: di
                .dest
                .map(|d| (d.arch, di.result.expect("dest implies result"))),
            mem_addr: di.mem_addr.map(|a| (a, di.mem_size)),
            taken: di.taken.or(match class {
                Class::CondBranch => Some(next_pc != pc + 1),
                Class::Branch | Class::Jump => Some(true),
                _ => None,
            }),
            next_pc,
        };
        let pred_ctx = (class == Class::CondBranch)
            .then(|| self.slab.expect_cold(id).pred.as_ref().map(|p| p.ctx))
            .flatten();

        // Stores drain to memory at retire.
        if class == Class::Store {
            let addr = di.mem_addr.expect("stores know their address");
            let size = di.mem_size;
            let data = di.store_data.expect("stores stage their data");
            self.data_mem.write(addr, size, data);
            self.hier.access(AccessKind::DataWrite, addr, now);
            let front = self.threads[t].store_q.pop_front();
            debug_assert_eq!(front, Some(id), "stores retire in order");
        }

        if let Some(DestRename { prev, .. }) = di.dest {
            self.freelist.release(prev);
        }
        match class {
            Class::CondBranch => {
                self.stats.branches += 1;
                let ctx = pred_ctx.expect("conditional branches carry predictions");
                self.pred
                    .train_ctx(pc, ctx, retired.taken.expect("resolved branch"));
            }
            Class::Jump => {
                self.btb.update(pc, next_pc);
            }
            _ => {}
        }
        // Refill accounting: an instruction younger than the pending
        // squash/barrier marker retiring means the refill has delivered.
        if self.threads[t]
            .refill_cause
            .is_some_and(|(marker, _)| seq > marker)
        {
            self.threads[t].refill_cause = None;
        }
        match class {
            Class::MemBar => {
                self.stats.mem_barriers += 1;
                if self.threads[t].mb_stall_seq == Some(seq) {
                    self.threads[t].mb_stall_seq = None;
                }
                // The rename stall behind the barrier drains the window;
                // charge the bubble until post-barrier work retires.
                self.threads[t].refill_cause = Some((seq, CpiComponent::MemoryBarrier));
            }
            Class::Halt => {
                self.threads[t].done = true;
            }
            _ => {}
        }

        // Figure 6: operand availability gap, measured on retired
        // (correct-path) instructions.
        {
            let di = self.slab.expect(id);
            let mut a = [0u64; 2];
            let mut n = 0;
            for s in di.srcs.iter().flatten() {
                if s.avail_cycle != NO_CYCLE {
                    a[n & 1] = s.avail_cycle;
                    n += 1;
                }
            }
            let gap = if n == 2 { a[0].abs_diff(a[1]) } else { 0 };
            self.stats.record_gap(gap);
        }

        // Oracle check.
        {
            let th = &mut self.threads[t];
            if let Some((oracle, omem)) = &mut th.oracle {
                let expect = oracle.step(&th.program, omem).expect("oracle keeps pace");
                assert_eq!(
                    expect, retired,
                    "retire stream diverged from the functional model at thread {t} pc {pc} (cycle {now})"
                );
            }
        }
        if let Some(log) = &mut self.retire_capture {
            log.push((t, retired));
        }
        self.threads[t].arch_pc = next_pc;

        if let Some(tr) = &mut self.tracer {
            tr.retire(now, id);
        }
        self.threads[t].rob.pop_front();
        self.slab.release(id);
        self.stats.retired[t] += 1;

        // Post-retire traps: dTLB miss (recovery from the top of the pipe).
        if tlb_trap && !self.threads[t].done {
            self.stats.tlb_traps += 1;
            self.squash_after(t, seq, next_pc, now + 1, CpiComponent::MemoryTrap);
        }
    }

    // ---------------------------------------------------------------- squash

    /// Kill every instruction of `thread` younger than `after_seq`, roll
    /// back rename state, and redirect fetch to `new_pc` at `redirect_at`.
    /// The refill bubble that follows is charged to `cause` in the
    /// per-loop CPI stack until post-squash work retires.
    fn squash_after(
        &mut self,
        thread: usize,
        after_seq: u64,
        new_pc: u64,
        redirect_at: u64,
        cause: CpiComponent,
    ) {
        // Front-end queues: not yet renamed (decode_q) — just drop.
        let mut dropped = std::mem::take(&mut self.scratch.dropped);
        dropped.clear();
        let th = &mut self.threads[thread];
        while let Some(&(_, id)) = th.decode_q.back() {
            if self.slab.expect(id).seq > after_seq {
                th.decode_q.pop_back();
                dropped.push(id);
            } else {
                break;
            }
        }
        th.transit_q.retain(|&(_, id)| {
            // Renamed instructions also sit in the ROB; the ROB walk below
            // releases them.
            self.slab.expect(id).seq <= after_seq
        });
        th.store_q
            .retain(|&id| self.slab.expect(id).seq <= after_seq);
        if th.mb_stall_seq.is_some_and(|s| s > after_seq) {
            th.mb_stall_seq = None;
        }
        // Removed stores are all younger than every surviving load, so no
        // surviving gate can loosen — only the counters need repair.
        self.recount_unknown_stores(thread);

        // IQ entries (their slab records are released by the ROB walk).
        self.iq.squash(|e| e.thread == thread && e.seq > after_seq);

        // ROB walk, youngest first: rename rollback + slab release.
        while let Some(&id) = self.threads[thread].rob.back() {
            let di = self.slab.expect(id);
            if di.seq <= after_seq {
                break;
            }
            self.stats.squashed += 1;
            if di.issue_count > 0 {
                self.stats.squashed_after_issue += 1;
            }
            if di.phase == InstPhase::FrontEnd {
                // Still in DEC-IQ transit: release its slotting pressure.
                self.cluster_pressure[di.cluster] -= 1;
            }
            if di.holds_checkpoint {
                self.threads[thread].unresolved_branches -= 1;
            }
            // Optional idealization: undo this consumer's outstanding
            // insertion-table increments (real hardware leaves the 2-bit
            // counters polluted by wrong-path consumers).
            if self.cfg.scheme.is_dra() && self.cfg.dra_ideal_squash_cleanup {
                let cluster = di.cluster;
                let mut pend = [None; 2];
                for (i, s) in di.srcs.iter().flatten().enumerate() {
                    if s.itable_pending {
                        pend[i & 1] = Some(s.phys);
                    }
                }
                for p in pend.into_iter().flatten() {
                    self.itables[cluster].decrement(p);
                }
            }
            let di = self.slab.expect(id);
            if let Some(DestRename { arch, new, prev }) = di.dest {
                self.rename[thread].rollback(arch, prev, &mut self.freelist);
                // The squashed allocation must never satisfy later lookups.
                self.fwd.invalidate(new);
                for c in &mut self.crcs {
                    c.invalidate(new);
                }
                for it in &mut self.itables {
                    it.clear(new);
                }
                self.ready_at[new.index()] = 0;
                self.avail_cycle[new.index()] = 0;
                self.physfile.mark_ready(new);
            }
            if let Some(tr) = &mut self.tracer {
                tr.flush(self.cycle, id);
            }
            self.threads[thread].rob.pop_back();
            self.slab.release(id);
        }
        for &id in &dropped {
            self.stats.squashed += 1;
            if let Some(tr) = &mut self.tracer {
                tr.flush(self.cycle, id);
            }
            self.slab.release(id);
        }
        self.scratch.dropped = dropped;

        // Fetch redirect.
        let th = &mut self.threads[thread];
        th.fetch_pc = new_pc;
        th.fetch_suspended = false;
        th.fetch_stall_until = th.fetch_stall_until.max(redirect_at);
        // Everything fetched after this point carries seq > self.seq; until
        // one of those retires, lost retire slots belong to this squash.
        th.refill_cause = Some((self.seq, cause));
    }
}

/// What one waiting tenure of an IQ slot waits on (see
/// [`Machine::tenures`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tenure {
    seq: u64,
    /// The PC of a load (subject to the store-wait gate); `None` for every
    /// other class.
    load_pc: Option<u64>,
    thread: usize,
    srcs: [SrcWait; 2],
}

/// What one source operand of a waiting tenure waits on.
#[derive(Debug, Clone, Copy, Default)]
enum SrcWait {
    /// No operand in this position.
    #[default]
    None,
    /// The value is in the payload: issuable from this cycle on.
    At(u64),
    /// The producer's wake-up (`ready_at[phys]`), unless the operand is
    /// blocked until the register's version moves past `blocked`.
    Reg { phys: u32, blocked: Option<u32> },
}

/// Per-thread "can make no further progress this cycle" flags of the
/// rename / insert / retire round-robin loops (`validate` caps threads at
/// 4, well inside the bits).
#[derive(Default, Clone, Copy)]
struct ThreadMask(u32);

impl ThreadMask {
    #[inline]
    fn has(self, t: usize) -> bool {
        self.0 & (1 << t) != 0
    }

    #[inline]
    fn set(&mut self, t: usize) {
        self.0 |= 1 << t;
    }

    /// Every one of `n` threads is blocked.
    #[inline]
    fn all(self, n: usize) -> bool {
        self.0 == (1 << n) - 1
    }
}

/// Why execution could not proceed.
enum ExecAbort {
    /// The source at this slot has an in-flight producer (load shadow).
    ProducerNotReady(usize),
    /// DRA: source at the given slot missed payload/forward/CRC.
    OperandMiss(usize),
}

/// Replay-cause attribution for useless-work statistics.
enum ReplayCause {
    Producer,
    OperandMiss,
    Shadow,
}

#[cfg(test)]
mod timing_tests {
    use super::*;

    /// The paper's load-resolution-loop arithmetic: an IQ entry issued at T
    /// is confirmed at T + IQ-EX + feedback and cleared one cycle later.
    #[test]
    fn iq_entries_are_retained_for_the_loop_delay() {
        let prog = looseloops_isa::asm::assemble(
            "addi r1, r31, 5\ntop:\nadd r2, r2, r1\nsubi r1, r1, 1\nbne r1, top\nhalt",
        )
        .unwrap();
        let cfg = PipelineConfig::base();
        let loop_delay = cfg.load_loop_delay() as u64; // 8
        let clear = cfg.iq_clear_extra as u64;
        let mut m = Machine::new(cfg, vec![prog]).unwrap();
        m.enable_verification();
        // Step until the first instruction issues, then watch its entry.
        let mut issued_at = None;
        let mut freed_at = None;
        for _ in 0..2000 {
            m.step_cycle();
            let held: Vec<u64> = m.iq.iter().map(|e| e.seq).collect();
            if issued_at.is_none() {
                if let Some(e) = m.iq.iter().find(|e| e.seq == 1) {
                    if !matches!(e.state, IqState::Waiting) {
                        issued_at = Some(m.slab.expect(e.id).issue_cycle);
                    }
                }
            } else if freed_at.is_none() && !held.contains(&1) {
                freed_at = Some(m.cycle() - 1);
            }
            if m.is_done() {
                break;
            }
        }
        assert!(m.is_done());
        let (issued, freed) = (issued_at.unwrap(), freed_at.unwrap());
        assert_eq!(
            freed,
            issued + loop_delay + clear,
            "entry must persist for the load-resolution loop delay plus the clear cycle"
        );
    }

    /// A broadcast that repeats a register's wake-up cycle must still bump
    /// its version, and so release a consumer that execute blocked on the
    /// current version; once nobody is blocked, the repeat is a no-op.
    #[test]
    fn same_cycle_rebroadcast_releases_a_version_blocked_consumer() {
        let prog = looseloops_isa::asm::assemble("add r1, r2, r3\nhalt").unwrap();
        let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
        m.cycle = 10;
        let p = PhysReg(300);
        m.ready_at[p.index()] = 5;
        m.avail_cycle[p.index()] = u64::MAX; // produced value not back yet
        let info = *m.threads[0].code.info(0).unwrap();
        let id = m.slab.alloc(1, 0, 0, &info, 0);
        // What execute records on a producer-not-ready abort.
        m.version_blocked[p.index()] = true;
        m.slab.expect_mut(id).srcs[0] = Some(SrcOperand {
            arch: looseloops_isa::Reg::int(2),
            phys: p,
            payload: 0,
            payload_valid: false,
            itable_pending: false,
            ready_at: 0,
            blocked_version: Some(m.ready_version[p.index()]),
            obtained: None,
            avail_cycle: NO_CYCLE,
        });
        let slot =
            m.iq.insert(IqEntry {
                id,
                seq: 1,
                thread: 0,
                cluster: 0,
                state: IqState::Waiting,
            })
            .unwrap();
        m.slab.expect_mut(id).iq_slot = slot;
        m.begin_tenure(slot, m.cycle);
        assert!(
            !m.iq.in_ready(slot),
            "blocked until the producer re-broadcasts"
        );
        m.set_ready_at(p, 5);
        assert!(m.iq.in_ready(slot), "the same-cycle broadcast releases it");
        assert!(!m.version_blocked[p.index()]);
        let version = m.ready_version[p.index()];
        m.set_ready_at(p, 5);
        assert_eq!(m.ready_version[p.index()], version, "nobody blocked: no-op");
    }

    /// Back-to-back dependent single-cycle ALU ops execute in consecutive
    /// cycles (the forwarding tight loop).
    #[test]
    fn dependent_alu_chain_is_back_to_back() {
        let prog = looseloops_isa::asm::assemble(
            "addi r1, r31, 1\naddi r1, r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt",
        )
        .unwrap();
        let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
        m.enable_verification();
        let mut exec_cycles = Vec::new();
        for _ in 0..2000 {
            m.step_cycle();
            if m.is_done() {
                break;
            }
        }
        assert!(m.is_done());
        // Re-run capturing completion cycles via a fresh machine and the
        // retire capture (completion separation == 1 implies back-to-back).
        let prog = looseloops_isa::asm::assemble(
            "addi r1, r31, 1\naddi r1, r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt",
        )
        .unwrap();
        let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
        loop {
            m.step_cycle();
            for e in m.iq.iter() {
                if let Some(di) = m.slab.get(e.id) {
                    let c = di.complete_cycle;
                    if c != crate::dyninst::NO_CYCLE && !exec_cycles.contains(&(di.seq, c)) {
                        exec_cycles.push((di.seq, c));
                    }
                }
            }
            if m.is_done() || m.cycle() > 2000 {
                break;
            }
        }
        assert!(m.is_done());
        exec_cycles.sort_unstable();
        exec_cycles.dedup_by_key(|&mut (s, _)| s);
        for w in exec_cycles.windows(2) {
            assert_eq!(
                w[1].1 - w[0].1,
                1,
                "dependent adds must complete in consecutive cycles: {exec_cycles:?}"
            );
        }
    }
}
