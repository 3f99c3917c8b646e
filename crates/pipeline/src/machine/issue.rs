//! Issue: incremental readiness (wake-up schedules, waiting tenures,
//! store-wait gates) and oldest-ready selection per cluster.

use super::Machine;
use crate::config::LoadSpecPolicy;
use crate::dyninst::{DestRename, InstId, InstPhase, SrcOperand};
use crate::iq::{IqEntry, IqState};
use looseloops_isa::Class;
use looseloops_regs::PhysReg;

impl Machine {
    /// Rewrite a register's wake-up schedule and bump its version so
    /// blocked consumers re-evaluate. A broadcast that repeats the stored
    /// cycle while no consumer is blocked on the current version is a
    /// no-op: every registered consumer already reflects that cycle (a
    /// ready-list entry, a timer at it, or a wait on another source), and
    /// a version bump only matters to a blocked consumer.
    #[inline]
    pub(super) fn set_ready_at(&mut self, p: PhysReg, v: u64) {
        let i = p.index();
        if self.ready_at[i] == v && !self.version_blocked[i] {
            return;
        }
        self.ready_at[i] = v;
        self.ready_version[i] = self.ready_version[i].wrapping_add(1);
        self.version_blocked[i] = false;
        self.drain_consumers(p);
    }

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
    pub(super) fn begin_tenure(&mut self, slot: u32, now: u64) {
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
    /// store-wait gate list, and the readiness timer queue. Idempotent —
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
    pub(super) fn drain_gated(&mut self, t: usize) {
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
    pub(super) fn on_store_wait_marked(&mut self, pc: u64) {
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
    pub(super) fn recount_unknown_stores(&mut self, t: usize) {
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

    /// Waiting entry `e` may issue at `now`: every source is ready and no
    /// store-wait gate holds it. The naive engine selects by this, and the
    /// auditor checks the incremental ready lists against it.
    pub(crate) fn entry_ready(&self, e: &IqEntry, now: u64) -> bool {
        let di = self.slab.expect(e.id);
        di.srcs.iter().flatten().all(|src| self.src_ready(src, now)) && !self.entry_gated(e)
    }

    pub(super) fn do_issue(&mut self, now: u64) {
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
    pub(super) fn class_latency(&self, class: Class) -> u32 {
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
