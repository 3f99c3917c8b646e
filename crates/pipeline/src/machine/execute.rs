//! Execute, complete and write-back, plus the delayed wake-up
//! corrections of the load-resolution loop.

use super::recover::ReplayCause;
use super::Machine;
use crate::config::{LoadSpecPolicy, RegisterScheme};
use crate::dyninst::{DestRename, InstId, InstPhase, OperandSource};
use crate::lsq::{contains, forward_value, overlaps};
use crate::stats::CpiComponent;
use looseloops_isa::{branch_taken, eval_op, Class, Opcode};
use looseloops_mem::AccessKind;

impl Machine {
    /// Process due wake-up corrections (the delayed miss notifications of
    /// the load-resolution loop).
    pub(super) fn do_wakeups(&mut self, now: u64) {
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

    pub(super) fn do_execute(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.scratch.exec_due);
        self.exec_events.drain_due(now, &mut due);
        // Oldest-first so same-cycle store→load forwarding within a thread
        // resolves in program order. The queue orders a batch by schedule
        // time, which usually — but not always (replays reschedule old
        // instructions late) — matches program order, so check before
        // paying for the sort. Instruction seq is the required key; the
        // queue's own per-batch ordering is NOT a substitute.
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
                    vals[i] = self.read_reg(p);
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
        if let Some(seq) = self.iq.mark_confirmed(slot, id) {
            self.release_events.schedule(free_at, (slot, seq));
        }
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
            self.finish_exec(id, now, complete_at, Some(value), pc + 1, false);
            // Consumers were never woken speculatively; wake them for the
            // known outcome, no earlier than the determination point.
            if let Some(DestRename { new, .. }) = self.slab.expect(id).dest {
                let v = ((complete_at + 1).saturating_sub(y)).max(known_at + 1);
                self.set_ready_at(new, v);
            }
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
        // against an overlapping address (it read stale data). The load
        // queue is in program order, so walking it youngest first up to
        // the store visits exactly the younger loads and ends on the
        // oldest violator.
        let mut violator: Option<InstId> = None;
        for &lid in self.threads[t].load_q.iter().rev() {
            let l = self.slab.expect(lid);
            if l.seq <= seq {
                break;
            }
            if let Some(la) = l.mem_addr {
                if overlaps((addr, size), (la, l.mem_size))
                    && matches!(l.phase, InstPhase::Issued | InstPhase::Complete)
                {
                    violator = Some(lid);
                }
            }
        }
        let complete_at = now + self.cfg.lat.agu as u64 - 1;
        self.finish_exec(id, now, complete_at.max(now), None, pc + 1, true);

        if let Some(lid) = violator {
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

    pub(super) fn do_complete(&mut self, now: u64) {
        // Drain every due completion. Results scheduled "for this cycle"
        // during a later stage of the previous iteration (single-cycle ops
        // complete in their execute cycle) are picked up here, one
        // simulator iteration later, stamped with their true cycle (the
        // queue preserves each event's requested cycle).
        let mut drained = std::mem::take(&mut self.scratch.complete_due);
        self.complete_events.drain_due(now, &mut drained);
        // Program-order (instruction seq) sort, skipped when the batch
        // already arrives ordered — see `do_execute` for why the queue's
        // schedule-time ordering is not a substitute for this key.
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        let window = self.cfg.fwd_window;
        due.extend(drained.drain(..).filter_map(|e| {
            let (id, stamp) = e.payload;
            let di = self.slab.get(id).filter(|di| di.issue_count == stamp)?;
            if let (Some(DestRename { new, .. }), Some(_)) = (di.dest, di.result) {
                // In drain (cycle) order, so the schedule appends.
                self.writeback_events.schedule(e.cycle + window, new);
            }
            Some((di.seq, id, stamp, e.cycle))
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
    /// consumers. A write-back whose register was re-written or
    /// reallocated since it was queued is stale and skipped.
    pub(super) fn do_writeback(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.scratch.writeback_due);
        self.writeback_events.drain_due(now, &mut due);
        due.sort_unstable_by_key(|e| e.payload);
        due.dedup_by_key(|e| e.payload);
        for e in &due {
            let p = e.payload;
            let Some(v) = self.fwd.leaving(p, now) else {
                continue;
            };
            self.progressed = true;
            self.rpft.on_writeback(p);
            if self.cfg.scheme.is_dra() {
                for c in 0..self.cfg.clusters {
                    if self.itables[c].take_at_writeback(p) {
                        self.crcs[c].insert(p, v);
                    }
                }
            }
        }
        self.scratch.writeback_due = due;
        self.fwd.evict_expired(now);
    }
}

/// Why execution could not proceed.
enum ExecAbort {
    /// The source at this slot has an in-flight producer (load shadow).
    ProducerNotReady(usize),
    /// DRA: source at the given slot missed payload/forward/CRC.
    OperandMiss(usize),
}
