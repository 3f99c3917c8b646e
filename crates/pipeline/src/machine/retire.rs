//! Retire and the per-cycle CPI-stack attribution of lost retire slots.

use super::{Machine, Readiness};
use crate::dyninst::{DestRename, InstId, InstPhase, NO_CYCLE};
use crate::error::{Divergence, DivergenceCheck, DivergenceCheck::*};
use crate::stats::CpiComponent;
use looseloops_isa::{Class, Retired};
use looseloops_mem::AccessKind;

impl Machine {
    /// Can thread `t` retire? A live thread retires its ROB head once the
    /// head is complete.
    pub(super) fn retire_readiness(&self, t: usize) -> Readiness {
        let th = &self.threads[t];
        match th.rob.front() {
            Some(&id) if !th.done && self.slab.expect(id).phase == InstPhase::Complete => {
                Readiness::Now
            }
            _ => Readiness::Blocked,
        }
    }

    pub(super) fn do_retire(&mut self, now: u64) -> u64 {
        self.round_robin(self.cfg.width, |m, t| {
            if m.retire_readiness(t) != Readiness::Now {
                return false;
            }
            let id = *m.threads[t].rob.front().expect("a ready head");
            m.retire_one(t, id, now);
            true
        }) as u64
    }

    /// Charge this cycle's retire slots to the per-loop CPI stack:
    /// `retired` slots used, the rest lost to a single classified cause.
    pub(super) fn attribute_cycle(&mut self, now: u64, retired: u64) {
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
    pub(super) fn classify_lost_cycle(&self, now: u64) -> CpiComponent {
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
            if self.frontend_held(now) {
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
        } else if class == Class::Load {
            let front = self.threads[t].load_q.pop_front();
            debug_assert_eq!(front, Some(id), "loads retire in order");
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

        self.threads[t].arch_pc = next_pc;
        self.verify(t, &retired, now);
        if let Some(log) = &mut self.retire_capture {
            log.push((t, retired));
        }

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

    /// Check thread `t`'s retirement, and at its `halt` its final state,
    /// against its oracle; keep the first mismatch for [`Machine::run`].
    fn verify(&mut self, t: usize, retired: &Retired, now: u64) {
        let th = &mut self.threads[t];
        let Some((oracle, mem)) = &mut th.oracle else {
            return;
        };
        let found = match oracle.step(&th.program, mem) {
            Ok(exp) if exp == *retired && th.done => self.final_mismatch(t),
            Ok(exp) if exp == *retired => None,
            Ok(exp) => Some((Retire, format!("oracle {exp:?}, machine {retired:?}"))),
            Err(e) => Some((Retire, format!("oracle: {e}; machine {retired:?}"))),
        };
        if let Some((check, detail)) = found {
            self.divergence.get_or_insert(Box::new(Divergence {
                thread: t,
                cycle: now,
                pc: retired.pc,
                check,
                detail,
            }));
        }
    }

    /// Once thread `t` has halted: how its state, then (on a single-threaded
    /// machine) the data memory, differ from its oracle's.
    fn final_mismatch(&self, t: usize) -> Option<(DivergenceCheck, String)> {
        let (oracle, mem) = self.threads[t].oracle.as_ref()?;
        let (mut check, mut diff) = (FinalState, oracle.diff(&self.arch_state(t)));
        if diff.is_empty() && self.threads.len() == 1 {
            (check, diff) = (Memory, mem.diff(&self.data_mem));
        }
        let diff: Vec<String> = diff.iter().map(ToString::to_string).collect();
        (!diff.is_empty()).then(|| (check, diff.join("; ")))
    }
}
