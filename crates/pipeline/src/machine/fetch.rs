//! Fetch: ICOUNT thread choice, one I-cache access per block, and
//! fetch-time control prediction.

use super::{Machine, Readiness};
use crate::dyninst::{BranchPrediction, InstId};
use looseloops_isa::{BranchKind, Class, Program, StaticInstInfo};
use looseloops_mem::AccessKind;

impl Machine {
    /// Decode-queue capacity per thread: the fetch pipe's stages plus two
    /// groups of slack.
    fn decode_cap(&self) -> usize {
        (self.cfg.fetch_stages as usize + 2) * self.cfg.width
    }

    /// Can thread `t` fetch? A live, unsuspended thread with room in its
    /// decode queue fetches once its I-cache miss or redirect stall ends.
    /// Fetching is an I-cache access even when the block then misses.
    pub(super) fn fetch_readiness(&self, t: usize, now: u64) -> Readiness {
        if self.frontend_held(now) {
            return Readiness::At(self.frontend_stall_until);
        }
        let th = &self.threads[t];
        if th.done || th.fetch_suspended || th.decode_q.len() >= self.decode_cap() {
            Readiness::Blocked
        } else if th.fetch_stall_until <= now {
            Readiness::Now
        } else {
            Readiness::At(th.fetch_stall_until)
        }
    }

    pub(super) fn do_fetch(&mut self, now: u64) {
        // ICOUNT: fetch from the ready thread with the fewest instructions
        // in its decode queue, DEC-IQ transit and ROB.
        let Some(t) = (0..self.threads.len())
            .filter(|&t| self.fetch_readiness(t, now) == Readiness::Now)
            .min_by_key(|&t| {
                let th = &self.threads[t];
                (th.decode_q.len() + th.transit_q.len() + th.rob.len(), t)
            })
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
}
