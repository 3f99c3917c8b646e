//! Recovery: replays back into the IQ and squashes back to fetch.

use super::Machine;
use crate::dyninst::{DestRename, InstId, InstPhase, OperandSource};
use crate::iq::IqState;
use crate::stats::CpiComponent;

impl Machine {
    /// Put an issued instruction back to Waiting (it will reissue).
    pub(super) fn replay(&mut self, id: InstId, cause: ReplayCause) {
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
    pub(super) fn operand_miss(&mut self, id: InstId, slot: usize, now: u64) {
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
        let value = self.read_reg(phys);
        let src = self.slab.expect_mut(id).srcs[slot].as_mut().expect("slot");
        src.payload = value;
        src.payload_valid = true;
        self.replay(id, ReplayCause::OperandMiss);
    }

    /// 21264-style recovery: kill every issued-but-unconfirmed instruction
    /// of the thread (in the load shadow), dependent or not.
    pub(super) fn kill_load_shadow(&mut self, load: InstId, t: usize) {
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
    pub(super) fn refetch_after_load(&mut self, load: InstId, redirect_at: u64) {
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

    /// Kill every instruction of `thread` younger than `after_seq`, roll
    /// back rename state, and redirect fetch to `new_pc` at `redirect_at`.
    /// The refill bubble that follows is charged to `cause` in the
    /// per-loop CPI stack until post-squash work retires.
    pub(super) fn squash_after(
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

/// Replay-cause attribution for useless-work statistics.
pub(super) enum ReplayCause {
    Producer,
    OperandMiss,
    Shadow,
}
