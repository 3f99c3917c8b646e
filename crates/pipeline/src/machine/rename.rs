//! Rename and insert: map sources and destinations, slot a cluster,
//! and move renamed instructions from DEC-IQ transit into the IQ.

use super::{Machine, Readiness};
use crate::dyninst::{DestRename, InstId, InstPhase, SrcOperand, NO_CYCLE};
use crate::iq::{IqEntry, IqState};
use looseloops_isa::Class;
use looseloops_regs::PhysReg;

impl Machine {
    /// DEC-IQ transit capacity per thread: the pipe's stages plus two
    /// groups of slack.
    fn transit_cap(&self) -> usize {
        (self.cfg.dec_iq_stages as usize + 2) * self.cfg.width
    }

    /// Can thread `t` rename its decode-queue head, with `in_flight`
    /// instructions renamed and unretired machine-wide? Every condition
    /// that holds the head back is stated here and nowhere else:
    /// `rename_one` cannot fail once this says [`Readiness::Now`].
    pub(super) fn rename_readiness(&self, t: usize, now: u64, in_flight: usize) -> Readiness {
        if self.frontend_held(now) {
            return Readiness::At(self.frontend_stall_until);
        }
        let th = &self.threads[t];
        let Some(&(ready, id)) = th.decode_q.front() else {
            return Readiness::Blocked;
        };
        if ready > now {
            return Readiness::At(ready);
        }
        if th.mb_stall_seq.is_some()
            || th.transit_q.len() >= self.transit_cap()
            || in_flight >= self.cfg.max_in_flight
        {
            return Readiness::Stalled;
        }
        // The head's static facts are looked up only when a limit is hit.
        let info = || {
            th.code
                .info(self.slab.expect(id).pc)
                .expect("fetched implies predecoded")
        };
        // No free branch checkpoint: wait for an older branch to resolve.
        let no_checkpoint = self
            .cfg
            .branch_checkpoints
            .is_some_and(|limit| th.unresolved_branches >= limit)
            && info().class == Class::CondBranch;
        let no_register = self.freelist.available() == 0 && info().dest.is_some();
        if no_checkpoint || no_register {
            Readiness::Stalled
        } else {
            Readiness::Now
        }
    }

    pub(super) fn do_rename(&mut self, now: u64) {
        // Every successful rename pushes exactly one ROB entry, so the
        // in-flight count can be carried locally instead of re-summing the
        // per-thread ROB lengths for each candidate.
        let mut in_flight = self.total_in_flight();
        let renamed = self.round_robin(self.cfg.width, |m, t| {
            match m.rename_readiness(t, now, in_flight) {
                Readiness::Now => {
                    let (_, id) = m.threads[t].decode_q.pop_front().expect("a ready head");
                    m.rename_one(t, id, now);
                    in_flight += 1;
                    true
                }
                Readiness::Stalled => {
                    m.stats.rename_stall_cycles += 1;
                    false
                }
                Readiness::At(_) | Readiness::Blocked => false,
            }
        });
        self.progressed |= renamed > 0;
    }

    pub(super) fn total_in_flight(&self) -> usize {
        // Every renamed, un-retired instruction sits in its thread's ROB
        // (instructions in DEC-IQ transit included), so the ROB lengths ARE
        // the in-flight count.
        self.threads.iter().map(|t| t.rob.len()).sum()
    }

    /// Rename one instruction, which [`Machine::rename_readiness`] has
    /// found ready.
    fn rename_one(&mut self, t: usize, id: InstId, now: u64) {
        let pc = self.slab.expect(id).pc;
        // All static facts come from the predecode table — no per-dynamic
        // opcode matches on this path.
        let info = *self.threads[t]
            .code
            .info(pc)
            .expect("fetched implies predecoded");
        let class = info.class;
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
                let (new, prev) = self.rename[t]
                    .rename_dest(arch, &mut self.freelist)
                    .expect("rename readiness checked the free list");
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
                    payload = self.read_reg(phys);
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
                } else if class == Class::Load {
                    self.threads[t].load_q.push_back(id);
                }
                self.cluster_pressure[cluster] += 1;
                self.threads[t].rob.push_back(id);
                let insert_at = now + self.cfg.dec_iq_stages as u64;
                self.threads[t].transit_q.push_back((insert_at, id));
            }
        }
    }

    fn on_allocate_phys(&mut self, p: PhysReg) {
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

    /// Can thread `t` move its DEC-IQ transit head into the IQ? It can
    /// once the head has arrived and the IQ has a free slot.
    pub(super) fn insert_readiness(&self, t: usize, now: u64) -> Readiness {
        if self.frontend_held(now) {
            return Readiness::At(self.frontend_stall_until);
        }
        match self.threads[t].transit_q.front() {
            None => Readiness::Blocked,
            Some(&(ready, _)) if ready > now => Readiness::At(ready),
            Some(_) if self.iq.free_slots() == 0 => Readiness::Blocked,
            Some(_) => Readiness::Now,
        }
    }

    pub(super) fn do_insert(&mut self, now: u64) {
        let inserted = self.round_robin(usize::MAX, |m, t| {
            if m.insert_readiness(t, now) != Readiness::Now {
                return false;
            }
            let (_, id) = m.threads[t].transit_q.pop_front().expect("a ready head");
            let di = m.slab.expect(id);
            let entry = IqEntry {
                id,
                seq: di.seq,
                thread: t,
                cluster: di.cluster,
                state: IqState::Waiting,
            };
            let slot =
                m.iq.insert(entry)
                    .expect("insert readiness checked for a free slot");
            m.cluster_pressure[di.cluster] -= 1;
            if let Some(tr) = &mut m.tracer {
                tr.stage(now, id, "Q");
            }
            let di = m.slab.expect_mut(id);
            di.phase = InstPhase::InIq;
            di.insert_cycle = now;
            di.iq_slot = slot;
            // New waiting tenure: hook up incremental readiness.
            m.begin_tenure(slot, now);
            true
        });
        self.progressed |= inserted > 0;
    }
}
