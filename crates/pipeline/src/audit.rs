//! The per-cycle invariant auditor.
//!
//! Every structural invariant the pipeline's recovery paths are supposed to
//! preserve — register conservation across squashes, queue-occupancy
//! bounds, in-order retirement, RPFT/CRC/insertion-table consistency — is
//! checked here as one pass over the machine state. [`Machine::run`] calls
//! [`Machine::audit`] after every cycle when `cfg.audit` is set; a broken
//! invariant surfaces as a typed [`InvariantViolation`] naming the cycle,
//! the invariant class, and the specifics, instead of as a mysterious
//! divergence thousands of cycles later.
//!
//! The checks are intentionally *directional*: for example, a freed
//! physical register legally keeps its RPFT pre-read bit (nothing clears it
//! until reallocation), so the RPFT check runs only over in-flight
//! destinations, where `can_preread` must imply a produced value.

use crate::config::RegisterScheme;
use crate::dyninst::InstPhase;
use crate::error::{InvariantKind, InvariantViolation};
use crate::iq::IqState;
use crate::machine::Machine;

impl Machine {
    /// Check every structural invariant once; called per cycle by
    /// [`Machine::run`] when `cfg.audit` is set, but also usable directly
    /// around a suspect window.
    ///
    /// # Errors
    ///
    /// The first broken invariant found, as a typed [`InvariantViolation`].
    pub fn audit(&mut self) -> Result<(), InvariantViolation> {
        self.audit_freelist()?;
        self.audit_iq()?;
        self.audit_rob()?;
        self.audit_in_flight()?;
        self.audit_loop_cost()?;
        self.audit_mem_hierarchy()?;
        if let RegisterScheme::Dra { .. } = self.cfg.scheme {
            self.audit_dra()?;
        }
        self.stats.audit_checks += 1;
        Ok(())
    }

    /// Before a quiescence skip to `target`, re-derive from scratch that
    /// nothing falls due in `[cycle, target)`: no queued event of any of
    /// the six streams (not only each queue's front) drains before
    /// `target`, each queue is in cycle order, and `watchdog` (the last
    /// cycle a skip may reach and still step the cycle that trips the
    /// watchdog) does not lie before it. Write-backs and IQ releases are
    /// events too, so every queued one is checked. [`Machine::run`] calls
    /// this before every skip when `cfg.audit` is set.
    pub(crate) fn audit_skip(
        &self,
        target: u64,
        watchdog: Option<u64>,
    ) -> Result<(), InvariantViolation> {
        let queues = [
            ("begin-execute", self.exec_events.check_quiet_before(target)),
            (
                "completion",
                self.complete_events.check_quiet_before(target),
            ),
            ("wake-up", self.wakeup_events.check_quiet_before(target)),
            (
                "readiness-timer",
                self.ready_events.check_quiet_before(target),
            ),
            (
                "write-back",
                self.writeback_events.check_quiet_before(target),
            ),
            ("release", self.release_events.check_quiet_before(target)),
        ];
        for (name, checked) in queues {
            checked.map_err(|detail| {
                self.violation(
                    InvariantKind::SkipBoundary,
                    format!("skip to cycle {target}: {name} queue: {detail}"),
                )
            })?;
        }
        if let Some(at) = watchdog.filter(|&at| at < target) {
            return Err(self.violation(
                InvariantKind::SkipBoundary,
                format!("skip to cycle {target} passes the watchdog at cycle {at}"),
            ));
        }
        Ok(())
    }

    fn violation(&self, kind: InvariantKind, detail: String) -> InvariantViolation {
        InvariantViolation {
            cycle: self.cycle,
            kind,
            detail,
        }
    }

    /// Physical registers are conserved: every register is free, holds a
    /// committed architectural mapping, or is the pending destination of an
    /// in-flight instruction.
    fn audit_freelist(&self) -> Result<(), InvariantViolation> {
        let free = self.freelist.available();
        let arch = 64 * self.threads.len();
        let in_flight_dests: usize = self
            .threads
            .iter()
            .flat_map(|t| t.rob.iter())
            .filter(|&&id| self.slab.get(id).is_some_and(|di| di.dest.is_some()))
            .count();
        let total = self.cfg.phys_regs;
        if free + arch + in_flight_dests != total {
            return Err(self.violation(
                InvariantKind::FreelistConservation,
                format!(
                    "free {free} + architectural {arch} + in-flight dests {in_flight_dests} \
                     != total {total} (a squash or retire leaked or double-freed a register)"
                ),
            ));
        }
        Ok(())
    }

    /// IQ occupancy is bounded, per-cluster tallies agree with the
    /// entries, and no Waiting/Issued entry dangles. (Confirmed entries
    /// may legally outlive their slab record: retire can release an
    /// instruction before its IQ slot's `free_at` arrives.)
    fn audit_iq(&self) -> Result<(), InvariantViolation> {
        if self.iq.len() > self.iq.capacity() {
            return Err(self.violation(
                InvariantKind::IqConsistency,
                format!(
                    "occupancy {} exceeds capacity {}",
                    self.iq.len(),
                    self.iq.capacity()
                ),
            ));
        }
        if !self.iq.cluster_counts_consistent() {
            return Err(self.violation(
                InvariantKind::IqConsistency,
                "per-cluster tallies disagree with the entries".into(),
            ));
        }
        if !self.iq.ready_lists_consistent() {
            return Err(self.violation(
                InvariantKind::IqConsistency,
                "incremental ready lists structurally inconsistent \
                 (dead/gated/unwaiting entry, age order, or flag drift)"
                    .into(),
            ));
        }
        // Semantic cross-check of the incremental scheduler against the
        // naive predicate, as of the last stepped cycle: every waiting
        // entry must be (a) on its ready list iff it was issue-eligible,
        // or (b) flagged gated iff the store-wait gate held.
        let eval_now = self.cycle.saturating_sub(1);
        for e in self.iq.iter() {
            if e.state != IqState::Waiting {
                continue;
            }
            let Some(di) = self.slab.get(e.id) else {
                continue; // caught by the reference checks below
            };
            let slot = di.iq_slot;
            let gated = self.entry_gated(e);
            // One-sided: the flag is set eagerly but a *new* store-wait
            // prediction only sweeps ready-list entries — a timer-pending
            // load picks the gate up on its next re-evaluation.
            if self.iq.is_gated(slot) && !gated {
                return Err(self.violation(
                    InvariantKind::IqConsistency,
                    format!(
                        "seq {}: gate flag set but the store-wait gate does not hold",
                        e.seq
                    ),
                ));
            }
            // `entry_ready` already folds in the store-wait gate.
            let eligible = self.entry_ready(e, eval_now);
            if self.iq.in_ready(slot) != eligible {
                return Err(self.violation(
                    InvariantKind::IqConsistency,
                    format!(
                        "seq {}: ready-list membership {} but issue eligibility at cycle {} is {}",
                        e.seq,
                        self.iq.in_ready(slot),
                        eval_now,
                        eligible
                    ),
                ));
            }
        }
        for e in self.iq.iter() {
            if matches!(e.state, IqState::Confirmed) {
                continue;
            }
            match self.slab.get(e.id) {
                None => {
                    return Err(self.violation(
                        InvariantKind::IqConsistency,
                        format!(
                            "{:?} entry seq {} (thread {}) references a released instruction",
                            e.state, e.seq, e.thread
                        ),
                    ));
                }
                Some(di) if di.seq != e.seq => {
                    return Err(self.violation(
                        InvariantKind::IqConsistency,
                        format!(
                            "entry seq {} references a recycled slot now holding seq {}",
                            e.seq, di.seq
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Per-thread ROBs hold live instructions in strictly increasing
    /// program order, and each store queue is exactly the in-order store
    /// subsequence of its ROB.
    fn audit_rob(&self) -> Result<(), InvariantViolation> {
        for (t, th) in self.threads.iter().enumerate() {
            let mut last_seq = 0u64;
            let mut rob_stores = Vec::new();
            for &id in &th.rob {
                let Some(di) = self.slab.get(id) else {
                    return Err(self.violation(
                        InvariantKind::RobOrder,
                        format!("thread {t} ROB references a released instruction"),
                    ));
                };
                if di.seq <= last_seq {
                    return Err(self.violation(
                        InvariantKind::RobOrder,
                        format!(
                            "thread {t} ROB out of order: seq {} follows seq {last_seq}",
                            di.seq
                        ),
                    ));
                }
                last_seq = di.seq;
                if di.class == looseloops_isa::Class::Store {
                    rob_stores.push(id);
                }
            }
            let store_q: Vec<_> = th.store_q.iter().copied().collect();
            if store_q != rob_stores {
                return Err(self.violation(
                    InvariantKind::StoreQueueOrder,
                    format!(
                        "thread {t} store queue ({} entries) is not the ROB's store \
                         subsequence ({} stores)",
                        store_q.len(),
                        rob_stores.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The renamed, un-retired window never exceeds the configured cap.
    /// The memory hierarchy's own structural invariants hold: outstanding
    /// data-side misses never exceed the MSHR file. This also pins the
    /// *intentional* fetch-path asymmetry documented in DESIGN.md §4:
    /// instruction fetches model neither MSHR occupancy nor bank conflicts,
    /// so every slot counted here belongs to the data path — if fetch ever
    /// starts allocating MSHRs, this bound (sized for the data path alone)
    /// is the check that trips.
    fn audit_mem_hierarchy(&self) -> Result<(), InvariantViolation> {
        self.hier
            .check_consistency()
            .map_err(|detail| self.violation(InvariantKind::MemHierarchyConsistency, detail))
    }

    fn audit_in_flight(&self) -> Result<(), InvariantViolation> {
        let in_flight: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        if in_flight > self.cfg.max_in_flight {
            return Err(self.violation(
                InvariantKind::InFlightBound,
                format!(
                    "{in_flight} in flight exceeds cap {}",
                    self.cfg.max_in_flight
                ),
            ));
        }
        Ok(())
    }

    /// The per-loop CPI stack conserves retire slots: every slot of every
    /// accounted cycle is either used by a retired instruction or charged
    /// to exactly one loss component, and the stack's cycle/retire tallies
    /// agree with the main counters.
    fn audit_loop_cost(&self) -> Result<(), InvariantViolation> {
        let st = &self.stats.loop_cost;
        if st.cycles != self.stats.cycles {
            return Err(self.violation(
                InvariantKind::LoopCostConservation,
                format!(
                    "stack accounted {} cycles but the machine simulated {}",
                    st.cycles, self.stats.cycles
                ),
            ));
        }
        if st.used != self.stats.total_retired() {
            return Err(self.violation(
                InvariantKind::LoopCostConservation,
                format!(
                    "stack used {} slots but {} instructions retired",
                    st.used,
                    self.stats.total_retired()
                ),
            ));
        }
        if !st.conserves() {
            return Err(self.violation(
                InvariantKind::LoopCostConservation,
                format!(
                    "used {} + lost {} != width {} x cycles {} (leaked retire slots)",
                    st.used,
                    st.total_lost(),
                    st.width,
                    st.cycles
                ),
            ));
        }
        Ok(())
    }

    /// DRA-only consistency between the RPFT, the CRCs, and the insertion
    /// tables.
    fn audit_dra(&self) -> Result<(), InvariantViolation> {
        // An in-flight destination marked pre-readable must actually have
        // been produced. (Only in-flight dests: freed registers legally
        // keep their RPFT bit until reallocation.)
        for th in &self.threads {
            for &id in &th.rob {
                let Some(di) = self.slab.get(id) else {
                    continue;
                };
                if di.phase == InstPhase::FrontEnd || di.phase == InstPhase::Retired {
                    continue;
                }
                let Some(dest) = di.dest else { continue };
                let p = dest.new;
                if self.rpft.can_preread(p) && self.avail_cycle[p.index()] == u64::MAX {
                    return Err(self.violation(
                        InvariantKind::RpftConsistency,
                        format!(
                            "{p:?} (seq {}) is marked pre-readable but its producer has \
                             not completed",
                            di.seq
                        ),
                    ));
                }
            }
        }
        // A CRC never caches a value that was never produced: write-back
        // capture happens after completion, and both reallocation and
        // squash invalidate matching entries.
        for (c, crc) in self.crcs.iter().enumerate() {
            for (p, _) in crc.entries() {
                if self.avail_cycle[p.index()] == u64::MAX {
                    return Err(self.violation(
                        InvariantKind::CrcConsistency,
                        format!("cluster {c} CRC caches {p:?} whose producer is in flight"),
                    ));
                }
            }
        }
        // Insertion-table counts only exist for not-yet-pre-readable
        // registers: write-back consumes the count in the same cycle the
        // RPFT bit is set, and reallocation clears both.
        for (c, itable) in self.itables.iter().enumerate() {
            for i in 0..self.cfg.phys_regs {
                let p = looseloops_regs::PhysReg(i as u16);
                if itable.count(p) > 0 && self.rpft.can_preread(p) {
                    return Err(self.violation(
                        InvariantKind::InsertionTableConsistency,
                        format!(
                            "cluster {c} insertion table counts {} consumers for \
                             already-readable {p:?}",
                            itable.count(p)
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PipelineConfig;
    use crate::machine::Machine;

    fn loop_prog() -> looseloops_isa::Program {
        looseloops_isa::asm::assemble(
            "addi r1, r31, 40\n\
             top:\n\
             add r2, r2, r1\n\
             stq r2, 0(r10)\n\
             ldq r3, 0(r10)\n\
             subi r1, r1, 1\n\
             bne r1, top\n\
             halt",
        )
        .unwrap()
    }

    #[test]
    fn audit_passes_on_clean_runs() {
        for cfg in [PipelineConfig::base(), PipelineConfig::dra_for_rf(5)] {
            let audited = PipelineConfig { audit: true, ..cfg };
            let mut m = Machine::new(audited, vec![loop_prog()]).unwrap();
            m.enable_verification();
            let stats = m.run(10_000, 100_000).expect("clean run audits clean");
            assert!(stats.audit_checks > 0, "auditor must actually have run");
        }
    }

    #[test]
    fn audit_catches_a_leaked_register() {
        let mut m = Machine::new(PipelineConfig::base(), vec![loop_prog()]).unwrap();
        for _ in 0..50 {
            m.step_cycle();
        }
        assert!(m.audit().is_ok());
        // Steal a register behind the machine's back.
        let leaked = m.freelist.alloc().expect("registers available");
        let err = m.audit().expect_err("conservation must fail");
        assert_eq!(err.kind, crate::error::InvariantKind::FreelistConservation);
        m.freelist.release(leaked);
        assert!(m.audit().is_ok(), "restored state audits clean again");
    }

    #[test]
    fn audit_catches_leaked_retire_slots() {
        let mut m = Machine::new(PipelineConfig::base(), vec![loop_prog()]).unwrap();
        for _ in 0..50 {
            m.step_cycle();
        }
        assert!(m.audit().is_ok());
        // Charge a phantom lost slot behind the accounting's back.
        m.stats.loop_cost.lost[0] += 1;
        let err = m.audit().expect_err("slot leak must fail");
        assert_eq!(err.kind, crate::error::InvariantKind::LoopCostConservation);
        m.stats.loop_cost.lost[0] -= 1;
        assert!(m.audit().is_ok(), "restored accounting audits clean again");
    }

    #[test]
    fn audit_catches_rob_disorder() {
        let mut m = Machine::new(PipelineConfig::base(), vec![loop_prog()]).unwrap();
        while m.threads[0].rob.len() < 2 {
            m.step_cycle();
        }
        assert!(m.audit().is_ok());
        m.threads[0].rob.swap(0, 1);
        let err = m.audit().expect_err("disorder must fail");
        assert_eq!(err.kind, crate::error::InvariantKind::RobOrder);
        m.threads[0].rob.swap(0, 1);
        assert!(m.audit().is_ok());
    }
}
