//! The quiescence skip: jump the clock over cycles in which no stage
//! can act.

use super::{Machine, Readiness};

impl Machine {
    /// When no stage can act at the current cycle, return the earliest
    /// future cycle at which anything could change — capped by the run
    /// budget and by `watchdog`, the last cycle a skip may reach before
    /// the watchdog must be stepped — so the run loop may jump there; `None`
    /// when some stage can act now. Fetch, rename, insert and retire answer
    /// through the `*_readiness` functions their stages act on, so every
    /// skipped cycle is one the naive loop would have stepped through
    /// changing only the per-cycle counters (batch-charged by `skip_to`).
    pub(super) fn quiescent_until(&self, last_cycle: u64, watchdog: Option<u64>) -> Option<u64> {
        let now = self.cycle;
        // Issue: anything on a ready list issues next cycle.
        if self.iq.ready_total() > 0 {
            return None;
        }
        let events = [
            self.exec_events.next_due(),
            self.complete_events.next_due(),
            self.wakeup_events.next_due(),
            self.ready_events.next_due(),
            self.writeback_events.next_due(),
            self.release_events.next_due(),
            watchdog,
        ];
        let mut target = events.into_iter().flatten().fold(last_cycle, u64::min);
        if target <= now {
            return None;
        }
        // `None` as soon as a stage can act now. A stalled rename charges
        // one stall per cycle, which skip_to batch-charges.
        let mut wait = |ready| match ready {
            Readiness::Now => None,
            Readiness::At(cycle) => {
                target = target.min(cycle);
                Some(())
            }
            Readiness::Stalled | Readiness::Blocked => Some(()),
        };
        let in_flight = self.total_in_flight();
        for t in 0..self.threads.len() {
            wait(self.retire_readiness(t))?;
            wait(self.insert_readiness(t, now))?;
            wait(self.rename_readiness(t, now, in_flight))?;
            wait(self.fetch_readiness(t, now))?;
        }
        (target > now).then_some(target)
    }

    /// Jump the clock from the current (quiescent) cycle to `target`,
    /// batch-charging everything the naive per-cycle loop would have
    /// recorded over the window: CPI-stack idle attribution (the
    /// classification is constant across a quiescent window — nothing
    /// retires and the front-end hold cannot lift inside it), per-cycle
    /// stall counters, IQ occupancy samples, and the cycle counter itself.
    pub(super) fn skip_to(&mut self, target: u64) {
        let now = self.cycle;
        debug_assert!(target > now);
        let k = target - now;
        let width = self.cfg.width as u64;
        let cause = self.classify_lost_cycle(now);
        self.stats.loop_cost.charge_idle(width, k, cause);
        if self.frontend_held(now) {
            self.stats.operand_miss_stall_cycles += k;
        }
        // Every stalled rename charges one stall per skipped cycle, exactly
        // as do_rename would have.
        let in_flight = self.total_in_flight();
        let stalled = (0..self.threads.len())
            .filter(|&t| self.rename_readiness(t, now, in_flight) == Readiness::Stalled)
            .count() as u64;
        self.stats.rename_stall_cycles += k * stalled;
        self.iq.sample_occupancy_n(k);
        self.stats.cycles += k;
        self.cycle = target;
        if let Some(p) = &mut self.profile {
            p.skips += 1;
            p.skipped_cycles += k;
        }
    }
}
