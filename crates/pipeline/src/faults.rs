//! Deterministic fault injection.
//!
//! The paper's argument rests on the pipeline's loose loops *recovering
//! correctly*: branch mispredicts, load mis-speculation, and DRA operand
//! misses all squash or replay in-flight state. The fault injector makes
//! those recovery paths testable on demand by forcing mis-speculation
//! storms at configurable rates from a seeded schedule — the same seed
//! always fires the same faults on the same cycles, so a failing storm test
//! reproduces exactly.
//!
//! Faults perturb **timing only**: a flipped branch prediction is just a
//! wrong prediction (resolution repairs it), a load spike only delays the
//! value, and a forced operand miss takes the architected register-file
//! recovery path. Architectural results must remain equal to the ISA
//! interpreter's under any storm — that is precisely what the recovery
//! tests assert.

use looseloops_rng::Rng;

/// A deterministic fault-injection schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the injection schedule (same seed → same faults).
    pub seed: u64,
    /// Probability of flipping each conditional-branch direction
    /// prediction at fetch (a forced mispredict storm).
    pub branch_flip_rate: f64,
    /// Probability of spiking each load's latency.
    pub load_spike_rate: f64,
    /// Extra cycles a spiked load takes to complete.
    pub load_spike_cycles: u64,
    /// DRA only: probability of forcing an operand miss on each
    /// forward/CRC operand lookup (the operand-resolution-loop storm).
    pub operand_miss_rate: f64,
    /// Restrict injection to `[start, end)` cycles; `None` = whole run.
    pub window: Option<(u64, u64)>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            branch_flip_rate: 0.0,
            load_spike_rate: 0.0,
            load_spike_cycles: 200,
            operand_miss_rate: 0.0,
            window: None,
        }
    }
}

impl PartialEq for FaultPlan {
    /// Rates compare by bit pattern, not by `f64` equality: `0.0` and
    /// `-0.0` are equal floats but print differently, and a configuration's
    /// `Debug` text is its sweep memo key, so equal plans must print alike.
    fn eq(&self, other: &FaultPlan) -> bool {
        let FaultPlan {
            seed,
            branch_flip_rate,
            load_spike_rate,
            load_spike_cycles,
            operand_miss_rate,
            window,
        } = *self;
        seed == other.seed
            && branch_flip_rate.to_bits() == other.branch_flip_rate.to_bits()
            && load_spike_rate.to_bits() == other.load_spike_rate.to_bits()
            && load_spike_cycles == other.load_spike_cycles
            && operand_miss_rate.to_bits() == other.operand_miss_rate.to_bits()
            && window == other.window
    }
}

impl FaultPlan {
    /// A branch-mispredict storm: flip `rate` of all direction predictions.
    pub fn branch_storm(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            branch_flip_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// A load-latency-spike storm: delay `rate` of loads by `cycles`.
    pub fn load_storm(seed: u64, rate: f64, cycles: u64) -> FaultPlan {
        FaultPlan {
            seed,
            load_spike_rate: rate,
            load_spike_cycles: cycles,
            ..FaultPlan::default()
        }
    }

    /// A DRA operand-miss storm: force `rate` of operand lookups to miss.
    pub fn operand_storm(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            operand_miss_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// The same plan restricted to cycles `[start, end)`.
    pub fn in_window(mut self, start: u64, end: u64) -> FaultPlan {
        self.window = Some((start, end));
        self
    }

    /// Validate the rates (delegated from `PipelineConfig::validate`).
    pub(crate) fn validate(&self) -> Result<(), crate::error::ConfigError> {
        for (field, value) in [
            ("branch_flip_rate", self.branch_flip_rate),
            ("load_spike_rate", self.load_spike_rate),
            ("operand_miss_rate", self.operand_miss_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(crate::error::ConfigError::FaultRate { field, value });
            }
        }
        Ok(())
    }
}

/// Which fault classes the injector fired (indexes into
/// [`FaultInjector::by_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flipped conditional-branch direction prediction.
    BranchFlip = 0,
    /// Load latency spike.
    LoadSpike = 1,
    /// Forced DRA operand miss.
    OperandMiss = 2,
}

/// Post-run accounting of a fault schedule: how many injection
/// opportunities each class saw while armed, and how many actually fired.
/// The storm tests assert on this so an injection path that silently stops
/// calling the injector (scheduled stays 0) or drops hits on the floor
/// (fired diverges from the machine's fault stats) cannot pass unnoticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injection opportunities per [`FaultKind`] index while the class was
    /// armed (rate > 0), including opportunities outside the plan's window.
    pub scheduled: [u64; 3],
    /// Faults per [`FaultKind`] index that actually fired.
    pub fired: [u64; 3],
}

impl FaultSummary {
    /// Total fired faults across all classes.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

impl std::fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "branch-flip {}/{}, load-spike {}/{}, operand-miss {}/{} (fired/scheduled)",
            self.fired[0],
            self.scheduled[0],
            self.fired[1],
            self.scheduled[1],
            self.fired[2],
            self.scheduled[2],
        )
    }
}

/// Runtime state of a [`FaultPlan`]: the schedule RNG plus counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    injected: u64,
    by_kind: [u64; 3],
    scheduled: [u64; 3],
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rng: Rng::seed_from_u64(plan.seed),
            plan,
            injected: 0,
            by_kind: [0; 3],
            scheduled: [0; 3],
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Faults fired so far, by [`FaultKind`] index.
    pub fn by_kind(&self) -> [u64; 3] {
        self.by_kind
    }

    /// Scheduled-vs-fired accounting so far (see [`FaultSummary`]).
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            scheduled: self.scheduled,
            fired: self.by_kind,
        }
    }

    fn active(&self, now: u64) -> bool {
        match self.plan.window {
            Some((start, end)) => (start..end).contains(&now),
            None => true,
        }
    }

    fn fire(&mut self, now: u64, rate: f64, kind: FaultKind) -> bool {
        if rate <= 0.0 {
            return false;
        }
        // Every call with the class armed is a scheduled opportunity, even
        // outside the window — `summary()` must expose gated-off draws, not
        // hide them.
        self.scheduled[kind as usize] += 1;
        if !self.active(now) {
            return false;
        }
        // The RNG is only consumed inside the window, so a windowed plan
        // fires the same schedule regardless of how long the machine runs
        // before `start`.
        let hit = self.rng.gen_bool(rate);
        if hit {
            self.injected += 1;
            self.by_kind[kind as usize] += 1;
        }
        hit
    }

    /// Should this conditional-branch prediction be flipped?
    pub fn flip_branch(&mut self, now: u64) -> bool {
        self.fire(now, self.plan.branch_flip_rate, FaultKind::BranchFlip)
    }

    /// Extra completion latency to inject into this load, if any.
    pub fn load_spike(&mut self, now: u64) -> Option<u64> {
        self.fire(now, self.plan.load_spike_rate, FaultKind::LoadSpike)
            .then_some(self.plan.load_spike_cycles)
    }

    /// Should this DRA forward/CRC operand lookup be forced to miss?
    pub fn drop_operand(&mut self, now: u64) -> bool {
        self.fire(now, self.plan.operand_miss_rate, FaultKind::OperandMiss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::branch_storm(7, 0.5);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let sa: Vec<bool> = (0..200).map(|c| a.flip_branch(c)).collect();
        let sb: Vec<bool> = (0..200).map(|c| b.flip_branch(c)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&x| x) && sa.iter().any(|&x| !x));
        assert_eq!(a.injected(), sa.iter().filter(|&&x| x).count() as u64);
    }

    #[test]
    fn rates_are_respected_at_extremes() {
        let mut never = FaultInjector::new(FaultPlan::default());
        let mut always = FaultInjector::new(FaultPlan::operand_storm(3, 1.0));
        for c in 0..100 {
            assert!(!never.flip_branch(c));
            assert!(never.load_spike(c).is_none());
            assert!(!never.drop_operand(c));
            assert!(always.drop_operand(c));
        }
        assert_eq!(never.injected(), 0);
        assert_eq!(always.by_kind()[FaultKind::OperandMiss as usize], 100);
    }

    #[test]
    fn window_gates_injection() {
        let plan = FaultPlan::load_storm(5, 1.0, 99).in_window(10, 20);
        let mut inj = FaultInjector::new(plan);
        for c in 0..30 {
            let spike = inj.load_spike(c);
            assert_eq!(spike.is_some(), (10..20).contains(&c), "cycle {c}");
            if let Some(cycles) = spike {
                assert_eq!(cycles, 99);
            }
        }
        assert_eq!(inj.by_kind()[FaultKind::LoadSpike as usize], 10);
    }

    #[test]
    fn summary_counts_scheduled_and_fired() {
        let mut inj = FaultInjector::new(FaultPlan::branch_storm(7, 0.5).in_window(10, 20));
        for c in 0..30 {
            let _ = inj.flip_branch(c);
            let _ = inj.load_spike(c); // unarmed: never scheduled
        }
        let s = inj.summary();
        assert_eq!(
            s.scheduled[FaultKind::BranchFlip as usize],
            30,
            "every armed opportunity is scheduled, window or not"
        );
        assert_eq!(s.scheduled[FaultKind::LoadSpike as usize], 0);
        assert_eq!(s.fired, inj.by_kind());
        assert!(s.total_fired() <= 10, "only in-window draws can fire");
        assert!(s.total_fired() >= 1, "a 50% storm fires within 10 draws");
        assert_eq!(
            s.to_string(),
            format!(
                "branch-flip {}/30, load-spike 0/0, operand-miss 0/0 (fired/scheduled)",
                s.fired[0]
            )
        );
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultPlan::branch_storm(1, 1.5).validate().is_err());
        assert!(FaultPlan::branch_storm(1, -0.1).validate().is_err());
        assert!(FaultPlan::branch_storm(1, f64::NAN).validate().is_err());
        assert!(FaultPlan::branch_storm(1, 1.0).validate().is_ok());
    }

    #[test]
    fn plans_are_equal_only_when_they_print_alike() {
        let zero = FaultPlan::branch_storm(1, 0.0);
        let negative_zero = FaultPlan::branch_storm(1, -0.0);
        assert_ne!(format!("{zero:?}"), format!("{negative_zero:?}"));
        assert_ne!(zero, negative_zero);
        assert_eq!(zero, FaultPlan::branch_storm(1, 0.0));
        assert_ne!(zero, FaultPlan::branch_storm(2, 0.0));
        assert_ne!(zero, zero.in_window(0, 10));
    }
}
