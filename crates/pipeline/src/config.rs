//! Pipeline configuration.
//!
//! The two headline knobs of the paper are here: `dec_iq_stages` (decode →
//! IQ-insert latency, "DEC-IQ") and `iq_ex_stages` (issue → execute latency,
//! "IQ-EX"), plus the register-access scheme (monolithic baseline vs the
//! DRA) and the load-speculation policy ablations of §2.2.2.

use crate::error::ConfigError;
use crate::faults::FaultPlan;
use looseloops_branch::PredictorKind;
use looseloops_mem::{HierarchyConfig, TlbMissPolicy};

/// How register operands reach the functional units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterScheme {
    /// Paper §2 baseline: the monolithic register file is read on the
    /// IQ→EX path (its `rf_read_latency` is part of `iq_ex_stages`).
    Monolithic,
    /// Paper §4–5: register-file reads move to the DEC-IQ path (pre-read via
    /// the RPFT); cluster register caches catch what the forwarding buffer
    /// cannot. Introduces the operand-resolution loop.
    Dra {
        /// Entries per cluster register cache (paper: 16).
        crc_entries: usize,
        /// CRC replacement policy (paper: FIFO; LRU is the "smarter
        /// mechanism" the paper found unnecessary).
        crc_policy: looseloops_regs::CrcPolicy,
    },
}

impl RegisterScheme {
    /// Default DRA scheme with the paper's 16-entry FIFO CRCs.
    pub fn dra() -> RegisterScheme {
        RegisterScheme::Dra {
            crc_entries: 16,
            crc_policy: looseloops_regs::CrcPolicy::Fifo,
        }
    }

    /// True for [`RegisterScheme::Dra`].
    pub fn is_dra(self) -> bool {
        matches!(self, RegisterScheme::Dra { .. })
    }
}

/// How the machine manages the load-resolution loop (paper §2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSpecPolicy {
    /// Do not speculate: consumers wake only after the load's hit/miss is
    /// known, adding the IQ-EX latency to load-to-use.
    Stall,
    /// Speculate that loads hit; on a miss, reissue only the issued
    /// instructions in the load's dependency tree (the paper's base
    /// machine).
    ReissueTree,
    /// Speculate; on a miss, kill and reissue *everything* issued in the
    /// load shadow, dependent or not (Alpha 21264 behaviour).
    ReissueShadow,
    /// Speculate; on a miss, squash and refetch from the instruction after
    /// the load (recovery stage = fetch). The paper found this
    /// "significantly worse than reissue".
    Refetch,
}

impl LoadSpecPolicy {
    /// All policies, in the order the CLI lists them.
    pub fn all() -> [LoadSpecPolicy; 4] {
        [
            LoadSpecPolicy::ReissueTree,
            LoadSpecPolicy::ReissueShadow,
            LoadSpecPolicy::Stall,
            LoadSpecPolicy::Refetch,
        ]
    }

    /// Stable CLI/corpus name.
    pub fn name(self) -> &'static str {
        match self {
            LoadSpecPolicy::ReissueTree => "tree",
            LoadSpecPolicy::ReissueShadow => "shadow",
            LoadSpecPolicy::Stall => "stall",
            LoadSpecPolicy::Refetch => "refetch",
        }
    }
}

/// Execution latencies by instruction class, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLatencies {
    /// Single-cycle integer ALU.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// FP add/sub/compare/convert.
    pub fp_add: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide.
    pub fp_div: u32,
    /// Address generation for loads/stores (cache latency is added by the
    /// memory hierarchy).
    pub agu: u32,
}

impl Default for ExecLatencies {
    fn default() -> ExecLatencies {
        ExecLatencies {
            int_alu: 1,
            int_mul: 7,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 12,
            agu: 1,
        }
    }
}

/// Full machine configuration. Equal configurations print the same
/// `Debug` text (the sweep engine renders a run of equal configurations'
/// memo key prefix once), which is why [`FaultPlan`] compares its rates by
/// bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Hardware threads (SMT). 1 or 2 in the paper's runs.
    pub threads: usize,
    /// Fetch/rename/insert/retire width (paper: 8).
    pub width: usize,
    /// Fetch stages before decode (instruction cache + line prediction).
    pub fetch_stages: u32,
    /// DEC-IQ: decode, rename, wire delay, IQ insertion (paper base: 5).
    pub dec_iq_stages: u32,
    /// IQ-EX: select, payload, register read, transport (paper base: 5).
    pub iq_ex_stages: u32,
    /// Register-file read latency (3/5/7 in the paper's studies). In the
    /// base scheme it is part of `iq_ex_stages`; under the DRA it moves
    /// into `dec_iq_stages`.
    pub rf_read_latency: u32,
    /// Unified instruction-queue capacity (paper: 128).
    pub iq_entries: usize,
    /// Maximum instructions in flight (paper: 256).
    pub max_in_flight: usize,
    /// Functional-unit clusters, one issue slot each (paper: 8).
    pub clusters: usize,
    /// Clusters capable of floating-point execution (the first
    /// `fp_clusters` of the array). Real 8-wide designs have fewer FP
    /// pipes than issue slots; this is what makes wasted FP issue slots
    /// (load-shadow replays) expensive.
    pub fp_clusters: usize,
    /// Clusters with a load/store port (the last `mem_clusters`).
    pub mem_clusters: usize,
    /// Physical registers shared by all threads.
    pub phys_regs: usize,
    /// Forwarding-buffer retention window (paper: 9 cycles).
    pub fwd_window: u64,
    /// Execute→IQ confirmation feedback delay (paper: 3 cycles, making the
    /// load-resolution loop delay `iq_ex_stages + 3`).
    pub confirm_feedback: u32,
    /// Extra cycles to clear a confirmed IQ entry (paper: "once tagged for
    /// eviction, extra cycles are needed").
    pub iq_clear_extra: u32,
    /// Register-operand delivery scheme.
    pub scheme: RegisterScheme,
    /// Load-resolution-loop management policy.
    pub load_policy: LoadSpecPolicy,
    /// Conditional-branch direction predictor.
    pub predictor: PredictorKind,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Return-address-stack entries.
    pub ras_entries: usize,
    /// Next-line-predictor entries.
    pub line_entries: usize,
    /// Execution latencies.
    pub lat: ExecLatencies,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// Store-wait (memory dependence) predictor entries.
    pub store_wait_entries: usize,
    /// Maximum unresolved conditional branches in flight per thread
    /// (`None` = unbounded). Checkpoint-based recovery designs can only
    /// speculate past as many branches as they have map checkpoints; when
    /// the limit is reached, rename stalls at the next branch. The paper's
    /// machine is unbounded (ROB-walk recovery).
    pub branch_checkpoints: Option<usize>,
    /// DRA: on a squash, walk killed consumers and undo their outstanding
    /// insertion-table increments. Real hardware leaves the 2-bit counters
    /// polluted by wrong-path consumers (the default); enabling this
    /// idealization is an ablation knob for quantifying how much of the
    /// operand-miss rate is squash pollution.
    pub dra_ideal_squash_cleanup: bool,
    /// Run the per-cycle invariant auditor (freelist conservation, IQ/ROB
    /// occupancy, RPFT/CRC/insertion-table consistency — see `audit.rs`).
    /// Costs a few multiples of simulation speed; the test suites enable it,
    /// production sweeps leave it off.
    pub audit: bool,
    /// Forward-progress watchdog: if no thread retires an instruction for
    /// this many cycles while un-halted threads still have work,
    /// [`crate::Machine::run`] returns a [`crate::DeadlockError`] instead of
    /// burning to `max_cycles`. `0` disables the watchdog.
    pub watchdog_window: u64,
    /// Fault-injection schedule (`None` = no injection).
    pub faults: Option<FaultPlan>,
    /// Seeded defect (`chaos` build feature only, default off): corrupt
    /// every branch-recovery squash redirect by +1 instruction. Exists so
    /// the differential fuzzer can prove it catches real pipeline bugs;
    /// unlike `faults`, this perturbs *architectural* behavior.
    #[cfg(feature = "chaos")]
    pub chaos_branch_recovery_off_by_one: bool,
}

impl Default for PipelineConfig {
    /// The paper's base machine: 8-wide, 8 clusters, 128-entry IQ, 256 in
    /// flight, 5-cycle DEC-IQ, 5-cycle IQ-EX (3 of them register-file
    /// read), 9-cycle forwarding buffer, tree-reissue load speculation,
    /// tournament predictor.
    fn default() -> PipelineConfig {
        PipelineConfig {
            threads: 1,
            width: 8,
            fetch_stages: 3,
            dec_iq_stages: 5,
            iq_ex_stages: 5,
            rf_read_latency: 3,
            iq_entries: 128,
            max_in_flight: 256,
            clusters: 8,
            fp_clusters: 4,
            mem_clusters: 4,
            phys_regs: 512,
            fwd_window: 9,
            confirm_feedback: 3,
            iq_clear_extra: 1,
            scheme: RegisterScheme::Monolithic,
            load_policy: LoadSpecPolicy::ReissueTree,
            predictor: PredictorKind::Tournament,
            btb_entries: 2048,
            ras_entries: 16,
            line_entries: 1024,
            lat: ExecLatencies::default(),
            mem: {
                // The paper's machine services dTLB misses as traps that
                // recover from the top of the pipe (its turb3d analysis).
                let mut m = HierarchyConfig::default();
                m.dtlb.miss_policy = TlbMissPolicy::Trap;
                m
            },
            store_wait_entries: 1024,
            branch_checkpoints: None,
            dra_ideal_squash_cleanup: false,
            audit: false,
            watchdog_window: 50_000,
            faults: None,
            #[cfg(feature = "chaos")]
            chaos_branch_recovery_off_by_one: false,
        }
    }
}

impl PipelineConfig {
    /// The paper's base machine (alias of `Default`).
    pub fn base() -> PipelineConfig {
        PipelineConfig::default()
    }

    /// Base machine with explicit DEC-IQ / IQ-EX latencies (the `X_Y`
    /// notation of Figures 4, 5, and 8).
    pub fn base_with_latencies(dec_iq: u32, iq_ex: u32) -> PipelineConfig {
        PipelineConfig {
            dec_iq_stages: dec_iq,
            iq_ex_stages: iq_ex,
            ..PipelineConfig::default()
        }
    }

    /// Base (monolithic) machine for a given register-file read latency:
    /// DEC-IQ stays 5, IQ-EX = 2 + `rf_read` (paper §6: 5_5, 5_7, 5_9 for
    /// 3/5/7-cycle register files).
    pub fn base_for_rf(rf_read: u32) -> PipelineConfig {
        PipelineConfig {
            rf_read_latency: rf_read,
            iq_ex_stages: 2 + rf_read,
            ..PipelineConfig::default()
        }
    }

    /// DRA machine for a given register-file read latency: IQ-EX shrinks to
    /// 3 (select + payload/forward/CRC + transport) and DEC-IQ holds the
    /// pre-read: 2 + `rf_read` stages, min 5 (paper §6: 5_3, 7_3, 9_3).
    pub fn dra_for_rf(rf_read: u32) -> PipelineConfig {
        PipelineConfig {
            rf_read_latency: rf_read,
            dec_iq_stages: (2 + rf_read).max(5),
            iq_ex_stages: 3,
            scheme: RegisterScheme::dra(),
            ..PipelineConfig::default()
        }
    }

    /// Two-threaded SMT variant of this configuration.
    pub fn smt(mut self, threads: usize) -> PipelineConfig {
        self.threads = threads;
        self
    }

    /// Decode→execute latency (the paper's Figure 4 x-axis).
    pub fn dec_to_ex(&self) -> u32 {
        self.dec_iq_stages + self.iq_ex_stages
    }

    /// The load-resolution loop delay: loop length (IQ-EX) plus the
    /// confirmation feedback (paper §2.2.2: 5 + 3 = 8 in the base machine).
    pub fn load_loop_delay(&self) -> u32 {
        self.iq_ex_stages + self.confirm_feedback
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first problem found as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 || self.threads > 4 {
            return Err(ConfigError::ThreadCount { got: self.threads });
        }
        if self.width == 0 || self.clusters == 0 {
            return Err(ConfigError::ZeroWidthOrClusters);
        }
        if self.branch_checkpoints == Some(0) {
            return Err(ConfigError::NoBranchCheckpoints);
        }
        if self.fp_clusters == 0 || self.fp_clusters > self.clusters {
            return Err(ConfigError::FpClusters {
                fp_clusters: self.fp_clusters,
                clusters: self.clusters,
            });
        }
        if self.mem_clusters == 0 || self.mem_clusters > self.clusters {
            return Err(ConfigError::MemClusters {
                mem_clusters: self.mem_clusters,
                clusters: self.clusters,
            });
        }
        if self.iq_ex_stages < 1 {
            return Err(ConfigError::IqExTooShort);
        }
        if self.dec_iq_stages < 1 {
            return Err(ConfigError::DecIqTooShort);
        }
        let arch = 64 * self.threads;
        if self.phys_regs < arch + self.max_in_flight {
            return Err(ConfigError::TooFewPhysRegs {
                phys_regs: self.phys_regs,
                arch,
                max_in_flight: self.max_in_flight,
            });
        }
        if self.scheme == RegisterScheme::Monolithic && self.iq_ex_stages < self.rf_read_latency {
            return Err(ConfigError::MonolithicRfReadTooLong {
                iq_ex_stages: self.iq_ex_stages,
                rf_read_latency: self.rf_read_latency,
            });
        }
        if let RegisterScheme::Dra { crc_entries, .. } = self.scheme {
            if crc_entries == 0 {
                return Err(ConfigError::EmptyCrc);
            }
            if self.dec_iq_stages < 2 + self.rf_read_latency {
                return Err(ConfigError::DraDecIqTooShort {
                    dec_iq_stages: self.dec_iq_stages,
                    rf_read_latency: self.rf_read_latency,
                });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper_numbers() {
        let c = PipelineConfig::base();
        assert_eq!(c.dec_to_ex(), 10);
        assert_eq!(
            c.load_loop_delay(),
            8,
            "paper §2.2.2: loop delay is 8 cycles"
        );
        assert_eq!(c.iq_entries, 128);
        assert_eq!(c.max_in_flight, 256);
        assert_eq!(c.width, 8);
        assert_eq!(c.clusters, 8);
        assert_eq!(c.fwd_window, 9);
        c.validate().unwrap();
    }

    #[test]
    fn rf_sweep_configs_match_section6() {
        // Base:5_5 / DRA:5_3 at RF=3; Base:5_7 / DRA:7_3 at RF=5;
        // Base:5_9 / DRA:9_3 at RF=7.
        for (rf, base_ex, dra_dec) in [(3, 5, 5), (5, 7, 7), (7, 9, 9)] {
            let b = PipelineConfig::base_for_rf(rf);
            assert_eq!((b.dec_iq_stages, b.iq_ex_stages), (5, base_ex));
            b.validate().unwrap();
            let d = PipelineConfig::dra_for_rf(rf);
            assert_eq!((d.dec_iq_stages, d.iq_ex_stages), (dra_dec, 3));
            assert!(d.scheme.is_dra());
            d.validate().unwrap();
            // The DRA shortens the overall pipe by 2 in every pairing.
            assert_eq!(b.dec_to_ex() - d.dec_to_ex(), 2);
        }
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = PipelineConfig::base();
        c.phys_regs = 100;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::base();
        c.iq_ex_stages = 2; // shorter than the 3-cycle RF read
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::dra_for_rf(5);
        c.dec_iq_stages = 4;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::base();
        c.threads = 9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn smt_builder() {
        let c = PipelineConfig::base().smt(2);
        assert_eq!(c.threads, 2);
        c.validate().unwrap();
    }
}
