//! Typed simulation errors.
//!
//! Construction and run paths report failures through [`SimError`] instead
//! of panicking: bad configurations become [`ConfigError`], a pipeline that
//! stops retiring a [`DeadlockError`] with a per-stage occupancy snapshot,
//! a broken structural invariant (see `audit.rs`) an [`InvariantViolation`]
//! and a disagreement with the ISA oracle a [`Divergence`]. The `Display`
//! impls are hand-written in the `thiserror` style so the crate stays
//! dependency-free.

use std::fmt;

/// Everything that can go wrong constructing or running a [`crate::Machine`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The [`crate::PipelineConfig`] is internally inconsistent.
    Config(ConfigError),
    /// The program list does not match the configured thread count.
    ProgramCount {
        /// `cfg.threads`.
        expected: usize,
        /// Programs supplied.
        got: usize,
    },
    /// The forward-progress watchdog found a no-retire window.
    Deadlock(Box<DeadlockError>),
    /// The per-cycle auditor found a broken structural invariant.
    Invariant(InvariantViolation),
    /// The verification oracle disagreed with the machine.
    Divergence(Box<Divergence>),
    /// Functional fast-forward or checkpoint restore failed (interpreter
    /// fault, or warm state that does not match the machine's geometry).
    FastForward(String),
    /// The job's worker panicked; the payload carries the panic message.
    /// Reported by the sweep engine, which isolates the panic so one bad
    /// job cannot sink the batch (or poison the engine's shared state).
    Panicked(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::ProgramCount { expected, got } => {
                write!(
                    f,
                    "expected one program per hardware thread ({expected}), got {got}"
                )
            }
            SimError::Deadlock(e) => e.fmt(f),
            SimError::Invariant(e) => e.fmt(f),
            SimError::Divergence(e) => e.fmt(f),
            SimError::FastForward(e) => write!(f, "fast-forward failed: {e}"),
            SimError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

impl From<DeadlockError> for SimError {
    fn from(e: DeadlockError) -> SimError {
        SimError::Deadlock(Box::new(e))
    }
}

impl From<InvariantViolation> for SimError {
    fn from(e: InvariantViolation) -> SimError {
        SimError::Invariant(e)
    }
}

/// A thread's first disagreement with its ISA oracle
/// ([`crate::Machine::enable_verification`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The thread that diverged.
    pub thread: usize,
    /// Cycle of the retirement at which the check failed.
    pub cycle: u64,
    /// PC of that retirement (the `halt` for the final checks).
    pub pc: u64,
    /// Which check failed.
    pub check: DivergenceCheck,
    /// What differs, oracle side first.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {} diverged from the ISA oracle at cycle {}, pc {}: [{:?}] {}",
            self.thread, self.cycle, self.pc, self.check, self.detail
        )
    }
}

/// The checks the verification oracle makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCheck {
    /// A retirement differs from the oracle's, or the oracle cannot step.
    Retire,
    /// After `halt`: the registers, PC or halt flag differ.
    FinalState,
    /// After `halt` on a single-threaded machine: the data memory differs.
    Memory,
}

/// A specific inconsistency in a [`crate::PipelineConfig`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `threads` outside the supported 1–4 range.
    ThreadCount {
        /// Configured thread count.
        got: usize,
    },
    /// `width` or `clusters` is zero.
    ZeroWidthOrClusters,
    /// `branch_checkpoints == Some(0)`.
    NoBranchCheckpoints,
    /// `fp_clusters` outside `1..=clusters`.
    FpClusters {
        /// Configured FP clusters.
        fp_clusters: usize,
        /// Total clusters.
        clusters: usize,
    },
    /// `mem_clusters` outside `1..=clusters`.
    MemClusters {
        /// Configured memory clusters.
        mem_clusters: usize,
        /// Total clusters.
        clusters: usize,
    },
    /// `iq_ex_stages` below 1.
    IqExTooShort,
    /// `dec_iq_stages` below 1.
    DecIqTooShort,
    /// Too few physical registers for the architectural mappings plus the
    /// in-flight window.
    TooFewPhysRegs {
        /// Configured physical registers.
        phys_regs: usize,
        /// Architectural mappings needed (64 × threads).
        arch: usize,
        /// Configured in-flight window.
        max_in_flight: usize,
    },
    /// Monolithic scheme: IQ-EX shorter than the register-file read it
    /// must contain.
    MonolithicRfReadTooLong {
        /// Configured IQ-EX stages.
        iq_ex_stages: u32,
        /// Configured register-file read latency.
        rf_read_latency: u32,
    },
    /// DRA scheme with zero-entry cluster register caches.
    EmptyCrc,
    /// DRA scheme: DEC-IQ too short to hold rename plus the pre-read.
    DraDecIqTooShort {
        /// Configured DEC-IQ stages.
        dec_iq_stages: u32,
        /// Configured register-file read latency.
        rf_read_latency: u32,
    },
    /// A fault-injection probability is outside `[0, 1]` or not finite.
    FaultRate {
        /// Which rate field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ThreadCount { got } => write!(f, "threads must be 1–4, got {got}"),
            ConfigError::ZeroWidthOrClusters => {
                write!(f, "width and clusters must be positive")
            }
            ConfigError::NoBranchCheckpoints => {
                write!(f, "branch_checkpoints must be at least 1 when limited")
            }
            ConfigError::FpClusters {
                fp_clusters,
                clusters,
            } => {
                write!(f, "fp_clusters ({fp_clusters}) must be in 1..={clusters}")
            }
            ConfigError::MemClusters {
                mem_clusters,
                clusters,
            } => {
                write!(f, "mem_clusters ({mem_clusters}) must be in 1..={clusters}")
            }
            ConfigError::IqExTooShort => write!(f, "iq_ex_stages must be at least 1"),
            ConfigError::DecIqTooShort => write!(f, "dec_iq_stages must be at least 1"),
            ConfigError::TooFewPhysRegs {
                phys_regs,
                arch,
                max_in_flight,
            } => write!(
                f,
                "phys_regs ({phys_regs}) must cover {arch} architectural mappings plus \
                 {max_in_flight} in flight"
            ),
            ConfigError::MonolithicRfReadTooLong {
                iq_ex_stages,
                rf_read_latency,
            } => write!(
                f,
                "monolithic IQ-EX ({iq_ex_stages}) cannot be shorter than the register read \
                 ({rf_read_latency})"
            ),
            ConfigError::EmptyCrc => write!(f, "CRC must have at least one entry"),
            ConfigError::DraDecIqTooShort {
                dec_iq_stages,
                rf_read_latency,
            } => write!(
                f,
                "DRA DEC-IQ ({dec_iq_stages}) must fit rename (2) + register read \
                 ({rf_read_latency})"
            ),
            ConfigError::FaultRate { field, value } => {
                write!(f, "fault rate `{field}` must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The forward-progress watchdog fired: no thread retired an instruction
/// for a whole watchdog window while un-halted threads still had work.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockError {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Configured no-retire window (cycles).
    pub window: u64,
    /// Cycle of the last retirement (or run start if none).
    pub last_retire_cycle: u64,
    /// Per-stage occupancy at the moment the watchdog fired.
    pub snapshot: PipelineSnapshot,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline deadlock: no instruction retired for {} cycles (cycle {}, last retirement \
             at cycle {})",
            self.window, self.cycle, self.last_retire_cycle
        )?;
        self.snapshot.fmt(f)
    }
}

impl std::error::Error for DeadlockError {}

/// Point-in-time occupancy of every pipeline structure — the human-readable
/// payload of a [`DeadlockError`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSnapshot {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// IQ entries in use.
    pub iq_len: usize,
    /// IQ capacity.
    pub iq_capacity: usize,
    /// IQ entries by state: (waiting, issued, confirmed-pending-clear).
    pub iq_states: (usize, usize, usize),
    /// Free physical registers.
    pub free_phys_regs: usize,
    /// Total physical registers.
    pub phys_regs: usize,
    /// Renamed, un-retired instructions across threads.
    pub in_flight: usize,
    /// Configured in-flight cap.
    pub max_in_flight: usize,
    /// Cycle until which the front end is stalled (operand-miss recovery).
    pub frontend_stall_until: u64,
    /// Pending events per event stream, by name: begin-execute,
    /// completion, wake-up, readiness-timer, write-back and release (a
    /// wedged machine with all six queues empty will never progress).
    pub pending_events: [(&'static str, usize); 6],
    /// Per-thread occupancy.
    pub threads: Vec<ThreadSnapshot>,
}

/// One thread's slice of a [`PipelineSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSnapshot {
    /// The thread retired its `halt`.
    pub done: bool,
    /// Next fetch PC.
    pub fetch_pc: u64,
    /// Fetch suspended (halt fetched or wrong-path runaway).
    pub fetch_suspended: bool,
    /// Cycle until which fetch is stalled.
    pub fetch_stall_until: u64,
    /// Fetched instructions awaiting rename.
    pub decode_q: usize,
    /// Renamed instructions in DEC-IQ transit.
    pub transit_q: usize,
    /// Program-order window occupancy (renamed, un-retired).
    pub rob: usize,
    /// In-flight stores.
    pub store_q: usize,
    /// Unresolved conditional branches.
    pub unresolved_branches: usize,
    /// Rename stalled behind an un-retired memory barrier.
    pub mb_stalled: bool,
    /// Oldest un-retired instruction: (seq, pc, phase), if any.
    pub oldest: Option<(u64, u64, &'static str)>,
}

impl fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, i, c) = self.iq_states;
        writeln!(
            f,
            "  IQ {}/{} (waiting {w}, issued {i}, confirmed {c}); phys regs free {}/{}; \
             in flight {}/{}; frontend stalled until {}",
            self.iq_len,
            self.iq_capacity,
            self.free_phys_regs,
            self.phys_regs,
            self.in_flight,
            self.max_in_flight,
            self.frontend_stall_until,
        )?;
        write!(f, "  pending events:")?;
        for (i, (name, n)) in self.pending_events.iter().enumerate() {
            write!(f, "{} {name} {n}", if i == 0 { "" } else { "," })?;
        }
        writeln!(f)?;
        for (t, th) in self.threads.iter().enumerate() {
            write!(
                f,
                "  thread {t}: {}decode {} | transit {} | rob {} | stores {} | branches {}",
                if th.done { "done; " } else { "" },
                th.decode_q,
                th.transit_q,
                th.rob,
                th.store_q,
                th.unresolved_branches,
            )?;
            if th.mb_stalled {
                write!(f, " | mb-stalled")?;
            }
            if th.fetch_suspended {
                write!(f, " | fetch suspended at pc {}", th.fetch_pc)?;
            } else {
                write!(
                    f,
                    " | fetch pc {} (stalled until {})",
                    th.fetch_pc, th.fetch_stall_until
                )?;
            }
            if let Some((seq, pc, phase)) = th.oldest {
                write!(f, " | oldest seq {seq} pc {pc} [{phase}]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A structural invariant the per-cycle auditor found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the check failed.
    pub cycle: u64,
    /// Which invariant class failed.
    pub kind: InvariantKind,
    /// Specifics (registers, counts, thread indices involved).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated at cycle {}: [{}] {}",
            self.cycle, self.kind, self.detail
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// The invariant classes the auditor checks every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvariantKind {
    /// free + architectural + in-flight destinations ≠ total physical regs.
    FreelistConservation,
    /// IQ occupancy exceeds capacity or per-cluster counts disagree.
    IqConsistency,
    /// ROB sequence numbers out of order, or a dangling instruction handle.
    RobOrder,
    /// A store (or load) queue is not the in-order store (or load)
    /// subsequence of the ROB.
    StoreQueueOrder,
    /// Renamed-instruction count exceeds the configured in-flight cap.
    InFlightBound,
    /// An RPFT pre-read bit is set for a register whose producer has not
    /// written back, or clear for a committed architectural mapping.
    RpftConsistency,
    /// A CRC caches a register with no live value in the register file.
    CrcConsistency,
    /// An insertion table counts consumers for an already-readable register.
    InsertionTableConsistency,
    /// The per-loop CPI stack leaked retire slots: used + lost slots do not
    /// equal width × cycles, or the stack disagrees with the retire/cycle
    /// counters.
    LoopCostConservation,
    /// The memory hierarchy's structural self-check failed (e.g. more
    /// outstanding misses than MSHRs). Also covers the documented fetch
    /// asymmetry: instruction fetches never occupy MSHRs, so data-side
    /// occupancy alone must stay within bounds.
    MemHierarchyConsistency,
    /// The quiescence skip would jump over a cycle at which something
    /// falls due: a queued event of any stream, write-backs and IQ
    /// releases included (or an event queue out of cycle order), or the
    /// watchdog.
    SkipBoundary,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::FreelistConservation => "freelist-conservation",
            InvariantKind::IqConsistency => "iq-consistency",
            InvariantKind::RobOrder => "rob-order",
            InvariantKind::StoreQueueOrder => "store-queue-order",
            InvariantKind::InFlightBound => "in-flight-bound",
            InvariantKind::RpftConsistency => "rpft-consistency",
            InvariantKind::CrcConsistency => "crc-consistency",
            InvariantKind::InsertionTableConsistency => "insertion-table-consistency",
            InvariantKind::LoopCostConservation => "loop-cost-conservation",
            InvariantKind::MemHierarchyConsistency => "mem-hierarchy-consistency",
            InvariantKind::SkipBoundary => "skip-boundary",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Config(ConfigError::ThreadCount { got: 9 });
        assert!(e.to_string().contains("threads must be 1–4, got 9"));

        let e = SimError::ProgramCount {
            expected: 2,
            got: 1,
        };
        assert!(e
            .to_string()
            .contains("expected one program per hardware thread (2), got 1"));

        let v = InvariantViolation {
            cycle: 77,
            kind: InvariantKind::FreelistConservation,
            detail: "free 10 + live 20 != total 512".into(),
        };
        let s = SimError::from(v).to_string();
        assert!(s.contains("cycle 77"));
        assert!(s.contains("freelist-conservation"));
        assert!(s.contains("free 10"));
    }

    #[test]
    fn deadlock_display_includes_snapshot() {
        let e = DeadlockError {
            cycle: 60_000,
            window: 50_000,
            last_retire_cycle: 10_000,
            snapshot: PipelineSnapshot {
                cycle: 60_000,
                iq_len: 4,
                iq_capacity: 128,
                iq_states: (3, 1, 0),
                free_phys_regs: 400,
                phys_regs: 512,
                in_flight: 48,
                max_in_flight: 256,
                frontend_stall_until: 0,
                pending_events: [
                    ("begin-execute", 0),
                    ("completion", 1),
                    ("wake-up", 0),
                    ("readiness-timer", 2),
                    ("write-back", 3),
                    ("release", 4),
                ],
                threads: vec![ThreadSnapshot {
                    done: false,
                    fetch_pc: 42,
                    fetch_suspended: false,
                    fetch_stall_until: 0,
                    decode_q: 8,
                    transit_q: 16,
                    rob: 48,
                    store_q: 2,
                    unresolved_branches: 1,
                    mb_stalled: false,
                    oldest: Some((100, 17, "Issued")),
                }],
            },
        };
        let s = e.to_string();
        assert!(s.contains("no instruction retired for 50000 cycles"));
        assert!(s.contains("IQ 4/128"));
        assert!(s.contains(
            "pending events: begin-execute 0, completion 1, wake-up 0, \
             readiness-timer 2, write-back 3, release 4"
        ));
        assert!(s.contains("thread 0"));
        assert!(s.contains("oldest seq 100 pc 17 [Issued]"));
        // It round-trips through SimError.
        let s2 = SimError::from(e).to_string();
        assert_eq!(s, s2);
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = SimError::Config(ConfigError::EmptyCrc);
        assert!(e.source().is_some());
    }
}
