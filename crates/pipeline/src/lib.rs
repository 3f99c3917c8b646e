//! Cycle-level, execution-driven out-of-order SMT pipeline model — the
//! simulated machine of the *Loose Loops Sink Chips* reproduction.
//!
//! The model is an 8-wide, 8-cluster, 128-entry-IQ, 256-in-flight machine
//! with configurable DEC-IQ and IQ-EX latencies (the paper's two pipeline
//! knobs), a 9-cycle forwarding buffer, load-hit speculation with four
//! selectable recovery policies, branch prediction with fetch-time
//! speculative history, a store queue with memory-dependence prediction,
//! and an optional Distributed Register Algorithm (DRA) operand-delivery
//! scheme built from the structures in `looseloops-regs`.
//!
//! # Example
//!
//! ```
//! use looseloops_pipeline::{Machine, PipelineConfig};
//! use looseloops_isa::asm;
//!
//! let prog = asm::assemble(
//!     "
//!         addi r1, r31, 100
//!     top:
//!         add  r2, r2, r1
//!         subi r1, r1, 1
//!         bne  r1, top
//!         halt
//!     ",
//! ).unwrap();
//! let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
//! m.enable_verification();
//! let ipc = m.run(u64::MAX, 100_000).unwrap().ipc();
//! assert!(m.is_done());
//! assert!(ipc > 0.5);
//! ```
//!
//! Construction and run paths report failures as typed [`SimError`]s; the
//! opt-in per-cycle invariant auditor (`cfg.audit`), the forward-progress
//! watchdog (`cfg.watchdog_window`), and the deterministic fault-injection
//! harness ([`FaultPlan`]) form the simulation hardening layer.

pub mod audit;
pub mod config;
pub mod dyninst;
pub mod error;
pub mod faults;
pub mod iq;
pub mod lsq;
pub mod machine;
pub mod profile;
pub mod spec;
pub mod stats;
pub mod trace;
pub(crate) mod wheel;

pub use config::{ExecLatencies, LoadSpecPolicy, PipelineConfig, RegisterScheme};
pub use dyninst::{DynInst, InstId, InstPhase, OperandSource};
pub use error::{
    ConfigError, DeadlockError, Divergence, DivergenceCheck, InvariantKind, InvariantViolation,
    PipelineSnapshot, SimError, ThreadSnapshot,
};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSummary};
pub use iq::{IqEntry, IqState, IssueQueue};
pub use lsq::StoreWaitTable;
pub use machine::Machine;
pub use spec::SpecError;
pub use stats::{CpiComponent, LoopCostStack, SimStats};
pub use trace::PipelineTracer;
