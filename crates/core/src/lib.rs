//! # looseloops — *Loose Loops Sink Chips*, reproduced in Rust
//!
//! A from-scratch reproduction of Borch, Tune, Manne & Emer, **"Loose Loops
//! Sink Chips"** (HPCA 2002): the micro-architectural loop framework, the
//! pipeline-length and pipeline-configuration studies, and the paper's
//! contribution — the **Distributed Register Algorithm (DRA)** with
//! per-cluster register caches.
//!
//! This crate is the front door; the heavy machinery lives in the substrate
//! crates (`looseloops-isa`, `-mem`, `-branch`, `-regs`, `-pipeline`,
//! `-workload`) and is re-exported here.
//!
//! ## Quick start
//!
//! ```
//! use looseloops::{Benchmark, PipelineConfig, RunBudget, Workload};
//!
//! // Simulate 20k instructions of the `swim` proxy on the paper's base
//! // machine and on the DRA machine (3-cycle register file). The workload
//! // sets the thread count; `try_run_programs` runs an explicit program list.
//! let budget = RunBudget { warmup: 2_000, measure: 20_000, max_cycles: 2_000_000 };
//! let swim = Workload::Single(Benchmark::Swim);
//! let base = swim.try_run(&PipelineConfig::base_for_rf(3), budget)?;
//! let dra = swim.try_run(&PipelineConfig::dra_for_rf(3), budget)?;
//! println!("speedup = {:.3}", dra.ipc() / base.ipc());
//! # Ok::<(), looseloops::SimError>(())
//! ```
//!
//! ## Loop analysis
//!
//! [`loop_inventory`] enumerates every micro-architectural loop of a
//! configured machine with its initiation/resolution/recovery stages, loop
//! length, feedback delay, and loop delay — the Figure 1/2 taxonomy:
//!
//! ```
//! use looseloops::{loop_inventory, PipelineConfig};
//! let loops = loop_inventory(&PipelineConfig::base());
//! let load = loops.iter().find(|l| l.name == "load resolution").unwrap();
//! assert_eq!(load.loop_delay(), 8); // paper §2.2.2
//! ```

pub mod checkpoint;
pub mod experiments;
pub mod loops;
pub mod machines;
pub mod report;
pub mod sampling;
pub mod simulator;
pub mod store;
pub mod sweep;

pub use checkpoint::{
    capture_checkpoint, restore_into, warm_digest, warm_key, Checkpoint, CheckpointStore,
    FunctionalCursor, ThreadCheckpoint, WarmCounts, WarmMemo, Warmer, CHECKPOINT_VERSION,
};
pub use sampling::{run_sampled, SampledRun, SamplingPlan};

pub use experiments::{FigureKind, FigureSpec, Workload};
pub use loops::{loop_for_component, loop_inventory, LoopInfo, LoopKind, Management, Stage};
pub use machines::{alpha21264_like, pentium4_like};
pub use report::{CpiStackReport, CpiStackRow, FigureResult, Series};
pub use simulator::{try_run_programs, RunBudget};
pub use store::{ResultStore, StoreError, StoreMisses, RESULT_STORE_VERSION};
pub use sweep::{default_jobs, fnv1a64, parallel_map, ExecMode, Job, SweepEngine, SweepSummary};

// Substrate re-exports.
pub use looseloops_branch as branch;
pub use looseloops_isa as isa;
pub use looseloops_mem as mem;
pub use looseloops_pipeline as pipeline;
pub use looseloops_regs as regs;
pub use looseloops_workload as workload;

pub use looseloops_pipeline::profile::StageReport;
pub use looseloops_pipeline::{
    ConfigError, CpiComponent, DeadlockError, FaultKind, FaultPlan, InvariantKind,
    InvariantViolation, LoadSpecPolicy, LoopCostStack, Machine, PipelineConfig, PipelineSnapshot,
    RegisterScheme, SimError, SimStats,
};
pub use looseloops_workload::{Benchmark, SmtPair};
