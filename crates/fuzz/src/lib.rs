//! Differential fuzzing for the loose-loops machine model.
//!
//! The timing simulator ([`looseloops_pipeline::Machine`]) and the
//! functional interpreter ([`looseloops_isa::ArchState`]) implement the
//! same ISA twice, from independent code. This crate weaponizes that
//! redundancy:
//!
//! 1. [`gen`] — a structure-aware program generator. From one seed it
//!    emits a terminating program full of the things the pipeline finds
//!    hard: nested counted loops, data-dependent branch nests, aliased
//!    loads and stores, long dependence chains, memory barriers, leaf
//!    calls and cross-bank FP conversions.
//! 2. [`case`] — the differential harness. Each seed also samples a
//!    machine configuration (scheme × RF latency × policies × predictor ×
//!    SMT × fault storm) and runs the pipeline under its ISA oracle (retire
//!    stream, final architectural state and final memory), then compares
//!    the event-driven engine with the naive per-cycle one.
//! 3. [`shrink()`] — delta-debugging. A failing case is minimized first in
//!    configuration space (drop faults, drop the second thread, simplify
//!    policies), then instruction by instruction with branch-displacement
//!    fixup, until a small reproducer remains.
//! 4. [`corpus`] — shrunk reproducers serialize to a self-describing
//!    versioned text format under `fuzz/corpus/`, replayed forever by a
//!    tier-1 regression test.
//! 5. [`campaign`] — ties it together: seed ranges across a worker pool
//!    with results that are bit-identical regardless of `--jobs`.

pub mod campaign;
pub mod case;
pub mod corpus;
pub mod gen;
pub mod shrink;

pub use campaign::{run_campaign, CampaignOpts, CampaignReport};
pub use case::{engines_agree, run_case, CaseOutcome, Finding, FindingKind, FuzzCase};
pub use corpus::{load_dir, save_entry, CorpusError};
pub use gen::{generate, GenProfile};
pub use shrink::{shrink, Shrunk};
