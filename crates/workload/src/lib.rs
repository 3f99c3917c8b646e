//! Workloads for the *Loose Loops* reproduction.
//!
//! The paper evaluates on Spec95 binaries compiled for Alpha, which we do
//! not have. Per the reproduction's substitution rule (DESIGN.md §4), this
//! crate supplies deterministic mini-ISA kernels whose *loop-relevant*
//! characteristics match the paper's per-benchmark descriptions — branch
//! density and predictability, load density and cache footprint,
//! dependence-chain shape, and operand-reuse distances. The studied
//! effects (how often each micro-architectural loop fires, how often it
//! mis-speculates, and how much work each mis-speculation wastes) depend
//! only on those characteristics.
//!
//! - [`Benchmark`] — the ten single-threaded proxies plus the paper's
//!   three SMT pairs ([`Benchmark::pairs`]).
//! - [`synthetic()`] — a fully parameterized generator for controlled
//!   experiments and property tests.
//!
//! All kernels run a practically-infinite outer loop (the harness stops
//! them by instruction budget) and touch disjoint, per-thread address
//! ranges so SMT runs are data-race-free by construction.

pub mod kernels;
pub mod profile;
pub mod synthetic;

pub use profile::{Benchmark, SmtPair};
pub use synthetic::{synthetic, try_synthetic, SyntheticError, SyntheticParams};
