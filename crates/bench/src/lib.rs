//! Performance harnesses for the simulator itself.
//!
//! The bench targets measure the simulator, not the paper:
//!
//! - `micro` times the hot structures (caches, predictors, register
//!   structures) and end-to-end simulation throughput;
//! - `simmips` records the sim-MIPS of the reference sweeps as JSON for
//!   the CI regression gate (`scripts/check_simmips.py`).
//!
//! The paper's figures come from the CLI, e.g.
//! `looseloops figure fig4` or `looseloops figure all --stacks`.
