//! Memory-hierarchy timing models for the *Loose Loops* reproduction.
//!
//! The functional data lives in a flat byte-addressed memory
//! ([`looseloops_isa::FlatMemory`](https://docs.rs/looseloops-isa)); the
//! structures in this crate are *timing directories*: they track which lines
//! would be resident in each cache level and answer "how long would this
//! access take, and where did it hit?". Keeping data and timing separate
//! makes the timing model trivially coherent and lets the pipeline
//! replay/flush speculative work without un-doing memory traffic.
//!
//! Components:
//!
//! - [`Cache`]: set-associative, LRU, write-allocate timing cache. The data
//!   TLB is one too: a single fully associative set of pages.
//! - [`BankTracker`]: per-cycle bank-busy accounting for bank conflicts.
//! - [`TlbConfig`]: the data TLB's size and its miss policy, which either
//!   adds a fixed walk penalty or raises a pipeline trap (the paper's
//!   `turb3d` discussion relies on dTLB-miss traps recovering from fetch).
//! - [`MemHierarchy`]: L1I + L1D + unified L2 + data TLB + main memory —
//!   the configuration of the paper's base machine — returning an
//!   [`AccessResult`] per access. Timed accesses and the functional
//!   warmer's accesses take one walk through the levels.

pub mod bank;
pub mod cache;
pub mod hierarchy;
pub mod prefetch;
pub mod tlb;

pub use bank::BankTracker;
pub use cache::{Cache, CacheConfig, CacheStats, CacheWarmState};
pub use hierarchy::{
    AccessKind, AccessResult, HierarchyConfig, HierarchyStats, HierarchyWarmState, HitLevel,
    MemHierarchy,
};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
pub use tlb::{TlbConfig, TlbMissPolicy};
