//! Functional warm-up checkpoints: capture, serialization, on-disk store.
//!
//! Detailed warm-up is the dominant cost of a sweep: every job spends
//! `budget.warmup` instructions in the cycle-accurate machine before its
//! measured window begins, and most of that work is identical between
//! jobs — Figure 4 runs four pipeline depths over the same thirteen
//! workloads, and the architectural state plus cache/TLB/predictor warm
//! state after N functional instructions does not depend on pipeline
//! depth at all.
//!
//! This module exploits that: [`FunctionalCursor`] drives the ISA-level
//! interpreter ([`looseloops_isa::fast_forward`]) with a [`Warmer`] that
//! feeds the retired instruction stream into residency-only models of the
//! memory hierarchy, the direction predictor and the BTB. The resulting
//! [`Checkpoint`] — architectural registers + PC per thread, touched
//! memory pages, and the warm microarchitectural state — restores into a
//! fresh [`Machine`] in microseconds, so every sweep point sharing a
//! (memory/predictor config, workload, warm-up) digest pays for warm-up
//! once. [`CheckpointStore`] extends the sharing across processes with a
//! versioned, self-describing on-disk encoding.
//!
//! Functional warm-up is an *approximation* of detailed warm-up: the
//! detailed frontend touches I-cache lines and predictor entries on
//! speculative paths that the functional stream never sees. That is the
//! standard checkpointing trade-off (SMARTS, SimPoint); the sampling
//! driver (`crate::sampling`) quantifies the residual error with per-window
//! CPI error bars. Its one-window plan (`--sample w=1,warm=0,detail=N`) is
//! plain fast-forwarding: functional warm-up from the shared checkpoint,
//! then the whole measured window in detail. Sampling is opt-in — the
//! default detailed path is byte-identical to a simulator without this
//! module.

use crate::experiments::Workload;
use crate::store::{
    decode_entry, encode_entry, push_u16, push_u32, push_u64, push_words, EntryDir, Reader,
    StoreError, StoreMisses,
};
use crate::sweep::{fnv1a64, Job};
use looseloops_branch::{
    build_predictor, Btb, BtbWarmState, DirectionPredictor, PredictorWarmState,
};
use looseloops_isa::{fast_forward, ArchState, FlatMemory, Program, Reg, WarmHooks};
use looseloops_mem::{AccessKind, CacheWarmState, HierarchyWarmState, MemHierarchy};
use looseloops_pipeline::{Machine, PipelineConfig, SimError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

/// Current layout version (3: recency-ordered tags, byte-sized predictor
/// counters, occupied BTB slots only). It is part of every [`warm_key`],
/// so a checkpoint of another version is stored under another name;
/// [`CheckpointStore::open`] deletes those of older versions.
pub const CHECKPOINT_VERSION: u32 = 3;

/// File magic: "LLCK" (Loose Loops ChecKpoint).
const MAGIC: [u8; 4] = *b"LLCK";

/// Architectural state of one hardware thread at the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCheckpoint {
    /// All architectural registers in index order (zero registers read as
    /// 0 and are restored as written).
    pub regs: Vec<u64>,
    /// Program counter (instruction index, the ISA's native PC unit).
    pub pc: u64,
    /// The fetch line the functional front last reported to the warm
    /// hooks ([`looseloops_isa::fastfwd::NO_FETCH_LINE`] when none).
    /// Carried so a resumed cursor reproduces the exact line-entry touch
    /// sequence a whole run would — warm-state bytes stay split-invariant.
    pub last_fetch_line: u64,
    /// Whether the thread has executed `halt`.
    pub halted: bool,
}

/// A machine snapshot after functional warm-up: everything needed to
/// resume detailed simulation as if the warm-up had been simulated.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Instructions actually executed to reach this point (≤ the requested
    /// warm-up when every thread halts early).
    pub instructions: u64,
    /// Per-thread architectural state.
    pub threads: Vec<ThreadCheckpoint>,
    /// Functional data memory (only touched pages are stored).
    pub mem: FlatMemory,
    /// Cache and TLB residency (tags in recency order, no timing).
    pub hier: HierarchyWarmState,
    /// Direction-predictor counters and histories.
    pub predictor: PredictorWarmState,
    /// The BTB's occupied slots.
    pub btb: BtbWarmState,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encoded bytes of one cache's (or the TLB's) warm state.
fn cache_len(c: &CacheWarmState) -> usize {
    2 + 8 + 2 * c.counts().len() + 8 + 8 * c.tags().len()
}

/// The ways, the per-set line counts, then the tags.
fn encode_cache(out: &mut Vec<u8>, c: &CacheWarmState) {
    push_u16(out, c.ways());
    push_u64(out, c.counts().len() as u64);
    for &n in c.counts() {
        push_u16(out, n);
    }
    push_words(out, c.tags());
}

fn decode_cache(r: &mut Reader<'_>) -> Result<CacheWarmState, StoreError> {
    let ways = r.u16("cache ways")?;
    let sets = r.count(2, "cache sets")?;
    let mut counts = Vec::with_capacity(sets);
    for _ in 0..sets {
        counts.push(r.short_count("set lines")?);
    }
    CacheWarmState::new(ways, counts, r.words("cache tags")?).map_err(StoreError::Corrupt)
}

fn predictor_len(p: &PredictorWarmState) -> usize {
    8 + 8 + p.counters().len() + 8 + 2 * p.local_histories().len() + 8 + p.local_counters().len()
}

/// The global history, then the 2-bit counters, the local histories and
/// the local pattern counters, each a count and one or two bytes apiece.
fn encode_predictor(out: &mut Vec<u8>, p: &PredictorWarmState) {
    push_u64(out, p.history());
    push_u64(out, p.counters().len() as u64);
    out.extend_from_slice(p.counters());
    push_u64(out, p.local_histories().len() as u64);
    for &h in p.local_histories() {
        push_u16(out, h);
    }
    push_u64(out, p.local_counters().len() as u64);
    out.extend_from_slice(p.local_counters());
}

fn decode_predictor(r: &mut Reader<'_>) -> Result<PredictorWarmState, StoreError> {
    let history = r.u64("global history")?;
    let n = r.count(1, "predictor counters")?;
    let counters = r.take(n, "predictor counters")?.to_vec();
    let n = r.count(2, "local histories")?;
    let mut local_histories = Vec::with_capacity(n);
    for _ in 0..n {
        local_histories.push(r.u16("local history")?);
    }
    let n = r.count(1, "local counters")?;
    let local_counters = r.take(n, "local counters")?.to_vec();
    PredictorWarmState::new(history, counters, local_histories, local_counters)
        .map_err(StoreError::Corrupt)
}

/// The slot count, then `(slot, tag, target)` per occupied slot.
fn encode_btb(out: &mut Vec<u8>, b: &BtbWarmState) {
    push_u32(out, b.slots());
    push_u64(out, b.entries().len() as u64);
    for &(slot, tag, target) in b.entries() {
        push_u32(out, slot);
        push_u64(out, tag);
        push_u64(out, target);
    }
}

fn decode_btb(r: &mut Reader<'_>) -> Result<BtbWarmState, StoreError> {
    let slots = r.u32("btb slots")?;
    let n = r.count(20, "btb entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((r.u32("btb slot")?, r.u64("btb tag")?, r.u64("btb target")?));
    }
    BtbWarmState::new(slots, entries).map_err(StoreError::Corrupt)
}

impl Checkpoint {
    /// Serialize to the on-disk layout: magic, version, the warm `key`
    /// it is stored under, then every field in a fixed order — the
    /// instruction count, the threads, the memory pages, the cache and
    /// TLB residency, the predictor state and the occupied BTB slots.
    pub fn encode(&self, key: &str) -> Vec<u8> {
        // Sized up front and written in place: a checkpoint can hold
        // megabytes of pages, and a buffer grown by doubling would hold
        // several copies of them while the store writes one.
        let threads: usize = self.threads.iter().map(|t| 25 + 8 * t.regs.len()).sum();
        let pages = self.mem.pages_touched() * (8 + 4096);
        let h = &self.hier;
        let hier = cache_len(&h.l1i) + cache_len(&h.l1d) + cache_len(&h.l2) + cache_len(&h.dtlb);
        let btb = 4 + 8 + 20 * self.btb.entries().len();
        // The instruction count and two counts (threads, pages), then the
        // rest.
        let len = 8 + 2 * 8 + threads + pages + hier + predictor_len(&self.predictor) + btb;
        let out = encode_entry(MAGIC, CHECKPOINT_VERSION, key, len, |out| {
            push_u64(out, self.instructions);

            push_u64(out, self.threads.len() as u64);
            for t in &self.threads {
                push_words(out, &t.regs);
                push_u64(out, t.pc);
                push_u64(out, t.last_fetch_line);
                out.push(u8::from(t.halted));
            }

            // FlatMemory's page map has no iteration-order guarantee; sort
            // so the encoding (and thus every stored checkpoint file) is
            // byte-deterministic for identical state.
            let mut pages: Vec<(u64, &[u8; 4096])> = self.mem.pages().collect();
            pages.sort_unstable_by_key(|&(idx, _)| idx);
            push_u64(out, pages.len() as u64);
            for (idx, bytes) in pages {
                push_u64(out, idx);
                out.extend_from_slice(&bytes[..]);
            }

            for cache in [&h.l1i, &h.l1d, &h.l2, &h.dtlb] {
                encode_cache(out, cache);
            }
            encode_predictor(out, &self.predictor);
            encode_btb(out, &self.btb);
        });
        debug_assert_eq!(out.len(), 16 + key.len() + len, "encoded length estimate");
        out
    }

    /// Parse the on-disk layout, returning the warm key the checkpoint
    /// was stored under and the checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on bad magic, any version but
    /// [`CHECKPOINT_VERSION`], a short encoding, trailing bytes, or
    /// structurally impossible values: a set holding more lines than its
    /// ways or one tag twice, a counter out of its range, a BTB slot past
    /// the table or out of order.
    pub fn decode(bytes: &[u8]) -> Result<(String, Checkpoint), StoreError> {
        decode_entry(bytes, MAGIC, CHECKPOINT_VERSION, |r| {
            let instructions = r.u64("instructions")?;

            let mut threads = Vec::new();
            for _ in 0..r.count(25, "thread count")? {
                threads.push(ThreadCheckpoint {
                    regs: r.words("registers")?,
                    pc: r.u64("pc")?,
                    last_fetch_line: r.u64("last fetch line")?,
                    halted: r.bool("halted")?,
                });
            }

            let mut mem = FlatMemory::new();
            for _ in 0..r.count(8 + 4096, "page count")? {
                let idx = r.u64("page index")?;
                let bytes: &[u8; 4096] = r.take(4096, "page bytes")?.try_into().unwrap();
                mem.install_page(idx, bytes);
            }

            let hier = HierarchyWarmState {
                l1i: decode_cache(r)?,
                l1d: decode_cache(r)?,
                l2: decode_cache(r)?,
                dtlb: decode_cache(r)?,
            };
            Ok(Checkpoint {
                instructions,
                threads,
                mem,
                hier,
                predictor: decode_predictor(r)?,
                btb: decode_btb(r)?,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------------

/// A directory of checkpoints (`*.llck` files) keyed by [`warm_digest`].
/// Saves are atomic, so concurrent processes sharing a store never
/// observe a half-written file.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    entries: EntryDir,
    stale_removed: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`, deleting the
    /// checkpoints an older [`CHECKPOINT_VERSION`] left there: the
    /// version is part of the file name, so no later run would open,
    /// count or replace them. Newer versions and other files stay.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<CheckpointStore, StoreError> {
        let entries = EntryDir::open(dir.as_ref(), "llck")?;
        let stale_removed = entries.remove_older(MAGIC, CHECKPOINT_VERSION);
        Ok(CheckpointStore {
            entries,
            stale_removed,
        })
    }

    /// How many checkpoints of older versions [`CheckpointStore::open`]
    /// deleted.
    pub fn stale_removed(&self) -> u64 {
        self.stale_removed
    }

    /// The file a digest maps to.
    pub fn path(&self, digest: u64) -> PathBuf {
        self.entries.path(digest)
    }

    /// Load the checkpoint stored under `digest`, verifying it was
    /// stored for exactly the warm `key`. `Ok(None)` when none is stored
    /// *or* the file belongs to another key.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on an unreadable or undecodable file (callers
    /// treat that as a miss and regenerate).
    pub fn load(&self, digest: u64, key: &str) -> Result<Option<Checkpoint>, StoreError> {
        self.entries.load(digest, key, Checkpoint::decode)
    }

    /// Store `ckpt` under `digest` for the warm `key` (atomic replace).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temporary cannot be written or
    /// renamed into place.
    pub fn save(&self, digest: u64, key: &str, ckpt: &Checkpoint) -> Result<(), StoreError> {
        self.entries.save(digest, &ckpt.encode(key))
    }
}

/// Everything the warm state after functional warm-up depends on, as
/// the string a checkpoint is stored under: the layout version, the
/// memory-hierarchy / predictor / BTB configuration, the workload, and
/// the warm-up length. Pipeline depths, queue sizes and register schemes
/// deliberately do **not** participate — functional warm-up never
/// consults them, which is exactly why one checkpoint serves every
/// machine of a depth sweep.
pub fn warm_key(cfg: &PipelineConfig, workload: &Workload, warmup: u64) -> String {
    format!(
        "llck-v{CHECKPOINT_VERSION}|mem={:?}|pred={:?}|btb={}|{workload:?}|warmup={warmup}",
        cfg.mem, cfg.predictor, cfg.btb_entries
    )
}

/// Stable digest of [`warm_key`]: the name of a checkpoint's file.
pub fn warm_digest(cfg: &PipelineConfig, workload: &Workload, warmup: u64) -> u64 {
    fnv1a64(warm_key(cfg, workload, warmup).as_bytes())
}

// ---------------------------------------------------------------------------
// Functional warm-up
// ---------------------------------------------------------------------------

/// [`WarmHooks`] sink that feeds the retired stream into residency-only
/// warm models: cache/TLB tag arrays, the direction predictor's
/// architectural history, and the BTB.
pub struct Warmer {
    /// Timing directories, used for residency only (`warm_access`).
    pub hier: MemHierarchy,
    /// Direction predictor, trained on the architectural outcome stream.
    pub pred: Box<dyn DirectionPredictor>,
    /// Branch target buffer, updated on taken jumps exactly as retire does.
    pub btb: Btb,
}

impl Warmer {
    /// Cold warm models matching `cfg`'s hierarchy/predictor/BTB geometry.
    pub fn for_config(cfg: &PipelineConfig) -> Warmer {
        Warmer {
            hier: MemHierarchy::new(cfg.mem),
            pred: build_predictor(cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
        }
    }

    /// Warm models pre-loaded from a checkpoint's exported state.
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] when the checkpoint's geometry does not
    /// match `cfg`.
    pub fn from_checkpoint(cfg: &PipelineConfig, ckpt: &Checkpoint) -> Result<Warmer, SimError> {
        let mut w = Warmer::for_config(cfg);
        w.hier
            .import_warm(&ckpt.hier)
            .map_err(SimError::FastForward)?;
        w.pred
            .import_state(&ckpt.predictor)
            .map_err(SimError::FastForward)?;
        w.btb
            .import_state(&ckpt.btb)
            .map_err(SimError::FastForward)?;
        Ok(w)
    }
}

impl WarmHooks for Warmer {
    fn warm_fetch(&mut self, line_addr: u64) {
        self.hier.warm_access(AccessKind::InstFetch, line_addr);
    }

    fn warm_data(&mut self, addr: u64, is_write: bool) {
        let kind = if is_write {
            AccessKind::DataWrite
        } else {
            AccessKind::DataRead
        };
        self.hier.warm_access(kind, addr);
    }

    fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.pred.update(pc, taken);
    }

    fn warm_jump(&mut self, pc: u64, target: u64) {
        self.btb.update(pc, target);
    }
}

/// Round-robin chunk size: threads of an SMT pair advance in 128-instruction
/// slices so a pair's warm state interleaves both threads' footprints, as
/// the detailed machine's shared caches would see them.
const INTERLEAVE_CHUNK: u64 = 128;

/// A resumable functional execution front: architectural state + memory +
/// warm models, advanced by the ISA interpreter without any pipeline
/// machinery. Used both to build checkpoints and, by the sampling driver,
/// to skip between detailed windows.
pub struct FunctionalCursor {
    programs: Vec<Program>,
    states: Vec<ArchState>,
    /// Per-thread fetch-line memo for [`fast_forward`]'s line-granular
    /// warming; persisted across chunks (and checkpoints) so the touch
    /// sequence never depends on where execution was sliced.
    last_lines: Vec<u64>,
    mem: FlatMemory,
    warmer: Warmer,
    executed: u64,
}

impl FunctionalCursor {
    /// A cursor at the entry point of `programs` with cold warm state.
    /// Memory is initialized exactly as [`Machine::new`] initializes its
    /// functional memory: every program's init data loaded into one flat
    /// space (workloads use disjoint address ranges).
    pub fn new(cfg: &PipelineConfig, programs: Vec<Program>) -> FunctionalCursor {
        let states: Vec<ArchState> = programs.iter().map(ArchState::new).collect();
        let mut mem = FlatMemory::new();
        for p in &programs {
            mem.load_init_data(p);
        }
        let last_lines = vec![looseloops_isa::fastfwd::NO_FETCH_LINE; programs.len()];
        FunctionalCursor {
            programs,
            states,
            last_lines,
            mem,
            warmer: Warmer::for_config(cfg),
            executed: 0,
        }
    }

    /// A cursor resuming from `ckpt` (threads, memory, warm state).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] on a thread-count or geometry mismatch.
    pub fn from_checkpoint(
        cfg: &PipelineConfig,
        programs: Vec<Program>,
        ckpt: &Checkpoint,
    ) -> Result<FunctionalCursor, SimError> {
        if ckpt.threads.len() != programs.len() {
            return Err(SimError::FastForward(format!(
                "checkpoint has {} thread(s), workload has {}",
                ckpt.threads.len(),
                programs.len()
            )));
        }
        let mut states = Vec::with_capacity(programs.len());
        for (prog, t) in programs.iter().zip(&ckpt.threads) {
            let mut st = ArchState::new(prog);
            for (idx, &v) in t.regs.iter().enumerate() {
                let idx = u8::try_from(idx).map_err(|_| {
                    SimError::FastForward(format!("register index {idx} out of range"))
                })?;
                st.write_reg(Reg::from_index(idx), v);
            }
            st.set_pc(t.pc);
            st.set_halted(t.halted);
            states.push(st);
        }
        let last_lines = ckpt.threads.iter().map(|t| t.last_fetch_line).collect();
        Ok(FunctionalCursor {
            programs,
            states,
            last_lines,
            mem: ckpt.mem.clone(),
            warmer: Warmer::from_checkpoint(cfg, ckpt)?,
            executed: ckpt.instructions,
        })
    }

    /// Total instructions executed through this cursor (including any the
    /// originating checkpoint already carried).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True once every thread has executed `halt`.
    pub fn all_halted(&self) -> bool {
        self.states.iter().all(ArchState::is_halted)
    }

    /// Advance by up to `instructions` (summed over threads, interleaved
    /// in [`INTERLEAVE_CHUNK`] slices); returns how many actually executed
    /// (less only when every live thread halts).
    ///
    /// # Errors
    ///
    /// [`SimError::FastForward`] wrapping any functional execution fault.
    pub fn advance(&mut self, instructions: u64) -> Result<u64, SimError> {
        let mut remaining = instructions;
        while remaining > 0 && !self.all_halted() {
            for t in 0..self.states.len() {
                if remaining == 0 || self.states[t].is_halted() {
                    continue;
                }
                let chunk = remaining.min(INTERLEAVE_CHUNK);
                let ran = fast_forward(
                    &mut self.states[t],
                    &self.programs[t],
                    &mut self.mem,
                    chunk,
                    &mut self.warmer,
                    &mut self.last_lines[t],
                )
                .map_err(|e| SimError::FastForward(e.to_string()))?;
                remaining -= ran;
                self.executed += ran;
            }
        }
        Ok(instructions - remaining)
    }

    /// Snapshot the cursor into a [`Checkpoint`]. The snapshot shares the
    /// cursor's memory pages; whichever side writes a page first copies it.
    pub fn checkpoint(&self) -> Checkpoint {
        let threads = self
            .states
            .iter()
            .zip(&self.last_lines)
            .map(|(st, &last_fetch_line)| ThreadCheckpoint {
                regs: (0..looseloops_isa::reg::NUM_ARCH_REGS)
                    .map(|i| st.read_reg(Reg::from_index(i)))
                    .collect(),
                pc: st.pc(),
                last_fetch_line,
                halted: st.is_halted(),
            })
            .collect();
        Checkpoint {
            instructions: self.executed,
            threads,
            mem: self.mem.clone(),
            hier: self.warmer.hier.export_warm(),
            predictor: self.warmer.pred.export_state(),
            btb: self.warmer.btb.export_state(),
        }
    }
}

/// Functionally execute `warmup` instructions of `programs` under `cfg`'s
/// warm-relevant configuration and snapshot the result.
///
/// # Errors
///
/// [`SimError::FastForward`] wrapping any functional execution fault.
pub fn capture_checkpoint(
    cfg: &PipelineConfig,
    programs: Vec<Program>,
    warmup: u64,
) -> Result<Checkpoint, SimError> {
    let mut cursor = FunctionalCursor::new(cfg, programs);
    cursor.advance(warmup)?;
    Ok(cursor.checkpoint())
}

/// Install `ckpt` into a freshly constructed machine: architectural
/// registers and PCs, functional memory, and the warm cache/TLB/predictor/
/// BTB state. The machine then simulates as if it had just finished a
/// warm-up run (modulo the functional-warm-up approximation).
///
/// # Errors
///
/// [`SimError::FastForward`] when the machine is not fresh, or the
/// checkpoint's thread count or structure geometry does not match.
pub fn restore_into(m: &mut Machine, ckpt: &Checkpoint) -> Result<(), SimError> {
    if ckpt.threads.len() != m.config().threads {
        return Err(SimError::FastForward(format!(
            "checkpoint has {} thread(s), machine has {}",
            ckpt.threads.len(),
            m.config().threads
        )));
    }
    for (t, th) in ckpt.threads.iter().enumerate() {
        m.restore_thread_state(t, &th.regs, th.pc, th.halted)?;
    }
    m.replace_data_mem(ckpt.mem.clone());
    m.install_warm_hierarchy(&ckpt.hier)?;
    m.install_warm_predictor(&ckpt.predictor)?;
    m.install_warm_btb(&ckpt.btb)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

/// What a [`WarmMemo`] holds for one warm digest.
#[derive(Default)]
enum Slot {
    /// Nothing yet.
    #[default]
    Empty,
    /// Kept until the memo is dropped: there is no store, or the save
    /// failed, so nothing else could answer a later request.
    Resident(Arc<Checkpoint>),
    /// In the store (saved or loaded): answered from memory only while
    /// some job still holds the checkpoint, and loaded again after.
    Stored(Weak<Checkpoint>),
    /// The warm-up failed; later requests get the same error.
    Failed(SimError),
}

/// Where a [`WarmMemo`]'s checkpoints came from. A request the memo
/// answers from memory counts nothing; with a store attached that is only
/// while some job still holds the checkpoint, so `loaded` counts every
/// later request for a stored digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmCounts {
    /// Checkpoints loaded from the store.
    pub loaded: u64,
    /// Checkpoints captured by functional execution, regenerations
    /// included.
    pub captured: u64,
    /// Stored checkpoints that could not be used, by cause; each was
    /// captured again and saved over the old file.
    pub regenerated: StoreMisses,
    /// Captured checkpoints the store could not save.
    pub save_failures: u64,
}

/// In-memory checkpoint cache shared by one engine's workers, keyed by
/// [`warm_digest`]. Each digest has its own lock, so concurrent jobs that
/// share a warm prefix block on one capture instead of racing to repeat
/// it.
///
/// Without a store, or when a save fails, the memo keeps a checkpoint
/// until it is dropped. A checkpoint the store holds stays in memory only
/// while some job holds its `Arc`; the next request loads it from the
/// store, which is far cheaper than capturing it again.
///
/// The memory image after warm-up depends only on the workload and the
/// warm-up length, not on the cache and predictor settings that split
/// digests. Each new checkpoint of a (workload, warm-up) pair shares
/// every page whose bytes equal those of the latest checkpoint of that
/// pair still in memory.
#[derive(Default)]
pub struct WarmMemo {
    slots: Mutex<HashMap<u64, Arc<Mutex<Slot>>>>,
    images: Mutex<HashMap<String, Weak<Checkpoint>>>,
    counts: Mutex<WarmCounts>,
}

impl WarmMemo {
    /// Where this memo's checkpoints came from since it was made or its
    /// counts were last reset.
    pub fn counts(&self) -> WarmCounts {
        *crate::sweep::lock_clean(&self.counts)
    }

    /// Zero the counts; the cached checkpoints stay.
    pub(crate) fn reset_counts(&self) {
        *crate::sweep::lock_clean(&self.counts) = WarmCounts::default();
    }

    fn tally(&self, f: impl FnOnce(&mut WarmCounts)) {
        f(&mut crate::sweep::lock_clean(&self.counts));
    }

    fn slot(&self, digest: u64) -> Arc<Mutex<Slot>> {
        // The map is only ever inserted into under the lock, so a
        // poisoned lock still guards an intact map.
        Arc::clone(
            crate::sweep::lock_clean(&self.slots)
                .entry(digest)
                .or_default(),
        )
    }

    /// Share `ckpt`'s memory pages with the latest checkpoint of
    /// `workload` after `warmup` instructions still in memory, and make
    /// `ckpt` the latest.
    fn adopt(&self, workload: &Workload, warmup: u64, mut ckpt: Checkpoint) -> Arc<Checkpoint> {
        let name = format!("{workload:?}|warmup={warmup}");
        let latest = crate::sweep::lock_clean(&self.images)
            .get(&name)
            .and_then(Weak::upgrade);
        if let Some(latest) = latest {
            ckpt.mem.share_equal_pages(&latest.mem);
        }
        let ckpt = Arc::new(ckpt);
        crate::sweep::lock_clean(&self.images).insert(name, Arc::downgrade(&ckpt));
        ckpt
    }
}

/// The warm checkpoint for `job`: answered from the in-memory memo, then
/// the on-disk store, then captured by functional execution (and saved
/// back to the store, best-effort). A checkpoint new to the memo shares
/// its equal memory pages with the latest in-memory checkpoint of its
/// workload and warm-up length. [`WarmMemo::counts`] records which tier
/// answered and why a stored checkpoint or a save failed.
///
/// # Errors
///
/// [`SimError::FastForward`] wrapping any functional execution fault.
pub fn warm_checkpoint(
    job: &Job,
    store: Option<&CheckpointStore>,
    memo: &WarmMemo,
) -> Result<Arc<Checkpoint>, SimError> {
    let cfg = job.workload.config_for(&job.config);
    let key = warm_key(&cfg, &job.workload, job.budget.warmup);
    let digest = fnv1a64(key.as_bytes());
    let slot = memo.slot(digest);
    // Every update below replaces the slot whole, so a poisoned lock
    // still guards a valid slot.
    let mut slot = crate::sweep::lock_clean(&slot);
    match &*slot {
        Slot::Resident(ckpt) => return Ok(Arc::clone(ckpt)),
        Slot::Stored(held) => {
            if let Some(ckpt) = held.upgrade() {
                return Ok(ckpt);
            }
        }
        Slot::Failed(e) => return Err(e.clone()),
        Slot::Empty => {}
    }
    let (workload, warmup) = (&job.workload, job.budget.warmup);
    if let Some(s) = store {
        match s.load(digest, &key) {
            Ok(Some(ckpt)) => {
                memo.tally(|c| c.loaded += 1);
                let ckpt = memo.adopt(workload, warmup, ckpt);
                *slot = Slot::Stored(Arc::downgrade(&ckpt));
                return Ok(ckpt);
            }
            Ok(None) => {}
            Err(e) => memo.tally(|c| c.regenerated.count(&e)),
        }
    }
    let ckpt = match capture_checkpoint(&cfg, workload.programs(), warmup) {
        Ok(ckpt) => ckpt,
        Err(e) => {
            *slot = Slot::Failed(e.clone());
            return Err(e);
        }
    };
    memo.tally(|c| c.captured += 1);
    // Shared before saving, so the capture's duplicate pages are freed
    // before the store buffers the encoding.
    let ckpt = memo.adopt(workload, warmup, ckpt);
    let saved = store.is_some_and(|s| {
        let saved = s.save(digest, &key, &ckpt).is_ok();
        if !saved {
            memo.tally(|c| c.save_failures += 1);
        }
        saved
    });
    *slot = if saved {
        Slot::Stored(Arc::downgrade(&ckpt))
    } else {
        Slot::Resident(Arc::clone(&ckpt))
    };
    Ok(ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_workload::Benchmark;

    /// The key the tests store checkpoints under.
    const KEY: &str = "test warm key";

    fn ckpt_for(bench: Benchmark, warmup: u64) -> Checkpoint {
        let cfg = PipelineConfig::base();
        capture_checkpoint(&cfg, vec![bench.program()], warmup).expect("capture")
    }

    /// A small checkpoint with every list non-empty: two threads, one
    /// page, two sets per cache, every predictor table, two BTB slots.
    fn tiny_checkpoint() -> Checkpoint {
        let mut mem = FlatMemory::new();
        mem.install_page(3, &[0xa5; 4096]);
        let cache = |tag| CacheWarmState::new(2, vec![2, 1], vec![tag, tag + 1, tag]);
        Checkpoint {
            instructions: 77,
            threads: (0..2)
                .map(|t| ThreadCheckpoint {
                    regs: vec![t, 5, 9],
                    pc: 40 + t,
                    last_fetch_line: 8,
                    halted: t == 1,
                })
                .collect(),
            mem,
            hier: HierarchyWarmState {
                l1i: cache(3).unwrap(),
                l1d: cache(4).unwrap(),
                l2: cache(5).unwrap(),
                dtlb: CacheWarmState::new(4, vec![1], vec![7]).unwrap(),
            },
            predictor: PredictorWarmState::new(0b1011, vec![0, 3, 2], vec![0x3ff, 1], vec![7, 0])
                .unwrap(),
            btb: BtbWarmState::new(8, vec![(4, 44, 440), (7, 15, 150)]).unwrap(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = ckpt_for(Benchmark::Compress, 5_000);
        assert_eq!(ckpt.instructions, 5_000);
        let bytes = ckpt.encode(KEY);
        let (key, back) = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(key, KEY);
        // FlatMemory has no PartialEq; byte-level equality of the
        // re-encoding covers every field including memory pages.
        assert_eq!(bytes, back.encode(KEY));
        assert_eq!(ckpt.threads, back.threads);
        assert_eq!(ckpt.hier, back.hier);
        assert_eq!(ckpt.predictor, back.predictor);
        assert_eq!(ckpt.btb, back.btb);
    }

    #[test]
    fn corrupt_encodings_are_rejected_not_panicked() {
        let bytes = ckpt_for(Benchmark::Go, 1_000).encode(KEY);
        assert_eq!(
            Checkpoint::decode(b"NOPE").unwrap_err(),
            StoreError::BadMagic
        );
        // Truncation must yield an error, never a panic or a silently
        // partial checkpoint that still decodes as complete.
        for cut in [3, 7, 9, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A stale or future version is refused rather than misread.
        for version in [0, CHECKPOINT_VERSION + 1] {
            let mut other = bytes.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&other).unwrap_err(),
                StoreError::BadVersion(version)
            );
        }
        // A flag byte other than 0 or 1 is corrupt, not `true`.
        let tiny = tiny_checkpoint().encode(KEY);
        let mut flag = tiny.clone();
        let halted = 16 + KEY.len() + 8 + 8 + 8 + 3 * 8 + 8 + 8;
        assert_eq!(flag[halted], 0, "thread 0 runs");
        flag[halted] = 2;
        assert!(matches!(
            Checkpoint::decode(&flag),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// Each structurally impossible warm state decodes to `Corrupt`: a
    /// set fuller than its ways, a tag twice in one set, a counter out of
    /// its range, a BTB slot past the table.
    #[test]
    fn impossible_warm_state_is_corrupt() {
        let bytes = tiny_checkpoint().encode(KEY);
        let fields = crate::store::count_fields(|| {
            Checkpoint::decode(&bytes).expect("valid");
        });
        let offsets = |width| -> Vec<usize> {
            fields
                .iter()
                .filter(|f| f.1 == width)
                .map(|f| f.0)
                .collect()
        };
        // The wide counts: the key, the threads, two threads' registers,
        // the pages, then the sets and the tags of L1I, L1D, L2 and the
        // TLB, the predictor's three tables and the BTB entries. The
        // short counts: two sets per cache and the TLB's one.
        let (wide, sets) = (offsets(8), offsets(2));
        assert_eq!((wide.len(), sets.len()), (17, 7));
        let (l1d_tags, l2_sets) = (wide[8] + 8, &sets[4..6]);
        let (counters, local_counters, btb) = (wide[13] + 8, wide[15] + 8, wide[16] + 8);
        let cases: [(&str, usize, &[u8]); 8] = [
            ("3 lines in a 2-way set", l2_sets[0], &3u16.to_le_bytes()),
            ("1 + 2 lines for 3 tags", l2_sets[1], &2u16.to_le_bytes()),
            ("tag 4 twice in a set", l1d_tags + 8, &4u64.to_le_bytes()),
            ("a 2-bit counter of 4", counters, &[4]),
            ("a pattern counter of 8", local_counters, &[8]),
            ("slot 8 of 8", btb, &8u32.to_le_bytes()),
            ("slot 4 twice", btb + 20, &4u32.to_le_bytes()),
            ("the empty tag", btb + 4, &u64::MAX.to_le_bytes()),
        ];
        for (case, at, patch) in cases {
            let mut m = bytes.clone();
            m[at..at + patch.len()].copy_from_slice(patch);
            assert_ne!(m, bytes, "{case}");
            let e = Checkpoint::decode(&m).map(drop).unwrap_err();
            assert!(matches!(e, StoreError::Corrupt(_)), "{case}: {e:?}");
        }
    }

    #[test]
    fn every_prefix_and_a_trailing_byte_are_typed_errors() {
        let bytes = tiny_checkpoint().encode(KEY);
        crate::store::assert_exact_length(&bytes, |b| Checkpoint::decode(b).map(drop));
    }

    #[test]
    fn mutated_encodings_decode_or_fail_typed_never_panic() {
        let bytes = ckpt_for(Benchmark::Go, 1_000).encode(KEY);
        let counts = crate::store::count_fields(|| {
            Checkpoint::decode(&bytes).expect("valid");
        });
        // The key length; threads and one thread's registers; pages;
        // each cache's and the TLB's sets and tags; the predictor's
        // three tables; the BTB entries.
        let (wide, sets): (Vec<_>, Vec<_>) = counts.iter().partition(|&&(_, width)| width == 8);
        assert_eq!(wide.len(), 16);
        // One line count per set of the two L1s, the L2 and the TLB.
        assert_eq!(sets.len(), 512 + 512 + 2048 + 1);
        // Every set that holds a line, and one in 64 of the others.
        let sets = sets
            .iter()
            .enumerate()
            .filter(|&(i, &(at, _))| bytes[at..at + 2] != [0, 0] || i % 64 == 0);
        let fields: Vec<_> = wide.into_iter().chain(sets.map(|(_, &f)| f)).collect();
        for (case, m) in crate::store::mutants(&bytes, &fields, 0x11c4, 300).enumerate() {
            // Any `Result` is acceptable; a panic fails the test.
            let decoded =
                std::panic::catch_unwind(|| Checkpoint::decode(&m).map(|(key, c)| c.encode(&key)));
            assert!(decoded.is_ok(), "case {case} panicked");
        }
    }

    #[test]
    fn store_round_trips_and_misses_cleanly() {
        let dir = std::env::temp_dir().join(format!("llck-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).expect("open");
        let ckpt = ckpt_for(Benchmark::Swim, 2_000);
        assert!(store.load(42, KEY).expect("miss is not an error").is_none());
        store.save(42, KEY, &ckpt).expect("save");
        let back = store.load(42, KEY).expect("load").expect("present");
        assert_eq!(back.encode(KEY), ckpt.encode(KEY));
        // A checkpoint stored for another key is a miss.
        assert!(store.load(42, "another key").expect("no error").is_none());
        // A corrupt file surfaces as an error the caller regenerates from.
        std::fs::write(store.path(43), b"LLCKgarbage").unwrap();
        assert!(store.load(43, KEY).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opening_a_store_deletes_checkpoints_of_older_versions() {
        let dir = std::env::temp_dir().join(format!("llck-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let header = |version: u32| {
            let mut h = MAGIC.to_vec();
            h.extend_from_slice(&version.to_le_bytes());
            h.extend_from_slice(b"rest of an older layout");
            h
        };
        let stale = dir.join("00000000000000aa.llck");
        std::fs::write(&stale, header(CHECKPOINT_VERSION - 1)).unwrap();
        let newer = dir.join("00000000000000bb.llck");
        std::fs::write(&newer, header(CHECKPOINT_VERSION + 1)).unwrap();
        // Old headers under other extensions, and `.llck` files that are
        // not checkpoints.
        let foreign = [
            ("00000000000000cc.llrs", &header(1)[..]),
            ("00000000000000dd.txt", &header(1)[..]),
            ("short.llck", b"LLCK"),
            ("other.llck", b"LLRS\x01\0\0\0"),
        ];
        for (name, bytes) in foreign {
            std::fs::write(dir.join(name), bytes).unwrap();
        }

        let store = CheckpointStore::open(&dir).expect("open");
        assert_eq!(store.stale_removed(), 1);
        assert!(!stale.exists());
        let job = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            crate::simulator::RunBudget {
                warmup: 1_000,
                measure: 1_000,
                max_cycles: 1_000_000,
            },
        );
        warm_checkpoint(&job, Some(&store), &WarmMemo::default()).expect("capture");
        // The checkpoints left: the capture and the newer one.
        let mut versions: Vec<u32> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "llck"))
            .map(|p| std::fs::read(p).unwrap())
            .filter(|bytes| bytes.len() >= 8 && bytes[..4] == MAGIC)
            .map(|bytes| u32::from_le_bytes(bytes[4..8].try_into().unwrap()))
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, [CHECKPOINT_VERSION, CHECKPOINT_VERSION + 1]);
        for (name, _) in foreign {
            assert!(dir.join(name).exists(), "{name} was left alone");
        }
        let again = CheckpointStore::open(&dir).expect("reopen");
        assert_eq!(again.stale_removed(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_saves_on_one_digest_never_publish_a_torn_checkpoint() {
        // Regression: the temp path used to be digest + pid only, so two
        // same-process workers saving the same digest shared one temp file
        // and could rename a torn mix into place.
        let dir = std::env::temp_dir().join(format!("llck-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        // Distinguishable checkpoints of identical provenance shape: vary
        // the warm-up so each encodes to different bytes.
        let checkpoints: Vec<Checkpoint> = (1..=4)
            .map(|i| ckpt_for(Benchmark::Compress, i * 500))
            .collect();
        let encodings: Vec<Vec<u8>> = checkpoints.iter().map(|c| c.encode(KEY)).collect();
        std::thread::scope(|s| {
            for ckpt in &checkpoints {
                s.spawn(|| {
                    for _ in 0..25 {
                        store.save(7, KEY, ckpt).expect("save");
                        // Every concurrent load sees a complete entry.
                        let seen = store.load(7, KEY).expect("never torn");
                        let seen = seen.expect("present").encode(KEY);
                        assert!(encodings.contains(&seen), "torn checkpoint");
                    }
                });
            }
        });
        let last = store.load(7, KEY).expect("load").expect("present");
        assert!(encodings.contains(&last.encode(KEY)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 2,000-instruction warm-up of compress on the base machine.
    fn small_job() -> Job {
        let budget = crate::simulator::RunBudget {
            warmup: 2_000,
            measure: 1_000,
            max_cycles: 1_000_000,
        };
        Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            budget,
        )
    }

    #[test]
    fn warm_memo_counts_which_tier_answered_and_why_a_file_was_unusable() {
        let job = small_job();
        let dir = std::env::temp_dir().join(format!("llck-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        let warm = |memo: &WarmMemo| {
            warm_checkpoint(&job, Some(&store), memo).expect("warm");
            memo.counts()
        };
        let captured = WarmCounts {
            captured: 1,
            ..WarmCounts::default()
        };
        let memo = WarmMemo::default();
        assert_eq!(warm(&memo), captured, "an empty store captures");
        let loaded = WarmCounts {
            loaded: 1,
            ..WarmCounts::default()
        };
        assert_eq!(
            warm(&memo),
            WarmCounts {
                loaded: 1,
                ..captured
            },
            "no job holds the capture any more, so the store answers"
        );
        assert_eq!(warm(&WarmMemo::default()), loaded);

        let key = warm_key(&job.config, &job.workload, 2_000);
        let file = store.path(fnv1a64(key.as_bytes()));
        let stored = std::fs::read(&file).unwrap();
        for version in [0, CHECKPOINT_VERSION + 1] {
            let mut other = std::fs::read(&file).unwrap();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&file, &other).unwrap();
            let counts = warm(&WarmMemo::default());
            assert_eq!((counts.captured, counts.regenerated.version_skew), (1, 1));
        }
        // Cut after the magic, and after the instruction count.
        for cut in [4, 16 + key.len() + 8] {
            std::fs::write(&file, &stored[..cut]).unwrap();
            let counts = warm(&WarmMemo::default());
            assert_eq!((counts.captured, counts.regenerated.corrupt), (1, 1));
            assert_eq!(std::fs::read(&file).unwrap(), stored, "captured again");
        }
        assert_eq!(warm(&WarmMemo::default()), loaded, "the file was rewritten");

        // Another job's checkpoint under this job's name is a plain miss:
        // captured again, never restored.
        let other = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Swim),
            job.budget,
        );
        warm_checkpoint(&other, Some(&store), &WarmMemo::default()).expect("warm");
        let other_file = store.path(warm_digest(&other.config, &other.workload, 2_000));
        std::fs::copy(other_file, &file).unwrap();
        let fresh = WarmMemo::default();
        let ckpt = warm_checkpoint(&job, Some(&store), &fresh).expect("warm");
        assert_eq!(fresh.counts(), captured);
        assert_eq!(ckpt.encode(&key), stored);
        memo.reset_counts();
        assert_eq!(memo.counts(), WarmCounts::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_a_store_the_memo_holds_a_checkpoint_only_while_a_job_does() {
        let job = small_job();
        let key = warm_key(&job.config, &job.workload, job.budget.warmup);
        let dir = std::env::temp_dir().join(format!("llck-held-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        let memo = WarmMemo::default();
        let captured = warm_checkpoint(&job, Some(&store), &memo).expect("capture");
        let again = warm_checkpoint(&job, Some(&store), &memo).expect("memo hit");
        assert!(
            Arc::ptr_eq(&captured, &again),
            "held, so answered from memory"
        );
        let once = WarmCounts {
            captured: 1,
            ..WarmCounts::default()
        };
        assert_eq!(memo.counts(), once);

        let bytes = captured.encode(&key);
        drop((captured, again));
        let loaded = warm_checkpoint(&job, Some(&store), &memo).expect("load");
        assert_eq!(memo.counts(), WarmCounts { loaded: 1, ..once });
        assert_eq!(loaded.encode(&key), bytes, "the load is the capture");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_a_store_or_after_a_failed_save_the_memo_keeps_the_checkpoint() {
        let job = small_job();
        let memo = WarmMemo::default();
        let first = Arc::downgrade(&warm_checkpoint(&job, None, &memo).expect("capture"));
        let again = warm_checkpoint(&job, None, &memo).expect("memo hit");
        assert!(first.upgrade().is_some_and(|f| Arc::ptr_eq(&f, &again)));
        let once = WarmCounts {
            captured: 1,
            ..WarmCounts::default()
        };
        assert_eq!(memo.counts(), once);

        // A store whose directory is gone fails every save, and every load
        // misses.
        let dir = std::env::temp_dir().join(format!("llck-unsaved-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        std::fs::remove_dir_all(&dir).expect("remove the store's directory");
        let memo = WarmMemo::default();
        let first = Arc::downgrade(&warm_checkpoint(&job, Some(&store), &memo).expect("capture"));
        let again = warm_checkpoint(&job, Some(&store), &memo).expect("memo hit");
        assert!(first.upgrade().is_some_and(|f| Arc::ptr_eq(&f, &again)));
        assert_eq!(
            memo.counts(),
            WarmCounts {
                save_failures: 1,
                ..once
            }
        );
    }

    #[test]
    fn two_workers_on_one_digest_capture_once() {
        let job = small_job();
        let dir = std::env::temp_dir().join(format!("llck-workers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        let memo = WarmMemo::default();
        let (start, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let got: Vec<Arc<Checkpoint>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let ckpt = warm_checkpoint(&job, Some(&store), &memo).expect("warm");
                        // Both hold their checkpoint until both have one.
                        done.wait();
                        ckpt
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        assert!(Arc::ptr_eq(&got[0], &got[1]));
        assert_eq!(
            memo.counts(),
            WarmCounts {
                captured: 1,
                ..WarmCounts::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_keys_differing_only_in_predictor_share_every_page() {
        use crate::simulator::RunBudget;
        use looseloops_branch::PredictorKind;
        let job = |predictor| {
            let mut cfg = PipelineConfig::base();
            cfg.predictor = predictor;
            let budget = RunBudget {
                warmup: 20_000,
                measure: 1_000,
                max_cycles: 1_000_000,
            };
            Job::new(cfg, Workload::Single(Benchmark::Hydro2d), budget)
        };
        let (gshare, bimodal) = (job(PredictorKind::Gshare), job(PredictorKind::Bimodal));
        let dir = std::env::temp_dir().join(format!("llck-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open");
        // First from capture, then from the store a fresh memo loads.
        for memo in [WarmMemo::default(), WarmMemo::default()] {
            let a = warm_checkpoint(&gshare, Some(&store), &memo).expect("gshare");
            let b = warm_checkpoint(&bimodal, Some(&store), &memo).expect("bimodal");
            assert_ne!(a.predictor, b.predictor, "distinct warm keys");
            assert!(a.mem.pages_touched() > 16, "the image spans many pages");
            assert_eq!(b.mem.pages_touched(), a.mem.pages_touched());
            assert_eq!(b.mem.pages_shared_with(&a.mem), a.mem.pages_touched());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_digest_ignores_pipeline_depth_but_not_warm_geometry() {
        let w = Workload::Single(Benchmark::Compress);
        let a = warm_digest(&PipelineConfig::base_with_latencies(3, 3), &w, 10_000);
        let b = warm_digest(&PipelineConfig::base_with_latencies(9, 9), &w, 10_000);
        assert_eq!(a, b, "depth sweeps share one checkpoint");
        let dra = warm_digest(&PipelineConfig::dra_for_rf(5), &w, 10_000);
        assert_eq!(a, dra, "register scheme does not affect warm state");
        let mut small_btb = PipelineConfig::base();
        small_btb.btb_entries = 64;
        assert_ne!(a, warm_digest(&small_btb, &w, 10_000));
        assert_ne!(a, warm_digest(&PipelineConfig::base(), &w, 20_000));
        assert_ne!(
            a,
            warm_digest(
                &PipelineConfig::base(),
                &Workload::Single(Benchmark::Go),
                10_000
            )
        );
    }

    #[test]
    fn restore_resumes_exactly_where_functional_execution_stopped() {
        // Functional FF for N instructions, restore into a machine, run:
        // the machine's first retired instruction must be the functional
        // successor (checked via the machine's own oracle verification).
        let cfg = PipelineConfig::base();
        let ckpt = ckpt_for(Benchmark::M88ksim, 3_000);
        let mut m = Machine::new(cfg.smt(1), vec![Benchmark::M88ksim.program()]).expect("machine");
        restore_into(&mut m, &ckpt).expect("restore");
        m.enable_verification();
        let stats = m.run(5_000, 2_000_000).expect("run after restore");
        assert!(stats.total_retired() >= 5_000);
    }

    #[test]
    fn cursor_resumes_from_checkpoint_equivalently() {
        // One continuous 8k-instruction cursor == 3k cursor -> checkpoint
        // -> resumed cursor for 5k more. Warm state and arch state agree.
        let cfg = PipelineConfig::base();
        let prog = vec![Benchmark::Compress.program()];
        let mut whole = FunctionalCursor::new(&cfg, prog.clone());
        whole.advance(8_000).expect("whole");
        let ckpt = capture_checkpoint(&cfg, prog.clone(), 3_000).expect("prefix");
        let mut resumed = FunctionalCursor::from_checkpoint(&cfg, prog, &ckpt).expect("resume");
        resumed.advance(5_000).expect("tail");
        assert_eq!(resumed.executed(), 8_000);
        assert_eq!(
            whole.checkpoint().encode(KEY),
            resumed.checkpoint().encode(KEY)
        );
    }
}
