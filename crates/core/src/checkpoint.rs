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
use crate::store::StoreMisses;
use crate::sweep::{fnv1a64, Job};
use looseloops_branch::{build_predictor, Btb, DirectionPredictor};
use looseloops_isa::{fast_forward, ArchState, FlatMemory, Program, Reg, WarmHooks};
use looseloops_mem::{AccessKind, HierarchyWarmState, MemHierarchy};
use looseloops_pipeline::{Machine, PipelineConfig, SimError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Current encoding version. Bumped when a section's payload layout
/// changes incompatibly; unknown *sections* are skipped without a bump.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File magic: "LLCK" (Loose Loops ChecKpoint).
const MAGIC: [u8; 4] = *b"LLCK";

const SEC_META: [u8; 4] = *b"META";
const SEC_THRD: [u8; 4] = *b"THRD";
const SEC_MEMP: [u8; 4] = *b"MEMP";
const SEC_HIER: [u8; 4] = *b"HIER";
const SEC_PRED: [u8; 4] = *b"PRED";
const SEC_BTBS: [u8; 4] = *b"BTBS";

/// Why a checkpoint could not be loaded or stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// The file does not start with the `LLCK` magic.
    BadMagic,
    /// The file's format version is not one this binary reads.
    BadVersion(u32),
    /// The encoding ended mid-field (context names the field).
    Truncated(&'static str),
    /// A decoded value is structurally impossible.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CheckpointError::Truncated(what) => write!(f, "checkpoint truncated in {what}"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

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
    /// Cache and TLB residency (tags + LRU order, no timing).
    pub hier: HierarchyWarmState,
    /// Direction-predictor tables, in the predictor's own export layout.
    pub predictor: Vec<u64>,
    /// BTB entries, slot-ordered (`u64::MAX` tag marks an empty slot).
    pub btb: Vec<(u64, u64)>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one `tag` + length-prefixed `payload` section.
pub(crate) fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    push_section_with(out, tag, |out| out.extend_from_slice(payload));
}

/// Append one `tag` + length-prefixed section whose payload `write`
/// appends in place.
fn push_section_with(out: &mut Vec<u8>, tag: [u8; 4], write: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&tag);
    let at = out.len();
    push_u64(out, 0);
    write(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// One cache's exported warm state: the LRU stamp counter plus
/// `(tag, valid, last_use)` per line, in slot order.
type CacheWarmState = (u64, Vec<(u64, bool, u64)>);

fn encode_cache(out: &mut Vec<u8>, state: &CacheWarmState) {
    push_u64(out, state.0);
    push_u64(out, state.1.len() as u64);
    for &(tag, valid, last_use) in &state.1 {
        push_u64(out, tag);
        out.push(u8::from(valid));
        push_u64(out, last_use);
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A decoded element count, sanity-bounded by what the remaining bytes
    /// could possibly hold (`min_elem_bytes` each) so a corrupt length
    /// cannot drive an absurd allocation.
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        let n = self.u64(what)?;
        let fits = (self.buf.len() - self.pos) / min_elem_bytes.max(1);
        if n as usize > fits {
            return Err(CheckpointError::Corrupt(format!(
                "{what}: count {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn decode_cache(r: &mut Reader<'_>) -> Result<CacheWarmState, CheckpointError> {
    let stamp = r.u64("cache stamp")?;
    let n = r.count(17, "cache lines")?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u64("cache tag")?;
        let valid = r.u8("cache valid")? != 0;
        let last_use = r.u64("cache last_use")?;
        lines.push((tag, valid, last_use));
    }
    Ok((stamp, lines))
}

impl Checkpoint {
    /// Serialize to the on-disk format: magic, version, then
    /// tag-length-payload sections. Readers skip sections they do not
    /// recognize, so new sections can be added without a version bump.
    pub fn encode(&self) -> Vec<u8> {
        // Sized up front and written in place: a checkpoint can hold
        // megabytes of pages, and per-section buffers grown by doubling
        // would hold several copies of them while the store writes one.
        let cache_len = |c: &CacheWarmState| 16 + 17 * c.1.len();
        let threads: usize = self.threads.iter().map(|t| 25 + 8 * t.regs.len()).sum();
        let pages = self.mem.pages_touched() * (8 + 4096);
        let hier = cache_len(&self.hier.l1i)
            + cache_len(&self.hier.l1d)
            + cache_len(&self.hier.l2)
            + 16
            + 16 * self.hier.dtlb.1.len();
        let tables = 8 * self.predictor.len() + 16 * self.btb.len();
        // Magic and version, six section headers, META, four counts
        // (threads, pages, predictor words, BTB entries), then the rest.
        let len = 8 + 6 * 12 + 8 + 4 * 8 + threads + pages + hier + tables;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&MAGIC);
        push_u32(&mut out, CHECKPOINT_VERSION);

        push_section_with(&mut out, SEC_META, |meta| {
            push_u64(meta, self.instructions);
        });

        push_section_with(&mut out, SEC_THRD, |thrd| {
            push_u64(thrd, self.threads.len() as u64);
            for t in &self.threads {
                push_u64(thrd, t.regs.len() as u64);
                for &r in &t.regs {
                    push_u64(thrd, r);
                }
                push_u64(thrd, t.pc);
                push_u64(thrd, t.last_fetch_line);
                thrd.push(u8::from(t.halted));
            }
        });

        push_section_with(&mut out, SEC_MEMP, |memp| {
            // FlatMemory's page map has no iteration-order guarantee; sort
            // so the encoding (and thus every stored checkpoint file) is
            // byte-deterministic for identical state.
            let mut pages: Vec<(u64, &[u8; 4096])> = self.mem.pages().collect();
            pages.sort_unstable_by_key(|&(idx, _)| idx);
            push_u64(memp, pages.len() as u64);
            for (idx, bytes) in pages {
                push_u64(memp, idx);
                memp.extend_from_slice(&bytes[..]);
            }
        });

        push_section_with(&mut out, SEC_HIER, |hier| {
            encode_cache(hier, &self.hier.l1i);
            encode_cache(hier, &self.hier.l1d);
            encode_cache(hier, &self.hier.l2);
            push_u64(hier, self.hier.dtlb.0);
            push_u64(hier, self.hier.dtlb.1.len() as u64);
            for &(page, stamp) in &self.hier.dtlb.1 {
                push_u64(hier, page);
                push_u64(hier, stamp);
            }
        });

        push_section_with(&mut out, SEC_PRED, |pred| {
            push_u64(pred, self.predictor.len() as u64);
            for &w in &self.predictor {
                push_u64(pred, w);
            }
        });

        push_section_with(&mut out, SEC_BTBS, |btbs| {
            push_u64(btbs, self.btb.len() as u64);
            for &(tag, target) in &self.btb {
                push_u64(btbs, tag);
                push_u64(btbs, target);
            }
        });

        debug_assert_eq!(out.len(), len, "encoded length estimate");
        out
    }

    /// Parse the on-disk format.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on bad magic, any version but
    /// [`CHECKPOINT_VERSION`], truncation, or structurally impossible values.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.take(4, "magic")? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }

        let mut ckpt = Checkpoint {
            instructions: 0,
            threads: Vec::new(),
            mem: FlatMemory::new(),
            hier: HierarchyWarmState::default(),
            predictor: Vec::new(),
            btb: Vec::new(),
        };

        while !r.done() {
            let tag: [u8; 4] = r.take(4, "section tag")?.try_into().unwrap();
            let len = r.u64("section length")? as usize;
            let payload = r.take(len, "section payload")?;
            let mut s = Reader::new(payload);
            match tag {
                SEC_META => {
                    ckpt.instructions = s.u64("instructions")?;
                }
                SEC_THRD => {
                    let threads = s.count(25, "thread count")?;
                    for _ in 0..threads {
                        let nregs = s.count(8, "register count")?;
                        let mut regs = Vec::with_capacity(nregs);
                        for _ in 0..nregs {
                            regs.push(s.u64("register")?);
                        }
                        let pc = s.u64("pc")?;
                        let last_fetch_line = s.u64("last fetch line")?;
                        let halted = s.u8("halted")? != 0;
                        ckpt.threads.push(ThreadCheckpoint {
                            regs,
                            pc,
                            last_fetch_line,
                            halted,
                        });
                    }
                }
                SEC_MEMP => {
                    let pages = s.count(8 + 4096, "page count")?;
                    for _ in 0..pages {
                        let idx = s.u64("page index")?;
                        let bytes: &[u8; 4096] = s.take(4096, "page bytes")?.try_into().unwrap();
                        ckpt.mem.install_page(idx, bytes);
                    }
                }
                SEC_HIER => {
                    ckpt.hier.l1i = decode_cache(&mut s)?;
                    ckpt.hier.l1d = decode_cache(&mut s)?;
                    ckpt.hier.l2 = decode_cache(&mut s)?;
                    ckpt.hier.dtlb.0 = s.u64("dtlb stamp")?;
                    let n = s.count(16, "dtlb entries")?;
                    for _ in 0..n {
                        let page = s.u64("dtlb page")?;
                        let stamp = s.u64("dtlb entry stamp")?;
                        ckpt.hier.dtlb.1.push((page, stamp));
                    }
                }
                SEC_PRED => {
                    let n = s.count(8, "predictor words")?;
                    for _ in 0..n {
                        ckpt.predictor.push(s.u64("predictor word")?);
                    }
                }
                SEC_BTBS => {
                    let n = s.count(16, "btb entries")?;
                    for _ in 0..n {
                        let tag = s.u64("btb tag")?;
                        let target = s.u64("btb target")?;
                        ckpt.btb.push((tag, target));
                    }
                }
                // Forward compatibility: a section this binary does not
                // know is skipped, not fatal.
                _ => {}
            }
        }
        Ok(ckpt)
    }
}

// ---------------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------------

/// A directory of checkpoints keyed by [`warm_digest`]. Saves are
/// write-to-temporary-then-rename, so concurrent processes sharing a
/// store never observe a half-written file.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir })
    }

    /// The file a digest maps to.
    pub fn path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.llck"))
    }

    /// Load the checkpoint for `digest`; `Ok(None)` when none is stored.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on an unreadable or undecodable file (callers
    /// treat that as a miss and regenerate).
    pub fn load(&self, digest: u64) -> Result<Option<Checkpoint>, CheckpointError> {
        let path = self.path(digest);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(format!("read {}: {e}", path.display()))),
        };
        Checkpoint::decode(&bytes).map(Some)
    }

    /// Store `ckpt` under `digest` (atomic replace).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the temporary cannot be written or
    /// renamed into place.
    pub fn save(&self, digest: u64, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let path = self.path(digest);
        crate::store::atomic_write(&path, &ckpt.encode())
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))
    }
}

/// Stable digest of everything the warm state after functional warm-up
/// depends on: the encoding version, the memory-hierarchy / predictor /
/// BTB configuration, the workload, and the warm-up length. Pipeline
/// depths, queue sizes and register schemes deliberately do **not**
/// participate — functional warm-up never consults them, which is exactly
/// why one checkpoint serves every machine of a depth sweep.
pub fn warm_digest(cfg: &PipelineConfig, workload: &Workload, warmup: u64) -> u64 {
    let key = format!(
        "llck-v{CHECKPOINT_VERSION}|mem={:?}|pred={:?}|btb={}|{workload:?}|warmup={warmup}",
        cfg.mem, cfg.predictor, cfg.btb_entries
    );
    fnv1a64(key.as_bytes())
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

type WarmCell = Arc<OnceLock<Result<Arc<Checkpoint>, SimError>>>;

/// Where a [`WarmMemo`]'s checkpoints came from, counted once per warm
/// digest (later requests for a digest are memo hits and count nothing).
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
/// [`warm_digest`]. Each digest gets a `OnceLock`, so concurrent jobs that
/// share a warm prefix block on one capture instead of racing to repeat
/// it.
///
/// The memory image after warm-up depends only on the workload and the
/// warm-up length, not on the cache and predictor settings that split
/// digests. The memo keeps the first image it sees for each (workload,
/// warm-up) pair, and every later checkpoint of that pair shares each
/// page whose bytes equal that image's.
#[derive(Default)]
pub struct WarmMemo {
    cells: Mutex<HashMap<u64, WarmCell>>,
    images: Mutex<HashMap<String, FlatMemory>>,
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

    fn cell(&self, digest: u64) -> WarmCell {
        // The map is only ever inserted into under the lock, so a
        // poisoned lock still guards an intact map.
        Arc::clone(
            crate::sweep::lock_clean(&self.cells)
                .entry(digest)
                .or_default(),
        )
    }

    /// Share `mem`'s pages with the first image recorded for `workload`
    /// after `warmup` instructions, or record `mem` as that image.
    fn share_image(&self, workload: &Workload, warmup: u64, mem: &mut FlatMemory) {
        let first = {
            let mut images = crate::sweep::lock_clean(&self.images);
            match images.entry(format!("{workload:?}|warmup={warmup}")) {
                Entry::Occupied(e) => e.get().clone(),
                Entry::Vacant(e) => {
                    e.insert(mem.clone());
                    return;
                }
            }
        };
        mem.share_equal_pages(&first);
    }
}

/// The warm checkpoint for `job`: answered from the in-memory memo, then
/// the on-disk store, then captured by functional execution (and saved
/// back to the store, best-effort). A checkpoint new to the memo shares
/// its equal memory pages with the first image of its workload and
/// warm-up length. [`WarmMemo::counts`] records which tier answered and
/// why a stored checkpoint or a save failed.
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
    let digest = warm_digest(&cfg, &job.workload, job.budget.warmup);
    let cell = memo.cell(digest);
    cell.get_or_init(|| {
        if let Some(s) = store {
            match s.load(digest) {
                Ok(Some(mut ckpt)) => {
                    memo.share_image(&job.workload, job.budget.warmup, &mut ckpt.mem);
                    memo.tally(|c| c.loaded += 1);
                    return Ok(Arc::new(ckpt));
                }
                Ok(None) => {}
                Err(e) => memo.tally(|c| c.regenerated.count(&e)),
            }
        }
        let mut ckpt = capture_checkpoint(&cfg, job.workload.programs(), job.budget.warmup)?;
        memo.tally(|c| c.captured += 1);
        // Shared before saving, so the capture's duplicate pages are freed
        // before the store buffers the encoding.
        memo.share_image(&job.workload, job.budget.warmup, &mut ckpt.mem);
        if let Some(s) = store {
            if s.save(digest, &ckpt).is_err() {
                memo.tally(|c| c.save_failures += 1);
            }
        }
        Ok(Arc::new(ckpt))
    })
    .clone()
}

/// Seeded corruptions of an `LLCK` or `LLRS` encoding, for decoder
/// robustness tests. Even cases flip one to four bits anywhere; odd cases
/// overwrite a section length, or the first word of a section payload
/// (a count in most sections), with a boundary or random value.
#[cfg(test)]
pub(crate) fn mutants(bytes: &[u8], seed: u64, cases: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut fields = Vec::new();
    let mut pos = 8; // magic + version
    while pos + 12 <= bytes.len() {
        fields.push(pos + 4);
        let len = word(bytes, pos + 4) as usize;
        if len >= 8 {
            fields.push(pos + 12);
        }
        pos += 12 + len;
    }
    let mut rng = looseloops_rng::Rng::seed_from_u64(seed);
    (0..cases).map(move |case| {
        let mut m = bytes.to_vec();
        if case % 2 == 0 {
            for _ in 0..=rng.bounded(3) {
                let bit = rng.bounded(m.len() as u64 * 8);
                m[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        } else {
            let at = *rng.choose(&fields).expect("encoding has sections");
            let old = word(&m, at);
            let edges = [
                0,
                1,
                old.wrapping_sub(1),
                old.wrapping_add(1),
                old.wrapping_mul(2),
                u64::from(u32::MAX),
                u64::MAX - 7,
                u64::MAX,
                rng.next_u64(),
            ];
            m[at..at + 8].copy_from_slice(&rng.choose(&edges).unwrap().to_le_bytes());
        }
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_workload::Benchmark;

    fn ckpt_for(bench: Benchmark, warmup: u64) -> Checkpoint {
        let cfg = PipelineConfig::base();
        capture_checkpoint(&cfg, vec![bench.program()], warmup).expect("capture")
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = ckpt_for(Benchmark::Compress, 5_000);
        assert_eq!(ckpt.instructions, 5_000);
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(&bytes).expect("decode");
        // FlatMemory has no PartialEq; byte-level equality of the
        // re-encoding covers every section including memory pages.
        assert_eq!(bytes, back.encode());
        assert_eq!(ckpt.threads, back.threads);
        assert_eq!(ckpt.hier, back.hier);
        assert_eq!(ckpt.predictor, back.predictor);
        assert_eq!(ckpt.btb, back.btb);
    }

    #[test]
    fn corrupt_encodings_are_rejected_not_panicked() {
        let bytes = ckpt_for(Benchmark::Go, 1_000).encode();
        assert_eq!(
            Checkpoint::decode(b"NOPE").unwrap_err(),
            CheckpointError::BadMagic
        );
        // Truncation at every prefix length must yield an error, never a
        // panic or a silently partial checkpoint that still decodes as
        // complete.
        for cut in [3, 7, 9, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A stale or future version is refused rather than misread.
        for version in [0, CHECKPOINT_VERSION + 1] {
            let mut other = bytes.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&other).unwrap_err(),
                CheckpointError::BadVersion(version)
            );
        }
    }

    #[test]
    fn mutated_encodings_decode_or_fail_typed_never_panic() {
        let bytes = ckpt_for(Benchmark::Go, 1_000).encode();
        for (case, m) in mutants(&bytes, 0x11c4, 300).enumerate() {
            // Any `Result` is acceptable; a panic fails the test.
            let decoded = std::panic::catch_unwind(|| Checkpoint::decode(&m).map(|c| c.encode()));
            assert!(decoded.is_ok(), "case {case} panicked");
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let ckpt = ckpt_for(Benchmark::Compress, 500);
        let mut bytes = ckpt.encode();
        push_section(&mut bytes, *b"ZZZZ", &[1, 2, 3, 4]);
        let back = Checkpoint::decode(&bytes).expect("unknown section skipped");
        assert_eq!(back.threads, ckpt.threads);
        assert_eq!(back.instructions, ckpt.instructions);
    }

    #[test]
    fn store_round_trips_and_misses_cleanly() {
        let dir = std::env::temp_dir().join(format!("llck-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).expect("open");
        let ckpt = ckpt_for(Benchmark::Swim, 2_000);
        assert!(store.load(42).expect("miss is not an error").is_none());
        store.save(42, &ckpt).expect("save");
        let back = store.load(42).expect("load").expect("present");
        assert_eq!(back.encode(), ckpt.encode());
        // A corrupt file surfaces as an error the caller regenerates from.
        std::fs::write(store.path(43), b"LLCKgarbage").unwrap();
        assert!(store.load(43).is_err());
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
        let encodings: Vec<Vec<u8>> = checkpoints.iter().map(Checkpoint::encode).collect();
        std::thread::scope(|s| {
            for ckpt in &checkpoints {
                s.spawn(|| {
                    for _ in 0..25 {
                        store.save(7, ckpt).expect("save");
                        // Every concurrent load sees a complete entry.
                        let seen = store.load(7).expect("never torn").expect("present");
                        assert!(encodings.contains(&seen.encode()), "torn checkpoint");
                    }
                });
            }
        });
        let last = store.load(7).expect("load").expect("present");
        assert!(encodings.contains(&last.encode()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_memo_counts_which_tier_answered_and_why_a_file_was_unusable() {
        use crate::simulator::RunBudget;
        let budget = RunBudget {
            warmup: 2_000,
            measure: 1_000,
            max_cycles: 1_000_000,
        };
        let job = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            budget,
        );
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
        assert_eq!(warm(&memo), captured, "a memo hit counts nothing");
        let loaded = WarmCounts {
            loaded: 1,
            ..WarmCounts::default()
        };
        assert_eq!(warm(&WarmMemo::default()), loaded);

        let file = store.path(warm_digest(&job.config, &job.workload, 2_000));
        for version in [0, CHECKPOINT_VERSION + 1] {
            let mut other = std::fs::read(&file).unwrap();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&file, &other).unwrap();
            let counts = warm(&WarmMemo::default());
            assert_eq!((counts.captured, counts.regenerated.version_skew), (1, 1));
        }
        std::fs::write(&file, b"LLCK").unwrap();
        let counts = warm(&WarmMemo::default());
        assert_eq!((counts.captured, counts.regenerated.corrupt), (1, 1));
        assert_eq!(warm(&WarmMemo::default()), loaded, "the file was rewritten");
        memo.reset_counts();
        assert_eq!(memo.counts(), WarmCounts::default());
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
        assert_eq!(whole.checkpoint().encode(), resumed.checkpoint().encode());
    }
}
