//! On-disk content-addressed result store: a persistent second cache
//! tier under the [`SweepEngine`](crate::sweep::SweepEngine).
//!
//! The sweep engine's in-memory memo dies with the process, so every
//! consumer — CLI figures, the benchmark, CI, the fuzz harness —
//! re-simulates grids it has already answered. A [`ResultStore`] is a
//! directory of completed runs keyed by the 64-bit FNV digest of the
//! job's full memo key
//! ([`Job::key_with_mode`](crate::sweep::Job::key_with_mode)): one file
//! per result, versioned and self-describing in the same
//! tag-length-section discipline as the `LLCK` checkpoint format, written
//! via [`atomic_write`] so concurrent processes sharing one store never
//! observe a torn entry.
//!
//! Collisions and corruption are both survivable by design: every entry
//! carries the *full* key string it was stored under, and a load whose
//! key does not match (a 64-bit digest collision) or whose payload does
//! not decode is treated as a miss — the job simply re-simulates. The
//! simulator is deterministic, so a stored result is byte-identical to a
//! fresh run and figures built from the store match store-less figures
//! exactly (`tests/sweep_determinism.rs` enforces this).

use crate::checkpoint::{push_section, push_u32, push_u64, CheckpointError, Reader};
use looseloops_pipeline::{LoopCostStack, SimStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Current result-entry encoding version. Bumped when a section's payload
/// layout changes incompatibly; unknown *sections* are skipped without a
/// bump, and a version newer than this binary understands is refused (the
/// caller treats that as a miss and overwrites with its own version).
pub const RESULT_STORE_VERSION: u32 = 1;

/// File magic: "LLRS" (Loose Loops Result Store).
const MAGIC: [u8; 4] = *b"LLRS";

/// The full memo key string of the stored job (collision guard).
const SEC_KEYS: [u8; 4] = *b"KEYS";
/// Fixed-order scalar counters of [`SimStats`].
const SEC_CORE: [u8; 4] = *b"CORE";
/// Per-thread retired-instruction counts.
const SEC_RETD: [u8; 4] = *b"RETD";
/// Operand-availability-gap histogram (Figure 6).
const SEC_GAPH: [u8; 4] = *b"GAPH";
/// Load-latency histogram.
const SEC_LODH: [u8; 4] = *b"LODH";
/// Memory-hierarchy counters.
const SEC_MEMS: [u8; 4] = *b"MEMS";
/// Per-loop CPI stack ([`LoopCostStack`]).
const SEC_LOOP: [u8; 4] = *b"LOOP";

/// The environment variable `looseloops figure` consults when `--store-dir`
/// is not given.
pub const STORE_ENV: &str = "LOOSELOOPS_STORE";

/// Write `bytes` to `path` atomically: write to a unique sibling
/// temporary, then rename into place.
///
/// The temporary name carries the process id *and* a per-process atomic
/// counter. The counter is the load-bearing part: two sweep workers in
/// the same process storing under the same digest used to share one
/// `.tmp.<pid>` file, so one worker's rename could publish the other's
/// half-written bytes. Distinct temporaries make the final rename the
/// only shared step, and rename is atomic.
///
/// # Errors
///
/// Any filesystem error from the write or the rename (the temporary is
/// removed, best-effort, when the rename fails).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{}", std::process::id(), seq));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_counts(out: &mut Vec<u8>, values: &[u64]) {
    push_u64(out, values.len() as u64);
    for &v in values {
        push_u64(out, v);
    }
}

fn read_counts(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u64>, CheckpointError> {
    let n = r.count(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64(what)?);
    }
    Ok(out)
}

/// Serialize one completed run: magic, version, then tag-length-payload
/// sections ([`SimStats`] scalars, histograms, memory-hierarchy counters,
/// the [`LoopCostStack`]) prefixed by the full memo key. Readers skip
/// unknown sections, so new sections can be added without a version bump.
pub fn encode_result(key: &str, stats: &SimStats) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, RESULT_STORE_VERSION);

    push_section(&mut out, SEC_KEYS, key.as_bytes());

    let mut core = Vec::new();
    push_u64(&mut core, stats.cycles);
    push_u64(&mut core, stats.fetched);
    push_u64(&mut core, stats.squashed);
    push_u64(&mut core, stats.squashed_after_issue);
    push_u64(&mut core, stats.branches);
    push_u64(&mut core, stats.branch_mispredicts);
    push_u64(&mut core, stats.target_mispredicts);
    push_u64(&mut core, stats.loads);
    push_u64(&mut core, stats.load_l1_hits);
    push_u64(&mut core, stats.load_l1_misses);
    push_u64(&mut core, stats.load_replays);
    push_u64(&mut core, stats.shadow_replays);
    push_u64(&mut core, stats.operand_misses);
    push_u64(&mut core, stats.operand_replays);
    for &v in &stats.operand_sources {
        push_u64(&mut core, v);
    }
    push_u64(&mut core, stats.insertion_saturations);
    push_u64(&mut core, stats.mem_order_traps);
    push_u64(&mut core, stats.tlb_traps);
    push_u64(&mut core, stats.mem_barriers);
    push_u64(&mut core, stats.branch_squashes);
    push_u64(&mut core, stats.rename_stall_cycles);
    push_u64(&mut core, stats.operand_miss_stall_cycles);
    push_f64(&mut core, stats.iq_occupancy_mean);
    push_f64(&mut core, stats.iq_post_issue_mean);
    push_u64(&mut core, stats.iq_peak as u64);
    push_u64(&mut core, stats.line_pred.0);
    push_u64(&mut core, stats.line_pred.1);
    push_u64(&mut core, stats.deadlocks_detected);
    push_u64(&mut core, stats.faults_injected);
    for &v in &stats.faults_by_kind {
        push_u64(&mut core, v);
    }
    push_u64(&mut core, stats.audit_checks);
    push_section(&mut out, SEC_CORE, &core);

    let mut retd = Vec::new();
    push_counts(&mut retd, &stats.retired);
    push_section(&mut out, SEC_RETD, &retd);

    let mut gaph = Vec::new();
    push_counts(&mut gaph, &stats.operand_gap_hist);
    push_section(&mut out, SEC_GAPH, &gaph);

    let mut lodh = Vec::new();
    push_counts(&mut lodh, &stats.load_latency_hist);
    push_section(&mut out, SEC_LODH, &lodh);

    let mut mems = Vec::new();
    push_u64(&mut mems, stats.mem.l1i.hits);
    push_u64(&mut mems, stats.mem.l1i.misses);
    push_u64(&mut mems, stats.mem.l1d.hits);
    push_u64(&mut mems, stats.mem.l1d.misses);
    push_u64(&mut mems, stats.mem.l2.hits);
    push_u64(&mut mems, stats.mem.l2.misses);
    push_u64(&mut mems, stats.mem.dtlb_hits);
    push_u64(&mut mems, stats.mem.dtlb_misses);
    push_u64(&mut mems, stats.mem.bank_conflicts);
    push_u64(&mut mems, stats.mem.mshr_waits);
    push_u64(&mut mems, stats.mem.prefetches);
    push_section(&mut out, SEC_MEMS, &mems);

    let mut lp = Vec::new();
    push_u64(&mut lp, stats.loop_cost.width);
    push_u64(&mut lp, stats.loop_cost.cycles);
    push_u64(&mut lp, stats.loop_cost.used);
    for &v in &stats.loop_cost.lost {
        push_u64(&mut lp, v);
    }
    push_section(&mut out, SEC_LOOP, &lp);

    out
}

/// Parse a stored result, returning the key it was stored under and the
/// reconstructed statistics.
///
/// # Errors
///
/// [`CheckpointError`] on bad magic, a newer version, truncation, or
/// structurally impossible values (a missing mandatory section is
/// [`CheckpointError::Truncated`]).
pub fn decode_result(bytes: &[u8]) -> Result<(String, SimStats), CheckpointError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32("version")?;
    if version > RESULT_STORE_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }

    let mut key: Option<String> = None;
    let mut stats = SimStats::new(0);
    let mut saw_core = false;
    while !r.done() {
        let tag: [u8; 4] = r.take(4, "section tag")?.try_into().unwrap();
        let len = r.u64("section length")? as usize;
        let payload = r.take(len, "section payload")?;
        let mut s = Reader::new(payload);
        match tag {
            SEC_KEYS => {
                key = Some(
                    String::from_utf8(payload.to_vec())
                        .map_err(|_| CheckpointError::Corrupt("key is not UTF-8".into()))?,
                );
            }
            SEC_CORE => {
                stats.cycles = s.u64("cycles")?;
                stats.fetched = s.u64("fetched")?;
                stats.squashed = s.u64("squashed")?;
                stats.squashed_after_issue = s.u64("squashed_after_issue")?;
                stats.branches = s.u64("branches")?;
                stats.branch_mispredicts = s.u64("branch_mispredicts")?;
                stats.target_mispredicts = s.u64("target_mispredicts")?;
                stats.loads = s.u64("loads")?;
                stats.load_l1_hits = s.u64("load_l1_hits")?;
                stats.load_l1_misses = s.u64("load_l1_misses")?;
                stats.load_replays = s.u64("load_replays")?;
                stats.shadow_replays = s.u64("shadow_replays")?;
                stats.operand_misses = s.u64("operand_misses")?;
                stats.operand_replays = s.u64("operand_replays")?;
                for v in &mut stats.operand_sources {
                    *v = s.u64("operand_sources")?;
                }
                stats.insertion_saturations = s.u64("insertion_saturations")?;
                stats.mem_order_traps = s.u64("mem_order_traps")?;
                stats.tlb_traps = s.u64("tlb_traps")?;
                stats.mem_barriers = s.u64("mem_barriers")?;
                stats.branch_squashes = s.u64("branch_squashes")?;
                stats.rename_stall_cycles = s.u64("rename_stall_cycles")?;
                stats.operand_miss_stall_cycles = s.u64("operand_miss_stall_cycles")?;
                stats.iq_occupancy_mean = f64::from_bits(s.u64("iq_occupancy_mean")?);
                stats.iq_post_issue_mean = f64::from_bits(s.u64("iq_post_issue_mean")?);
                stats.iq_peak = s.u64("iq_peak")? as usize;
                stats.line_pred.0 = s.u64("line_pred correct")?;
                stats.line_pred.1 = s.u64("line_pred wrong")?;
                stats.deadlocks_detected = s.u64("deadlocks_detected")?;
                stats.faults_injected = s.u64("faults_injected")?;
                for v in &mut stats.faults_by_kind {
                    *v = s.u64("faults_by_kind")?;
                }
                stats.audit_checks = s.u64("audit_checks")?;
                saw_core = true;
            }
            SEC_RETD => stats.retired = read_counts(&mut s, "retired")?,
            SEC_GAPH => stats.operand_gap_hist = read_counts(&mut s, "gap histogram")?,
            SEC_LODH => stats.load_latency_hist = read_counts(&mut s, "load-latency histogram")?,
            SEC_MEMS => {
                stats.mem.l1i.hits = s.u64("l1i hits")?;
                stats.mem.l1i.misses = s.u64("l1i misses")?;
                stats.mem.l1d.hits = s.u64("l1d hits")?;
                stats.mem.l1d.misses = s.u64("l1d misses")?;
                stats.mem.l2.hits = s.u64("l2 hits")?;
                stats.mem.l2.misses = s.u64("l2 misses")?;
                stats.mem.dtlb_hits = s.u64("dtlb hits")?;
                stats.mem.dtlb_misses = s.u64("dtlb misses")?;
                stats.mem.bank_conflicts = s.u64("bank conflicts")?;
                stats.mem.mshr_waits = s.u64("mshr waits")?;
                stats.mem.prefetches = s.u64("prefetches")?;
            }
            SEC_LOOP => {
                let mut lc = LoopCostStack {
                    width: s.u64("loop width")?,
                    cycles: s.u64("loop cycles")?,
                    used: s.u64("loop used")?,
                    ..LoopCostStack::default()
                };
                for v in &mut lc.lost {
                    *v = s.u64("loop lost")?;
                }
                stats.loop_cost = lc;
            }
            // Forward compatibility: unknown sections are skipped.
            _ => {}
        }
    }
    let key = key.ok_or(CheckpointError::Truncated("KEYS section"))?;
    if !saw_core {
        return Err(CheckpointError::Truncated("CORE section"));
    }
    Ok((key, stats))
}

/// A directory of completed sweep results keyed by the FNV-64 digest of
/// the job's full memo key. Saves go through [`atomic_write`], so any
/// number of processes (and threads within them) can share one store;
/// every load observes either nothing or a complete entry.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

/// What [`ResultStore::gc`] did: entries surviving and evicted, with
/// their byte totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Entries still in the store after collection.
    pub kept: usize,
    /// Bytes those surviving entries occupy.
    pub bytes_kept: u64,
    /// Entries removed, oldest first.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub bytes_evicted: u64,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<ResultStore, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(ResultStore { dir })
    }

    /// A store at `$LOOSELOOPS_STORE` when the variable is set; a store
    /// that cannot be opened is reported on stderr and ignored (the sweep
    /// still runs, just without the disk tier).
    pub fn from_env() -> Option<ResultStore> {
        let dir = std::env::var(STORE_ENV).ok().filter(|d| !d.is_empty())?;
        match ResultStore::open(&dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("warning: {STORE_ENV}={dir}: {e}; continuing without a result store");
                None
            }
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a digest maps to.
    pub fn path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.llrs"))
    }

    /// Load the result stored under `digest`, verifying it was stored for
    /// exactly `key`. `Ok(None)` when nothing is stored *or* the entry
    /// belongs to a different key (a digest collision — the caller
    /// re-simulates rather than serving a wrong result).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on an unreadable or undecodable file (callers
    /// treat that as a miss and re-simulate).
    pub fn load(&self, digest: u64, key: &str) -> Result<Option<SimStats>, CheckpointError> {
        use std::io::{ErrorKind, Read};
        let path = self.path(digest);
        let io_err =
            |e: std::io::Error| CheckpointError::Io(format!("read {}: {e}", path.display()));
        // One handle serves both the read and the recency touch below. A
        // store this process cannot write still serves hits through a
        // read-only handle.
        let opened = std::fs::File::options()
            .read(true)
            .write(true)
            .open(&path)
            .or_else(|e| match e.kind() {
                ErrorKind::NotFound => Err(e),
                _ => std::fs::File::open(&path),
            });
        let mut file = match opened {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let (stored_key, stats) = decode_result(&bytes)?;
        if stored_key != key {
            return Ok(None);
        }
        // Touch the entry so `gc` sees hits as recent use, not just
        // writes. Best-effort: a failed touch still serves the result.
        let _ = file.set_modified(std::time::SystemTime::now());
        Ok(Some(stats))
    }

    /// Evict least-recently-used entries until the store fits in
    /// `max_bytes`. Recency is the file modification time, which both
    /// [`save`](Self::save) and a successful [`load`](Self::load) refresh;
    /// ties break on file name so the scan is deterministic. Only
    /// `*.llrs` entries are considered — foreign files and in-flight
    /// `.tmp.*` temporaries are left alone and do not count toward the
    /// budget.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be listed. A
    /// concurrently-removed entry is skipped, not an error.
    pub fn gc(&self, max_bytes: u64) -> Result<GcReport, CheckpointError> {
        let read = std::fs::read_dir(&self.dir)
            .map_err(|e| CheckpointError::Io(format!("list {}: {e}", self.dir.display())))?;
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for entry in read.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("llrs") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((mtime, path, meta.len()));
        }
        entries.sort();
        let mut report = GcReport {
            kept: entries.len(),
            bytes_kept: entries.iter().map(|(_, _, len)| len).sum(),
            ..GcReport::default()
        };
        let mut victims = entries.into_iter();
        while report.bytes_kept > max_bytes {
            let Some((_, path, len)) = victims.next() else {
                break;
            };
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(CheckpointError::Io(format!(
                        "remove {}: {e}",
                        path.display()
                    )))
                }
            }
            report.kept -= 1;
            report.bytes_kept -= len;
            report.evicted += 1;
            report.bytes_evicted += len;
        }
        Ok(report)
    }

    /// Store `stats` under `digest` for `key` (atomic replace).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the temporary cannot be written or
    /// renamed into place.
    pub fn save(&self, digest: u64, key: &str, stats: &SimStats) -> Result<(), CheckpointError> {
        let path = self.path(digest);
        atomic_write(&path, &encode_result(key, stats))
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Workload;
    use crate::simulator::RunBudget;
    use crate::sweep::{fnv1a64, Job};
    use looseloops_pipeline::PipelineConfig;
    use looseloops_workload::Benchmark;

    fn run_once() -> (String, SimStats) {
        let job = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            RunBudget {
                warmup: 200,
                measure: 2_000,
                max_cycles: 1_000_000,
            },
        );
        let stats = job.workload.try_run(&job.config, job.budget).expect("run");
        (job.key(), stats)
    }

    fn temp_store(tag: &str) -> (PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!("llrs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("open");
        (dir, store)
    }

    #[test]
    fn encode_decode_round_trips_every_section() {
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        let (back_key, back) = decode_result(&bytes).expect("decode");
        assert_eq!(back_key, key);
        // SimStats has no PartialEq; byte-level equality of the
        // re-encoding covers every serialized field.
        assert_eq!(bytes, encode_result(&back_key, &back));
        assert_eq!(back.cycles, stats.cycles);
        assert_eq!(back.retired, stats.retired);
        assert_eq!(back.operand_gap_hist, stats.operand_gap_hist);
        assert_eq!(back.load_latency_hist, stats.load_latency_hist);
        assert_eq!(back.mem, stats.mem);
        assert_eq!(back.loop_cost, stats.loop_cost);
        assert_eq!(
            back.iq_occupancy_mean.to_bits(),
            stats.iq_occupancy_mean.to_bits()
        );
        assert_eq!(back.ipc(), stats.ipc());
    }

    #[test]
    fn corrupt_entries_are_rejected_not_panicked() {
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        assert_eq!(
            decode_result(b"NOPE").unwrap_err(),
            CheckpointError::BadMagic
        );
        for cut in [3, 7, 9, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut newer = bytes.clone();
        newer[4..8].copy_from_slice(&(RESULT_STORE_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_result(&newer).unwrap_err(),
            CheckpointError::BadVersion(RESULT_STORE_VERSION + 1)
        );
        // An entry missing its mandatory sections is truncated, not OK.
        let mut empty = Vec::new();
        empty.extend_from_slice(&MAGIC);
        push_u32(&mut empty, RESULT_STORE_VERSION);
        assert!(decode_result(&empty).is_err());
    }

    #[test]
    fn mutated_entries_decode_or_fail_typed_never_panic() {
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        for (case, m) in crate::checkpoint::mutants(&bytes, 0x11c5, 4_000).enumerate() {
            // Any `Result` is acceptable; a panic fails the test.
            let decoded = std::panic::catch_unwind(|| {
                decode_result(&m).map(|(key, stats)| encode_result(&key, &stats))
            });
            assert!(decoded.is_ok(), "case {case} panicked");
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let (key, stats) = run_once();
        let mut bytes = encode_result(&key, &stats);
        push_section(&mut bytes, *b"ZZZZ", &[9, 9, 9]);
        let (back_key, back) = decode_result(&bytes).expect("unknown section skipped");
        assert_eq!(back_key, key);
        assert_eq!(back.cycles, stats.cycles);
    }

    #[test]
    fn store_round_trips_misses_and_survives_collisions() {
        let (dir, store) = temp_store("roundtrip");
        let (key, stats) = run_once();
        let digest = fnv1a64(key.as_bytes());
        assert!(store
            .load(digest, &key)
            .expect("miss is not an error")
            .is_none());
        store.save(digest, &key, &stats).expect("save");
        let back = store.load(digest, &key).expect("load").expect("present");
        assert_eq!(encode_result(&key, &back), encode_result(&key, &stats));
        // A digest collision (same file, different key) is a miss, never a
        // wrong answer.
        assert!(store
            .load(digest, "some other job")
            .expect("no error")
            .is_none());
        // A corrupt file surfaces as an error the caller re-simulates from.
        std::fs::write(store.path(77), b"LLRSgarbage").unwrap();
        assert!(store.load(77, &key).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_evicts_oldest_entries_first_and_spares_foreign_files() {
        use std::time::{Duration, UNIX_EPOCH};
        let (dir, store) = temp_store("gc");
        // Craft five 1000-byte entries with strictly increasing ages:
        // digest 1 is the oldest, digest 5 the freshest. `gc` reads only
        // file metadata, so the payloads need not decode.
        for digest in 1u64..=5 {
            let path = store.path(digest);
            std::fs::write(&path, vec![digest as u8; 1000]).unwrap();
            let f = std::fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(UNIX_EPOCH + Duration::from_secs(digest * 1000))
                .unwrap();
        }
        // Foreign files and in-flight temporaries are not the store's to
        // delete, nor do they count toward the budget.
        std::fs::write(dir.join("README"), b"not an entry").unwrap();
        std::fs::write(dir.join("deadbeef.llrs.tmp.1.2"), vec![0; 4000]).unwrap();

        // Over budget: the three oldest entries go, newest two stay.
        let report = store.gc(2_500).expect("gc");
        assert_eq!(
            report,
            GcReport {
                kept: 2,
                bytes_kept: 2_000,
                evicted: 3,
                bytes_evicted: 3_000,
            }
        );
        for digest in 1u64..=3 {
            assert!(
                !store.path(digest).exists(),
                "digest {digest} should be evicted"
            );
        }
        for digest in 4u64..=5 {
            assert!(
                store.path(digest).exists(),
                "digest {digest} should survive"
            );
        }
        assert!(dir.join("README").exists());
        assert!(dir.join("deadbeef.llrs.tmp.1.2").exists());

        // Under budget: nothing to do.
        let report = store.gc(1 << 30).expect("gc");
        assert_eq!(report.evicted, 0);
        assert_eq!(report.kept, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refreshes_recency_so_hits_survive_gc() {
        use std::time::{Duration, UNIX_EPOCH};
        let (dir, store) = temp_store("gc-lru");
        let (key, stats) = run_once();
        let digest = fnv1a64(key.as_bytes());
        store.save(digest, &key, &stats).expect("save");
        // Backdate the entry, then hit it: the load must refresh its
        // modification time so the entry reads as recently used.
        let f = std::fs::File::options()
            .append(true)
            .open(store.path(digest))
            .unwrap();
        f.set_modified(UNIX_EPOCH + Duration::from_secs(1)).unwrap();
        drop(f);
        store.load(digest, &key).expect("load").expect("present");
        let touched = std::fs::metadata(store.path(digest))
            .unwrap()
            .modified()
            .unwrap();
        assert!(touched > UNIX_EPOCH + Duration::from_secs(100_000));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn read_only_entries_still_load() {
        use std::os::unix::fs::PermissionsExt;
        let (dir, store) = temp_store("read-only");
        let (key, stats) = run_once();
        let digest = fnv1a64(key.as_bytes());
        store.save(digest, &key, &stats).expect("save");
        let chmod = |path: &Path, mode: u32| {
            std::fs::set_permissions(path, std::fs::Permissions::from_mode(mode)).unwrap();
        };
        chmod(&store.path(digest), 0o444);
        chmod(&dir, 0o555);
        let back = store.load(digest, &key);
        chmod(&dir, 0o755);
        let back = back.expect("load").expect("present");
        assert_eq!(encode_result(&key, &back), encode_result(&key, &stats));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_disambiguates_same_process_writers() {
        let (dir, _store) = temp_store("atomic");
        let target = dir.join("one-file");
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|b| vec![b; 4096]).collect();
        std::thread::scope(|s| {
            for p in &payloads {
                s.spawn(|| {
                    for _ in 0..50 {
                        atomic_write(&target, p).expect("atomic write");
                    }
                });
            }
        });
        // Whatever won, the file is one complete payload, never a mix.
        let final_bytes = std::fs::read(&target).expect("file exists");
        assert!(payloads.contains(&final_bytes), "torn write published");
        // No temporaries left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale temporaries: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
