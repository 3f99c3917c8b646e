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
/// layout changes incompatibly (version 2: `CORE` became the
/// [`SimStats::counters`] table and took in the old `MEMS` section);
/// unknown *sections* are skipped without a bump. Any other version is
/// refused, and the caller treats that as a miss and overwrites the entry
/// with its own version.
pub const RESULT_STORE_VERSION: u32 = 2;

/// File magic: "LLRS" (Loose Loops Result Store).
const MAGIC: [u8; 4] = *b"LLRS";

/// The full memo key string of the stored job (collision guard).
const SEC_KEYS: [u8; 4] = *b"KEYS";
/// Every [`SimStats::counters`] slot in table order, then the IQ means
/// and peak.
const SEC_CORE: [u8; 4] = *b"CORE";
/// Per-thread retired-instruction counts.
const SEC_RETD: [u8; 4] = *b"RETD";
/// Operand-availability-gap histogram (Figure 6).
const SEC_GAPH: [u8; 4] = *b"GAPH";
/// Load-latency histogram.
const SEC_LODH: [u8; 4] = *b"LODH";
/// Per-loop CPI stack ([`LoopCostStack`]).
const SEC_LOOP: [u8; 4] = *b"LOOP";

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
/// sections ([`SimStats`] counters, histograms, the [`LoopCostStack`])
/// prefixed by the full memo key. Readers skip unknown sections, so new
/// sections can be added without a version bump.
pub fn encode_result(key: &str, stats: &SimStats) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, RESULT_STORE_VERSION);

    push_section(&mut out, SEC_KEYS, key.as_bytes());

    let mut core = Vec::new();
    for (_, slots) in stats.counters() {
        for &v in slots {
            push_u64(&mut core, v);
        }
    }
    push_f64(&mut core, stats.iq_occupancy_mean);
    push_f64(&mut core, stats.iq_post_issue_mean);
    push_u64(&mut core, stats.iq_peak as u64);
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
/// [`CheckpointError`] on bad magic, any version but
/// [`RESULT_STORE_VERSION`], truncation, or structurally impossible values
/// (a missing mandatory section is [`CheckpointError::Truncated`]).
pub fn decode_result(bytes: &[u8]) -> Result<(String, SimStats), CheckpointError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != RESULT_STORE_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }

    let mut key: Option<String> = None;
    let mut stats = SimStats::default();
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
                for (name, slots) in stats.counters_mut() {
                    for v in slots {
                        *v = s.u64(name)?;
                    }
                }
                stats.iq_occupancy_mean = f64::from_bits(s.u64("iq_occupancy_mean")?);
                stats.iq_post_issue_mean = f64::from_bits(s.u64("iq_post_issue_mean")?);
                stats.iq_peak = s.u64("iq_peak")? as usize;
                if !s.done() {
                    return Err(CheckpointError::Corrupt(
                        "CORE section is longer than the counter table".into(),
                    ));
                }
                saw_core = true;
            }
            SEC_RETD => stats.retired = read_counts(&mut s, "retired")?,
            SEC_GAPH => stats.operand_gap_hist = read_counts(&mut s, "gap histogram")?,
            SEC_LODH => stats.load_latency_hist = read_counts(&mut s, "load-latency histogram")?,
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
/// every load observes either nothing or a complete entry. Entries are
/// `*.llrs` files, so one directory can also hold a
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore)'s `*.llck`
/// files, as the CLI's `--store-dir` does.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
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
        let path = self.path(digest);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(format!("read {}: {e}", path.display()))),
        };
        let (stored_key, stats) = decode_result(&bytes)?;
        if stored_key != key {
            return Ok(None);
        }
        Ok(Some(stats))
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
    fn encode_decode_round_trips_every_field() {
        let (key, mut stats) = run_once();
        // A distinct nonzero value in every table slot, so a slot that
        // both sides dropped or swapped cannot round-trip by accident.
        let slots = stats.counters_mut().into_iter().flat_map(|(_, s)| s);
        for (i, v) in slots.enumerate() {
            *v = 1_000 + i as u64;
        }
        stats.iq_peak = 17;
        stats.iq_post_issue_mean = 2.5;
        assert!(stats.iq_occupancy_mean > 0.0 && stats.loop_cost.cycles > 0);
        let (back_key, back) = decode_result(&encode_result(&key, &stats)).expect("decode");
        assert_eq!(back_key, key);
        // SimStats has no PartialEq; its Debug rendering shows every field.
        assert_eq!(format!("{back:?}"), format!("{stats:?}"));
    }

    #[test]
    fn version_1_entries_are_refused() {
        // A version-1 entry as the old encoder wrote it: 37 CORE slots,
        // then the memory counters in their own MEMS section.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        push_u32(&mut v1, 1);
        push_section(&mut v1, SEC_KEYS, b"some job");
        push_section(&mut v1, SEC_CORE, &[7; 37 * 8]);
        push_section(&mut v1, *b"MEMS", &[7; 11 * 8]);
        assert_eq!(
            decode_result(&v1).unwrap_err(),
            CheckpointError::BadVersion(1)
        );
        // Read as version 2, its CORE section is the wrong length.
        v1[4..8].copy_from_slice(&RESULT_STORE_VERSION.to_le_bytes());
        assert!(decode_result(&v1).is_err());
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
