//! On-disk stores: the content-addressed result store, a persistent
//! second cache tier under the [`SweepEngine`](crate::sweep::SweepEngine),
//! and the fixed-layout entry format it shares with the checkpoint store.
//!
//! The sweep engine's in-memory memo dies with the process, so every
//! consumer — CLI figures, the benchmark, CI, the fuzz harness —
//! re-simulates grids it has already answered. A [`ResultStore`] is a
//! directory of completed runs keyed by the 64-bit FNV digest of the
//! job's full memo key
//! ([`Job::key_with_mode`](crate::sweep::Job::key_with_mode)): one file
//! per result, written atomically so concurrent processes sharing one
//! store never observe a torn entry.
//!
//! Both stores (results here, warm-up checkpoints in
//! [`CheckpointStore`](crate::checkpoint::CheckpointStore)) write one
//! fixed layout: magic, version, the entry's full key, then every field
//! in a fixed order. Every field is mandatory and the decoder reads to
//! the exact length, so a short entry is [`StoreError::Truncated`] and
//! trailing bytes are [`StoreError::Corrupt`]; nothing decodes as a
//! default.
//!
//! Collisions and corruption are both survivable by design: a load whose
//! stored key does not match (a 64-bit digest collision, or a file under
//! the wrong name) or whose bytes do not decode is treated as a miss —
//! the job simply re-simulates. The simulator is deterministic, so a
//! stored result is byte-identical to a fresh run and figures built from
//! the store match store-less figures exactly
//! (`tests/sweep_determinism.rs` enforces this).

use looseloops_pipeline::SimStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Current result-entry layout version (3: the fixed layout). Any other
/// version is refused, and the caller treats that as a miss and
/// overwrites the entry with its own version.
pub const RESULT_STORE_VERSION: u32 = 3;

/// File magic: "LLRS" (Loose Loops Result Store).
const MAGIC: [u8; 4] = *b"LLRS";

/// Why a store entry could not be loaded or saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (the message names the path and the error).
    Io(String),
    /// The entry does not start with its format's magic.
    BadMagic,
    /// The entry's format version is not one this binary reads.
    BadVersion(u32),
    /// The entry ended mid-field (context names the field).
    Truncated(&'static str),
    /// A decoded value is structurally impossible, or bytes follow the
    /// last field.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => f.write_str(e),
            StoreError::BadMagic => write!(f, "not a store entry (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated(what) => write!(f, "entry truncated in {what}"),
            StoreError::Corrupt(why) => write!(f, "entry corrupt: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Write `bytes` to `path` atomically: write to a unique sibling
/// temporary, then rename into place.
///
/// The temporary name carries the process id *and* a per-process atomic
/// counter, so two workers of one process storing under one digest never
/// share a temporary. The final rename is the only shared step, and
/// rename is atomic.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
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

/// One directory of entries named `{digest:016x}.{ext}`, each in the
/// fixed layout under one magic and version: the plumbing both stores
/// share. Writes are atomic, so any number of processes (and threads
/// within them) can share one directory and every read observes either
/// nothing or a complete entry. The extensions keep the two stores apart
/// in one directory, as the CLI's `--store-dir` does.
#[derive(Debug, Clone)]
pub(crate) struct EntryDir {
    dir: PathBuf,
    ext: &'static str,
    magic: [u8; 4],
    version: u32,
}

impl EntryDir {
    /// Open (creating if needed) the directory `dir` of `ext` entries
    /// whose header is `magic` and `version`.
    pub(crate) fn open(
        dir: &Path,
        ext: &'static str,
        magic: [u8; 4],
        version: u32,
    ) -> Result<EntryDir, StoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(EntryDir {
            dir: dir.to_path_buf(),
            ext,
            magic,
            version,
        })
    }

    /// The file a digest maps to.
    pub(crate) fn path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.{}", self.ext))
    }

    /// Decode the entry under `digest`, reading its fields with `fields`.
    /// `Ok(None)` when nothing is stored there *or* the entry was stored
    /// for another key. The stored key is compared in place, without a
    /// copy; an entry stored for another key is still decoded, so it
    /// fails with the same typed error as any other load of it would.
    pub(crate) fn load<T>(
        &self,
        digest: u64,
        key: &str,
        fields: impl FnOnce(&mut Reader<'_>) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        let path = self.path(digest);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(format!("read {}: {e}", path.display()))),
        };
        let ours = |stored: &[u8]| {
            if stored == key.as_bytes() {
                Ok(true)
            } else {
                key_text(stored).map(|_| false)
            }
        };
        let (ours, value) = parse_entry(&bytes, self.magic, self.version, ours, fields)?;
        Ok(ours.then_some(value))
    }

    /// Delete every entry of this directory whose header is its magic and
    /// a version older than its own, and return how many went. Entries
    /// of the current or a newer version, files of other formats and
    /// files that cannot be read or deleted are left alone.
    pub(crate) fn remove_older(&self) -> u64 {
        let (magic, version) = (self.magic, self.version);
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for path in dir.filter_map(|e| e.ok().map(|e| e.path())) {
            if path.extension().is_none_or(|e| e != self.ext) {
                continue;
            }
            let mut header = [0; 8];
            let read = std::fs::File::open(&path)
                .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header));
            let old = |h: [u8; 8]| {
                h[..4] == magic && u32::from_le_bytes(h[4..].try_into().unwrap()) < version
            };
            if read.is_ok() && old(header) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Replace the entry under `digest` with `bytes` (atomic).
    pub(crate) fn save(&self, digest: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.path(digest);
        atomic_write(&path, bytes)
            .map_err(|e| StoreError::Io(format!("write {}: {e}", path.display())))
    }
}

pub(crate) fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A count, then the words.
pub(crate) fn push_words(out: &mut Vec<u8>, words: &[u64]) {
    push_u64(out, words.len() as u64);
    for &w in words {
        push_u64(out, w);
    }
}

/// One entry: magic, version, the key (length, then UTF-8 bytes), then
/// whatever `fields` appends. `capacity` sizes the buffer up front.
pub(crate) fn encode_entry(
    magic: [u8; 4],
    version: u32,
    key: &str,
    capacity: usize,
    fields: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + key.len() + capacity);
    out.extend_from_slice(&magic);
    push_u32(&mut out, version);
    push_u64(&mut out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
    fields(&mut out);
    out
}

/// A stored key's bytes as text.
fn key_text(stored: &[u8]) -> Result<&str, StoreError> {
    std::str::from_utf8(stored).map_err(|_| StoreError::Corrupt("key is not UTF-8".into()))
}

/// Parse an entry [`encode_entry`] wrote: check the magic and the
/// version, hand the stored key's bytes to `key`, let `fields` read every
/// field, and require that nothing follows them.
fn parse_entry<'a, K, T>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u32,
    key: impl FnOnce(&'a [u8]) -> Result<K, StoreError>,
    fields: impl FnOnce(&mut Reader<'a>) -> Result<T, StoreError>,
) -> Result<(K, T), StoreError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4, "magic")? != magic {
        return Err(StoreError::BadMagic);
    }
    let found = r.u32("version")?;
    if found != version {
        return Err(StoreError::BadVersion(found));
    }
    let len = r.count(1, "key length")?;
    let key = key(r.take(len, "key")?)?;
    let value = fields(&mut r)?;
    match bytes.len() - r.pos {
        0 => Ok((key, value)),
        n => Err(StoreError::Corrupt(format!(
            "{n} byte(s) after the last field"
        ))),
    }
}

/// [`parse_entry`] returning the stored key as an owned string.
pub(crate) fn decode_entry<T>(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
    fields: impl FnOnce(&mut Reader<'_>) -> Result<T, StoreError>,
) -> Result<(String, T), StoreError> {
    parse_entry(
        bytes,
        magic,
        version,
        |k| key_text(k).map(str::to_owned),
        fields,
    )
}

/// A cursor over an entry's bytes; every read names its field, so a
/// short entry reports where it ended.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(StoreError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn bool(&mut self, what: &'static str) -> Result<bool, StoreError> {
        match self.take(1, what)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::Corrupt(format!("{what}: {b} is not a flag"))),
        }
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A decoded element count, sanity-bounded by what the remaining bytes
    /// could possibly hold (`min_elem_bytes` each) so a corrupt count
    /// cannot drive an absurd allocation.
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, StoreError> {
        #[cfg(test)]
        COUNT_FIELDS.with(|f| f.borrow_mut().push((self.pos, 8)));
        let n = self.u64(what)?;
        let fits = (self.buf.len() - self.pos) / min_elem_bytes.max(1);
        if n > fits as u64 {
            return Err(StoreError::Corrupt(format!(
                "{what}: count {n} exceeds the remaining bytes"
            )));
        }
        Ok(n as usize)
    }

    /// A two-byte count that the caller checks against the rest of the
    /// entry (a set's resident lines, at most its ways).
    pub(crate) fn short_count(&mut self, what: &'static str) -> Result<u16, StoreError> {
        #[cfg(test)]
        COUNT_FIELDS.with(|f| f.borrow_mut().push((self.pos, 2)));
        self.u16(what)
    }

    /// A count, then that many words ([`push_words`]).
    pub(crate) fn words(&mut self, what: &'static str) -> Result<Vec<u64>, StoreError> {
        let n = self.count(8, what)?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.u64(what)?);
        }
        Ok(words)
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Serialize one completed run in the fixed layout: the full memo key,
/// every [`SimStats::counters`] slot in table order, the IQ means and
/// peak, the per-thread retired counts, the operand-gap and load-latency
/// histograms, then the
/// [`LoopCostStack`](looseloops_pipeline::LoopCostStack).
pub fn encode_result(key: &str, stats: &SimStats) -> Vec<u8> {
    encode_entry(MAGIC, RESULT_STORE_VERSION, key, 0, |out| {
        for (_, slots) in stats.counters() {
            for &v in slots {
                push_u64(out, v);
            }
        }
        push_f64(out, stats.iq_occupancy_mean);
        push_f64(out, stats.iq_post_issue_mean);
        push_u64(out, stats.iq_peak as u64);
        push_words(out, &stats.retired);
        push_words(out, &stats.operand_gap_hist);
        push_words(out, &stats.load_latency_hist);
        push_u64(out, stats.loop_cost.width);
        push_u64(out, stats.loop_cost.cycles);
        push_u64(out, stats.loop_cost.used);
        for &v in &stats.loop_cost.lost {
            push_u64(out, v);
        }
    })
}

/// Parse a stored result, returning the key it was stored under and the
/// reconstructed statistics.
///
/// # Errors
///
/// [`StoreError`] on bad magic, any version but [`RESULT_STORE_VERSION`],
/// a short entry, trailing bytes, or structurally impossible values.
pub fn decode_result(bytes: &[u8]) -> Result<(String, SimStats), StoreError> {
    decode_entry(bytes, MAGIC, RESULT_STORE_VERSION, result_fields)
}

/// The fields of a stored result, after its key.
fn result_fields(r: &mut Reader<'_>) -> Result<SimStats, StoreError> {
    let mut stats = SimStats::default();
    for (name, slots) in stats.counters_mut() {
        for v in slots {
            *v = r.u64(name)?;
        }
    }
    stats.iq_occupancy_mean = f64::from_bits(r.u64("iq_occupancy_mean")?);
    stats.iq_post_issue_mean = f64::from_bits(r.u64("iq_post_issue_mean")?);
    stats.iq_peak = r.u64("iq_peak")? as usize;
    stats.retired = r.words("retired")?;
    stats.operand_gap_hist = r.words("gap histogram")?;
    stats.load_latency_hist = r.words("load-latency histogram")?;
    stats.loop_cost.width = r.u64("loop width")?;
    stats.loop_cost.cycles = r.u64("loop cycles")?;
    stats.loop_cost.used = r.u64("loop used")?;
    for v in &mut stats.loop_cost.lost {
        *v = r.u64("loop lost")?;
    }
    Ok(stats)
}

/// Entries of an on-disk store that were present but could not be used,
/// by cause. Each one is a miss: the caller simulates or captures again
/// and overwrites the entry with its own version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMisses {
    /// Entries written by another format version.
    pub version_skew: u64,
    /// Entries that do not decode: bad magic, short, trailing bytes, or
    /// impossible values.
    pub corrupt: u64,
    /// Entries that could not be read.
    pub io: u64,
}

impl StoreMisses {
    /// Count one failed load under its cause.
    pub fn count(&mut self, e: &StoreError) {
        match e {
            StoreError::BadVersion(_) => self.version_skew += 1,
            StoreError::Io(_) => self.io += 1,
            StoreError::BadMagic | StoreError::Truncated(_) | StoreError::Corrupt(_) => {
                self.corrupt += 1;
            }
        }
    }

    /// All misses, whatever the cause.
    pub fn total(&self) -> u64 {
        self.version_skew + self.corrupt + self.io
    }

    /// The nonzero causes, e.g. `419 version skew, 1 corrupt`.
    pub fn causes(&self) -> String {
        [
            (self.version_skew, "version skew"),
            (self.corrupt, "corrupt"),
            (self.io, "i/o"),
        ]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, cause)| format!("{n} {cause}"))
        .collect::<Vec<_>>()
        .join(", ")
    }
}

/// A directory of completed sweep results (`*.llrs` files) keyed by the
/// FNV-64 digest of the job's full memo key. Saves are atomic, so any
/// number of processes (and threads within them) can share one store.
/// One directory can also hold a
/// [`CheckpointStore`](crate::checkpoint::CheckpointStore)'s `*.llck`
/// files, as the CLI's `--store-dir` does.
#[derive(Debug, Clone)]
pub struct ResultStore {
    entries: EntryDir,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<ResultStore, StoreError> {
        Ok(ResultStore {
            entries: EntryDir::open(dir.as_ref(), "llrs", MAGIC, RESULT_STORE_VERSION)?,
        })
    }

    /// The file a digest maps to.
    pub fn path(&self, digest: u64) -> PathBuf {
        self.entries.path(digest)
    }

    /// Load the result stored under `digest`, verifying it was stored for
    /// exactly `key`. `Ok(None)` when nothing is stored *or* the entry
    /// belongs to a different key (a digest collision — the caller
    /// re-simulates rather than serving a wrong result).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on an unreadable or undecodable file (callers
    /// treat that as a miss and re-simulate).
    pub fn load(&self, digest: u64, key: &str) -> Result<Option<SimStats>, StoreError> {
        self.entries.load(digest, key, result_fields)
    }

    /// Store `stats` under `digest` for `key` (atomic replace).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temporary cannot be written or
    /// renamed into place.
    pub fn save(&self, digest: u64, key: &str, stats: &SimStats) -> Result<(), StoreError> {
        self.entries.save(digest, &encode_result(key, stats))
    }
}

#[cfg(test)]
thread_local! {
    /// Offset and width of the count fields [`Reader`] read on this
    /// thread.
    static COUNT_FIELDS: std::cell::RefCell<Vec<(usize, usize)>> = const {
        std::cell::RefCell::new(Vec::new())
    };
}

/// Offset and width of every count field (the key length, array and
/// vector lengths, per-set line counts) that `decode` reads from a valid
/// encoding.
#[cfg(test)]
pub(crate) fn count_fields(decode: impl FnOnce()) -> Vec<(usize, usize)> {
    COUNT_FIELDS.with(|f| f.borrow_mut().clear());
    decode();
    COUNT_FIELDS.with(|f| f.take())
}

/// Seeded corruptions of an `LLCK` or `LLRS` encoding, for decoder
/// robustness tests: first every field at `counts` overwritten with each
/// boundary value in turn (cut to the field's width), then `flips` cases
/// that flip one to four bits anywhere.
#[cfg(test)]
pub(crate) fn mutants<'a>(
    bytes: &'a [u8],
    counts: &'a [(usize, usize)],
    seed: u64,
    flips: usize,
) -> impl Iterator<Item = Vec<u8>> + 'a {
    let mut rng = looseloops_rng::Rng::seed_from_u64(seed);
    let edges = counts.iter().flat_map(move |&(at, width)| {
        let mut old = [0; 8];
        old[..width].copy_from_slice(&bytes[at..at + width]);
        let old = u64::from_le_bytes(old);
        let max = u64::MAX >> (64 - 8 * width);
        [
            0,
            1,
            old.wrapping_sub(1),
            old.wrapping_add(1),
            old.wrapping_mul(2),
            u64::from(u32::MAX),
            max - 7,
            max,
        ]
        .map(|v| {
            let mut m = bytes.to_vec();
            m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
            m
        })
    });
    let flipped = (0..flips).map(move |_| {
        let mut m = bytes.to_vec();
        for _ in 0..=rng.bounded(3) {
            let bit = rng.bounded(m.len() as u64 * 8);
            m[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        m
    });
    edges.chain(flipped)
}

/// Every proper prefix of `bytes`, and `bytes` plus one trailing byte,
/// must fail to decode: a prefix as `Truncated` or `Corrupt` (a count
/// the rest cannot hold), the longer input as `Corrupt`.
#[cfg(test)]
pub(crate) fn assert_exact_length(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<(), StoreError>) {
    for cut in 0..bytes.len() {
        let e = decode(&bytes[..cut]).expect_err("a proper prefix decoded");
        assert!(
            matches!(e, StoreError::Truncated(_) | StoreError::Corrupt(_)),
            "cut at {cut}: {e:?}"
        );
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(matches!(decode(&longer), Err(StoreError::Corrupt(_))));
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
        // A version-1 entry as the old encoder wrote it: tag-length
        // sections, a KEYS section, 37 CORE slots, then the memory
        // counters in their own MEMS section.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        push_u32(&mut v1, 1);
        for (tag, payload) in [
            (*b"KEYS", &b"some job"[..]),
            (*b"CORE", &[7; 37 * 8][..]),
            (*b"MEMS", &[7; 11 * 8][..]),
        ] {
            v1.extend_from_slice(&tag);
            push_u64(&mut v1, payload.len() as u64);
            v1.extend_from_slice(payload);
        }
        assert_eq!(decode_result(&v1).unwrap_err(), StoreError::BadVersion(1));
        // Read as the current version, it does not decode.
        v1[4..8].copy_from_slice(&RESULT_STORE_VERSION.to_le_bytes());
        assert!(decode_result(&v1).is_err());
    }

    #[test]
    fn corrupt_entries_are_rejected_not_panicked() {
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        assert_eq!(decode_result(b"NOPE").unwrap_err(), StoreError::BadMagic);
        for cut in [3, 7, 9, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut newer = bytes.clone();
        newer[4..8].copy_from_slice(&(RESULT_STORE_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_result(&newer).unwrap_err(),
            StoreError::BadVersion(RESULT_STORE_VERSION + 1)
        );
        // An entry that stops after its key is truncated, not OK.
        let empty = encode_entry(MAGIC, RESULT_STORE_VERSION, &key, 0, |_| {});
        assert!(matches!(
            decode_result(&empty),
            Err(StoreError::Truncated(_))
        ));
    }

    #[test]
    fn every_prefix_and_a_trailing_byte_are_typed_errors() {
        let (key, stats) = run_once();
        assert_exact_length(&encode_result(&key, &stats), |b| decode_result(b).map(drop));
    }

    #[test]
    fn mutated_entries_decode_or_fail_typed_never_panic() {
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        let counts = count_fields(|| {
            decode_result(&bytes).expect("valid");
        });
        // The key length, the retired counts and the two histograms.
        assert_eq!(counts.len(), 4);
        for (case, m) in mutants(&bytes, &counts, 0x11c5, 2_000).enumerate() {
            // Any `Result` is acceptable; a panic fails the test.
            let decoded = std::panic::catch_unwind(|| {
                decode_result(&m).map(|(key, stats)| encode_result(&key, &stats))
            });
            assert!(decoded.is_ok(), "case {case} panicked");
        }
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
    fn a_load_for_another_key_keeps_every_typed_error() {
        let (dir, store) = temp_store("other-key");
        let (key, stats) = run_once();
        let bytes = encode_result(&key, &stats);
        let load = |entry: &[u8], as_key: &str| {
            std::fs::write(store.path(9), entry).unwrap();
            store.load(9, as_key)
        };
        // Whole, the entry answers its own key and misses for another.
        assert!(load(&bytes, &key).expect("own key").is_some());
        assert!(load(&bytes, "another job").expect("plain miss").is_none());
        // Malformed, it fails the same way whichever key asks.
        let cut = &bytes[..bytes.len() - 1];
        let mut not_utf8 = bytes.clone();
        not_utf8[16] = 0xff;
        for (entry, want) in [
            (cut, decode_result(cut).unwrap_err()),
            (
                &not_utf8[..],
                StoreError::Corrupt("key is not UTF-8".into()),
            ),
        ] {
            assert_eq!(load(entry, &key).unwrap_err(), want);
            assert_eq!(load(entry, "another job").unwrap_err(), want);
        }
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
