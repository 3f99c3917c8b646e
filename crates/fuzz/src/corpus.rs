//! The regression corpus: shrunk reproducers as self-describing text.
//!
//! Every file under `fuzz/corpus/` is a complete differential test case:
//!
//! ```text
//! ; looseloops-fuzz corpus v1
//! ; name: seed-0x2a-retire
//! ; finding: retire divergence
//! ; config: scheme=dra rf=5 dec=8 ex=4 policy=tree predictor=tournament threads=1
//! ; faults: none
//! ; max-cycles: 2000000
//! ; oracle-steps: 1000000
//! .data 0x10000, 0x1234, ...
//!     addi r1, r31, 65536
//!     ...
//!     halt
//! ```
//!
//! The first line is a **format version banner** and is checked exactly:
//! if the corpus format ever changes incompatibly, old files fail loudly
//! at load time instead of silently replaying the wrong thing. Unknown
//! header keys are likewise hard errors. Two-thread cases separate their
//! programs with a `; thread 1` line.
//!
//! The `config:` and `faults:` values are [`looseloops_pipeline::spec`]'s
//! machine and fault specs (`faults: none` is no plan), the text that
//! `looseloops run` reads as machine flags and as `--inject`.
//!
//! The body is the standard assembler syntax ([`looseloops_isa::asm`]),
//! produced by [`looseloops_isa::disassemble`] — so every corpus entry is
//! also readable (and hand-editable) as a plain program listing.

use crate::case::{Finding, FuzzCase};
use crate::gen::GenProfile;
use looseloops_isa::{assemble, disassemble};
use looseloops_pipeline::spec::{missing_key, MACHINE_KEYS};
use looseloops_pipeline::{FaultPlan, PipelineConfig};
use std::fmt;
use std::path::{Path, PathBuf};

/// Exact first line of every corpus file.
pub const BANNER: &str = "; looseloops-fuzz corpus v1";

/// Why a corpus file could not be loaded. Every variant names the file —
/// a stale or corrupt corpus must fail loudly, not skip quietly.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem error.
    Io(PathBuf, std::io::Error),
    /// First line is not the v1 banner.
    BadBanner { path: PathBuf, got: String },
    /// A `; key: value` header has an unknown key or malformed value.
    BadHeader { path: PathBuf, line: String },
    /// A required header is missing.
    MissingHeader { path: PathBuf, key: &'static str },
    /// The program body failed to assemble.
    BadProgram { path: PathBuf, err: String },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            CorpusError::BadBanner { path, got } => write!(
                f,
                "{}: not a corpus v1 file (first line {got:?}, expected {BANNER:?}); \
                 regenerate the corpus if the format changed",
                path.display()
            ),
            CorpusError::BadHeader { path, line } => {
                write!(f, "{}: bad header line {line:?}", path.display())
            }
            CorpusError::MissingHeader { path, key } => {
                write!(f, "{}: missing required header `{key}`", path.display())
            }
            CorpusError::BadProgram { path, err } => {
                write!(f, "{}: program does not assemble: {err}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// A corpus file, parsed back into a runnable case.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem (for reporting).
    pub name: String,
    /// The finding recorded when the entry was saved (informational).
    pub recorded_finding: String,
    /// The runnable case.
    pub case: FuzzCase,
}

/// Serialize a case (plus the finding it reproduced) to corpus text.
pub fn to_text(name: &str, case: &FuzzCase, finding: &Finding) -> String {
    let mut out = String::new();
    out.push_str(BANNER);
    out.push('\n');
    out.push_str(&format!("; name: {name}\n"));
    out.push_str(&format!("; finding: {}\n", finding.kind));
    out.push_str(&format!("; config: {}\n", case.config.spec()));
    let faults = case.config.faults.map(|plan| plan.spec());
    out.push_str(&format!(
        "; faults: {}\n",
        faults.as_deref().unwrap_or("none")
    ));
    out.push_str(&format!("; max-cycles: {}\n", case.max_cycles));
    out.push_str(&format!("; oracle-steps: {}\n", case.oracle_steps));
    for (t, prog) in case.programs.iter().enumerate() {
        if t > 0 {
            out.push_str(&format!("; thread {t}\n"));
        }
        out.push_str(&disassemble(prog));
    }
    out
}

/// Parse corpus text back into a runnable case.
pub fn from_text(path: &Path, text: &str) -> Result<CorpusEntry, CorpusError> {
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("").trim_end();
    if first != BANNER {
        return Err(CorpusError::BadBanner {
            path: path.to_path_buf(),
            got: first.to_string(),
        });
    }
    let mut name = None;
    let mut finding = None;
    let mut config = None;
    let mut faults = None;
    let mut max_cycles = None;
    let mut oracle_steps = None;
    let mut bodies: Vec<String> = Vec::new();
    let mut in_header = true;
    for line in lines {
        let header = line.strip_prefix("; ").map(str::trim);
        let bad = || CorpusError::BadHeader {
            path: path.to_path_buf(),
            line: line.to_string(),
        };
        if in_header {
            if let Some(h) = header {
                let (key, value) = h.split_once(':').ok_or_else(bad)?;
                let value = value.trim();
                match key.trim() {
                    "name" => name = Some(value.to_string()),
                    "finding" => finding = Some(value.to_string()),
                    "config" => {
                        // Corpus files come from outside the program: the
                        // machine spec must name every key.
                        if missing_key(value, &MACHINE_KEYS).is_some() {
                            return Err(bad());
                        }
                        config = Some(PipelineConfig::from_spec(value).map_err(|_| bad())?);
                    }
                    "faults" if value == "none" => faults = Some(None),
                    "faults" => {
                        faults = Some(Some(FaultPlan::from_spec(value).map_err(|_| bad())?))
                    }
                    "max-cycles" => max_cycles = Some(value.parse().map_err(|_| bad())?),
                    "oracle-steps" => oracle_steps = Some(value.parse().map_err(|_| bad())?),
                    _ => return Err(bad()),
                }
                continue;
            }
            in_header = false;
            bodies.push(String::new());
        }
        if let Some(h) = header {
            if let Some(t) = h.strip_prefix("thread ") {
                if t.trim().parse::<usize>().is_err() {
                    return Err(bad());
                }
                bodies.push(String::new());
                continue;
            }
        }
        if let Some(body) = bodies.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    let missing = |key| CorpusError::MissingHeader {
        path: path.to_path_buf(),
        key,
    };
    let mut config = config.ok_or_else(|| missing("config"))?;
    // The replay arms the auditor and the watchdog, as every fuzz case does.
    config.audit = true;
    config.watchdog_window = 50_000;
    config.faults = faults.ok_or_else(|| missing("faults"))?;
    if bodies.is_empty() || bodies.len() != config.threads {
        return Err(CorpusError::BadProgram {
            path: path.to_path_buf(),
            err: format!(
                "{} program bodies for {} threads",
                bodies.len(),
                config.threads
            ),
        });
    }
    let mut programs = Vec::with_capacity(bodies.len());
    for body in &bodies {
        programs.push(assemble(body).map_err(|e| CorpusError::BadProgram {
            path: path.to_path_buf(),
            err: e.to_string(),
        })?);
    }
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    Ok(CorpusEntry {
        name: name.unwrap_or_else(|| stem.clone()),
        recorded_finding: finding.ok_or_else(|| missing("finding"))?,
        case: FuzzCase {
            seed: 0,
            profile: GenProfile::Mixed,
            config,
            programs,
            max_cycles: max_cycles.ok_or_else(|| missing("max-cycles"))?,
            oracle_steps: oracle_steps.ok_or_else(|| missing("oracle-steps"))?,
        },
    })
}

/// Write one corpus entry to `dir/<name>.ll`.
pub fn save_entry(
    dir: &Path,
    name: &str,
    case: &FuzzCase,
    finding: &Finding,
) -> Result<PathBuf, CorpusError> {
    std::fs::create_dir_all(dir).map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
    let path = dir.join(format!("{name}.ll"));
    std::fs::write(&path, to_text(name, case, finding))
        .map_err(|e| CorpusError::Io(path.clone(), e))?;
    Ok(path)
}

/// Load every `.ll` file in a directory, sorted by file name. Any
/// unreadable or stale entry is a hard error.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusEntry>, CorpusError> {
    let rd = std::fs::read_dir(dir).map_err(|e| CorpusError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ll"))
        .collect();
    paths.sort();
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| CorpusError::Io(path.clone(), e))?;
        entries.push(from_text(&path, &text)?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{run_case, FindingKind};
    use std::path::Path;

    fn sample_case() -> FuzzCase {
        FuzzCase::from_seed(7, Some(GenProfile::Mixed))
    }

    fn sample_finding() -> Finding {
        Finding {
            kind: FindingKind::RetireDivergence,
            detail: "test".into(),
        }
    }

    #[test]
    fn corpus_text_round_trips() {
        // Every sampled machine and fault plan, faults included, comes
        // back `{:?}`-equal.
        for seed in 0..200 {
            let case = FuzzCase::from_seed(seed, None);
            let text = to_text("t", &case, &sample_finding());
            let entry = from_text(Path::new("t.ll"), &text).expect("parse");
            assert_eq!(
                format!("{:?}", entry.case.config),
                format!("{:?}", case.config),
                "seed {seed}"
            );
        }
        let case = sample_case();
        let text = to_text("t", &case, &sample_finding());
        let entry = from_text(Path::new("t.ll"), &text).expect("parse");
        assert_eq!(entry.case.programs.len(), case.programs.len());
        for (a, b) in entry.case.programs.iter().zip(&case.programs) {
            assert_eq!(a.insts, b.insts);
            assert_eq!(a.init_data, b.init_data);
        }
        assert_eq!(entry.case.max_cycles, case.max_cycles);
        // And the round-tripped case actually runs.
        assert!(run_case(&entry.case).finding.is_none());
    }

    #[test]
    fn faults_round_trip_exactly() {
        let mut case = sample_case();
        case.config.faults = Some(FaultPlan {
            seed: 0xdead_beef,
            branch_flip_rate: 0.123456789,
            load_spike_rate: 0.25,
            load_spike_cycles: 77,
            operand_miss_rate: 0.0625,
            window: Some((100, 9_999)),
        });
        let text = to_text("t", &case, &sample_finding());
        let entry = from_text(Path::new("t.ll"), &text).expect("parse");
        let got = entry.case.config.faults.expect("plan survives");
        let want = case.config.faults.unwrap();
        assert_eq!(got.seed, want.seed);
        assert_eq!(got.branch_flip_rate, want.branch_flip_rate);
        assert_eq!(got.load_spike_rate, want.load_spike_rate);
        assert_eq!(got.load_spike_cycles, want.load_spike_cycles);
        assert_eq!(got.operand_miss_rate, want.operand_miss_rate);
        assert_eq!(got.window, want.window);
    }

    #[test]
    fn wrong_version_banner_fails_loudly() {
        let case = sample_case();
        let mut text = to_text("t", &case, &sample_finding());
        text = text.replace("corpus v1", "corpus v0");
        let err = from_text(Path::new("stale.ll"), &text).unwrap_err();
        assert!(matches!(err, CorpusError::BadBanner { .. }), "{err}");
        assert!(err.to_string().contains("stale.ll"));
    }

    #[test]
    fn unknown_header_key_fails_loudly() {
        let case = sample_case();
        let text =
            to_text("t", &case, &sample_finding()).replace("; max-cycles:", "; cycle-budget:");
        let err = from_text(Path::new("t.ll"), &text).unwrap_err();
        assert!(matches!(err, CorpusError::BadHeader { .. }), "{err}");
    }

    #[test]
    fn incomplete_or_malformed_specs_fail_loudly() {
        let text = to_text("t", &sample_case(), &sample_finding());
        for (from, to) in [
            (" threads=", " cores="),
            (" rf=", " ex="),
            ("policy=", "policy=yolo"),
            ("; faults: ", "; faults: gamma=1 "),
        ] {
            assert!(text.contains(from), "{from}");
            let err = from_text(Path::new("t.ll"), &text.replacen(from, to, 1)).unwrap_err();
            assert!(matches!(err, CorpusError::BadHeader { .. }), "{to}: {err}");
        }
    }

    #[test]
    fn missing_header_fails_loudly() {
        let case = sample_case();
        let text: String = to_text("t", &case, &sample_finding())
            .lines()
            .filter(|l| !l.starts_with("; faults:"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = from_text(Path::new("t.ll"), &text).unwrap_err();
        assert!(matches!(
            err,
            CorpusError::MissingHeader { key: "faults", .. }
        ));
    }
}
