//! Pinned reference outputs: figure digests and detailed CPIs.
//!
//! Both files live in `reference/` and are compiled into the binary, so a
//! run reads nothing from disk to check itself. `perfbench --reference`
//! regenerates them (see `reference.rs`).

use looseloops::{fnv1a64, FigureResult};
use std::collections::HashMap;

/// `workload <TAB> figure id <TAB> digest` lines.
pub const DIGESTS: &str = include_str!("../reference/digests.tsv");
/// `job key digest <TAB> label <TAB> detailed CPI` lines.
pub const DETAILED_CPI: &str = include_str!("../reference/detailed_cpi.tsv");

/// Stable digest of a rendered figure: FNV-1a over its full-precision
/// JSON rendering, so any change to any value, label or title shows.
pub fn digest(fig: &FigureResult) -> u64 {
    fnv1a64(fig.to_json().as_bytes())
}

/// Data lines of a pinned file, split on tabs (comments and blanks skipped).
fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

/// The pinned digests of `workload`, figure id → digest.
pub fn digests_for(pins: &str, workload: &str) -> Vec<(String, u64)> {
    rows(pins)
        .filter(|r| r.len() == 3 && r[0] == workload)
        .filter_map(|r| Some((r[1].to_string(), u64::from_str_radix(r[2], 16).ok()?)))
        .collect()
}

/// Pinned detailed CPI per job key digest.
pub fn detailed_cpi(pins: &str) -> HashMap<u64, f64> {
    rows(pins)
        .filter(|r| r.len() == 3)
        .filter_map(|r| Some((u64::from_str_radix(r[0], 16).ok()?, r[2].parse().ok()?)))
        .collect()
}

/// Compare rendered figures against `expected` (figure id → digest).
/// Returns (checks made, failure messages). A pinned figure that is
/// missing, a figure without a pin, and a digest mismatch all fail; none
/// is skipped.
pub fn check_figures(figures: &[FigureResult], expected: &[(String, u64)]) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for (id, want) in expected {
        match figures.iter().find(|f| &f.id == id) {
            None => failures.push(format!("{id}: no figure rendered")),
            Some(f) if digest(f) != *want => failures.push(format!(
                "{id}: digest {:016x}, pinned {want:016x}",
                digest(f)
            )),
            Some(_) => {}
        }
    }
    for f in figures {
        if !expected.iter().any(|(id, _)| *id == f.id) {
            failures.push(format!("{}: rendered but not pinned", f.id));
        }
    }
    let checks = expected.len().max(figures.len()) as u64;
    (checks, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops::Series;

    fn fig(id: &str, v: f64) -> FigureResult {
        FigureResult {
            id: id.into(),
            title: "t".into(),
            columns: vec!["a".into()],
            series: vec![Series {
                label: "s".into(),
                values: vec![v],
            }],
            paper_expectation: String::new(),
        }
    }

    #[test]
    fn matching_digests_pass() {
        let f = fig("fig4", 1.0);
        let pins = format!("# header\ndetailed-grid\tfig4\t{:016x}\n", digest(&f));
        let expected = digests_for(&pins, "detailed-grid");
        assert_eq!(check_figures(&[f], &expected), (1, vec![]));
    }

    #[test]
    fn a_perturbed_digest_is_a_failure_not_a_skip() {
        let f = fig("fig4", 1.0);
        let pins = format!("detailed-grid\tfig4\t{:016x}\n", digest(&f) ^ 1);
        let (checks, failures) = check_figures(&[f], &digests_for(&pins, "detailed-grid"));
        assert_eq!(checks, 1);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("pinned"));
    }

    #[test]
    fn a_changed_value_changes_the_digest() {
        assert_ne!(digest(&fig("fig4", 1.0)), digest(&fig("fig4", 1.0 + 1e-15)));
    }

    #[test]
    fn missing_and_unpinned_figures_fail() {
        let (_, failures) = check_figures(&[fig("fig8", 1.0)], &[("fig4".into(), 7)]);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn checked_in_pins_cover_the_pinned_workloads() {
        assert_eq!(digests_for(DIGESTS, "detailed-grid").len(), 2);
        assert_eq!(digests_for(DIGESTS, "sampled-all").len(), 11);
        assert!(!detailed_cpi(DETAILED_CPI).is_empty());
    }
}
