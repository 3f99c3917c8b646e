//! Result containers and table rendering for the figure harnesses.

use looseloops_pipeline::{CpiComponent, SimStats};
use std::fmt;

/// One data series (a line/bar group in a paper figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (usually a configuration like "9_3").
    pub label: String,
    /// One value per workload (or per x-axis point).
    pub values: Vec<f64>,
}

/// A reproduced figure: labeled rows × labeled columns of numbers.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure identifier ("fig4", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers (workload names or x values).
    pub columns: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
    /// What to expect from the paper, for EXPERIMENTS.md.
    pub paper_expectation: String,
}

impl FigureResult {
    /// Render as an aligned text table (what `looseloops figure` prints).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let wide = self
            .columns
            .iter()
            .map(String::len)
            .chain(self.series.iter().map(|s| s.label.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("{:>wide$}", "", wide = wide + 1));
        for c in &self.columns {
            out.push_str(&format!(" {c:>wide$}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:>wide$} ", s.label, wide = wide + 1));
            for v in &s.values {
                out.push_str(&format!(" {v:>wide$.4}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("paper: {}\n", self.paper_expectation));
        out
    }

    /// Serialize to JSON (`looseloops figure --json-out`).
    ///
    /// # Panics
    ///
    /// Never in practice: the structure contains only plain data.
    pub fn to_json(&self) -> String {
        json::render(self)
    }
}

/// One machine/workload point of a CPI-stack report: the measured CPI and
/// its decomposition into per-loop components (in [`CpiComponent::ALL`]
/// order). The components sum to `cpi` by construction — see
/// [`LoopCostStack::cpi_components`](looseloops_pipeline::LoopCostStack).
#[derive(Debug, Clone)]
pub struct CpiStackRow {
    /// Row label ("3_3/compute", …).
    pub label: String,
    /// Measured cycles per retired instruction.
    pub cpi: f64,
    /// CPI attributed to each component, [`CpiComponent::ALL`] order.
    pub components: Vec<f64>,
}

impl CpiStackRow {
    /// Build a row from a finished run's loop-cost stack.
    pub fn from_stats(label: impl Into<String>, stats: &SimStats) -> CpiStackRow {
        CpiStackRow {
            label: label.into(),
            cpi: stats.loop_cost.cpi(),
            components: stats.loop_cost.cpi_components().to_vec(),
        }
    }
}

/// A per-loop CPI-stack table: one row per machine/workload point, one
/// column per [`CpiComponent`]. Rendered alongside (never inside) the
/// figure's [`FigureResult`], so figure output is unchanged when stacks
/// are not requested.
#[derive(Debug, Clone)]
pub struct CpiStackReport {
    /// Identifier ("fig4-stacks", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Component column headers, [`CpiComponent::ALL`] order.
    pub components: Vec<String>,
    /// The rows.
    pub rows: Vec<CpiStackRow>,
}

impl CpiStackReport {
    /// A report with the standard component columns and no rows yet.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> CpiStackReport {
        CpiStackReport {
            id: id.into(),
            title: title.into(),
            components: CpiComponent::ALL.iter().map(|c| c.name().into()).collect(),
            rows: Vec::new(),
        }
    }

    /// Render as an aligned text table with a trailing `cpi` column (the
    /// sum of the component columns, up to float rounding).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self.components.iter().map(String::len).max().unwrap_or(8);
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("{:>label_w$}", ""));
        for c in &self.components {
            out.push_str(&format!(" {c:>col_w$}"));
        }
        out.push_str(&format!(" {:>col_w$}\n", "cpi"));
        for r in &self.rows {
            out.push_str(&format!("{:>label_w$}", r.label));
            for v in &r.components {
                out.push_str(&format!(" {v:>col_w$.4}"));
            }
            out.push_str(&format!(" {:>col_w$.4}\n", r.cpi));
        }
        out
    }
}

impl fmt::Display for CpiStackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

// Tiny hand-rolled JSON writer: the structures are flat and fully known,
// so a dependency is not warranted.
mod json {
    use super::FigureResult;

    /// Escape `s` as a JSON string literal (RFC 8259), quotes included.
    /// Every string in the output — id, title, columns, labels, the paper
    /// expectation — goes through this one path. Unlike Rust's `{:?}`,
    /// non-ASCII passes through verbatim (JSON is UTF-8) and control
    /// characters use `\u00XX`, not Rust's `\u{XX}`.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    pub fn render(fig: &FigureResult) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"id\": {},\n", string(&fig.id)));
        s.push_str(&format!("  \"title\": {},\n", string(&fig.title)));
        s.push_str(&format!(
            "  \"columns\": [{}],\n",
            fig.columns
                .iter()
                .map(|c| string(c))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"series\": [\n");
        for (i, ser) in fig.series.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"label\": {}, \"values\": [{}] }}{}\n",
                string(&ser.label),
                ser.values
                    .iter()
                    .map(|v| {
                        if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 == fig.series.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"paper_expectation\": {}\n",
            string(&fig.paper_expectation)
        ));
        s.push('}');
        s
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        FigureResult {
            id: "figX".into(),
            title: "sample".into(),
            columns: vec!["a".into(), "b".into()],
            series: vec![
                Series {
                    label: "s1".into(),
                    values: vec![1.0, 0.5],
                },
                Series {
                    label: "s2".into(),
                    values: vec![0.25, f64::NAN],
                },
            ],
            paper_expectation: "n/a".into(),
        }
    }

    #[test]
    fn table_contains_everything() {
        let t = sample().to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("s1"));
        assert!(t.contains("0.2500"));
        assert!(t.contains("paper: n/a"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\": \"figX\""));
        assert!(j.contains("null"), "NaN serializes as null");
    }

    #[test]
    fn display_matches_table() {
        let f = sample();
        assert_eq!(f.to_string(), f.to_table());
    }

    #[test]
    fn json_escapes_all_strings_through_one_path() {
        let mut f = sample();
        f.title = "a \"quoted\" title\nwith a newline".into();
        f.columns[1] = "tab\there".into();
        f.series[1].label = "back\\slash".into();
        let j = f.to_json();
        assert!(j.contains(r#""a \"quoted\" title\nwith a newline""#), "{j}");
        assert!(j.contains(r#""tab\there""#), "{j}");
        assert!(j.contains(r#""back\\slash""#), "{j}");
    }

    #[test]
    fn json_passes_utf8_through_and_escapes_controls() {
        assert_eq!(super::json::string("café π"), "\"café π\"");
        assert_eq!(super::json::string("\u{1}"), "\"\\u0001\"");
        assert_eq!(super::json::string("a\tb"), "\"a\\tb\"");
    }

    fn sample_stack() -> CpiStackReport {
        let mut rep = CpiStackReport::new("figX-stacks", "sample stacks");
        rep.rows.push(CpiStackRow {
            label: "3_3/compute".into(),
            cpi: 0.75,
            components: vec![0.5, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0, 0.0],
        });
        rep
    }

    #[test]
    fn stack_report_has_standard_columns_and_renders() {
        let rep = sample_stack();
        assert_eq!(rep.components.len(), 8);
        assert_eq!(rep.components[0], "base");
        assert_eq!(rep.components[1], "branch-resolution");
        let t = rep.to_table();
        assert!(t.contains("figX-stacks"));
        assert!(t.contains("3_3/compute"));
        assert!(t.contains("0.5000"));
        assert!(t.contains(" cpi"));
    }

    #[test]
    fn stack_row_from_stats_sums_to_cpi() {
        use looseloops_pipeline::CpiComponent;
        let mut stats = SimStats::new(1);
        for _ in 0..10 {
            stats.loop_cost.charge(8, 6, CpiComponent::BranchResolution);
        }
        stats.loop_cost.charge(8, 8, CpiComponent::Base);
        let row = CpiStackRow::from_stats("p", &stats);
        let sum: f64 = row.components.iter().sum();
        assert!((sum - row.cpi).abs() < 1e-12, "{sum} vs {}", row.cpi);
        assert_eq!(row.components.len(), 8);
    }
}
