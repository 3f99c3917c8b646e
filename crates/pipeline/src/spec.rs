//! One text form for a machine, read and written by the CLI's machine
//! flags, its `--inject` value and the fuzz corpus header.
//!
//! A **machine spec** is `scheme=base|dra rf=N dec=N ex=N policy=NAME
//! predictor=NAME threads=N`: `scheme` (default `base`) and `rf` (default
//! 3) pick [`PipelineConfig::base_for_rf`] or [`PipelineConfig::dra_for_rf`],
//! and the other keys override that preset. A **fault spec** is `seed=N
//! branch=RATE load=RATE[:CYCLES] operand=RATE window=A:B|none` over
//! [`FaultPlan::default`]. Fields are split at commas or whitespace, so
//! `--inject seed=7,branch=0.05` is the corpus line `seed=7 branch=0.05`.
//! The printers name every key, and what they print parses back equal.

use crate::config::{LoadSpecPolicy, PipelineConfig};
use crate::faults::FaultPlan;
use looseloops_branch::PredictorKind;
use std::str::FromStr;

/// The machine-spec keys, in the order [`PipelineConfig::spec`] prints them.
pub const MACHINE_KEYS: [&str; 7] = [
    "scheme",
    "rf",
    "dec",
    "ex",
    "policy",
    "predictor",
    "threads",
];

const FAULT_KEYS: [&str; 5] = ["seed", "branch", "load", "operand", "window"];

/// A spec that does not parse, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// The `(key, value)` fields of a spec.
fn fields(spec: &str) -> impl Iterator<Item = Result<(&str, &str), SpecError>> {
    let words = spec.split(|c: char| c == ',' || c.is_whitespace());
    words.filter(|w| !w.is_empty()).map(|w| {
        w.split_once('=')
            .ok_or_else(|| SpecError(format!("`{w}`: expected key=value")))
    })
}

/// The first of `keys` that `spec` does not name, if any.
pub fn missing_key<'k>(spec: &str, keys: &[&'k str]) -> Option<&'k str> {
    let named = |key: &str| fields(spec).any(|f| f.is_ok_and(|(k, _)| k == key));
    keys.iter().copied().find(|key| !named(key))
}

fn num<T: FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError(format!("{key}: bad value `{value}`")))
}

fn unknown(what: &str, value: &str, names: &[&str]) -> SpecError {
    SpecError(format!("unknown {what} `{value}` ({})", names.join("|")))
}

/// The member of `all` called `value`; the error lists every name.
fn named<T: Copy, const N: usize>(
    what: &str,
    value: &str,
    all: [T; N],
    name: fn(T) -> &'static str,
) -> Result<T, SpecError> {
    let names = all.map(name);
    let i = names.iter().position(|&n| n == value);
    Ok(all[i.ok_or_else(|| unknown(what, value, &names))?])
}

impl PipelineConfig {
    /// Parse a machine spec; keys left out keep the preset's values. The
    /// result is not validated.
    ///
    /// # Errors
    ///
    /// A field that is not `key=value`, an unknown key or a bad value.
    pub fn from_spec(spec: &str) -> Result<PipelineConfig, SpecError> {
        let fields = fields(spec).collect::<Result<Vec<_>, _>>()?;
        let last = |key| fields.iter().rev().find(|(k, _)| *k == key).map(|f| f.1);
        let rf = last("rf").map_or(Ok(3), |v| num("rf", v))?;
        let mut cfg = match last("scheme").unwrap_or("base") {
            "base" => PipelineConfig::base_for_rf(rf),
            "dra" => PipelineConfig::dra_for_rf(rf),
            other => return Err(unknown("scheme", other, &["base", "dra"])),
        };
        for (key, value) in fields {
            match key {
                "scheme" | "rf" => {}
                "dec" => cfg.dec_iq_stages = num(key, value)?,
                "ex" => cfg.iq_ex_stages = num(key, value)?,
                "policy" => {
                    cfg.load_policy =
                        named(key, value, LoadSpecPolicy::all(), LoadSpecPolicy::name)?
                }
                "predictor" => {
                    cfg.predictor = named(key, value, PredictorKind::all(), PredictorKind::name)?
                }
                "threads" => cfg.threads = num(key, value)?,
                _ => return Err(unknown("machine key", key, &MACHINE_KEYS)),
            }
        }
        Ok(cfg)
    }

    /// The machine spec of this configuration.
    pub fn spec(&self) -> String {
        format!(
            "scheme={} rf={} dec={} ex={} policy={} predictor={} threads={}",
            if self.scheme.is_dra() { "dra" } else { "base" },
            self.rf_read_latency,
            self.dec_iq_stages,
            self.iq_ex_stages,
            self.load_policy.name(),
            self.predictor.name(),
            self.threads
        )
    }
}

impl FaultPlan {
    /// Parse a fault spec; keys left out keep [`FaultPlan::default`]'s
    /// values (seed 1). The rates are not validated.
    ///
    /// # Errors
    ///
    /// A field that is not `key=value`, an unknown key or a bad value.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut plan = FaultPlan::default();
        for field in fields(spec) {
            let (key, value) = field?;
            match (key, value.split_once(':')) {
                ("seed", _) => plan.seed = num(key, value)?,
                ("branch", _) => plan.branch_flip_rate = num(key, value)?,
                ("load", None) => plan.load_spike_rate = num(key, value)?,
                ("load", Some((rate, cycles))) => {
                    plan.load_spike_rate = num(key, rate)?;
                    plan.load_spike_cycles = num(key, cycles)?;
                }
                ("operand", _) => plan.operand_miss_rate = num(key, value)?,
                ("window", _) if value == "none" => plan.window = None,
                ("window", Some((a, b))) => plan.window = Some((num(key, a)?, num(key, b)?)),
                ("window", None) => {
                    return Err(SpecError(format!("window: `{value}` is not A:B|none")))
                }
                _ => return Err(unknown("fault key", key, &FAULT_KEYS)),
            }
        }
        Ok(plan)
    }

    /// The fault spec of this plan.
    pub fn spec(&self) -> String {
        let window = self
            .window
            .map_or("none".into(), |(a, b)| format!("{a}:{b}"));
        format!(
            "seed={} branch={} load={}:{} operand={} window={window}",
            self.seed,
            self.branch_flip_rate,
            self.load_spike_rate,
            self.load_spike_cycles,
            self.operand_miss_rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_spec_picks_the_preset_then_overrides() {
        let cfg = PipelineConfig::from_spec("dec=9 scheme=dra,rf=7").unwrap();
        let want = PipelineConfig {
            dec_iq_stages: 9,
            ..PipelineConfig::dra_for_rf(7)
        };
        assert_eq!(format!("{cfg:?}"), format!("{want:?}"));
        let empty = PipelineConfig::from_spec("").unwrap();
        assert_eq!(
            format!("{empty:?}"),
            format!("{:?}", PipelineConfig::base())
        );
    }

    #[test]
    fn machine_spec_errors_name_the_alternatives() {
        let err = |s| PipelineConfig::from_spec(s).unwrap_err().0;
        // The policy and predictor texts are checked through the CLI.
        assert_eq!(err("scheme=fancy"), "unknown scheme `fancy` (base|dra)");
        assert_eq!(err("dec=x"), "dec: bad value `x`");
        assert_eq!(err("rf"), "`rf`: expected key=value");
        assert!(err("width=4").starts_with("unknown machine key `width`"));
    }

    #[test]
    fn fault_spec_parses_both_separators() {
        let a = FaultPlan::from_spec("seed=7,branch=0.05,load=0.1:300").unwrap();
        let b = FaultPlan::from_spec("seed=7 branch=0.05 load=0.1:300").unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.branch_flip_rate), (7, 0.05));
        assert_eq!((a.load_spike_rate, a.load_spike_cycles), (0.1, 300));
        // A load rate alone keeps the default spike length.
        let c = FaultPlan::from_spec("load=0.5").unwrap();
        assert_eq!(c.load_spike_cycles, FaultPlan::default().load_spike_cycles);
        assert_eq!(c.seed, 1);
    }

    #[test]
    fn fault_spec_errors() {
        let err = |s| FaultPlan::from_spec(s).unwrap_err().0;
        assert!(err("gamma=0.5").starts_with("unknown fault key `gamma`"));
        assert_eq!(err("branch"), "`branch`: expected key=value");
        assert_eq!(err("branch=lots"), "branch: bad value `lots`");
        assert_eq!(err("load=0.1:soon"), "load: bad value `soon`");
        assert_eq!(err("window=5"), "window: `5` is not A:B|none");
    }
}
