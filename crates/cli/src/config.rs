//! Flag → [`PipelineConfig`] translation shared by the subcommands.

use crate::args::{ArgError, Args};
use looseloops::pipeline::spec::MACHINE_KEYS;
use looseloops::{FaultPlan, PipelineConfig, RunBudget};

/// Flags understood by every simulation-running subcommand.
pub const CONFIG_FLAGS: &[&str] = &[
    "scheme",
    "rf",
    "dec",
    "ex",
    "policy",
    "predictor",
    "audit",
    "watchdog",
    "inject",
];

/// Budget flags.
pub const BUDGET_FLAGS: &[&str] = &["warmup", "measure", "max-cycles"];

/// Build a machine configuration from flags. The machine flags are the
/// machine-spec keys ([`looseloops::pipeline::spec`]) but `threads`, which
/// the workload sets; `--inject` takes a fault spec.
///
/// # Errors
///
/// Reports specs that do not parse and invalid combinations (via
/// [`PipelineConfig::validate`]).
pub fn config_from_args(args: &Args) -> Result<PipelineConfig, ArgError> {
    let mut spec = Vec::new();
    for key in MACHINE_KEYS.into_iter().filter(|&key| key != "threads") {
        if let Some(v) = args.get(key) {
            // One flag is one spec field: its value may not add others.
            if v.contains(|c: char| c == ',' || c == '=' || c.is_whitespace()) {
                return Err(ArgError(format!("--{key}: bad value `{v}`")));
            }
            spec.push(format!("{key}={v}"));
        }
    }
    let mut cfg = PipelineConfig::from_spec(&spec.join(" ")).map_err(|e| ArgError(e.0))?;
    if args.has("audit") {
        cfg.audit = true;
    }
    cfg.watchdog_window = args.get_or("watchdog", cfg.watchdog_window)?;
    if let Some(spec) = args.get("inject") {
        let plan = FaultPlan::from_spec(spec).map_err(|e| ArgError(format!("--inject: {e}")))?;
        cfg.faults = Some(plan);
    }
    cfg.validate().map_err(|e| ArgError(e.to_string()))?;
    Ok(cfg)
}

/// Build a run budget from `--warmup/--measure/--max-cycles`.
///
/// # Errors
///
/// Fails on unparsable numbers.
pub fn budget_from_args(args: &Args) -> Result<RunBudget, ArgError> {
    let mut b = RunBudget::bench();
    b.warmup = args.get_or("warmup", b.warmup)?;
    b.measure = args.get_or("measure", b.measure)?;
    b.max_cycles = args.get_or("max-cycles", b.max_cycles)?;
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops::RegisterScheme;

    fn args(s: &str) -> Args {
        // Same value-flag set as main.rs: everything but the boolean --audit.
        let vals: Vec<&str> = CONFIG_FLAGS
            .iter()
            .chain(BUDGET_FLAGS.iter())
            .copied()
            .filter(|f| *f != "audit")
            .collect();
        Args::parse(s.split_whitespace().map(String::from), &vals).unwrap()
    }

    #[test]
    fn defaults_to_base_rf3() {
        let cfg = config_from_args(&args("")).unwrap();
        assert_eq!(cfg.scheme, RegisterScheme::Monolithic);
        assert_eq!(cfg.iq_ex_stages, 5);
    }

    #[test]
    fn dra_with_rf() {
        let cfg = config_from_args(&args("--scheme dra --rf 7")).unwrap();
        assert!(cfg.scheme.is_dra());
        assert_eq!(cfg.dec_iq_stages, 9);
        assert_eq!(cfg.iq_ex_stages, 3);
    }

    #[test]
    fn explicit_latencies_override() {
        let cfg = config_from_args(&args("--dec 7 --ex 5")).unwrap();
        assert_eq!((cfg.dec_iq_stages, cfg.iq_ex_stages), (7, 5));
    }

    #[test]
    fn bad_scheme_and_policy_report() {
        assert!(config_from_args(&args("--scheme fancy")).is_err());
        assert!(config_from_args(&args("--policy yolo")).is_err());
        assert!(config_from_args(&args("--predictor psychic")).is_err());
        // A flag value cannot smuggle in another key.
        assert!(config_from_args(&args("--dec 7,ex=9")).is_err());
        // The alternatives come from the enums' own name tables.
        assert_eq!(
            config_from_args(&args("--policy yolo")).unwrap_err().0,
            "unknown policy `yolo` (tree|shadow|stall|refetch)"
        );
        assert_eq!(
            config_from_args(&args("--predictor psychic"))
                .unwrap_err()
                .0,
            "unknown predictor `psychic` (tournament|gshare|local|bimodal|taken)"
        );
    }

    #[test]
    fn invalid_combination_caught_by_validate() {
        // IQ-EX shorter than the register read on the base scheme.
        assert!(config_from_args(&args("--rf 5 --ex 3")).is_err());
    }

    #[test]
    fn budget_parses() {
        let b = budget_from_args(&args("--warmup 10 --measure 20")).unwrap();
        assert_eq!((b.warmup, b.measure), (10, 20));
    }

    #[test]
    fn audit_and_watchdog_flags() {
        let cfg = config_from_args(&args("--audit --watchdog 1000")).unwrap();
        assert!(cfg.audit);
        assert_eq!(cfg.watchdog_window, 1000);
        let cfg = config_from_args(&args("")).unwrap();
        assert!(!cfg.audit);
    }

    #[test]
    fn inject_spec_parses() {
        let cfg = config_from_args(&args("--inject seed=7,branch=0.01,load=0.05:300")).unwrap();
        let plan = cfg.faults.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.branch_flip_rate, 0.01);
        assert_eq!(plan.load_spike_rate, 0.05);
        assert_eq!(plan.load_spike_cycles, 300);
        assert_eq!(plan.operand_miss_rate, 0.0);
    }

    #[test]
    fn bad_inject_specs_report() {
        assert!(config_from_args(&args("--inject gamma=0.5")).is_err());
        assert!(config_from_args(&args("--inject branch")).is_err());
        assert!(config_from_args(&args("--inject branch=lots")).is_err());
        // Out-of-range rate is caught by PipelineConfig::validate.
        assert!(config_from_args(&args("--inject branch=1.5")).is_err());
    }
}
