//! The master correctness property: whatever the timing configuration —
//! pipeline depths, register scheme, load-speculation policy — the pipeline
//! must retire *exactly* the instruction stream the functional interpreter
//! produces, value for value. Every speculation and recovery path
//! (branches, load shadows, operand misses, memory traps, TLB traps) is
//! covered because the oracle check runs at every retirement.
//!
//! Cases are drawn from a deterministic `looseloops-rng` seed schedule so
//! failures reproduce exactly.

use looseloops::workload::{synthetic, SyntheticParams};
use looseloops::{LoadSpecPolicy, Machine, PipelineConfig};
use looseloops_rng::Rng;

fn run_verified(cfg: PipelineConfig, params: SyntheticParams, instructions: u64) {
    let prog = synthetic(params);
    let mut m = Machine::new(cfg, vec![prog]).expect("valid config");
    m.enable_verification(); // the first divergence is the run's error
    m.run(instructions, 4_000_000)
        .expect("no deadlock or divergence");
    assert!(
        m.stats().total_retired() >= instructions.min(1000),
        "simulation made no progress"
    );
}

fn arb_params(rng: &mut Rng) -> SyntheticParams {
    let branches = rng.gen_range(0u32..5);
    let loads = rng.gen_range(0u32..4);
    let stores = rng.gen_range(0u32..2);
    let chain = rng.gen_range(0u32..8);
    let body_len = rng
        .gen_range(4u32..24)
        .max(branches + loads + stores + chain + 1);
    SyntheticParams {
        seed: rng.gen_range(1u64..10_000),
        body_len,
        branches,
        taken_bits: rng.gen_range(1u32..4),
        loads,
        stores,
        footprint: *rng.choose(&[16u32 << 10, 64 << 10, 1 << 20]).unwrap(),
        chain,
        fp: rng.gen_bool(0.5),
        base: 16 << 20,
    }
}

/// Audited configuration: the per-cycle invariant auditor runs throughout
/// every equivalence case, so any structural inconsistency a recovery path
/// introduces fails the run even if the architectural results still match.
fn audited(cfg: PipelineConfig) -> PipelineConfig {
    PipelineConfig { audit: true, ..cfg }
}

#[test]
fn base_machine_matches_interpreter() {
    let mut rng = Rng::seed_from_u64(0xe91);
    for _ in 0..12 {
        run_verified(audited(PipelineConfig::base()), arb_params(&mut rng), 4_000);
    }
}

#[test]
fn dra_machine_matches_interpreter() {
    let mut rng = Rng::seed_from_u64(0xe92);
    for _ in 0..12 {
        run_verified(
            audited(PipelineConfig::dra_for_rf(5)),
            arb_params(&mut rng),
            4_000,
        );
    }
}

#[test]
fn every_load_policy_matches_interpreter() {
    let mut rng = Rng::seed_from_u64(0xe93);
    for policy in [
        LoadSpecPolicy::Stall,
        LoadSpecPolicy::ReissueTree,
        LoadSpecPolicy::ReissueShadow,
        LoadSpecPolicy::Refetch,
    ] {
        for _ in 0..3 {
            let cfg = PipelineConfig {
                load_policy: policy,
                ..PipelineConfig::base()
            };
            run_verified(audited(cfg), arb_params(&mut rng), 3_000);
        }
    }
}

#[test]
fn extreme_latency_splits_match_interpreter() {
    let mut rng = Rng::seed_from_u64(0xe94);
    for (dec, ex) in [(3, 9), (9, 3), (3, 3), (9, 9)] {
        for _ in 0..3 {
            run_verified(
                audited(PipelineConfig::base_with_latencies(dec, ex)),
                arb_params(&mut rng),
                3_000,
            );
        }
    }
}

#[test]
fn every_benchmark_kernel_is_verified_on_base_and_dra() {
    use looseloops::workload::Benchmark;
    for b in Benchmark::all() {
        for cfg in [PipelineConfig::base(), PipelineConfig::dra_for_rf(7)] {
            let mut m = Machine::new(audited(cfg), vec![b.program()]).expect("valid config");
            m.enable_verification();
            m.run(6_000, 4_000_000).expect("no deadlock");
            assert!(m.stats().total_retired() >= 6_000, "{b} stalled");
        }
    }
}

#[test]
fn smt_pairs_are_verified() {
    use looseloops::workload::Benchmark;
    for pair in Benchmark::pairs() {
        let mut m = Machine::new(audited(PipelineConfig::base().smt(2)), pair.programs())
            .expect("valid config");
        m.enable_verification();
        m.run(8_000, 4_000_000).expect("no deadlock");
        assert!(
            m.stats().retired.iter().all(|&r| r > 0),
            "{pair} starved a thread"
        );
    }
}

/// The differential-fuzz harness covers the complementary angle: the
/// per-retire verifier above panics at the *first* divergent retirement,
/// while `run_case` lets both sides run to halt and then compares the
/// complete retire streams, the final architectural state (via the public
/// `ArchState::diff`) and the final data memory. Structure-aware generated
/// programs — nested loops, branch nests, aliased memory, dependence
/// chains, barriers, calls — run across sampled configs of both schemes.
#[test]
fn generated_programs_match_the_oracle_end_to_end() {
    for seed in 0..16u64 {
        let case = looseloops_fuzz::FuzzCase::from_seed(seed, None);
        let out = looseloops_fuzz::run_case(&case);
        assert!(
            out.finding.is_none(),
            "{}: {}",
            case.label(),
            out.finding.unwrap()
        );
        assert!(out.retired > 0, "{}: retired nothing", case.label());
    }
}

/// Two-thread SMT runs are oracle-exact too (threads use disjoint
/// address regions).
#[test]
fn smt_synthetic_matches_interpreter() {
    let mut rng = Rng::seed_from_u64(0xe95);
    for _ in 0..6 {
        let pa = synthetic(SyntheticParams {
            base: 16 << 20,
            ..arb_params(&mut rng)
        });
        let pb = synthetic(SyntheticParams {
            base: 144 << 20,
            ..arb_params(&mut rng)
        });
        let mut m = Machine::new(audited(PipelineConfig::base().smt(2)), vec![pa, pb])
            .expect("valid config");
        m.enable_verification();
        m.run(6_000, 4_000_000).expect("no deadlock");
        assert!(m.stats().retired.iter().all(|&r| r > 0));
    }
}
