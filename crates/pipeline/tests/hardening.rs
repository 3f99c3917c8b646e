//! Hardening integration tests: the forward-progress watchdog, the
//! per-cycle invariant auditor, and fault-injection storms with full
//! architectural verification against the ISA interpreter.

use looseloops_isa::{asm, ArchState, FlatMemory, Reg};
use looseloops_pipeline::{FaultPlan, Machine, PipelineConfig, SimError};

/// 200-iteration accumulation loop: r2 ends at 1 + 2 + … + 200 = 20100.
const SUM_LOOP: &str = "
        addi r1, r31, 200
    top:
        add  r2, r2, r1
        subi r1, r1, 1
        bne  r1, top
        halt
";
const SUM_LOOP_RESULT: u64 = 20_100;

/// Load-heavy loop: walks an 8-quadword table 25 times, r4 ends at 25 * 36.
const LOAD_LOOP: &str = "
    .data 0x1000, 1, 2, 3, 4, 5, 6, 7, 8
        addi r5, r31, 25
    rep:
        addi r1, r31, 0x1000
        addi r2, r31, 8
    top:
        ldq  r3, 0(r1)
        add  r4, r4, r3
        addi r1, r1, 8
        subi r2, r2, 1
        bne  r2, top
        subi r5, r5, 1
        bne  r5, rep
        halt
";
const LOAD_LOOP_RESULT: u64 = 25 * 36;

/// Run `src` to halt under `cfg` with the auditor and the retired-result
/// oracle both on; every retirement is checked against the ISA
/// interpreter, so a storm that corrupts architectural state panics here.
fn run_verified(mut cfg: PipelineConfig, src: &str) -> Machine {
    cfg.audit = true;
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 4_000_000).unwrap();
    assert!(
        m.is_done(),
        "program must halt under the storm: cycle={}",
        m.cycle()
    );
    m
}

/// Final-state check through the public diff API: run the interpreter on
/// `src` to halt and require the machine's drained architectural state
/// (all 64 registers, PC, halt flag — and, when `check_mem`, every byte of
/// data memory) to diff empty against it. Returns the oracle state so
/// callers can pin expected constants against the *reference* model.
fn assert_state_matches_oracle(
    m: &mut Machine,
    src: &str,
    thread: usize,
    check_mem: bool,
) -> ArchState {
    let prog = asm::assemble(src).unwrap();
    let mut mem = FlatMemory::with_program(&prog);
    let mut oracle = ArchState::new(&prog);
    let summary = oracle.run(&prog, &mut mem, 10_000_000).unwrap();
    assert!(summary.halted, "oracle run must halt");
    let d = oracle.diff(&m.arch_state(thread));
    assert!(
        d.is_empty(),
        "thread {thread} final state diverged from the oracle:\n{}",
        d.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    if check_mem {
        let md = mem.diff(m.data_mem());
        assert!(
            md.is_empty(),
            "data memory diverged from the oracle:\n{}",
            md.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    oracle
}

#[test]
fn wedged_pipeline_returns_deadlock_error_with_snapshot() {
    // Every load spikes by 10M cycles: the first load wedges the ROB head
    // far beyond the watchdog window, so the watchdog must fire long
    // before max_cycles.
    let mut cfg = PipelineConfig::base();
    cfg.watchdog_window = 5_000;
    cfg.faults = Some(FaultPlan::load_storm(3, 1.0, 10_000_000));
    let prog = asm::assemble(LOAD_LOOP).unwrap();
    let mut m = Machine::new(cfg, vec![prog]).unwrap();

    let err = m.run(u64::MAX, 1_000_000).expect_err("pipeline must wedge");
    let SimError::Deadlock(d) = err else {
        panic!("expected Deadlock, got: {err}")
    };
    assert_eq!(d.window, 5_000);
    assert!(
        d.cycle >= 5_000 && d.cycle < 1_000_000,
        "fired at {}",
        d.cycle
    );
    assert!(d.cycle - d.last_retire_cycle >= 5_000);

    // The snapshot must describe a genuinely wedged machine.
    assert_eq!(d.snapshot.cycle, d.cycle);
    assert_eq!(d.snapshot.threads.len(), 1);
    assert!(!d.snapshot.threads[0].done);
    assert!(
        d.snapshot.in_flight > 0,
        "a wedge holds instructions in flight"
    );
    let oldest = d.snapshot.threads[0].oldest.expect("ROB head present");
    assert!(oldest.1 > 0, "oldest instruction has a pc");

    // The human-readable report names the wedge and the per-stage state.
    let text = d.to_string();
    assert!(text.contains("pipeline deadlock"), "{text}");
    assert!(text.contains("thread 0"), "{text}");

    assert_eq!(m.stats().deadlocks_detected, 1);
}

#[test]
fn watchdog_zero_disables_detection() {
    // Same wedge, window 0: the run must instead exhaust max_cycles
    // without an error (the pre-hardening behaviour).
    let mut cfg = PipelineConfig::base();
    cfg.watchdog_window = 0;
    cfg.faults = Some(FaultPlan::load_storm(3, 1.0, 10_000_000));
    let prog = asm::assemble(LOAD_LOOP).unwrap();
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    m.run(u64::MAX, 20_000).unwrap();
    assert!(!m.is_done());
    assert_eq!(m.stats().deadlocks_detected, 0);
}

#[test]
fn branch_storm_recovers_and_results_match_isa() {
    // Flip 20% of all conditional-branch direction predictions: a
    // mispredict storm stresses the control-resolution loop's squash path.
    let mut m = run_verified(
        PipelineConfig {
            faults: Some(FaultPlan::branch_storm(11, 0.2)),
            ..PipelineConfig::base()
        },
        SUM_LOOP,
    );
    let oracle = assert_state_matches_oracle(&mut m, SUM_LOOP, 0, true);
    assert_eq!(oracle.read_reg(Reg::int(2)), SUM_LOOP_RESULT);
    let s = m.stats().clone();
    assert!(s.faults_injected > 0, "storm must fire");
    assert!(
        s.faults_by_kind[0] > 0,
        "branch flips recorded: {:?}",
        s.faults_by_kind
    );
    assert!(s.audit_checks > 0, "auditor ran every cycle");
    assert!(s.branch_mispredicts > 0);
    // Scheduled-vs-fired audit: every armed opportunity was presented to
    // the injector and every hit it reported reached the machine's stats —
    // a silently dropped injection fails here.
    let sum = m.fault_summary().expect("plan armed");
    assert_eq!(sum.fired, s.faults_by_kind, "fired faults all took effect");
    assert_eq!(sum.total_fired(), s.faults_injected);
    assert!(
        sum.scheduled[0] >= sum.fired[0] && sum.fired[0] > 0,
        "summary: {sum}"
    );
}

#[test]
fn load_spike_storm_recovers_and_results_match_isa() {
    // Delay 30% of loads by 150 cycles: stresses the load-resolution
    // loop's delayed-wakeup correction path.
    let mut m = run_verified(
        PipelineConfig {
            faults: Some(FaultPlan::load_storm(12, 0.3, 150)),
            ..PipelineConfig::base()
        },
        LOAD_LOOP,
    );
    let oracle = assert_state_matches_oracle(&mut m, LOAD_LOOP, 0, true);
    assert_eq!(oracle.read_reg(Reg::int(4)), LOAD_LOOP_RESULT);
    let s = m.stats().clone();
    assert!(s.faults_injected > 0);
    assert!(
        s.faults_by_kind[1] > 0,
        "load spikes recorded: {:?}",
        s.faults_by_kind
    );
    let sum = m.fault_summary().expect("plan armed");
    assert_eq!(sum.fired, s.faults_by_kind);
    assert!(sum.scheduled[1] >= sum.fired[1], "summary: {sum}");
}

#[test]
fn operand_miss_storm_recovers_and_results_match_isa() {
    // DRA machine with 10% of operand lookups forced to miss: every miss
    // takes the architected register-file recovery path (squash + refetch
    // behind a front-end stall), the paper's operand-resolution loop.
    let mut m = run_verified(
        PipelineConfig {
            faults: Some(FaultPlan::operand_storm(13, 0.1)),
            ..PipelineConfig::dra_for_rf(5)
        },
        SUM_LOOP,
    );
    let oracle = assert_state_matches_oracle(&mut m, SUM_LOOP, 0, true);
    assert_eq!(oracle.read_reg(Reg::int(2)), SUM_LOOP_RESULT);
    let s = m.stats().clone();
    assert!(s.faults_injected > 0);
    assert!(
        s.faults_by_kind[2] > 0,
        "operand misses recorded: {:?}",
        s.faults_by_kind
    );
    assert!(
        s.operand_misses > 0,
        "forced misses flow into the regular miss counter"
    );
    let sum = m.fault_summary().expect("plan armed");
    assert_eq!(sum.fired, s.faults_by_kind);
    assert!(sum.scheduled[2] >= sum.fired[2], "summary: {sum}");
}

#[test]
fn ipc_recovers_after_a_windowed_storm() {
    // Storm confined to cycles [0, 2000): after it ends the machine must
    // return to fault-free throughput, so the total slowdown is bounded by
    // a small multiple of the fault-free run, not a permanent degradation.
    let baseline = {
        let m = run_verified(PipelineConfig::base(), SUM_LOOP);
        assert_eq!(m.arch_reg(0, Reg::int(2)), SUM_LOOP_RESULT);
        m.cycle()
    };
    let plan = FaultPlan::branch_storm(17, 0.5).in_window(0, 2_000);
    let m = run_verified(
        PipelineConfig {
            faults: Some(plan),
            ..PipelineConfig::base()
        },
        SUM_LOOP,
    );
    assert_eq!(m.arch_reg(0, Reg::int(2)), SUM_LOOP_RESULT);
    let stormed = m.cycle();
    assert!(stormed >= baseline, "a storm cannot speed the machine up");
    assert!(
        stormed < baseline + 3 * 2_000,
        "post-storm IPC must recover: baseline={baseline} stormed={stormed}"
    );
    // All injection happened inside the window: the summary must show
    // opportunities scheduled after cycle 2000 that never fired.
    assert!(m.stats().faults_injected > 0);
    let sum = m.fault_summary().expect("plan armed");
    assert!(
        sum.scheduled[0] > sum.fired[0],
        "post-window opportunities must be scheduled but not fired: {sum}"
    );
    assert_eq!(sum.total_fired(), m.stats().faults_injected);
}

#[test]
fn fault_schedules_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let plan = FaultPlan::branch_storm(seed, 0.2);
        let m = run_verified(
            PipelineConfig {
                faults: Some(plan),
                ..PipelineConfig::base()
            },
            SUM_LOOP,
        );
        (
            m.cycle(),
            m.stats().faults_injected,
            m.stats().branch_mispredicts,
        )
    };
    assert_eq!(run(42), run(42), "same seed, same storm, same timing");
}

#[test]
fn combined_storm_on_smt_dra_machine_stays_architecturally_correct() {
    // Everything at once on the most complex configuration: two threads,
    // DRA register caches, branch flips + load spikes + operand misses.
    let mut cfg = PipelineConfig::dra_for_rf(5).smt(2);
    cfg.audit = true;
    cfg.faults = Some(FaultPlan {
        seed: 99,
        branch_flip_rate: 0.1,
        load_spike_rate: 0.1,
        load_spike_cycles: 80,
        operand_miss_rate: 0.05,
        window: None,
    });
    let p0 = asm::assemble(SUM_LOOP).unwrap();
    let p1 = asm::assemble(LOAD_LOOP).unwrap();
    let mut m = Machine::new(cfg, vec![p0, p1]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 8_000_000).unwrap();
    assert!(m.is_done());
    // Per-thread register/PC/halt state must diff empty against the oracle
    // (memory is shared between threads under SMT, so skip the byte diff).
    let o0 = assert_state_matches_oracle(&mut m, SUM_LOOP, 0, false);
    let o1 = assert_state_matches_oracle(&mut m, LOAD_LOOP, 1, false);
    assert_eq!(o0.read_reg(Reg::int(2)), SUM_LOOP_RESULT);
    assert_eq!(o1.read_reg(Reg::int(4)), LOAD_LOOP_RESULT);
    let s = m.stats().clone();
    assert!(
        s.faults_by_kind.iter().all(|&n| n > 0),
        "all three kinds fired: {:?}",
        s.faults_by_kind
    );
    assert_eq!(s.faults_injected, s.faults_by_kind.iter().sum::<u64>());
    let sum = m.fault_summary().expect("plan armed");
    assert_eq!(sum.fired, s.faults_by_kind);
    assert!(sum
        .scheduled
        .iter()
        .zip(sum.fired.iter())
        .all(|(s, f)| s >= f));
}
