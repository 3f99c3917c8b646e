//! End-to-end smoke tests for the pipeline machine.

use looseloops_isa::{asm, Reg};
use looseloops_pipeline::{LoadSpecPolicy, Machine, PipelineConfig, RegisterScheme};

fn run_to_halt(cfg: PipelineConfig, src: &str) -> Machine {
    let prog = asm::assemble(src).unwrap();
    // Every smoke test runs with the per-cycle invariant auditor on.
    let cfg = PipelineConfig { audit: true, ..cfg };
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 200_000).unwrap();
    assert!(
        m.is_done(),
        "program did not halt within budget: cycle={}",
        m.cycle()
    );
    m
}

const SUM_LOOP: &str = "
        addi r1, r31, 100
    top:
        add  r2, r2, r1
        subi r1, r1, 1
        bne  r1, top
        halt
";

#[test]
fn sum_loop_base() {
    let m = run_to_halt(PipelineConfig::base(), SUM_LOOP);
    assert_eq!(m.arch_reg(0, Reg::int(2)), 5050);
    let s = m.stats();
    assert_eq!(s.total_retired(), 302);
    assert!(s.ipc() > 0.5, "ipc={}", s.ipc());
}

#[test]
fn sum_loop_dra() {
    let m = run_to_halt(PipelineConfig::dra_for_rf(3), SUM_LOOP);
    assert_eq!(m.arch_reg(0, Reg::int(2)), 5050);
}

#[test]
fn loads_and_stores() {
    let src = "
        .data 0x1000, 1, 2, 3, 4, 5, 6, 7, 8
            addi r1, r31, 0x1000
            addi r2, r31, 8
        top:
            ldq  r3, 0(r1)
            add  r4, r4, r3
            addi r1, r1, 8
            subi r2, r2, 1
            bne  r2, top
            stq  r4, 0(r1)
            ldq  r5, 0(r1)
            halt
    ";
    let m = run_to_halt(PipelineConfig::base(), src);
    assert_eq!(m.arch_reg(0, Reg::int(4)), 36);
    assert_eq!(m.arch_reg(0, Reg::int(5)), 36);
    assert!(m.stats().loads >= 9);
}

#[test]
fn store_load_forwarding_same_addr() {
    let src = "
            addi r1, r31, 0x2000
            addi r2, r31, 42
            stq  r2, 0(r1)
            ldq  r3, 0(r1)
            add  r4, r3, r2
            halt
    ";
    let m = run_to_halt(PipelineConfig::base(), src);
    assert_eq!(m.arch_reg(0, Reg::int(4)), 84);
}

#[test]
fn call_return() {
    let src = "
            jsr r26, func
            addi r2, r1, 100
            halt
        func:
            addi r1, r31, 5
            ret r26
    ";
    let m = run_to_halt(PipelineConfig::base(), src);
    assert_eq!(m.arch_reg(0, Reg::int(2)), 105);
}

#[test]
fn all_load_policies_agree_on_results() {
    let src = "
        .data 0x3000, 10, 20, 30, 40
            addi r1, r31, 0x3000
            addi r2, r31, 4
        top:
            ldq  r3, 0(r1)
            add  r4, r4, r3
            addi r1, r1, 8
            subi r2, r2, 1
            bne  r2, top
            halt
    ";
    for policy in [
        LoadSpecPolicy::Stall,
        LoadSpecPolicy::ReissueTree,
        LoadSpecPolicy::ReissueShadow,
        LoadSpecPolicy::Refetch,
    ] {
        let cfg = PipelineConfig {
            load_policy: policy,
            ..PipelineConfig::base()
        };
        let m = run_to_halt(cfg, src);
        assert_eq!(m.arch_reg(0, Reg::int(4)), 100, "policy {policy:?}");
    }
}

#[test]
fn fp_math() {
    let src = "
        .data 0x100, 0x4004000000000000, 0x4010000000000000
            addi r1, r31, 0x100
            fldq f0, 0(r1)
            fldq f1, 8(r1)
            fmul f2, f0, f1
            fdiv f3, f2, f1
            fcmpeq r2, f3, f0
            halt
    ";
    let m = run_to_halt(PipelineConfig::base(), src);
    assert_eq!(m.arch_reg(0, Reg::int(2)), 1, "2.5 * 4.0 / 4.0 == 2.5");
}

#[test]
fn memory_barrier_retires() {
    let src = "
            addi r1, r31, 1
            mb
            addi r2, r1, 1
            halt
    ";
    let m = run_to_halt(PipelineConfig::base(), src);
    assert_eq!(m.arch_reg(0, Reg::int(2)), 2);
    assert_eq!(m.stats().mem_barriers, 1);
}

#[test]
fn smt_two_threads() {
    let p0 = asm::assemble(SUM_LOOP).unwrap();
    let p1 = asm::assemble(
        "
            addi r1, r31, 50
        top:
            add  r2, r2, r1
            subi r1, r1, 1
            bne  r1, top
            halt
    ",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base().smt(2), vec![p0, p1]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 400_000).unwrap();
    assert!(m.is_done());
    assert_eq!(m.arch_reg(0, Reg::int(2)), 5050);
    assert_eq!(m.arch_reg(1, Reg::int(2)), 1275);
}

#[test]
fn dra_is_used_and_reports_sources() {
    let mut cfg = PipelineConfig::dra_for_rf(3);
    cfg.scheme = RegisterScheme::dra();
    let m = run_to_halt(cfg, SUM_LOOP);
    let total: u64 = m.stats().operand_sources.iter().sum();
    assert!(total > 0, "operand sources recorded");
    // In the base machine the RegFile bucket is used; under DRA it must not be.
    assert_eq!(
        m.stats().operand_sources[3],
        0,
        "DRA never reads RF on the IQ-EX path"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let prog = asm::assemble(SUM_LOOP).unwrap();
        let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
        m.run(u64::MAX, 200_000).unwrap();
        (
            m.cycle(),
            m.stats().total_retired(),
            m.stats().branch_mispredicts,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn no_resource_leaks_after_drain() {
    // Branch-heavy program with plenty of squashes: after the halt retires
    // and the pipe drains, every speculative resource must be returned.
    let src = "
            addi r1, r31, 500
            addi r8, r31, 12345
        top:
            slli r3, r8, 13
            xor  r8, r8, r3
            srli r3, r8, 7
            xor  r8, r8, r3
            andi r4, r8, 3
            beq  r4, skip
            addi r16, r16, 1
        skip:
            subi r1, r1, 1
            bne  r1, top
            halt
    ";
    for cfg in [PipelineConfig::base(), PipelineConfig::dra_for_rf(5)] {
        let threads = cfg.threads;
        let phys = cfg.phys_regs;
        let prog = asm::assemble(src).unwrap();
        let mut m = Machine::new(cfg, vec![prog]).unwrap();
        m.enable_verification();
        m.run(u64::MAX, 2_000_000).unwrap();
        assert!(m.is_done());
        assert_eq!(m.in_flight(), 0, "slab must be empty after drain");
        assert_eq!(
            m.free_phys_regs(),
            phys - 64 * threads,
            "physical registers leaked"
        );
    }
}

#[test]
fn tlb_trap_policy_refetches_and_stays_correct() {
    use looseloops_isa::Reg;
    // Walk 128 pages (8 KiB apart) with an 8-entry worth of reuse: the
    // default Trap policy must squash+refetch yet retire the exact
    // functional stream.
    let src = "
            addi r1, r31, 64
        top:
            slli r2, r1, 13
            ldq  r3, 0(r2)
            add  r4, r4, r3
            subi r1, r1, 1
            bne  r1, top
            halt
    ";
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done());
    assert!(m.stats().tlb_traps > 0, "cold pages must trap");
    assert_eq!(m.arch_reg(0, Reg::int(4)), 0, "untouched memory reads zero");
}

#[test]
fn icount_shares_fetch_between_threads() {
    // One branch-heavy thread (wastes fetch) + one clean thread: ICOUNT
    // must keep the clean thread progressing at a healthy rate.
    let noisy = asm::assemble(
        "
            addi r8, r31, 77
        top:
            slli r3, r8, 13
            xor  r8, r8, r3
            srli r3, r8, 7
            xor  r8, r8, r3
            andi r4, r8, 1
            beq  r4, skip
            addi r16, r16, 1
        skip:
            br   top
    ",
    )
    .unwrap();
    let clean = asm::assemble(
        "
        top:
            addi r1, r1, 1
            addi r2, r2, 1
            addi r3, r3, 1
            addi r4, r4, 1
            br   top
    ",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base().smt(2), vec![noisy, clean]).unwrap();
    m.run(60_000, 2_000_000).unwrap();
    let s = m.stats();
    assert!(
        s.retired[1] > s.retired[0],
        "the clean thread should outpace the mispredicting one: {:?}",
        s.retired
    );
    assert!(
        s.retired[0] > 2_000,
        "the noisy thread must not starve: {:?}",
        s.retired
    );
}

#[test]
fn kanata_trace_accounts_for_every_instruction() {
    let src = "
            addi r1, r31, 30
        top:
            slli r3, r1, 3
            andi r4, r3, 8
            beq  r4, skip
            addi r16, r16, 1
        skip:
            subi r1, r1, 1
            bne  r1, top
            halt
    ";
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_trace();
    m.enable_verification();
    m.run(u64::MAX, 200_000).unwrap();
    assert!(m.is_done());
    let log = m.take_trace();
    assert!(log.starts_with("Kanata\t0004\n"));
    let fetched = log.lines().filter(|l| l.starts_with("I\t")).count();
    let ended = log.lines().filter(|l| l.starts_with("R\t")).count();
    assert_eq!(
        fetched, ended,
        "every traced instruction must retire or flush"
    );
    let retired = log
        .lines()
        .filter(|l| l.starts_with("R\t") && l.ends_with("\t0"))
        .count();
    assert_eq!(retired as u64, m.stats().total_retired());
    // Stage lines exist for the whole lifecycle.
    for stage in ["\tF", "\tDc", "\tQ", "\tIs", "\tX", "\tCm"] {
        assert!(log.contains(stage), "missing stage {stage}");
    }
}

#[test]
fn four_thread_smt_is_supported() {
    let mk = |n: i32| {
        asm::assemble(&format!(
            "
                addi r1, r31, {n}
            top:
                add  r2, r2, r1
                subi r1, r1, 1
                bne  r1, top
                halt
        "
        ))
        .unwrap()
    };
    let cfg = PipelineConfig::base().smt(4);
    let mut m = Machine::new(cfg, vec![mk(40), mk(50), mk(60), mk(70)]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 400_000).unwrap();
    assert!(m.is_done());
    for (t, n) in [(0u64, 40u64), (1, 50), (2, 60), (3, 70)] {
        assert_eq!(
            m.arch_reg(t as usize, Reg::int(2)),
            n * (n + 1) / 2,
            "thread {t}"
        );
    }
}

#[test]
fn partial_overlap_store_load_is_architecturally_correct() {
    // An 8-byte store at 0x1004 overlaps but does not contain an 8-byte
    // load at 0x1000: the load cannot forward and must wait out the store
    // (the conservative replay path). The oracle catches any value error.
    let src = "
            addi r1, r31, 0x1000
            addi r2, r31, 0x1004
            addi r5, r31, 300
        top:
            addi r3, r3, 1
            stq  r3, 0(r2)       ; store [0x1004, 0x100c)
            ldq  r4, 0(r1)       ; load  [0x1000, 0x1008) — partial overlap
            add  r6, r6, r4
            subi r5, r5, 1
            bne  r5, top
            halt
    ";
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification(); // the whole point: values must stay exact
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done());
}

#[test]
fn taken_branch_at_fetch_block_boundary() {
    // Pad so the loop branch lands on the last slot of an 8-instruction
    // fetch block; the redirect must not skip or duplicate instructions.
    let src = "
            addi r1, r31, 200
            nop
            nop
            nop
            nop
            nop
            nop
        top:
            add  r2, r2, r1
            subi r1, r1, 1
            nop
            nop
            nop
            nop
            nop
            bne  r1, top          ; pc 14: last slot of block [8..16)
            halt
    ";
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done());
    assert_eq!(m.arch_reg(0, Reg::int(2)), 20100);
}

#[test]
fn deep_recursion_exercises_the_ras() {
    // 12-deep recursive descent: every return must predict through the
    // 16-entry RAS; the oracle guarantees correctness, the stats show the
    // returns did not all mispredict.
    let src = "
            addi r1, r31, 12       ; depth
            jsr  r26, down
            halt
        down:
            subi r1, r1, 1
            beq  r1, leaf
            stq  r26, 0(r2)        ; save link
            addi r2, r2, 8
            jsr  r26, down
            subi r2, r2, 8
            ldq  r26, 0(r2)        ; restore link
        leaf:
            addi r3, r3, 1
            ret  r26
    ";
    let prog = asm::assemble(src).unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done());
    assert_eq!(m.arch_reg(0, Reg::int(3)), 12);
}
