//! Timing unit tests of the cycle engine.

use super::*;
use crate::dyninst::{SrcOperand, NO_CYCLE};
use crate::iq::{IqEntry, IqState};

/// The paper's load-resolution-loop arithmetic: an IQ entry issued at T
/// is confirmed at T + IQ-EX + feedback and cleared one cycle later.
#[test]
fn iq_entries_are_retained_for_the_loop_delay() {
    let prog = looseloops_isa::asm::assemble(
        "addi r1, r31, 5\ntop:\nadd r2, r2, r1\nsubi r1, r1, 1\nbne r1, top\nhalt",
    )
    .unwrap();
    let cfg = PipelineConfig::base();
    let loop_delay = cfg.load_loop_delay() as u64; // 8
    let clear = cfg.iq_clear_extra as u64;
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    m.enable_verification();
    // Step until the first instruction issues, then watch its entry.
    let mut issued_at = None;
    let mut freed_at = None;
    for _ in 0..2000 {
        m.step_cycle();
        let held: Vec<u64> = m.iq.iter().map(|e| e.seq).collect();
        if issued_at.is_none() {
            if let Some(e) = m.iq.iter().find(|e| e.seq == 1) {
                if !matches!(e.state, IqState::Waiting) {
                    issued_at = Some(m.slab.expect(e.id).issue_cycle);
                }
            }
        } else if freed_at.is_none() && !held.contains(&1) {
            freed_at = Some(m.cycle() - 1);
        }
        if m.is_done() {
            break;
        }
    }
    assert!(m.is_done());
    assert_eq!(m.divergence(), None, "the retire stream must match the ISA");
    let (issued, freed) = (issued_at.unwrap(), freed_at.unwrap());
    assert_eq!(
        freed,
        issued + loop_delay + clear,
        "entry must persist for the load-resolution loop delay plus the clear cycle"
    );
}

/// The register file is read only once the producer has completed: a
/// read of an in-flight register is a pipeline bug, caught in debug
/// builds at the one machine-side read helper.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "read of in-flight")]
fn reading_inflight_register_panics() {
    let prog = looseloops_isa::asm::assemble("halt").unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    let p = PhysReg(300);
    assert_eq!(m.read_reg(p), 0, "a completed register reads");
    m.avail_cycle[p.index()] = u64::MAX; // allocated, not yet produced
    let _ = m.read_reg(p);
}

/// A broadcast that repeats a register's wake-up cycle must still bump
/// its version, and so release a consumer that execute blocked on the
/// current version; once nobody is blocked, the repeat is a no-op.
#[test]
fn same_cycle_rebroadcast_releases_a_version_blocked_consumer() {
    let prog = looseloops_isa::asm::assemble("add r1, r2, r3\nhalt").unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.cycle = 10;
    let p = PhysReg(300);
    m.ready_at[p.index()] = 5;
    m.avail_cycle[p.index()] = u64::MAX; // produced value not back yet
    let info = *m.threads[0].code.info(0).unwrap();
    let id = m.slab.alloc(1, 0, 0, &info, 0);
    // What execute records on a producer-not-ready abort.
    m.version_blocked[p.index()] = true;
    m.slab.expect_mut(id).srcs[0] = Some(SrcOperand {
        arch: looseloops_isa::Reg::int(2),
        phys: p,
        payload: 0,
        payload_valid: false,
        itable_pending: false,
        ready_at: 0,
        blocked_version: Some(m.ready_version[p.index()]),
        obtained: None,
        avail_cycle: NO_CYCLE,
    });
    let slot =
        m.iq.insert(IqEntry {
            id,
            seq: 1,
            thread: 0,
            cluster: 0,
            state: IqState::Waiting,
        })
        .unwrap();
    m.slab.expect_mut(id).iq_slot = slot;
    m.begin_tenure(slot, m.cycle);
    assert!(
        !m.iq.in_ready(slot),
        "blocked until the producer re-broadcasts"
    );
    m.set_ready_at(p, 5);
    assert!(m.iq.in_ready(slot), "the same-cycle broadcast releases it");
    assert!(!m.version_blocked[p.index()]);
    let version = m.ready_version[p.index()];
    m.set_ready_at(p, 5);
    assert_eq!(m.ready_version[p.index()], version, "nobody blocked: no-op");
}

/// Back-to-back dependent single-cycle ALU ops execute in consecutive
/// cycles (the forwarding tight loop).
#[test]
fn dependent_alu_chain_is_back_to_back() {
    let prog = looseloops_isa::asm::assemble(
        "addi r1, r31, 1\naddi r1, r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    let mut exec_cycles = Vec::new();
    for _ in 0..2000 {
        m.step_cycle();
        if m.is_done() {
            break;
        }
    }
    assert!(m.is_done());
    assert_eq!(m.divergence(), None, "the retire stream must match the ISA");
    // Re-run capturing completion cycles via a fresh machine and the
    // retire capture (completion separation == 1 implies back-to-back).
    let prog = looseloops_isa::asm::assemble(
        "addi r1, r31, 1\naddi r1, r1, 1\naddi r1, r1, 1\naddi r1, r1, 1\nhalt",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    loop {
        m.step_cycle();
        for e in m.iq.iter() {
            if let Some(di) = m.slab.get(e.id) {
                let c = di.complete_cycle;
                if c != crate::dyninst::NO_CYCLE && !exec_cycles.contains(&(di.seq, c)) {
                    exec_cycles.push((di.seq, c));
                }
            }
        }
        if m.is_done() || m.cycle() > 2000 {
            break;
        }
    }
    assert!(m.is_done());
    exec_cycles.sort_unstable();
    exec_cycles.dedup_by_key(|&mut (s, _)| s);
    for w in exec_cycles.windows(2) {
        assert_eq!(
            w[1].1 - w[0].1,
            1,
            "dependent adds must complete in consecutive cycles: {exec_cycles:?}"
        );
    }
}

/// The skip-boundary audit fails a skip whose target passes a queued
/// event of any stream, write-backs and IQ releases included, or the
/// watchdog cycle, and passes one that stops on them.
#[test]
fn skip_boundary_audit_rejects_a_target_past_a_queued_event() {
    let prog = looseloops_isa::asm::assemble("add r1, r2, r3\nhalt").unwrap();
    for name in ["readiness-timer", "write-back", "release"] {
        let mut m = Machine::new(PipelineConfig::base(), vec![prog.clone()]).unwrap();
        m.cycle = 10;
        match name {
            "readiness-timer" => m.ready_events.schedule(12, (0, 0)),
            "write-back" => m.writeback_events.schedule(12, PhysReg(1)),
            _ => m.release_events.schedule(12, (0, 1)),
        }
        m.ready_events.schedule(15, (0, 0));
        assert!(
            m.audit_skip(12, Some(12)).is_ok(),
            "{name}: a skip may stop on a due cycle"
        );
        let err = m
            .audit_skip(13, None)
            .expect_err("a skip past a queued event must fail");
        assert_eq!(err.kind, crate::error::InvariantKind::SkipBoundary);
        assert!(err.detail.contains(&format!("{name} queue")), "{err}");
    }
    let m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    let err = m
        .audit_skip(12, Some(11))
        .expect_err("a skip past the watchdog must fail");
    assert_eq!(err.kind, crate::error::InvariantKind::SkipBoundary);
    assert!(err.detail.contains("watchdog"), "{err}");
}
