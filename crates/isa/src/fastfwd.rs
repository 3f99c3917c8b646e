//! Functional fast-forward: the predecoded interpreter as a warm-up engine.
//!
//! [`ArchState::step`] already executes decoded [`Program`] instructions
//! directly — no timing wheel, no issue queue, no rename. This module wraps
//! that loop so it can *warm* the timing structures while it skips ahead:
//! each retired instruction is reported to a [`WarmHooks`] implementation,
//! which the simulator core backs with the real cache hierarchy, branch
//! predictor, and BTB (`looseloops_mem::MemHierarchy::warm_access`,
//! `DirectionPredictor::update`, `Btb::update`). The hooks carry no timing:
//! fast-forward advances architectural state and replacement/predictor
//! state only, which is exactly the state a detailed run needs warmed.

use crate::inst::Class;
use crate::interp::{ArchState, ExecError, FlatMemory};
use crate::program::Program;

/// Observer for the architectural event stream during fast-forward.
///
/// Every method defaults to a no-op, so a hook implementation states only
/// what it warms. Addresses are byte addresses; `warm_branch`/`warm_jump`
/// PCs are instruction indices (the BTB's key space in the pipeline).
pub trait WarmHooks {
    /// The fetch stream entered the 64-byte line at `line_addr`.
    ///
    /// Reported once per line *entry*, not once per instruction: the
    /// pipeline fetches whole aligned lines, so consecutive instructions
    /// on one line are a single cache touch there too. Re-entering a line
    /// (a short backward branch) reports again.
    fn warm_fetch(&mut self, _line_addr: u64) {}

    /// A load (`is_write == false`) or store touched `addr`.
    fn warm_data(&mut self, _addr: u64, _is_write: bool) {}

    /// A conditional branch at `pc` resolved `taken`.
    fn warm_branch(&mut self, _pc: u64, _taken: bool) {}

    /// An indirect jump at `pc` redirected to `target`.
    fn warm_jump(&mut self, _pc: u64, _target: u64) {}
}

/// Pure fast-forward: skip ahead without warming anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoWarm;

impl WarmHooks for NoWarm {}

/// Sentinel for `last_fetch_line` meaning "no line fetched yet" — the
/// first instruction always reports a fetch. (A real line address cannot
/// reach this value: line addresses are instruction indices × 8, masked.)
pub const NO_FETCH_LINE: u64 = u64::MAX;

/// Run up to `max_steps` instructions functionally, reporting each retired
/// instruction to `hooks`. Returns the number of instructions executed
/// (fewer than `max_steps` only if the program halts). Errors propagate
/// from [`ArchState::step`]; the architectural state is left exactly where
/// the last successful step put it, so a detailed machine can resume.
///
/// `last_fetch_line` carries the fetch-line memo across calls (seed with
/// [`NO_FETCH_LINE`]): [`WarmHooks::warm_fetch`] fires only when the line
/// changes, which both matches the pipeline's line-granular fetch and is
/// the dominant cost saving of the functional interpreter. Because the
/// memo is part of the caller's state rather than reset per call, the
/// touch sequence is a pure function of the instruction stream — split
/// runs warm byte-identically to whole runs.
pub fn fast_forward(
    st: &mut ArchState,
    prog: &Program,
    mem: &mut FlatMemory,
    max_steps: u64,
    hooks: &mut dyn WarmHooks,
    last_fetch_line: &mut u64,
) -> Result<u64, ExecError> {
    let mut steps = 0u64;
    while steps < max_steps && !st.is_halted() {
        let r = st.step(prog, mem)?;
        steps += 1;
        let line = Program::inst_addr(r.pc) & !63;
        if line != *last_fetch_line {
            *last_fetch_line = line;
            hooks.warm_fetch(line);
        }
        match r.inst.class() {
            Class::Load => {
                if let Some((addr, _)) = r.mem_addr {
                    hooks.warm_data(addr, false);
                }
            }
            Class::Store => {
                if let Some((addr, _)) = r.mem_addr {
                    hooks.warm_data(addr, true);
                }
            }
            Class::CondBranch => {
                hooks.warm_branch(r.pc, r.taken == Some(true));
            }
            // The pipeline installs BTB targets only for register-indirect
            // jumps (direct branches redirect at decode), so only those
            // warm the BTB here.
            Class::Jump => {
                hooks.warm_jump(r.pc, r.next_pc);
            }
            _ => {}
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::FlatMemory;

    // Loops `r4` times (set r4 before running); 2 setup instructions, a
    // 6-instruction body, then halt.
    fn looping_program() -> Program {
        crate::asm::assemble(
            r"
            .entry start
            start:
                addi r1, r31, 0
                addi r2, r31, 4096
            loop:
                ldq  r3, 0(r2)
                addi r3, r3, 1
                stq  r3, 0(r2)
                addi r1, r1, 1
                sub  r5, r1, r4
                bne  r5, loop
                halt
            ",
        )
        .expect("valid program")
    }

    #[derive(Default)]
    struct Counting {
        fetches: u64,
        loads: u64,
        stores: u64,
        branches: u64,
        taken: u64,
    }

    impl WarmHooks for Counting {
        fn warm_fetch(&mut self, _line: u64) {
            self.fetches += 1;
        }
        fn warm_data(&mut self, _addr: u64, is_write: bool) {
            if is_write {
                self.stores += 1;
            } else {
                self.loads += 1;
            }
        }
        fn warm_branch(&mut self, _pc: u64, taken: bool) {
            self.branches += 1;
            self.taken += taken as u64;
        }
    }

    #[test]
    fn fast_forward_matches_plain_run() {
        let prog = looping_program();
        let mut ff_st = ArchState::new(&prog);
        let mut ff_mem = FlatMemory::with_program(&prog);
        ff_st.write_reg(crate::reg::Reg::int(4), 10);
        let mut line = NO_FETCH_LINE;
        let steps = fast_forward(
            &mut ff_st,
            &prog,
            &mut ff_mem,
            10_000,
            &mut NoWarm,
            &mut line,
        )
        .expect("runs");

        let mut st = ArchState::new(&prog);
        let mut mem = FlatMemory::with_program(&prog);
        st.write_reg(crate::reg::Reg::int(4), 10);
        let summary = st.run(&prog, &mut mem, 10_000).expect("runs");

        assert_eq!(steps, summary.retired);
        assert!(ff_st.diff(&st).is_empty(), "identical architectural state");
        assert!(ff_mem.diff(&mem).is_empty(), "identical memory");
    }

    #[test]
    fn hooks_see_the_event_stream() {
        let prog = looping_program();
        let mut st = ArchState::new(&prog);
        let mut mem = FlatMemory::with_program(&prog);
        st.write_reg(crate::reg::Reg::int(4), 8);
        let mut hooks = Counting::default();
        let mut line = NO_FETCH_LINE;
        let steps =
            fast_forward(&mut st, &prog, &mut mem, 10_000, &mut hooks, &mut line).expect("runs");
        assert!(st.is_halted());
        // 8 iterations of the 6-instruction body + 2 setup + halt.
        assert_eq!(steps, 8 * 6 + 3);
        // Fetch warms are line entries, not instructions: the whole loop
        // (insts 0..=7) lives on line 0, only `halt` (inst 8) crosses.
        assert_eq!(hooks.fetches, 2);
        assert_eq!(hooks.loads, 8);
        assert_eq!(hooks.stores, 8);
        assert_eq!(hooks.branches, 8);
        assert_eq!(hooks.taken, 7, "loop back-edge taken 7 of 8 times");
    }

    #[test]
    fn step_budget_is_respected_and_resumable() {
        let prog = looping_program();
        let mut st = ArchState::new(&prog);
        let mut mem = FlatMemory::with_program(&prog);
        st.write_reg(crate::reg::Reg::int(4), 1000);
        let mut line = NO_FETCH_LINE;
        let a = fast_forward(&mut st, &prog, &mut mem, 100, &mut NoWarm, &mut line).expect("runs");
        assert_eq!(a, 100);
        assert!(!st.is_halted());
        let b =
            fast_forward(&mut st, &prog, &mut mem, u64::MAX, &mut NoWarm, &mut line).expect("runs");

        let mut whole = ArchState::new(&prog);
        let mut whole_mem = FlatMemory::with_program(&prog);
        whole.write_reg(crate::reg::Reg::int(4), 1000);
        let summary = whole.run(&prog, &mut whole_mem, u64::MAX).expect("runs");
        assert_eq!(a + b, summary.retired, "split run retires the same count");
        assert!(st.diff(&whole).is_empty());
    }
}
