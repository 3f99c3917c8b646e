//! A small, fixed-width, Alpha-flavoured 64-bit ISA used as the substrate of
//! the *Loose Loops Sink Chips* reproduction.
//!
//! The paper's machine executes Alpha binaries; we substitute an ISA of our
//! own that preserves everything the study depends on: two register banks
//! (32 integer + 32 floating-point registers with hard-wired zero registers),
//! loads/stores with displacement addressing, conditional branches that
//! resolve in the execute stage, indirect jumps and calls, a memory barrier,
//! and instruction classes with distinct execution latencies.
//!
//! The crate provides four layers:
//!
//! - [`inst`] / [`reg`]: the instruction and register model,
//! - [`asm`] / [`program`]: a text assembler and a programmatic
//!   [`ProgramBuilder`] used by the workload generators,
//! - [`interp`]: an architectural (functional) interpreter that serves as
//!   the reference model the timing simulator is validated against.
//!
//! # Example
//!
//! ```
//! use looseloops_isa::{asm, interp::{ArchState, FlatMemory}};
//!
//! let prog = asm::assemble(
//!     "
//!         addi r1, r31, 10      ; counter = 10
//!         addi r2, r31, 0       ; sum = 0
//!     loop:
//!         add  r2, r2, r1
//!         subi r1, r1, 1
//!         bne  r1, loop
//!         halt
//!     ",
//! ).expect("valid assembly");
//!
//! let mut mem = FlatMemory::new();
//! let mut state = ArchState::new(&prog);
//! let trace = state.run(&prog, &mut mem, 1_000).expect("program halts");
//! assert_eq!(state.read_reg(looseloops_isa::Reg::int(2)), 55);
//! assert!(trace.halted);
//! ```

pub mod asm;
pub mod disasm;
pub mod fastfwd;
pub mod inst;
pub mod interp;
pub mod predecode;
pub mod program;
pub mod reg;

pub use asm::{assemble, AsmError};
pub use disasm::disassemble;
pub use fastfwd::{fast_forward, NoWarm, WarmHooks, NO_FETCH_LINE};
pub use inst::{Class, Inst, Opcode};
pub use interp::{
    branch_taken, control_target, eval_op, ArchState, ExecError, FlatMemory, Memory, Retired,
    RunSummary, StateDivergence,
};
pub use predecode::{BranchKind, ClusterAffinity, Predecode, StaticInstInfo};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use reg::Reg;
