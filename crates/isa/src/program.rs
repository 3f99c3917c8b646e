//! Program container and a label-aware builder API.
//!
//! A [`Program`] couples an instruction image with its entry point and the
//! initial contents of data memory; it is what the functional interpreter
//! executes and what a hardware thread of the timing simulator fetches from.
//! [`ProgramBuilder`] is the programmatic counterpart of the text assembler
//! and is what the workload generators use to emit kernels.

use crate::inst::{Class, Inst, Opcode};
use crate::reg::Reg;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Size of one instruction in bytes: an aligned 64-byte instruction-cache
/// line holds exactly one 8-instruction fetch group, the fetch width of
/// the paper's machine.
pub const INST_BYTES: u64 = 8;

/// A complete executable image.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Human-readable name (workload kernels set this to the benchmark name).
    pub name: String,
    /// The instruction stream; the PC indexes into this vector.
    pub insts: Vec<Inst>,
    /// Entry PC (instruction index).
    pub entry: u64,
    /// Initial data-memory image: `(byte address, bytes)` chunks.
    pub init_data: Vec<(u64, Vec<u8>)>,
}

impl Program {
    /// A program from a raw instruction list, entering at index 0.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>) -> Program {
        Program {
            name: name.into(),
            insts,
            entry: 0,
            init_data: Vec::new(),
        }
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the image contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`, or `None` past the end of the image.
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        self.insts.get(pc as usize).copied()
    }

    /// Byte address of the instruction at `pc` (for instruction-cache
    /// indexing in the timing model).
    pub fn inst_addr(pc: u64) -> u64 {
        pc * INST_BYTES
    }
}

/// Errors produced when a [`ProgramBuilder`] is finalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A resolved displacement does not fit the 24-bit immediate field.
    DisplacementOverflow { label: String, disp: i64 },
    /// The builder holds no instructions — an empty image has no valid PC.
    Empty,
    /// The image ends in a conditional branch, whose not-taken path falls
    /// off the image. (Trailing `halt`, `ret`, or backward `br` are legal:
    /// they never fall through.)
    TrailingBranch(Opcode),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            ProgramError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            ProgramError::DisplacementOverflow { label, disp } => {
                write!(
                    f,
                    "branch to `{label}` needs displacement {disp}, out of range"
                )
            }
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::TrailingBranch(op) => write!(
                f,
                "program ends in conditional branch `{}` whose fall-through runs off the image",
                op.mnemonic()
            ),
        }
    }
}

impl Error for ProgramError {}

/// Incremental, label-aware program constructor.
///
/// Branch displacements are recorded symbolically and resolved when
/// [`ProgramBuilder::build`] runs, so forward references are fine:
///
/// ```
/// use looseloops_isa::{ProgramBuilder, Reg, Opcode};
///
/// let mut b = ProgramBuilder::new("demo");
/// b.addi(Reg::int(1), Reg::ZERO, 3);
/// b.label("top");
/// b.subi(Reg::int(1), Reg::int(1), 1);
/// b.bne(Reg::int(1), "top");
/// b.halt();
/// let prog = b.build().unwrap();
/// assert_eq!(prog.len(), 4);
/// assert_eq!(prog.insts[2].imm, -2); // back to `top`, relative to pc+1
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    labels: HashMap<String, u64>,
    // (inst index, label) pairs whose displacement needs patching.
    fixups: Vec<(usize, String)>,
    init_data: Vec<(u64, Vec<u8>)>,
    duplicate: Option<String>,
    entry_label: Option<String>,
}

impl ProgramBuilder {
    /// Create an empty builder for a program called `name`.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            ..ProgramBuilder::default()
        }
    }

    /// Current instruction index (where the next emitted instruction lands).
    pub fn here(&self) -> u64 {
        self.insts.len() as u64
    }

    /// Define `label` at the current position.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        if self.labels.insert(label.clone(), self.here()).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(label);
        }
        self
    }

    /// Append an arbitrary pre-built instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Append a control-flow instruction whose displacement targets `label`.
    pub fn push_to_label(&mut self, inst: Inst, label: impl Into<String>) -> &mut Self {
        self.fixups.push((self.insts.len(), label.into()));
        self.insts.push(inst);
        self
    }

    /// Make the program start at `label` instead of instruction 0.
    pub fn entry(&mut self, label: impl Into<String>) -> &mut Self {
        self.entry_label = Some(label.into());
        self
    }

    /// Preload `bytes` at data address `addr`.
    pub fn data(&mut self, addr: u64, bytes: Vec<u8>) -> &mut Self {
        self.init_data.push((addr, bytes));
        self
    }

    /// Preload 64-bit words starting at `addr`.
    pub fn data_words(&mut self, addr: u64, words: &[u64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data(addr, bytes)
    }

    /// Resolve labels and produce the finished [`Program`].
    ///
    /// # Errors
    ///
    /// Fails if the program is empty, a label is missing or duplicated, a
    /// displacement overflows the immediate field, or the last instruction
    /// is a conditional branch (its fall-through would run off the image).
    pub fn build(mut self) -> Result<Program, ProgramError> {
        let Some(last) = self.insts.last().copied() else {
            return Err(ProgramError::Empty);
        };
        if last.class() == Class::CondBranch {
            return Err(ProgramError::TrailingBranch(last.op));
        }
        if let Some(l) = self.duplicate.take() {
            return Err(ProgramError::DuplicateLabel(l));
        }
        for (idx, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| ProgramError::UndefinedLabel(label.clone()))?;
            let disp = target as i64 - (idx as i64 + 1);
            if disp < Inst::IMM_MIN as i64 || disp > Inst::IMM_MAX as i64 {
                return Err(ProgramError::DisplacementOverflow { label, disp });
            }
            self.insts[idx].imm = disp as i32;
        }
        let entry = match self.entry_label.take() {
            None => 0,
            Some(l) => *self.labels.get(&l).ok_or(ProgramError::UndefinedLabel(l))?,
        };
        Ok(Program {
            name: self.name,
            insts: self.insts,
            entry,
            init_data: self.init_data,
        })
    }
}

/// Convenience emitters for every common instruction shape. Each returns
/// `&mut Self` for chaining.
impl ProgramBuilder {
    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Add, rd, rs1, rs2))
    }
    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::Add, rd, rs1, imm))
    }
    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Sub, rd, rs1, rs2))
    }
    /// `rd = rs1 - imm`
    pub fn subi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::Sub, rd, rs1, imm))
    }
    /// `rd = rs1 * rs2` (long-latency integer multiply)
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Mul, rd, rs1, rs2))
    }
    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::And, rd, rs1, rs2))
    }
    /// `rd = rs1 & imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::And, rd, rs1, imm))
    }
    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Or, rd, rs1, rs2))
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Xor, rd, rs1, rs2))
    }
    /// `rd = rs1 << imm`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::Sll, rd, rs1, imm))
    }
    /// `rd = rs1 >> imm` (logical)
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::Srl, rd, rs1, imm))
    }
    /// `rd = (rs1 < rs2)` signed
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::Slt, rd, rs1, rs2))
    }
    /// `rd = (rs1 < imm)` signed
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Inst::op_ri(Opcode::Slt, rd, rs1, imm))
    }
    /// `rd = mem64[rs1 + disp]`
    pub fn ldq(&mut self, rd: Reg, base: Reg, disp: i32) -> &mut Self {
        self.push(Inst::load(Opcode::Ldq, rd, base, disp))
    }
    /// `mem64[base + disp] = data`
    pub fn stq(&mut self, data: Reg, base: Reg, disp: i32) -> &mut Self {
        self.push(Inst::store(Opcode::Stq, data, base, disp))
    }
    /// `fd = mem64[rs1 + disp]` (fp bank)
    pub fn fldq(&mut self, fd: Reg, base: Reg, disp: i32) -> &mut Self {
        self.push(Inst::load(Opcode::FLdq, fd, base, disp))
    }
    /// `mem64[base + disp] = fdata` (fp bank)
    pub fn fstq(&mut self, fdata: Reg, base: Reg, disp: i32) -> &mut Self {
        self.push(Inst::store(Opcode::FStq, fdata, base, disp))
    }
    /// `fd = fs1 + fs2`
    pub fn fadd(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::FAdd, fd, fs1, fs2))
    }
    /// `fd = fs1 - fs2`
    pub fn fsub(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::FSub, fd, fs1, fs2))
    }
    /// `fd = fs1 * fs2`
    pub fn fmul(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::FMul, fd, fs1, fs2))
    }
    /// `fd = fs1 / fs2`
    pub fn fdiv(&mut self, fd: Reg, fs1: Reg, fs2: Reg) -> &mut Self {
        self.push(Inst::op_rr(Opcode::FDiv, fd, fs1, fs2))
    }
    /// Branch to `label` if `rs1 == 0`.
    pub fn beq(&mut self, rs1: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::branch(Opcode::Beq, rs1, 0), label)
    }
    /// Branch to `label` if `rs1 != 0`.
    pub fn bne(&mut self, rs1: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::branch(Opcode::Bne, rs1, 0), label)
    }
    /// Branch to `label` if `rs1 < 0` (signed).
    pub fn blt(&mut self, rs1: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::branch(Opcode::Blt, rs1, 0), label)
    }
    /// Branch to `label` if `rs1 >= 0` (signed).
    pub fn bge(&mut self, rs1: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::branch(Opcode::Bge, rs1, 0), label)
    }
    /// Branch to `label` if `rs1 > 0` (signed).
    pub fn bgt(&mut self, rs1: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::branch(Opcode::Bgt, rs1, 0), label)
    }
    /// Unconditional branch to `label`.
    pub fn br(&mut self, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::br(0), label)
    }
    /// Call `label`, linking the return address into `rd`.
    pub fn jsr(&mut self, rd: Reg, label: impl Into<String>) -> &mut Self {
        self.push_to_label(Inst::jsr(rd, 0), label)
    }
    /// Return through `target`.
    pub fn ret(&mut self, target: Reg) -> &mut Self {
        self.push(Inst::ret(target))
    }
    /// Memory barrier.
    pub fn mb(&mut self) -> &mut Self {
        self.push(Inst::mb())
    }
    /// Halt the thread.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::halt())
    }
    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::nop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new("t");
        b.label("start");
        b.addi(Reg::int(1), Reg::ZERO, 1);
        b.beq(Reg::int(1), "end"); // forward
        b.bne(Reg::int(1), "start"); // backward
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.insts[1].imm, 1); // idx 1 -> target 3: 3 - 2 = 1
        assert_eq!(p.insts[2].imm, -3); // idx 2 -> target 0: 0 - 3 = -3
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.br("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.label("x");
        b.nop();
        b.label("x");
        b.halt();
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            ProgramBuilder::new("t").build().unwrap_err(),
            ProgramError::Empty
        );
        // Labels and data alone don't make a program.
        let mut b = ProgramBuilder::new("t");
        b.label("x");
        b.data_words(0x1000, &[1]);
        assert_eq!(b.build().unwrap_err(), ProgramError::Empty);
    }

    #[test]
    fn trailing_conditional_branch_is_an_error() {
        for op in [Opcode::Beq, Opcode::Bne, Opcode::Bgt] {
            let mut b = ProgramBuilder::new("t");
            b.label("top");
            b.nop();
            b.push_to_label(Inst::branch(op, Reg::int(1), 0), "top");
            assert_eq!(b.build().unwrap_err(), ProgramError::TrailingBranch(op));
        }
    }

    #[test]
    fn trailing_unconditional_control_is_legal() {
        // `ret`, backward `br`, and `halt` cannot fall through, so a
        // program may end with them.
        let mut b = ProgramBuilder::new("ret");
        b.nop();
        b.ret(Reg::int(26));
        assert!(b.build().is_ok());
        let mut b = ProgramBuilder::new("br");
        b.label("spin");
        b.br("spin");
        assert!(b.build().is_ok());
    }

    #[test]
    fn data_words_serialize_little_endian() {
        let mut b = ProgramBuilder::new("t");
        b.data_words(0x1000, &[1, 0x0102030405060708]);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.init_data.len(), 1);
        let (addr, bytes) = &p.init_data[0];
        assert_eq!(*addr, 0x1000);
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[8], 8);
        assert_eq!(bytes[15], 1);
    }

    #[test]
    fn entry_label_sets_start() {
        let mut b = ProgramBuilder::new("t");
        b.entry("main");
        b.nop();
        b.label("main");
        b.halt();
        assert_eq!(b.build().unwrap().entry, 1);
    }

    #[test]
    fn missing_entry_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.entry("nowhere");
        b.halt();
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn fetch_is_bounded() {
        let p = Program::new("t", vec![Inst::nop(), Inst::halt()]);
        assert_eq!(p.fetch(0), Some(Inst::nop()));
        assert_eq!(p.fetch(1), Some(Inst::halt()));
        assert_eq!(p.fetch(2), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn inst_addresses_are_8_byte_strided() {
        assert_eq!(Program::inst_addr(0), 0);
        assert_eq!(Program::inst_addr(3), 24);
    }
}
