//! Instruction model: opcodes, instruction classes, and the decoded
//! instruction representation consumed by both the functional interpreter
//! and the timing pipeline.

use crate::reg::Reg;
use std::fmt;

/// Coarse instruction class.
///
/// The pipeline assigns execution latencies, functional-unit requirements,
/// and loop behaviour (which micro-architectural loop an instruction can
/// initiate) by class, exactly as the paper's machine does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Long-latency integer multiply.
    IntMul,
    /// Floating-point add/subtract/compare/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Long-latency floating-point divide.
    FpDiv,
    /// Memory load (integer or floating point).
    Load,
    /// Memory store (integer or floating point).
    Store,
    /// Conditional branch (initiates the branch resolution loop).
    CondBranch,
    /// Unconditional PC-relative branch or call.
    Branch,
    /// Indirect jump/return through a register.
    Jump,
    /// Memory barrier (initiates the paper's memory-barrier loop).
    MemBar,
    /// Thread termination.
    Halt,
}

impl Class {
    /// True for classes that read or write memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Class::Load | Class::Store)
    }

    /// True for classes that can redirect control flow.
    pub fn is_control(self) -> bool {
        matches!(self, Class::CondBranch | Class::Branch | Class::Jump)
    }
}

/// Operation codes of the mini ISA.
///
/// Operate-format instructions take `rs2` or, when [`Inst::uses_imm`] is
/// set, a sign-extended immediate as their second source (the assembler
/// exposes the immediate forms as distinct mnemonics such as `addi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    // Integer operate.
    Add = 0,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    /// Set `rd = (rs1 < src2)` signed.
    Slt,
    /// Set `rd = (rs1 < src2)` unsigned.
    Sltu,
    /// Set `rd = (rs1 == src2)`.
    Seq,
    // Floating-point operate (operands are IEEE-754 bit patterns).
    FAdd,
    FSub,
    FMul,
    FDiv,
    /// Set `rd = (rs1 < rs2)` as 0/1 bit pattern (fp bank).
    FCmpLt,
    /// Set `rd = (rs1 == rs2)` as 0/1 bit pattern (fp bank).
    FCmpEq,
    /// Convert signed integer in an fp register's bit pattern to f64.
    FCvtIf,
    /// Convert f64 to signed integer (truncating).
    FCvtFi,
    // Memory.
    /// 64-bit integer load: `rd = mem[rs1 + imm]`.
    Ldq,
    /// 32-bit integer load, zero-extended.
    Ldl,
    /// 64-bit integer store: `mem[rs1 + imm] = rs2`.
    Stq,
    /// 32-bit integer store (low 32 bits).
    Stl,
    /// 64-bit floating-point load into the fp bank.
    FLdq,
    /// 64-bit floating-point store from the fp bank.
    FStq,
    // Control. Conditional branches test `rs1` against zero; targets are
    // PC-relative instruction-index displacements.
    Beq,
    Bne,
    Blt,
    Bge,
    Ble,
    Bgt,
    /// Unconditional PC-relative branch.
    Br,
    /// PC-relative call: `rd = pc + 1`, jump to `pc + 1 + imm`.
    Jsr,
    /// Indirect jump through `rs1`; `rd = pc + 1` (link, may be `r31`).
    Jmp,
    /// Return: indirect jump through `rs1` with return-stack pop hint.
    Ret,
    // Misc.
    /// Memory barrier: stalls the mapper until all prior work completes.
    Mb,
    /// Stop this thread.
    Halt,
    /// No operation.
    Nop,
}

/// Number of distinct opcodes (used by fuzzers and property tests).
pub const NUM_OPCODES: u8 = Opcode::Nop as u8 + 1;

impl Opcode {
    /// The instruction class this opcode belongs to.
    pub fn class(self) -> Class {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Seq => Class::IntAlu,
            Mul => Class::IntMul,
            FAdd | FSub | FCmpLt | FCmpEq | FCvtIf | FCvtFi => Class::FpAdd,
            FMul => Class::FpMul,
            FDiv => Class::FpDiv,
            Ldq | Ldl | FLdq => Class::Load,
            Stq | Stl | FStq => Class::Store,
            Beq | Bne | Blt | Bge | Ble | Bgt => Class::CondBranch,
            Br | Jsr => Class::Branch,
            Jmp | Ret => Class::Jump,
            Mb => Class::MemBar,
            Halt => Class::Halt,
            Nop => Class::IntAlu,
        }
    }

    /// Opcode from its `repr(u8)` discriminant, if valid.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        if v < NUM_OPCODES {
            // SAFETY-free alternative to a transmute: exhaustive table.
            Some(OPCODE_TABLE[v as usize])
        } else {
            None
        }
    }

    /// The assembler mnemonic (register form).
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Seq => "seq",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            FCmpLt => "fcmplt",
            FCmpEq => "fcmpeq",
            FCvtIf => "fcvtif",
            FCvtFi => "fcvtfi",
            Ldq => "ldq",
            Ldl => "ldl",
            Stq => "stq",
            Stl => "stl",
            FLdq => "fldq",
            FStq => "fstq",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Ble => "ble",
            Bgt => "bgt",
            Br => "br",
            Jsr => "jsr",
            Jmp => "jmp",
            Ret => "ret",
            Mb => "mb",
            Halt => "halt",
            Nop => "nop",
        }
    }
}

/// Table mapping discriminants back to opcodes; must stay in declaration
/// order (checked by a unit test).
const OPCODE_TABLE: [Opcode; NUM_OPCODES as usize] = {
    use Opcode::*;
    [
        Add, Sub, Mul, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Seq, FAdd, FSub, FMul, FDiv, FCmpLt,
        FCmpEq, FCvtIf, FCvtFi, Ldq, Ldl, Stq, Stl, FLdq, FStq, Beq, Bne, Blt, Bge, Ble, Bgt, Br,
        Jsr, Jmp, Ret, Mb, Halt, Nop,
    ]
};

/// A decoded instruction.
///
/// All instructions share one layout; fields that an opcode does not use are
/// ignored (and normalized to zero/`r31` by the constructors). `imm` holds
/// the sign-extended immediate, memory displacement, or branch displacement
/// (in instruction indices, relative to `pc + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register (`r31`/`f31` when unused).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register (store data for stores).
    pub rs2: Reg,
    /// Immediate / displacement (24-bit signed range, enforced by the
    /// assembler and [`ProgramBuilder`](crate::ProgramBuilder)).
    pub imm: i32,
    /// Operate format uses `imm` instead of `rs2` as the second source.
    pub uses_imm: bool,
}

impl Inst {
    /// Immediate values must fit in 24 signed bits.
    pub const IMM_MIN: i32 = -(1 << 23);
    /// See [`Inst::IMM_MIN`].
    pub const IMM_MAX: i32 = (1 << 23) - 1;

    /// Register-form operate instruction: `rd = rs1 <op> rs2`.
    pub fn op_rr(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
            uses_imm: false,
        }
    }

    /// Immediate-form operate instruction: `rd = rs1 <op> imm`.
    pub fn op_ri(op: Opcode, rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
            imm,
            uses_imm: true,
        }
    }

    /// Load: `rd = mem[rs1 + disp]`.
    pub fn load(op: Opcode, rd: Reg, base: Reg, disp: i32) -> Inst {
        debug_assert_eq!(op.class(), Class::Load);
        Inst {
            op,
            rd,
            rs1: base,
            rs2: Reg::ZERO,
            imm: disp,
            uses_imm: false,
        }
    }

    /// Store: `mem[base + disp] = data`.
    pub fn store(op: Opcode, data: Reg, base: Reg, disp: i32) -> Inst {
        debug_assert_eq!(op.class(), Class::Store);
        let zero = if data.is_fp() { Reg::FZERO } else { Reg::ZERO };
        Inst {
            op,
            rd: zero,
            rs1: base,
            rs2: data,
            imm: disp,
            uses_imm: false,
        }
    }

    /// Conditional branch testing `rs1`, with instruction-index displacement
    /// relative to `pc + 1`.
    pub fn branch(op: Opcode, rs1: Reg, disp: i32) -> Inst {
        debug_assert_eq!(op.class(), Class::CondBranch);
        Inst {
            op,
            rd: Reg::ZERO,
            rs1,
            rs2: Reg::ZERO,
            imm: disp,
            uses_imm: false,
        }
    }

    /// Unconditional PC-relative branch.
    pub fn br(disp: i32) -> Inst {
        Inst {
            op: Opcode::Br,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: disp,
            uses_imm: false,
        }
    }

    /// PC-relative call linking into `rd`.
    pub fn jsr(rd: Reg, disp: i32) -> Inst {
        Inst {
            op: Opcode::Jsr,
            rd,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: disp,
            uses_imm: false,
        }
    }

    /// Indirect jump through `target`, linking into `rd` (`r31` for none).
    pub fn jmp(rd: Reg, target: Reg) -> Inst {
        Inst {
            op: Opcode::Jmp,
            rd,
            rs1: target,
            rs2: Reg::ZERO,
            imm: 0,
            uses_imm: false,
        }
    }

    /// Return through `target` (return-stack pop hint).
    pub fn ret(target: Reg) -> Inst {
        Inst {
            op: Opcode::Ret,
            rd: Reg::ZERO,
            rs1: target,
            rs2: Reg::ZERO,
            imm: 0,
            uses_imm: false,
        }
    }

    /// Memory barrier.
    pub fn mb() -> Inst {
        Inst {
            op: Opcode::Mb,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
            uses_imm: false,
        }
    }

    /// Thread halt.
    pub fn halt() -> Inst {
        Inst {
            op: Opcode::Halt,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
            uses_imm: false,
        }
    }

    /// No-op.
    pub fn nop() -> Inst {
        Inst {
            op: Opcode::Nop,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
            uses_imm: false,
        }
    }

    /// The instruction class (shorthand for `self.op.class()`).
    pub fn class(self) -> Class {
        self.op.class()
    }

    /// Source registers actually read by this instruction, zero registers
    /// excluded (they never rename and are always "ready").
    ///
    /// At most two sources exist; absent slots are `None`.
    pub fn srcs(self) -> [Option<Reg>; 2] {
        use Opcode::*;
        let (a, b) = match self.op {
            Nop | Br | Jsr | Mb | Halt => (None, None),
            Jmp | Ret => (Some(self.rs1), None),
            Beq | Bne | Blt | Bge | Ble | Bgt => (Some(self.rs1), None),
            Ldq | Ldl | FLdq => (Some(self.rs1), None),
            Stq | Stl | FStq => (Some(self.rs1), Some(self.rs2)),
            _ => {
                if self.uses_imm {
                    (Some(self.rs1), None)
                } else {
                    (Some(self.rs1), Some(self.rs2))
                }
            }
        };
        let strip = |r: Option<Reg>| r.filter(|r| !r.is_zero());
        [strip(a), strip(b)]
    }

    /// Destination register written by this instruction, if any (writes to
    /// the zero registers are architectural no-ops and report `None`).
    pub fn dest(self) -> Option<Reg> {
        use Opcode::*;
        let d = match self.op {
            Stq | Stl | FStq | Beq | Bne | Blt | Bge | Ble | Bgt | Br | Ret | Mb | Halt | Nop => {
                None
            }
            Jsr | Jmp => Some(self.rd),
            _ => Some(self.rd),
        };
        d.filter(|r| !r.is_zero())
    }

    /// Number of non-zero source operands (the paper's operand-resolution
    /// loop fires once per source operand).
    pub fn num_srcs(self) -> usize {
        self.srcs().iter().flatten().count()
    }

    /// Normalize fields this opcode does not use (dead register slots,
    /// dead immediates, the `uses_imm` flag on formats without an
    /// immediate source). Two instructions with equal canonical forms are
    /// semantically identical; the assembler and the constructors always
    /// produce canonical instructions, and
    /// `assemble(disassemble(p))` equals `p` canonicalized.
    pub fn canonical(self) -> Inst {
        use Opcode::*;
        match self.op {
            FCvtIf | FCvtFi => Inst {
                rs2: Reg::FZERO,
                imm: 0,
                uses_imm: false,
                ..self
            },
            Ldq | Ldl | FLdq => Inst {
                rs2: Reg::ZERO,
                uses_imm: false,
                ..self
            },
            Stq | Stl | FStq => {
                let zero = if self.rs2.is_fp() {
                    Reg::FZERO
                } else {
                    Reg::ZERO
                };
                Inst {
                    rd: zero,
                    uses_imm: false,
                    ..self
                }
            }
            Beq | Bne | Blt | Bge | Ble | Bgt => Inst {
                rd: Reg::ZERO,
                rs2: Reg::ZERO,
                uses_imm: false,
                ..self
            },
            Br => Inst {
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                uses_imm: false,
                ..self
            },
            Jsr => Inst {
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                uses_imm: false,
                ..self
            },
            Jmp => Inst {
                rs2: Reg::ZERO,
                imm: 0,
                uses_imm: false,
                ..self
            },
            Ret => Inst {
                rd: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: 0,
                uses_imm: false,
                ..self
            },
            Mb | Halt | Nop => Inst {
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                imm: 0,
                uses_imm: false,
                ..self
            },
            _ => {
                // Operate formats: either the immediate or rs2 is dead.
                if self.uses_imm {
                    Inst {
                        rs2: Reg::ZERO,
                        ..self
                    }
                } else {
                    Inst { imm: 0, ..self }
                }
            }
        }
    }

    /// True if every dead field is already normalized (see
    /// [`Inst::canonical`]).
    pub fn is_canonical(self) -> bool {
        self == self.canonical()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Class::*;
        let m = self.op.mnemonic();
        match self.class() {
            Load => write!(f, "{m} {}, {}({})", self.rd, self.imm, self.rs1),
            Store => write!(f, "{m} {}, {}({})", self.rs2, self.imm, self.rs1),
            CondBranch => write!(f, "{m} {}, {:+}", self.rs1, self.imm),
            Branch => {
                if self.op == Opcode::Jsr {
                    write!(f, "{m} {}, {:+}", self.rd, self.imm)
                } else {
                    write!(f, "{m} {:+}", self.imm)
                }
            }
            Jump => {
                if self.op == Opcode::Ret {
                    write!(f, "{m} {}", self.rs1)
                } else {
                    write!(f, "{m} {}, {}", self.rd, self.rs1)
                }
            }
            MemBar | Halt => write!(f, "{m}"),
            _ => {
                if self.op == Opcode::Nop {
                    write!(f, "nop")
                } else if matches!(self.op, Opcode::FCvtIf | Opcode::FCvtFi) {
                    write!(f, "{m} {}, {}", self.rd, self.rs1)
                } else if self.uses_imm {
                    write!(f, "{m}i {}, {}, {}", self.rd, self.rs1, self.imm)
                } else {
                    write!(f, "{m} {}, {}, {}", self.rd, self.rs1, self.rs2)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_table_matches_discriminants() {
        for v in 0..NUM_OPCODES {
            let op = Opcode::from_u8(v).unwrap();
            assert_eq!(op as u8, v, "table out of order at {v}");
        }
        assert!(Opcode::from_u8(NUM_OPCODES).is_none());
        assert!(Opcode::from_u8(255).is_none());
    }

    #[test]
    fn classes_are_consistent() {
        assert_eq!(Opcode::Add.class(), Class::IntAlu);
        assert_eq!(Opcode::Mul.class(), Class::IntMul);
        assert_eq!(Opcode::FDiv.class(), Class::FpDiv);
        assert_eq!(Opcode::Ldq.class(), Class::Load);
        assert_eq!(Opcode::FStq.class(), Class::Store);
        assert_eq!(Opcode::Bne.class(), Class::CondBranch);
        assert_eq!(Opcode::Ret.class(), Class::Jump);
        assert!(Class::Load.is_mem());
        assert!(!Class::IntAlu.is_mem());
        assert!(Class::CondBranch.is_control());
        assert!(!Class::Store.is_control());
    }

    #[test]
    fn srcs_and_dest_for_operate() {
        let i = Inst::op_rr(Opcode::Add, Reg::int(1), Reg::int(2), Reg::int(3));
        assert_eq!(i.srcs(), [Some(Reg::int(2)), Some(Reg::int(3))]);
        assert_eq!(i.dest(), Some(Reg::int(1)));
        assert_eq!(i.num_srcs(), 2);

        let i = Inst::op_ri(Opcode::Add, Reg::int(1), Reg::int(2), 7);
        assert_eq!(i.srcs(), [Some(Reg::int(2)), None]);
        assert_eq!(i.num_srcs(), 1);
    }

    #[test]
    fn zero_register_sources_are_stripped() {
        let i = Inst::op_rr(Opcode::Add, Reg::int(1), Reg::ZERO, Reg::int(3));
        assert_eq!(i.srcs(), [None, Some(Reg::int(3))]);
        let i = Inst::op_rr(Opcode::Add, Reg::ZERO, Reg::int(2), Reg::int(3));
        assert_eq!(i.dest(), None, "writes to r31 are discarded");
    }

    #[test]
    fn mem_srcs_and_dest() {
        let ld = Inst::load(Opcode::Ldq, Reg::int(4), Reg::int(5), 16);
        assert_eq!(ld.srcs(), [Some(Reg::int(5)), None]);
        assert_eq!(ld.dest(), Some(Reg::int(4)));

        let st = Inst::store(Opcode::Stq, Reg::int(4), Reg::int(5), -8);
        assert_eq!(st.srcs(), [Some(Reg::int(5)), Some(Reg::int(4))]);
        assert_eq!(st.dest(), None);
    }

    #[test]
    fn control_srcs_and_dest() {
        let b = Inst::branch(Opcode::Beq, Reg::int(1), -4);
        assert_eq!(b.srcs(), [Some(Reg::int(1)), None]);
        assert_eq!(b.dest(), None);

        let j = Inst::jsr(Reg::int(26), 100);
        assert_eq!(j.srcs(), [None, None]);
        assert_eq!(j.dest(), Some(Reg::int(26)));

        let r = Inst::ret(Reg::int(26));
        assert_eq!(r.srcs(), [Some(Reg::int(26)), None]);
        assert_eq!(r.dest(), None);
    }

    #[test]
    fn constructors_produce_canonical_instructions() {
        for i in [
            Inst::op_rr(Opcode::Add, Reg::int(1), Reg::int(2), Reg::int(3)),
            Inst::op_ri(Opcode::Sub, Reg::int(1), Reg::int(1), 5),
            Inst::load(Opcode::Ldq, Reg::int(2), Reg::int(3), 8),
            Inst::store(Opcode::FStq, Reg::fp(2), Reg::int(3), 0),
            Inst::branch(Opcode::Bne, Reg::int(9), -3),
            Inst::br(7),
            Inst::jsr(Reg::int(26), 1),
            Inst::jmp(Reg::int(1), Reg::int(2)),
            Inst::ret(Reg::int(26)),
            Inst::mb(),
            Inst::halt(),
            Inst::nop(),
        ] {
            assert!(i.is_canonical(), "{i}");
        }
    }

    #[test]
    fn canonicalization_is_idempotent_and_preserves_meaning() {
        let messy = Inst {
            op: Opcode::Add,
            rd: Reg::int(1),
            rs1: Reg::int(2),
            rs2: Reg::fp(9), // dead: uses_imm
            imm: 5,
            uses_imm: true,
        };
        let c = messy.canonical();
        assert!(c.is_canonical());
        assert_eq!(c.canonical(), c);
        assert_eq!(c.srcs(), messy.srcs());
        assert_eq!(c.dest(), messy.dest());
    }

    #[test]
    fn display_round_trips_through_mnemonics() {
        assert_eq!(
            Inst::op_rr(Opcode::Add, Reg::int(1), Reg::int(2), Reg::int(3)).to_string(),
            "add r1, r2, r3"
        );
        assert_eq!(
            Inst::op_ri(Opcode::Sub, Reg::int(1), Reg::int(1), 1).to_string(),
            "subi r1, r1, 1"
        );
        assert_eq!(
            Inst::load(Opcode::Ldq, Reg::int(2), Reg::int(3), 8).to_string(),
            "ldq r2, 8(r3)"
        );
        assert_eq!(
            Inst::store(Opcode::FStq, Reg::fp(2), Reg::int(3), 0).to_string(),
            "fstq f2, 0(r3)"
        );
        assert_eq!(
            Inst::branch(Opcode::Bne, Reg::int(9), -3).to_string(),
            "bne r9, -3"
        );
        assert_eq!(Inst::halt().to_string(), "halt");
        assert_eq!(Inst::nop().to_string(), "nop");
    }
}
