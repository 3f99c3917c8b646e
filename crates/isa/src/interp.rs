//! Architectural (functional) interpreter.
//!
//! This is the reference model of the ISA: one instruction per step, in
//! program order, with no timing. The cycle-level pipeline in
//! `looseloops-pipeline` is validated against it — every instruction the
//! pipeline retires must match the interpreter's retire stream value for
//! value ([`Retired`] records carry enough state to compare).

use crate::inst::{Class, Inst, Opcode};
use crate::program::Program;
use crate::reg::{Reg, NUM_ARCH_REGS};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Bytes per [`FlatMemory`] page.
const PAGE_BYTES: usize = 4096;

/// Hashes the page indices of [`FlatMemory`]'s page map: one multiply
/// by the 64-bit golden ratio, with the high half folded into the low
/// half so that both the bucket index (low bits) and the control tag
/// (high bits) vary. Page indices come from the simulated program, and
/// nothing iterates the map in an order that reaches an output, so
/// SipHash's resistance to crafted keys buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Simple sparse memory: 4 KiB pages allocated on first touch.
///
/// Pages are copy-on-write: cloning a memory costs one reference count per
/// page, and a write copies a page only while another memory still shares
/// it. Checkpoints, functional cursors and restored machines therefore
/// share one image and each pays only for the pages it writes.
#[derive(Debug, Default, Clone)]
pub struct FlatMemory {
    pages: HashMap<u64, Arc<[u8; PAGE_BYTES]>, BuildHasherDefault<PageHasher>>,
}

impl FlatMemory {
    /// An empty (all-zero) memory.
    pub fn new() -> FlatMemory {
        FlatMemory::default()
    }

    /// Build a memory pre-loaded with a program's initial data image.
    pub fn with_program(prog: &Program) -> FlatMemory {
        let mut m = FlatMemory::new();
        m.load_init_data(prog);
        m
    }

    /// Copy `prog.init_data` into this memory, one page-sized slice at a
    /// time.
    pub fn load_init_data(&mut self, prog: &Program) {
        for (addr, bytes) in &prog.init_data {
            let mut addr = *addr;
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let off = (addr & 0xfff) as usize;
                let (chunk, tail) = rest.split_at(rest.len().min(PAGE_BYTES - off));
                self.page_mut(addr >> 12)[off..off + chunk.len()].copy_from_slice(chunk);
                addr = addr.wrapping_add(chunk.len() as u64);
                rest = tail;
            }
        }
    }

    /// Number of 4 KiB pages that have been touched.
    pub fn pages_touched(&self) -> usize {
        self.pages.len()
    }

    /// Iterate over touched pages as `(page_index, bytes)` — the byte range
    /// covered by a page is `page_index * 4096 ..`. Order is unspecified;
    /// checkpoint writers sort by index for a canonical encoding.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8; PAGE_BYTES])> {
        self.pages.iter().map(|(&idx, bytes)| (idx, &**bytes))
    }

    /// Install a whole page's bytes at `page_index` (checkpoint restore),
    /// replacing any existing contents of that page.
    pub fn install_page(&mut self, page_index: u64, bytes: &[u8; PAGE_BYTES]) {
        self.pages.insert(page_index, Arc::new(*bytes));
    }

    /// Share with `other` every page whose bytes equal `other`'s page at
    /// the same index; returns how many pages are now shared. Contents
    /// are compared, never assumed, so the memory reads exactly as before.
    pub fn share_equal_pages(&mut self, other: &FlatMemory) -> usize {
        let mut shared = 0;
        for (idx, page) in &mut self.pages {
            if let Some(theirs) = other.pages.get(idx) {
                if Arc::ptr_eq(page, theirs) || **page == **theirs {
                    *page = Arc::clone(theirs);
                    shared += 1;
                }
            }
        }
        shared
    }

    /// Number of this memory's pages that are the same allocation as
    /// `other`'s page at that index.
    pub fn pages_shared_with(&self, other: &FlatMemory) -> usize {
        self.pages
            .iter()
            .filter(|(idx, page)| other.pages.get(idx).is_some_and(|p| Arc::ptr_eq(page, p)))
            .count()
    }

    /// Compare two memories byte for byte, treating untouched pages as
    /// zero-filled. For each page whose contents differ, the first
    /// differing byte is reported; a page touched on only one side whose
    /// contents still compare equal (all zeros) is reported as a
    /// touched-set divergence instead.
    pub fn diff(&self, other: &FlatMemory) -> Vec<StateDivergence> {
        const ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut out = Vec::new();
        for page in pages {
            let a = self.pages.get(&page).map_or(&ZERO_PAGE[..], |p| &p[..]);
            let b = other.pages.get(&page).map_or(&ZERO_PAGE[..], |p| &p[..]);
            if let Some(off) = (0..PAGE_BYTES).find(|&i| a[i] != b[i]) {
                out.push(StateDivergence::Memory {
                    addr: (page << 12) + off as u64,
                    left: a[off],
                    right: b[off],
                });
            } else if self.pages.contains_key(&page) != other.pages.contains_key(&page) {
                out.push(StateDivergence::PageTouched {
                    page,
                    left: self.pages.contains_key(&page),
                    right: other.pages.contains_key(&page),
                });
            }
        }
        out
    }

    /// The page at `index` for writing: allocated zero-filled on first
    /// touch, and copied first if another memory shares it.
    fn page_mut(&mut self, index: u64) -> &mut [u8; PAGE_BYTES] {
        Arc::make_mut(
            self.pages
                .entry(index)
                .or_insert_with(|| Arc::new([0u8; PAGE_BYTES])),
        )
    }

    fn read_byte(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> 12)) {
            Some(p) => p[(addr & 0xfff) as usize],
            None => 0,
        }
    }

    fn write_byte(&mut self, addr: u64, val: u8) {
        self.page_mut(addr >> 12)[(addr & 0xfff) as usize] = val;
    }

    /// Read `size` bytes (1, 4, or 8) at `addr`, little-endian,
    /// zero-extended. Never-written locations read as zero.
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        debug_assert!(matches!(size, 1 | 4 | 8), "unsupported access size {size}");
        let off = (addr & 0xfff) as usize;
        // One page lookup for the whole access; the per-byte path (one
        // hash lookup per byte) only remains for page-straddling accesses.
        if off + size as usize <= PAGE_BYTES {
            return match self.pages.get(&(addr >> 12)) {
                Some(p) => {
                    let mut v: u64 = 0;
                    for (i, &b) in p[off..off + size as usize].iter().enumerate() {
                        v |= (b as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            };
        }
        let mut v: u64 = 0;
        for i in 0..size as u64 {
            v |= (self.read_byte(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Write the low `size` bytes of `val` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, size: u8, val: u64) {
        debug_assert!(matches!(size, 1 | 4 | 8), "unsupported access size {size}");
        let off = (addr & 0xfff) as usize;
        if off + size as usize <= PAGE_BYTES {
            let page = self.page_mut(addr >> 12);
            for (i, b) in page[off..off + size as usize].iter_mut().enumerate() {
                *b = (val >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..size as u64 {
            self.write_byte(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }
}

/// Execution error from the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC ran off the end of the instruction image (or an indirect jump
    /// targeted a non-instruction address).
    PcOutOfRange(u64),
    /// `step` was called on a halted thread.
    Halted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program image"),
            ExecError::Halted => write!(f, "thread already halted"),
        }
    }
}

impl Error for ExecError {}

/// Record of one architecturally retired instruction; the timing simulator
/// emits the same records so the two streams can be compared exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// PC of the retired instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Destination register and the value written, if any.
    pub wrote: Option<(Reg, u64)>,
    /// Effective address and size for loads/stores.
    pub mem_addr: Option<(u64, u8)>,
    /// Branch outcome for control instructions.
    pub taken: Option<bool>,
    /// PC of the next instruction in program order.
    pub next_pc: u64,
}

/// Summary returned by [`ArchState::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions retired.
    pub retired: u64,
    /// True if a `halt` retired (as opposed to the step budget expiring).
    pub halted: bool,
}

/// One observed difference between two architectural states or two data
/// memories — the unit of comparison for the differential tests (see
/// [`ArchState::diff`] and [`FlatMemory::diff`]). `left`/`right` follow the
/// call: `a.diff(&b)` reports `a`'s value as `left`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateDivergence {
    /// An architectural register holds different values.
    Register {
        /// The diverging register.
        reg: Reg,
        /// Value on the left-hand state.
        left: u64,
        /// Value on the right-hand state.
        right: u64,
    },
    /// The program counters differ.
    Pc {
        /// Left-hand PC.
        left: u64,
        /// Right-hand PC.
        right: u64,
    },
    /// One state has halted and the other has not.
    Halted {
        /// Left-hand halt flag.
        left: bool,
        /// Right-hand halt flag.
        right: bool,
    },
    /// A 4 KiB page was touched on one side only (contents still equal,
    /// i.e. all zeros).
    PageTouched {
        /// Page number (byte address `page << 12`).
        page: u64,
        /// Whether the left-hand memory touched the page.
        left: bool,
        /// Whether the right-hand memory touched the page.
        right: bool,
    },
    /// First differing byte of a page whose contents diverge.
    Memory {
        /// Byte address of the first difference within the page.
        addr: u64,
        /// Byte on the left-hand memory.
        left: u8,
        /// Byte on the right-hand memory.
        right: u8,
    },
}

impl fmt::Display for StateDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StateDivergence::Register { reg, left, right } => {
                write!(f, "register {reg}: {left:#x} != {right:#x}")
            }
            StateDivergence::Pc { left, right } => write!(f, "pc: {left} != {right}"),
            StateDivergence::Halted { left, right } => {
                write!(f, "halted: {left} != {right}")
            }
            StateDivergence::PageTouched { page, left, right } => write!(
                f,
                "page {page:#x} (addr {:#x}): touched {left} != {right}",
                page << 12
            ),
            StateDivergence::Memory { addr, left, right } => {
                write!(f, "mem[{addr:#x}]: {left:#04x} != {right:#04x}")
            }
        }
    }
}

/// Architectural register + PC state of one thread.
#[derive(Debug, Clone)]
pub struct ArchState {
    regs: [u64; NUM_ARCH_REGS as usize],
    pc: u64,
    halted: bool,
}

impl ArchState {
    /// Fresh state at the program's entry point with all registers zero.
    pub fn new(prog: &Program) -> ArchState {
        ArchState {
            regs: [0; NUM_ARCH_REGS as usize],
            pc: prog.entry,
            halted: false,
        }
    }

    /// Current PC (instruction index).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True once a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Read an architectural register (zero registers read as 0).
    pub fn read_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write an architectural register (writes to zero registers are
    /// discarded).
    pub fn write_reg(&mut self, r: Reg, val: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = val;
        }
    }

    /// Overwrite the PC — for reconstructing a snapshot of an externally
    /// tracked architectural state (the timing model's retired rename map).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Overwrite the halt flag (snapshot reconstruction, like [`set_pc`]).
    ///
    /// [`set_pc`]: ArchState::set_pc
    pub fn set_halted(&mut self, halted: bool) {
        self.halted = halted;
    }

    /// Every difference between two architectural states: registers
    /// (zero registers always compare equal), PC, and halt flag. Empty
    /// means the states are architecturally identical.
    pub fn diff(&self, other: &ArchState) -> Vec<StateDivergence> {
        let mut out = Vec::new();
        for idx in 0..NUM_ARCH_REGS {
            let reg = Reg::from_index(idx);
            let (left, right) = (self.read_reg(reg), other.read_reg(reg));
            if left != right {
                out.push(StateDivergence::Register { reg, left, right });
            }
        }
        if self.pc != other.pc {
            out.push(StateDivergence::Pc {
                left: self.pc,
                right: other.pc,
            });
        }
        if self.halted != other.halted {
            out.push(StateDivergence::Halted {
                left: self.halted,
                right: other.halted,
            });
        }
        out
    }

    /// Execute one instruction.
    ///
    /// # Errors
    ///
    /// [`ExecError::Halted`] if the thread has halted, or
    /// [`ExecError::PcOutOfRange`] if the PC does not point at an
    /// instruction.
    pub fn step(&mut self, prog: &Program, mem: &mut FlatMemory) -> Result<Retired, ExecError> {
        if self.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.pc;
        let inst = prog.fetch(pc).ok_or(ExecError::PcOutOfRange(pc))?;
        let retired = self.execute(inst, pc, mem);
        self.pc = retired.next_pc;
        Ok(retired)
    }

    /// Run up to `max_steps` instructions or until `halt`.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError::PcOutOfRange`]; never returns
    /// [`ExecError::Halted`] (a halt simply ends the run).
    pub fn run(
        &mut self,
        prog: &Program,
        mem: &mut FlatMemory,
        max_steps: u64,
    ) -> Result<RunSummary, ExecError> {
        let mut retired = 0;
        while retired < max_steps && !self.halted {
            self.step(prog, mem)?;
            retired += 1;
        }
        Ok(RunSummary {
            retired,
            halted: self.halted,
        })
    }

    /// The semantics of `inst` at `pc`; shared by `step` and (via re-export)
    /// the timing simulator's execute stage.
    pub fn execute(&mut self, inst: Inst, pc: u64, mem: &mut FlatMemory) -> Retired {
        use Opcode::*;
        let s1 = self.read_reg(inst.rs1);
        let s2 = if inst.uses_imm {
            inst.imm as i64 as u64
        } else {
            self.read_reg(inst.rs2)
        };
        let fall = pc + 1;
        let mut wrote = None;
        let mut mem_addr = None;
        let mut taken = None;
        let mut next_pc = fall;

        let mut write = |st: &mut Self, r: Reg, v: u64| {
            st.write_reg(r, v);
            if !r.is_zero() {
                wrote = Some((r, v));
            }
        };

        match inst.op {
            Add | Sub | Mul | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Seq | FAdd | FSub
            | FMul | FDiv | FCmpLt | FCmpEq | FCvtIf | FCvtFi => {
                write(self, inst.rd, eval_op(inst.op, s1, s2))
            }
            Ldq | Ldl | FLdq => {
                let addr = s1.wrapping_add(inst.imm as i64 as u64);
                let size = if inst.op == Ldl { 4 } else { 8 };
                let v = mem.read(addr, size);
                mem_addr = Some((addr, size));
                write(self, inst.rd, v);
            }
            Stq | Stl | FStq => {
                let addr = s1.wrapping_add(inst.imm as i64 as u64);
                let size = if inst.op == Stl { 4 } else { 8 };
                let data = self.read_reg(inst.rs2);
                mem.write(addr, size, data);
                mem_addr = Some((addr, size));
            }
            Beq | Bne | Blt | Bge | Ble | Bgt => {
                let t = branch_taken(inst.op, s1);
                taken = Some(t);
                if t {
                    next_pc = (fall as i64 + inst.imm as i64) as u64;
                }
            }
            Br => {
                taken = Some(true);
                next_pc = (fall as i64 + inst.imm as i64) as u64;
            }
            Jsr => {
                taken = Some(true);
                write(self, inst.rd, fall);
                next_pc = (fall as i64 + inst.imm as i64) as u64;
            }
            Jmp => {
                taken = Some(true);
                write(self, inst.rd, fall);
                next_pc = s1;
            }
            Ret => {
                taken = Some(true);
                next_pc = s1;
            }
            Mb | Nop => {}
            Halt => {
                self.halted = true;
                next_pc = pc; // a halted thread's PC stays put
            }
        }

        Retired {
            pc,
            inst,
            wrote,
            mem_addr,
            taken,
            next_pc,
        }
    }
}

/// Pure evaluation of an operate-class instruction: `rd = s1 <op> s2`.
///
/// Shared by the interpreter and the pipeline's execute stage so the two
/// models cannot diverge on ALU semantics.
///
/// # Panics
///
/// Panics for non-operate opcodes (memory, control, misc).
pub fn eval_op(op: Opcode, s1: u64, s2: u64) -> u64 {
    use Opcode::*;
    match op {
        Add => s1.wrapping_add(s2),
        Sub => s1.wrapping_sub(s2),
        Mul => s1.wrapping_mul(s2),
        And => s1 & s2,
        Or => s1 | s2,
        Xor => s1 ^ s2,
        Sll => s1.wrapping_shl((s2 & 63) as u32),
        Srl => s1.wrapping_shr((s2 & 63) as u32),
        Sra => ((s1 as i64).wrapping_shr((s2 & 63) as u32)) as u64,
        Slt => ((s1 as i64) < (s2 as i64)) as u64,
        Sltu => (s1 < s2) as u64,
        Seq => (s1 == s2) as u64,
        FAdd => fop(s1, s2, |a, b| a + b),
        FSub => fop(s1, s2, |a, b| a - b),
        FMul => fop(s1, s2, |a, b| a * b),
        FDiv => fop(s1, s2, |a, b| a / b),
        FCmpLt => (f64::from_bits(s1) < f64::from_bits(s2)) as u64,
        FCmpEq => (f64::from_bits(s1) == f64::from_bits(s2)) as u64,
        FCvtIf => (s1 as i64 as f64).to_bits(),
        FCvtFi => {
            let f = f64::from_bits(s1);
            if f.is_nan() {
                0
            } else {
                f as i64 as u64
            }
        }
        other => panic!("{other:?} is not an operate opcode"),
    }
}

/// Evaluate a conditional branch's direction for a given test value.
pub fn branch_taken(op: Opcode, test: u64) -> bool {
    let s = test as i64;
    match op {
        Opcode::Beq => test == 0,
        Opcode::Bne => test != 0,
        Opcode::Blt => s < 0,
        Opcode::Bge => s >= 0,
        Opcode::Ble => s <= 0,
        Opcode::Bgt => s > 0,
        _ => panic!("{op:?} is not a conditional branch"),
    }
}

/// Resolve the taken-path target of any control instruction given its
/// operand value. Shared by the interpreter and the pipeline's execute
/// stage.
pub fn control_target(inst: Inst, pc: u64, src_val: u64) -> u64 {
    match inst.class() {
        Class::CondBranch | Class::Branch => (pc as i64 + 1 + inst.imm as i64) as u64,
        Class::Jump => src_val,
        _ => panic!("{inst} is not a control instruction"),
    }
}

fn fop(a: u64, b: u64, f: impl Fn(f64, f64) -> f64) -> u64 {
    f(f64::from_bits(a), f64::from_bits(b)).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn run_prog(b: ProgramBuilder) -> (ArchState, FlatMemory) {
        let prog = b.build().unwrap();
        let mut mem = FlatMemory::with_program(&prog);
        let mut st = ArchState::new(&prog);
        let summary = st.run(&prog, &mut mem, 1_000_000).unwrap();
        assert!(summary.halted, "program did not halt");
        (st, mem)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut b = ProgramBuilder::new("sum");
        b.addi(Reg::int(1), Reg::ZERO, 100);
        b.label("top");
        b.add(Reg::int(2), Reg::int(2), Reg::int(1));
        b.subi(Reg::int(1), Reg::int(1), 1);
        b.bne(Reg::int(1), "top");
        b.halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.read_reg(Reg::int(2)), 5050);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut b = ProgramBuilder::new("mem");
        b.data_words(0x2000, &[11, 22, 33]);
        b.addi(Reg::int(1), Reg::ZERO, 0x2000);
        b.ldq(Reg::int(2), Reg::int(1), 8); // 22
        b.ldq(Reg::int(3), Reg::int(1), 16); // 33
        b.add(Reg::int(4), Reg::int(2), Reg::int(3));
        b.stq(Reg::int(4), Reg::int(1), 24);
        b.ldq(Reg::int(5), Reg::int(1), 24);
        b.halt();
        let (st, mem) = run_prog(b);
        assert_eq!(st.read_reg(Reg::int(5)), 55);
        assert_eq!(mem.read(0x2018, 8), 55);
    }

    #[test]
    fn word_store_truncates() {
        let mut b = ProgramBuilder::new("stl");
        b.addi(Reg::int(1), Reg::ZERO, 0x3000);
        b.addi(Reg::int(2), Reg::ZERO, -1); // 0xffff_ffff_ffff_ffff
        b.push(Inst::store(Opcode::Stl, Reg::int(2), Reg::int(1), 0));
        b.push(Inst::load(Opcode::Ldl, Reg::int(3), Reg::int(1), 0));
        b.ldq(Reg::int(4), Reg::int(1), 0);
        b.halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.read_reg(Reg::int(3)), 0xffff_ffff);
        assert_eq!(st.read_reg(Reg::int(4)), 0xffff_ffff);
    }

    #[test]
    fn fp_pipeline_math() {
        let mut b = ProgramBuilder::new("fp");
        b.data_words(0x100, &[2.5f64.to_bits(), 4.0f64.to_bits()]);
        b.addi(Reg::int(1), Reg::ZERO, 0x100);
        b.fldq(Reg::fp(0), Reg::int(1), 0);
        b.fldq(Reg::fp(1), Reg::int(1), 8);
        b.fmul(Reg::fp(2), Reg::fp(0), Reg::fp(1)); // 10.0
        b.fdiv(Reg::fp(3), Reg::fp(2), Reg::fp(1)); // 2.5
        b.fsub(Reg::fp(4), Reg::fp(3), Reg::fp(0)); // 0.0
        b.fstq(Reg::fp(2), Reg::int(1), 16);
        b.halt();
        let (st, mem) = run_prog(b);
        assert_eq!(f64::from_bits(st.read_reg(Reg::fp(4))), 0.0);
        assert_eq!(f64::from_bits(mem.read(0x110, 8)), 10.0);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        b.jsr(Reg::int(26), "func");
        b.addi(Reg::int(2), Reg::int(1), 100); // executes after return
        b.halt();
        b.label("func");
        b.addi(Reg::int(1), Reg::ZERO, 5);
        b.ret(Reg::int(26));
        let (st, _) = run_prog(b);
        assert_eq!(st.read_reg(Reg::int(2)), 105);
    }

    #[test]
    fn branch_directions() {
        assert!(branch_taken(Opcode::Beq, 0));
        assert!(!branch_taken(Opcode::Beq, 1));
        assert!(branch_taken(Opcode::Bne, u64::MAX));
        assert!(branch_taken(Opcode::Blt, (-5i64) as u64));
        assert!(!branch_taken(Opcode::Blt, 5));
        assert!(branch_taken(Opcode::Bge, 0));
        assert!(branch_taken(Opcode::Ble, 0));
        assert!(!branch_taken(Opcode::Bgt, 0));
        assert!(branch_taken(Opcode::Bgt, 7));
    }

    #[test]
    fn halt_freezes_state() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        let r = st.step(&prog, &mut mem).unwrap();
        assert_eq!(r.next_pc, 0);
        assert!(st.is_halted());
        assert_eq!(st.step(&prog, &mut mem), Err(ExecError::Halted));
    }

    #[test]
    fn runaway_pc_is_detected() {
        let prog = Program::new("bad", vec![Inst::nop()]);
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        st.step(&prog, &mut mem).unwrap();
        assert_eq!(st.step(&prog, &mut mem), Err(ExecError::PcOutOfRange(1)));
    }

    #[test]
    fn zero_register_never_changes() {
        let mut b = ProgramBuilder::new("z");
        b.addi(Reg::ZERO, Reg::ZERO, 42);
        b.add(Reg::int(1), Reg::ZERO, Reg::ZERO);
        b.halt();
        let (st, _) = run_prog(b);
        assert_eq!(st.read_reg(Reg::ZERO), 0);
        assert_eq!(st.read_reg(Reg::int(1)), 0);
    }

    #[test]
    fn flat_memory_is_zero_initialized_and_sparse() {
        let mut m = FlatMemory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
        assert_eq!(m.pages_touched(), 0);
        m.write(0x1000, 8, 0x1122334455667788);
        assert_eq!(m.read(0x1000, 8), 0x1122334455667788);
        assert_eq!(m.read(0x1004, 4), 0x11223344);
        assert_eq!(m.pages_touched(), 1);
        // Cross-page access.
        m.write(0x1ffc, 8, u64::MAX);
        assert_eq!(m.read(0x1ffc, 8), u64::MAX);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn identical_states_have_no_divergences() {
        let prog = Program::new("p", vec![Inst::nop()]);
        let a = ArchState::new(&prog);
        let b = a.clone();
        assert!(a.diff(&b).is_empty());
        assert!(FlatMemory::new().diff(&FlatMemory::new()).is_empty());
    }

    #[test]
    fn state_diff_reports_registers_pc_and_halt() {
        let prog = Program::new("p", vec![Inst::nop()]);
        let mut a = ArchState::new(&prog);
        let mut b = ArchState::new(&prog);
        a.write_reg(Reg::int(5), 7);
        b.write_reg(Reg::fp(2), 9);
        b.set_pc(3);
        b.set_halted(true);
        // Zero-register writes are discarded, so they never diverge.
        a.write_reg(Reg::ZERO, 1);
        let d = a.diff(&b);
        assert_eq!(
            d,
            vec![
                StateDivergence::Register {
                    reg: Reg::int(5),
                    left: 7,
                    right: 0
                },
                StateDivergence::Register {
                    reg: Reg::fp(2),
                    left: 0,
                    right: 9
                },
                StateDivergence::Pc { left: 0, right: 3 },
                StateDivergence::Halted {
                    left: false,
                    right: true
                },
            ]
        );
        // diff is anti-symmetric in left/right.
        assert_eq!(b.diff(&a).len(), d.len());
    }

    #[test]
    fn memory_diff_finds_first_differing_byte_per_page() {
        let mut a = FlatMemory::new();
        let mut b = FlatMemory::new();
        a.write(0x1000, 8, 0x1122334455667788);
        b.write(0x1000, 8, 0x1122334455667789);
        a.write(0x5008, 4, 1); // page only a touches, nonzero
        let d = a.diff(&b);
        assert_eq!(
            d,
            vec![
                StateDivergence::Memory {
                    addr: 0x1000,
                    left: 0x88,
                    right: 0x89
                },
                StateDivergence::Memory {
                    addr: 0x5008,
                    left: 1,
                    right: 0
                },
            ]
        );
    }

    #[test]
    fn memory_diff_reports_zero_page_touch_asymmetry() {
        let mut a = FlatMemory::new();
        a.write(0x2000, 8, 0); // touched, but still all zeros
        assert_eq!(
            a.diff(&FlatMemory::new()),
            vec![StateDivergence::PageTouched {
                page: 2,
                left: true,
                right: false
            }]
        );
    }

    #[test]
    fn divergences_display_readably() {
        let d = StateDivergence::Register {
            reg: Reg::int(5),
            left: 7,
            right: 0,
        };
        assert_eq!(d.to_string(), "register r5: 0x7 != 0x0");
        let m = StateDivergence::Memory {
            addr: 0x1000,
            left: 0x88,
            right: 0x89,
        };
        assert_eq!(m.to_string(), "mem[0x1000]: 0x88 != 0x89");
    }

    #[test]
    fn retired_records_capture_effects() {
        let mut b = ProgramBuilder::new("r");
        b.addi(Reg::int(1), Reg::ZERO, 7);
        b.stq(Reg::int(1), Reg::ZERO, 0x40);
        b.beq(Reg::ZERO, "t");
        b.nop();
        b.label("t");
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        let r0 = st.step(&prog, &mut mem).unwrap();
        assert_eq!(r0.wrote, Some((Reg::int(1), 7)));
        let r1 = st.step(&prog, &mut mem).unwrap();
        assert_eq!(r1.mem_addr, Some((0x40, 8)));
        let r2 = st.step(&prog, &mut mem).unwrap();
        assert_eq!(r2.taken, Some(true));
        assert_eq!(r2.next_pc, 4);
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;

    #[test]
    fn computed_jump_table() {
        // jump to base + selector via jmp.
        let mut b = ProgramBuilder::new("jumptable");
        // r1 = selector (1), r2 = target pc
        b.addi(Reg::int(1), Reg::ZERO, 1);
        b.addi(Reg::int(2), Reg::ZERO, 5); // case1 label index (computed below)
        b.add(Reg::int(2), Reg::int(2), Reg::int(1));
        b.push(crate::inst::Inst::jmp(Reg::int(3), Reg::int(2)));
        b.halt(); // skipped
        b.label("case0"); // pc 5
        b.addi(Reg::int(4), Reg::ZERO, 100);
        b.label("case1"); // pc 6
        b.addi(Reg::int(4), Reg::int(4), 1);
        b.halt();
        let prog = b.build().unwrap();
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        st.run(&prog, &mut mem, 100).unwrap();
        // Selector 1 skips case0's init: r4 == 1.
        assert_eq!(st.read_reg(Reg::int(4)), 1);
        assert_eq!(st.read_reg(Reg::int(3)), 4, "jmp links pc+1");
    }

    #[test]
    fn nested_calls_return_correctly() {
        // main -> f -> g, returns unwind in order.
        let mut b = ProgramBuilder::new("nest");
        b.jsr(Reg::int(26), "f");
        b.addi(Reg::int(1), Reg::int(1), 100); // after f returns
        b.halt();
        b.label("f");
        b.jsr(Reg::int(27), "g");
        b.addi(Reg::int(1), Reg::int(1), 10); // after g returns
        b.ret(Reg::int(26));
        b.label("g");
        b.addi(Reg::int(1), Reg::int(1), 1);
        b.ret(Reg::int(27));
        let prog = b.build().unwrap();
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        let summary = st.run(&prog, &mut mem, 100).unwrap();
        assert!(summary.halted);
        assert_eq!(st.read_reg(Reg::int(1)), 111);
    }

    #[test]
    fn init_data_straddling_a_page_boundary_loads_every_byte() {
        // 10,000 bytes from 0x1ffd cross into three more pages.
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut b = ProgramBuilder::new("straddle");
        b.data(0x1ffd, bytes.clone());
        b.halt();
        let prog = b.build().unwrap();
        let mem = FlatMemory::with_program(&prog);
        assert_eq!(mem.pages_touched(), 4);
        for (i, &want) in bytes.iter().enumerate() {
            assert_eq!(mem.read(0x1ffd + i as u64, 1), u64::from(want), "byte {i}");
        }
        assert_eq!(mem.read(0x1ffc, 1), 0);
        assert_eq!(mem.read(0x1ffd + bytes.len() as u64, 1), 0);
    }

    #[test]
    fn writes_after_a_clone_stay_private_to_each_copy() {
        let mut a = FlatMemory::new();
        a.write(0x1000, 8, 0x1111);
        a.write(0x5ffc, 8, 0x2222); // straddles pages 5 and 6
        let mut b = a.clone();
        assert_eq!(b.pages_shared_with(&a), 3);
        b.write(0x1000, 8, 0x3333);
        a.write(0x5ffc, 8, 0x4444);
        a.write(0x9000, 1, 0x55);
        assert_eq!(a.read(0x1000, 8), 0x1111);
        assert_eq!(b.read(0x1000, 8), 0x3333);
        assert_eq!(a.read(0x5ffc, 8), 0x4444);
        assert_eq!(b.read(0x5ffc, 8), 0x2222);
        assert_eq!(b.read(0x9000, 1), 0);
        assert_eq!(b.pages_touched(), 3);
        assert_eq!(b.pages_shared_with(&a), 0, "every shared page was written");
    }

    #[test]
    fn only_pages_with_equal_bytes_are_shared() {
        let mut first = FlatMemory::new();
        for page in 0..4u64 {
            first.write(page << 12, 8, page + 1);
        }
        let mut image = FlatMemory::new();
        for page in 0..4u64 {
            image.write(page << 12, 8, page + 1);
        }
        image.write((2 << 12) + 4095, 1, 0xee); // one differing byte
        image.write(9 << 12, 8, 1); // a page `first` never touched
        assert_eq!(image.share_equal_pages(&first), 3);
        assert_eq!(image.pages_shared_with(&first), 3);
        assert_eq!(image.read((2 << 12) + 4095, 1), 0xee);
        assert_eq!(first.read((2 << 12) + 4095, 1), 0);
        // A write through a shared page copies it and leaves `first` alone.
        image.write(0, 8, 77);
        assert_eq!(first.read(0, 8), 1);
        assert_eq!(image.pages_shared_with(&first), 2);
    }
}
