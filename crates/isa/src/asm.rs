//! A small text assembler for the mini ISA.
//!
//! Syntax summary (one instruction per line, `;` or `#` start comments):
//!
//! ```text
//!     .data 0x1000, 1, 2, 3      ; preload 64-bit words at an address
//! entry:
//!     addi r1, r31, 64           ; immediate operate forms end in `i`
//!     ldq  r2, 8(r1)             ; loads:  rd, disp(base)
//!     stq  r2, 0(r1)             ; stores: data, disp(base)
//!     fadd f1, f2, f3
//!     bne  r2, entry             ; branches take a label or a displacement
//!     jsr  r26, entry
//!     ret  r26
//!     mb
//!     halt
//! ```

use crate::inst::{Inst, Opcode};
use crate::program::{Program, ProgramBuilder, ProgramError};
use crate::reg::Reg;
use std::error::Error;
use std::fmt;

/// Assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number (0 for link-time errors such as missing labels).
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "link error: {}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

/// Assemble `source` into a [`Program`] named "asm".
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line for syntax problems, or with
/// line 0 for unresolved/duplicate labels.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_named("asm", source)
}

/// Assemble `source` into a [`Program`] with the given name.
///
/// # Errors
///
/// See [`assemble`].
pub fn assemble_named(name: &str, source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new(name);
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        // Leading labels (possibly several): `name:`
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let head = head.trim();
            if head.is_empty() || !is_ident(head) {
                break;
            }
            b.label(head);
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        parse_inst(&mut b, rest, lineno)?;
    }
    b.build().map_err(|e| match e {
        ProgramError::UndefinedLabel(l) => err(0, format!("undefined label `{l}`")),
        ProgramError::DuplicateLabel(l) => err(0, format!("duplicate label `{l}`")),
        ProgramError::DisplacementOverflow { label, disp } => err(
            0,
            format!("branch to `{label}` out of range (displacement {disp})"),
        ),
        ProgramError::Empty => err(0, "no instructions in source".to_string()),
        ProgramError::TrailingBranch(op) => err(
            0,
            format!(
                "program ends in conditional branch `{}` (fall-through runs off the image)",
                op.mnemonic()
            ),
        ),
    })
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find([';', '#']).unwrap_or(line.len());
    &line[..cut]
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_inst(b: &mut ProgramBuilder, text: &str, line: usize) -> Result<(), AsmError> {
    let (mnemonic, args) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let args: Vec<&str> = if args.is_empty() {
        vec![]
    } else {
        args.split(',').map(str::trim).collect()
    };

    if mnemonic == ".entry" {
        let [label] = one_arg(&args, line)?;
        b.entry(label.to_string());
        return Ok(());
    }

    if mnemonic == ".data" {
        if args.len() < 2 {
            return Err(err(line, ".data needs an address and at least one word"));
        }
        let addr = parse_num(args[0], line)? as u64;
        let words: Result<Vec<u64>, _> = args[1..]
            .iter()
            .map(|a| parse_num(a, line).map(|v| v as u64))
            .collect();
        b.data_words(addr, &words?);
        return Ok(());
    }

    // Operate instructions: register form and `i`-suffixed immediate form.
    let operate = |m: &str| -> Option<(Opcode, bool)> {
        let table: &[(&str, Opcode)] = &[
            ("add", Opcode::Add),
            ("sub", Opcode::Sub),
            ("mul", Opcode::Mul),
            ("and", Opcode::And),
            ("or", Opcode::Or),
            ("xor", Opcode::Xor),
            ("sll", Opcode::Sll),
            ("srl", Opcode::Srl),
            ("sra", Opcode::Sra),
            ("slt", Opcode::Slt),
            ("sltu", Opcode::Sltu),
            ("seq", Opcode::Seq),
            ("fadd", Opcode::FAdd),
            ("fsub", Opcode::FSub),
            ("fmul", Opcode::FMul),
            ("fdiv", Opcode::FDiv),
            ("fcmplt", Opcode::FCmpLt),
            ("fcmpeq", Opcode::FCmpEq),
            ("fcvtif", Opcode::FCvtIf),
            ("fcvtfi", Opcode::FCvtFi),
        ];
        for &(name, op) in table {
            if m == name {
                return Some((op, false));
            }
            // `i`-suffixed immediate forms; for FP ops the immediate is the
            // raw (sign-extended) bit pattern of the second operand, which
            // mainly exists so disassembly of arbitrary instructions can be
            // re-assembled.
            if let Some(stem) = m.strip_suffix('i') {
                if stem == name && !matches!(op, Opcode::FCvtIf | Opcode::FCvtFi) {
                    return Some((op, true));
                }
            }
        }
        None
    };

    let mem_op = |m: &str| -> Option<Opcode> {
        match m {
            "ldq" => Some(Opcode::Ldq),
            "ldl" => Some(Opcode::Ldl),
            "stq" => Some(Opcode::Stq),
            "stl" => Some(Opcode::Stl),
            "fldq" => Some(Opcode::FLdq),
            "fstq" => Some(Opcode::FStq),
            _ => None,
        }
    };

    let branch_op = |m: &str| -> Option<Opcode> {
        match m {
            "beq" => Some(Opcode::Beq),
            "bne" => Some(Opcode::Bne),
            "blt" => Some(Opcode::Blt),
            "bge" => Some(Opcode::Bge),
            "ble" => Some(Opcode::Ble),
            "bgt" => Some(Opcode::Bgt),
            _ => None,
        }
    };

    if let Some((op, imm_form)) = operate(&mnemonic) {
        // fcvt* are unary: rd, rs1
        if matches!(op, Opcode::FCvtIf | Opcode::FCvtFi) {
            let [rd, rs1] = two_args(&args, line)?;
            b.push(Inst::op_rr(
                op,
                parse_reg(rd, line)?,
                parse_reg(rs1, line)?,
                Reg::FZERO,
            ));
            return Ok(());
        }
        let [rd, rs1, src2] = three_args(&args, line)?;
        let rd = parse_reg(rd, line)?;
        let rs1 = parse_reg(rs1, line)?;
        if imm_form {
            b.push(Inst::op_ri(op, rd, rs1, parse_imm(src2, line)?));
        } else {
            b.push(Inst::op_rr(op, rd, rs1, parse_reg(src2, line)?));
        }
        return Ok(());
    }

    if let Some(op) = mem_op(&mnemonic) {
        let [data_or_dest, addr] = two_args(&args, line)?;
        let r = parse_reg(data_or_dest, line)?;
        let (disp, base) = parse_addr(addr, line)?;
        let inst = if op.class() == crate::inst::Class::Load {
            Inst::load(op, r, base, disp)
        } else {
            Inst::store(op, r, base, disp)
        };
        b.push(inst);
        return Ok(());
    }

    if let Some(op) = branch_op(&mnemonic) {
        let [rs1, target] = two_args(&args, line)?;
        let rs1 = parse_reg(rs1, line)?;
        push_control(b, Inst::branch(op, rs1, 0), target, line);
        return Ok(());
    }

    match mnemonic.as_str() {
        "br" => {
            let [target] = one_arg(&args, line)?;
            push_control(b, Inst::br(0), target, line);
            Ok(())
        }
        "jsr" => {
            let [rd, target] = two_args(&args, line)?;
            let rd = parse_reg(rd, line)?;
            push_control(b, Inst::jsr(rd, 0), target, line);
            Ok(())
        }
        "jmp" => {
            let [rd, rs1] = two_args(&args, line)?;
            b.push(Inst::jmp(parse_reg(rd, line)?, parse_reg(rs1, line)?));
            Ok(())
        }
        "ret" => {
            let [rs1] = one_arg(&args, line)?;
            b.push(Inst::ret(parse_reg(rs1, line)?));
            Ok(())
        }
        "mb" | "halt" | "nop" => {
            if !args.is_empty() {
                return Err(err(line, format!("`{mnemonic}` takes no operands")));
            }
            b.push(match mnemonic.as_str() {
                "mb" => Inst::mb(),
                "halt" => Inst::halt(),
                _ => Inst::nop(),
            });
            Ok(())
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

fn push_control(b: &mut ProgramBuilder, mut inst: Inst, target: &str, line: usize) {
    if let Ok(disp) = parse_num(target, line) {
        inst.imm = disp as i32;
        b.push(inst);
    } else {
        b.push_to_label(inst, target);
    }
}

fn one_arg<'a>(args: &[&'a str], line: usize) -> Result<[&'a str; 1], AsmError> {
    match args {
        [a] => Ok([a]),
        _ => Err(err(line, format!("expected 1 operand, got {}", args.len()))),
    }
}

fn two_args<'a>(args: &[&'a str], line: usize) -> Result<[&'a str; 2], AsmError> {
    match args {
        [a, b] => Ok([a, b]),
        _ => Err(err(
            line,
            format!("expected 2 operands, got {}", args.len()),
        )),
    }
}

fn three_args<'a>(args: &[&'a str], line: usize) -> Result<[&'a str; 3], AsmError> {
    match args {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(err(
            line,
            format!("expected 3 operands, got {}", args.len()),
        )),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    // The bank is the first *character*: it may span several bytes.
    let mut chars = s.chars();
    let bank = chars.next();
    let n: u8 = chars
        .as_str()
        .parse()
        .map_err(|_| err(line, format!("bad register `{s}`")))?;
    if n >= 32 {
        return Err(err(line, format!("register number out of range in `{s}`")));
    }
    match bank {
        Some('r' | 'R') => Ok(Reg::int(n)),
        Some('f' | 'F') => Ok(Reg::fp(n)),
        _ => Err(err(line, format!("bad register `{s}`"))),
    }
}

fn parse_num(s: &str, line: usize) -> Result<i64, AsmError> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        // Hex literals are bit patterns: accept the full u64 range so
        // 64-bit `.data` words round-trip through the disassembler
        // (immediates are still range-checked by `parse_imm`).
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad number `{s}`")))?;
    Ok(if neg { v.wrapping_neg() } else { v })
}

fn parse_imm(s: &str, line: usize) -> Result<i32, AsmError> {
    let v = parse_num(s, line)?;
    if v < Inst::IMM_MIN as i64 || v > Inst::IMM_MAX as i64 {
        return Err(err(line, format!("immediate `{s}` out of 24-bit range")));
    }
    Ok(v as i32)
}

/// Parse `disp(base)` memory-operand syntax.
fn parse_addr(s: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = s
        .find('(')
        .ok_or_else(|| err(line, format!("expected disp(base), got `{s}`")))?;
    if !s.ends_with(')') {
        return Err(err(line, format!("expected disp(base), got `{s}`")));
    }
    let disp_str = s[..open].trim();
    let disp = if disp_str.is_empty() {
        0
    } else {
        parse_imm(disp_str, line)?
    };
    let base = parse_reg(s[open + 1..s.len() - 1].trim(), line)?;
    Ok((disp, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ArchState, FlatMemory};

    #[test]
    fn assembles_and_runs_a_kernel() {
        let prog = assemble(
            "
            .data 0x1000, 5, 10, 15, 20
                addi r1, r31, 0x1000
                addi r2, r31, 4       # count
                addi r3, r31, 0       ; sum
            top:
                ldq  r4, 0(r1)
                add  r3, r3, r4
                addi r1, r1, 8
                subi r2, r2, 1
                bne  r2, top
                stq  r3, 0(r1)
                halt
            ",
        )
        .unwrap();
        let mut mem = FlatMemory::with_program(&prog);
        let mut st = ArchState::new(&prog);
        st.run(&prog, &mut mem, 10_000).unwrap();
        assert_eq!(st.read_reg(Reg::int(3)), 50);
    }

    #[test]
    fn every_mnemonic_parses() {
        let prog = assemble(
            "
            start:
                add r1, r2, r3
                addi r1, r2, -5
                sub r1, r2, r3
                mul r1, r2, r3
                and r1, r2, r3
                or r1, r2, r3
                xor r1, r2, r3
                slli r1, r2, 3
                srli r1, r2, 3
                srai r1, r2, 3
                slt r1, r2, r3
                sltui r1, r2, 9
                seq r1, r2, r3
                fadd f1, f2, f3
                fsub f1, f2, f3
                fmul f1, f2, f3
                fdiv f1, f2, f3
                fcmplt f1, f2, f3
                fcvtif f1, f2
                fcvtfi f1, f2
                ldq r1, 8(r2)
                ldl r1, (r2)
                stq r1, -8(r2)
                stl r1, 0(r2)
                fldq f1, 16(r2)
                fstq f1, 16(r2)
                beq r1, start
                bne r1, start
                blt r1, start
                bge r1, start
                ble r1, start
                bgt r1, +2
                br start
                jsr r26, start
                jmp r0, r27
                ret r26
                mb
                halt
                nop
            ",
        )
        .unwrap();
        assert_eq!(prog.len(), 39);
    }

    #[test]
    fn entry_directive_sets_start_pc() {
        let prog = assemble(
            ".entry main
nop
main: halt",
        )
        .unwrap();
        assert_eq!(prog.entry, 1);
        let mut mem = FlatMemory::new();
        let mut st = ArchState::new(&prog);
        let s = st.run(&prog, &mut mem, 10).unwrap();
        assert!(s.halted);
        assert_eq!(s.retired, 1, "the nop before main never executes");
    }

    #[test]
    fn labels_on_their_own_line() {
        let prog = assemble("a:\nb: nop\n br b\n halt").unwrap();
        assert_eq!(prog.insts[1].imm, -2);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\n frobnicate r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn bad_register_reports_line() {
        let e = assemble("add r1, r2, r32").unwrap_err();
        assert_eq!(e.line, 1);
        // Regression: a multi-byte first character used to panic.
        let e = assemble("add r3, é r1, r2").unwrap_err();
        assert_eq!(e, err(1, "bad register `é r1`".to_string()));
    }

    #[test]
    fn undefined_label_reported_at_link() {
        let e = assemble("br nowhere\nhalt").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn numeric_branch_targets_allowed() {
        let prog = assemble("beq r1, -1\nhalt").unwrap();
        assert_eq!(prog.insts[0].imm, -1);
    }

    #[test]
    fn wrong_arity_reports() {
        assert!(assemble("add r1, r2").is_err());
        assert!(assemble("ret").is_err());
        assert!(assemble("mb r1").unwrap_err().msg.contains("no operands"));
    }

    #[test]
    fn hex_and_negative_numbers() {
        let prog = assemble("addi r1, r31, 0x10\naddi r2, r31, -0x10\nhalt").unwrap();
        assert_eq!(prog.insts[0].imm, 16);
        assert_eq!(prog.insts[1].imm, -16);
    }

    #[test]
    fn data_words_cover_the_full_u64_range() {
        // The disassembler emits data words as raw u64 hex; values above
        // i64::MAX must assemble back (found by the differential fuzzer's
        // corpus round-trip).
        let prog = assemble(".data 0x100, 0xdfa3bb67dc8d2eaf, 0xffffffffffffffff\nhalt").unwrap();
        let (addr, bytes) = &prog.init_data[0];
        assert_eq!(*addr, 0x100);
        assert_eq!(&bytes[..8], &0xdfa3_bb67_dc8d_2eafu64.to_le_bytes());
        assert_eq!(&bytes[8..], &u64::MAX.to_le_bytes());
        // But instruction immediates stay range-checked.
        assert!(assemble("addi r1, r31, 0xdfa3bb67dc8d2eaf")
            .unwrap_err()
            .msg
            .contains("24-bit"));
    }
}
