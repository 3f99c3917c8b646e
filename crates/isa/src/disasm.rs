//! Disassembler: turn a [`Program`] back into assembler text that
//! [`crate::asm::assemble`] accepts.
//!
//! Control-flow targets are emitted as numeric displacements (which the
//! assembler accepts), so `assemble ∘ disassemble` is the identity on the
//! instruction stream — a property test in this module's test suite and in
//! the crate's proptest suite holds the round trip together.

use crate::program::Program;
use std::fmt::Write as _;

/// Render a program as assembler text, including its initial data image.
///
/// Branch/call targets are numeric displacements relative to the next
/// instruction, exactly as stored in the immediate.
pub fn disassemble(prog: &Program) -> String {
    let mut out = String::new();
    for (addr, bytes) in &prog.init_data {
        // Emit as 64-bit words; pad a ragged tail with zeros (the memory
        // image is zero-filled anyway, so padding is value-preserving
        // only when the tail padding lands on untouched bytes — the
        // assembler-side images we produce are always word-aligned).
        let _ = write!(out, ".data {:#x}", addr);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            let _ = write!(out, ", {:#x}", u64::from_le_bytes(w));
        }
        out.push('\n');
    }
    for inst in &prog.insts {
        let _ = writeln!(out, "    {inst}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const KERNEL: &str = "
        .data 0x1000, 1, 2, 3
            addi r1, r31, 0x1000
            addi r2, r31, 3
        top:
            ldq  r3, 0(r1)
            add  r4, r4, r3
            addi r1, r1, 8
            subi r2, r2, 1
            bne  r2, top
            fcvtif f1, r4
            fmul f2, f1, f1
            fcvtfi r5, f2
            stq  r5, 0(r1)
            jsr  r26, fin
            halt
        fin:
            ret  r26
    ";

    #[test]
    fn assemble_disassemble_round_trips() {
        let prog = assemble(KERNEL).unwrap();
        let text = disassemble(&prog);
        let back = assemble(&text).unwrap();
        assert_eq!(back.insts, prog.insts);
        // Data images agree once both are normalized to word chunks.
        assert_eq!(back.init_data.len(), prog.init_data.len());
        for ((a1, b1), (a2, b2)) in prog.init_data.iter().zip(&back.init_data) {
            assert_eq!(a1, a2);
            assert_eq!(b1, b2);
        }
    }
}
