//! Quickstart: assemble a small program, run it through the cycle-level
//! pipeline with functional verification enabled, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use looseloops::isa::{asm, Reg};
use looseloops::{Machine, PipelineConfig};

fn main() {
    // A little dot-product-ish kernel in the mini ISA.
    let program = asm::assemble_named(
        "dotprod",
        "
        .data 0x10000, 1, 2, 3, 4, 5, 6, 7, 8
        .data 0x20000, 8, 7, 6, 5, 4, 3, 2, 1
            addi r1, r31, 0x10000     ; a[]
            addi r2, r31, 0x20000     ; b[]
            addi r3, r31, 8           ; n
            addi r4, r31, 0           ; sum
        loop:
            ldq  r5, 0(r1)
            ldq  r6, 0(r2)
            mul  r7, r5, r6
            add  r4, r4, r7
            addi r1, r1, 8
            addi r2, r2, 8
            subi r3, r3, 1
            bne  r3, loop
            stq  r4, 0(r1)
            halt
    ",
    )
    .expect("valid assembly");

    // The paper's base machine: 8-wide, 8 clusters, 128-entry IQ,
    // 5-cycle DEC-IQ, 5-cycle IQ-EX.
    let mut machine = Machine::new(PipelineConfig::base(), vec![program]).unwrap();
    // Check every retired instruction against the functional interpreter.
    machine.enable_verification();

    machine.run(u64::MAX, 1_000_000).unwrap();
    assert!(machine.is_done(), "program should halt");

    let sum = machine.arch_reg(0, Reg::int(4));
    let stats = machine.stats();
    println!("a·b                 = {sum}");
    println!("cycles              = {}", stats.cycles);
    println!("instructions        = {}", stats.total_retired());
    println!("IPC                 = {:.3}", stats.ipc());
    println!(
        "branches            = {} ({} mispredicted)",
        stats.branches, stats.branch_mispredicts
    );
    println!(
        "loads               = {} ({} L1 misses)",
        stats.loads, stats.load_l1_misses
    );
    println!("load-loop replays   = {}", stats.load_replays);
    assert_eq!(sum, 120, "1*8 + 2*7 + ... + 8*1");
}
