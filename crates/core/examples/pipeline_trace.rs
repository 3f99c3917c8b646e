//! Record a Kanata pipeline trace of a small kernel and write it to
//! `trace.kanata` — open it in a Konata-style viewer to watch the
//! loose loops at work (branch squashes, load-shadow replays).
//!
//! ```text
//! cargo run --release --example pipeline_trace [out.kanata]
//! ```

use looseloops::isa::asm;
use looseloops::{Machine, PipelineConfig};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace.kanata".into());
    let prog = asm::assemble(
        "
        .data 0x10000, 3, 1, 4, 1, 5, 9, 2, 6
            addi r1, r31, 0x10000
            addi r2, r31, 64
        top:
            andi r3, r2, 0x38
            add  r4, r1, r3
            ldq  r5, 0(r4)
            add  r6, r6, r5
            andi r7, r5, 1
            beq  r7, even
            addi r8, r8, 1
        even:
            subi r2, r2, 1
            bne  r2, top
            halt
    ",
    )
    .expect("valid assembly");

    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_trace();
    m.enable_verification();
    m.run(u64::MAX, 1_000_000).unwrap();
    assert!(m.is_done());
    let log = m.take_trace();
    std::fs::write(&out, &log).expect("write trace");
    println!(
        "wrote {} ({} instructions, {} cycles) — open it in a Kanata/Konata viewer",
        out,
        m.stats().total_retired(),
        m.stats().cycles
    );
}
