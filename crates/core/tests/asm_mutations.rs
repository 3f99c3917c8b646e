//! Seeded mutation test of the `.s` assembler: every mutant of a real
//! source must assemble or fail with an `AsmError`, never panic.
//!
//! The seeds are the shipped sample kernels (`examples/kernels/*.s`) and
//! the disassembly of every benchmark proxy. Each mutant applies one to
//! three edits: delete a character, insert an edge token, replace a
//! character with a printable one, or delete a span.

use looseloops::isa::{asm, disassemble};
use looseloops::Benchmark;
use looseloops_rng::Rng;
use std::path::Path;

/// A bare hex prefix, the `i64`/`u64` bounds and one past them, an
/// out-of-range register, an open parenthesis, a multi-byte character
/// and a directive.
const EDGE_TOKENS: &str = "0x -9223372036854775808 -9223372036854775809 9223372036854775807 \
     18446744073709551615 18446744073709551616 0xffffffffffffffff 0x10000000000000000 \
     r99 ( é .data";

/// The sources mutants are drawn from, with their names.
fn seeds() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/kernels");
    let mut kernels: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/kernels")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    kernels.sort();
    let programs = Benchmark::all().into_iter();
    kernels.extend(programs.map(|b| (b.name().to_string(), disassemble(&b.program()))));
    kernels
}

/// `src` with one to three random edits.
fn mutate(src: &str, tokens: &[&str], rng: &mut Rng) -> String {
    let mut chars: Vec<char> = src.chars().collect();
    for _ in 0..=rng.bounded(2) {
        let at = rng.bounded(chars.len() as u64 + 1) as usize;
        match rng.bounded(4) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => {
                let token = rng.choose(tokens).expect("tokens");
                chars.splice(at..at, token.chars());
            }
            2 if at < chars.len() => chars[at] = char::from(b' ' + rng.bounded(95) as u8),
            _ => {
                let end = (at + 1 + rng.bounded(24) as usize).min(chars.len());
                chars.drain(at.min(end)..end);
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_sources_assemble_or_fail_typed_never_panic() {
    let seeds = seeds();
    for (name, src) in &seeds {
        asm::assemble_named(name, src).unwrap_or_else(|e| panic!("unmutated {name}: {e}"));
    }
    let tokens: Vec<&str> = EDGE_TOKENS.split_whitespace().collect();
    let mut rng = Rng::seed_from_u64(0xa55e_b1e5);
    for case in 0..3_000 {
        let (name, src) = &seeds[case % seeds.len()];
        let mutant = mutate(src, &tokens, &mut rng);
        // Any `Result` is acceptable; a panic fails the test.
        let outcome = std::panic::catch_unwind(|| asm::assemble_named(name, &mutant).map(drop));
        assert!(
            outcome.is_ok(),
            "case {case} of {name} panicked on:\n{mutant}"
        );
    }
}
