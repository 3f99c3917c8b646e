//! The shipped sample assembly kernels must assemble, run to completion on
//! the pipeline with verification, and produce the documented results.

use looseloops::isa::{asm, Reg};
use looseloops::{Machine, PipelineConfig};
use std::path::Path;

fn run_sample(name: &str) -> Machine {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/kernels")
        .join(name);
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("missing sample {name}: {e}"));
    let prog = asm::assemble_named(name, &src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done(), "{name} must halt");
    m
}

#[test]
fn dotproduct_computes_the_dot_product() {
    let m = run_sample("dotproduct.s");
    let expect: u64 = (1..=16u64).map(|i| i * (17 - i)).sum();
    assert_eq!(m.arch_reg(0, Reg::int(7)), expect);
}

#[test]
fn fib_computes_fib_30() {
    let m = run_sample("fib.s");
    assert_eq!(m.arch_reg(0, Reg::int(3)), 832_040);
}

#[test]
fn memcpy_checksum_matches_source() {
    let m = run_sample("memcpy.s");
    assert_eq!(
        m.arch_reg(0, Reg::int(5)),
        0xdead + 0xbeef + 0xcafe + 0xf00d
    );
}
