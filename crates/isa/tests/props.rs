//! Randomized property tests for the ISA layer.
//!
//! These run the same properties a proptest suite would, but over a fixed
//! deterministic seed schedule from `looseloops-rng` so the whole repo
//! builds and tests without external dependencies (and failures reproduce
//! exactly).

use looseloops_isa::{eval_op, FlatMemory, Inst, Opcode, Reg};
use looseloops_rng::Rng;

const CASES: u64 = 512;

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::from_index(rng.gen_range(0u8..64))
}

fn arb_opcode(rng: &mut Rng) -> Opcode {
    Opcode::from_u8(rng.gen_range(0u8..looseloops_isa::inst::NUM_OPCODES)).unwrap()
}

fn arb_inst(rng: &mut Rng) -> Inst {
    Inst {
        op: arb_opcode(rng),
        rd: arb_reg(rng),
        rs1: arb_reg(rng),
        rs2: arb_reg(rng),
        imm: rng.gen_range(Inst::IMM_MIN..=Inst::IMM_MAX),
        uses_imm: rng.gen_bool(0.5),
    }
}

#[test]
fn commutative_ops_commute() {
    let mut rng = Rng::seed_from_u64(0x15a4);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        for op in [
            Opcode::Add,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Mul,
        ] {
            assert_eq!(eval_op(op, a, b), eval_op(op, b, a));
        }
        assert_eq!(eval_op(Opcode::Seq, a, b), eval_op(Opcode::Seq, b, a));
    }
}

#[test]
fn shifts_mask_their_amount() {
    let mut rng = Rng::seed_from_u64(0x15a5);
    for _ in 0..CASES {
        let (a, s) = (rng.next_u64(), rng.next_u64());
        assert_eq!(eval_op(Opcode::Sll, a, s), eval_op(Opcode::Sll, a, s & 63));
        assert_eq!(eval_op(Opcode::Srl, a, s), eval_op(Opcode::Srl, a, s & 63));
        assert_eq!(eval_op(Opcode::Sra, a, s), eval_op(Opcode::Sra, a, s & 63));
    }
}

#[test]
fn comparison_trichotomy() {
    let mut rng = Rng::seed_from_u64(0x15a6);
    for i in 0..CASES {
        let a = rng.next_u64();
        // Mix in equal pairs: a random pair of u64s is almost never equal.
        let b = if i % 4 == 0 { a } else { rng.next_u64() };
        let lt = eval_op(Opcode::Slt, a, b);
        let gt = eval_op(Opcode::Slt, b, a);
        let eq = eval_op(Opcode::Seq, a, b);
        assert_eq!(lt + gt + eq, 1, "exactly one of <, >, == holds");
    }
}

#[test]
fn memory_read_back_what_you_wrote() {
    let mut rng = Rng::seed_from_u64(0x15a7);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..20);
        let writes: Vec<(u64, u64)> = (0..n).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        let mut m = FlatMemory::new();
        for (addr, val) in &writes {
            m.write(*addr, 8, *val);
        }
        // The last write to each address wins.
        let mut last = std::collections::HashMap::new();
        for (addr, val) in &writes {
            last.insert(*addr, *val);
        }
        for (addr, val) in last {
            // Only check addresses not partially overwritten by others.
            if writes.iter().filter(|(a, _)| a.abs_diff(addr) < 8).count() == 1 {
                assert_eq!(m.read(addr, 8), val);
            }
        }
    }
}

#[test]
fn byte_assembled_reads_match_word_reads() {
    let mut rng = Rng::seed_from_u64(0x15a8);
    for _ in 0..CASES {
        let (addr, val) = (rng.next_u64(), rng.next_u64());
        let mut m = FlatMemory::new();
        m.write(addr, 8, val);
        let lo = m.read(addr, 4);
        let hi = m.read(addr.wrapping_add(4), 4);
        assert_eq!(lo | (hi << 32), val);
    }
}

#[test]
fn srcs_and_dest_never_include_zero_registers() {
    let mut rng = Rng::seed_from_u64(0x15a9);
    for _ in 0..CASES {
        let inst = arb_inst(&mut rng);
        for s in inst.srcs().into_iter().flatten() {
            assert!(!s.is_zero());
        }
        if let Some(d) = inst.dest() {
            assert!(!d.is_zero());
        }
    }
}

/// assemble ∘ disassemble is the identity on instruction streams built
/// from any mix of representable instructions.
#[test]
fn disassembly_round_trips() {
    let mut rng = Rng::seed_from_u64(0x15aa);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..40);
        // The text form expresses exactly the canonical instructions (dead
        // fields normalized — see `Inst::canonical`). Streams end in `halt`
        // because the assembler rejects images that can fall off the end.
        let mut insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng).canonical()).collect();
        insts.push(Inst::halt());
        let prog = looseloops_isa::Program::new("p", insts);
        let text = looseloops_isa::disassemble(&prog);
        let back = looseloops_isa::assemble(&text)
            .unwrap_or_else(|e| panic!("disassembly must re-assemble: {e}\n{text}"));
        assert_eq!(back.insts, prog.insts);
    }
}

/// The operate opcodes `eval_op` defines semantics for. Listed explicitly
/// rather than derived from `Class` (Nop is `IntAlu` but has no dataflow);
/// `operate_list_is_exhaustive` pins the list against the opcode table.
const OPERATE_OPS: [Opcode; 20] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Sll,
    Opcode::Srl,
    Opcode::Sra,
    Opcode::Slt,
    Opcode::Sltu,
    Opcode::Seq,
    Opcode::FAdd,
    Opcode::FSub,
    Opcode::FMul,
    Opcode::FDiv,
    Opcode::FCmpLt,
    Opcode::FCmpEq,
    Opcode::FCvtIf,
    Opcode::FCvtFi,
];

/// Operand schedule for the `eval_op` properties: uniform random values
/// salted with the corner cases where wrapping and sign behavior live.
fn arb_operand(rng: &mut Rng) -> u64 {
    const CORNERS: [u64; 8] = [
        0,
        1,
        u64::MAX,        // -1
        i64::MAX as u64, // largest positive
        i64::MIN as u64, // smallest negative
        63,
        64,
        f64::NAN.to_bits(),
    ];
    if rng.gen_bool(0.4) {
        *rng.choose(&CORNERS).unwrap()
    } else {
        rng.next_u64()
    }
}

/// The operate list covers exactly the opcodes `eval_op` accepts: every
/// listed opcode evaluates, and they are the contiguous leading block of
/// the opcode table (each appears exactly once).
#[test]
fn operate_list_is_exhaustive() {
    for (i, op) in OPERATE_OPS.iter().enumerate() {
        assert_eq!(
            Opcode::from_u8(i as u8),
            Some(*op),
            "operate opcodes are the leading discriminants"
        );
        let _ = eval_op(*op, 1, 2); // must not panic
    }
    // The next discriminant starts the non-operate opcodes (memory block).
    assert_eq!(Opcode::from_u8(OPERATE_OPS.len() as u8), Some(Opcode::Ldq));
}

/// Integer arithmetic wraps at the u64 boundary, exactly like two's
/// complement hardware: Add/Sub are inverses, Sub is Add of the negation,
/// and Mul matches the low 64 bits of the full 128-bit product.
#[test]
fn arithmetic_wraps_at_u64_boundaries() {
    let mut rng = Rng::seed_from_u64(0x15ac);
    assert_eq!(eval_op(Opcode::Add, u64::MAX, 1), 0);
    assert_eq!(eval_op(Opcode::Sub, 0, 1), u64::MAX);
    assert_eq!(eval_op(Opcode::Mul, 1 << 63, 2), 0);
    for _ in 0..CASES {
        let (a, b) = (arb_operand(&mut rng), arb_operand(&mut rng));
        assert_eq!(eval_op(Opcode::Sub, eval_op(Opcode::Add, a, b), b), a);
        assert_eq!(
            eval_op(Opcode::Add, a, eval_op(Opcode::Sub, 0, b)),
            eval_op(Opcode::Sub, a, b)
        );
        let wide = (a as u128).wrapping_mul(b as u128) as u64;
        assert_eq!(eval_op(Opcode::Mul, a, b), wide);
    }
}

/// Shift amounts use only the low 6 bits of the second operand — a shift
/// by 64 is a shift by 0, never undefined behavior or a zero result.
#[test]
fn shift_amounts_mask_to_six_bits() {
    let mut rng = Rng::seed_from_u64(0x15ad);
    for _ in 0..CASES {
        let a = arb_operand(&mut rng);
        let sh = rng.next_u64();
        for op in [Opcode::Sll, Opcode::Srl, Opcode::Sra] {
            assert_eq!(eval_op(op, a, sh), eval_op(op, a, sh & 63));
        }
        assert_eq!(eval_op(Opcode::Sll, a, 64), a);
        assert_eq!(eval_op(Opcode::Srl, a, 128), a);
        // Sra fills with the sign bit; 63 copies it everywhere.
        let expect = if (a as i64) < 0 { u64::MAX } else { 0 };
        assert_eq!(eval_op(Opcode::Sra, a, 63), expect);
        // Logical vs arithmetic shift agree on non-negative values.
        if (a as i64) >= 0 {
            assert_eq!(eval_op(Opcode::Sra, a, sh), eval_op(Opcode::Srl, a, sh));
        }
    }
}

/// Slt compares signed, Sltu unsigned, Seq is equality — and the three are
/// mutually consistent with the native comparisons on every operand pair.
#[test]
fn compares_are_signed_unsigned_consistent() {
    let mut rng = Rng::seed_from_u64(0x15ae);
    // The boundary where the two orders disagree: -1 <s 0 but MAX >u 0.
    assert_eq!(eval_op(Opcode::Slt, u64::MAX, 0), 1);
    assert_eq!(eval_op(Opcode::Sltu, u64::MAX, 0), 0);
    for _ in 0..CASES {
        let (a, b) = (arb_operand(&mut rng), arb_operand(&mut rng));
        assert_eq!(eval_op(Opcode::Slt, a, b), ((a as i64) < (b as i64)) as u64);
        assert_eq!(eval_op(Opcode::Sltu, a, b), (a < b) as u64);
        assert_eq!(eval_op(Opcode::Seq, a, b), (a == b) as u64);
        // Trichotomy: exactly one of <, ==, > holds (per signedness).
        let lt = eval_op(Opcode::Slt, a, b);
        let gt = eval_op(Opcode::Slt, b, a);
        let eq = eval_op(Opcode::Seq, a, b);
        assert_eq!(lt + gt + eq, 1);
    }
}

/// Bitwise ops are pure lane-wise functions: idempotent And/Or,
/// self-inverse Xor, De Morgan duality through Xor-with-all-ones.
#[test]
fn bitwise_ops_obey_boolean_algebra() {
    let mut rng = Rng::seed_from_u64(0x15af);
    for _ in 0..CASES {
        let (a, b) = (arb_operand(&mut rng), arb_operand(&mut rng));
        assert_eq!(eval_op(Opcode::And, a, a), a);
        assert_eq!(eval_op(Opcode::Or, a, a), a);
        assert_eq!(eval_op(Opcode::Xor, eval_op(Opcode::Xor, a, b), b), a);
        let not = |x| eval_op(Opcode::Xor, x, u64::MAX);
        assert_eq!(
            not(eval_op(Opcode::And, a, b)),
            eval_op(Opcode::Or, not(a), not(b))
        );
    }
}

/// FP opcodes operate on bit patterns: comparisons are IEEE (NaN compares
/// false, even to itself) and the float→int conversion pins NaN to 0
/// instead of UB.
#[test]
fn fp_ops_follow_ieee_and_pin_nan_conversion() {
    let mut rng = Rng::seed_from_u64(0x15b0);
    let nan = f64::NAN.to_bits();
    assert_eq!(eval_op(Opcode::FCmpEq, nan, nan), 0);
    assert_eq!(eval_op(Opcode::FCmpLt, nan, 1.0f64.to_bits()), 0);
    assert_eq!(eval_op(Opcode::FCvtFi, nan, 0), 0);
    for _ in 0..CASES {
        let x = rng.gen_range(-1_000_000i64..1_000_000);
        // Round-trip integers through the fp bank: exact for small values.
        let f = eval_op(Opcode::FCvtIf, x as u64, 0);
        assert_eq!(eval_op(Opcode::FCvtFi, f, 0), x as u64);
        // FAdd on converted integers matches integer addition.
        let y = rng.gen_range(-1_000_000i64..1_000_000);
        let g = eval_op(Opcode::FCvtIf, y as u64, 0);
        assert_eq!(
            eval_op(Opcode::FCvtFi, eval_op(Opcode::FAdd, f, g), 0),
            (x + y) as u64
        );
        // Comparisons agree with the signed integer order.
        assert_eq!(eval_op(Opcode::FCmpLt, f, g), (x < y) as u64);
    }
}

/// Canonicalization never changes an instruction's dataflow contract.
#[test]
fn canonicalization_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(0x15ab);
    for _ in 0..CASES {
        let inst = arb_inst(&mut rng);
        let c = inst.canonical();
        assert_eq!(c.canonical(), c, "idempotent");
        assert_eq!(c.op, inst.op);
        assert_eq!(c.dest(), inst.dest());
        // Sources: identical except that immediate forms drop the dead rs2.
        assert_eq!(c.srcs()[0], inst.srcs()[0]);
    }
}
