//! Parameterized synthetic workload generator.
//!
//! Where the named kernels target specific Spec95 profiles, `synthetic`
//! sweeps the characteristic space directly: branch density and
//! predictability, load/store density, cache footprint, and dependence
//! shape. It is used by the benchmark's `detailed-grid` workload and by
//! property tests (every generated program must run identically on the
//! functional model and the pipeline).

use crate::kernels::{f, r, Kern};
use looseloops_isa::{Inst, Opcode, Program};
use looseloops_rng::Rng;

/// Knobs for the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticParams {
    /// RNG seed (programs are deterministic functions of the parameters).
    pub seed: u64,
    /// Instructions in the loop body (before branches are woven in).
    pub body_len: u32,
    /// Number of data-dependent branches woven into the body.
    pub branches: u32,
    /// Each data-dependent branch is taken with probability `1 / 2^taken_bits`.
    pub taken_bits: u32,
    /// Number of random loads per iteration.
    pub loads: u32,
    /// Number of stores per iteration.
    pub stores: u32,
    /// Data footprint in bytes (power of two, ≤ 8 MiB).
    pub footprint: u32,
    /// Length of the serial dependence chain threaded through the body
    /// (0 = fully parallel).
    pub chain: u32,
    /// Mix in floating-point ops instead of integer ALU ops.
    pub fp: bool,
    /// Data-region base address (MiB-aligned).
    pub base: u64,
}

impl Default for SyntheticParams {
    fn default() -> SyntheticParams {
        SyntheticParams {
            seed: 1,
            body_len: 16,
            branches: 2,
            taken_bits: 2,
            loads: 2,
            stores: 1,
            footprint: 64 << 10,
            chain: 4,
            fp: false,
            base: 16 << 20,
        }
    }
}

impl SyntheticParams {
    /// Number of scheduled (non-filler-ALU) body events these parameters
    /// request: `loads + stores + branches + chain`.
    pub fn scheduled_events(&self) -> u64 {
        u64::from(self.loads)
            + u64::from(self.stores)
            + u64::from(self.branches)
            + u64::from(self.chain)
    }

    /// Check the parameters for profile errors: an empty body, a bad
    /// footprint, or a body too short for the scheduled events (which
    /// would otherwise silently exceed the requested `body_len`).
    pub fn validate(&self) -> Result<(), SyntheticError> {
        if self.body_len == 0 {
            return Err(SyntheticError::EmptyBody);
        }
        if !self.footprint.is_power_of_two() || self.footprint > (8 << 20) {
            return Err(SyntheticError::BadFootprint(self.footprint));
        }
        let scheduled = self.scheduled_events();
        if scheduled > u64::from(self.body_len) {
            return Err(SyntheticError::BodyOverflow {
                requested: self.body_len,
                scheduled,
            });
        }
        Ok(())
    }
}

/// A profile error in [`SyntheticParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticError {
    /// `body_len` is zero.
    EmptyBody,
    /// `footprint` is not a power of two up to 8 MiB.
    BadFootprint(u32),
    /// The scheduled events (loads + stores + branches + chain) do not fit
    /// in `body_len`, so the generated body would silently exceed the
    /// requested length.
    BodyOverflow {
        /// The requested `body_len`.
        requested: u32,
        /// Scheduled events that must all be emitted.
        scheduled: u64,
    },
}

impl std::fmt::Display for SyntheticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyntheticError::EmptyBody => write!(f, "empty body"),
            SyntheticError::BadFootprint(v) => {
                write!(f, "footprint {v} must be a power of two up to 8 MiB")
            }
            SyntheticError::BodyOverflow {
                requested,
                scheduled,
            } => write!(
                f,
                "body_len {requested} too short for {scheduled} scheduled events \
                 (loads + stores + branches + chain)"
            ),
        }
    }
}

impl std::error::Error for SyntheticError {}

/// Generate a looping program from `params`, or report why the profile is
/// invalid.
pub fn try_synthetic(params: SyntheticParams) -> Result<Program, SyntheticError> {
    params.validate()?;
    Ok(generate(params))
}

/// Generate a looping program from `params`.
///
/// # Panics
///
/// Panics on profile errors — see [`SyntheticParams::validate`] /
/// [`try_synthetic`] for the non-panicking form.
pub fn synthetic(params: SyntheticParams) -> Program {
    match try_synthetic(params) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

fn generate(params: SyntheticParams) -> Program {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut k = Kern::new("synthetic");
    k.load_base(r(1), params.base);
    k.seed(r(8), (params.seed as i32 & 0xffff) | 1);
    k.outer_begin();
    k.xorshift(r(8), r(3));

    let mask = (params.footprint - 1) & !7;
    let acc_int = [r(16), r(17), r(18), r(19)];
    let acc_fp = [f(16), f(17), f(18), f(19)];
    let chain_reg = if params.fp { f(9) } else { r(9) };

    // Random address in r5 helper state: recompute before each access.
    let emit_addr = |k: &mut Kern, rng: &mut Rng| {
        let shift = rng.gen_range(0..24);
        k.b.srli(r(5), r(8), shift);
        k.b.andi(r(5), r(5), mask as i32);
        k.b.add(r(5), r(5), r(1));
    };

    // Build a randomized schedule of events across the body.
    #[derive(Clone, Copy)]
    enum Ev {
        Alu,
        Load,
        Store,
        Branch,
        Chain,
    }
    let mut events: Vec<Ev> = Vec::new();
    for _ in 0..params.loads {
        events.push(Ev::Load);
    }
    for _ in 0..params.stores {
        events.push(Ev::Store);
    }
    for _ in 0..params.branches {
        events.push(Ev::Branch);
    }
    for _ in 0..params.chain {
        events.push(Ev::Chain);
    }
    while (events.len() as u32) < params.body_len {
        events.push(Ev::Alu);
    }
    rng.shuffle(&mut events);

    let mut branch_shift = 3;
    for ev in events {
        match ev {
            Ev::Alu => {
                let a = acc_int[rng.gen_range(0..4usize)];
                let op = [Opcode::Add, Opcode::Xor, Opcode::Sub][rng.gen_range(0..3usize)];
                k.b.push(Inst::op_rr(op, a, a, r(8)));
            }
            Ev::Load => {
                emit_addr(&mut k, &mut rng);
                if params.fp {
                    let d = acc_fp[rng.gen_range(0..4usize)];
                    k.b.push(Inst::load(Opcode::FLdq, f(2), r(5), 0));
                    k.b.fadd(d, d, f(2));
                } else {
                    let d = acc_int[rng.gen_range(0..4usize)];
                    k.b.ldq(r(6), r(5), 0);
                    k.b.add(d, d, r(6));
                }
            }
            Ev::Store => {
                emit_addr(&mut k, &mut rng);
                k.b.stq(r(16), r(5), 0);
            }
            Ev::Branch => {
                branch_shift = (branch_shift + 11) % 48;
                let bits = params.taken_bits;
                let a = acc_int[rng.gen_range(0..4usize)];
                k.rand_guard(r(8), r(4), branch_shift, bits, |k| {
                    k.b.addi(a, a, 1);
                });
            }
            Ev::Chain => {
                if params.fp {
                    k.b.fadd(chain_reg, chain_reg, f(16));
                } else {
                    k.b.push(Inst::op_rr(Opcode::Add, chain_reg, chain_reg, r(16)));
                }
            }
        }
    }

    k.outer_end();
    k.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops_isa::{ArchState, FlatMemory};

    fn runs(params: SyntheticParams) {
        let prog = synthetic(params);
        let mut mem = FlatMemory::with_program(&prog);
        let mut st = ArchState::new(&prog);
        let summary = st.run(&prog, &mut mem, 30_000).unwrap();
        assert!(!summary.halted);
    }

    #[test]
    fn default_params_run() {
        runs(SyntheticParams::default());
    }

    #[test]
    fn fp_heavy_runs() {
        // 4 + 1 + 2 + 12 = 19 scheduled events: needs a body of at least
        // 19 (the old generator silently grew the 16-slot default).
        runs(SyntheticParams {
            fp: true,
            chain: 12,
            loads: 4,
            body_len: 24,
            ..SyntheticParams::default()
        });
    }

    #[test]
    fn branch_storm_runs() {
        runs(SyntheticParams {
            branches: 6,
            taken_bits: 1,
            ..SyntheticParams::default()
        });
    }

    #[test]
    fn big_footprint_runs() {
        runs(SyntheticParams {
            footprint: 8 << 20,
            loads: 4,
            ..SyntheticParams::default()
        });
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = SyntheticParams::default();
        assert_eq!(synthetic(p), synthetic(p));
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic(SyntheticParams::default());
        let b = synthetic(SyntheticParams {
            seed: 2,
            ..SyntheticParams::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn bad_footprint_rejected() {
        let _ = synthetic(SyntheticParams {
            footprint: 1000,
            ..SyntheticParams::default()
        });
    }

    #[test]
    fn body_overflow_is_a_typed_error() {
        // 2 + 1 + 2 + 4 = 9 scheduled events in a body of 8: one too many.
        let over = SyntheticParams {
            body_len: 8,
            ..SyntheticParams::default()
        };
        assert_eq!(
            over.validate(),
            Err(SyntheticError::BodyOverflow {
                requested: 8,
                scheduled: 9,
            })
        );
        assert!(try_synthetic(over).is_err());

        // Exactly at the boundary: every slot is a scheduled event, no
        // filler ALU ops, and the body is exactly the requested length.
        let exact = SyntheticParams {
            body_len: 9,
            ..SyntheticParams::default()
        };
        exact.validate().expect("9 events fit a 9-slot body");
        let _ = try_synthetic(exact).expect("boundary profile generates");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn body_overflow_panics_in_synthetic() {
        let _ = synthetic(SyntheticParams {
            body_len: 1,
            loads: 2,
            ..SyntheticParams::default()
        });
    }
}
