//! Per-structure rates of the simulator's hot structures, in ns per
//! operation: the same loops as `crates/bench/benches/micro.rs`, reported
//! as per-layer metrics instead of printed text.

use looseloops::branch::{DirectionPredictor, TournamentPredictor};
use looseloops::isa::{Predecode, Reg};
use looseloops::mem::{Cache, CacheConfig};
use looseloops::regs::{ClusterRegCache, ForwardingBuffer, FreeList, PhysReg, RenameMap};
use looseloops::workload::Benchmark;
use std::hint::black_box;
use std::time::Instant;

/// ns per operation of each structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// One L1D `Cache::access` at a pseudo-random address in 1 MiB.
    pub cache_access_ns: f64,
    /// One tournament predict plus train.
    pub predict_train_ns: f64,
    /// One rename of a destination plus its rollback.
    pub rename_rollback_ns: f64,
    /// One forwarding-buffer insert plus lookup.
    pub fwd_insert_lookup_ns: f64,
    /// One cluster-register-cache insert plus lookup.
    pub crc_insert_lookup_ns: f64,
    /// Predecode table build, per static instruction.
    pub predecode_ns_per_inst: f64,
    /// One predecode table lookup.
    pub predecode_lookup_ns: f64,
}

/// Median over `samples` timings of `f`, divided by its `ops`.
fn rate(ops: u64, samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut t: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2] * 1e9 / ops as f64
}

/// Measure every structure.
pub fn measure() -> Rates {
    const SAMPLES: usize = 101;
    let mut cache = Cache::new(CacheConfig::l1d_default());
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let cache_access_ns = rate(4096, SAMPLES, || {
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            black_box(cache.access(x & 0xf_ffff));
        }
    });

    let mut p = TournamentPredictor::new_21264_like();
    let predict_train_ns = rate(4096, SAMPLES, || {
        for pc in 0..4096u64 {
            let (t, ctx) = p.predict_ctx(pc);
            p.train_ctx(pc, ctx, t ^ (pc & 3 == 0));
        }
    });

    let mut fl = FreeList::new(512);
    let mut rm = RenameMap::new(&mut fl);
    let arch = Reg::int(5);
    let mut undo = Vec::with_capacity(128);
    let rename_rollback_ns = rate(128, SAMPLES, || {
        for _ in 0..128 {
            let (_, prev) = rm.rename_dest(arch, &mut fl).expect("free registers");
            undo.push(prev);
        }
        while let Some(prev) = undo.pop() {
            rm.rollback(arch, prev, &mut fl);
        }
    });

    let mut fwd = ForwardingBuffer::new(9);
    let fwd_insert_lookup_ns = rate(4096, SAMPLES, || {
        for i in 0..4096u64 {
            fwd.insert(PhysReg((i % 128) as u16), i, i);
            black_box(fwd.lookup(PhysReg(((i + 5) % 128) as u16), i));
            if i % 8 == 0 {
                fwd.evict_expired(i);
            }
        }
    });

    let mut crc = ClusterRegCache::new(16);
    let crc_insert_lookup_ns = rate(4096, SAMPLES, || {
        for i in 0..4096u16 {
            crc.insert(PhysReg(i % 64), u64::from(i));
            black_box(crc.lookup(PhysReg((i / 2) % 64)));
        }
    });

    let prog = Benchmark::M88ksim.program();
    let n = prog.insts.len() as u64;
    let predecode_ns_per_inst = rate(n, SAMPLES, || {
        black_box(Predecode::of(black_box(&prog)));
    });
    let code = Predecode::of(&prog);
    let predecode_lookup_ns = rate(4096, SAMPLES, || {
        for pc in 0..4096u64 {
            let info = code.info(pc % n).expect("in range");
            black_box((info.class, info.srcs, info.dest, info.affinity));
        }
    });

    Rates {
        cache_access_ns,
        predict_train_ns,
        rename_rollback_ns,
        fwd_insert_lookup_ns,
        crc_insert_lookup_ns,
        predecode_ns_per_inst,
        predecode_lookup_ns,
    }
}
