//! Steady-state allocation audit for the cycle engine.
//!
//! The zero-allocation contract: once the machine reaches its in-flight
//! high-water mark (slab, IQ arena, timing-wheel buckets, scratch buffers,
//! forwarding-buffer ring all at capacity), `step_cycle` must not touch the
//! heap at all. A counting global allocator proves it: warm up, arm the
//! counter, run 10k cycles, expect exactly zero allocations.
//!
//! This binary holds only this test so no concurrent test thread can
//! perturb the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use looseloops_isa::asm;
use looseloops_mem::PrefetchConfig;
use looseloops_pipeline::{Machine, PipelineConfig};

/// Counts heap acquisitions (alloc/alloc_zeroed/realloc) while armed.
/// Deallocations are free to happen — returning memory is not growth.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A long-running kernel touching every hot path: loads, stores (with
/// store→load forwarding on the same line), ALU dependencies, and a
/// mispredictable loop branch — all within one already-touched memory page.
const KERNEL: &str = "
        addi r1, r31, 30000
        addi r2, r31, 0x1000
    top:
        ldq  r3, 0(r2)
        add  r3, r3, r1
        stq  r3, 0(r2)
        ldq  r4, 0(r2)
        add  r5, r5, r4
        subi r1, r1, 1
        bne  r1, top
        halt
";

/// [`KERNEL`] plus a load that walks one page a line at a time (wrapping
/// at the page end), so the stride prefetcher confirms its stream and
/// issues fills on nearly every iteration.
const STRIDE_KERNEL: &str = "
        addi r1, r31, 30000
        addi r2, r31, 0x1000
    top:
        ldq  r3, 0(r2)
        add  r3, r3, r1
        stq  r3, 0(r2)
        ldq  r4, 0(r2)
        add  r5, r5, r4
        addi r6, r6, 64
        andi r6, r6, 0xfff
        add  r7, r2, r6
        ldq  r8, 0(r7)
        add  r5, r5, r8
        subi r1, r1, 1
        bne  r1, top
        halt
";

const WARMUP_CYCLES: u64 = 20_000;
const MEASURE_CYCLES: u64 = 10_000;

fn assert_steady_state_allocation_free(cfg: PipelineConfig, kernel: &str, what: &str) {
    let prog = asm::assemble(kernel).unwrap();
    // Plain measurement configuration: auditor, tracer, oracle, and retire
    // capture all off — they are diagnostic layers with their own buffers,
    // not part of the cycle engine under test.
    let cfg = PipelineConfig {
        audit: false,
        ..cfg
    };
    // Predecode is a construction-time cost: exactly one table per program,
    // and fetch/rename/execute then index it without ever rebuilding.
    let built_before = looseloops_isa::predecode::build_count();
    let mut m = Machine::new(cfg, vec![prog]).unwrap();
    assert_eq!(
        looseloops_isa::predecode::build_count(),
        built_before + 1,
        "{what}: construction predecodes each program exactly once"
    );

    for _ in 0..WARMUP_CYCLES {
        m.step_cycle();
    }
    assert!(
        !m.is_done(),
        "{what}: kernel halted during warm-up (cycle {})",
        m.cycle()
    );

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURE_CYCLES {
        m.step_cycle();
    }
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        looseloops_isa::predecode::build_count(),
        built_before + 1,
        "{what}: no predecode rebuilds while running"
    );

    assert!(
        !m.is_done(),
        "{what}: kernel halted during measurement (cycle {})",
        m.cycle()
    );
    assert!(
        m.stats().total_retired() > 0,
        "{what}: machine made no progress"
    );
    assert_eq!(
        n, 0,
        "{what}: step_cycle allocated {n} times over {MEASURE_CYCLES} steady-state cycles"
    );
}

#[test]
fn step_cycle_is_allocation_free_in_steady_state() {
    assert_steady_state_allocation_free(PipelineConfig::base(), KERNEL, "base machine");
    assert_steady_state_allocation_free(PipelineConfig::dra_for_rf(3), KERNEL, "DRA machine");
    let mut prefetching = PipelineConfig::base();
    prefetching.mem.prefetch = Some(PrefetchConfig::default());
    assert_steady_state_allocation_free(prefetching, STRIDE_KERNEL, "prefetching machine");
}
