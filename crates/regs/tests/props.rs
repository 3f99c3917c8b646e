//! Randomized property tests for the register machinery: conservation laws
//! and reference-model equivalence for the DRA structures, driven by a
//! deterministic seed schedule from `looseloops-rng`.

use looseloops_regs::{ClusterRegCache, ForwardingBuffer, FreeList, PhysReg, RenameMap};
use looseloops_rng::Rng;
use std::collections::VecDeque;

/// Free-list conservation: allocations + available == total, always;
/// rollback and release restore exactly.
#[test]
fn freelist_conserves_registers() {
    let mut rng = Rng::seed_from_u64(0x4e61);
    for _ in 0..64 {
        let total = 64;
        let mut fl = FreeList::new(total);
        let mut held = Vec::new();
        let steps = rng.gen_range(1usize..200);
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                if let Some(r) = fl.alloc() {
                    assert!(!held.contains(&r), "double allocation of {r}");
                    held.push(r);
                }
            } else if let Some(r) = held.pop() {
                fl.release(r);
            }
            assert_eq!(held.len() + fl.available(), total);
        }
    }
}

/// Rename + rollback in LIFO order restores the original mapping and
/// loses no registers.
#[test]
fn rename_rollback_is_exact() {
    let mut rng = Rng::seed_from_u64(0x4e62);
    for _ in 0..64 {
        let mut fl = FreeList::new(256);
        let mut rm = RenameMap::new(&mut fl);
        let before: Vec<_> = (0..31)
            .map(|i| rm.lookup(looseloops_isa::Reg::int(i)))
            .collect();
        let avail = fl.available();
        let mut undo = Vec::new();
        let n = rng.gen_range(1usize..40);
        for _ in 0..n {
            let arch = looseloops_isa::Reg::int(rng.gen_range(1u8..31));
            let (_, prev) = rm.rename_dest(arch, &mut fl).unwrap();
            undo.push((arch, prev));
        }
        for (arch, prev) in undo.into_iter().rev() {
            rm.rollback(arch, prev, &mut fl);
        }
        let after: Vec<_> = (0..31)
            .map(|i| rm.lookup(looseloops_isa::Reg::int(i)))
            .collect();
        assert_eq!(before, after);
        assert_eq!(fl.available(), avail);
    }
}

/// The CRC behaves exactly like a reference FIFO-of-pairs model.
#[test]
fn crc_matches_reference_fifo() {
    let mut rng = Rng::seed_from_u64(0x4e63);
    for _ in 0..64 {
        let cap = 4;
        let mut crc = ClusterRegCache::new(cap);
        let mut reference: VecDeque<(u16, u64)> = VecDeque::new();
        let steps = rng.gen_range(1usize..300);
        for _ in 0..steps {
            let op = rng.gen_range(0u8..3);
            let reg = rng.gen_range(0u16..24);
            let val = rng.next_u64();
            let p = PhysReg(reg);
            match op {
                0 => {
                    // insert
                    if let Some(e) = reference.iter_mut().find(|(r, _)| *r == reg) {
                        e.1 = val;
                    } else {
                        if reference.len() == cap {
                            reference.pop_front();
                        }
                        reference.push_back((reg, val));
                    }
                    crc.insert(p, val);
                }
                1 => {
                    // lookup
                    let expect = reference.iter().find(|(r, _)| *r == reg).map(|&(_, v)| v);
                    assert_eq!(crc.lookup(p), expect);
                }
                _ => {
                    // invalidate
                    reference.retain(|(r, _)| *r != reg);
                    crc.invalidate(p);
                }
            }
            assert_eq!(crc.len(), reference.len());
        }
    }
}

/// Forwarding-buffer window semantics against a reference: a lookup at
/// time `t` hits iff the last insert for that register happened within
/// the window.
#[test]
fn forwarding_window_is_exact() {
    let mut rng = Rng::seed_from_u64(0x4e64);
    for _ in 0..64 {
        let window = 9;
        let mut fwd = ForwardingBuffer::new(window);
        let n_ins = rng.gen_range(1usize..60);
        let mut sorted: Vec<(u16, u64, u64)> = (0..n_ins)
            .map(|_| {
                (
                    rng.gen_range(0u16..8),
                    rng.gen_range(0u64..40),
                    rng.next_u64(),
                )
            })
            .collect();
        sorted.sort_by_key(|&(_, cycle, _)| cycle);
        for (reg, cycle, val) in &sorted {
            fwd.insert(PhysReg(*reg), *val, *cycle);
        }
        let n_probe = rng.gen_range(1usize..60);
        for _ in 0..n_probe {
            let reg = rng.gen_range(0u16..8);
            let t = rng.gen_range(0u64..60);
            let expect = sorted
                .iter()
                .rev()
                .find(|&&(r, _, _)| r == reg)
                .filter(|&&(_, c, _)| t >= c && t - c < window)
                .map(|&(_, _, v)| v);
            assert_eq!(fwd.lookup(PhysReg(reg), t), expect);
        }
    }
}
