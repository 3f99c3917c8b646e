//! Register pre-read filtering table (RPFT) — paper §5.2.
//!
//! One bit per physical register. Set ⇒ the value is present in the
//! register file and may be *pre-read* during DEC-IQ (the paper's
//! *completed operand* class). The bit is set when a value is written back
//! to the register file and cleared when the renamer allocates the register
//! to a new producer.

use crate::PhysReg;

/// 1-bit-per-physical-register validity table.
#[derive(Debug, Clone)]
pub struct Rpft {
    valid: Vec<bool>,
}

impl Rpft {
    /// A table over `total` physical registers, all initially valid (the
    /// initial architectural mappings hold committed zeros).
    pub fn new(total: usize) -> Rpft {
        Rpft {
            valid: vec![true; total],
        }
    }

    /// May `r` be pre-read from the register file right now?
    pub fn can_preread(&self, r: PhysReg) -> bool {
        self.valid[r.index()]
    }

    /// The renamer allocated `r` to an in-flight producer: clear validity.
    pub fn on_allocate(&mut self, r: PhysReg) {
        self.valid[r.index()] = false;
    }

    /// `r`'s value was written back to the register file: set validity.
    pub fn on_writeback(&mut self, r: PhysReg) {
        self.valid[r.index()] = true;
    }

    /// Number of currently valid (pre-readable) registers.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = Rpft::new(8);
        let r = PhysReg(3);
        assert!(t.can_preread(r));
        t.on_allocate(r);
        assert!(!t.can_preread(r));
        t.on_writeback(r);
        assert!(t.can_preread(r));
    }

    #[test]
    fn valid_count_tracks() {
        let mut t = Rpft::new(4);
        assert_eq!(t.valid_count(), 4);
        t.on_allocate(PhysReg(0));
        t.on_allocate(PhysReg(1));
        assert_eq!(t.valid_count(), 2);
    }
}
