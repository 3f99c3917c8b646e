//! The monolithic physical register file.
//!
//! In the paper's base machine this is the structure whose 3–7-cycle access
//! sits on the IQ→EX path; the DRA's whole point is to move reads of it off
//! that path. The file itself just holds values: when a value is there is
//! the pipeline's to know (it tracks each producer's completion cycle), and
//! so is the access *latency*, which depends on the path the read takes.

use crate::PhysReg;

/// Value storage for all physical registers.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    values: Vec<u64>,
}

impl PhysRegFile {
    /// A file of `total` registers, all zero (fresh initial mappings read
    /// as architectural zeros).
    pub fn new(total: usize) -> PhysRegFile {
        PhysRegFile {
            values: vec![0; total],
        }
    }

    /// Read a register's value. The caller must not read a register whose
    /// producer has not written it back.
    pub fn read(&self, r: PhysReg) -> u64 {
        self.values[r.index()]
    }

    /// Write a register's value.
    pub fn write(&mut self, r: PhysReg, val: u64) {
        self.values[r.index()] = val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_ready_and_zero() {
        let f = PhysRegFile::new(8);
        assert_eq!(f.read(PhysReg(3)), 0);
    }

    #[test]
    fn allocate_write_read_cycle() {
        // A reallocated register's new value replaces the old one.
        let mut f = PhysRegFile::new(8);
        let r = PhysReg(5);
        f.write(r, 7);
        f.write(r, 42);
        assert_eq!(f.read(r), 42);
        assert_eq!(f.read(PhysReg(4)), 0);
    }
}
