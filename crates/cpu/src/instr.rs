//! The instruction-stream abstraction the workload generators implement.
//!
//! The core model consumes an infinite stream of retired-instruction slots:
//! either a non-memory instruction or a 64 B memory access. Workloads (in
//! `microbank-workloads`) synthesize these streams to match application
//! profiles (MAPKI, locality, read/write mix). The core reads the stream a
//! [`Block`] at a time: a run of non-memory instructions and the memory
//! access that ends it.

use microbank_core::request::TenantId;

/// One instruction slot as seen by the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// A non-memory instruction (ALU/branch/FP — retires after a fixed
    /// latency).
    Compute,
    /// A memory instruction touching the 64 B line containing `addr`.
    Mem { addr: u64, is_write: bool },
}

/// A stretch of the instruction stream: `gap` non-memory instructions,
/// then the memory access `mem` as `(addr, is_write)`. `mem` is `None`
/// when the stretch hit its `max_gap` first; the stream then continues in
/// the next block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub gap: u32,
    pub mem: Option<(u64, bool)>,
}

/// An infinite, deterministic instruction stream for one hardware thread.
pub trait InstrSource {
    /// Produce the next instruction. Streams never end; fixed-length
    /// experiments stop after N commits.
    fn next_instr(&mut self) -> Instr;

    /// The next instructions up to and including the next memory access,
    /// or the next `max_gap` non-memory instructions if no access comes
    /// first (`max_gap >= 1`). Concatenated, the blocks are exactly the
    /// [`InstrSource::next_instr`] stream; the default reads it one
    /// instruction at a time, and generators override it with a tighter
    /// loop.
    fn next_block(&mut self, max_gap: u32) -> Block {
        let mut gap = 0;
        while gap < max_gap {
            match self.next_instr() {
                Instr::Compute => gap += 1,
                Instr::Mem { addr, is_write } => {
                    return Block {
                        gap,
                        mem: Some((addr, is_write)),
                    }
                }
            }
        }
        Block { gap, mem: None }
    }

    /// The tenant this stream belongs to. Workload generators override
    /// this for multi-tenant mixes; the default keeps every single-tenant
    /// source on `TenantId(0)`. The CMP samples it once at construction
    /// (a core's tenant is fixed for a run) and stamps it into every
    /// memory request the core emits.
    fn tenant(&self) -> TenantId {
        TenantId::default()
    }
}

/// A trivial source for tests: `mapki` memory accesses per kilo-instruction,
/// round-robin over a fixed address list.
#[derive(Debug, Clone)]
pub struct FixedSource {
    pub addrs: Vec<u64>,
    pub period: u64,
    counter: u64,
    idx: usize,
}

impl FixedSource {
    /// A source issuing one memory access every `period` instructions,
    /// cycling through `addrs`.
    pub fn new(addrs: Vec<u64>, period: u64) -> Self {
        assert!(period >= 1);
        FixedSource {
            addrs,
            period,
            counter: 0,
            idx: 0,
        }
    }
}

impl InstrSource for FixedSource {
    fn next_instr(&mut self) -> Instr {
        self.counter += 1;
        if self.counter.is_multiple_of(self.period) && !self.addrs.is_empty() {
            let a = self.addrs[self.idx];
            self.idx = (self.idx + 1) % self.addrs.len();
            Instr::Mem {
                addr: a,
                is_write: false,
            }
        } else {
            Instr::Compute
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_source_period() {
        let mut s = FixedSource::new(vec![0x40, 0x80], 4);
        let instrs: Vec<Instr> = (0..8).map(|_| s.next_instr()).collect();
        let mems = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Mem { .. }))
            .count();
        assert_eq!(mems, 2);
        assert_eq!(
            instrs[3],
            Instr::Mem {
                addr: 0x40,
                is_write: false
            }
        );
        assert_eq!(
            instrs[7],
            Instr::Mem {
                addr: 0x80,
                is_write: false
            }
        );
    }
}
