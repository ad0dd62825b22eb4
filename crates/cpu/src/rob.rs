//! The out-of-order core model: a 32-entry reorder buffer with 2-wide
//! dispatch and commit (§VI-A).
//!
//! Fidelity note: the model tracks exactly what the paper's IPC results
//! depend on — in-order commit over a bounded window, so long-latency loads
//! stall the core once the ROB fills, and the ROB bound (together with the
//! MSHRs) caps memory-level parallelism. Non-memory instructions retire
//! after a fixed pipeline latency; stores are posted (write-buffer
//! semantics) and do not block commit.

use crate::instr::InstrSource;
use microbank_core::Cycle;

/// Outcome of handing a memory instruction to the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// Serviced at a known time (cache hit, or a posted store).
    ReadyAt(Cycle),
    /// A line miss is in flight; `Core::complete_load` will be called.
    Pending,
    /// Structural stall (MSHRs full): retry next cycle.
    Stall,
}

/// Why a quiesced core cannot progress — names the stall counter that
/// dispatch would have bumped on each skipped cycle, so bulk accounting
/// stays bit-identical to per-cycle ticking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The ROB is full with an unready head; dispatch counts a ROB-full
    /// stall per cycle.
    RobFull,
    /// Dispatch is replaying an instruction against a full MSHR file;
    /// each retry counts an MSHR stall.
    MshrReplay,
}

/// A ROB entry's ready cycle while it waits on memory.
const PENDING: Cycle = Cycle::MAX;

/// Most non-memory instructions a core reads from its source in one
/// [`InstrSource::next_block`] call. It bounds only how far the stream is
/// read ahead of dispatch, never what is dispatched: any value `>= 1`
/// yields the same run. Long enough that a compute-only stream costs one
/// call per many cycles.
const MAX_GAP: u32 = 64;

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    pub committed: u64,
    pub mem_instrs: u64,
    pub loads: u64,
    pub stores: u64,
    /// Cycles in which nothing could be dispatched because the ROB was full.
    pub rob_full_cycles: u64,
    /// Cycles in which dispatch stalled on a structural hazard (MSHRs).
    pub mshr_stall_cycles: u64,
}

/// One out-of-order core.
#[derive(Debug)]
pub struct Core {
    pub id: u16,
    /// The reorder buffer as a ring of ready cycles ([`PENDING`] while
    /// waiting on memory): `len` entries starting at slot `head`, the
    /// oldest being sequence number `head_seq`. The storage is rounded up
    /// to a power of two so a slot is `(head + offset) & mask`; fullness
    /// is `len == capacity`, the configured entry count.
    rob: Box<[Cycle]>,
    mask: usize,
    capacity: usize,
    head: usize,
    len: usize,
    head_seq: u64,
    next_seq: u64,
    issue_width: usize,
    alu_latency: u64,
    /// The undispatched rest of the current [`crate::instr::Block`]:
    /// `gap` non-memory instructions, then the access `mem`. Both empty
    /// means the next dispatch reads a new block.
    gap: u32,
    mem: Option<(u64, bool)>,
    /// The last attempt to dispatch `mem` stalled on a full MSHR file.
    wedged: bool,
    pub stats: CoreStats,
}

impl Core {
    pub fn new(id: u16, rob_capacity: usize, issue_width: usize, alu_latency: u64) -> Self {
        let slots = rob_capacity.next_power_of_two();
        Core {
            id,
            rob: vec![PENDING; slots].into_boxed_slice(),
            mask: slots - 1,
            capacity: rob_capacity,
            head: 0,
            len: 0,
            head_seq: 0,
            next_seq: 0,
            issue_width,
            alu_latency,
            gap: 0,
            mem: None,
            wedged: false,
            stats: CoreStats::default(),
        }
    }

    pub fn rob_occupancy(&self) -> usize {
        self.len
    }

    fn rob_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Ring slot of the entry `offset` places behind the head.
    fn slot(&self, offset: usize) -> usize {
        (self.head + offset) & self.mask
    }

    /// The head entry's ready cycle, if the ROB is not empty.
    fn head_ready(&self) -> Option<Cycle> {
        (self.len > 0).then(|| self.rob[self.head])
    }

    /// Append `n` entries ready at `ready_at` (`n` free entries exist).
    fn push(&mut self, ready_at: Cycle, n: usize) {
        for k in self.len..self.len + n {
            let tail = self.slot(k);
            self.rob[tail] = ready_at;
        }
        self.len += n;
        self.next_seq += n as u64;
    }

    /// Commit up to `issue_width` ready instructions from the ROB head.
    pub fn commit(&mut self, now: Cycle) -> usize {
        let mut n = 0;
        while n < self.issue_width && n < self.len && self.rob[self.slot(n)] <= now {
            n += 1;
        }
        self.head = self.slot(n);
        self.len -= n;
        self.head_seq += n as u64;
        self.stats.committed += n as u64;
        n
    }

    /// Dispatch up to `issue_width` instructions from `source`, calling
    /// `mem` for each memory instruction. `mem(addr, is_write, seq)` must
    /// return how the access resolves. A run of non-memory instructions
    /// enters the ROB in one step; a stalled access is retried first at
    /// the next dispatch.
    pub fn dispatch<S: InstrSource>(
        &mut self,
        now: Cycle,
        source: &mut S,
        mut mem: impl FnMut(u64, bool, u64) -> MemOutcome,
    ) {
        if self.rob_full() {
            self.stats.rob_full_cycles += 1;
            return;
        }
        let mut slots = self.issue_width;
        while slots > 0 && !self.rob_full() {
            if self.gap == 0 && self.mem.is_none() {
                let block = source.next_block(MAX_GAP);
                self.gap = block.gap;
                self.mem = block.mem;
            }
            if self.gap > 0 {
                let n = (self.gap as usize).min(slots).min(self.capacity - self.len);
                self.push(now + self.alu_latency, n);
                self.gap -= n as u32;
                slots -= n;
                continue;
            }
            let Some((addr, is_write)) = self.mem else {
                unreachable!("a block holds a gap or an access");
            };
            let ready = match mem(addr, is_write, self.next_seq) {
                MemOutcome::ReadyAt(c) => c,
                MemOutcome::Pending => PENDING,
                MemOutcome::Stall => {
                    self.wedged = true;
                    self.stats.mshr_stall_cycles += 1;
                    return;
                }
            };
            self.push(ready, 1);
            self.note_mem(is_write);
            self.mem = None;
            self.wedged = false;
            slots -= 1;
        }
    }

    fn note_mem(&mut self, is_write: bool) {
        self.stats.mem_instrs += 1;
        if is_write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
    }

    /// Earliest cycle at which ticking this core can change anything
    /// beyond the stall counter named by the returned [`StallKind`], given
    /// its state after this cycle's commit+dispatch. Returns cycle 0 when
    /// the core must tick next cycle (ROB has space and dispatch is not
    /// wedged). Two stalls quiesce a core:
    ///
    /// - **ROB full**: nothing moves until the head entry is ready —
    ///   `Cycle::MAX` while the head waits on memory (a
    ///   [`Core::complete_load`] re-evaluates), else the head's ready
    ///   time. Each skipped cycle would have counted a ROB-full stall.
    /// - **MSHR-wedged replay**: dispatch is stuck retrying the same
    ///   instruction against a full MSHR file, which only a fill can
    ///   drain. Commit still pops the head once it is ready, so the wake
    ///   is the head's ready time (`Cycle::MAX` for a pending head or an
    ///   empty ROB, where only posted-write fills hold the MSHRs). Each
    ///   skipped cycle would have counted an MSHR stall.
    ///
    /// Callers that skip the intervening cycles must account each one via
    /// [`Core::account_stall_cycles`] with the returned kind, and must
    /// re-evaluate on any event that can unwedge the core (a fill to its
    /// cluster may free an MSHR without completing one of its own loads).
    pub fn quiesced_until(&self) -> (Cycle, StallKind) {
        if self.rob_full() {
            // Capacity 0 cannot happen; be conservative.
            return (self.head_ready().unwrap_or(0), StallKind::RobFull);
        }
        if self.wedged {
            // A drained ROB waits too: its MSHRs are held by posted writes.
            return (
                self.head_ready().unwrap_or(Cycle::MAX),
                StallKind::MshrReplay,
            );
        }
        (0, StallKind::RobFull)
    }

    /// Bulk-account `n` skipped cycles of stall `kind` (see
    /// [`Core::quiesced_until`]).
    pub fn account_stall_cycles(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::RobFull => self.stats.rob_full_cycles += n,
            StallKind::MshrReplay => self.stats.mshr_stall_cycles += n,
        }
    }

    /// A pending load (ROB sequence `seq`) finished at `now`.
    pub fn complete_load(&mut self, seq: u64, now: Cycle) {
        if seq < self.head_seq {
            return; // already committed (possible only for posted ops)
        }
        let offset = seq - self.head_seq;
        if offset < self.len as u64 {
            let i = self.slot(offset as usize);
            debug_assert!(self.rob[i] == PENDING, "double completion for seq {seq}");
            self.rob[i] = now;
        }
    }

    /// IPC over `cycles`.
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.stats.committed as f64 / cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::FixedSource;

    fn compute_only() -> FixedSource {
        FixedSource::new(vec![], 1_000_000_000)
    }

    #[test]
    fn compute_stream_reaches_full_width_ipc() {
        let mut core = Core::new(0, 32, 2, 1);
        let mut src = compute_only();
        for now in 0..1000u64 {
            core.commit(now);
            core.dispatch(now, &mut src, |_, _, _| MemOutcome::ReadyAt(now));
        }
        // Steady state: 2 IPC (minus pipeline fill).
        assert!(core.stats.committed >= 1990, "{}", core.stats.committed);
    }

    #[test]
    fn pending_load_blocks_commit_until_completed() {
        let mut core = Core::new(0, 4, 2, 1);
        let mut src = FixedSource::new(vec![0x40], 1); // every instr is a load
        core.dispatch(0, &mut src, |_, _, _| MemOutcome::Pending);
        assert_eq!(core.rob_occupancy(), 2);
        for now in 1..10 {
            assert_eq!(core.commit(now), 0);
            core.dispatch(now, &mut src, |_, _, _| MemOutcome::Pending);
        }
        // ROB capped at 4 pending loads.
        assert_eq!(core.rob_occupancy(), 4);
        assert!(core.stats.rob_full_cycles > 0);
        core.complete_load(0, 10);
        assert_eq!(core.commit(10), 1);
        assert_eq!(core.stats.committed, 1);
    }

    #[test]
    fn completion_order_can_be_out_of_order() {
        let mut core = Core::new(0, 8, 2, 1);
        let mut src = FixedSource::new(vec![0x40], 1);
        core.dispatch(0, &mut src, |_, _, _| MemOutcome::Pending);
        // Complete the *second* load first: nothing commits (in-order).
        core.complete_load(1, 5);
        assert_eq!(core.commit(5), 0);
        core.complete_load(0, 6);
        assert_eq!(core.commit(6), 2, "both commit once the head is ready");
    }

    #[test]
    fn completions_find_their_entry_after_the_ring_wraps() {
        let mut core = Core::new(0, 3, 2, 1);
        let mut src = FixedSource::new(vec![0x40], 1);
        let mut now = 0;
        for round in 0..10u64 {
            // Fill the ROB with three pending loads, complete them youngest
            // first, and commit them: the ring head moves 3 slots per round.
            core.dispatch(now, &mut src, |_, _, _| MemOutcome::Pending);
            core.dispatch(now, &mut src, |_, _, _| MemOutcome::Pending);
            assert_eq!(core.rob_occupancy(), 3);
            assert_eq!(core.quiesced_until(), (Cycle::MAX, StallKind::RobFull));
            for seq in (3 * round..3 * round + 3).rev() {
                core.complete_load(seq, now + 1);
            }
            assert_eq!(core.quiesced_until(), (now + 1, StallKind::RobFull));
            assert_eq!(core.commit(now + 1), 2);
            assert_eq!(core.commit(now + 2), 1);
            now += 3;
        }
        assert_eq!(core.stats.committed, 30);
    }

    #[test]
    fn mshr_stall_replays_same_instruction() {
        let mut core = Core::new(0, 8, 2, 1);
        let mut src = FixedSource::new(vec![0x40], 1);
        let mut calls = Vec::new();
        core.dispatch(0, &mut src, |a, _, _| {
            calls.push(a);
            MemOutcome::Stall
        });
        core.dispatch(1, &mut src, |a, _, _| {
            calls.push(a);
            MemOutcome::ReadyAt(2)
        });
        // Address replayed, not skipped (the third call is the next
        // instruction dispatched in the same width-2 cycle).
        assert_eq!(&calls[..2], &[0x40, 0x40]);
        assert_eq!(core.stats.mshr_stall_cycles, 1);
    }

    #[test]
    fn ipc_accounting() {
        let mut core = Core::new(0, 32, 2, 1);
        let mut src = compute_only();
        for now in 0..100u64 {
            core.commit(now);
            core.dispatch(now, &mut src, |_, _, _| MemOutcome::ReadyAt(now));
        }
        let ipc = core.ipc(100);
        assert!(ipc > 1.9 && ipc <= 2.0, "{ipc}");
    }
}
