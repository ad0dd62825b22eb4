//! The controller's bounded request queue.
//!
//! Each memory controller holds pending requests in a 32-entry queue
//! (§VI-A). The scheduler scans it every command slot, so the queue keeps
//! simple dense storage plus two incrementally-maintained indexes the hot
//! path consults in O(1):
//!
//! - per-μbank occupancy counts, which the page policies consult ("as long
//!   as the queue is not empty, the controller can make an effective
//!   decision" — §V);
//! - per-rank occupancy counts, which the power-down path consults without
//!   rescanning the queue every tick.
//!
//! The queue also stamps each entry's flat μbank index
//! ([`MemRequest::flat`]) on push, so per-tick scans never recompute
//! [`microbank_core::address::Location::ubank_flat`], and carries two
//! values beside each entry, swapped together by [`RequestQueue::remove`]:
//!
//! - its PAR-BS batch mark, so selection never looks a request up by id;
//! - its cached next DRAM command ([`NextCmd`]), which the controller
//!   re-derives only when the entry's physical bank changed, so the
//!   candidate scan and the `next_event` fold read no μbank state.

use microbank_core::channel::CmdClass;
use microbank_core::config::MemConfig;
use microbank_core::request::MemRequest;
use microbank_core::Cycle;

// Hot-loop hasher shared across the workspace (see `microbank_core::fxhash`
// for why the swap from SipHash is behavior-identical here).
pub use microbank_core::fxhash::{FxBuild, FxHasher};

/// A queued request's next DRAM command as the controller last derived
/// it. Its earliest legal cycle is `max(local, channel floor of (rank,
/// class))`; the value is exact while `epoch` equals the channel's epoch
/// of physical bank `bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextCmd {
    /// μbank-local part of the command's earliest legal cycle. A
    /// precharge that must wait until no queued request hits the target's
    /// open row has `Cycle::MAX`: the hit holder's column changes the
    /// epoch first.
    pub local: Cycle,
    /// Bank epoch the command was derived at (`u64::MAX` = never).
    pub epoch: u64,
    /// μbank the command goes to: the request's own, or for a precharge
    /// the sibling that structurally blocks its ACT.
    pub target: u32,
    /// Global physical-bank index of the request's μbank.
    pub bank: u32,
    pub rank: u16,
    pub class: CmdClass,
}

/// Bounded request queue with per-μbank and per-rank occupancy tracking.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: Vec<MemRequest>,
    /// PAR-BS batch mark of each entry, parallel to `entries`.
    marked: Vec<bool>,
    /// Cached next command of each entry, parallel to `entries`.
    next: Vec<NextCmd>,
    /// μbanks per physical bank, to stamp [`NextCmd::bank`] on push.
    ubanks_per_bank: usize,
    capacity: usize,
    /// Pending-request count per flat μbank index (channel-local).
    per_bank: Vec<u32>,
    /// Pending-request count per rank (for the power-down path).
    per_rank: Vec<u32>,
}

impl RequestQueue {
    pub fn new(cfg: &MemConfig) -> Self {
        RequestQueue {
            entries: Vec::with_capacity(cfg.queue_size),
            marked: Vec::with_capacity(cfg.queue_size),
            next: Vec::with_capacity(cfg.queue_size),
            ubanks_per_bank: cfg.ubank.ubanks_per_bank(),
            capacity: cfg.queue_size,
            per_bank: vec![0; cfg.ubanks_per_channel()],
            per_rank: vec![0; cfg.ranks_per_channel],
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to enqueue; returns `false` (and drops nothing) when full. The
    /// request's `loc` must already be decoded and channel-local; its
    /// cached flat index is stamped here. New entries are unmarked, and
    /// their cached next command is stale.
    pub fn push(&mut self, mut req: MemRequest, flat_ubank: usize) -> bool {
        if self.is_full() {
            return false;
        }
        req.flat = flat_ubank as u32;
        self.per_bank[flat_ubank] += 1;
        self.per_rank[req.loc.rank as usize] += 1;
        self.next.push(NextCmd {
            local: Cycle::MAX,
            epoch: u64::MAX,
            target: req.flat,
            bank: (flat_ubank / self.ubanks_per_bank) as u32,
            rank: req.loc.rank as u16,
            class: CmdClass::Activate,
        });
        self.entries.push(req);
        self.marked.push(false);
        true
    }

    /// Remove the entry at `idx` (swap-remove; order is reconstructed from
    /// arrival stamps by the scheduler, so storage order is free).
    pub fn remove(&mut self, idx: usize) -> MemRequest {
        let req = self.entries.swap_remove(idx);
        self.marked.swap_remove(idx);
        self.next.swap_remove(idx);
        self.per_bank[req.flat as usize] -= 1;
        self.per_rank[req.loc.rank as usize] -= 1;
        req
    }

    pub fn iter(&self) -> impl Iterator<Item = &MemRequest> {
        self.entries.iter()
    }

    pub fn get(&self, idx: usize) -> &MemRequest {
        &self.entries[idx]
    }

    /// Is the entry at `idx` part of the current PAR-BS batch?
    pub fn is_marked(&self, idx: usize) -> bool {
        self.marked[idx]
    }

    /// Cached next command of every entry, by entry index.
    pub(crate) fn next_cmds(&self) -> &[NextCmd] {
        &self.next
    }

    /// The entries and their marks beside their cached next commands, for
    /// re-deriving those during a scan.
    pub(crate) fn split_next_cmds(&mut self) -> (&[MemRequest], &[bool], &mut [NextCmd]) {
        (&self.entries, &self.marked, &mut self.next)
    }

    /// Put the entry at `idx` into the current PAR-BS batch.
    pub fn mark(&mut self, idx: usize) {
        self.marked[idx] = true;
    }

    /// Flag the entry at `idx` as having consumed its one corrected-ECC
    /// demand retry (reliability subsystem). Touches no index state: the
    /// request keeps its μbank/row/kind, it is merely re-serviced.
    pub fn mark_retried(&mut self, idx: usize) {
        self.entries[idx].retried = true;
    }

    /// Number of queued requests targeting the given μbank.
    pub fn pending_for_bank(&self, flat_ubank: usize) -> u32 {
        self.per_bank[flat_ubank]
    }

    /// Number of queued requests targeting the given rank.
    pub fn pending_for_rank(&self, rank: usize) -> u32 {
        self.per_rank[rank]
    }

    /// Indices of all entries, for scheduler scans.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::address::AddressMap;
    use microbank_core::request::{MemRequest, ReqKind};

    fn cfg() -> MemConfig {
        MemConfig::lpddr_tsi().with_ubanks(2, 2).with_queue_size(4)
    }

    fn req(id: u64, addr: u64, cfg: &MemConfig) -> (MemRequest, usize) {
        let map = AddressMap::new(cfg);
        let mut r = MemRequest::new(id, addr, ReqKind::Read, 0, id);
        r.loc = map.decode(addr);
        let flat = r.loc.ubank_flat(cfg);
        (r, flat)
    }

    #[test]
    fn respects_capacity() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        for i in 0..4 {
            let (r, f) = req(i, i * 64, &c);
            assert!(q.push(r, f));
        }
        assert!(q.is_full());
        let (r, f) = req(99, 99 * 64, &c);
        assert!(!q.push(r, f));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn push_stamps_cached_flat_index() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        let (r, f) = req(0, 0x4000, &c);
        q.push(r, f);
        assert_eq!(q.get(0).flat as usize, f);
    }

    #[test]
    fn per_bank_counts_track_push_and_remove() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // 0x4000 differs in the bank field for (2,2) at row interleaving,
        // so the two requests target distinct μbanks.
        let (r1, f1) = req(0, 0, &c);
        let (r2, f2) = req(1, 0x4000, &c);
        assert_ne!(f1, f2);
        q.push(r1, f1);
        q.push(r2, f2);
        assert_eq!(q.pending_for_bank(f1), 1);
        assert_eq!(q.pending_for_bank(f2), 1);
        assert_eq!(q.pending_for_rank(0), 2);
        let idx = q.indices().find(|&i| q.get(i).id == 0).unwrap();
        q.remove(idx);
        assert_eq!(q.pending_for_bank(f1), 0);
        assert_eq!(q.pending_for_bank(f2), 1);
        assert_eq!(q.pending_for_rank(0), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn marks_follow_their_entry_through_swap_remove() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        for i in 0..3 {
            let (r, f) = req(i, i * 64, &c);
            q.push(r, f);
        }
        q.mark(2);
        assert!(!q.is_marked(0) && !q.is_marked(1) && q.is_marked(2));
        // Removing index 0 swaps the last (marked) entry into its slot.
        q.remove(0);
        assert_eq!(q.get(0).id, 2);
        assert!(q.is_marked(0) && !q.is_marked(1));
        let (r, f) = req(3, 3 * 64, &c);
        q.push(r, f);
        assert!(!q.is_marked(2), "new entries start unmarked");
    }

    #[test]
    fn next_cmds_follow_their_entry_through_swap_remove() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        for i in 0..3 {
            let (r, f) = req(i, i << 14, &c);
            q.push(r, f);
        }
        let per_bank = c.ubank.ubanks_per_bank();
        for (r, n) in q.iter().zip(q.next_cmds()) {
            assert_eq!(n.bank as usize, r.flat as usize / per_bank);
            assert_eq!(n.epoch, u64::MAX, "pushed stale");
        }
        q.split_next_cmds().2[2].local = 42;
        q.remove(0);
        assert_eq!(q.get(0).id, 2);
        assert_eq!(q.next_cmds()[0].local, 42);
        assert_eq!(q.next_cmds().len(), 2);
    }
}
