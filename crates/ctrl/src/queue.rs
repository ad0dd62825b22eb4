//! The controller's bounded request queue.
//!
//! Each memory controller holds pending requests in a 32-entry queue
//! (§VI-A). The scheduler scans it every command slot, so the queue keeps
//! simple dense storage plus one index: an entry mask per physical bank
//! ([`RequestQueue::bank_entries`]), a bitset over entry indices with as
//! many 64-bit words as the capacity needs, which `push` and the
//! swap-remove maintain. Every occupancy question is a walk of those
//! masks:
//!
//! - the entries of one μbank (`ubank_entries`), which the page policies
//!   count ("as long as the queue is not empty, the controller can make an
//!   effective decision" — §V), the open-row guard filters by row
//!   (`row_demand`) and PAR-BS batch formation ranks by age;
//! - the entries of one rank, a popcount of its banks' masks, which the
//!   power-down path consults.
//!
//! The queue also stamps each entry's flat μbank index
//! ([`MemRequest::flat`]) on push, so per-tick scans never recompute
//! [`microbank_core::address::Location::ubank_flat`], and carries three
//! values beside each entry, moved together by [`RequestQueue::remove`]:
//!
//! - its PAR-BS batch mark, a bit in a bitset over entry indices, so
//!   selection never looks a request up by id and "the batch drained" is
//!   an empty bitset;
//! - its scheduler [`Key`], which changes only when a batch forms;
//! - its cached next DRAM command ([`NextCmd`]), which the controller
//!   derives at enqueue and re-derives only for the entries of physical
//!   banks the channel touched, so the eligibility pass and the
//!   `next_event` fold read no μbank state.

use crate::scheduler::Key;
use microbank_core::bits;
use microbank_core::channel::CmdClass;
use microbank_core::config::MemConfig;
use microbank_core::request::MemRequest;
use microbank_core::Cycle;

/// A queued request's next DRAM command as the controller last derived
/// it. Its earliest legal cycle is `max(local, channel floor of (rank,
/// class))`; the value is exact while the channel has not touched physical
/// bank `bank` since the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextCmd {
    /// μbank-local part of the command's earliest legal cycle. A
    /// precharge that must wait until no queued request hits the target's
    /// open row has `Cycle::MAX`: the hit holder's column touches the bank
    /// first.
    pub local: Cycle,
    /// μbank the command goes to: the request's own, or for a precharge
    /// the sibling that structurally blocks its ACT.
    pub target: u32,
    /// Global physical-bank index of the request's μbank.
    pub bank: u32,
    pub rank: u16,
    pub class: CmdClass,
}

/// Bounded request queue indexed by one entry mask per physical bank.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: Vec<MemRequest>,
    /// PAR-BS batch marks: bitset over entry indices (`words` words).
    marked: Vec<u64>,
    /// Cached next command of each entry, parallel to `entries`.
    next: Vec<NextCmd>,
    /// Cached selection key of each entry, parallel to `entries`.
    keys: Vec<Key>,
    /// Per physical bank, `words` words: the bitset of entry indices whose
    /// μbank lies in the bank.
    bank_entries: Vec<u64>,
    /// Words per entry bitset (`capacity` bits).
    words: usize,
    /// μbanks per physical bank, to stamp [`NextCmd::bank`] on push.
    ubanks_per_bank: usize,
    /// Physical banks per rank: a rank's masks are contiguous.
    banks_per_rank: usize,
    capacity: usize,
}

impl RequestQueue {
    pub fn new(cfg: &MemConfig) -> Self {
        let words = bits::words(cfg.queue_size);
        let banks = cfg.banks_per_rank * cfg.ranks_per_channel;
        RequestQueue {
            entries: Vec::with_capacity(cfg.queue_size),
            marked: vec![0; words],
            next: Vec::with_capacity(cfg.queue_size),
            keys: Vec::with_capacity(cfg.queue_size),
            bank_entries: vec![0; banks * words],
            words,
            ubanks_per_bank: cfg.ubank.ubanks_per_bank(),
            banks_per_rank: cfg.banks_per_rank,
            capacity: cfg.queue_size,
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
    /// their cached next command and key are placeholders for the caller
    /// to derive.
    pub fn push(&mut self, mut req: MemRequest, flat_ubank: usize) -> bool {
        if self.is_full() {
            return false;
        }
        req.flat = flat_ubank as u32;
        let bank = flat_ubank / self.ubanks_per_bank;
        let idx = self.entries.len();
        bits::set(self.bank_entries_mut(bank), idx);
        self.next.push(NextCmd {
            local: Cycle::MAX,
            target: req.flat,
            bank: bank as u32,
            rank: req.loc.rank as u16,
            class: CmdClass::Activate,
        });
        self.keys.push(Key::default());
        self.entries.push(req);
        true
    }

    /// Remove the entry at `idx` (swap-remove; order is reconstructed from
    /// arrival stamps by the scheduler, so storage order is free). The
    /// last entry moves to `idx`, and its bank's mask with it.
    pub fn remove(&mut self, idx: usize) -> MemRequest {
        let last = self.entries.len() - 1;
        bits::clear(self.bank_entries_mut(self.next[idx].bank as usize), idx);
        bits::clear(&mut self.marked, idx);
        if last != idx {
            let moved = self.bank_entries_mut(self.next[last].bank as usize);
            bits::clear(moved, last);
            bits::set(moved, idx);
            if bits::get(&self.marked, last) {
                bits::clear(&mut self.marked, last);
                bits::set(&mut self.marked, idx);
            }
        }
        let req = self.entries.swap_remove(idx);
        self.next.swap_remove(idx);
        self.keys.swap_remove(idx);
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
        bits::get(&self.marked, idx)
    }

    /// The PAR-BS batch marks as a bitset over entry indices
    /// (`capacity` bits).
    pub(crate) fn marked_entries(&self) -> &[u64] {
        &self.marked
    }

    /// Cached next command of every entry, by entry index.
    pub(crate) fn next_cmds(&self) -> &[NextCmd] {
        &self.next
    }

    /// Cached selection key of every entry (as a row miss), by entry
    /// index.
    pub(crate) fn keys(&self) -> &[Key] {
        &self.keys
    }

    pub(crate) fn set_key(&mut self, idx: usize, key: Key) {
        self.keys[idx] = key;
    }

    /// Bitset of the entry indices whose μbank lies in physical bank
    /// `bank` (`capacity` bits).
    pub fn bank_entries(&self, bank: usize) -> &[u64] {
        &self.bank_entries[bank * self.words..(bank + 1) * self.words]
    }

    fn bank_entries_mut(&mut self, bank: usize) -> &mut [u64] {
        &mut self.bank_entries[bank * self.words..(bank + 1) * self.words]
    }

    /// Replace the cached next command of every entry whose physical bank
    /// is set in the bitset `banks` with `derive(queue, entry index)`.
    pub(crate) fn rederive_banks(
        &mut self,
        banks: &[u64],
        mut derive: impl FnMut(&RequestQueue, usize) -> NextCmd,
    ) {
        for bank in bits::ones(banks) {
            for w in 0..self.words {
                let word = self.bank_entries[bank * self.words + w];
                for b in bits::ones(&[word]) {
                    let i = w * 64 + b;
                    let n = derive(self, i);
                    self.next[i] = n;
                }
            }
        }
    }

    pub(crate) fn set_next_cmd(&mut self, idx: usize, n: NextCmd) {
        self.next[idx] = n;
    }

    /// Put the entry at `idx` into the current PAR-BS batch.
    pub fn mark(&mut self, idx: usize) {
        bits::set(&mut self.marked, idx);
    }

    /// Flag the entry at `idx` as having consumed its one corrected-ECC
    /// demand retry (reliability subsystem). Touches no index state: the
    /// request keeps its μbank/row/kind, it is merely re-serviced.
    pub fn mark_retried(&mut self, idx: usize) {
        self.entries[idx].retried = true;
    }

    /// Indices of the entries queued for flat μbank `flat`, ascending: its
    /// physical bank's mask filtered by μbank.
    pub(crate) fn ubank_entries(&self, flat: usize) -> impl Iterator<Item = usize> + '_ {
        bits::ones(self.bank_entries(flat / self.ubanks_per_bank))
            .filter(move |&i| self.entries[i].flat as usize == flat)
    }

    /// Number of queued requests for μbank `flat` whose row is `row`; with
    /// `row` the μbank's open row, its open-row demand.
    pub(crate) fn row_demand(&self, flat: usize, row: u32) -> u32 {
        self.ubank_entries(flat)
            .filter(|&i| self.entries[i].loc.row == row)
            .count() as u32
    }

    /// Number of queued requests targeting the given μbank.
    pub fn pending_for_bank(&self, flat_ubank: usize) -> u32 {
        self.ubank_entries(flat_ubank).count() as u32
    }

    /// Number of queued requests targeting the given rank: the popcount of
    /// its banks' masks.
    pub fn pending_for_rank(&self, rank: usize) -> u32 {
        let span = self.banks_per_rank * self.words;
        self.bank_entries[rank * span..(rank + 1) * span]
            .iter()
            .map(|w| w.count_ones())
            .sum()
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
        }
        q.set_next_cmd(
            2,
            NextCmd {
                local: 42,
                ..q.next_cmds()[2]
            },
        );
        q.remove(0);
        assert_eq!(q.get(0).id, 2);
        assert_eq!(q.next_cmds()[0].local, 42);
        assert_eq!(q.next_cmds().len(), 2);
    }

    /// Every entry's bit sits in exactly its own bank's mask.
    fn assert_bank_masks(q: &RequestQueue, banks: usize) {
        for bank in 0..banks {
            let want: Vec<usize> = q
                .indices()
                .filter(|&i| q.next_cmds()[i].bank as usize == bank)
                .collect();
            let have: Vec<usize> = bits::ones(q.bank_entries(bank)).collect();
            assert_eq!(have, want, "bank {bank}");
        }
    }

    #[test]
    fn bank_masks_follow_swap_remove_across_words() {
        let c = MemConfig::lpddr_tsi()
            .with_ubanks(2, 2)
            .with_queue_size(100);
        let banks = c.banks_per_rank * c.ranks_per_channel;
        let mut q = RequestQueue::new(&c);
        for i in 0..100 {
            // Bank field above the μbank bits: entries spread over banks.
            let (r, f) = req(i, (i * 7 % 8) << 14, &c);
            assert!(q.push(r, f));
        }
        assert_bank_masks(&q, banks);
        // Remove from the front, the middle and the far word until empty.
        let mut k = 0usize;
        while !q.is_empty() {
            k = (k * 31 + 17) % q.len();
            q.remove(k);
            assert_bank_masks(&q, banks);
        }
        assert!((0..banks).all(|b| q.bank_entries(b).iter().all(|&w| w == 0)));
    }
}
