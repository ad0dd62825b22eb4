//! Directory-based MESI coherence among the per-cluster L2 slices.
//!
//! The paper's platform keeps a reverse directory at each memory controller
//! (§VI-A). We model one logical directory (the sim routes lookups to the
//! line's home controller for latency purposes): per line, either nobody
//! caches it, a set of clusters share it clean, or exactly one cluster owns
//! it modified. The directory tells the requesting L2 where data comes from
//! (memory or a remote L2) and which caches to invalidate — the invariants
//! of MESI at the inter-L2 granularity our CMP model resolves.
//!
//! Storage is split into [`BANKS`] hash maps keyed by the 32-bit line
//! index, so the directory can hold lines below [`Directory::REACH`]. The
//! banks are a layout, not a protocol: each line still has exactly one
//! entry in exactly one bank, and every transaction on it is resolved there
//! as at one MESI home. Banking only keeps growth cheap — a bank that fills
//! up doubles alone, so a resize copies a sixteenth of the directory rather
//! than holding two full tables at once.

use microbank_core::fxhash::{FxBuild, FxHashMap};
use microbank_core::{CACHE_LINE_BITS, CACHE_LINE_BYTES};
use std::hash::BuildHasher;

/// Number of directory banks. Sixteen keeps the largest resize transient
/// (one bank's old and new tables) to about a sixteenth of the directory
/// while the fixed per-bank overhead stays negligible.
pub const BANKS: usize = 16;

/// Directory state for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    Uncached,
    /// Clean copies in the clusters of the sharer bitmap.
    Shared,
    /// Exactly one cluster holds a dirty copy.
    Modified,
}

/// Packed to 12 B so that a bucket — the `u32` key plus the entry — is
/// 16 B. Fields are only ever copied in and out, never borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct DirEntry {
    /// Bitmap over clusters (≤ 64).
    sharers: u64,
    state: LineState,
}

const _: () = assert!(std::mem::size_of::<(u32, DirEntry)>() == 16);

/// Where the requester gets its data, as decided by the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceAction {
    /// Nobody else caches it (or only clean copies far away): main memory.
    FetchFromMemory,
    /// Cache-to-cache transfer from `owner`'s L2. `demote_writeback` is
    /// true when a modified owner is demoted to shared and its dirty data
    /// must also be written back to memory.
    ForwardFromOwner {
        owner: usize,
        demote_writeback: bool,
    },
}

/// Clusters whose copies must be invalidated before a write proceeds.
pub type Invalidations = u64;

/// The MESI directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    // Point lookups only on the sim path (`check_invariants` iterates but
    // is diagnostic-only), so neither the hash nor the bank split can
    // affect behavior.
    banks: [FxHashMap<u32, DirEntry>; BANKS],
    pub forwards: u64,
    pub invalidation_msgs: u64,
}

impl Directory {
    /// Exclusive upper bound of the line addresses the directory can
    /// track: 2^32 line indices of 64 B, 256 GiB.
    pub const REACH: u64 = 1 << (32 + CACHE_LINE_BITS);

    pub fn new() -> Self {
        Self::default()
    }

    /// The bank that holds `line`. The bank is bits 32..36 of the banks'
    /// own Fx hash of the line index: hashbrown takes the bucket index from
    /// the low bits and the control tag from the top seven, so keys that
    /// share a bank still spread over its buckets and tags.
    pub fn bank_of(line: u64) -> usize {
        Self::slot(line).0
    }

    /// The 32-bit key of `line`, its line index. Panics for a line at or
    /// beyond [`Directory::REACH`].
    pub fn key(line: u64) -> u32 {
        u32::try_from(line >> CACHE_LINE_BITS)
            .expect("line lies beyond the directory's 32-bit reach")
    }

    /// Bank and key of `line`, a line-aligned address below
    /// [`Directory::REACH`].
    fn slot(line: u64) -> (usize, u32) {
        debug_assert_eq!(line % CACHE_LINE_BYTES, 0, "unaligned line {line:#x}");
        let key = Self::key(line);
        let bank = (FxBuild::default().hash_one(key) >> 32) as usize % BANKS;
        (bank, key)
    }

    fn first_sharer(bitmap: u64) -> usize {
        bitmap.trailing_zeros() as usize
    }

    /// A read miss from `cluster`. Returns where data comes from.
    pub fn read_miss(&mut self, line: u64, cluster: usize) -> CoherenceAction {
        let bit = 1u64 << cluster;
        let (bank, key) = Self::slot(line);
        let e = self.banks[bank].entry(key).or_insert(DirEntry {
            sharers: 0,
            state: LineState::Uncached,
        });
        match e.state {
            LineState::Uncached => {
                e.state = LineState::Shared;
                e.sharers = bit;
                CoherenceAction::FetchFromMemory
            }
            LineState::Shared => {
                let owner = Self::first_sharer(e.sharers);
                e.sharers |= bit;
                if owner == cluster {
                    // Stale directory entry for our own copy (can only
                    // happen after a silent L2 refill); treat as memory.
                    CoherenceAction::FetchFromMemory
                } else {
                    self.forwards += 1;
                    CoherenceAction::ForwardFromOwner {
                        owner,
                        demote_writeback: false,
                    }
                }
            }
            LineState::Modified => {
                let owner = Self::first_sharer(e.sharers);
                debug_assert_eq!(e.sharers.count_ones(), 1);
                e.state = LineState::Shared;
                e.sharers |= bit;
                if owner == cluster {
                    CoherenceAction::FetchFromMemory
                } else {
                    self.forwards += 1;
                    CoherenceAction::ForwardFromOwner {
                        owner,
                        demote_writeback: true,
                    }
                }
            }
        }
    }

    /// A write miss (or upgrade) from `cluster`. Returns the data source
    /// and the set of clusters to invalidate (excluding the requester).
    pub fn write_miss(&mut self, line: u64, cluster: usize) -> (CoherenceAction, Invalidations) {
        let bit = 1u64 << cluster;
        let (bank, key) = Self::slot(line);
        let e = self.banks[bank].entry(key).or_insert(DirEntry {
            sharers: 0,
            state: LineState::Uncached,
        });
        let others = e.sharers & !bit;
        let action = match e.state {
            LineState::Uncached => CoherenceAction::FetchFromMemory,
            LineState::Shared => {
                if e.sharers & bit != 0 {
                    // Upgrade: data already local.
                    CoherenceAction::ForwardFromOwner {
                        owner: cluster,
                        demote_writeback: false,
                    }
                } else if others != 0 {
                    self.forwards += 1;
                    CoherenceAction::ForwardFromOwner {
                        owner: Self::first_sharer(others),
                        demote_writeback: false,
                    }
                } else {
                    CoherenceAction::FetchFromMemory
                }
            }
            LineState::Modified => {
                if others == 0 {
                    // Already the modified owner (silent upgrade).
                    CoherenceAction::ForwardFromOwner {
                        owner: cluster,
                        demote_writeback: false,
                    }
                } else {
                    self.forwards += 1;
                    // Dirty ownership migrates; no memory writeback needed.
                    CoherenceAction::ForwardFromOwner {
                        owner: Self::first_sharer(others),
                        demote_writeback: false,
                    }
                }
            }
        };
        self.invalidation_msgs += others.count_ones() as u64;
        e.state = LineState::Modified;
        e.sharers = bit;
        (action, others)
    }

    /// `cluster` evicted its copy of `line` (`dirty` = it was modified).
    /// Returns true when the caller must write the line back to memory.
    pub fn evict(&mut self, line: u64, cluster: usize, dirty: bool) -> bool {
        let bit = 1u64 << cluster;
        let (bank, key) = Self::slot(line);
        let bank = &mut self.banks[bank];
        let Some(e) = bank.get_mut(&key) else {
            return dirty;
        };
        e.sharers &= !bit;
        if e.sharers == 0 {
            bank.remove(&key);
        } else if e.state == LineState::Modified {
            e.state = LineState::Shared;
        }
        // A dirty eviction always writes back, whether the directory held
        // the line Modified or a silent L1 write dirtied a Shared copy.
        dirty
    }

    /// Directory state of a line (for tests/invariants).
    pub fn state_of(&self, line: u64) -> (LineState, u64) {
        let (bank, key) = Self::slot(line);
        match self.banks[bank].get(&key) {
            None => (LineState::Uncached, 0),
            Some(e) => (e.state, e.sharers),
        }
    }

    /// MESI invariant check: Modified lines have exactly one sharer.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&key, e) in self.banks.iter().flatten() {
            let line = u64::from(key) << CACHE_LINE_BITS;
            let sharers = e.sharers;
            match e.state {
                LineState::Modified if sharers.count_ones() != 1 => {
                    return Err(format!(
                        "line {line:#x}: modified with {} sharers",
                        sharers.count_ones()
                    ));
                }
                LineState::Shared if sharers == 0 => {
                    return Err(format!("line {line:#x}: shared with no sharers"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    pub fn tracked_lines(&self) -> usize {
        self.banks.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_fetches_from_memory() {
        let mut d = Directory::new();
        assert_eq!(d.read_miss(0x40, 0), CoherenceAction::FetchFromMemory);
        assert_eq!(d.state_of(0x40), (LineState::Shared, 0b1));
        d.check_invariants().unwrap();
    }

    #[test]
    fn second_reader_gets_forwarded() {
        let mut d = Directory::new();
        d.read_miss(0x40, 0);
        let a = d.read_miss(0x40, 3);
        assert_eq!(
            a,
            CoherenceAction::ForwardFromOwner {
                owner: 0,
                demote_writeback: false
            }
        );
        assert_eq!(d.state_of(0x40), (LineState::Shared, 0b1001));
        assert_eq!(d.forwards, 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.read_miss(0x40, 0);
        d.read_miss(0x40, 1);
        d.read_miss(0x40, 2);
        let (action, inv) = d.write_miss(0x40, 1);
        assert_eq!(inv, 0b101, "clusters 0 and 2 invalidated");
        assert!(matches!(action, CoherenceAction::ForwardFromOwner { .. }));
        assert_eq!(d.state_of(0x40), (LineState::Modified, 0b10));
        d.check_invariants().unwrap();
    }

    #[test]
    fn read_of_modified_line_demotes_with_writeback() {
        let mut d = Directory::new();
        d.write_miss(0x40, 2);
        let a = d.read_miss(0x40, 5);
        assert_eq!(
            a,
            CoherenceAction::ForwardFromOwner {
                owner: 2,
                demote_writeback: true
            }
        );
        assert_eq!(d.state_of(0x40), (LineState::Shared, (1 << 2) | (1 << 5)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn ownership_migrates_between_writers() {
        let mut d = Directory::new();
        d.write_miss(0x40, 0);
        let (a, inv) = d.write_miss(0x40, 7);
        assert_eq!(
            a,
            CoherenceAction::ForwardFromOwner {
                owner: 0,
                demote_writeback: false
            }
        );
        assert_eq!(inv, 1);
        assert_eq!(d.state_of(0x40), (LineState::Modified, 1 << 7));
        d.check_invariants().unwrap();
    }

    #[test]
    fn eviction_of_modified_requires_writeback() {
        let mut d = Directory::new();
        d.write_miss(0x40, 4);
        assert!(d.evict(0x40, 4, true));
        assert_eq!(d.state_of(0x40), (LineState::Uncached, 0));
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn eviction_of_shared_copy_is_silent() {
        let mut d = Directory::new();
        d.read_miss(0x40, 0);
        d.read_miss(0x40, 1);
        assert!(!d.evict(0x40, 0, false));
        assert_eq!(d.state_of(0x40), (LineState::Shared, 0b10));
    }

    #[test]
    fn upgrade_does_not_refetch() {
        let mut d = Directory::new();
        d.read_miss(0x40, 3);
        let (a, inv) = d.write_miss(0x40, 3);
        assert_eq!(
            a,
            CoherenceAction::ForwardFromOwner {
                owner: 3,
                demote_writeback: false
            }
        );
        assert_eq!(inv, 0);
    }

    #[test]
    fn lines_spread_evenly_over_the_banks() {
        // 64Ki consecutive lines, about a mcf-stress directory: every bank
        // holds its sixteenth to within 5%.
        let mut d = Directory::new();
        for i in 0..1u64 << 16 {
            d.read_miss(i * 64, (i % 16) as usize);
        }
        assert_eq!(d.tracked_lines(), 1 << 16);
        for bank in &d.banks {
            assert!(bank.len().abs_diff(4096) < 205, "bank holds {}", bank.len());
        }
    }

    #[test]
    #[should_panic(expected = "beyond the directory's 32-bit reach")]
    fn line_beyond_the_reach_is_never_installed() {
        Directory::new().read_miss(Directory::REACH, 0);
    }
}
