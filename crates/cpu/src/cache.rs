//! Set-associative, write-back, write-allocate caches with LRU replacement.
//!
//! Used for both the private L1s (16 KB, 4-way) and the shared per-cluster
//! L2s (2 MB, 16-way); line size is 64 B everywhere (§VI-A).

use microbank_core::CACHE_LINE_BITS;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    Hit,
    /// Miss; if a line was evicted, its address and dirtiness.
    Miss {
        victim: Option<Victim>,
    },
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    pub addr: u64,
    pub dirty: bool,
}

/// Most ways a set can hold: a recency-list entry is one byte.
pub(crate) const MAX_ASSOC: usize = 256;

/// One set-associative cache.
///
/// All state lives in one zero-initialised `u32` array, one contiguous
/// block of `stride` words per set:
///
/// * `assoc` tag words, each holding `tag + 1` (0 marks an invalid way);
/// * the recency list: `assoc` one-byte way indices, most recent first,
///   four to a word. The entry at position `i` is stored XOR `i`, so a
///   zeroed list reads as the order `0, 1, …, assoc − 1`;
/// * `assoc.div_ceil(32)` dirty words, one bit per way.
///
/// A fresh cache is therefore one zeroed allocation, and a probe scans
/// only the set's tag words. A touch moves the way to the front of the
/// list; replacement takes the first invalid way, else the last way in
/// the list. A probe compares the zero-extended stored tag with the full
/// 64-bit key, so a tag never aliases; a line whose `tag + 1` does not fit
/// in 32 bits is never installed (see [`Cache::reach`]).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    /// log2(sets): tag extraction is a shift, never a division (sets is
    /// asserted to be a power of two).
    set_shift: u32,
    assoc: usize,
    /// Words per set.
    stride: usize,
    words: Vec<u32>,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    /// `bytes` total capacity, `assoc` ways (at most 256), 64 B
    /// lines. `bytes` must be a power-of-two multiple of `assoc * 64`.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        assert!(
            (1..=MAX_ASSOC).contains(&assoc),
            "assoc must be in 1..={MAX_ASSOC}"
        );
        let lines = bytes >> CACHE_LINE_BITS;
        assert!(lines.is_multiple_of(assoc), "capacity/assoc mismatch");
        let sets = lines / assoc;
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        let stride = assoc + assoc.div_ceil(4) + assoc.div_ceil(32);
        Cache {
            sets,
            set_shift: sets.trailing_zeros(),
            assoc,
            stride,
            words: vec![0; sets * stride],
            hits: 0,
            misses: 0,
        }
    }

    /// Exclusive upper bound of the addresses a cache of this geometry can
    /// hold: a line's stored `tag + 1` must fit in 32 bits. Same
    /// preconditions as [`Cache::new`].
    pub fn reach(bytes: usize, assoc: usize) -> u64 {
        let sets = (bytes >> CACHE_LINE_BITS) / assoc;
        let bound = u128::from(u32::MAX) << (sets.trailing_zeros() + CACHE_LINE_BITS);
        u64::try_from(bound).unwrap_or(u64::MAX)
    }

    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Locate `addr`: its set, its tag key (`tag + 1`) and the way holding
    /// it, if any. Every tag word is compared, with no early exit, and the
    /// matching way's index + 1 is OR-ed in: a set's valid tags are
    /// distinct, so at most one way matches and the result is the first
    /// match's position. A key beyond 32 bits is never installed.
    #[inline]
    fn find(&self, addr: u64) -> (usize, u64, Option<usize>) {
        let line = addr >> CACHE_LINE_BITS;
        let set = (line as usize) & (self.sets - 1);
        let key = (line >> self.set_shift) + 1;
        let Ok(tag) = u32::try_from(key) else {
            return (set, key, None);
        };
        let base = set * self.stride;
        // Four ways per group: a fixed-width body the compiler unrolls.
        let (quads, rest) = self.words[base..base + self.assoc].as_chunks::<4>();
        let mut hit = 0u32;
        for (q, quad) in quads.iter().enumerate() {
            for (j, &t) in quad.iter().enumerate() {
                hit |= u32::from(t == tag) * (4 * q + j + 1) as u32;
            }
        }
        for (j, &t) in rest.iter().enumerate() {
            hit |= u32::from(t == tag) * (4 * quads.len() + j + 1) as u32;
        }
        (set, key, (hit as usize).checked_sub(1))
    }

    /// First word of `set`'s recency list.
    fn list(&self, set: usize) -> usize {
        set * self.stride + self.assoc
    }

    /// The way at recency position `pos` of `set`'s list.
    fn way_at(&self, set: usize, pos: usize) -> usize {
        let byte = (self.words[self.list(set) + pos / 4] >> (8 * (pos % 4))) & 0xff;
        byte as usize ^ pos
    }

    /// Word and bit of `way`'s dirty flag.
    fn dirty_bit(&self, set: usize, way: usize) -> (usize, u32) {
        let i = self.list(set) + self.assoc.div_ceil(4) + way / 32;
        (i, 1 << (way % 32))
    }

    fn is_dirty(&self, set: usize, way: usize) -> bool {
        let (i, bit) = self.dirty_bit(set, way);
        self.words[i] & bit != 0
    }

    fn set_dirty(&mut self, set: usize, way: usize, dirty: bool) {
        let (i, bit) = self.dirty_bit(set, way);
        if dirty {
            self.words[i] |= bit;
        } else {
            self.words[i] &= !bit;
        }
    }

    fn or_dirty(&mut self, set: usize, way: usize, dirty: bool) {
        if dirty {
            self.set_dirty(set, way, true);
        }
    }

    /// Move `way` to the front of `set`'s recency list, shifting the ways
    /// ahead of it back by one. Works four entries at a time: XOR with a
    /// list word's identity order decodes it, and the first decoded byte
    /// equal to `way` ends the shift.
    fn touch(&mut self, set: usize, way: usize) {
        const ONES: u32 = 0x0101_0101;
        let list = self.list(set);
        let words = &mut self.words[list..list + self.assoc.div_ceil(4)];
        let needle = way as u32 * ONES;
        // The decoded entry shifted into the front of the next word.
        let mut carry = way as u32;
        for (k, word) in words.iter_mut().enumerate() {
            let identity = 0x0302_0100 + k as u32 * 0x0404_0404;
            let order = *word ^ identity;
            let x = order ^ needle;
            // The lowest flagged byte is the first entry equal to `way`.
            let found = x.wrapping_sub(ONES) & !x & 0x8080_8080;
            let shifted = (order << 8) | carry;
            if found != 0 {
                let keep = u32::MAX
                    .checked_shl(found.trailing_zeros() + 1)
                    .unwrap_or(0);
                *word = ((order & keep) | (shifted & !keep)) ^ identity;
                return;
            }
            *word = shifted ^ identity;
            carry = order >> 24;
        }
        unreachable!("way {way} is missing from its recency list");
    }

    fn line_addr(&self, set: usize, tag: u32) -> u64 {
        (((u64::from(tag) - 1) << self.set_shift) + set as u64) << CACHE_LINE_BITS
    }

    /// Allocate `key` in `set`: the first invalid way, else the least
    /// recently touched one. Returns the evicted line, if any.
    fn install(&mut self, set: usize, key: u64, dirty: bool) -> Option<Victim> {
        let tag = u32::try_from(key).expect("line lies beyond the cache's 32-bit tag reach");
        let base = set * self.stride;
        let way = self.words[base..base + self.assoc]
            .iter()
            .position(|&t| t == 0)
            .unwrap_or_else(|| self.way_at(set, self.assoc - 1));
        let old = self.words[base + way];
        let victim = (old != 0).then(|| Victim {
            addr: self.line_addr(set, old),
            dirty: self.is_dirty(set, way),
        });
        self.words[base + way] = tag;
        self.set_dirty(set, way, dirty);
        self.touch(set, way);
        victim
    }

    /// Access the line holding `addr`; on a hit, update LRU and dirtiness.
    /// On a miss, allocate (evicting the LRU way) and return the victim.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let (set, key, way) = self.find(addr);
        if let Some(way) = way {
            self.touch(set, way);
            self.or_dirty(set, way, is_write);
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        AccessResult::Miss {
            victim: self.install(set, key, is_write),
        }
    }

    /// Insert a line that arrived from the next level (a fill). Does not
    /// count toward hit/miss statistics. Returns the evicted victim, if any.
    /// No-op returning `None` if the line is already present (its dirty bit
    /// is OR-ed).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
        let (set, key, way) = self.find(addr);
        if let Some(way) = way {
            self.touch(set, way);
            self.or_dirty(set, way, dirty);
            return None;
        }
        self.install(set, key, dirty)
    }

    /// Hit-or-nothing access: one way scan. On a hit, update LRU and
    /// dirtiness and count the hit exactly as [`Cache::access`] would, and
    /// return `true`; on a miss, touch nothing (no allocation, no miss
    /// count, no LRU update) — exactly as the `contains` + `access` pair it
    /// replaces, where the miss path never called `access`. The caller
    /// classifies the miss itself.
    #[inline]
    pub fn probe_hit(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, _, way) = self.find(addr);
        let Some(way) = way else {
            return false;
        };
        self.touch(set, way);
        self.or_dirty(set, way, is_write);
        self.hits += 1;
        true
    }

    /// Probe without modifying state.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).2.is_some()
    }

    /// Invalidate a line (coherence); returns whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, _, way) = self.find(addr);
        let way = way?;
        let dirty = self.is_dirty(set, way);
        self.words[set * self.stride + way] = 0;
        self.set_dirty(set, way, false);
        Some(dirty)
    }

    /// Mark a present line clean (after a writeback) — no-op if absent.
    pub fn clean(&mut self, addr: u64) {
        if let (set, _, Some(way)) = self.find(addr) {
            self.set_dirty(set, way, false);
        }
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> Cache {
        Cache::new(16 * 1024, 4) // 64 sets
    }

    #[test]
    fn geometry() {
        assert_eq!(l1().num_sets(), 64);
        assert_eq!(Cache::new(2 * 1024 * 1024, 16).num_sets(), 2048);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = l1();
        assert!(matches!(
            c.access(0x1000, false),
            AccessResult::Miss { victim: None }
        ));
        assert_eq!(c.access(0x1000, false), AccessResult::Hit);
        assert_eq!(c.access(0x1004, false), AccessResult::Hit, "same line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = l1();
        // Fill one set (same set index, different tags): set stride is
        // 64 sets × 64 B = 4096.
        for i in 0..4u64 {
            c.access(i * 4096, false);
        }
        // Touch line 0 so line 1 becomes LRU.
        c.access(0, false);
        let r = c.access(4 * 4096, false);
        match r {
            AccessResult::Miss { victim: Some(v) } => assert_eq!(v.addr, 4096),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(0));
        assert!(!c.contains(4096));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = l1();
        c.access(0, true); // dirty
        for i in 1..=4u64 {
            let r = c.access(i * 4096, false);
            if let AccessResult::Miss { victim: Some(v) } = r {
                assert_eq!(v.addr, 0);
                assert!(v.dirty);
                return;
            }
        }
        panic!("line 0 never evicted");
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = l1();
        c.access(0, false);
        c.access(0, true);
        // Evict it and confirm dirtiness via the victim.
        for i in 1..=4u64 {
            if let AccessResult::Miss { victim: Some(v) } = c.access(i * 4096, false) {
                assert!(v.dirty);
                return;
            }
        }
        panic!("no eviction");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = l1();
        c.access(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert!(!c.contains(0x40));
        assert_eq!(c.invalidate(0x40), None);
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut c = l1();
        c.access(0, true);
        c.clean(0);
        for i in 1..=4u64 {
            if let AccessResult::Miss { victim: Some(v) } = c.access(i * 4096, false) {
                assert!(!v.dirty, "clean() should have cleared dirtiness");
                return;
            }
        }
        panic!("no eviction");
    }

    #[test]
    fn dirty_bits_cover_every_way_beyond_64() {
        // One 128-way set: way 100's dirty bit lives in the fourth word.
        let mut c = Cache::new(128 * 64, 128);
        assert_eq!(c.num_sets(), 1);
        for i in 0..128u64 {
            c.access(i * 64, i == 100);
        }
        for i in 0..128u64 {
            match c.access((128 + i) * 64, false) {
                AccessResult::Miss { victim: Some(v) } => {
                    assert_eq!(v.addr, i * 64);
                    assert_eq!(v.dirty, i == 100, "way {i}");
                }
                other => panic!("expected eviction of line {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn paper_geometries_pin_their_footprint() {
        // 4 tag words + 1 list word + 1 dirty word per 4-way set; 16 + 4 +
        // 1 per 16-way set.
        assert_eq!(l1().words.len() * 4, 64 * 24);
        assert_eq!(Cache::new(2 * 1024 * 1024, 16).words.len() * 4, 2048 * 84);
    }

    #[test]
    fn associativity_is_capped_at_one_byte_of_way_index() {
        let mut c = Cache::new(256 * 64, 256);
        for i in 0..257u64 {
            c.access(i * 64, false);
        }
        assert!(!c.contains(0), "the 257th line evicts the least recent");
        assert!(std::panic::catch_unwind(|| Cache::new(512 * 64, 512)).is_err());
    }

    #[test]
    fn tags_are_never_aliased_above_32_bits() {
        // One set: a line's tag is its line number.
        let mut c = Cache::new(64, 1);
        let top = (u64::from(u32::MAX) - 1) << CACHE_LINE_BITS;
        assert_eq!(Cache::reach(64, 1), top + 64);
        c.access(top, false); // stored tag + 1 = u32::MAX
        assert!(c.contains(top));
        c.access(0, false); // stored tag + 1 = 1
        assert!(!c.contains(1 << (32 + CACHE_LINE_BITS)), "key 2^32 + 1");
        let beyond = std::panic::catch_unwind(move || c.access(top + 64, false));
        assert!(beyond.is_err(), "a tag + 1 of 2^32 must not be installed");
    }

    #[test]
    fn hit_rate_reporting() {
        let mut c = l1();
        c.access(0, false);
        c.access(0, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
