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

/// One set-associative cache.
///
/// All state lives in one zero-initialised word array, one contiguous
/// block of `stride` words per set:
///
/// * `assoc` tag words, each holding `tag + 1` (0 marks an invalid way);
/// * `assoc.div_ceil(2)` stamp words, two 32-bit LRU stamps per word;
/// * `assoc.div_ceil(64)` dirty words, one bit per way.
///
/// A fresh cache is therefore one zeroed allocation, and a probe scans
/// only the set's tag words. Stamps are compared only within a set, so
/// when the 32-bit clock would wrap every set's stamps are renumbered
/// `1..=assoc` in their current order and the clock restarts above them;
/// replacement decisions never change.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    /// log2(sets): tag extraction is a shift, never a division (sets is
    /// asserted to be a power of two).
    set_shift: u32,
    assoc: usize,
    /// Words per set.
    stride: usize,
    words: Vec<u64>,
    clock: u32,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    /// `bytes` total capacity, `assoc` ways, 64 B lines. `bytes` must be a
    /// power-of-two multiple of `assoc * 64`.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let lines = bytes >> CACHE_LINE_BITS;
        assert!(lines.is_multiple_of(assoc), "capacity/assoc mismatch");
        let sets = lines / assoc;
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        let stride = assoc + assoc.div_ceil(2) + assoc.div_ceil(64);
        Cache {
            sets,
            set_shift: sets.trailing_zeros(),
            assoc,
            stride,
            words: vec![0; sets * stride],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Locate `addr`: its set, its stored tag (`tag + 1`) and the way
    /// holding it, if any.
    fn find(&self, addr: u64) -> (usize, u64, Option<usize>) {
        let line = addr >> CACHE_LINE_BITS;
        let set = (line as usize) & (self.sets - 1);
        let key = (line >> self.set_shift) + 1;
        let base = set * self.stride;
        let way = self.words[base..base + self.assoc]
            .iter()
            .position(|&t| t == key);
        (set, key, way)
    }

    fn stamp_word(&self, set: usize, way: usize) -> usize {
        set * self.stride + self.assoc + way / 2
    }

    fn stamp(&self, set: usize, way: usize) -> u32 {
        (self.words[self.stamp_word(set, way)] >> (32 * (way & 1))) as u32
    }

    fn set_stamp(&mut self, set: usize, way: usize, stamp: u32) {
        let i = self.stamp_word(set, way);
        let shift = 32 * (way & 1);
        self.words[i] =
            (self.words[i] & !(u64::from(u32::MAX) << shift)) | (u64::from(stamp) << shift);
    }

    /// Word and bit of `way`'s dirty flag.
    fn dirty_bit(&self, set: usize, way: usize) -> (usize, u64) {
        let i = set * self.stride + self.assoc + self.assoc.div_ceil(2) + way / 64;
        (i, 1 << (way % 64))
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

    /// The next LRU stamp. Before the clock would wrap, each set's stamps
    /// are renumbered `1..=assoc` in their current order and the clock
    /// restarts at `assoc`, so every later stamp is still newer than every
    /// earlier one within its set. Every valid way holds a distinct stamp
    /// (each was stamped when installed), so their order is exact; only
    /// never-stamped invalid ways tie, and replacement takes invalid ways
    /// before comparing stamps.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            let mut order: Vec<(u32, usize)> = Vec::with_capacity(self.assoc);
            for set in 0..self.sets {
                order.clear();
                order.extend((0..self.assoc).map(|w| (self.stamp(set, w), w)));
                order.sort_by_key(|&(stamp, _)| stamp);
                for (rank, &(_, w)) in order.iter().enumerate() {
                    self.set_stamp(set, w, rank as u32 + 1);
                }
            }
            self.clock = self.assoc as u32;
        }
        self.clock += 1;
        self.clock
    }

    fn touch(&mut self, set: usize, way: usize) {
        let stamp = self.tick();
        self.set_stamp(set, way, stamp);
    }

    fn line_addr(&self, set: usize, key: u64) -> u64 {
        (((key - 1) << self.set_shift) + set as u64) << CACHE_LINE_BITS
    }

    /// Allocate `key` in `set`: the first invalid way, else the least
    /// recently stamped one. Returns the evicted line, if any.
    fn install(&mut self, set: usize, key: u64, dirty: bool) -> Option<Victim> {
        let base = set * self.stride;
        let way = self.words[base..base + self.assoc]
            .iter()
            .position(|&t| t == 0)
            .unwrap_or_else(|| {
                (0..self.assoc)
                    .min_by_key(|&w| self.stamp(set, w))
                    .expect("a set has at least one way")
            });
        let old = self.words[base + way];
        let victim = (old != 0).then(|| Victim {
            addr: self.line_addr(set, old),
            dirty: self.is_dirty(set, way),
        });
        self.words[base + way] = key;
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
    /// dirtiness and count the hit exactly as [`Cache::access`] would,
    /// returning the hit way's index; on a miss, touch nothing (no
    /// allocation, no miss count, no LRU tick) — exactly as the
    /// `contains` + `access` pair it replaces, where the miss path never
    /// called `access`. The caller classifies the miss itself.
    pub fn probe_hit(&mut self, addr: u64, is_write: bool) -> Option<usize> {
        let (set, _, way) = self.find(addr);
        let way = way?;
        self.touch(set, way);
        self.or_dirty(set, way, is_write);
        self.hits += 1;
        Some(set * self.assoc + way)
    }

    /// Bump the LRU clock on a way returned by [`Cache::probe_hit`] with no
    /// intervening operation on this cache: equivalent to a
    /// [`Cache::fill`]`(addr, false)` that finds the line present, minus
    /// the way scan.
    pub fn retouch(&mut self, way: usize) {
        self.touch(way / self.assoc, way % self.assoc);
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

    /// One pseudo-random operation stream over a few hot sets, recording
    /// every observable result.
    fn replay(c: &mut Cache, ops: usize) -> Vec<(Option<Victim>, bool)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..ops)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // 3 sets x 12 tags per set: a 4-way set evicts often.
                let addr = ((x % 12) * 64 + (x >> 8) % 3) * 64;
                match (x >> 20) % 4 {
                    0 => (c.fill(addr, x & 1 == 0), false),
                    1 => match c.access(addr, x & 2 == 0) {
                        AccessResult::Hit => (None, true),
                        AccessResult::Miss { victim } => (victim, false),
                    },
                    2 => match c.probe_hit(addr, false) {
                        Some(way) => {
                            c.retouch(way);
                            (None, true)
                        }
                        None => (None, false),
                    },
                    _ => (None, c.invalidate(addr).is_some()),
                }
            })
            .collect()
    }

    #[test]
    fn stamp_clock_wrap_keeps_victims() {
        let mut fresh = l1();
        let mut wrapping = l1();
        wrapping.clock = u32::MAX - 100;
        assert_eq!(replay(&mut fresh, 2000), replay(&mut wrapping, 2000));
        assert!(wrapping.clock < 3000, "the clock renumbered and restarted");
        assert_eq!((fresh.hits, fresh.misses), (wrapping.hits, wrapping.misses));
    }

    #[test]
    fn dirty_bits_cover_every_way_beyond_64() {
        // One 128-way set: way 100's dirty bit lives in the second word.
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
    fn hit_rate_reporting() {
        let mut c = l1();
        c.access(0, false);
        c.access(0, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
