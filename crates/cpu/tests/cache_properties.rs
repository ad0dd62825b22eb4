//! Property tests for the cache and coherence layers: the LRU cache is
//! checked against a naive reference model, and the MESI directory is
//! soaked with random transactions under permanent invariant checking.

use microbank_cpu::cache::{AccessResult, Cache, Victim};
use microbank_cpu::coherence::{Directory, LineState};
use proptest::prelude::*;
use std::collections::HashMap;

/// Naive reference model: one explicit MRU-first list of `(tag, dirty)`
/// per set. A set with fewer than `assoc` entries has a free way, so an
/// insertion evicts only when the list overflows.
struct RefCache {
    sets: usize,
    assoc: usize,
    data: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(bytes: usize, assoc: usize) -> Self {
        let sets = bytes / 64 / assoc;
        RefCache {
            sets,
            assoc,
            data: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64, Option<usize>) {
        let line = addr >> 6;
        let set = (line as usize) % self.sets;
        let tag = line / self.sets as u64;
        let pos = self.data[set].iter().position(|&(t, _)| t == tag);
        (set, tag, pos)
    }

    /// Make a present line most recent, OR-ing in `dirty`; whether it was
    /// present.
    fn touch(&mut self, addr: u64, dirty: bool) -> bool {
        let (set, _, pos) = self.locate(addr);
        let Some(pos) = pos else { return false };
        let (t, d) = self.data[set].remove(pos);
        self.data[set].insert(0, (t, d || dirty));
        true
    }

    /// Insert an absent line as most recent, evicting the least recent
    /// line of a full set.
    fn insert(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
        let (set, tag, _) = self.locate(addr);
        let list = &mut self.data[set];
        list.insert(0, (tag, dirty));
        (list.len() > self.assoc).then(|| {
            let (t, d) = list.pop().unwrap();
            Victim {
                addr: (t * self.sets as u64 + set as u64) << 6,
                dirty: d,
            }
        })
    }

    fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        if self.touch(addr, is_write) {
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        AccessResult::Miss {
            victim: self.insert(addr, is_write),
        }
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
        if self.touch(addr, dirty) {
            None
        } else {
            self.insert(addr, dirty)
        }
    }

    fn probe_hit(&mut self, addr: u64, is_write: bool) -> bool {
        let hit = self.touch(addr, is_write);
        self.hits += u64::from(hit);
        hit
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, _, pos) = self.locate(addr);
        pos.map(|pos| self.data[set].remove(pos).1)
    }

    fn clean(&mut self, addr: u64) {
        if let (set, _, Some(pos)) = self.locate(addr) {
            self.data[set][pos].1 = false;
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.locate(addr).2.is_some()
    }
}

/// Drive `Cache` and the reference model through the same operations and
/// require identical results, victims (address and dirtiness) and
/// hit/miss counters after every step.
fn check_against_reference(assoc: usize, ops: &[(u8, u64, bool)]) {
    let mut cache = Cache::new(4096, assoc); // small cache stresses eviction
    let mut reference = RefCache::new(4096, assoc);
    for (step, &(op, addr, flag)) in ops.iter().enumerate() {
        let addr = addr & !63;
        let at = format!("{assoc}-way, step {step}: op {op} at {addr:#x}");
        match op {
            0 | 1 => assert_eq!(
                cache.access(addr, flag),
                reference.access(addr, flag),
                "{at}"
            ),
            2 => assert_eq!(cache.fill(addr, flag), reference.fill(addr, flag), "{at}"),
            3 | 4 => assert_eq!(
                cache.probe_hit(addr, flag),
                reference.probe_hit(addr, flag),
                "{at}"
            ),
            5 => assert_eq!(cache.invalidate(addr), reference.invalidate(addr), "{at}"),
            6 => {
                cache.clean(addr);
                reference.clean(addr);
            }
            _ => assert_eq!(cache.contains(addr), reference.contains(addr), "{at}"),
        }
        assert_eq!(
            (cache.hits, cache.misses),
            (reference.hits, reference.misses),
            "{at}"
        );
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    prop::collection::vec((0u8..8, 0u64..(1 << 16), any::<bool>()), 1..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn direct_mapped_cache_matches_reference_lru_model(ops in ops()) {
        check_against_reference(1, &ops);
    }

    #[test]
    fn two_way_cache_matches_reference_lru_model(ops in ops()) {
        check_against_reference(2, &ops);
    }

    #[test]
    fn cache_matches_reference_lru_model(ops in ops()) {
        check_against_reference(4, &ops);
    }

    #[test]
    fn sixteen_way_cache_matches_reference_lru_model(ops in ops()) {
        check_against_reference(16, &ops);
    }

    #[test]
    fn single_set_sixty_four_way_cache_matches_reference_lru_model(ops in ops()) {
        check_against_reference(64, &ops);
    }

    #[test]
    fn cache_capacity_is_never_exceeded(
        accesses in prop::collection::vec(0u64..(1 << 20), 1..500)
    ) {
        let mut cache = Cache::new(8192, 4);
        let mut inserted = std::collections::HashSet::new();
        for addr in accesses {
            let addr = addr & !63;
            cache.access(addr, false);
            inserted.insert(addr);
        }
        // Count lines still resident: bounded by capacity.
        let resident = inserted.iter().filter(|&&a| cache.contains(a)).count();
        prop_assert!(resident <= 8192 / 64, "{resident} lines resident");
    }

    #[test]
    fn directory_invariants_hold_under_random_transactions(
        ops in prop::collection::vec((0u64..64, 0usize..8, 0u8..4, any::<bool>()), 1..800)
    ) {
        let mut dir = Directory::new();
        // Track which clusters believe they hold each line, mirroring what
        // an L2 would do with the directory's answers.
        let mut holders: HashMap<u64, std::collections::HashSet<usize>> = HashMap::new();
        for (line_idx, cluster, op, dirty) in ops {
            let line = line_idx * 64;
            match op {
                0 | 1 => {
                    dir.read_miss(line, cluster);
                    holders.entry(line).or_default().insert(cluster);
                }
                2 => {
                    let (_, inv) = dir.write_miss(line, cluster);
                    let h = holders.entry(line).or_default();
                    let mut bits = inv;
                    while bits != 0 {
                        let c = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        h.remove(&c);
                    }
                    h.insert(cluster);
                }
                _ => {
                    let h = holders.entry(line).or_default();
                    if h.remove(&cluster) {
                        dir.evict(line, cluster, dirty);
                    }
                }
            }
            dir.check_invariants().unwrap();
        }
        // Directory sharers ⊆ believed holders for every tracked line.
        for (&line, h) in &holders {
            let (state, sharers) = dir.state_of(line);
            if state != LineState::Uncached {
                let mut bits = sharers;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    prop_assert!(h.contains(&c), "dir thinks {c} holds {line:#x}");
                }
            }
        }
    }
}

#[test]
fn modified_line_has_single_owner_through_ping_pong() {
    let mut dir = Directory::new();
    // Two clusters write the same line alternately 100 times.
    for i in 0..100 {
        let writer = i % 2;
        dir.write_miss(0x1000, writer);
        let (state, sharers) = dir.state_of(0x1000);
        assert_eq!(state, LineState::Modified);
        assert_eq!(sharers.count_ones(), 1);
        assert_eq!(sharers.trailing_zeros() as usize, writer);
    }
    assert!(dir.invalidation_msgs >= 99);
}
