//! The banked MESI directory against a plain reference model: one
//! `BTreeMap` from line address to `(state, sharers)`. Random transaction
//! sequences over up to 64 clusters must give the same return value from
//! every `read_miss`, `write_miss` and `evict`, the same `state_of` for
//! every line, and the same `tracked_lines`, `forwards` and
//! `invalidation_msgs` after every step.

use microbank_cpu::coherence::{CoherenceAction, Directory, LineState};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The MESI rules of `Directory`, restated over one ordered map with no
/// banks and full 64-bit keys.
#[derive(Default)]
struct RefDirectory {
    lines: BTreeMap<u64, (LineState, u64)>,
    forwards: u64,
    invalidation_msgs: u64,
}

impl RefDirectory {
    fn state_of(&self, line: u64) -> (LineState, u64) {
        self.lines
            .get(&line)
            .copied()
            .unwrap_or((LineState::Uncached, 0))
    }

    fn forward(&mut self, owner: u64, demote_writeback: bool) -> CoherenceAction {
        self.forwards += 1;
        CoherenceAction::ForwardFromOwner {
            owner: owner.trailing_zeros() as usize,
            demote_writeback,
        }
    }

    fn read_miss(&mut self, line: u64, cluster: usize) -> CoherenceAction {
        let bit = 1u64 << cluster;
        let (state, sharers) = self.state_of(line);
        self.lines.insert(line, (LineState::Shared, sharers | bit));
        // The lowest sharer supplies the data unless it is the requester.
        let first = sharers & sharers.wrapping_neg();
        if state == LineState::Uncached || first == bit {
            CoherenceAction::FetchFromMemory
        } else {
            self.forward(first, state == LineState::Modified)
        }
    }

    fn write_miss(&mut self, line: u64, cluster: usize) -> (CoherenceAction, u64) {
        let bit = 1u64 << cluster;
        let (state, sharers) = self.state_of(line);
        let others = sharers & !bit;
        let local = CoherenceAction::ForwardFromOwner {
            owner: cluster,
            demote_writeback: false,
        };
        let action = match state {
            LineState::Uncached => CoherenceAction::FetchFromMemory,
            LineState::Shared if sharers & bit != 0 => local,
            LineState::Modified if others == 0 => local,
            _ if others != 0 => self.forward(others & others.wrapping_neg(), false),
            _ => CoherenceAction::FetchFromMemory,
        };
        self.invalidation_msgs += u64::from(others.count_ones());
        self.lines.insert(line, (LineState::Modified, bit));
        (action, others)
    }

    fn evict(&mut self, line: u64, cluster: usize, dirty: bool) -> bool {
        // Losing any copy leaves the line shared by whoever is left.
        if let Some(&(_, sharers)) = self.lines.get(&line) {
            let left = sharers & !(1u64 << cluster);
            if left == 0 {
                self.lines.remove(&line);
            } else {
                self.lines.insert(line, (LineState::Shared, left));
            }
        }
        dirty
    }
}

/// The lines a sequence draws from, as line addresses:
/// * 64 lines that all live in one bank;
/// * the eight lines just below the directory's 256-GiB reach;
/// * line indices that agree in their low 16, 24 or 31 bits, so a key
///   truncated to fewer than 32 bits aliases them;
/// * a few small consecutive lines.
fn line_pool() -> Vec<u64> {
    let one_bank = Directory::bank_of(0);
    let mut pool: Vec<u64> = (0..)
        .map(|i: u64| i * 64)
        .filter(|&l| Directory::bank_of(l) == one_bank)
        .take(64)
        .collect();
    pool.extend((1..=8).map(|k| Directory::REACH - 64 * k));
    for low in [0u64, 5, (1 << 16) - 1, (1 << 24) - 1] {
        pool.extend([0, 1 << 16, 1 << 24, 1 << 31].map(|high| (high | low) * 64));
    }
    pool.extend((0..16).map(|i| 0x10_0000 + i * 64));
    pool.sort_unstable();
    pool.dedup();
    pool
}

fn check_against_reference(clusters: usize, ops: &[(usize, usize, u8, bool)]) {
    let pool = line_pool();
    let mut dir = Directory::new();
    let mut reference = RefDirectory::default();
    for (step, &(pick, cluster, op, dirty)) in ops.iter().enumerate() {
        let line = pool[pick % pool.len()];
        let cluster = cluster % clusters;
        let at = format!("{clusters} clusters, step {step}: op {op} on {line:#x} by {cluster}");
        match op {
            0 | 1 => assert_eq!(
                dir.read_miss(line, cluster),
                reference.read_miss(line, cluster),
                "{at}"
            ),
            2 | 3 => assert_eq!(
                dir.write_miss(line, cluster),
                reference.write_miss(line, cluster),
                "{at}"
            ),
            _ => assert_eq!(
                dir.evict(line, cluster, dirty),
                reference.evict(line, cluster, dirty),
                "{at}"
            ),
        }
        assert_eq!(dir.state_of(line), reference.state_of(line), "{at}");
        assert_eq!(dir.tracked_lines(), reference.lines.len(), "{at}");
        assert_eq!(
            (dir.forwards, dir.invalidation_msgs),
            (reference.forwards, reference.invalidation_msgs),
            "{at}"
        );
    }
    for &line in &pool {
        assert_eq!(dir.state_of(line), reference.state_of(line), "{line:#x}");
    }
    dir.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn directory_matches_reference_model(
        clusters in 1usize..65,
        ops in prop::collection::vec((0usize..1 << 16, 0usize..64, 0u8..6, any::<bool>()), 1..1500),
    ) {
        check_against_reference(clusters, &ops);
    }

    #[test]
    fn few_clusters_directory_matches_reference_model(
        ops in prop::collection::vec((0usize..1 << 16, 0usize..4, 0u8..6, any::<bool>()), 1..1500),
    ) {
        check_against_reference(4, &ops);
    }
}
