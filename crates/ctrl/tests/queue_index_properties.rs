//! Index-consistency tests for the incrementally-maintained scheduling
//! state.
//!
//! The request queue keeps one entry mask per physical bank, from which
//! per-μbank and per-rank occupancy and each μbank's open-row demand are
//! derived; the channel keeps each rank's deadline floors and the set of
//! banks it touched, and the queue every entry's cached next command,
//! re-derived when its bank is touched. The hot path trusts all of them
//! instead of rescanning the queue, so any drift silently changes
//! scheduling decisions. The queue property test checks its counts and
//! masks against a naive rescan under arbitrary pushes and removals; the
//! controller soak checks the rest after every
//! enqueue, tick and `next_event` (which re-derives the commands the tick
//! made stale),
//! across device variants, with refresh (PREA), the perfect predictor
//! (oracle precharge), the close-page, minimalist-open and local-predictor
//! policies (policy precharges, due at once or after a window) and patrol
//! scrub.

use microbank_core::address::AddressMap;
use microbank_core::bits;
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind};
use microbank_core::variant::{DeviceVariant, SalpMode};
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::predictor::PredictorKind;
use microbank_ctrl::queue::RequestQueue;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_faults::FaultConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg() -> MemConfig {
    MemConfig::lpddr_tsi().with_ubanks(4, 4).with_queue_size(16)
}

/// Naive recomputation of every queue index from the queue's entries.
fn rescan(q: &RequestQueue, cfg: &MemConfig) -> Naive {
    let mut n = Naive {
        per_bank: vec![0; cfg.ubanks_per_channel()],
        per_rank: vec![0; cfg.ranks_per_channel],
    };
    for r in q.iter() {
        n.per_bank[r.flat as usize] += 1;
        n.per_rank[r.loc.rank as usize] += 1;
    }
    n
}

struct Naive {
    per_bank: Vec<u32>,
    per_rank: Vec<u32>,
}

fn check_agreement(q: &RequestQueue, cfg: &MemConfig) {
    let naive = rescan(q, cfg);
    for (flat, &want) in naive.per_bank.iter().enumerate() {
        assert_eq!(q.pending_for_bank(flat), want, "per-bank[{flat}]");
    }
    for (rank, &want) in naive.per_rank.iter().enumerate() {
        assert_eq!(q.pending_for_rank(rank), want, "per-rank[{rank}]");
    }
    let per_bank = cfg.ubank.ubanks_per_bank();
    for bank in 0..cfg.banks_per_rank * cfg.ranks_per_channel {
        let want: Vec<usize> = q
            .indices()
            .filter(|&i| q.get(i).flat as usize / per_bank == bank)
            .collect();
        let have: Vec<usize> = bits::ones(q.bank_entries(bank)).collect();
        assert_eq!(have, want, "bank {bank} entry mask");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn incremental_indexes_match_naive_rescan(
        // Each op: address (line-aligned by masking), write flag, and a
        // removal selector consumed when the op is a removal.
        ops in prop::collection::vec((0u64..(1 << 26), any::<bool>(), any::<u8>()), 1..200),
    ) {
        let c = cfg();
        let map = AddressMap::new(&c);
        let mut q = RequestQueue::new(&c);
        let mut next_id = 0u64;
        for (raw, is_write, sel) in ops {
            // Mixed workload: mostly pushes, removals once the queue has
            // entries (sel odd → removal).
            if sel % 2 == 1 && !q.is_empty() {
                let idx = (sel as usize / 2) % q.len();
                q.remove(idx);
            } else if !q.is_full() {
                let addr = raw & !63;
                let kind = if is_write { ReqKind::Write } else { ReqKind::Read };
                let mut r = MemRequest::new(next_id, addr, kind, 0, next_id);
                next_id += 1;
                r.loc = map.decode(addr);
                let flat = r.loc.ubank_flat(&c);
                prop_assert!(q.push(r, flat));
            }
            check_agreement(&q, &c);
        }
        // Drain fully: counts must return to zero everywhere.
        while !q.is_empty() {
            q.remove(0);
            check_agreement(&q, &c);
        }
    }
}

/// Drive `c` with random traffic for `cycles`, checking the controller's
/// indexes after every enqueue, tick and `next_event`. Half of the addresses come
/// from a few hot rows so that row hits, and hence non-zero open-row hit
/// counts, are common. Returns the completions.
fn soak_checked(c: &mut MemoryController, cycles: u64, seed: u64) -> Vec<Completion> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut done = Vec::new();
    let mut id = 0u64;
    let check = |c: &MemoryController, what: &str, now: u64| {
        if let Err(e) = c.check_indexes() {
            panic!("after {what} at cycle {now}: {e}");
        }
    };
    for now in 0..cycles {
        while c.free_slots() > 0 && rng.gen_bool(0.5) {
            let addr = if rng.gen_bool(0.5) {
                (rng.gen_range(0..4u64) << 16) | (rng.gen_range(0..32u64) << 6)
            } else {
                rng.gen_range(0..(1u64 << 26)) & !63
            };
            let kind = if rng.gen_bool(0.25) {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
            let mut r = MemRequest::new(id, addr, kind, (id % 8) as u16, now);
            r.loc = c.map().decode(addr);
            assert!(c.enqueue(r, now));
            id += 1;
            check(c, "enqueue", now);
        }
        c.tick(now);
        c.take_completions(&mut done);
        check(c, "tick", now);
        c.next_event(now);
        check(c, "next_event", now);
    }
    done
}

#[test]
fn controller_indexes_match_recount_across_variants_and_policies() {
    let variants = [
        DeviceVariant::Conventional,
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp1,
        },
        // Shared global bitlines without an open-row cap: a μbank's local
        // column deadline depends on a sibling's burst.
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Masa,
        },
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 8,
        },
        DeviceVariant::Microbank,
    ];
    let policies = [
        PolicyKind::Predictive(PredictorKind::Perfect),
        PolicyKind::Close,
        PolicyKind::Open,
        PolicyKind::MinimalistOpen { window_cycles: 98 },
        PolicyKind::Predictive(PredictorKind::Local),
    ];
    for v in variants {
        let mem = MemConfig::lpddr_tsi()
            .with_ubanks(16, 16)
            .with_variant(v)
            .with_channels(1)
            .with_refresh(true);
        for (p, policy) in policies.into_iter().enumerate() {
            let mut c = MemoryController::new(&mem, SchedulerKind::default(), policy, 8);
            // Patrol scrub (and its PRE path) on one policy per variant.
            if policy == PolicyKind::Open {
                c.enable_faults(&FaultConfig::new(7).with_scrub(64), 0);
            }
            let done = soak_checked(&mut c, 40_000, 1 + p as u64);
            let label = format!("{} / {policy:?}", v.label());
            assert!(done.len() > 500, "{label}: only {} done", done.len());
            let dram = c.channel.stats;
            assert!(dram.refreshes > 0, "{label}: no refresh (PREA) ran");
            assert!(dram.row_hits > 0, "{label}: no row hits");
        }
    }
}

/// Queues wider than one 64-bit mask word: a drive that refills the
/// queue to capacity before every slot keeps entries in both words, and
/// the swap-remove moves entries across the word boundary. The indexes
/// are checked after every enqueue, tick and `next_event`.
#[test]
fn controller_indexes_hold_across_mask_words() {
    for queue_size in [65, 100] {
        let mem = MemConfig::lpddr_tsi()
            .with_ubanks(16, 16)
            .with_channels(1)
            .with_queue_size(queue_size)
            .with_refresh(true);
        let mut c = MemoryController::new(&mem, SchedulerKind::default(), PolicyKind::Open, 8);
        let mut rng = StdRng::seed_from_u64(queue_size as u64);
        let mut done = Vec::new();
        let mut id = 0u64;
        let check = |c: &MemoryController, what: &str, now: u64| {
            if let Err(e) = c.check_indexes() {
                panic!("queue {queue_size}, after {what} at cycle {now}: {e}");
            }
        };
        let mut peak = 0;
        for now in 0..20_000 {
            while c.free_slots() > 0 {
                let addr = if rng.gen_bool(0.5) {
                    (rng.gen_range(0..4u64) << 16) | (rng.gen_range(0..32u64) << 6)
                } else {
                    rng.gen_range(0..(1u64 << 26)) & !63
                };
                let mut r = MemRequest::new(id, addr, ReqKind::Read, (id % 8) as u16, now);
                r.loc = c.map().decode(addr);
                assert!(c.enqueue(r, now));
                id += 1;
                check(&c, "enqueue", now);
            }
            peak = peak.max(c.queue_len());
            c.tick(now);
            c.take_completions(&mut done);
            check(&c, "tick", now);
            c.next_event(now);
            check(&c, "next_event", now);
        }
        assert_eq!(peak, queue_size);
        assert!(
            done.len() > 1_000,
            "queue {queue_size}: only {} done",
            done.len()
        );
    }
}
