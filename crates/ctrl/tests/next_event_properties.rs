//! Soundness of the controller's event horizon (`next_event`) against
//! the per-cycle reference, and regression coverage for the idle-skip
//! bugs fixed alongside it.
//!
//! The contract under test (DESIGN §5f): whenever `next_event(now)`
//! returns `Some(h)`, every `tick` at a cycle strictly between `now` and
//! `h` is a stats-only no-op — no DRAM command issues, no request
//! completes, no queue entry moves — provided no enqueue lands in the
//! window. The skip-capable drive loops lean on exactly this claim, so a
//! horizon that ever lands *past* a state change silently changes
//! simulated behavior (the golden suites would catch the fingerprint
//! drift, but this test localizes the blame to a single controller).

use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind};
use microbank_core::stats::DramStats;
use microbank_core::Cycle;
use microbank_ctrl::{Completion, MemoryController, PolicyKind, PredictorKind, SchedulerKind};
use microbank_faults::FaultConfig;
use proptest::prelude::*;

fn cfg(nw: usize, nb: usize, refresh: bool) -> MemConfig {
    MemConfig::lpddr_tsi()
        .with_ubanks(nw, nb)
        .with_channels(1)
        .with_refresh(refresh)
}

fn mkreq(c: &MemoryController, id: u64, addr: u64, kind: ReqKind, thread: u16) -> MemRequest {
    let mut r = MemRequest::new(id, addr, kind, thread, 0);
    r.loc = c.map().decode(addr);
    r
}

/// Everything a skipped tick must leave untouched. Deliberately excludes
/// the per-tick bookkeeping (`tick_calls`, occupancy accumulators) that
/// a sleeping tick still charges.
#[derive(Debug, Clone, PartialEq)]
struct Observable {
    dram: DramStats,
    queue_len: usize,
}

fn observe(c: &MemoryController) -> Observable {
    Observable {
        dram: c.channel.stats,
        queue_len: c.queue_len(),
    }
}

/// Per-cycle reference drive: tick every cycle, deliver arrivals before
/// the tick (the order both real drive loops use).
fn drive_reference(
    c: &mut MemoryController,
    arrivals: &[(Cycle, MemRequest)],
    limit: Cycle,
) -> Vec<Completion> {
    let mut done = Vec::new();
    let mut next_arrival = 0;
    for now in 0..limit {
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let r = arrivals[next_arrival].1;
            c.enqueue(r, now);
            next_arrival += 1;
        }
        c.tick(now);
        c.take_completions(&mut done);
    }
    done
}

/// Skip drive: the protocol `drive_sequential` uses — tick every cycle,
/// and after a tick that ran, sleep until the `next_event` horizon (a
/// declined horizon leaves the controller awake). An accepted enqueue
/// wakes the controller by itself.
fn drive_skip(
    c: &mut MemoryController,
    arrivals: &[(Cycle, MemRequest)],
    limit: Cycle,
) -> Vec<Completion> {
    let mut done = Vec::new();
    let mut next_arrival = 0;
    for now in 0..limit {
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            c.enqueue(arrivals[next_arrival].1, now);
            next_arrival += 1;
        }
        if !c.tick(now) {
            continue;
        }
        c.take_completions(&mut done);
        if let Some(wake) = c.next_event(now) {
            c.sleep_until(wake);
        }
    }
    done
}

fn assert_drives_agree(
    mk: impl Fn() -> MemoryController,
    arrivals: &[(Cycle, MemRequest)],
    tag: &str,
) {
    const LIMIT: Cycle = 60_000;
    let mut a = mk();
    let mut b = mk();
    let ra = drive_reference(&mut a, arrivals, LIMIT);
    let rb = drive_skip(&mut b, arrivals, LIMIT);
    let key = |v: &[Completion]| -> Vec<(u64, Cycle)> { v.iter().map(|d| (d.id, d.at)).collect() };
    assert_eq!(key(&ra), key(&rb), "{tag}: completion streams diverged");
    assert_eq!(
        a.channel.stats, b.channel.stats,
        "{tag}: DRAM stats diverged"
    );
    assert_eq!(observe(&a), observe(&b), "{tag}: controller state diverged");
    assert_eq!(
        a.stats.tick_calls, b.stats.tick_calls,
        "{tag}: sleeping ticks not charged to tick_calls"
    );
    assert_eq!(
        a.stats.occupancy_acc, b.stats.occupancy_acc,
        "{tag}: sleeping ticks not charged to occupancy"
    );
    assert!(
        !ra.is_empty(),
        "{tag}: workload completed nothing — test is vacuous"
    );
}

/// Satellite regression: the old drive loops collapsed a declined horizon
/// to the sentinel wake value `0`, conflating "tick immediately" with a
/// legitimate cycle-0 wake. The controller-owned wake (set from
/// `next_event`, left awake when it declines, reset to `now` on enqueue)
/// must run a controller whose wake is 0 or 1 at exactly those cycles: a
/// request enqueued at cycle 0
/// activates on cycle 0, same as the per-cycle reference.
#[test]
fn controller_waking_at_cycle_zero_and_one_is_ticked() {
    let cf = cfg(2, 2, false);
    let mk = || MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
    let c = mk();
    let arrivals = vec![
        (0, mkreq(&c, 1, 0x40, ReqKind::Read, 0)),
        (1, mkreq(&c, 2, 0x10_000, ReqKind::Read, 1)),
    ];
    // Direct probe: the very first slot must execute, not wait on a
    // fabricated wake.
    let mut probe = mk();
    probe.account_skipped_ticks(0);
    assert!(probe.enqueue(arrivals[0].1, 0));
    assert!(
        probe.tick(0),
        "an enqueue at cycle 0 wakes the cycle-0 tick"
    );
    assert_eq!(
        probe.channel.stats.activates, 1,
        "cycle-0 request must activate on the cycle-0 tick"
    );
    assert_drives_agree(mk, &arrivals, "wake-at-0/1");
}

/// Satellite regression: a *clean* armed fault engine (ECC on, no
/// scrubber, no injected defects) must not pin the controller awake —
/// `next_event` used to bail on `faults.is_some()` alone. With refresh
/// armed and an empty queue the horizon is the refresh deadline, and the
/// skip drive reproduces the per-cycle run bit-for-bit.
#[test]
fn clean_armed_fault_engine_still_skips() {
    let cf = cfg(2, 2, true);
    let mk = || {
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
        c.enable_faults(&FaultConfig::new(7), 0);
        c
    };
    let mut idle = mk();
    let h = idle.next_event(0);
    assert!(
        matches!(h, Some(t) if t > 1),
        "clean-armed engine on an idle channel must report a real horizon, got {h:?}"
    );

    // A *scrub-scheduled* engine is different: once the patrol scrub is
    // due the controller must demand per-cycle ticking.
    let mut scrubbed = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
    scrubbed.enable_faults(&FaultConfig::new(7).with_scrub(64), 0);
    if let Some(t) = scrubbed.next_event(0) {
        assert!(t <= 64, "scrub schedule ignored by the horizon: {t}");
        assert_eq!(
            scrubbed.next_event(t),
            None,
            "a due scrub must force per-cycle ticking"
        );
    }

    let c = mk();
    let arrivals: Vec<(Cycle, MemRequest)> = (0..24)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
            (i * 97, mkreq(&c, i, (i % 7) * 0x8040, kind, (i % 4) as u16))
        })
        .collect();
    assert_drives_agree(mk, &arrivals, "clean-armed-faults");
}

/// Skip-vs-reference equivalence across the scheduler × policy grid,
/// refresh on: every page policy's idle-slot precharge (due at once for a
/// predictor's Close, after the window for minimalist-open) must fire on
/// the same cycle whether or not the drive skips.
#[test]
fn skip_drive_matches_reference_across_policy_grid() {
    let grid: &[(SchedulerKind, PolicyKind, &str)] = &[
        (SchedulerKind::FrFcfs, PolicyKind::Open, "frfcfs/open"),
        (SchedulerKind::FrFcfs, PolicyKind::Close, "frfcfs/close"),
        (
            SchedulerKind::FrFcfs,
            PolicyKind::MinimalistOpen { window_cycles: 200 },
            "frfcfs/minimalist",
        ),
        (
            SchedulerKind::ParBs { marking_cap: 5 },
            PolicyKind::Predictive(PredictorKind::Local),
            "parbs/predictive-local",
        ),
    ];
    for &(sched, policy, tag) in grid {
        let cf = cfg(4, 4, true);
        let mk = || MemoryController::new(&cf, sched, policy, 4);
        let c = mk();
        // Bursty mixed traffic: clustered row hits, conflicting rows on
        // the same μbank, and reads interleaved with writes.
        let mut arrivals = Vec::new();
        let mut id = 0;
        for burst in 0..12u64 {
            let base = burst * 1_800;
            for j in 0..6u64 {
                let addr = (burst % 3) * 0x40_000 + (j % 2) * 0x9000 + j * 0x40;
                let kind = if (burst + j) % 2 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                arrivals.push((base + j * 3, mkreq(&c, id, addr, kind, (j % 4) as u16)));
                id += 1;
            }
        }
        assert_drives_agree(mk, &arrivals, tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The horizon never lands past a real state change: tick per-cycle,
    /// and inside every claimed-quiet window `(t, h)` assert each tick
    /// leaves the observable state untouched and completes nothing.
    /// Randomizes geometry, policy, scheduler, refresh, and traffic.
    #[test]
    fn horizon_never_overshoots_state_change(
        nw_log2 in 0u32..=2,
        nb_log2 in 0u32..=2,
        refresh in any::<bool>(),
        policy_ix in 0usize..4,
        parbs in any::<bool>(),
        reqs in prop::collection::vec(
            (0u64..40, 0u64..64, any::<bool>(), 0u16..4),
            1..24,
        ),
    ) {
        let cf = cfg(1 << nw_log2, 1 << nb_log2, refresh);
        let policy = match policy_ix {
            0 => PolicyKind::Open,
            1 => PolicyKind::Close,
            2 => PolicyKind::MinimalistOpen { window_cycles: 150 },
            _ => PolicyKind::Predictive(PredictorKind::Local),
        };
        let sched = if parbs {
            SchedulerKind::ParBs { marking_cap: 5 }
        } else {
            SchedulerKind::FrFcfs
        };
        let mut c = MemoryController::new(&cf, sched, policy, 4);

        // Cumulative gaps → arrival schedule; addresses spread over rows
        // and μbanks so conflicts and hits both occur.
        let mut at = 0;
        let mut arrivals: Vec<(Cycle, MemRequest)> = Vec::new();
        for (i, &(gap, aidx, wr, thread)) in reqs.iter().enumerate() {
            at += gap;
            let addr = aidx * 0x1240; // strides across rows, banks, columns
            let kind = if wr { ReqKind::Write } else { ReqKind::Read };
            arrivals.push((at, mkreq(&c, i as u64, addr, kind, thread)));
        }

        const LIMIT: Cycle = 30_000;
        let mut done = Vec::new();
        let mut next_arrival = 0;
        // Active claim: ticks strictly before `until` must not change
        // `snap`. Invalidated by any enqueue, re-established after every
        // tick.
        let mut claim: Option<(Cycle, Observable)> = None;
        for now in 0..LIMIT {
            while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
                c.enqueue(arrivals[next_arrival].1, now);
                next_arrival += 1;
                claim = None;
            }
            let before = done.len();
            c.tick(now);
            c.take_completions(&mut done);
            if let Some((until, ref snap)) = claim {
                if now < until {
                    prop_assert_eq!(
                        done.len(), before,
                        "completion inside claimed-quiet window ending at {}", until
                    );
                    let seen = observe(&c);
                    prop_assert_eq!(
                        snap, &seen,
                        "tick at {} mutated state despite horizon {}", now, until
                    );
                }
            }
            claim = c.next_event(now).map(|h| (h, observe(&c)));
        }
        // Sanity: the schedule fits well inside LIMIT, so everything
        // retires and the claims above covered real work.
        prop_assert_eq!(done.len(), arrivals.len(), "requests left unfinished");
    }
}
