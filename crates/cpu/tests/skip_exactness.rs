//! The lazy stall charge is exact.
//!
//! A quiesced core is not visited per cycle: its ROB-full or MSHR-stall
//! counter is charged in one go when it next ticks (or when the run
//! settles). This suite drives one 16-core CMP twice — ticking every
//! cycle, and jumping to `core_horizon` with fill deliveries as barriers —
//! and requires every core's statistics to agree field by field, stall
//! counters included. The per-cycle totals are also pinned to the values
//! the CMP produced when every quiesced core was charged one stall cycle
//! per tick, so the lazy charge reproduces those counts rather than only
//! agreeing with itself.

use microbank_core::Cycle;
use microbank_cpu::config::CmpConfig;
use microbank_cpu::instr::FixedSource;
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_cpu::CoreStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const CORES: usize = 16;
const CYCLES: Cycle = 30_000;

/// A memory that answers every read after a delay fixed per request id
/// (100–399 cycles, so fills complete out of order) and accepts
/// everything.
#[derive(Default)]
struct FixedDelayMemory {
    /// Pending fills as (due cycle, request id), earliest first.
    pending: BinaryHeap<Reverse<(Cycle, u64)>>,
}

impl FixedDelayMemory {
    fn next_due(&self) -> Option<Cycle> {
        self.pending.peek().map(|r| r.0 .0)
    }

    fn pop_due(&mut self, now: Cycle) -> Option<u64> {
        match self.pending.peek() {
            Some(&Reverse((at, id))) if at <= now => {
                self.pending.pop();
                Some(id)
            }
            _ => None,
        }
    }
}

impl MemPort for FixedDelayMemory {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        if !req.is_write {
            let delay = 100 + (req.id * 37) % 300;
            self.pending.push(Reverse((now + delay, req.id)));
        }
        true
    }
}

/// Four behaviours, one per core of every 4-core cluster, so that fills
/// to a cluster also wake its MSHR-wedged neighbours:
/// - pure compute (stalls only ROB-full, behind its own ALU latency);
/// - a miss every 8th instruction (the ROB fills behind a pending head);
/// - a miss every instruction (the MSHR file fills: dispatch wedges);
/// - a few cache-resident lines with a miss stream every 3rd instruction.
fn sources() -> Vec<FixedSource> {
    (0..CORES)
        .map(|i| {
            let base = (i as u64) << 30;
            let stream = |n: u64| (0..n).map(|k| base + k * (1 << 16)).collect::<Vec<_>>();
            match i % 4 {
                0 => FixedSource::new(vec![], 1),
                1 => FixedSource::new(stream(4096), 8),
                2 => FixedSource::new(stream(4096), 1),
                _ => {
                    let mut addrs: Vec<u64> = (0..8).map(|k| base + k * 64).collect();
                    addrs.extend(stream(64));
                    FixedSource::new(addrs, 3)
                }
            }
        })
        .collect()
}

/// A long ALU latency makes even the compute cores fill their ROBs and
/// sleep until a timed wake (their head's ready cycle), so that every core
/// is quiesced at once often enough for the horizon to jump.
fn system() -> CmpSystem<FixedSource> {
    let cfg = CmpConfig {
        alu_latency: 40,
        ..CmpConfig::small(CORES)
    };
    CmpSystem::new(cfg, sources())
}

/// Tick every cycle.
fn drive_per_cycle() -> (CmpSystem<FixedSource>, u64) {
    let mut sys = system();
    let mut mem = FixedDelayMemory::default();
    for now in 0..CYCLES {
        while let Some(id) = mem.pop_due(now) {
            sys.on_fill(id, now, &mut mem);
        }
        sys.tick(now, &mut mem);
    }
    sys.settle_stalls(CYCLES);
    (sys, CYCLES)
}

/// Jump to the CPU horizon, bounded by the next fill delivery. Returns the
/// system and the number of cycles actually ticked.
fn drive_skipping() -> (CmpSystem<FixedSource>, u64) {
    let mut sys = system();
    let mut mem = FixedDelayMemory::default();
    let mut ticked = 0;
    let mut now = 0;
    while now < CYCLES {
        while let Some(id) = mem.pop_due(now) {
            sys.on_fill(id, now, &mut mem);
        }
        sys.tick(now, &mut mem);
        ticked += 1;
        let next = now + 1;
        let mut h = sys.core_horizon(now);
        if let Some(due) = mem.next_due() {
            h = h.min(due.max(next));
        }
        now = h.min(CYCLES).max(next);
    }
    sys.settle_stalls(CYCLES);
    (sys, ticked)
}

fn fields(s: &CoreStats) -> [u64; 6] {
    [
        s.committed,
        s.mem_instrs,
        s.loads,
        s.stores,
        s.rob_full_cycles,
        s.mshr_stall_cycles,
    ]
}

fn totals(sys: &CmpSystem<FixedSource>) -> [u64; 6] {
    let mut t = [0; 6];
    for i in 0..sys.num_cores() {
        for (acc, v) in t.iter_mut().zip(fields(&sys.core(i).stats)) {
            *acc += v;
        }
    }
    t
}

#[test]
fn skipping_drive_matches_per_cycle_core_stats() {
    let (reference, _) = drive_per_cycle();
    let (skipped, ticked) = drive_skipping();
    for i in 0..CORES {
        assert_eq!(
            fields(&skipped.core(i).stats),
            fields(&reference.core(i).stats),
            "core {i}: [committed, mem_instrs, loads, stores, rob_full, mshr_stall]"
        );
    }
    assert_eq!(skipped.stats().dram_reads, reference.stats().dram_reads);
    // The skipping drive must actually skip, or it proves nothing.
    assert!(
        ticked < CYCLES * 4 / 5,
        "only {} of {CYCLES} cycles jumped",
        CYCLES - ticked
    );
}

#[test]
fn every_stall_kind_is_exercised() {
    let (sys, _) = drive_per_cycle();
    let by_kind = |k: usize| {
        (0..CORES)
            .filter(|i| i % 4 == k)
            .map(|i| sys.core(i).stats)
            .fold((0, 0), |(r, m), s| {
                (r + s.rob_full_cycles, m + s.mshr_stall_cycles)
            })
    };
    let compute = by_kind(0);
    assert!(
        compute.0 > 0 && compute.1 == 0,
        "compute cores: {compute:?}"
    );
    assert!(by_kind(1).0 > 0, "ROB-full cores: {:?}", by_kind(1));
    assert!(by_kind(2).1 > 0, "MSHR-wedged cores: {:?}", by_kind(2));
}

/// Per-cycle totals recorded from the CMP that charged every quiesced core
/// one stall cycle per tick: [committed, mem_instrs, loads, stores,
/// rob_full_cycles, mshr_stall_cycles] summed over all 16 cores.
const PER_CYCLE_TOTALS: [u64; 6] = [123_892, 9_289, 9_289, 0, 238_588, 181_645];

#[test]
fn lazy_charge_reproduces_per_tick_charging() {
    let (sys, _) = drive_per_cycle();
    assert_eq!(totals(&sys), PER_CYCLE_TOTALS);
}
