//! Memory-controller microbenchmarks: sustained request throughput under
//! FR-FCFS vs PAR-BS, and the per-slot cost of a saturated (16,16)
//! controller — `tick` plus the `next_event` horizon, the pair the drive
//! loop runs after every executed slot — with the queue kept full.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind};
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::scheduler::SchedulerKind;
use std::hint::black_box;

/// Next address of a deterministic pseudo-random line stream.
fn next_addr(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 16) % (1 << 28)) & !63
}

fn drive(sched: SchedulerKind, reqs: u64) -> u64 {
    let cfg = MemConfig::lpddr_tsi()
        .with_ubanks(4, 4)
        .with_channels(1)
        .with_refresh(false);
    let mut c = MemoryController::new(&cfg, sched, PolicyKind::Open, 8);
    let mut done: Vec<Completion> = Vec::new();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut now = 0u64;
    // Pseudo-random deterministic address stream over 8 threads.
    let mut state = 0x12345678u64;
    while completed < reqs {
        while issued < reqs && c.free_slots() > 0 {
            let addr = next_addr(&mut state);
            let mut r = MemRequest::new(issued, addr, ReqKind::Read, (issued % 8) as u16, now);
            r.loc = c.map().decode(addr);
            c.enqueue(r, now);
            issued += 1;
        }
        c.tick(now);
        done.clear();
        c.take_completions(&mut done);
        completed += done.len() as u64;
        now += 4;
    }
    now
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("controller_throughput");
    g.sample_size(20);
    for (name, sched) in [
        ("fr-fcfs", SchedulerKind::FrFcfs),
        ("par-bs", SchedulerKind::ParBs { marking_cap: 5 }),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &sched, |b, &s| {
            b.iter(|| drive(black_box(s), 400))
        });
    }
    g.finish();
}

/// `slots` command slots of one (16,16) channel whose queue is refilled
/// before every slot. Returns a checksum of the horizons so the
/// `next_event` calls cannot be optimized away.
fn saturated(slots: u64) -> u64 {
    let cfg = MemConfig::lpddr_tsi().with_ubanks(16, 16).with_channels(1);
    let mut c = MemoryController::new(&cfg, SchedulerKind::default(), PolicyKind::Open, 64);
    let mut done: Vec<Completion> = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut id = 0u64;
    let mut sum = 0u64;
    for slot in 0..slots {
        let now = slot * 4;
        while c.free_slots() > 0 {
            let addr = next_addr(&mut state);
            let mut r = MemRequest::new(id, addr, ReqKind::Read, (id % 64) as u16, now);
            r.loc = c.map().decode(addr);
            c.enqueue(r, now);
            id += 1;
        }
        c.tick(now);
        sum = sum.wrapping_add(c.next_event(now).unwrap_or(now));
        done.clear();
        c.take_completions(&mut done);
    }
    sum
}

fn bench_saturated(c: &mut Criterion) {
    let mut g = c.benchmark_group("controller_saturated_16x16");
    g.sample_size(20);
    g.bench_function("tick+next_event x 4000 slots", |b| {
        b.iter(|| saturated(black_box(4000)))
    });
    g.finish();
}

criterion_group!(benches, bench_schedulers, bench_saturated);
criterion_main!(benches);
