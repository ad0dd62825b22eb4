//! Ablation benchmarks for the design decisions called out in DESIGN.md:
//! PAR-BS marking cap, request-queue depth, refresh on/off, and scheduler
//! choice. Each reports the committed-instruction count of a fixed short
//! window (higher = better), so Criterion's timing doubles as a
//! sensitivity sweep log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_sim::simulator::{run, SimConfig};
use microbank_workloads::suite::Workload;
use std::hint::black_box;

fn base() -> SimConfig {
    let mut c = SimConfig::spec_single_channel(Workload::Spec("429.mcf"));
    c.warmup_cycles = 5_000;
    c.measure_cycles = 20_000;
    c.mem = c.mem.with_ubanks(4, 4);
    c
}

fn bench_marking_cap(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parbs_cap");
    g.sample_size(10);
    for cap in [1usize, 5, 16] {
        let mut cfg = base();
        cfg.scheduler = SchedulerKind::ParBs { marking_cap: cap };
        g.bench_with_input(BenchmarkId::from_parameter(cap), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_queue_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_queue_depth");
    g.sample_size(10);
    for q in [8usize, 32, 64] {
        let mut cfg = base();
        cfg.mem = cfg.mem.with_queue_size(q);
        g.bench_with_input(BenchmarkId::from_parameter(q), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_refresh");
    g.sample_size(10);
    for on in [true, false] {
        let mut cfg = base();
        cfg.mem = cfg.mem.with_refresh(on);
        g.bench_with_input(BenchmarkId::from_parameter(on), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scheduler");
    g.sample_size(10);
    for (name, s) in [
        ("fr-fcfs", SchedulerKind::FrFcfs),
        ("par-bs", SchedulerKind::ParBs { marking_cap: 5 }),
    ] {
        let mut cfg = base();
        cfg.scheduler = s;
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_organizations(c: &mut Criterion) {
    use microbank_core::organization::Organization;
    let mut g = c.benchmark_group("ablation_organization");
    g.sample_size(10);
    for org in Organization::comparison_set() {
        let mut cfg = base();
        cfg.mem = cfg.mem.with_organization(org);
        g.bench_with_input(BenchmarkId::from_parameter(org.label()), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_prefetch(c: &mut Criterion) {
    // Stream prefetching (extension, off in the paper's platform) on a
    // streaming workload: prefetched lines are row hits under page
    // interleaving, compounding with the open-page policy.
    let mut g = c.benchmark_group("ablation_prefetch_degree");
    g.sample_size(10);
    for degree in [0usize, 2, 4] {
        let mut cfg = base();
        cfg.workload = microbank_workloads::suite::Workload::Spec("462.libquantum");
        cfg.cmp.prefetch_degree = degree;
        g.bench_with_input(BenchmarkId::from_parameter(degree), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

fn bench_xor_hash(c: &mut Criterion) {
    // Permutation-based interleaving vs plain: an alternative
    // conflict-reduction lever to compare against μbank partitioning.
    let mut g = c.benchmark_group("ablation_xor_hash");
    g.sample_size(10);
    for on in [false, true] {
        let mut cfg = base();
        cfg.mem = cfg.mem.with_ubanks(1, 1).with_bank_xor_hash(on);
        g.bench_with_input(BenchmarkId::from_parameter(on), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)).committed)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_marking_cap,
    bench_queue_depth,
    bench_refresh,
    bench_scheduler,
    bench_organizations,
    bench_prefetch,
    bench_xor_hash
);
criterion_main!(benches);
