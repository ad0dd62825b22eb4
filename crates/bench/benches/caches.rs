//! Cache and coherence microbenchmarks: L1/L2 access throughput,
//! directory transaction cost, and the whole CMP's per-cycle core tick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microbank_core::Cycle;
use microbank_cpu::cache::Cache;
use microbank_cpu::coherence::Directory;
use microbank_cpu::config::CmpConfig;
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_workloads::{build_sources, SpecGroup, Workload};
use std::collections::VecDeque;
use std::hint::black_box;

fn addr_stream(n: usize, span: u64) -> Vec<u64> {
    let mut state = 0xABCDEFu64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 10) % span) & !63
        })
        .collect()
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_access");
    for (name, bytes, assoc, span) in [
        ("l1_hits", 16 * 1024usize, 4usize, 8 * 1024u64),
        ("l1_thrash", 16 * 1024, 4, 1 << 24),
        ("l2_hits", 2 * 1024 * 1024, 16, 1 << 20),
    ] {
        let addrs = addr_stream(4096, span);
        g.bench_with_input(BenchmarkId::from_parameter(name), &addrs, |b, addrs| {
            b.iter(|| {
                let mut cache = Cache::new(bytes, assoc);
                for &a in addrs {
                    black_box(cache.access(a, a & 128 != 0));
                }
                cache.hits
            })
        });
    }
    g.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut g = c.benchmark_group("directory_read_write_mix");
    // `small` stays within a few hundred lines per bank; `mcf_scale` draws
    // about 65k distinct lines, the size of mcf-stress's directory, so each
    // bank grows through several doublings. Each iteration runs the stream
    // twice: the first pass grows the directory, the second times point
    // lookups on a full one.
    for (name, n, span) in [("small", 4096, 1u64 << 22), ("mcf_scale", 67_000, 1 << 26)] {
        let addrs = addr_stream(n, span);
        g.bench_with_input(BenchmarkId::from_parameter(name), &addrs, |b, addrs| {
            b.iter(|| {
                let mut d = Directory::new();
                for _pass in 0..2 {
                    for (i, &a) in addrs.iter().enumerate() {
                        let cluster = i % 16;
                        if i % 4 == 0 {
                            black_box(d.write_miss(a, cluster));
                        } else {
                            black_box(d.read_miss(a, cluster));
                        }
                    }
                }
                d.tracked_lines()
            })
        });
    }
    g.finish();
}

/// A memory that accepts every request and answers each read a fixed
/// delay later, so the core tick is timed without a controller.
struct DelayPort {
    delay: Cycle,
    /// Reads in flight as `(due cycle, request id)`, in due order.
    due: VecDeque<(Cycle, u64)>,
}

impl MemPort for DelayPort {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        if !req.is_write {
            self.due.push_back((now + self.delay, req.id));
        }
        true
    }
}

fn bench_cmp_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("cmp_tick");
    g.sample_size(10);
    // The paper's 64-core CMP on the SPEC low-MAPKI group, over the 8 GiB
    // the 16-channel paper default spreads it across; 20k cycles per
    // iteration, filled 120 cycles after each read is submitted.
    let cfg = CmpConfig::paper();
    let sources = build_sources(
        Workload::SpecGroupAvg(SpecGroup::Low),
        cfg.cores,
        8 << 30,
        7,
    );
    g.bench_function("spec_low_64_cores_20k_cycles", |b| {
        b.iter(|| {
            let mut cmp = CmpSystem::new(cfg, sources.clone());
            let mut port = DelayPort {
                delay: 120,
                due: VecDeque::new(),
            };
            for now in 0..20_000 {
                while port.due.front().is_some_and(|&(at, _)| at <= now) {
                    let (_, id) = port.due.pop_front().expect("peeked");
                    cmp.on_fill(id, now, &mut port);
                }
                cmp.tick(now, &mut port);
            }
            cmp.total_committed()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cache, bench_directory, bench_cmp_tick);
criterion_main!(benches);
