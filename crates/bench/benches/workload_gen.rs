//! Workload-generator microbenchmarks: instruction-stream production rates
//! for the pointer-chasing, streaming, database and SPEC low-MAPKI
//! profiles, read one instruction at a time and a block at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microbank_cpu::instr::{Instr, InstrSource};
use microbank_workloads::spec::by_name;
use microbank_workloads::suite::tpc_h;
use microbank_workloads::synth::SynthSource;
use std::hint::black_box;

fn bench_sources(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload_gen");
    let profiles = [
        by_name("429.mcf").unwrap(),
        by_name("462.libquantum").unwrap(),
        by_name("400.perlbench").unwrap(),
        tpc_h(),
    ];
    for p in profiles {
        g.bench_with_input(BenchmarkId::new("next_instr", p.name), &p, |b, p| {
            b.iter(|| {
                let mut s = SynthSource::new(*p, 7, 0, 64 << 20, 1 << 30, 1 << 24);
                let mut acc = 0u64;
                for _ in 0..8192 {
                    if let Instr::Mem { addr, .. } = s.next_instr() {
                        acc ^= black_box(addr);
                    }
                }
                acc
            })
        });
        // The same 8192 instructions (or a block past them) as blocks of
        // at most 64 non-memory instructions, the core's read-ahead.
        g.bench_with_input(BenchmarkId::new("next_block", p.name), &p, |b, p| {
            b.iter(|| {
                let mut s = SynthSource::new(*p, 7, 0, 64 << 20, 1 << 30, 1 << 24);
                let (mut acc, mut n) = (0u64, 0u32);
                while n < 8192 {
                    let block = s.next_block(64);
                    n += block.gap;
                    if let Some((addr, _)) = block.mem {
                        acc ^= black_box(addr);
                        n += 1;
                    }
                }
                acc
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sources);
criterion_main!(benches);
