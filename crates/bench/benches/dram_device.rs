//! Microbenchmarks of the DRAM device model: command-issue throughput of a
//! channel under row-hit streams and random (row-miss) traffic, across
//! μbank configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use microbank_core::address::AddressMap;
use microbank_core::channel::Channel;
use microbank_core::config::MemConfig;
use std::hint::black_box;

/// Drive `n` sequential-line reads through a channel, returning the cycle
/// the last burst finished (throughput proxy).
fn stream_reads(cfg: &MemConfig, n: u64) -> u64 {
    let map = AddressMap::new(cfg);
    let mut ch = Channel::new(cfg);
    let mut now = 0u64;
    let mut last = 0;
    for i in 0..n {
        let loc = map.decode(i * 64);
        let flat = loc.ubank_flat(cfg);
        loop {
            if ch.open_row_flat(flat) == Some(loc.row) {
                if ch.earliest_column_flat(flat, false) <= now {
                    last = ch.read_flat(flat, now);
                    break;
                }
            } else if ch.open_row_flat(flat).is_none() {
                if ch.earliest_activate_flat(flat) <= now {
                    ch.activate_flat(flat, loc.row, now);
                }
            } else if ch.earliest_precharge_flat(flat) <= now {
                ch.precharge_flat(flat, now);
            }
            now += 1;
        }
    }
    last
}

fn bench_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_channel_stream");
    for (nw, nb) in [(1usize, 1usize), (4, 4), (16, 16)] {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_refresh(false);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{nw}x{nb}")),
            &cfg,
            |b, cfg| b.iter(|| stream_reads(black_box(cfg), 512)),
        );
    }
    g.finish();
}

fn bench_address_map(c: &mut Criterion) {
    let cfg = MemConfig::lpddr_tsi().with_ubanks(4, 4);
    let map = AddressMap::new(&cfg);
    c.bench_function("address_decode_encode", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                let loc = map.decode(black_box(i * 4096));
                acc ^= map.encode(&loc);
            }
            acc
        })
    });
}

criterion_group!(benches, bench_channel, bench_address_map);
criterion_main!(benches);
