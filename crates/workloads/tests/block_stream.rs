//! The block instruction stream is exact: concatenated, the blocks
//! [`InstrSource::next_block`] returns are the [`InstrSource::next_instr`]
//! stream, both for [`SynthSource`]'s own tight loop and for the trait's
//! default built on `next_instr`, at any `max_gap`.

use microbank_cpu::instr::{Block, Instr, InstrSource};
use microbank_workloads::{AppProfile, SynthSource};
use proptest::prelude::*;

/// A [`SynthSource`] seen only through `next_instr`, so `next_block` is
/// the trait's default.
struct PerInstr(SynthSource);

impl InstrSource for PerInstr {
    fn next_instr(&mut self) -> Instr {
        self.0.next_instr()
    }
}

/// Append `block` to `out` as single instructions.
fn flatten(block: Block, out: &mut Vec<Instr>) {
    out.extend((0..block.gap).map(|_| Instr::Compute));
    if let Some((addr, is_write)) = block.mem {
        out.push(Instr::Mem { addr, is_write });
    }
}

/// The first `n` or more instructions of `src` read block by block.
fn by_blocks<S: InstrSource>(src: &mut S, max_gap: u32, n: usize) -> Vec<Instr> {
    let mut out = Vec::with_capacity(n + max_gap as usize + 1);
    while out.len() < n {
        let block = src.next_block(max_gap);
        assert!(
            block.gap <= max_gap,
            "gap {} over max_gap {max_gap}",
            block.gap
        );
        assert!(
            block.mem.is_some() || block.gap == max_gap,
            "a block without an access must fill max_gap"
        );
        flatten(block, &mut out);
    }
    out
}

fn source(profile: AppProfile, seed: u64) -> SynthSource {
    SynthSource::new(profile, seed, 0, 32 << 20, 1 << 30, 1 << 20)
}

/// `profile` with the drawn knobs: the memory fraction, the hot, shared
/// and write mixes, and the cold-stream shape.
fn profile(mem_fraction: f64, mix: (f64, f64, f64), stream_run: f64, reuse: f64) -> AppProfile {
    let mut p = AppProfile::base("block");
    p.mem_fraction = mem_fraction;
    (p.hot_fraction, p.shared_fraction, p.write_fraction) = mix;
    p.shared_write_fraction = p.write_fraction;
    p.stream_run = stream_run;
    p.row_reuse = reuse;
    p
}

/// Both block readers agree with the per-instruction stream, and each
/// source is left in the same state (the streams continue identically).
fn check(p: AppProfile, seed: u64, max_gap: u32) {
    const N: usize = 3_000;
    let reference: Vec<Instr> = {
        let mut s = source(p, seed);
        (0..2 * N + 2 * max_gap as usize + 4)
            .map(|_| s.next_instr())
            .collect()
    };
    let mut own = source(p, seed);
    let mut default = PerInstr(source(p, seed));
    let a = by_blocks(&mut own, max_gap, N);
    let b = by_blocks(&mut default, max_gap, N);
    assert_eq!(a, reference[..a.len()], "SynthSource::next_block");
    assert_eq!(b, reference[..b.len()], "default next_block");
    // Interleave the two readers after the first stretch: the sources must
    // still be in lockstep with the reference.
    let rest_a: Vec<Instr> = (0..N).map(|_| own.next_instr()).collect();
    assert_eq!(rest_a, reference[a.len()..a.len() + N]);
    let rest_b = by_blocks(&mut default, max_gap, N);
    assert_eq!(rest_b, reference[b.len()..b.len() + rest_b.len()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocks_concatenate_to_the_instruction_stream(
        // A negative pick stands for the uniform draw `any_fraction`.
        pick in prop::sample::select(vec![0.0, 1.0, 0.32, -1.0, -1.0, -1.0]),
        any_fraction in 0.0..1.0f64,
        frac in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        stream_run in prop::sample::select(vec![1.0, 4.0, 32.0]),
        reuse in prop::sample::select(vec![0.0, 0.5]),
        seed in 0u64..1_000_000,
        max_gap in prop::sample::select(vec![1u32, 2, 3, 7, 64, 1000]),
    ) {
        let mem_fraction = if pick < 0.0 { any_fraction } else { pick };
        let (hot, shared, write) = frac;
        let p = profile(mem_fraction, (hot, shared * (1.0 - hot), write), stream_run, reuse);
        check(p, seed, max_gap);
    }
}

/// The corner cases named on their own: no accesses at all, every
/// instruction an access, the suites' common 0.32, each at `max_gap` 1.
#[test]
fn corner_fractions_at_max_gap_one() {
    for mem_fraction in [0.0, 1.0, 0.32] {
        for max_gap in [1, 64] {
            check(profile(mem_fraction, (0.5, 0.1, 0.3), 4.0, 0.0), 7, max_gap);
        }
    }
}
