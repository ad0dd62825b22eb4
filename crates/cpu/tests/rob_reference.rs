//! The core's ROB ring and block dispatch against a plain reference.
//!
//! [`Core`] keeps its reorder buffer in a power-of-two ring sized above
//! the configured capacity, reads its instruction stream a block at a
//! time, and marks an MSHR-stalled access with a flag. The reference here
//! is the per-instruction model those replace: a `VecDeque` of
//! `(seq, ready)` entries, one `next_instr` per dispatch slot, and the
//! stalled instruction held for replay. Both run the same random stream
//! against the same random memory outcomes (`ReadyAt`, `Pending`, `Stall`)
//! with out-of-order load completions, at capacities 1..=40, and must agree
//! on every memory call, the commit counts, every statistic and
//! `quiesced_until` on every cycle.

use microbank_core::Cycle;
use microbank_cpu::instr::{Instr, InstrSource};
use microbank_cpu::rob::{Core, MemOutcome, StallKind};
use microbank_cpu::CoreStats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A random instruction stream: each slot is an access with probability
/// `mem_permille / 1000`, a store with probability one half.
#[derive(Clone)]
struct RandomStream {
    rng: StdRng,
    mem_permille: u32,
    next_addr: u64,
}

impl InstrSource for RandomStream {
    fn next_instr(&mut self) -> Instr {
        if self.rng.gen_range(0..1000u32) >= self.mem_permille {
            return Instr::Compute;
        }
        self.next_addr += 64;
        Instr::Mem {
            addr: self.next_addr,
            is_write: self.rng.gen(),
        }
    }
}

/// The per-instruction ROB the ring and block dispatch replace.
struct RefCore {
    rob: VecDeque<(u64, Cycle)>,
    capacity: usize,
    width: usize,
    alu_latency: u64,
    next_seq: u64,
    replay: Option<Instr>,
    stats: CoreStats,
}

impl RefCore {
    fn commit(&mut self, now: Cycle) -> usize {
        let mut n = 0;
        while n < self.width && self.rob.front().is_some_and(|&(_, r)| r <= now) {
            self.rob.pop_front();
            self.stats.committed += 1;
            n += 1;
        }
        n
    }

    fn dispatch<S: InstrSource>(
        &mut self,
        now: Cycle,
        src: &mut S,
        mut mem: impl FnMut(u64, bool, u64) -> MemOutcome,
    ) {
        if self.rob.len() >= self.capacity {
            self.stats.rob_full_cycles += 1;
            return;
        }
        for _ in 0..self.width {
            if self.rob.len() >= self.capacity {
                break;
            }
            let instr = self.replay.take().unwrap_or_else(|| src.next_instr());
            let ready = match instr {
                Instr::Compute => now + self.alu_latency,
                Instr::Mem { addr, is_write } => {
                    let ready = match mem(addr, is_write, self.next_seq) {
                        MemOutcome::ReadyAt(c) => c,
                        MemOutcome::Pending => Cycle::MAX,
                        MemOutcome::Stall => {
                            self.replay = Some(instr);
                            self.stats.mshr_stall_cycles += 1;
                            break;
                        }
                    };
                    self.stats.mem_instrs += 1;
                    if is_write {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    ready
                }
            };
            self.rob.push_back((self.next_seq, ready));
            self.next_seq += 1;
        }
    }

    fn quiesced_until(&self) -> (Cycle, StallKind) {
        let head = self.rob.front().map(|&(_, r)| r);
        if self.rob.len() >= self.capacity {
            return (head.unwrap_or(0), StallKind::RobFull);
        }
        if self.replay.is_some() {
            return (head.unwrap_or(Cycle::MAX), StallKind::MshrReplay);
        }
        (0, StallKind::RobFull)
    }

    fn complete_load(&mut self, seq: u64, now: Cycle) {
        if let Some(e) = self.rob.iter_mut().find(|e| e.0 == seq) {
            e.1 = now;
        }
    }
}

/// One memory call as the core made it: `(addr, is_write, seq)`.
type Call = (u64, bool, u64);

/// The outcome of memory call number `k`: a hit ready 1–5 cycles out,
/// a pending miss (a posted store is ready instead, as in the CMP), or an
/// MSHR stall, in proportions set by `mix`.
fn outcome(k: u64, is_write: bool, now: Cycle, mix: (u32, u32)) -> MemOutcome {
    let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let roll = (h % 100) as u32;
    if roll < mix.0 || (is_write && roll < mix.0 + mix.1) {
        MemOutcome::ReadyAt(now + 1 + h % 5)
    } else if roll < mix.0 + mix.1 {
        MemOutcome::Pending
    } else {
        MemOutcome::Stall
    }
}

fn same_stats(a: &CoreStats, b: &CoreStats) -> bool {
    (
        a.committed,
        a.mem_instrs,
        a.loads,
        a.stores,
        a.rob_full_cycles,
        a.mshr_stall_cycles,
    ) == (
        b.committed,
        b.mem_instrs,
        b.loads,
        b.stores,
        b.rob_full_cycles,
        b.mshr_stall_cycles,
    )
}

fn run(
    capacity: usize,
    width: usize,
    alu_latency: u64,
    mem_permille: u32,
    mix: (u32, u32),
    seed: u64,
) {
    const CYCLES: Cycle = 2_000;
    let stream = RandomStream {
        rng: StdRng::seed_from_u64(seed),
        mem_permille,
        next_addr: 0,
    };
    let (mut core_src, mut ref_src) = (stream.clone(), stream);
    let mut core = Core::new(0, capacity, width, alu_latency);
    let mut reference = RefCore {
        rob: VecDeque::new(),
        capacity,
        width,
        alu_latency,
        next_seq: 0,
        replay: None,
        stats: CoreStats::default(),
    };
    let mut completions = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut outstanding: Vec<u64> = Vec::new();
    let mut calls: u64 = 0;
    for now in 0..CYCLES {
        // Complete a random subset of the pending loads, in random order.
        let mut i = 0;
        while i < outstanding.len() {
            if completions.gen_range(0..4) == 0 {
                let seq = outstanding.swap_remove(i);
                core.complete_load(seq, now);
                reference.complete_load(seq, now);
            } else {
                i += 1;
            }
        }
        assert_eq!(core.commit(now), reference.commit(now), "commit at {now}");

        let mut core_calls: Vec<Call> = Vec::new();
        let first = calls;
        core.dispatch(now, &mut core_src, |a, w, seq| {
            core_calls.push((a, w, seq));
            let o = outcome(first + core_calls.len() as u64, w, now, mix);
            if o == MemOutcome::Pending {
                outstanding.push(seq);
            }
            o
        });
        let mut ref_calls: Vec<Call> = Vec::new();
        reference.dispatch(now, &mut ref_src, |a, w, seq| {
            ref_calls.push((a, w, seq));
            outcome(first + ref_calls.len() as u64, w, now, mix)
        });
        calls += core_calls.len() as u64;
        assert_eq!(core_calls, ref_calls, "memory calls at {now}");
        assert_eq!(
            core.rob_occupancy(),
            reference.rob.len(),
            "occupancy at {now}"
        );
        assert!(
            same_stats(&core.stats, &reference.stats),
            "stats at {now}: {:?} vs {:?}",
            core.stats,
            reference.stats
        );
        assert_eq!(
            core.quiesced_until(),
            reference.quiesced_until(),
            "quiesced_until at {now}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn ring_and_blocks_match_the_reference_rob(
        capacity in 1usize..=40,
        width in 1usize..=4,
        alu_latency in 1u64..=3,
        mem_permille in prop::sample::select(vec![0u32, 100, 320, 700, 1000]),
        mix in (0u32..=100, 0u32..=100),
        seed in 0u64..1_000_000,
    ) {
        let (hit, pending) = mix;
        let pending = pending.min(100 - hit);
        run(capacity, width, alu_latency, mem_permille, (hit, pending), seed);
    }
}

/// Capacities that are not powers of two, one past one, and the paper's
/// 32, each with a stall-heavy and a miss-heavy mix.
#[test]
fn awkward_capacities() {
    for capacity in [1, 2, 3, 5, 17, 31, 32, 33, 40] {
        for mix in [(20, 30), (50, 45), (0, 100)] {
            run(capacity, 2, 1, 320, mix, capacity as u64);
        }
    }
}
