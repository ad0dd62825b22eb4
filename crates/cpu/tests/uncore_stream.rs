//! The uncore's request stream is pinned.
//!
//! The miss path (opening a miss, merging into one in flight, filling,
//! evicting, writing back) decides every request the CMP sends to memory.
//! This suite drives the CMP against a scripted port and pins what reaches
//! it, so a refactor of that path must reproduce the stream exactly:
//!
//! - a random scenario (16 cores in 4 clusters with small caches, seeded
//!   load/store streams over a line pool every cluster shares plus private
//!   sequential runs, a port that rejects in fixed windows and answers each
//!   read after a delay that depends only on its id), hashed with FNV-1a
//!   over every accepted submit and the final statistics, with the
//!   prefetcher off and at degree 4;
//! - a directed cross-cluster race the random scenario never produces: a
//!   line is fetched a second time by another cluster while its first fill
//!   is still in flight. Its whole submit log is pinned.

use microbank_core::request::TenantId;
use microbank_core::Cycle;
use microbank_cpu::config::CmpConfig;
use microbank_cpu::instr::{Instr, InstrSource};
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_cpu::CoreStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scripted memory port. Reads are answered after `delay(id)` cycles;
/// submits during a reject window are refused; fills come out in
/// `(at, id)` order.
struct ScriptedPort {
    delay: fn(u64) -> Cycle,
    reject: fn(Cycle) -> bool,
    pending: BinaryHeap<Reverse<(Cycle, u64)>>,
    hash: Fnv,
    log: Vec<(Cycle, u64, u64, bool, u16)>,
    accepted: u64,
    rejects: u64,
}

impl ScriptedPort {
    fn new(delay: fn(u64) -> Cycle, reject: fn(Cycle) -> bool) -> Self {
        ScriptedPort {
            delay,
            reject,
            pending: BinaryHeap::new(),
            hash: Fnv::new(),
            log: Vec::new(),
            accepted: 0,
            rejects: 0,
        }
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

impl MemPort for ScriptedPort {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        if (self.reject)(now) {
            self.rejects += 1;
            return false;
        }
        self.accepted += 1;
        for v in [
            now,
            req.id,
            req.addr,
            u64::from(req.is_write),
            u64::from(req.thread),
            u64::from(req.tenant.0),
        ] {
            self.hash.word(v);
        }
        self.log
            .push((now, req.id, req.addr, req.is_write, req.thread));
        if !req.is_write {
            self.pending
                .push(Reverse((now + (self.delay)(req.id), req.id)));
        }
        true
    }
}

/// Deliver due fills in `(at, id)` order, then tick, for `cycles` cycles —
/// the order the simulator's drive uses.
fn drive<S: InstrSource>(sys: &mut CmpSystem<S>, port: &mut ScriptedPort, cycles: Cycle) {
    for now in 0..cycles {
        while let Some(id) = port.pop_due(now) {
            sys.on_fill(id, now, port);
        }
        sys.tick(now, port);
    }
    sys.settle_stalls(cycles);
}

const SHARED_LINES: u64 = 96;

/// Seeded traffic for one core: one instruction in three is a memory
/// access, about 30% of them stores. Accesses come in runs of 4–19: a run
/// either draws lines from a pool every cluster shares (forwards,
/// upgrades, invalidations) or walks the core's private region line by
/// line (misses the prefetcher detects as a stream).
struct Traffic {
    rng: u64,
    base: u64,
    next_private: u64,
    run_left: u64,
    private_run: bool,
    tenant: TenantId,
}

impl Traffic {
    fn new(seed: u64, core: usize) -> Self {
        Traffic {
            rng: seed ^ (core as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
            base: (1 << 30) + ((core as u64) << 24),
            next_private: 0,
            run_left: 0,
            private_run: false,
            tenant: TenantId((core % 3) as u8),
        }
    }
}

impl InstrSource for Traffic {
    fn next_instr(&mut self) -> Instr {
        let r = splitmix(&mut self.rng);
        if !r.is_multiple_of(3) {
            return Instr::Compute;
        }
        if self.run_left == 0 {
            self.run_left = 4 + (r >> 40) % 16;
            self.private_run = (r >> 56).is_multiple_of(2);
        }
        self.run_left -= 1;
        let addr = if self.private_run {
            self.next_private = (self.next_private + 1) % 4096;
            self.base + self.next_private * 64
        } else {
            ((r >> 8) % SHARED_LINES) * 64
        };
        Instr::Mem {
            addr,
            is_write: (r >> 24) % 10 < 3,
        }
    }

    fn tenant(&self) -> TenantId {
        self.tenant
    }
}

/// The random scenario's platform: 16 cores in 4 clusters, a 1 KiB 2-way
/// L1 and an 8 KiB 4-way L2.
fn random_cfg(prefetch_degree: usize) -> CmpConfig {
    CmpConfig {
        l1_bytes: 1024,
        l1_assoc: 2,
        l2_bytes: 8192,
        l2_assoc: 4,
        prefetch_degree,
        ..CmpConfig::small(16)
    }
}

const RANDOM_CYCLES: Cycle = 20_000;

/// The port rejects for the last 60 cycles of every 500, and answers read
/// `id` after 40–399 cycles.
fn random_port() -> ScriptedPort {
    ScriptedPort::new(|id| 40 + (id * 7919) % 360, |now| now % 500 >= 440)
}

fn core_fields(s: &CoreStats) -> [u64; 6] {
    [
        s.committed,
        s.mem_instrs,
        s.loads,
        s.stores,
        s.rob_full_cycles,
        s.mshr_stall_cycles,
    ]
}

/// Run the random scenario and return the fingerprint, the port and the
/// system.
fn random_run(seed: u64, prefetch_degree: usize) -> (u64, ScriptedPort, CmpSystem<Traffic>) {
    let cfg = random_cfg(prefetch_degree);
    let sources = (0..cfg.cores).map(|c| Traffic::new(seed, c)).collect();
    let mut sys = CmpSystem::new(cfg, sources);
    let mut port = random_port();
    drive(&mut sys, &mut port, RANDOM_CYCLES);
    let mut h = Fnv(port.hash.0);
    let s = sys.stats();
    for v in [
        s.dram_reads,
        s.dram_writes,
        s.forwards,
        s.upgrades,
        s.prefetches,
        s.prefetch_hits,
    ] {
        h.word(v);
    }
    for i in 0..sys.num_cores() {
        for v in core_fields(&sys.core(i).stats) {
            h.word(v);
        }
    }
    let d = sys.directory();
    for v in [
        sys.l1_hit_rate().to_bits(),
        sys.l2_hit_rate().to_bits(),
        d.forwards,
        d.invalidation_msgs,
        d.tracked_lines() as u64,
        sys.inflight_fills() as u64,
        sys.backlog_len() as u64,
        port.rejects,
    ] {
        h.word(v);
    }
    (h.0, port, sys)
}

/// Every path the fingerprint is meant to cover was taken.
fn assert_paths_taken(port: &ScriptedPort, sys: &CmpSystem<Traffic>, prefetching: bool) {
    let s = sys.stats();
    let mshr_stalls: u64 = (0..sys.num_cores())
        .map(|i| sys.core(i).stats.mshr_stall_cycles)
        .sum();
    assert!(port.rejects > 0, "no submit was rejected");
    assert!(mshr_stalls > 0, "no core stalled on its MSHRs");
    assert!(s.forwards > 0, "no forward: {s:?}");
    assert!(s.upgrades > 0, "no upgrade: {s:?}");
    assert!(s.dram_writes > 0, "no writeback: {s:?}");
    if prefetching {
        assert!(s.prefetches > 0, "no prefetch: {s:?}");
        assert!(s.prefetch_hits > 0, "no prefetch hit: {s:?}");
    }
    sys.directory().check_invariants().unwrap();
}

/// (prefetch degree, fingerprint, accepted submits, rejected submits),
/// recorded from the CMP before its miss path was refactored.
const RANDOM_PINS: [(usize, u64, u64, u64); 2] = [
    (0, 0xe12d_ba79_f34a_99e9, 12_033, 1_631),
    (4, 0x3c9d_ce07_7592_f789, 16_032, 1_872),
];
const RANDOM_SEED: u64 = 0x5eed_0031;

#[test]
fn random_stream_is_pinned() {
    for (degree, fingerprint, accepted, rejects) in RANDOM_PINS {
        let (h, port, sys) = random_run(RANDOM_SEED, degree);
        assert_paths_taken(&port, &sys, degree > 0);
        assert_eq!(
            (h, port.accepted, port.rejects),
            (fingerprint, accepted, rejects),
            "prefetch degree {degree}: (fingerprint, accepted, rejected)"
        );
    }
}

/// A scripted instruction source: plays a fixed list, then computes.
struct Script {
    instrs: Vec<Instr>,
    pos: usize,
}

impl InstrSource for Script {
    fn next_instr(&mut self) -> Instr {
        let i = self.instrs.get(self.pos).copied();
        self.pos += 1;
        i.unwrap_or(Instr::Compute)
    }
}

fn script(pad: usize, accesses: &[(u64, bool)]) -> Script {
    let mut instrs = vec![Instr::Compute; pad];
    instrs.extend(
        accesses
            .iter()
            .map(|&(addr, is_write)| Instr::Mem { addr, is_write }),
    );
    Script { instrs, pos: 0 }
}

/// The directed race's submit log as (cycle, id, addr, is_write, thread),
/// recorded from the CMP before its miss path was refactored.
/// The writeback at cycle 152 is core 4's dirty line 0, evicted from
/// cluster 1's L2 by the fill of line 4096; it reaches the port as thread
/// 0 because fills are installed on thread 0's behalf.
const RACE_LOG: &[(Cycle, u64, u64, bool, u16)] = &[
    (0, 0, 0, false, 0),
    (50, 1, 1024, false, 4),
    (51, 2, 2048, false, 4),
    (51, 3, 3072, false, 4),
    (52, 4, 4096, false, 4),
    (52, 5, 5120, false, 4),
    (53, 6, 6144, false, 4),
    (152, 7, 0, true, 0),
    (750, 8, 0, false, 8),
];

/// Three clusters with a 4 KiB 4-way L2 (16 sets, so lines 1 KiB apart
/// share a set). Core 0 reads line 0 and the port holds that fill for 3000
/// cycles. Core 4 writes line 0 (forwarded from cluster 0's pending copy,
/// invalidating cluster 0), then streams six lines of the same L2 set,
/// which evicts line 0. Core 8 then reads line 0 at about cycle 750: the
/// directory has it uncached, so it goes to memory as a second transaction
/// while the first is still in flight.
#[test]
fn cross_cluster_refetch_while_in_flight_is_pinned() {
    let cfg = CmpConfig {
        l2_bytes: 4096,
        l2_assoc: 4,
        ..CmpConfig::small(12)
    };
    let mut sources: Vec<Script> = (0..12).map(|_| script(0, &[])).collect();
    sources[0] = script(0, &[(0, false)]);
    let mut stream = vec![(0, true)];
    stream.extend((1..=6).map(|k| (k * 1024, false)));
    sources[4] = script(100, &stream);
    sources[8] = script(1500, &[(0, false)]);
    let mut sys = CmpSystem::new(cfg, sources);
    let mut port = ScriptedPort::new(|id| if id == 0 { 3000 } else { 100 }, |_| false);
    drive(&mut sys, &mut port, 4000);

    let reads_of_0: Vec<_> = port.log.iter().filter(|e| e.2 == 0 && !e.3).collect();
    assert_eq!(reads_of_0.len(), 2, "{:?}", port.log);
    assert!(reads_of_0[1].0 < reads_of_0[0].0 + 3000, "{:?}", port.log);
    assert_eq!(sys.stats().forwards, 1);
    sys.directory().check_invariants().unwrap();
    assert_eq!(
        port.log, RACE_LOG,
        "submit log (cycle, id, addr, is_write, thread)"
    );
}
