//! The synthetic instruction-stream generator: an
//! [`InstrSource`] driven by an [`AppProfile`].
//!
//! Every thread owns a private address region (assigned by the simulator)
//! plus an optional process-shared region. Cold accesses follow a set of
//! concurrent sequential streams with geometrically distributed run
//! lengths, which is what gives an application its row-buffer locality;
//! `stream_run = 1` degenerates to uniform random access (pointer chasing).
//! All randomness is a seeded `StdRng`, so runs are fully deterministic.

use crate::profile::AppProfile;
use microbank_core::request::TenantId;
use microbank_cpu::instr::{Instr, InstrSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LINE: u64 = 64;

/// The unpartitioned DRAM row size (8 KB): the granularity at which
/// row-reuse locality operates (see [`AppProfile::row_reuse`]).
const ROW_BYTES: u64 = 8 * 1024;

#[derive(Debug, Clone, Copy)]
struct Stream {
    pos: u64,
    left: u32,
}

/// Deterministic synthetic workload source for one hardware thread.
#[derive(Debug, Clone)]
pub struct SynthSource {
    profile: AppProfile,
    rng: StdRng,
    /// Private region [base, base + size).
    base: u64,
    size: u64,
    /// Shared region [shared_base, shared_base + shared_size).
    shared_base: u64,
    shared_size: u64,
    streams: Vec<Stream>,
    next_stream: usize,
    /// Recently touched 8 KB row bases, revisited at random columns with
    /// probability `row_reuse`.
    recent_rows: std::collections::VecDeque<u64>,
    /// The hot working set: a fixed set of lines scattered across the
    /// private region. Scattering matters: a physically contiguous hot set
    /// would put every thread's hot lines in the same DRAM bank (the low
    /// 8 KB of each region maps to bank 0 under row interleaving), turning
    /// the warmup fill into a pathological single-bank storm no real
    /// workload exhibits.
    hot_addrs: Vec<u64>,
    /// Fractional accumulator implementing `mem_fraction`.
    acc: f64,
    /// Instructions generated (diagnostics).
    pub generated: u64,
    /// Tenant this stream belongs to (multi-tenant mixes only; 0 default).
    tenant: TenantId,
}

impl SynthSource {
    pub fn new(
        profile: AppProfile,
        seed: u64,
        base: u64,
        size: u64,
        shared_base: u64,
        shared_size: u64,
    ) -> Self {
        assert!(size >= 2 * LINE, "region too small");
        let size = size.min(profile.footprint.max(2 * LINE));
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = (0..profile.streams)
            .map(|_| Stream {
                pos: base + aligned(&mut rng, size),
                left: 0,
            })
            .collect();
        let hot_lines = (profile.hot_bytes / LINE).clamp(1, size / LINE) as usize;
        let hot_addrs = (0..hot_lines)
            .map(|_| base + aligned(&mut rng, size))
            .collect();
        SynthSource {
            profile,
            rng,
            base,
            size,
            shared_base,
            shared_size,
            streams,
            next_stream: 0,
            recent_rows: std::collections::VecDeque::with_capacity(profile.reuse_window + 1),
            hot_addrs,
            acc: 0.0,
            generated: 0,
            tenant: TenantId::default(),
        }
    }

    /// Tag this stream (and thus every request its core emits) as `tenant`.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sample a geometric run length with mean `stream_run`.
    fn sample_run(&mut self) -> u32 {
        let mean = self.profile.stream_run;
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        ((u.ln() / (1.0 - p).ln()).ceil() as u32).clamp(1, 4096)
    }

    fn cold_access(&mut self) -> u64 {
        // Working-set reuse: revisit a recent 8 KB row at a random column.
        if !self.recent_rows.is_empty() && self.rng.gen::<f64>() < self.profile.row_reuse {
            let i = self.rng.gen_range(0..self.recent_rows.len());
            let row = self.recent_rows[i];
            let span = ROW_BYTES.min(self.size);
            return row + aligned(&mut self.rng, span);
        }
        let idx = self.next_stream;
        self.next_stream = (self.next_stream + 1) % self.streams.len();
        let run = self.sample_run();
        let s = &mut self.streams[idx];
        if s.left == 0 {
            // Start a new run at a random line within the region.
            s.pos = self.base + aligned(&mut self.rng, self.size);
            s.left = run;
            if self.profile.row_reuse > 0.0 {
                self.recent_rows.push_back(s.pos & !(ROW_BYTES - 1));
                while self.recent_rows.len() > self.profile.reuse_window {
                    self.recent_rows.pop_front();
                }
            }
        }
        let a = s.pos;
        s.pos = self.base + ((s.pos - self.base) + LINE) % self.size;
        s.left -= 1;
        a
    }

    fn hot_access(&mut self) -> u64 {
        let i = self.rng.gen_range(0..self.hot_addrs.len());
        self.hot_addrs[i]
    }

    fn shared_access(&mut self) -> u64 {
        self.shared_base + aligned(&mut self.rng, self.shared_size.max(LINE))
    }
}

fn aligned(rng: &mut StdRng, span: u64) -> u64 {
    let lines = (span / LINE).max(1);
    rng.gen_range(0..lines) * LINE
}

impl InstrSource for SynthSource {
    fn tenant(&self) -> TenantId {
        self.tenant
    }

    fn next_instr(&mut self) -> Instr {
        self.generated += 1;
        self.acc += self.profile.mem_fraction;
        if self.acc < 1.0 {
            return Instr::Compute;
        }
        self.acc -= 1.0;
        let r: f64 = self.rng.gen();
        let p = self.profile;
        if r < p.hot_fraction {
            let addr = self.hot_access();
            let is_write = self.rng.gen::<f64>() < p.write_fraction;
            Instr::Mem { addr, is_write }
        } else if r < p.hot_fraction + p.shared_fraction && self.shared_size >= LINE {
            let addr = self.shared_access();
            let is_write = self.rng.gen::<f64>() < p.shared_write_fraction;
            Instr::Mem { addr, is_write }
        } else {
            let addr = self.cold_access();
            let is_write = self.rng.gen::<f64>() < p.write_fraction;
            Instr::Mem { addr, is_write }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(p: AppProfile, seed: u64) -> SynthSource {
        SynthSource::new(p, seed, 0, 32 << 20, 1 << 30, 1 << 20)
    }

    fn collect_mems(s: &mut SynthSource, n: usize) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        while out.len() < n {
            if let Instr::Mem { addr, is_write } = s.next_instr() {
                out.push((addr, is_write));
            }
        }
        out
    }

    #[test]
    fn deterministic_per_seed() {
        let p = AppProfile::base("t");
        let a = collect_mems(&mut src(p, 7), 500);
        let b = collect_mems(&mut src(p, 7), 500);
        let c = collect_mems(&mut src(p, 8), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mem_fraction_is_respected() {
        let mut p = AppProfile::base("t");
        p.mem_fraction = 0.25;
        let mut s = src(p, 1);
        let mut mems = 0;
        for _ in 0..40_000 {
            if matches!(s.next_instr(), Instr::Mem { .. }) {
                mems += 1;
            }
        }
        let frac = mems as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.01, "{frac}");
    }

    #[test]
    fn addresses_stay_in_regions() {
        let mut p = AppProfile::base("t");
        p.shared_fraction = 0.2;
        p.hot_fraction = 0.5;
        let mut s = SynthSource::new(p, 3, 0x1000000, 8 << 20, 0x8000000, 1 << 20);
        for (a, _) in collect_mems(&mut s, 5000) {
            let private = (0x1000000..0x1000000 + (8 << 20)).contains(&a);
            let shared = (0x8000000..0x8000000 + (1 << 20)).contains(&a);
            assert!(private || shared, "{a:#x} outside both regions");
            assert_eq!(a % 64, 0, "unaligned");
        }
    }

    #[test]
    fn stream_run_controls_sequentiality() {
        let mut seq_frac = Vec::new();
        for run in [1.0, 32.0] {
            let mut p = AppProfile::base("t");
            p.hot_fraction = 0.0;
            p.stream_run = run;
            p.streams = 1;
            let mems = collect_mems(&mut src(p, 5), 4000);
            let seq = mems.windows(2).filter(|w| w[1].0 == w[0].0 + 64).count();
            seq_frac.push(seq as f64 / mems.len() as f64);
        }
        assert!(
            seq_frac[0] < 0.05,
            "random stream too sequential: {}",
            seq_frac[0]
        );
        assert!(
            seq_frac[1] > 0.8,
            "streaming not sequential: {}",
            seq_frac[1]
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut p = AppProfile::base("t");
        p.write_fraction = 0.4;
        p.hot_fraction = 0.0;
        let mems = collect_mems(&mut src(p, 9), 8000);
        let w = mems.iter().filter(|m| m.1).count() as f64 / mems.len() as f64;
        assert!((w - 0.4).abs() < 0.03, "{w}");
    }

    #[test]
    fn row_reuse_concentrates_accesses_into_few_rows() {
        // With reuse on, cold accesses revisit a small set of 8 KB rows;
        // without it, rows are nearly all distinct.
        let rows_touched = |reuse: f64| {
            let mut p = AppProfile::base("t");
            p.hot_fraction = 0.0;
            p.stream_run = 1.0;
            p.row_reuse = reuse;
            p.reuse_window = 8;
            let mems = collect_mems(&mut src(p, 21), 2000);
            let rows: std::collections::HashSet<u64> = mems.iter().map(|m| m.0 / 8192).collect();
            rows.len()
        };
        let without = rows_touched(0.0);
        let with = rows_touched(0.7);
        assert!(
            (with as f64) < 0.6 * without as f64,
            "reuse {with} rows vs none {without}"
        );
    }

    #[test]
    fn reused_rows_are_recent_rows() {
        let mut p = AppProfile::base("t");
        p.hot_fraction = 0.0;
        p.stream_run = 1.0;
        p.row_reuse = 0.5;
        p.reuse_window = 4;
        let mems = collect_mems(&mut src(p, 33), 3000);
        // Every access's row must have appeared within the last ~64
        // accesses (window 4 rows × generous slack), i.e. reuse is local
        // in time, not a static hot set.
        let rows: Vec<u64> = mems.iter().map(|m| m.0 / 8192).collect();
        let mut repeats_close = 0;
        let mut repeats = 0;
        for i in 1..rows.len() {
            if let Some(prev) = rows[..i].iter().rposition(|&r| r == rows[i]) {
                repeats += 1;
                if i - prev <= 64 {
                    repeats_close += 1;
                }
            }
        }
        assert!(repeats > 500, "not enough reuse: {repeats}");
        // Random birthday collisions over the 4096-row region add distant
        // repeats; genuine reuse must still dominate.
        assert!(
            repeats_close as f64 > 0.75 * repeats as f64,
            "reuse not temporally local: {repeats_close}/{repeats}"
        );
    }

    #[test]
    fn multiple_streams_interleave() {
        let mut p = AppProfile::base("t");
        p.hot_fraction = 0.0;
        p.stream_run = 64.0;
        p.streams = 4;
        let mems = collect_mems(&mut src(p, 11), 64);
        // Consecutive cold accesses round-robin across 4 streams, so
        // directly consecutive addresses are rare even while streaming.
        let seq = mems.windows(2).filter(|w| w[1].0 == w[0].0 + 64).count();
        assert!(seq < 16, "streams not interleaved: {seq}");
    }
}
