//! Simpoint-style phase behaviour.
//!
//! The paper evaluates each SPEC application as its top-4 Simpoint slices
//! (§VI-A), i.e. distinct program phases with different memory behaviour.
//! [`PhasedSource`] interleaves several [`SynthSource`] phases on a fixed
//! instruction schedule; [`phase_variants`] derives a plausible 4-phase
//! set from a base profile (a memory-burst phase, a compute-lean phase,
//! a streaming-heavy phase, and the base itself).

use crate::profile::AppProfile;
use crate::synth::SynthSource;
use microbank_cpu::instr::{Instr, InstrSource};

/// Derive the paper-style 4-slice variant set from one application
/// profile. Every variant stays within the app's MAPKI class.
pub fn phase_variants(base: AppProfile) -> Vec<AppProfile> {
    let mut burst = base;
    // Memory-burst phase: more accesses escape the hot set.
    burst.hot_fraction = (base.hot_fraction - (1.0 - base.hot_fraction) * 0.5).max(0.0);
    let mut lean = base;
    // Compute-lean phase: hotter working set.
    lean.hot_fraction = base.hot_fraction + (1.0 - base.hot_fraction) * 0.5;
    let mut streamy = base;
    // Streaming-heavy phase: longer sequential runs.
    streamy.stream_run = (base.stream_run * 2.0).min(4096.0);
    vec![base, burst, lean, streamy]
}

/// Interleaves phase sources on a fixed instruction schedule.
#[derive(Debug, Clone)]
pub struct PhasedSource {
    phases: Vec<SynthSource>,
    /// Instructions per phase before switching.
    period: u64,
    pos: u64,
    cur: usize,
    /// Completed phase switches (diagnostics).
    pub switches: u64,
}

impl PhasedSource {
    pub fn new(phases: Vec<SynthSource>, period: u64) -> Self {
        assert!(!phases.is_empty() && period > 0);
        PhasedSource {
            phases,
            period,
            pos: 0,
            cur: 0,
            switches: 0,
        }
    }

    /// Build from a base profile using [`phase_variants`], one seeded
    /// source per phase over the same address region.
    #[allow(clippy::too_many_arguments)]
    pub fn from_profile(
        profile: AppProfile,
        seed: u64,
        base_addr: u64,
        size: u64,
        shared_base: u64,
        shared_size: u64,
        period: u64,
    ) -> Self {
        let phases = phase_variants(profile)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                SynthSource::new(
                    p,
                    seed ^ (i as u64 + 1),
                    base_addr,
                    size,
                    shared_base,
                    shared_size,
                )
            })
            .collect();
        Self::new(phases, period)
    }

    pub fn current_phase(&self) -> usize {
        self.cur
    }
}

impl InstrSource for PhasedSource {
    fn next_instr(&mut self) -> Instr {
        if self.pos == self.period {
            self.pos = 0;
            self.cur = (self.cur + 1) % self.phases.len();
            self.switches += 1;
        }
        self.pos += 1;
        self.phases[self.cur].next_instr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::validate;

    fn base() -> AppProfile {
        let mut p = AppProfile::base("phased");
        p.hot_fraction = 0.9;
        p
    }

    #[test]
    fn variants_are_valid_and_distinct() {
        let vs = phase_variants(base());
        assert_eq!(vs.len(), 4);
        for v in &vs {
            validate(v).unwrap();
        }
        assert!(
            vs[1].hot_fraction < vs[0].hot_fraction,
            "burst phase misses more"
        );
        assert!(
            vs[2].hot_fraction > vs[0].hot_fraction,
            "lean phase misses less"
        );
        assert!(
            vs[3].stream_run > vs[0].stream_run,
            "streamy phase runs longer"
        );
    }

    #[test]
    fn phases_rotate_on_schedule() {
        let mut s = PhasedSource::from_profile(base(), 7, 0, 8 << 20, 0, 0, 100);
        assert_eq!(s.current_phase(), 0);
        for _ in 0..100 {
            s.next_instr();
        }
        assert_eq!(s.current_phase(), 0, "switch happens on the next fetch");
        s.next_instr();
        assert_eq!(s.current_phase(), 1);
        for _ in 0..300 {
            s.next_instr();
        }
        assert_eq!(s.current_phase(), 0, "wrapped around all 4 phases");
        assert_eq!(s.switches, 4);
    }

    #[test]
    fn burst_phase_is_memory_heavier_than_lean() {
        let mut s = PhasedSource::from_profile(base(), 9, 0, 8 << 20, 0, 0, 20_000);
        let mut cold_by_phase = [0u32; 4];
        // One full rotation; count non-hot accesses per phase by footprint
        // position (hot set is a fixed small line set, so approximate by
        // counting all memory accesses — burst vs lean differ via hot
        // fraction only at the DRAM level; here we check mem fraction is
        // constant and the phases at least differ in address dispersion).
        let mut distinct: [std::collections::HashSet<u64>; 4] = Default::default();
        for phase in 0..4 {
            for _ in 0..20_000 {
                if let Instr::Mem { addr, .. } = s.next_instr() {
                    cold_by_phase[phase] += 1;
                    distinct[phase].insert(addr);
                }
            }
            s.next_instr(); // trigger the switch
        }
        // Burst phase touches more distinct lines than lean phase.
        assert!(
            distinct[1].len() > distinct[2].len(),
            "burst {} vs lean {}",
            distinct[1].len(),
            distinct[2].len()
        );
    }

    #[test]
    #[should_panic]
    fn empty_phase_list_rejected() {
        PhasedSource::new(vec![], 10);
    }
}
